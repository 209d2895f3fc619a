//! Throughput and latency timelines (Figs. 7 and 9 of the paper).

use crate::trace::{TraceEvent, TraceLog};
use flowmig_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Input/output throughput over fixed-width buckets, as in Fig. 7.
///
/// Input counts source emissions (including replays — the paper's input-rate
/// spikes at 30 s intervals for DSM are replay bursts); output counts sink
/// arrivals.
///
/// # Examples
///
/// ```
/// use flowmig_metrics::{RateTimeline, RootId, TraceEvent, TraceLog};
/// use flowmig_sim::{SimDuration, SimTime};
///
/// let mut log = TraceLog::new();
/// for i in 0..80 {
///     log.record(TraceEvent::SourceEmit {
///         root: RootId(i),
///         at: SimTime::from_millis(i * 125),
///         replay: false,
///     });
/// }
/// let tl = RateTimeline::from_trace(&log, SimDuration::from_secs(10));
/// assert_eq!(tl.input_rate_hz(0), 8.0); // 8 ev/s steady input
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RateTimeline {
    bucket: SimDuration,
    input: Vec<u32>,
    output: Vec<u32>,
}

impl RateTimeline {
    /// Builds a timeline from a trace with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero.
    pub fn from_trace(log: &TraceLog, bucket: SimDuration) -> Self {
        let mut timeline = Self::empty(bucket);
        for e in log.iter() {
            timeline.observe(e);
        }
        timeline
    }

    /// A timeline with no buckets, to be fed by [`Self::observe`].
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero.
    pub(crate) fn empty(bucket: SimDuration) -> Self {
        assert!(!bucket.is_zero(), "bucket width must be positive");
        RateTimeline { bucket, input: Vec::new(), output: Vec::new() }
    }

    /// Counts `event` into its bucket if it is a source emission or a sink
    /// arrival. Both series grow together, so the timeline always runs to
    /// the bucket of the later of the last emission and the last arrival.
    pub(crate) fn observe(&mut self, event: &TraceEvent) {
        let (at, emitted) = match *event {
            TraceEvent::SourceEmit { at, .. } => (at, true),
            TraceEvent::SinkArrival { at, .. } => (at, false),
            _ => return,
        };
        let idx = (at.as_micros() / self.bucket.as_micros()) as usize;
        if self.input.len() <= idx {
            self.input.resize(idx + 1, 0);
            self.output.resize(idx + 1, 0);
        }
        let series = if emitted { &mut self.input } else { &mut self.output };
        series[idx] += 1;
    }

    /// Bucket width.
    pub fn bucket(&self) -> SimDuration {
        self.bucket
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.input.len()
    }

    /// Returns true if the timeline has no buckets.
    pub fn is_empty(&self) -> bool {
        self.input.is_empty()
    }

    /// Input (source emission) rate of bucket `idx` in events/second.
    pub fn input_rate_hz(&self, idx: usize) -> f64 {
        self.input.get(idx).copied().unwrap_or(0) as f64 / self.bucket.as_secs_f64()
    }

    /// Output (sink arrival) rate of bucket `idx` in events/second.
    pub fn output_rate_hz(&self, idx: usize) -> f64 {
        self.output.get(idx).copied().unwrap_or(0) as f64 / self.bucket.as_secs_f64()
    }

    /// Start time of bucket `idx`.
    pub fn bucket_start(&self, idx: usize) -> SimTime {
        SimTime::from_micros(self.bucket.as_micros() * idx as u64)
    }

    /// Iterates over `(bucket_start, input_hz, output_hz)` rows — the series
    /// plotted in Fig. 7.
    pub fn rows(&self) -> impl Iterator<Item = (SimTime, f64, f64)> + '_ {
        (0..self.len())
            .map(move |i| (self.bucket_start(i), self.input_rate_hz(i), self.output_rate_hz(i)))
    }
}

/// Extracts all end-to-end latencies (ms) of sink arrivals in `[from, to)`
/// — raw samples for percentile analysis.
pub fn latency_samples_ms(log: &TraceLog, from: SimTime, to: SimTime) -> Vec<f64> {
    log.iter()
        .filter_map(|e| match *e {
            TraceEvent::SinkArrival { at, generated_at, .. } if at >= from && at < to => {
                Some(at.saturating_since(generated_at).as_millis_f64())
            }
            _ => None,
        })
        .collect()
}

/// Windowed average end-to-end latency, as in Fig. 9 (10 s windows).
///
/// Latency of a sink arrival is measured from the root's *generation*
/// instant (when the external stream produced it), so source-side buffering
/// during a paused migration shows up as elevated latency — exactly the
/// bulge between the restore and stabilization marks in Fig. 9.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyTimeline {
    bucket: SimDuration,
    sum_ms: Vec<f64>,
    count: Vec<u32>,
}

impl LatencyTimeline {
    /// Builds a latency timeline from a trace with the given window width.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero.
    pub fn from_trace(log: &TraceLog, bucket: SimDuration) -> Self {
        assert!(!bucket.is_zero(), "bucket width must be positive");
        let mut sum_ms: Vec<f64> = Vec::new();
        let mut count: Vec<u32> = Vec::new();
        let w = bucket.as_micros();
        for e in log.iter() {
            if let TraceEvent::SinkArrival { at, generated_at, .. } = *e {
                let idx = (at.as_micros() / w) as usize;
                if sum_ms.len() <= idx {
                    sum_ms.resize(idx + 1, 0.0);
                    count.resize(idx + 1, 0);
                }
                sum_ms[idx] += at.saturating_since(generated_at).as_millis_f64();
                count[idx] += 1;
            }
        }
        LatencyTimeline { bucket, sum_ms, count }
    }

    /// Window width.
    pub fn bucket(&self) -> SimDuration {
        self.bucket
    }

    /// Number of windows.
    pub fn len(&self) -> usize {
        self.count.len()
    }

    /// Returns true if no window has data.
    pub fn is_empty(&self) -> bool {
        self.count.is_empty()
    }

    /// Average latency in window `idx` (milliseconds), if any events arrived.
    pub fn avg_latency_ms(&self, idx: usize) -> Option<f64> {
        match self.count.get(idx) {
            Some(&c) if c > 0 => Some(self.sum_ms[idx] / c as f64),
            _ => None,
        }
    }

    /// Iterates over `(window_start, avg_latency_ms)` rows, skipping empty
    /// windows — the series plotted in Fig. 9.
    pub fn rows(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        (0..self.len()).filter_map(move |i| {
            self.avg_latency_ms(i)
                .map(|l| (SimTime::from_micros(self.bucket.as_micros() * i as u64), l))
        })
    }

    /// Median of the per-window averages over `[from, to)` — the paper's
    /// "stable latency" horizontal line in Fig. 9.
    pub fn median_latency_ms(&self, from: SimTime, to: SimTime) -> Option<f64> {
        let mut vals: Vec<f64> =
            self.rows().filter(|&(t, _)| t >= from && t < to).map(|(_, l)| l).collect();
        if vals.is_empty() {
            return None;
        }
        vals.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        Some(vals[vals.len() / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::RootId;

    fn emit(root: u64, at_ms: u64) -> TraceEvent {
        TraceEvent::SourceEmit {
            root: RootId(root),
            at: SimTime::from_millis(at_ms),
            replay: false,
        }
    }

    fn arrive(root: u64, at_ms: u64, gen_ms: u64) -> TraceEvent {
        TraceEvent::SinkArrival {
            root: RootId(root),
            at: SimTime::from_millis(at_ms),
            generated_at: SimTime::from_millis(gen_ms),
            old: false,
            replayed: false,
        }
    }

    #[test]
    fn rates_per_bucket() {
        let mut log = TraceLog::new();
        // 20 emissions in bucket 0 (0-10 s), 5 in bucket 1.
        for i in 0..20 {
            log.record(emit(i, i * 100));
        }
        for i in 0..5 {
            log.record(emit(100 + i, 10_000 + i * 100));
        }
        let tl = RateTimeline::from_trace(&log, SimDuration::from_secs(10));
        assert_eq!(tl.len(), 2);
        assert_eq!(tl.input_rate_hz(0), 2.0);
        assert_eq!(tl.input_rate_hz(1), 0.5);
        assert_eq!(tl.output_rate_hz(0), 0.0);
        assert_eq!(tl.bucket_start(1), SimTime::from_secs(10));
    }

    #[test]
    fn latency_windows_average_and_skip_empty() {
        let mut log = TraceLog::new();
        log.record(arrive(1, 1_000, 500)); // 500 ms latency, window 0
        log.record(arrive(2, 2_000, 1_000)); // 1000 ms latency, window 0
        log.record(arrive(3, 25_000, 24_100)); // 900 ms, window 2
        let tl = LatencyTimeline::from_trace(&log, SimDuration::from_secs(10));
        assert_eq!(tl.avg_latency_ms(0), Some(750.0));
        assert_eq!(tl.avg_latency_ms(1), None);
        assert_eq!(tl.avg_latency_ms(2), Some(900.0));
        let rows: Vec<_> = tl.rows().collect();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn median_stable_latency() {
        let mut log = TraceLog::new();
        for w in 0..5u64 {
            // One arrival per window, latencies 100, 200, 300, 400, 500 ms.
            log.record(arrive(w, w * 10_000 + 1_000, w * 10_000 + 1_000 - (w + 1) * 100));
        }
        let tl = LatencyTimeline::from_trace(&log, SimDuration::from_secs(10));
        let med = tl.median_latency_ms(SimTime::ZERO, SimTime::from_secs(50)).unwrap();
        assert_eq!(med, 300.0);
        assert_eq!(tl.median_latency_ms(SimTime::from_secs(100), SimTime::from_secs(110)), None);
    }

    #[test]
    fn latency_samples_extract_window() {
        let mut log = TraceLog::new();
        log.record(arrive(1, 1_000, 500));
        log.record(arrive(2, 12_000, 11_000));
        let all = latency_samples_ms(&log, SimTime::ZERO, SimTime::from_secs(60));
        assert_eq!(all, vec![500.0, 1_000.0]);
        let w2 = latency_samples_ms(&log, SimTime::from_secs(10), SimTime::from_secs(20));
        assert_eq!(w2, vec![1_000.0]);
    }

    #[test]
    fn empty_trace_yields_empty_timelines() {
        let log = TraceLog::new();
        let rt = RateTimeline::from_trace(&log, SimDuration::from_secs(10));
        assert!(rt.is_empty());
        assert_eq!(rt.input_rate_hz(3), 0.0);
        let lt = LatencyTimeline::from_trace(&log, SimDuration::from_secs(10));
        assert!(lt.is_empty());
    }
}
