//! CSV export of experiment series — for plotting the figures with
//! external tools (gnuplot, matplotlib, vega).

use flowmig_metrics::{LatencyTimeline, RateTimeline, TraceLog};
use flowmig_sim::{SimDuration, SimTime};
use std::fmt::Write as _;

/// Renders a throughput timeline as CSV with header
/// `t_secs,input_hz,output_hz` — the series of Fig. 7.
///
/// `origin` shifts the time axis (pass the migration request time to get
/// the paper's t=0 convention).
///
/// # Examples
///
/// ```
/// use flowmig_metrics::{RootId, TraceEvent, TraceLog};
/// use flowmig_sim::{SimDuration, SimTime};
/// use flowmig_workloads::throughput_csv;
///
/// let mut log = TraceLog::new();
/// log.record(TraceEvent::SourceEmit { root: RootId(1), at: SimTime::from_secs(1), replay: false });
/// let csv = throughput_csv(&log, SimDuration::from_secs(10), SimTime::ZERO);
/// assert!(csv.starts_with("t_secs,input_hz,output_hz\n"));
/// ```
pub fn throughput_csv(log: &TraceLog, bucket: SimDuration, origin: SimTime) -> String {
    let timeline = RateTimeline::from_trace(log, bucket);
    let mut out = String::from("t_secs,input_hz,output_hz\n");
    for (at, input, output) in timeline.rows() {
        let t = at.as_secs_f64() - origin.as_secs_f64();
        let _ = writeln!(out, "{t:.1},{input:.3},{output:.3}");
    }
    out
}

/// Renders a latency timeline as CSV with header `t_secs,avg_latency_ms`
/// — the series of Fig. 9. Empty windows are skipped.
pub fn latency_csv(log: &TraceLog, bucket: SimDuration, origin: SimTime) -> String {
    let timeline = LatencyTimeline::from_trace(log, bucket);
    let mut out = String::from("t_secs,avg_latency_ms\n");
    for (at, latency) in timeline.rows() {
        let t = at.as_secs_f64() - origin.as_secs_f64();
        let _ = writeln!(out, "{t:.1},{latency:.3}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmig_metrics::{RootId, TraceEvent};

    fn mini_trace() -> TraceLog {
        let mut log = TraceLog::new();
        for i in 0..40u64 {
            log.record(TraceEvent::SourceEmit {
                root: RootId(i + 1),
                at: SimTime::from_millis(i * 250),
                replay: false,
            });
        }
        for i in 0..40u64 {
            log.record(TraceEvent::SinkArrival {
                root: RootId(i + 1),
                at: SimTime::from_millis(10_000 + i * 250),
                generated_at: SimTime::from_millis(i * 250),
                old: true,
                replayed: false,
            });
        }
        log
    }

    #[test]
    fn throughput_csv_rows_match_buckets() {
        let csv = throughput_csv(&mini_trace(), SimDuration::from_secs(10), SimTime::ZERO);
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines[0], "t_secs,input_hz,output_hz");
        assert_eq!(lines.len(), 3); // header + 2 buckets (0-10s, 10-20s)
        assert!(lines[1].starts_with("0.0,4.000"));
    }

    #[test]
    fn latency_csv_skips_empty_windows() {
        let csv = latency_csv(&mini_trace(), SimDuration::from_secs(10), SimTime::ZERO);
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        // Arrivals only in the 10-20 s window.
        assert_eq!(lines.len(), 2);
        assert!(lines[1].starts_with("10.0,"));
    }

    #[test]
    fn origin_shifts_time_axis() {
        let csv = throughput_csv(&mini_trace(), SimDuration::from_secs(10), SimTime::from_secs(10));
        assert!(csv.contains("\n-10.0,"), "pre-origin buckets go negative");
    }
}
