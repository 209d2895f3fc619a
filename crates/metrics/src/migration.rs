//! The paper's §4 migration quality metrics, computed from a trace.

use crate::stability::{find_stabilization, StabilityCriteria};
use crate::timeline::RateTimeline;
use crate::trace::{MigrationPhase, TraceEvent, TraceLog};
use flowmig_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The paper's six §4 migration spans for one run (1–6 below), plus the
/// phase spans, shard downtime and key-range totals that only the trace
/// records.
///
/// §4's seventh metric, the messages lost and replayed, is a count the
/// engine keeps: `EngineStats::replayed_roots` plus
/// `EngineStats::events_dropped` (in `flowmig-engine`), beside its store
/// counters. Spans 1–6 are reported **relative to the migration request**
/// (the paper plots them on an axis where the request is time 0). `None`
/// means the metric does not apply to the strategy (e.g. drain time for
/// DSM, recovery time for DCR/CCR) or the run never reached the state
/// (e.g. never stabilized before the horizon).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MigrationMetrics {
    /// 1) Restore duration: request → first sink arrival after the request.
    pub restore: Option<SimDuration>,
    /// 2) Drain/Capture duration: request → rebalance initiation (all
    ///    COMMITs acked). Not applicable (None) for DSM.
    pub drain_capture: Option<SimDuration>,
    /// 3) Rebalance duration: span of the rebalance command.
    pub rebalance: Option<SimDuration>,
    /// 4) Catchup time: request → last pre-request root at sink (DSM/CCR).
    pub catchup: Option<SimDuration>,
    /// 5) Recovery time: request → last replayed post-request root at sink
    ///    (DSM only).
    pub recovery: Option<SimDuration>,
    /// 6) Rate stabilization time: request → start of the first 60 s window
    ///    with output within 20 % of expected.
    pub stabilization: Option<SimDuration>,
    /// Span of the COMMIT phase alone (checkpoint persist wave) — the
    /// quantity the parallel-wave work optimizes. `None` for strategies
    /// without an explicit commit phase (DSM migrations).
    pub commit_wave: Option<SimDuration>,
    /// Span of the Restore phase alone (rebalance completion → INIT wave
    /// fully acked), the other half of the parallel-wave critical path.
    pub restore_wave: Option<SimDuration>,
    /// Total time store shards spent with replicas down. `None` when no
    /// shard outage was injected.
    pub shard_downtime: Option<SimDuration>,
    /// Bytes of state moved through the store by key-range persists and
    /// restores (0 for whole-instance strategies, which never record
    /// range events).
    pub moved_bytes: u64,
    /// Contiguous key ranges persisted by key-range COMMITs (0 for
    /// whole-instance strategies).
    pub ranges_moved: u64,
}

impl MigrationMetrics {
    /// Computes the metrics from a trace, in one pass over its events.
    ///
    /// `criteria` supplies the expected output rate and stability band;
    /// `bucket` is the throughput bucket width (paper: 10 s).
    ///
    /// Returns a zeroed struct if the trace records no migration request.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero.
    pub fn from_trace(log: &TraceLog, criteria: &StabilityCriteria, bucket: SimDuration) -> Self {
        let mut fold = MetricsFold::new(bucket);
        for e in log.iter() {
            fold.observe(e);
        }
        fold.finish(criteria, log.last_at())
    }

    /// Total user-visible migration span: the maximum of restore, catchup
    /// and recovery (the top of the stacked bars in Fig. 5).
    pub fn total_migration(&self) -> Option<SimDuration> {
        [self.restore, self.catchup, self.recovery].into_iter().flatten().max()
    }
}

/// First start and last end of one phase; a phase that starts several
/// times (INIT waves) spans from its first start to its last end.
#[derive(Debug, Clone, Copy, Default)]
struct PhaseSpan {
    start: Option<SimTime>,
    end: Option<SimTime>,
}

impl PhaseSpan {
    fn get(self) -> Option<(SimTime, SimTime)> {
        self.start.zip(self.end)
    }

    fn length(self) -> Option<SimDuration> {
        self.get().map(|(s, e)| e - s)
    }
}

/// The one pass behind [`MigrationMetrics::from_trace`]: it observes each
/// event once, in time order, and keeps only the range totals, a few
/// instants and the throughput buckets.
#[derive(Debug)]
struct MetricsFold {
    timeline: RateTimeline,
    /// The first `MigrationRequested`; later ones are ignored.
    request: Option<SimTime>,
    drain: PhaseSpan,
    commit: PhaseSpan,
    rebalance: PhaseSpan,
    restore: PhaseSpan,
    last_arrival: Option<SimTime>,
    /// The first sink arrival at or after the request, and at or after
    /// the latest rebalance end: the two restore baselines.
    first_after_request: Option<SimTime>,
    first_after_rebalance: Option<SimTime>,
    last_old_arrival: Option<SimTime>,
    last_replayed_new_arrival: Option<SimTime>,
    /// The key-range totals, summed from the range events.
    moved_bytes: u64,
    ranges_moved: u64,
    /// Shards with replicas down, and since when.
    down_since: Vec<(usize, SimTime)>,
    downtime: SimDuration,
}

impl MetricsFold {
    fn new(bucket: SimDuration) -> Self {
        MetricsFold {
            timeline: RateTimeline::empty(bucket),
            request: None,
            drain: PhaseSpan::default(),
            commit: PhaseSpan::default(),
            rebalance: PhaseSpan::default(),
            restore: PhaseSpan::default(),
            last_arrival: None,
            first_after_request: None,
            first_after_rebalance: None,
            last_old_arrival: None,
            last_replayed_new_arrival: None,
            moved_bytes: 0,
            ranges_moved: 0,
            down_since: Vec::new(),
            downtime: SimDuration::ZERO,
        }
    }

    fn phase(&mut self, phase: MigrationPhase) -> Option<&mut PhaseSpan> {
        match phase {
            MigrationPhase::Drain => Some(&mut self.drain),
            MigrationPhase::Commit => Some(&mut self.commit),
            MigrationPhase::Rebalance => Some(&mut self.rebalance),
            MigrationPhase::Restore => Some(&mut self.restore),
            MigrationPhase::Pause | MigrationPhase::Resume => None,
        }
    }

    fn observe(&mut self, event: &TraceEvent) {
        self.timeline.observe(event);
        match *event {
            TraceEvent::SinkArrival { at, old, replayed, .. } => {
                self.last_arrival = Some(at);
                if self.request.is_some() {
                    self.first_after_request.get_or_insert(at);
                }
                if self.rebalance.end.is_some() {
                    self.first_after_rebalance.get_or_insert(at);
                }
                if old {
                    self.last_old_arrival = Some(at);
                } else if replayed {
                    self.last_replayed_new_arrival = Some(at);
                }
            }
            // A baseline that appears later counts the arrivals recorded
            // before it at the same instant.
            TraceEvent::MigrationRequested { at } if self.request.is_none() => {
                self.request = Some(at);
                self.first_after_request = self.last_arrival.filter(|&a| a >= at);
            }
            TraceEvent::PhaseStarted { phase, at } => {
                if let Some(span) = self.phase(phase) {
                    span.start.get_or_insert(at);
                }
            }
            TraceEvent::PhaseEnded { phase, at } => {
                if let Some(span) = self.phase(phase) {
                    span.end = Some(at);
                }
                if phase == MigrationPhase::Rebalance {
                    self.first_after_rebalance = self.last_arrival.filter(|&a| a >= at);
                }
            }
            TraceEvent::RangePersist { ranges, moved_bytes, .. } => {
                self.ranges_moved += u64::from(ranges);
                self.moved_bytes += moved_bytes;
            }
            TraceEvent::RangeRestore { moved_bytes, .. } => self.moved_bytes += moved_bytes,
            // A repeated `ShardDown` keeps the outage's first instant.
            TraceEvent::ShardDown { shard, at, .. }
                if !self.down_since.iter().any(|&(s, _)| s == shard) =>
            {
                self.down_since.push((shard, at));
            }
            TraceEvent::ShardUp { shard, at } => {
                if let Some(pos) = self.down_since.iter().position(|&(s, _)| s == shard) {
                    let (_, went_down) = self.down_since.swap_remove(pos);
                    self.downtime += at - went_down;
                }
            }
            _ => {}
        }
    }

    /// The metrics of the observed events; `end` is the trace's last
    /// instant, where an outage still open runs to.
    fn finish(self, criteria: &StabilityCriteria, end: SimTime) -> MigrationMetrics {
        let Some(req) = self.request else {
            return MigrationMetrics::default();
        };
        let rel = |t: SimTime| t.saturating_since(req);
        // Restore: first sink arrival after the dataflow goes dark. The
        // rebalance kills every migrating instance, so nothing can reach a
        // sink until redeployment completes — except events already in
        // network flight to the sink at the kill instant (a few ms), which
        // the paper does not count ("during this period there will be no
        // output events"). Baseline on the rebalance END: correct for all
        // strategies and free of those millisecond stragglers.
        let (rebalance_end, restore) = match self.rebalance.get() {
            Some((_, end)) => (end, self.first_after_rebalance),
            None => (req, self.first_after_request),
        };
        // Catchup counts old events that *survive* the migration — i.e.
        // arrive after the redeployment. Old events drained before the
        // kill (DCR) don't count: the paper reports no catchup for DCR.
        let catchup = self.last_old_arrival.filter(|&t| t >= rebalance_end);
        // An outage still open at the end of the trace runs to its last
        // recorded instant, which every trace level of a run shares.
        let downtime = self
            .down_since
            .iter()
            .fold(self.downtime, |total, &(_, went_down)| total + (end - went_down));
        MigrationMetrics {
            restore: restore.map(rel),
            drain_capture: self.drain.get().and(self.commit.get()).map(|(_, end)| rel(end)),
            rebalance: self.rebalance.length(),
            catchup: catchup.map(rel),
            recovery: self.last_replayed_new_arrival.map(rel),
            stabilization: find_stabilization(&self.timeline, criteria, req).map(rel),
            commit_wave: self.commit.length(),
            restore_wave: self.restore.length(),
            shard_downtime: Some(downtime).filter(|d| !d.is_zero()),
            moved_bytes: self.moved_bytes,
            ranges_moved: self.ranges_moved,
        }
    }
}

fn fmt_opt(d: Option<SimDuration>) -> String {
    match d {
        Some(d) => format!("{:.1}s", d.as_secs_f64()),
        None => "-".to_owned(),
    }
}

impl fmt::Display for MigrationMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "restore={} drain={} rebalance={} catchup={} recovery={} stabilization={} \
             commit_wave={} restore_wave={}",
            fmt_opt(self.restore),
            fmt_opt(self.drain_capture),
            fmt_opt(self.rebalance),
            fmt_opt(self.catchup),
            fmt_opt(self.recovery),
            fmt_opt(self.stabilization),
            fmt_opt(self.commit_wave),
            fmt_opt(self.restore_wave),
        )?;
        // Only a run with a shard outage prints its downtime.
        if self.shard_downtime.is_some() {
            write!(f, " shard_downtime={}", fmt_opt(self.shard_downtime))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{RootId, TraceLevel};

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// A miniature DSM-shaped trace: request at 180 s, rebalance 180–187,
    /// zero output until 240 s, old root lands at 260 s, replayed new root
    /// at 290 s, steady 8 ev/s output resuming at 300 s.
    fn dsm_like_trace() -> TraceLog {
        let mut log = TraceLog::new();
        // Steady state before migration: 8 ev/s output 0–180 s.
        let mut root = 0u64;
        for s in 0..180u64 {
            for k in 0..8u64 {
                let at = SimTime::from_millis(s * 1000 + k * 125);
                log.record(TraceEvent::SinkArrival {
                    root: RootId(root),
                    at,
                    generated_at: at,
                    old: true,
                    replayed: false,
                });
                root += 1;
            }
        }
        log.record(TraceEvent::MigrationRequested { at: t(180) });
        log.record(TraceEvent::PhaseStarted { phase: MigrationPhase::Rebalance, at: t(180) });
        log.record(TraceEvent::PhaseEnded { phase: MigrationPhase::Rebalance, at: t(187) });
        log.record(TraceEvent::SourceEmit { root: RootId(900_000), at: t(210), replay: true });
        log.record(TraceEvent::SourceEmit { root: RootId(900_001), at: t(211), replay: true });
        // First output after request at 240 s; old root at 260; replayed new at 290.
        log.record(TraceEvent::SinkArrival {
            root: RootId(900_002),
            at: t(240),
            generated_at: t(200),
            old: false,
            replayed: false,
        });
        log.record(TraceEvent::SinkArrival {
            root: RootId(900_000),
            at: t(260),
            generated_at: t(179),
            old: true,
            replayed: true,
        });
        log.record(TraceEvent::SinkArrival {
            root: RootId(900_001),
            at: t(290),
            generated_at: t(200),
            old: false,
            replayed: true,
        });
        // Steady output from 300 s to 420 s.
        for s in 300..420u64 {
            for k in 0..8u64 {
                let at = SimTime::from_millis(s * 1000 + k * 125);
                log.record(TraceEvent::SinkArrival {
                    root: RootId(root),
                    at,
                    generated_at: at,
                    old: false,
                    replayed: false,
                });
                root += 1;
            }
        }
        log
    }

    #[test]
    fn dsm_shaped_metrics() {
        let log = dsm_like_trace();
        let m = MigrationMetrics::from_trace(
            &log,
            &StabilityCriteria::paper(8.0),
            SimDuration::from_secs(10),
        );
        assert_eq!(m.restore, Some(SimDuration::from_secs(60)));
        assert_eq!(m.drain_capture, None); // no drain/commit phases for DSM
        assert_eq!(m.rebalance, Some(SimDuration::from_secs(7)));
        assert_eq!(m.catchup, Some(SimDuration::from_secs(80))); // 260-180
        assert_eq!(m.recovery, Some(SimDuration::from_secs(110))); // 290-180
        assert_eq!(m.stabilization, Some(SimDuration::from_secs(120))); // 300 s
        assert_eq!(m.total_migration(), Some(SimDuration::from_secs(110)));
    }

    #[test]
    fn drain_metric_requires_both_phases() {
        let mut log = TraceLog::new();
        log.record(TraceEvent::MigrationRequested { at: t(10) });
        log.record(TraceEvent::PhaseStarted { phase: MigrationPhase::Drain, at: t(10) });
        log.record(TraceEvent::PhaseEnded { phase: MigrationPhase::Drain, at: t(12) });
        log.record(TraceEvent::PhaseStarted { phase: MigrationPhase::Commit, at: t(12) });
        log.record(TraceEvent::PhaseEnded { phase: MigrationPhase::Commit, at: t(13) });
        let m = MigrationMetrics::from_trace(
            &log,
            &StabilityCriteria::paper(8.0),
            SimDuration::from_secs(10),
        );
        assert_eq!(m.drain_capture, Some(SimDuration::from_secs(3)));
        assert_eq!(m.commit_wave, Some(SimDuration::from_secs(1)), "12s → 13s commit span");
        assert_eq!(m.restore_wave, None, "no restore phase in this trace");
    }

    #[test]
    fn no_request_yields_default() {
        let log = TraceLog::new();
        let m = MigrationMetrics::from_trace(
            &log,
            &StabilityCriteria::paper(8.0),
            SimDuration::from_secs(10),
        );
        assert_eq!(m, MigrationMetrics::default());
        assert_eq!(m.total_migration(), None);
    }

    #[test]
    fn display_renders_dashes_for_missing() {
        assert_eq!(
            MigrationMetrics::default().to_string(),
            "restore=- drain=- rebalance=- catchup=- recovery=- stabilization=- \
             commit_wave=- restore_wave=-"
        );
    }

    #[test]
    fn range_ledger_counts_only_key_range_events() {
        use flowmig_topology::InstanceId;
        let mut log = TraceLog::new();
        log.record(TraceEvent::MigrationRequested { at: t(10) });
        let whole = MigrationMetrics::from_trace(
            &log,
            &StabilityCriteria::paper(8.0),
            SimDuration::from_secs(10),
        );
        assert_eq!((whole.moved_bytes, whole.ranges_moved), (0, 0));

        log.record(TraceEvent::RangePersist {
            instance: InstanceId::from_index(4),
            ranges: 2,
            moved_bytes: 96,
            resident_bytes: 16,
            at: t(12),
        });
        log.record(TraceEvent::RangeRestore {
            instance: InstanceId::from_index(4),
            ranges: 2,
            moved_bytes: 96,
            at: t(20),
        });
        let scoped = MigrationMetrics::from_trace(
            &log,
            &StabilityCriteria::paper(8.0),
            SimDuration::from_secs(10),
        );
        assert_eq!(scoped.moved_bytes, 192, "persist + restore both ride the store");
        assert_eq!(scoped.ranges_moved, 2);
    }

    #[test]
    fn an_open_outage_runs_to_the_last_recorded_instant_at_every_level() {
        let events = [
            TraceEvent::MigrationRequested { at: t(10) },
            TraceEvent::ShardDown { shard: 0, down_replicas: 1, at: t(12) },
            TraceEvent::RootAcked { root: RootId(1), at: t(40) },
        ];
        let criteria = StabilityCriteria::paper(8.0);
        for level in [TraceLevel::Metrics, TraceLevel::Full] {
            let mut log = TraceLog::with_level(level);
            log.extend(events);
            let m = MigrationMetrics::from_trace(&log, &criteria, SimDuration::from_secs(10));
            assert_eq!(m.shard_downtime, Some(SimDuration::from_secs(28)), "{level:?}");
            assert!(m.to_string().ends_with(" restore_wave=- shard_downtime=28.0s"), "{m}");
        }
    }

    #[test]
    fn catchup_ignores_pre_request_old_arrivals() {
        // Old roots that landed *before* the request must not register as
        // catchup (DCR: no old events after migration).
        let mut log = TraceLog::new();
        log.record(TraceEvent::SinkArrival {
            root: RootId(1),
            at: t(5),
            generated_at: t(4),
            old: true,
            replayed: false,
        });
        log.record(TraceEvent::MigrationRequested { at: t(10) });
        let m = MigrationMetrics::from_trace(
            &log,
            &StabilityCriteria::paper(8.0),
            SimDuration::from_secs(10),
        );
        assert_eq!(m.catchup, None);
    }
}
