//! The §4 metric rules as one scan of the trace per question — how
//! `MigrationMetrics::from_trace` computed them before it became a single
//! fold. Kept as the oracle the fold must equal field for field, on every
//! pinned trace (`determinism.rs`) and on random traces
//! (`proptest_invariants.rs`).

use flowmig::prelude::*;

/// Every `MigrationMetrics` field, each from its own pass over `log`.
pub fn metrics(
    log: &TraceLog,
    criteria: &StabilityCriteria,
    bucket: SimDuration,
) -> MigrationMetrics {
    let Some(req) = log.migration_requested_at() else {
        return MigrationMetrics::default();
    };
    let rel = |t: SimTime| t.saturating_since(req);
    let span = |phase| log.phase_span(phase);
    let length = |phase| span(phase).map(|(s, e)| e - s);
    let arrivals = || {
        log.iter().filter_map(|e| match *e {
            TraceEvent::SinkArrival { at, old, replayed, .. } => Some((at, old, replayed)),
            _ => None,
        })
    };
    let sum = |value: fn(&TraceEvent) -> u64| log.iter().map(value).sum::<u64>();

    let rebalance_end = span(MigrationPhase::Rebalance).map_or(req, |(_, e)| e);
    let restore = arrivals().find(|&(at, ..)| at >= rebalance_end).map(|(at, ..)| rel(at));
    let last_old = arrivals().filter(|&(_, old, _)| old).map(|(at, ..)| at).max();
    let last_replayed_new =
        arrivals().filter(|&(_, old, replayed)| !old && replayed).map(|(at, ..)| at).max();
    let timeline = RateTimeline::from_trace(log, bucket);
    MigrationMetrics {
        restore,
        drain_capture: span(MigrationPhase::Drain)
            .zip(span(MigrationPhase::Commit))
            .map(|(_, (_, commit_end))| rel(commit_end)),
        rebalance: length(MigrationPhase::Rebalance),
        catchup: last_old.filter(|&t| t >= rebalance_end).map(rel),
        recovery: last_replayed_new.map(rel),
        stabilization: find_stabilization(&timeline, criteria, req).map(rel),
        commit_wave: length(MigrationPhase::Commit),
        restore_wave: length(MigrationPhase::Restore),
        shard_downtime: Some(shard_downtime(log)).filter(|d| !d.is_zero()),
        moved_bytes: sum(|e| match *e {
            TraceEvent::RangePersist { moved_bytes, .. }
            | TraceEvent::RangeRestore { moved_bytes, .. } => moved_bytes,
            _ => 0,
        }),
        ranges_moved: sum(|e| match *e {
            TraceEvent::RangePersist { ranges, .. } => u64::from(ranges),
            _ => 0,
        }),
    }
}

/// Time shards spent with replicas down: each shard's outage runs from its
/// first `ShardDown` to the next `ShardUp`, or if none to the log's last
/// recorded instant (its last event's, unless the log's level left that
/// event out).
fn shard_downtime(log: &TraceLog) -> SimDuration {
    let mut total = SimDuration::ZERO;
    let mut open: Vec<(usize, SimTime)> = Vec::new();
    for e in log.iter() {
        match *e {
            TraceEvent::ShardDown { shard, at, .. } if !open.iter().any(|&(s, _)| s == shard) => {
                open.push((shard, at));
            }
            TraceEvent::ShardUp { shard, at } => {
                if let Some(pos) = open.iter().position(|&(s, _)| s == shard) {
                    total += at - open.swap_remove(pos).1;
                }
            }
            _ => {}
        }
    }
    let last = log.last_at();
    open.iter().fold(total, |total, &(_, went_down)| total + (last - went_down))
}
