//! Aggregate engine counters (complementing the per-event trace).

use serde::{Deserialize, Serialize};

/// Counters accumulated over a run: the one home of its totals.
///
/// `events_dropped` and `replayed_roots` are §4's seventh metric, the
/// messages lost and replayed; `MigrationMetrics` holds only the spans.
/// `replayed_event_messages` is the paper's Fig. 6 quantity: the number of
/// *messages* (per-task deliveries) belonging to failed-and-replayed root
/// trees — i.e. work redone because of the migration.
///
/// Every counter is simulated, so run-twice determinism checks assert
/// `stats == stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Root events generated by the external stream model.
    pub roots_generated: u64,
    /// Source emissions, including replays.
    pub source_emissions: u64,
    /// Replay emissions (failed roots re-emitted).
    pub replayed_roots: u64,
    /// Data events processed by operator instances.
    pub events_processed: u64,
    /// Data events processed that belong to a replayed tree (Fig. 6).
    pub replayed_event_messages: u64,
    /// Data events that arrived at sinks.
    pub sink_arrivals: u64,
    /// Data events dropped at dead/starting instances.
    pub events_dropped: u64,
    /// Control events dropped at dead/starting instances.
    pub control_dropped: u64,
    /// Control events processed.
    pub control_processed: u64,
    /// Events captured into pending lists (CCR).
    pub events_captured: u64,
    /// Pending events replayed from checkpoints after INIT (CCR).
    pub pending_replayed: u64,
    /// Processed events a restore discarded: by how much each restore
    /// lowered its instance's processed count, summed. A restore from a
    /// blob committed before the instance's latest processing (DSM's
    /// periodic checkpoint, a ROLLBACK re-init from the last commit) rolls
    /// that work back; a restore from the state the instance just
    /// committed discards nothing.
    pub processed_rolled_back: u64,
    /// State persist operations.
    pub state_persists: u64,
    /// State fetch operations.
    pub state_fetches: u64,
    /// Durable state bytes written to the store by persists: the
    /// processed counter plus per-key-partition counters of each blob
    /// (captured pending events are replay traffic, counted separately
    /// via `events_captured`). A key-range persist adds only the bytes of
    /// the ranges actually moving, which is what makes whole-instance and
    /// range-scoped strategies byte-comparable.
    pub state_bytes_moved: u64,
    /// Bytes of cold key-range state left in place by key-range persists
    /// — what a whole-instance COMMIT would additionally have moved
    /// (always 0 for whole-instance strategies).
    pub state_bytes_resident: u64,
    /// Store operations that waited behind a busy shard (per-shard FIFO
    /// service model only; always 0 under the zero-queueing
    /// compatibility model). This and the next four store totals sum a
    /// [`ShardStats`](crate::ShardStats) field over the shards, where the
    /// store counts each operation once;
    /// [`Engine::run_until`](crate::Engine::run_until) fills them.
    pub store_ops_queued: u64,
    /// Total microseconds store operations spent waiting in shard queues
    /// before their service time started.
    pub store_wait_us: u64,
    /// Store operations rejected because too few shard replicas were live
    /// (failure injection; always 0 without a scheduled shard outage).
    pub store_ops_failed: u64,
    /// Persists priced as a quorum over a replicated shard (0 for the
    /// default unreplicated store).
    pub store_quorum_persists: u64,
    /// Quorum persists that completed while at least one replica of their
    /// shard was down.
    pub store_degraded_persists: u64,
    /// Roots completed (acked) by the acker.
    pub roots_acked: u64,
    /// Roots failed (timed out) by the acker.
    pub roots_failed: u64,
    /// New-root emissions deferred because `max.spout.pending` was reached.
    pub spout_throttled: u64,
    /// DES events dispatched by the simulation driver over the run (the
    /// denominator of events/sec throughput numbers).
    pub sim_events: u64,
    /// High-water mark of the future-event list's pending events,
    /// same-instant lane entries included.
    pub queue_peak_pending: u64,
    /// Lookahead-window rotations performed by the calendar queue backend
    /// (always 0 under the heap backend).
    pub queue_rotations: u64,
    /// Past instants silently clamped to `now`: external schedules such as
    /// [`Engine::schedule_migration`](crate::Engine::schedule_migration)
    /// with an instant behind the clock, and handler `Scheduler::at` calls
    /// (release builds; debug builds panic there instead). Nonzero flags a
    /// scheduling bug that the clamp kept from corrupting event order.
    pub sched_clamped_past: u64,
    /// Times the dispatch tables were brought up to date: one full build
    /// at construction, then one per completed rebalance. A rebalance
    /// counts whichever way it refreshed them: re-reading only the VM
    /// column (the assignment flip alone) or rebuilding every table
    /// (staged logic updates changed the dataflow). See the crate-level
    /// "Dispatch model" section.
    pub dispatch_rebuilds: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_all_zero() {
        let s = EngineStats::default();
        assert_eq!(s.roots_generated, 0);
        assert_eq!(s.replayed_event_messages, 0);
        assert_eq!(s, EngineStats::default());
    }
}
