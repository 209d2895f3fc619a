//! The experiment trace: a time-ordered record of everything observable.
//!
//! The engine appends [`TraceEvent`]s as the simulation runs; the analyzers
//! in this crate ([`MigrationMetrics`](crate::MigrationMetrics),
//! [`RateTimeline`](crate::RateTimeline), …) are pure functions over the
//! resulting [`TraceLog`] — mirroring how the paper logs "the timestamp of
//! checkpoint and user events from Storm and on the VMs" (§5) and evaluates
//! metrics offline.

use flowmig_sim::{SimDuration, SimTime};
use flowmig_topology::InstanceId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a root event (a tuple tree in Storm terms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RootId(pub u64);

impl fmt::Display for RootId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{:x}", self.0)
    }
}

/// Phases of a migration, in the order they occur.
///
/// Not every strategy visits every phase: DSM has no drain/capture, DCR has
/// no capture-replay, etc. Phase spans are recorded via
/// [`TraceEvent::PhaseStarted`] / [`TraceEvent::PhaseEnded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MigrationPhase {
    /// Source emission paused (DCR/CCR).
    Pause,
    /// PREPARE wave: draining (DCR) or capturing (CCR) in-flight events.
    Drain,
    /// COMMIT wave: persisting task state (and pending lists for CCR).
    Commit,
    /// Storm's `rebalance` command: kill + redeploy migrating instances.
    Rebalance,
    /// INIT wave(s): restoring task state on the new deployment.
    Restore,
    /// Source resumed; dataflow refilling.
    Resume,
}

impl fmt::Display for MigrationPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::Pause => "pause",
            Self::Drain => "drain",
            Self::Commit => "commit",
            Self::Rebalance => "rebalance",
            Self::Restore => "restore",
            Self::Resume => "resume",
        };
        f.write_str(s)
    }
}

/// Checkpoint control event kinds (Storm's checkpoint stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ControlKind {
    /// Start of a checkpoint wave; snapshots (DCR) or starts capture (CCR).
    Prepare,
    /// Persist prepared state to the state store.
    Commit,
    /// Abort an in-progress checkpoint wave.
    Rollback,
    /// Restore state after redeployment.
    Init,
}

impl ControlKind {
    /// Number of control kinds — the length of kind-indexed dense arrays.
    pub const COUNT: usize = 4;

    /// Every kind, in [`Self::index`] order.
    pub const ALL: [ControlKind; Self::COUNT] =
        [Self::Prepare, Self::Commit, Self::Rollback, Self::Init];

    /// Dense index of this kind (`0..COUNT`), for engine state that keys
    /// per-kind bookkeeping by array slot instead of by hash map.
    pub const fn index(self) -> usize {
        match self {
            Self::Prepare => 0,
            Self::Commit => 1,
            Self::Rollback => 2,
            Self::Init => 3,
        }
    }
}

impl fmt::Display for ControlKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::Prepare => "PREPARE",
            Self::Commit => "COMMIT",
            Self::Rollback => "ROLLBACK",
            Self::Init => "INIT",
        };
        f.write_str(s)
    }
}

/// One observable occurrence during a run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// The source emitted a root event (`replay == true` for re-emissions
    /// of failed roots).
    SourceEmit {
        /// Root event id.
        root: RootId,
        /// Emission instant.
        at: SimTime,
        /// Whether this is an acker-triggered replay.
        replay: bool,
    },
    /// A derived event of `root` reached a sink.
    SinkArrival {
        /// Root event id.
        root: RootId,
        /// Arrival instant.
        at: SimTime,
        /// When the root was generated by the external stream (before any
        /// source-side buffering) — the latency baseline.
        generated_at: SimTime,
        /// Whether the root was generated before the migration request.
        old: bool,
        /// Whether the root had been failed and replayed at least once.
        replayed: bool,
    },
    /// The acker timed out or failed a root.
    RootFailed {
        /// Root event id.
        root: RootId,
        /// Failure instant.
        at: SimTime,
    },
    /// The acker completed a root's tuple tree.
    RootAcked {
        /// Root event id.
        root: RootId,
        /// Completion instant.
        at: SimTime,
    },
    /// A data event was dropped: routed to a dead or absent instance, or
    /// held (queued, in service or captured) by an instance that was killed.
    EventDropped {
        /// Root whose derived event was lost.
        root: RootId,
        /// Drop instant.
        at: SimTime,
    },
    /// The user requested a migration (time zero of Figs. 7 and 9).
    MigrationRequested {
        /// Request instant.
        at: SimTime,
    },
    /// The migration finished (all instances initialized, source resumed).
    MigrationCompleted {
        /// Completion instant.
        at: SimTime,
    },
    /// A migration phase began.
    PhaseStarted {
        /// Phase.
        phase: MigrationPhase,
        /// Start instant.
        at: SimTime,
    },
    /// A migration phase ended.
    PhaseEnded {
        /// Phase.
        phase: MigrationPhase,
        /// End instant.
        at: SimTime,
    },
    /// A control wave of `kind` was emitted by the checkpoint source
    /// (`wave` numbers resends).
    ControlWave {
        /// Control event kind.
        kind: ControlKind,
        /// Wave sequence number (0 = first emission).
        wave: u32,
        /// Emission instant.
        at: SimTime,
    },
    /// An instance acked a control event of `kind` (first time only).
    ControlAcked {
        /// Control event kind.
        kind: ControlKind,
        /// Acking instance.
        instance: InstanceId,
        /// Ack instant.
        at: SimTime,
    },
    /// An instance was killed by the rebalance.
    InstanceKilled {
        /// Killed instance.
        instance: InstanceId,
        /// Kill instant.
        at: SimTime,
    },
    /// A redeployed instance's worker became ready (can receive events).
    WorkerReady {
        /// Ready instance.
        instance: InstanceId,
        /// Readiness instant.
        at: SimTime,
    },
    /// An instance restored its state from the store (INIT handled).
    InstanceRestored {
        /// Restored instance.
        instance: InstanceId,
        /// Restore instant.
        at: SimTime,
        /// Number of captured pending events replayed (CCR; 0 otherwise).
        pending_replayed: u32,
    },
    /// A store operation was admitted against a busy shard and had to
    /// wait in the shard's FIFO service queue (only emitted under the
    /// per-shard queueing store model, and only when the wait is
    /// non-zero — zero-queueing runs never record this event).
    StoreQueueWait {
        /// The instance whose persist/fetch queued.
        instance: InstanceId,
        /// The store shard that was busy.
        shard: usize,
        /// How long the operation waited before its service time started.
        wait: SimDuration,
        /// Admission instant (the wait starts here).
        at: SimTime,
    },
    /// Replicas of a store shard went down (failure injection).
    ShardDown {
        /// The failed store shard.
        shard: usize,
        /// How many of the shard's replicas are down (clamped to the
        /// configured replica count; the full count means a shard outage).
        down_replicas: u32,
        /// Failure instant.
        at: SimTime,
    },
    /// Every replica of a store shard came back up.
    ShardUp {
        /// The recovered store shard.
        shard: usize,
        /// Recovery instant.
        at: SimTime,
    },
    /// A persist completed as a quorum write over a replicated shard
    /// (only emitted when the store is configured with more than one
    /// replica — unreplicated runs never record this event).
    QuorumPersist {
        /// The instance whose state was persisted.
        instance: InstanceId,
        /// The store shard the write landed on.
        shard: usize,
        /// Configured replicas per shard.
        replicas: u32,
        /// Write quorum the persist waited for.
        quorum: u32,
        /// Whether at least one replica was down when the quorum completed.
        degraded: bool,
        /// Admission instant.
        at: SimTime,
    },
    /// A store operation failed: too few live replicas on the target shard
    /// (a persist below its write quorum, or a fetch with every replica
    /// down). The operation never completes; the affected wave stalls into
    /// its phase deadline.
    StoreOpFailed {
        /// The instance whose persist/fetch failed.
        instance: InstanceId,
        /// The store shard that rejected the operation.
        shard: usize,
        /// Rejection instant.
        at: SimTime,
    },
    /// A key-range COMMIT persisted only the instance's hot key ranges
    /// (only emitted under a key-range wave scope — whole-instance runs
    /// never record this event).
    RangePersist {
        /// The instance whose hot ranges were persisted.
        instance: InstanceId,
        /// Number of contiguous key ranges persisted.
        ranges: u32,
        /// Bytes actually written to the store (the migrating state).
        moved_bytes: u64,
        /// Bytes of the instance's cold key-range state left in place —
        /// what a whole-instance COMMIT would additionally have moved.
        resident_bytes: u64,
        /// Persist completion instant.
        at: SimTime,
    },
    /// A key-range INIT fetched and merged only the instance's hot key
    /// ranges (only emitted under a key-range wave scope).
    RangeRestore {
        /// The instance that restored its hot ranges.
        instance: InstanceId,
        /// Number of contiguous key ranges fetched.
        ranges: u32,
        /// Bytes read from the store (the migrating state).
        moved_bytes: u64,
        /// Restore completion instant.
        at: SimTime,
    },
}

impl TraceEvent {
    /// The instant at which this event occurred.
    pub fn at(&self) -> SimTime {
        match *self {
            TraceEvent::SourceEmit { at, .. }
            | TraceEvent::SinkArrival { at, .. }
            | TraceEvent::RootFailed { at, .. }
            | TraceEvent::RootAcked { at, .. }
            | TraceEvent::EventDropped { at, .. }
            | TraceEvent::MigrationRequested { at }
            | TraceEvent::MigrationCompleted { at }
            | TraceEvent::PhaseStarted { at, .. }
            | TraceEvent::PhaseEnded { at, .. }
            | TraceEvent::ControlWave { at, .. }
            | TraceEvent::ControlAcked { at, .. }
            | TraceEvent::InstanceKilled { at, .. }
            | TraceEvent::WorkerReady { at, .. }
            | TraceEvent::InstanceRestored { at, .. }
            | TraceEvent::StoreQueueWait { at, .. }
            | TraceEvent::ShardDown { at, .. }
            | TraceEvent::ShardUp { at, .. }
            | TraceEvent::QuorumPersist { at, .. }
            | TraceEvent::StoreOpFailed { at, .. }
            | TraceEvent::RangePersist { at, .. }
            | TraceEvent::RangeRestore { at, .. } => at,
        }
    }
}

/// An append-only, time-ordered log of [`TraceEvent`]s.
///
/// # Examples
///
/// ```
/// use flowmig_metrics::{RootId, TraceEvent, TraceLog};
/// use flowmig_sim::SimTime;
///
/// let mut log = TraceLog::new();
/// log.record(TraceEvent::MigrationRequested { at: SimTime::from_secs(180) });
/// assert_eq!(log.migration_requested_at(), Some(SimTime::from_secs(180)));
/// assert_eq!(log.len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceLog {
    events: Vec<TraceEvent>,
}

impl TraceLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event. Events should be appended in non-decreasing time
    /// order (the engine guarantees this; analyzers rely on it).
    pub fn record(&mut self, event: TraceEvent) {
        debug_assert!(
            self.events.last().is_none_or(|last| last.at() <= event.at()),
            "trace must be recorded in time order"
        );
        self.events.push(event);
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns true if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over all events in time order.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceEvent> {
        self.events.iter()
    }

    /// When the migration was requested, if recorded.
    pub fn migration_requested_at(&self) -> Option<SimTime> {
        self.events.iter().find_map(|e| match *e {
            TraceEvent::MigrationRequested { at } => Some(at),
            _ => None,
        })
    }

    /// When the migration completed, if recorded.
    pub fn migration_completed_at(&self) -> Option<SimTime> {
        self.events.iter().find_map(|e| match *e {
            TraceEvent::MigrationCompleted { at } => Some(at),
            _ => None,
        })
    }

    /// The `[start, end]` span of `phase`, if both endpoints were recorded.
    /// If the phase started several times (INIT waves), the first start and
    /// last end are used.
    pub fn phase_span(&self, phase: MigrationPhase) -> Option<(SimTime, SimTime)> {
        let start = self.events.iter().find_map(|e| match *e {
            TraceEvent::PhaseStarted { phase: p, at } if p == phase => Some(at),
            _ => None,
        })?;
        let end = self
            .events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::PhaseEnded { phase: p, at } if p == phase => Some(at),
                _ => None,
            })
            .max()?;
        Some((start, end))
    }
}

impl Extend<TraceEvent> for TraceLog {
    fn extend<T: IntoIterator<Item = TraceEvent>>(&mut self, iter: T) {
        for e in iter {
            self.record(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn query_helpers() {
        let mut log = TraceLog::new();
        log.record(TraceEvent::MigrationRequested { at: t(10) });
        log.record(TraceEvent::MigrationRequested { at: t(20) });
        log.record(TraceEvent::MigrationCompleted { at: t(30) });
        assert_eq!(log.migration_requested_at(), Some(t(10)));
        assert_eq!(log.migration_completed_at(), Some(t(30)));
    }

    #[test]
    fn phase_span_uses_first_start_last_end() {
        let mut log = TraceLog::new();
        log.record(TraceEvent::PhaseStarted { phase: MigrationPhase::Restore, at: t(5) });
        log.record(TraceEvent::PhaseEnded { phase: MigrationPhase::Restore, at: t(6) });
        log.record(TraceEvent::PhaseStarted { phase: MigrationPhase::Restore, at: t(35) });
        log.record(TraceEvent::PhaseEnded { phase: MigrationPhase::Restore, at: t(36) });
        assert_eq!(log.phase_span(MigrationPhase::Restore), Some((t(5), t(36))));
        assert_eq!(log.phase_span(MigrationPhase::Drain), None);
    }

    #[test]
    fn empty_log_queries_return_none() {
        let log = TraceLog::new();
        assert!(log.is_empty());
        assert_eq!(log.migration_requested_at(), None);
        assert_eq!(log.migration_completed_at(), None);
        assert_eq!(log.phase_span(MigrationPhase::Rebalance), None);
    }

    #[test]
    #[should_panic(expected = "time order")]
    #[cfg(debug_assertions)]
    fn out_of_order_recording_is_caught() {
        let mut log = TraceLog::new();
        log.record(TraceEvent::MigrationRequested { at: t(10) });
        log.record(TraceEvent::MigrationRequested { at: t(5) });
    }

    #[test]
    fn display_impls() {
        assert_eq!(RootId(255).to_string(), "rff");
        assert_eq!(MigrationPhase::Rebalance.to_string(), "rebalance");
        assert_eq!(ControlKind::Prepare.to_string(), "PREPARE");
    }
}
