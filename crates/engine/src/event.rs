//! Data and control events flowing through the simulated dataflow, plus the
//! engine's internal DES event type.

use flowmig_metrics::{ControlKind, RootId};
use flowmig_sim::SimTime;
use flowmig_topology::{InstanceId, TaskId};
use serde::{Deserialize, Serialize};

/// A user data event (a Storm tuple) derived from some root event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataEvent {
    /// Unique tuple id (participates in the acker's XOR ledger).
    pub id: u64,
    /// Root event this tuple causally descends from.
    pub root: RootId,
    /// When the external stream generated the root (latency baseline).
    pub generated_at: SimTime,
    /// Whether the root had been failed and replayed before this emission.
    pub replayed: bool,
}

/// Who sent a control event — needed for the barrier alignment of
/// sequential checkpoint waves (an instance acts once it has seen the wave
/// from *every* upstream connection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ControlSender {
    /// The checkpoint source task, standing in for source task `TaskId`
    /// (sequential waves enter the dataflow at the roots) or broadcasting.
    CheckpointSource(TaskId),
    /// An upstream instance forwarding the wave.
    Upstream(InstanceId),
}

/// A checkpoint control event (Storm's checkpoint stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControlEvent {
    /// PREPARE / COMMIT / ROLLBACK / INIT.
    pub kind: ControlKind,
    /// Wave number (resends increment it).
    pub wave: u32,
    /// Sender, for alignment accounting.
    pub from: ControlSender,
}

/// An item on a task instance's single-threaded input queue: data and
/// control events share the queue, which is what lets a sequential PREPARE
/// act as the drain rearguard (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum QueueItem {
    /// A user data event.
    Data(DataEvent),
    /// A checkpoint control event.
    Control(ControlEvent),
}

/// Internal DES events driving the engine.
///
/// Index-carrying variants use `u32` (instance/shard counts are bounded far
/// below 4 billion): keeping the whole enum within the size of its hottest
/// variant (`Deliver`) shrinks the future-event list's per-entry footprint,
/// which is most of the dispatch path's cache traffic at 10k-instance
/// scale. The compile-time assertion below trips if a future variant
/// outgrows that budget — box the oversized payload instead.
#[derive(Debug, Clone)]
pub(crate) enum Ev {
    /// A source instance generates its next root event.
    SourceTick { instance: u32 },
    /// A source instance drains one backlogged event.
    SourceDrain { instance: u32 },
    /// Network delivery of an item to an instance's input queue.
    Deliver { to: u32, item: QueueItem },
    /// An idle instance checks its input queue.
    Wake { instance: u32 },
    /// An instance finishes its current work item.
    Finish { instance: u32 },
    /// Periodic acker timeout scan.
    AckerScan,
    /// Periodic checkpoint trigger (DSM).
    CheckpointTimer,
    /// Storm's rebalance command completes.
    RebalanceDone,
    /// A respawned worker becomes ready.
    WorkerReady { instance: u32 },
    /// A control wave resend timer fired.
    ControlResend { kind: ControlKind },
    /// The user's migration request arrives.
    MigrationRequest,
    /// A strategy-armed timer fired (token chosen by the coordinator).
    StrategyTimer { token: u32 },
    /// Failure injection: instance becomes unresponsive.
    OutageStart { instance: u32 },
    /// Failure injection: instance recovers.
    OutageEnd { instance: u32 },
    /// Failure injection: `down` replicas of a store shard fail
    /// (`u32::MAX` = every replica).
    ShardOutageStart { shard: u32, down: u32 },
    /// Failure injection: every replica of a store shard recovers.
    ShardOutageEnd { shard: u32 },
}

// `Deliver` (u32 + 40-byte QueueItem) sets the 48-byte budget; a variant
// pushing the enum past it would bloat every queue entry.
const _: () = assert!(std::mem::size_of::<Ev>() <= 48, "Ev outgrew Deliver: box the new payload");

// Likewise an instance's hot core is most of its footprint at
// 10k-instance scale: a field pushing it past 160 bytes belongs in the
// boxed cold part.
const _: () = assert!(
    std::mem::size_of::<crate::instance::InstanceRuntime>() <= 160,
    "InstanceRuntime outgrew its hot core: move the new field to its cold part"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_item_wraps_both_kinds() {
        let d = QueueItem::Data(DataEvent {
            id: 7,
            root: RootId(1),
            generated_at: SimTime::ZERO,
            replayed: false,
        });
        assert!(matches!(d, QueueItem::Data(_)));
        let c = QueueItem::Control(ControlEvent {
            kind: ControlKind::Prepare,
            wave: 0,
            from: ControlSender::CheckpointSource(TaskId::from_index(0)),
        });
        assert!(matches!(c, QueueItem::Control(_)));
    }

    #[test]
    fn control_sender_distinguishes_spout_and_upstream() {
        let a = ControlSender::CheckpointSource(TaskId::from_index(0));
        let b = ControlSender::Upstream(InstanceId::from_index(0));
        assert_ne!(a, b);
    }
}
