//! Per-instance runtime state: the single-threaded input queue, protocol
//! flags, and user state of one executor.

use crate::event::{ControlSender, DataEvent, QueueItem};
use flowmig_metrics::ControlKind;
use flowmig_topology::KeyRange;
use std::collections::{HashSet, VecDeque};

/// Lifecycle status of an instance's hosting worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerStatus {
    /// Worker up; the instance receives and processes items.
    Running,
    /// Killed (rebalance) or crashed: deliveries are dropped.
    Dead,
    /// Respawned but not yet ready (JVM/executor starting): deliveries are
    /// dropped, as with a connecting Netty client in Storm.
    Starting,
}

/// What an instance is currently busy with.
#[derive(Debug, Clone)]
pub(crate) enum Work {
    /// Executing user logic on a data event.
    Data(DataEvent),
    /// Platform handling of a control event (alignment, forwarding).
    Control(crate::event::ControlEvent),
    /// Persisting state to the store (second half of a COMMIT).
    Persist(crate::event::ControlEvent),
    /// Fetching + restoring state (second half of an INIT).
    Restore(crate::event::ControlEvent),
}

/// Runtime state of one task instance.
#[derive(Debug, Clone)]
pub(crate) struct InstanceRuntime {
    /// Worker lifecycle.
    pub status: WorkerStatus,
    /// Single-threaded FIFO input queue (data + control interleaved).
    pub queue: VecDeque<QueueItem>,
    /// Current work item, if mid-execution.
    pub current: Option<Work>,
    /// Whether user state has been initialized (stateful executors buffer
    /// user events until their INIT, per Storm's `StatefulBoltExecutor`).
    pub initialized: bool,
    /// CCR capture flag: user events are diverted to `pending` unprocessed.
    pub capture: bool,
    /// Captured in-flight events awaiting checkpoint + resume (CCR).
    pub pending: Vec<DataEvent>,
    /// User state `(processed, key_processed)` snapshotted at PREPARE by
    /// strategies that keep processing until COMMIT (no capture), and
    /// persisted at COMMIT so the blob holds one instant's state.
    pub prepared: Option<(u64, Vec<u64>)>,
    /// User events received while uninitialized, replayed after INIT.
    pub pre_init: VecDeque<DataEvent>,
    /// The user state: processed-event count (the paper's dummy stateful
    /// logic; enough to verify continuity across migration).
    pub processed: u64,
    /// Per-key-partition processed counters (empty for unkeyed tasks).
    /// Retained across [`kill`](Self::kill): state not migrated through the
    /// store survives in place, so a key-range restore only has to merge the
    /// hot ranges it fetched.
    pub key_processed: Vec<u64>,
    /// The key range of the last whole-instance blob this instance
    /// committed, which a whole restore reads. A staged logic update may
    /// change the task's key space between COMMIT and INIT, so the range
    /// is not recomputed from the current one. Retained across
    /// [`kill`](Self::kill), like the blob in the store.
    pub committed: Option<KeyRange>,
    /// CCR key-range capture filter: when set, only events whose key falls
    /// in one of these ranges are diverted to `pending`; others process
    /// normally. `None` means capture everything (whole-instance CCR).
    pub capture_ranges: Option<Vec<KeyRange>>,
    /// Alignment bookkeeping: senders seen for the current wave, per kind.
    pub seen: AlignmentState,
    /// Waves already forwarded downstream, kind-indexed
    /// ([`ControlKind::index`]); dedup for resends. The per-kind lists stay
    /// tiny (one entry per wave cycle), so a linear scan beats hashing.
    pub forwarded: [Vec<u32>; ControlKind::COUNT],
    /// Round-robin cursors, one per out-edge, for shuffle routing.
    pub rr: Vec<usize>,
}

impl InstanceRuntime {
    pub fn new(out_degree: usize) -> Self {
        InstanceRuntime {
            status: WorkerStatus::Running,
            queue: VecDeque::new(),
            current: None,
            initialized: true,
            capture: false,
            pending: Vec::new(),
            prepared: None,
            pre_init: VecDeque::new(),
            processed: 0,
            key_processed: Vec::new(),
            committed: None,
            capture_ranges: None,
            seen: AlignmentState::default(),
            forwarded: [const { Vec::new() }; ControlKind::COUNT],
            rr: vec![0; out_degree],
        }
    }

    /// Whether the instance is mid-work.
    pub fn busy(&self) -> bool {
        self.current.is_some()
    }

    /// Records that `wave` of `kind` has been forwarded; returns `true` on
    /// first sight (same semantics as `HashSet::insert` on `(kind, wave)`).
    pub fn mark_forwarded(&mut self, kind: ControlKind, wave: u32) -> bool {
        let seen = &mut self.forwarded[kind.index()];
        if seen.contains(&wave) {
            return false;
        }
        seen.push(wave);
        true
    }

    /// Drops all queued work (worker killed); returns the data events that
    /// were lost, for loss accounting: queued, in service, buffered before
    /// INIT, and captured by a PREPARE but not yet persisted by a COMMIT.
    pub fn kill(&mut self) -> Vec<DataEvent> {
        self.status = WorkerStatus::Dead;
        let mut lost: Vec<DataEvent> = Vec::new();
        for item in self.queue.drain(..) {
            if let QueueItem::Data(d) = item {
                lost.push(d);
            }
        }
        if let Some(Work::Data(d)) = self.current.take() {
            lost.push(d);
        }
        lost.extend(self.pre_init.drain(..));
        lost.append(&mut self.pending);
        self.current = None;
        self.initialized = false;
        self.capture = false;
        self.capture_ranges = None;
        self.prepared = None;
        self.seen = AlignmentState::default();
        lost
    }

    /// Resumes after a restore: the user state is initialized, any capture
    /// ends, and the queue front becomes `fetched` (events in flight before
    /// the migration, from the store), then captured events that stayed
    /// resident, then events buffered while uninitialized.
    pub fn resume(&mut self, fetched: Vec<DataEvent>) {
        self.initialized = true;
        self.capture = false;
        self.capture_ranges = None;
        let front = self.pre_init.drain(..).rev().chain(self.pending.drain(..).rev());
        for d in front.chain(fetched.into_iter().rev()) {
            self.queue.push_front(QueueItem::Data(d));
        }
    }
}

/// Barrier-alignment bookkeeping for sequential waves: which senders have
/// been seen for the current `(kind, wave-cycle)`.
#[derive(Debug, Clone, Default)]
pub(crate) struct AlignmentState {
    prepare: HashSet<ControlSender>,
    commit: HashSet<ControlSender>,
}

impl AlignmentState {
    /// Records a sender; returns the number of distinct senders seen so far.
    pub fn record(&mut self, kind: ControlKind, from: ControlSender) -> usize {
        let set = self.set_mut(kind);
        set.insert(from);
        set.len()
    }

    /// Clears the alignment set for `kind` (wave completed or aborted).
    pub fn clear(&mut self, kind: ControlKind) {
        self.set_mut(kind).clear();
    }

    fn set_mut(&mut self, kind: ControlKind) -> &mut HashSet<ControlSender> {
        match kind {
            ControlKind::Prepare => &mut self.prepare,
            ControlKind::Commit => &mut self.commit,
            // INIT/ROLLBACK act on first receipt; alignment is unused but
            // mapping them keeps the call sites uniform.
            ControlKind::Init | ControlKind::Rollback => &mut self.prepare,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmig_metrics::RootId;
    use flowmig_sim::SimTime;
    use flowmig_topology::{InstanceId, TaskId};

    fn data(id: u64) -> DataEvent {
        DataEvent { id, root: RootId(id), generated_at: SimTime::ZERO, replayed: false }
    }

    #[test]
    fn new_instance_is_idle_running_initialized() {
        let r = InstanceRuntime::new(2);
        assert_eq!(r.status, WorkerStatus::Running);
        assert!(!r.busy());
        assert!(r.initialized);
        assert_eq!(r.rr, vec![0, 0]);
    }

    #[test]
    fn kill_drops_queue_and_reports_losses() {
        let mut r = InstanceRuntime::new(1);
        r.queue.push_back(QueueItem::Data(data(1)));
        r.queue.push_back(QueueItem::Control(crate::event::ControlEvent {
            kind: ControlKind::Prepare,
            wave: 0,
            from: ControlSender::CheckpointSource(TaskId::from_index(0)),
        }));
        r.queue.push_back(QueueItem::Data(data(2)));
        r.current = Some(Work::Data(data(3)));
        r.pre_init.push_back(data(4));
        r.pending.push(data(5));
        let lost = r.kill();
        // 2 queued + 1 in-flight + 1 pre-init + 1 captured.
        assert_eq!(lost.iter().map(|d| d.id).collect::<Vec<_>>(), vec![1, 2, 3, 4, 5]);
        assert!(r.pending.is_empty());
        assert_eq!(r.status, WorkerStatus::Dead);
        assert!(r.queue.is_empty());
        assert!(!r.initialized);
        assert!(!r.busy());
    }

    #[test]
    fn resume_orders_fetched_then_resident_then_pre_init_events() {
        let mut r = InstanceRuntime::new(1);
        r.initialized = false;
        r.capture = true;
        r.queue.push_back(QueueItem::Data(data(7)));
        r.pre_init.extend([data(5), data(6)]);
        r.pending.extend([data(3), data(4)]);
        r.resume(vec![data(1), data(2)]);
        let order: Vec<u64> = r
            .queue
            .iter()
            .map(|item| match item {
                QueueItem::Data(d) => d.id,
                QueueItem::Control(_) => unreachable!("only data was queued"),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5, 6, 7]);
        assert!(r.pending.is_empty() && r.pre_init.is_empty());
        assert!(r.initialized && !r.capture);
    }

    #[test]
    fn mark_forwarded_dedups_per_kind_and_survives_kill() {
        let mut r = InstanceRuntime::new(1);
        assert!(r.mark_forwarded(ControlKind::Prepare, 1));
        assert!(!r.mark_forwarded(ControlKind::Prepare, 1));
        // Other kinds and waves are independent.
        assert!(r.mark_forwarded(ControlKind::Commit, 1));
        assert!(r.mark_forwarded(ControlKind::Prepare, 2));
        // A late lower wave is still deduped only against itself.
        assert!(r.mark_forwarded(ControlKind::Init, 3));
        assert!(r.mark_forwarded(ControlKind::Init, 2));
        assert!(!r.mark_forwarded(ControlKind::Init, 3));
        // kill() must not forget forwarded waves (resend dedup spans respawn).
        r.kill();
        assert!(!r.mark_forwarded(ControlKind::Prepare, 1));
    }

    #[test]
    fn alignment_counts_distinct_senders() {
        let mut a = AlignmentState::default();
        let s1 = ControlSender::Upstream(InstanceId::from_index(1));
        let s2 = ControlSender::Upstream(InstanceId::from_index(2));
        assert_eq!(a.record(ControlKind::Prepare, s1), 1);
        assert_eq!(a.record(ControlKind::Prepare, s1), 1); // duplicate
        assert_eq!(a.record(ControlKind::Prepare, s2), 2);
        // Commit alignment is independent.
        assert_eq!(a.record(ControlKind::Commit, s1), 1);
        a.clear(ControlKind::Prepare);
        assert_eq!(a.record(ControlKind::Prepare, s2), 1);
    }
}
