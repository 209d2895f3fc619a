//! Per-instance runtime state: the single-threaded input queue, protocol
//! flags, and user state of one executor.
//!
//! An [`InstanceRuntime`] is a hot core that the data path and every wave
//! touch, plus one [`ColdState`] box, allocated on first use, for what
//! only sequential waves, killed instances awaiting their INIT, key-range
//! captures and PREPARE snapshots touch. A run with none of these
//! allocates no instance's cold part.

use crate::event::{ControlSender, DataEvent, QueueItem};
use crate::fasthash::FastHashSet;
use flowmig_metrics::ControlKind;
use flowmig_topology::KeyRange;
use std::collections::VecDeque;

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

/// Runtime state of one task instance, within a 160-byte budget asserted
/// beside `Ev`'s in `event.rs`. Its round-robin shuffle cursors live in
/// the engine's flat cursor array (see `InstanceMeta::cursor_base`).
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
    /// The rarely touched rest, boxed on first use.
    cold: Option<Box<ColdState>>,
}

/// The part of an instance's runtime that only sequential waves, killed
/// instances awaiting their INIT, key-range captures and PREPARE snapshots
/// touch.
#[derive(Debug, Clone, Default)]
struct ColdState {
    /// Alignment bookkeeping: senders seen for the current wave, per kind.
    seen: AlignmentState,
    /// Waves already forwarded downstream, kind-indexed
    /// ([`ControlKind::index`]); dedup for resends, kept across
    /// [`InstanceRuntime::kill`]. The per-kind lists stay tiny (one entry
    /// per wave cycle), so a linear scan beats hashing.
    forwarded: [Vec<u32>; ControlKind::COUNT],
    /// User events received while uninitialized, replayed after INIT.
    pre_init: VecDeque<DataEvent>,
    /// User state `(processed, key_processed)` snapshotted at PREPARE by
    /// strategies that keep processing until COMMIT (no capture), and
    /// persisted at COMMIT so the blob holds one instant's state.
    prepared: Option<(u64, Vec<u64>)>,
    /// CCR key-range capture filter: when set, only events whose key falls
    /// in one of these ranges are diverted to `pending`; others process
    /// normally. `None` means capture everything (whole-instance CCR).
    capture_ranges: Option<Vec<KeyRange>>,
}

impl InstanceRuntime {
    pub fn new() -> Self {
        InstanceRuntime {
            status: WorkerStatus::Running,
            queue: VecDeque::new(),
            current: None,
            initialized: true,
            capture: false,
            pending: Vec::new(),
            processed: 0,
            key_processed: Vec::new(),
            committed: None,
            cold: None,
        }
    }

    /// Whether the instance is mid-work.
    pub fn busy(&self) -> bool {
        self.current.is_some()
    }

    /// The cold part, allocated on first use.
    fn cold_mut(&mut self) -> &mut ColdState {
        self.cold.get_or_insert_with(Box::default)
    }

    /// Buffers a user event that arrived before the state was initialized.
    pub fn buffer_pre_init(&mut self, d: DataEvent) {
        self.cold_mut().pre_init.push_back(d);
    }

    /// User events buffered while uninitialized.
    pub fn pre_init_len(&self) -> usize {
        self.cold.as_ref().map_or(0, |c| c.pre_init.len())
    }

    /// Starts a CCR capture, narrowed to `ranges` if given (`None`
    /// captures every event).
    pub fn start_capture(&mut self, ranges: Option<Vec<KeyRange>>) {
        self.capture = true;
        if ranges.is_some() || self.cold.is_some() {
            self.cold_mut().capture_ranges = ranges;
        }
    }

    /// The key ranges a capture is narrowed to, if it is.
    pub fn capture_ranges(&self) -> Option<&[KeyRange]> {
        self.cold.as_ref()?.capture_ranges.as_deref()
    }

    /// Snapshots the user state at PREPARE, for a COMMIT to persist.
    pub fn snapshot_prepared(&mut self) {
        let snapshot = (self.processed, self.key_processed.clone());
        self.cold_mut().prepared = Some(snapshot);
    }

    /// Takes the PREPARE snapshot, if one was made.
    pub fn take_prepared(&mut self) -> Option<(u64, Vec<u64>)> {
        self.cold.as_mut()?.prepared.take()
    }

    /// Records `from` for the current `kind` wave's barrier; returns the
    /// number of distinct senders seen so far.
    pub fn record_sender(&mut self, kind: ControlKind, from: ControlSender) -> usize {
        self.cold_mut().seen.record(kind, from)
    }

    /// Clears the `kind` barrier (wave aligned or aborted).
    pub fn clear_alignment(&mut self, kind: ControlKind) {
        if let Some(cold) = &mut self.cold {
            cold.seen.clear(kind);
        }
    }

    /// Records that `wave` of `kind` has been forwarded; returns `true` on
    /// first sight (same semantics as `HashSet::insert` on `(kind, wave)`).
    pub fn mark_forwarded(&mut self, kind: ControlKind, wave: u32) -> bool {
        let seen = &mut self.cold_mut().forwarded[kind.index()];
        if seen.contains(&wave) {
            return false;
        }
        seen.push(wave);
        true
    }

    /// Drops all queued work (worker killed); returns the data events that
    /// were lost, for loss accounting: queued, in service, buffered before
    /// INIT, and captured by a PREPARE but not yet persisted by a COMMIT.
    /// The forwarded-wave dedup survives: resends span the respawn.
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
        if let Some(cold) = &mut self.cold {
            lost.extend(cold.pre_init.drain(..));
            cold.capture_ranges = None;
            cold.prepared = None;
            cold.seen = AlignmentState::default();
        }
        lost.append(&mut self.pending);
        self.current = None;
        self.initialized = false;
        self.capture = false;
        lost
    }

    /// Aborts the migration at this instance (ROLLBACK): the capture and
    /// the PREPARE snapshot end, both barriers clear, and captured events
    /// resume processing locally, oldest first.
    pub fn roll_back(&mut self) {
        self.capture = false;
        if let Some(cold) = &mut self.cold {
            cold.prepared = None;
            cold.seen = AlignmentState::default();
        }
        while let Some(d) = self.pending.pop() {
            self.queue.push_front(QueueItem::Data(d));
        }
    }

    /// Resumes after a restore: the user state is initialized, any capture
    /// ends, and the queue front becomes `fetched` (events in flight before
    /// the migration, from the store), then captured events that stayed
    /// resident, then events buffered while uninitialized.
    pub fn resume(&mut self, fetched: Vec<DataEvent>) {
        self.initialized = true;
        self.capture = false;
        let queue = &mut self.queue;
        let mut push_front = |d| queue.push_front(QueueItem::Data(d));
        if let Some(cold) = &mut self.cold {
            cold.capture_ranges = None;
            cold.pre_init.drain(..).rev().for_each(&mut push_front);
        }
        self.pending.drain(..).rev().for_each(&mut push_front);
        fetched.into_iter().rev().for_each(push_front);
    }

    /// Whether the cold part has been allocated.
    #[cfg(test)]
    pub fn has_cold(&self) -> bool {
        self.cold.is_some()
    }
}

/// Barrier-alignment bookkeeping for sequential waves: which senders have
/// been seen for the current `(kind, wave-cycle)`. Only membership and
/// size are read, never the iteration order, so the sets use the in-tree
/// [`FxHasher`](crate::FxHasher).
#[derive(Debug, Clone, Default)]
struct AlignmentState {
    prepare: FastHashSet<ControlSender>,
    commit: FastHashSet<ControlSender>,
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

    fn set_mut(&mut self, kind: ControlKind) -> &mut FastHashSet<ControlSender> {
        match kind {
            ControlKind::Prepare => &mut self.prepare,
            ControlKind::Commit => &mut self.commit,
            // INIT/ROLLBACK act on first receipt; alignment is unused but
            // mapping them keeps the call sites uniform.
            ControlKind::Init | ControlKind::Rollback => &mut self.prepare,
        }
    }

    /// Whether no sender is recorded for any kind.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.prepare.is_empty() && self.commit.is_empty()
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

    fn upstream(i: usize) -> ControlSender {
        ControlSender::Upstream(InstanceId::from_index(i))
    }

    #[test]
    fn new_instance_is_idle_running_initialized() {
        let r = InstanceRuntime::new();
        assert_eq!(r.status, WorkerStatus::Running);
        assert!(!r.busy());
        assert!(r.initialized);
        assert!(!r.has_cold(), "a fresh instance allocates no cold part");
    }

    #[test]
    fn kill_drops_queue_and_reports_losses() {
        let mut r = InstanceRuntime::new();
        r.queue.push_back(QueueItem::Data(data(1)));
        r.queue.push_back(QueueItem::Control(crate::event::ControlEvent {
            kind: ControlKind::Prepare,
            wave: 0,
            from: ControlSender::CheckpointSource(TaskId::from_index(0)),
        }));
        r.queue.push_back(QueueItem::Data(data(2)));
        r.current = Some(Work::Data(data(3)));
        r.buffer_pre_init(data(4));
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
        let mut r = InstanceRuntime::new();
        r.initialized = false;
        r.start_capture(Some(vec![KeyRange::new(0, 1)]));
        r.queue.push_back(QueueItem::Data(data(7)));
        r.buffer_pre_init(data(5));
        r.buffer_pre_init(data(6));
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
        assert!(r.pending.is_empty() && r.pre_init_len() == 0);
        assert!(r.initialized && !r.capture && r.capture_ranges().is_none());
    }

    #[test]
    fn roll_back_requeues_captured_events_oldest_first_and_clears_the_barriers() {
        let mut r = InstanceRuntime::new();
        r.queue.push_back(QueueItem::Data(data(3)));
        r.start_capture(None);
        r.pending.extend([data(1), data(2)]);
        r.snapshot_prepared();
        assert_eq!(r.record_sender(ControlKind::Commit, upstream(1)), 1);
        r.roll_back();
        let order: Vec<u64> = r
            .queue
            .iter()
            .map(|item| match item {
                QueueItem::Data(d) => d.id,
                QueueItem::Control(_) => unreachable!("only data was queued"),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert!(!r.capture && r.pending.is_empty());
        assert_eq!(r.take_prepared(), None);
        assert_eq!(r.record_sender(ControlKind::Commit, upstream(2)), 1, "barrier cleared");
    }

    #[test]
    fn mark_forwarded_dedups_per_kind_and_survives_kill() {
        let mut r = InstanceRuntime::new();
        assert!(r.mark_forwarded(ControlKind::Prepare, 1));
        assert!(!r.mark_forwarded(ControlKind::Prepare, 1));
        // Other kinds and waves are independent.
        assert!(r.mark_forwarded(ControlKind::Commit, 1));
        assert!(r.mark_forwarded(ControlKind::Prepare, 2));
        // A late lower wave is still deduped only against itself.
        assert!(r.mark_forwarded(ControlKind::Init, 3));
        assert!(r.mark_forwarded(ControlKind::Init, 2));
        assert!(!r.mark_forwarded(ControlKind::Init, 3));
        // Fill every other part of the cold state before the kill.
        assert_eq!(r.record_sender(ControlKind::Prepare, upstream(1)), 1);
        assert_eq!(r.record_sender(ControlKind::Commit, upstream(1)), 1);
        r.start_capture(Some(vec![KeyRange::new(0, 2)]));
        r.processed = 9;
        r.snapshot_prepared();
        r.buffer_pre_init(data(1));
        r.kill();
        // kill() clears the alignment sets, the capture ranges, the PREPARE
        // snapshot and the pre-INIT buffer...
        let cold = r.cold.as_ref().expect("the cold part outlives the kill");
        assert!(cold.seen.is_empty(), "alignment sets cleared");
        assert!(r.capture_ranges().is_none(), "capture ranges cleared");
        assert_eq!(r.pre_init_len(), 0, "pre-INIT buffer drained");
        assert_eq!(r.take_prepared(), None, "PREPARE snapshot dropped");
        // ...but must not forget forwarded waves (resend dedup spans
        // respawn).
        assert!(!r.mark_forwarded(ControlKind::Prepare, 1));
        assert!(!r.mark_forwarded(ControlKind::Init, 2));
    }

    #[test]
    fn alignment_counts_distinct_senders() {
        let mut a = AlignmentState::default();
        let s1 = upstream(1);
        let s2 = upstream(2);
        assert_eq!(a.record(ControlKind::Prepare, s1), 1);
        assert_eq!(a.record(ControlKind::Prepare, s1), 1); // duplicate
        assert_eq!(a.record(ControlKind::Prepare, s2), 2);
        // Commit alignment is independent.
        assert_eq!(a.record(ControlKind::Commit, s1), 1);
        a.clear(ControlKind::Prepare);
        assert_eq!(a.record(ControlKind::Prepare, s2), 1);
    }
}
