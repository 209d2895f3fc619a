//! Deterministic future-event list.
//!
//! [`EventQueue`] orders pending events by timestamp, breaking ties by
//! insertion order (FIFO). Deterministic tie-breaking is what makes whole
//! simulation runs reproducible from a seed: every entry carries a
//! monotonically increasing sequence number, and every backend pops in
//! strict `(due, seq)` order.
//!
//! # Backends
//!
//! Two interchangeable backends implement that contract, selected by
//! [`QueueBackend`]:
//!
//! * [`QueueBackend::Heap`] — a `BinaryHeap` of `(due, seq)`-keyed entries
//!   that coalesces *runs* (below). Every operation is `O(log n)`; no
//!   tuning, no pathological cases. The default, and the reference
//!   implementation the calendar backend is tested against.
//! * [`QueueBackend::Calendar`] — a two-tier calendar queue: a ring of
//!   [`CALENDAR_BUCKETS`] near-term time buckets (each a FIFO vector,
//!   [`CALENDAR_BUCKET_MICROS`] wide) covering a rotating lookahead
//!   window, plus a sorted overflow tier holding far-future events that
//!   drains into the ring as the window advances. Scheduling into the
//!   window is `O(1)` amortized (same-instant and monotone appends skip
//!   sorting entirely), popping is `O(1)` off the current bucket, and only
//!   window rotations pay a sort. On 100k pending random singletons —
//!   dense near-term traffic plus sparse far-future timers, which form no
//!   runs — it is over twice as fast as the heap (see the `hotpath`
//!   bench's `event_queue` group and its CI tripwire).
//!
//! Both backends produce **byte-identical pop sequences** for any
//! interleaving of schedules and pops — this is proptested in
//! `tests/proptest_invariants.rs` and pinned against all determinism trace
//! hashes, so backend choice is purely a performance knob. See the
//! "Backend selection" section of the [crate docs](crate) for measurements.
//!
//! # Runs
//!
//! A *run* is a sequence of entries scheduled back to back for one instant
//! with consecutive sequence numbers — the shape of a wave's fan-out, where
//! every participant's handler schedules the same follow-up after the same
//! delay. The heap backend keeps a run behind **one** heap entry, its head;
//! the later events wait in a side table keyed by the head's sequence
//! number, and when the head pops the whole run drains into the dispatch
//! batch without touching the heap again. This cannot reorder anything:
//! sequence numbers are unique, so no other entry holds one inside a run,
//! and the run's events are adjacent in `(due, seq)` order. Any insertion
//! that takes a sequence number in between — another instant, a
//! same-instant lane push, an external schedule — closes the run. Heap
//! entries keep their size, and the side table is only consulted while it
//! holds a run, so a singleton pays only the open-run bookkeeping: a few
//! comparisons and stores per push and pop.

use crate::fasthash::FastHashMap;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Number of near-term buckets in the calendar ring (must be a power of
/// two). Together with [`CALENDAR_BUCKET_MICROS`] this spans a ~524 ms
/// lookahead window — wide enough that transport latencies, service times
/// and source ticks land in the ring, while coarse timers (checkpoint
/// intervals, ack timeouts) age in the overflow tier.
pub const CALENDAR_BUCKETS: usize = 512;

/// Width of one calendar bucket in microseconds (a power of two so the
/// slot of an instant is a shift, not a division).
pub const CALENDAR_BUCKET_MICROS: u64 = 1 << CALENDAR_SHIFT;

/// `log2` of the bucket width.
const CALENDAR_SHIFT: u32 = 10;

/// Bit mask mapping an absolute slot number onto a ring index.
const CALENDAR_MASK: u64 = (CALENDAR_BUCKETS as u64) - 1;

/// Absolute slot number (bucket-width quantized time) of an instant.
fn slot_of(due: SimTime) -> u64 {
    due.as_micros() >> CALENDAR_SHIFT
}

/// Which future-event-list implementation an [`EventQueue`] (and therefore
/// a `Simulation`) uses. See the "Backend selection" section of the
/// [crate docs](crate) for the trade-off; both backends are provably
/// order-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QueueBackend {
    /// Binary-heap future-event list that keeps each same-instant run
    /// behind one heap entry: `O(log n)` everywhere, no tuning.
    #[default]
    Heap,
    /// Two-tier calendar queue: `O(1)` amortized scheduling and popping
    /// for near-term traffic, sorted overflow tier for far-future events.
    Calendar,
}

impl std::str::FromStr for QueueBackend {
    type Err = String;

    /// Parses `"heap"` or `"calendar"` (as accepted by the
    /// `FLOWMIG_QUEUE_BACKEND` environment knob and the CLI flag).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "heap" => Ok(QueueBackend::Heap),
            "calendar" => Ok(QueueBackend::Calendar),
            other => Err(format!("unknown queue backend `{other}` (expected heap|calendar)")),
        }
    }
}

/// A scheduled entry: an event of type `E` due at a given instant.
///
/// `pub(crate)` (fields included) so the sharded executor in
/// `crate::workers` can move entries between the driver and per-shard
/// queues with their `(due, seq)` keys intact.
#[derive(Debug, Clone)]
pub(crate) struct Scheduled<E> {
    pub(crate) due: SimTime,
    pub(crate) seq: u64,
    pub(crate) event: E,
}

impl<E> Scheduled<E> {
    /// The total-order key every backend pops by.
    pub(crate) fn key(&self) -> (SimTime, u64) {
        (self.due, self.seq)
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (then lowest-seq)
        // entry surfaces first.
        other.key().cmp(&self.key())
    }
}

/// One ring bucket: a FIFO of entries whose due instants all quantize to
/// the same in-window slot, kept ascending by `(due, seq)`.
#[derive(Debug, Clone)]
struct Bucket<E> {
    items: VecDeque<Scheduled<E>>,
    /// Whether `items` is currently ascending by `(due, seq)`. Appends that
    /// keep the order (the overwhelmingly common case: same-instant
    /// fan-outs and monotone follow-ups) leave it set; an out-of-order push
    /// clears it and the bucket is sorted lazily on first access.
    sorted: bool,
}

impl<E> Default for Bucket<E> {
    fn default() -> Self {
        Bucket { items: VecDeque::new(), sorted: true }
    }
}

impl<E> Bucket<E> {
    /// Appends an entry, detecting in O(1) whether the bucket stays sorted.
    /// This is the same-instant fast path: a batch of events scheduled for
    /// one instant arrives with ascending sequence numbers, so every append
    /// lands at the tail already in order and no re-sort ever happens.
    fn push(&mut self, entry: Scheduled<E>) {
        if self.sorted {
            if let Some(tail) = self.items.back() {
                if tail.key() > entry.key() {
                    self.sorted = false;
                }
            }
        }
        self.items.push_back(entry);
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.items.make_contiguous().sort_unstable_by_key(Scheduled::key);
            self.sorted = true;
        }
    }

    fn pop_front(&mut self) -> Option<Scheduled<E>> {
        let entry = self.items.pop_front();
        if self.items.is_empty() {
            self.sorted = true;
        }
        entry
    }
}

/// The calendar backend: ring of near-term buckets + sorted overflow tier.
///
/// Invariants (checked in debug builds, relied on everywhere):
/// * every ring entry `e` has `window_start <= slot_of(e.due) < window_end`,
///   and lives in bucket `slot_of(e.due) & CALENDAR_MASK` — so one bucket
///   holds at most one distinct in-window slot;
/// * every overflow entry has `slot_of(due) >= window_end`;
/// * `cursor` is the earliest in-window slot that may still hold entries.
#[derive(Debug, Clone)]
struct Calendar<E> {
    buckets: Vec<Bucket<E>>,
    /// Absolute slot number of the first window bucket.
    window_start: u64,
    /// Scan cursor: absolute slot, `window_start <= cursor <= window_end`.
    cursor: u64,
    /// Far-future entries, descending by `(due, seq)` when `overflow_sorted`
    /// (so the minimum pops off the tail); re-sorted lazily after pushes.
    overflow: Vec<Scheduled<E>>,
    overflow_sorted: bool,
    len: usize,
    /// Window rotations performed (each pays one overflow sort + drain).
    rotations: u64,
}

impl<E> Calendar<E> {
    fn new() -> Self {
        Calendar {
            buckets: (0..CALENDAR_BUCKETS).map(|_| Bucket::default()).collect(),
            window_start: 0,
            cursor: 0,
            overflow: Vec::new(),
            overflow_sorted: true,
            len: 0,
            rotations: 0,
        }
    }

    fn window_end(&self) -> u64 {
        self.window_start + CALENDAR_BUCKETS as u64
    }

    fn insert(&mut self, entry: Scheduled<E>) {
        let slot = slot_of(entry.due);
        if slot < self.window_start {
            // An entry below the window (possible when an external schedule
            // lands behind a rotated window). Rare and O(n): rebase the
            // window down and re-drain.
            self.rebase_to(slot);
        }
        if slot < self.window_end() {
            if slot < self.cursor {
                self.cursor = slot;
            }
            self.buckets[(slot & CALENDAR_MASK) as usize].push(entry);
        } else {
            self.overflow.push(entry);
            self.overflow_sorted = false;
        }
        self.len += 1;
    }

    /// Moves the window start down to `slot`: dumps the whole ring into the
    /// overflow tier and re-drains the new window from it.
    fn rebase_to(&mut self, slot: u64) {
        let overflow = &mut self.overflow;
        for bucket in &mut self.buckets {
            overflow.extend(bucket.items.drain(..));
            bucket.sorted = true;
        }
        self.overflow_sorted = false;
        self.window_start = slot;
        self.cursor = slot;
        self.drain_overflow_into_window();
    }

    fn ensure_overflow_sorted(&mut self) {
        if !self.overflow_sorted {
            // Descending, so `Vec::pop` yields the global minimum.
            self.overflow.sort_unstable_by_key(|s| std::cmp::Reverse(s.key()));
            self.overflow_sorted = true;
        }
    }

    /// Moves every overflow entry whose slot now falls inside the window
    /// into its ring bucket. Entries arrive in ascending `(due, seq)`
    /// order (popped off the sorted tail), so each bucket receives them
    /// pre-sorted.
    fn drain_overflow_into_window(&mut self) {
        self.ensure_overflow_sorted();
        let end = self.window_end();
        while let Some(last) = self.overflow.last() {
            if slot_of(last.due) >= end {
                break;
            }
            let entry = self.overflow.pop().expect("tail just observed");
            let slot = slot_of(entry.due);
            debug_assert!(slot >= self.window_start, "overflow entry below window");
            self.buckets[(slot & CALENDAR_MASK) as usize].push(entry);
        }
    }

    /// Advances the cursor to the first non-empty bucket, rotating the
    /// window forward over the overflow tier whenever the ring is
    /// exhausted. After this returns with `len > 0`, the front of the
    /// cursor bucket is the global minimum.
    fn settle(&mut self) {
        if self.len == 0 {
            return;
        }
        loop {
            let end = self.window_end();
            while self.cursor < end {
                let idx = (self.cursor & CALENDAR_MASK) as usize;
                if !self.buckets[idx].items.is_empty() {
                    self.buckets[idx].ensure_sorted();
                    return;
                }
                self.cursor += 1;
            }
            // Ring exhausted with entries still pending: everything left is
            // in the overflow tier (all at slots >= window_end). Rotate the
            // window to the overflow minimum and re-drain.
            debug_assert!(!self.overflow.is_empty(), "len > 0 but ring and overflow empty");
            self.ensure_overflow_sorted();
            let min_slot = slot_of(self.overflow.last().expect("overflow non-empty").due);
            debug_assert!(min_slot >= end, "overflow entry was due inside the window");
            self.window_start = min_slot;
            self.cursor = min_slot;
            self.rotations += 1;
            self.drain_overflow_into_window();
        }
    }

    fn peek(&mut self) -> Option<&Scheduled<E>> {
        self.settle();
        if self.len == 0 {
            return None;
        }
        self.buckets[(self.cursor & CALENDAR_MASK) as usize].items.front()
    }

    fn pop(&mut self) -> Option<Scheduled<E>> {
        self.settle();
        if self.len == 0 {
            return None;
        }
        let entry = self.buckets[(self.cursor & CALENDAR_MASK) as usize].pop_front();
        debug_assert!(entry.is_some(), "settle landed on an empty bucket");
        self.len -= 1;
        entry
    }

    /// Whether any entry is due at or before `t`, without settling. Ring
    /// entries sit at slots from `cursor` on, overflow entries at slots
    /// from `window_end` on, so only the slots up to `slot_of(t)` are read.
    fn holds_due_by(&self, t: SimTime) -> bool {
        let last = slot_of(t);
        let in_ring = (self.cursor..=last.min(self.window_end() - 1)).any(|slot| {
            self.buckets[(slot & CALENDAR_MASK) as usize].items.iter().any(|s| s.due <= t)
        });
        in_ring || (last >= self.window_end() && self.overflow.iter().any(|s| s.due <= t))
    }
}

/// The instant and sequence numbers of the run the latest insertion started
/// or extended, while its head is still queued.
#[derive(Debug, Clone, Copy)]
struct OpenRun {
    due: SimTime,
    head: u64,
    /// The sequence number that would extend the run.
    next: u64,
}

/// The heap backend: a binary heap whose entries each head a run of one or
/// more events (see the module docs).
///
/// Invariants: every `runs` key is the sequence number of a heap entry,
/// whose run continues with that table entry's events at the same instant
/// and the following sequence numbers; `parked` is the number of events
/// `runs` holds; `open`, when set, names a heap entry.
#[derive(Debug, Clone)]
struct RunHeap<E> {
    heap: BinaryHeap<Scheduled<E>>,
    runs: FastHashMap<u64, VecDeque<E>>,
    parked: usize,
    open: Option<OpenRun>,
    /// The largest drained run buffer, reused by the next run so that a
    /// recurring wave-sized run does not regrow its buffer every wave;
    /// regrowing costs no measurable time but raises peak memory.
    spare: VecDeque<E>,
}

impl<E> RunHeap<E> {
    fn new() -> Self {
        RunHeap {
            heap: BinaryHeap::new(),
            runs: FastHashMap::default(),
            parked: 0,
            open: None,
            spare: VecDeque::new(),
        }
    }

    fn len(&self) -> usize {
        self.heap.len() + self.parked
    }

    fn peek(&self) -> Option<&Scheduled<E>> {
        self.heap.peek()
    }

    /// Inserts an entry: appends it to the open run if it extends it (same
    /// instant, next sequence number), else pushes it as a new heap entry
    /// that opens a run of its own.
    fn push(&mut self, entry: Scheduled<E>) {
        if let Some(open) = &mut self.open {
            if open.next == entry.seq && open.due == entry.due {
                open.next += 1;
                let spare = &mut self.spare;
                let run = self.runs.entry(open.head).or_insert_with(|| std::mem::take(spare));
                run.push_back(entry.event);
                self.parked += 1;
                return;
            }
        }
        self.open = Some(OpenRun { due: entry.due, head: entry.seq, next: entry.seq + 1 });
        self.heap.push(entry);
    }

    /// Detaches the later events of the run headed by the entry with
    /// sequence number `head`, which is about to pop, and closes that run.
    fn take_run(&mut self, head: u64) -> Option<VecDeque<E>> {
        if self.open.is_some_and(|open| open.head == head) {
            self.open = None;
        }
        if self.runs.is_empty() {
            return None;
        }
        let run = self.runs.remove(&head)?;
        self.parked -= run.len();
        Some(run)
    }

    /// Pops up to `max` events due at or before `now`, in `(due, seq)`
    /// order, handing each to `take`. A popped run head brings its run
    /// along; if `max` cuts the run, the rest stays queued behind a new
    /// head that carries the next sequence number.
    fn pop_due_with(&mut self, now: SimTime, max: usize, take: &mut impl FnMut(Scheduled<E>)) {
        let mut taken = 0;
        while taken < max {
            let (due, seq) = match self.heap.peek() {
                Some(s) if s.due <= now => s.key(),
                _ => break,
            };
            let run = self.take_run(seq);
            take(self.heap.pop().expect("peeked entry present"));
            taken += 1;
            let Some(mut run) = run else { continue };
            let room = max - taken;
            let cut = run.len() > room;
            let drained = if cut { room } else { run.len() };
            for (seq, event) in (seq + 1..).zip(run.drain(..drained)) {
                take(Scheduled { due, seq, event });
            }
            taken += drained;
            if cut {
                // The rest of the run keeps its instant and sequence
                // numbers; its first event is the new head.
                let head = seq + 1 + drained as u64;
                let event = run.pop_front().expect("a cut run keeps an event");
                self.heap.push(Scheduled { due, seq: head, event });
                if !run.is_empty() {
                    self.parked += run.len();
                    self.runs.insert(head, run);
                    continue;
                }
            }
            if run.capacity() > self.spare.capacity() {
                self.spare = run;
            }
        }
    }

    fn pop(&mut self) -> Option<Scheduled<E>> {
        let mut popped = None;
        self.pop_due_with(SimTime::MAX, 1, &mut |s| popped = Some(s));
        popped
    }
}

/// The backend storage of an [`EventQueue`].
#[derive(Debug, Clone)]
enum Tier<E> {
    Heap(RunHeap<E>),
    Calendar(Box<Calendar<E>>),
}

/// A time-ordered queue of future events with deterministic FIFO tie-breaks.
///
/// # Examples
///
/// ```
/// use flowmig_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(5), "later");
/// q.schedule(SimTime::from_millis(1), "first");
/// q.schedule(SimTime::from_millis(5), "later-still");
///
/// assert_eq!(q.pop(), Some((SimTime::from_millis(1), "first")));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(5), "later")));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(5), "later-still")));
/// assert_eq!(q.pop(), None);
/// ```
///
/// The calendar backend pops the same sequence:
///
/// ```
/// use flowmig_sim::{EventQueue, QueueBackend, SimTime};
///
/// let mut q = EventQueue::with_backend(QueueBackend::Calendar);
/// q.schedule(SimTime::from_secs(40), "far");
/// q.schedule(SimTime::from_millis(1), "near");
/// assert_eq!(q.pop(), Some((SimTime::from_millis(1), "near")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(40), "far")));
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    tier: Tier<E>,
    next_seq: u64,
    peak_pending: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue on the default ([`QueueBackend::Heap`])
    /// backend.
    pub fn new() -> Self {
        Self::with_backend(QueueBackend::default())
    }

    /// Creates an empty queue on the given backend.
    pub fn with_backend(backend: QueueBackend) -> Self {
        let tier = match backend {
            QueueBackend::Heap => Tier::Heap(RunHeap::new()),
            QueueBackend::Calendar => Tier::Calendar(Box::new(Calendar::new())),
        };
        EventQueue { tier, next_seq: 0, peak_pending: 0 }
    }

    /// The backend this queue runs on.
    pub fn backend(&self) -> QueueBackend {
        match self.tier {
            Tier::Heap(_) => QueueBackend::Heap,
            Tier::Calendar(_) => QueueBackend::Calendar,
        }
    }

    /// Schedules `event` to fire at `due`.
    ///
    /// Events scheduled for the same instant pop in insertion order.
    pub fn schedule(&mut self, due: SimTime, event: E) {
        let seq = self.take_seq();
        self.schedule_preassigned(due, seq, event);
    }

    /// Schedules a batch of events all due at `due`, preserving the
    /// iterator's order as the FIFO tie-break — exactly equivalent to
    /// calling [`schedule`](Self::schedule) once per event. The batch takes
    /// consecutive sequence numbers, so on the heap backend it forms one
    /// run behind a single heap entry (see the module docs).
    pub fn schedule_batch<I>(&mut self, due: SimTime, events: I)
    where
        I: IntoIterator<Item = E>,
    {
        for event in events {
            self.schedule(due, event);
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_entry().map(|s| (s.due, s.event))
    }

    /// Removes and returns the earliest entry, key intact.
    fn pop_entry(&mut self) -> Option<Scheduled<E>> {
        match &mut self.tier {
            Tier::Heap(heap) => heap.pop(),
            Tier::Calendar(cal) => cal.pop(),
        }
    }

    /// Drains and returns every event due at or before `now`, in the exact
    /// order repeated [`pop`](Self::pop) calls would yield them (time, then
    /// FIFO). The common case — all events of one simulation instant — comes
    /// back as a single batch the dispatch loop can walk without re-touching
    /// the backend between events.
    pub fn pop_due(&mut self, now: SimTime) -> Vec<(SimTime, E)> {
        self.pop_due_capped(now, usize::MAX)
    }

    /// [`pop_due`](Self::pop_due) bounded to at most `max` events; later
    /// due events stay queued untouched (used to honor dispatch budgets).
    pub fn pop_due_capped(&mut self, now: SimTime, max: usize) -> Vec<(SimTime, E)> {
        let mut batch = Vec::new();
        self.pop_due_capped_into(now, max, &mut batch);
        batch
    }

    /// Appends up to `max` events due at or before `now` to `into`, in pop
    /// order. Lets a dispatch loop reuse one buffer across instants instead
    /// of allocating a fresh `Vec` per batch.
    pub fn pop_due_capped_into(&mut self, now: SimTime, max: usize, into: &mut Vec<(SimTime, E)>) {
        self.pop_due_with(now, max, |s| into.push((s.due, s.event)));
    }

    /// Pops up to `max` entries due at or before `now`, in pop order, and
    /// hands each to `take` with its key intact.
    fn pop_due_with(&mut self, now: SimTime, max: usize, mut take: impl FnMut(Scheduled<E>)) {
        match &mut self.tier {
            Tier::Heap(heap) => heap.pop_due_with(now, max, &mut take),
            Tier::Calendar(cal) => {
                let mut taken = 0;
                while taken < max {
                    match cal.peek() {
                        Some(s) if s.due <= now => {
                            take(cal.pop().expect("peeked entry present"));
                            taken += 1;
                        }
                        _ => break,
                    }
                }
            }
        }
    }

    /// Returns the timestamp of the earliest pending event without removing
    /// it.
    ///
    /// Takes `&mut self` because the calendar backend settles lazily: the
    /// peek may advance the window cursor or rotate the lookahead window
    /// (neither changes the pop sequence).
    pub fn peek_time(&mut self) -> Option<SimTime> {
        match &mut self.tier {
            Tier::Heap(heap) => heap.peek().map(|s| s.due),
            Tier::Calendar(cal) => cal.peek().map(|s| s.due),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.tier {
            Tier::Heap(heap) => heap.len(),
            Tier::Calendar(cal) => cal.len,
        }
    }

    /// Returns true if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// High-water mark of pending events over the queue's lifetime.
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    /// Number of lookahead-window rotations the calendar backend has
    /// performed (always `0` on the heap backend).
    pub fn rotations(&self) -> u64 {
        match &self.tier {
            Tier::Heap(_) => 0,
            Tier::Calendar(cal) => cal.rotations,
        }
    }

    // -----------------------------------------------------------------
    // Same-instant lane internals (`crate::executor`)
    // -----------------------------------------------------------------
    //
    // The single-threaded loop holds the events a handler schedules at the
    // current instant in a lane outside the queue. They still take their
    // sequence numbers here, and still count as pending, so the counter
    // and the high-water mark read as if they had been queued.

    /// Takes the next sequence number for an entry held outside the queue.
    pub(crate) fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Raises the pending high-water mark to the queued entries plus
    /// `held` entries pending outside the queue.
    pub(crate) fn note_pending(&mut self, held: usize) {
        self.peak_pending = self.peak_pending.max(self.len() + held);
    }

    /// [`pop_due_capped_into`](Self::pop_due_capped_into) keeping each
    /// entry's sequence number instead of its due instant.
    pub(crate) fn pop_due_keyed_into(
        &mut self,
        now: SimTime,
        max: usize,
        into: &mut Vec<(u64, E)>,
    ) {
        self.pop_due_with(now, max, |s| into.push((s.seq, s.event)));
    }

    /// Whether any entry is due at or before `t`. Unlike
    /// [`peek_time`](Self::peek_time) it leaves the calendar unsettled, so
    /// a debug-only check cannot change the rotation count.
    pub(crate) fn holds_due_by(&self, t: SimTime) -> bool {
        match &self.tier {
            Tier::Heap(heap) => heap.peek().is_some_and(|s| s.due <= t),
            Tier::Calendar(cal) => cal.holds_due_by(t),
        }
    }

    // -----------------------------------------------------------------
    // Sharded-executor internals (`crate::workers`)
    // -----------------------------------------------------------------
    //
    // The multi-worker executor moves entries between the driver's queue
    // and per-shard queues without re-assigning sequence numbers: the
    // global `(due, seq)` order is the single-threaded execution order,
    // and preserving it across queue hops is what makes the sharded
    // executor bit-identical.

    /// Inserts an entry that already carries its global sequence number.
    /// Does **not** advance `next_seq` — the driver owns the counter.
    pub(crate) fn schedule_preassigned(&mut self, due: SimTime, seq: u64, event: E) {
        let entry = Scheduled { due, seq, event };
        match &mut self.tier {
            Tier::Heap(heap) => heap.push(entry),
            Tier::Calendar(cal) => cal.insert(entry),
        }
        self.note_pending(0);
    }

    /// `(due, seq)` key of the earliest pending entry (`&mut` for the same
    /// lazy-settle reason as [`peek_time`](Self::peek_time)).
    pub(crate) fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        match &mut self.tier {
            Tier::Heap(heap) => heap.peek().map(Scheduled::key),
            Tier::Calendar(cal) => cal.peek().map(Scheduled::key),
        }
    }

    /// Pops a *run* — entries due at or before `horizon`, in `(due, seq)`
    /// order — into `into`: up to `max` entries unconditionally, then
    /// (once the cap is hit) keeps going while the next entry is within
    /// `lookahead` of the run's first due instant, so a dense same-epoch
    /// cluster is never split across barrier windows. Returns the key of
    /// the earliest entry left behind (the shard's *frontier*), `None` if
    /// the queue drained.
    pub(crate) fn pop_run_into(
        &mut self,
        horizon: SimTime,
        max: usize,
        lookahead: crate::SimDuration,
        into: &mut Vec<Scheduled<E>>,
    ) -> Option<(SimTime, u64)> {
        debug_assert!(into.is_empty(), "pop_run_into requires a cleared buffer");
        let mut first_due: Option<SimTime> = None;
        loop {
            let key = self.peek_key()?;
            if key.0 > horizon {
                return Some(key);
            }
            if into.len() >= max {
                match first_due {
                    // Lookahead extension: same-epoch clusters stay whole.
                    Some(first) if key.0 <= first + lookahead => {}
                    _ => return Some(key),
                }
            }
            let entry = self.pop_entry().expect("peeked entry present");
            first_due.get_or_insert(entry.due);
            into.push(entry);
        }
    }

    /// Drains every entry, keys intact, in `(due, seq)` order.
    pub(crate) fn drain_all_into(&mut self, into: &mut Vec<Scheduled<E>>) {
        self.pop_due_with(SimTime::MAX, usize::MAX, |s| into.push(s));
    }

    /// Restores the sequence counter after a sharded run handed seq
    /// assignment to the driver.
    pub(crate) fn set_next_seq(&mut self, next_seq: u64) {
        debug_assert!(next_seq >= self.next_seq, "sequence counter must not rewind");
        self.next_seq = next_seq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BACKENDS: [QueueBackend; 2] = [QueueBackend::Heap, QueueBackend::Calendar];

    #[test]
    fn pops_in_time_order() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            q.schedule(SimTime::from_millis(30), 3);
            q.schedule(SimTime::from_millis(10), 1);
            q.schedule(SimTime::from_millis(20), 2);
            let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, vec![1, 2, 3], "{backend:?}");
        }
    }

    #[test]
    fn equal_times_pop_fifo() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            let t = SimTime::from_secs(1);
            for i in 0..100 {
                q.schedule(t, i);
            }
            let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>(), "{backend:?}");
        }
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_deterministic() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            q.schedule(SimTime::from_millis(10), "a");
            q.schedule(SimTime::from_millis(10), "b");
            assert_eq!(q.pop().unwrap().1, "a", "{backend:?}");
            q.schedule(SimTime::from_millis(10), "c");
            assert_eq!(q.pop().unwrap().1, "b", "{backend:?}");
            assert_eq!(q.pop().unwrap().1, "c", "{backend:?}");
        }
    }

    #[test]
    fn peek_does_not_remove() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            q.schedule(SimTime::from_millis(7), ());
            assert_eq!(q.peek_time(), Some(SimTime::from_millis(7)), "{backend:?}");
            assert_eq!(q.len(), 1, "{backend:?}");
            assert!(!q.is_empty(), "{backend:?}");
            q.pop();
            assert!(q.is_empty(), "{backend:?}");
            assert_eq!(q.peek_time(), None, "{backend:?}");
        }
    }

    #[test]
    fn schedule_batch_preserves_fifo_against_singles() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            let t = SimTime::from_millis(3);
            q.schedule(t, 0);
            q.schedule_batch(t, [1, 2, 3]);
            q.schedule(t, 4);
            let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, vec![0, 1, 2, 3, 4], "{backend:?}");
        }
    }

    #[test]
    fn pop_due_drains_one_instant_in_pop_order() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            let t = SimTime::from_millis(5);
            q.schedule(t, "a");
            q.schedule(SimTime::from_millis(9), "late");
            q.schedule(t, "b");
            let batch = q.pop_due(t);
            assert_eq!(batch, vec![(t, "a"), (t, "b")], "{backend:?}");
            assert_eq!(q.len(), 1, "later events stay queued: {backend:?}");
            assert!(q.pop_due(SimTime::from_millis(8)).is_empty(), "{backend:?}");
            assert_eq!(q.pop_due(SimTime::from_millis(9)).len(), 1, "{backend:?}");
        }
    }

    #[test]
    fn pop_due_capped_leaves_excess_queued() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            let t = SimTime::from_millis(1);
            q.schedule_batch(t, 0..10);
            let first = q.pop_due_capped(t, 4);
            assert_eq!(
                first.iter().map(|&(_, e)| e).collect::<Vec<_>>(),
                vec![0, 1, 2, 3],
                "{backend:?}"
            );
            let rest = q.pop_due(t);
            assert_eq!(
                rest.iter().map(|&(_, e)| e).collect::<Vec<_>>(),
                (4..10).collect::<Vec<_>>(),
                "{backend:?}"
            );
        }
    }

    #[test]
    fn counts_total_scheduled() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            for i in 0..5u64 {
                q.schedule(SimTime::from_micros(i), i);
            }
            q.pop();
            assert_eq!(q.scheduled_total(), 5, "{backend:?}");
        }
    }

    #[test]
    fn backend_is_reported_and_defaults_to_heap() {
        assert_eq!(EventQueue::<()>::new().backend(), QueueBackend::Heap);
        assert_eq!(QueueBackend::default(), QueueBackend::Heap);
        let cal = EventQueue::<()>::with_backend(QueueBackend::Calendar);
        assert_eq!(cal.backend(), QueueBackend::Calendar);
    }

    #[test]
    fn backend_parses_from_str() {
        assert_eq!("heap".parse::<QueueBackend>().unwrap(), QueueBackend::Heap);
        assert_eq!("calendar".parse::<QueueBackend>().unwrap(), QueueBackend::Calendar);
        assert!("wheel".parse::<QueueBackend>().is_err());
    }

    #[test]
    fn peak_pending_tracks_high_water_mark() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            q.schedule_batch(SimTime::from_millis(1), 0..7);
            q.pop();
            q.pop();
            q.schedule(SimTime::from_millis(2), 99);
            assert_eq!(q.peak_pending(), 7, "{backend:?}");
        }
    }

    #[test]
    fn far_future_events_rotate_out_of_the_overflow_tier() {
        // Spread events over ~40 s — far beyond one lookahead window — so
        // popping them all must rotate the window repeatedly, and the pop
        // order must still be globally sorted.
        let mut q = EventQueue::with_backend(QueueBackend::Calendar);
        let mut expect = Vec::new();
        for i in 0..1_000u64 {
            let due = SimTime::from_micros((i * 7_919 * 41) % 40_000_000);
            q.schedule(due, i);
            expect.push((due, i));
        }
        expect.sort();
        let mut popped = Vec::new();
        while let Some((t, seq_tag)) = q.pop() {
            popped.push((t, seq_tag));
        }
        let expect: Vec<(SimTime, u64)> = expect.into_iter().collect();
        assert_eq!(popped, expect);
        assert!(q.rotations() > 0, "a 40 s spread must rotate the ~524 ms window");
    }

    #[test]
    fn scheduling_below_a_rotated_window_rebases_correctly() {
        // Pop a far event first so the window rotates past t=1ms, then
        // schedule behind the rotated window; the queue must still pop in
        // global (due, seq) order.
        let mut q = EventQueue::with_backend(QueueBackend::Calendar);
        q.schedule(SimTime::from_secs(10), "far");
        assert_eq!(q.pop().unwrap().1, "far");
        assert!(q.rotations() > 0);
        q.schedule(SimTime::from_millis(1), "behind");
        q.schedule(SimTime::from_secs(20), "ahead");
        assert_eq!(q.pop().unwrap().1, "behind");
        assert_eq!(q.pop().unwrap().1, "ahead");
        assert!(q.is_empty());
    }

    #[test]
    fn peek_settles_without_disturbing_order() {
        // Peeks interleaved with far-future schedules force rotations at
        // peek time; the observed times must match the subsequent pops.
        let mut q = EventQueue::with_backend(QueueBackend::Calendar);
        q.schedule(SimTime::from_secs(2), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        q.schedule(SimTime::from_millis(1), 0);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), 0)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), 1)));
    }

    #[test]
    fn backends_agree_on_a_mixed_adversarial_interleaving() {
        // A deterministic LCG drives an interleaving of near/far schedules,
        // pops, and capped batch drains against both backends at once; any
        // ordering divergence fails immediately. (The proptest in
        // tests/proptest_invariants.rs explores this space randomly; this
        // is the fast always-on version.)
        let mut heap = EventQueue::with_backend(QueueBackend::Heap);
        let mut cal = EventQueue::with_backend(QueueBackend::Calendar);
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut rng = move || {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            state >> 33
        };
        let mut now = SimTime::ZERO;
        for i in 0..5_000u64 {
            match rng() % 5 {
                0 | 1 => {
                    // Mixed horizons: mostly near-term, some far.
                    let r = rng();
                    let micros = if r % 8 == 0 { r % 30_000_000 } else { r % 400_000 };
                    let due = now + crate::SimDuration::from_micros(micros);
                    heap.schedule(due, i);
                    cal.schedule(due, i);
                }
                2 => {
                    let a = heap.pop();
                    let b = cal.pop();
                    assert_eq!(a, b, "pop diverged at step {i}");
                    if let Some((t, _)) = a {
                        now = now.max(t);
                    }
                }
                3 => {
                    // The non-settling probe first, on an unsettled calendar.
                    let probe = now + crate::SimDuration::from_micros(i % 3 * 200_000);
                    let due = cal.holds_due_by(probe);
                    assert_eq!(due, heap.holds_due_by(probe), "due probe diverged at step {i}");
                    assert_eq!(heap.peek_time(), cal.peek_time(), "peek diverged at step {i}");
                    assert_eq!(due, cal.peek_time().is_some_and(|t| t <= probe), "step {i}");
                }
                _ => {
                    let cap = (rng() % 7) as usize;
                    let horizon = now + crate::SimDuration::from_millis(rng() % 50);
                    let a = heap.pop_due_capped(horizon, cap);
                    let b = cal.pop_due_capped(horizon, cap);
                    assert_eq!(a, b, "capped drain diverged at step {i}");
                    if let Some(&(t, _)) = a.last() {
                        now = now.max(t);
                    }
                }
            }
        }
        loop {
            let a = heap.pop();
            let b = cal.pop();
            assert_eq!(a, b, "final drain diverged");
            if a.is_none() {
                break;
            }
        }
        assert_eq!(heap.scheduled_total(), cal.scheduled_total());
    }

    /// Heap entries (run heads and singletons) and parked run events of a
    /// heap-backed queue.
    fn heap_layout<E>(q: &EventQueue<E>) -> (usize, usize) {
        match &q.tier {
            Tier::Heap(h) => (h.heap.len(), h.parked),
            Tier::Calendar(_) => unreachable!("heap backend only"),
        }
    }

    #[test]
    fn same_due_entries_without_back_to_back_seqs_never_merge() {
        // Each insertion shares its instant with an earlier one, but none
        // extends the latest insertion by the next sequence number at the
        // same instant, so each must become a heap entry of its own and pop
        // exactly as a plain binary heap of the same entries does.
        let (t, u) = (SimTime::from_millis(1), SimTime::from_millis(2));
        let mut q = EventQueue::with_backend(QueueBackend::Heap);
        q.schedule(t, 0); // seq 0
        let held = q.take_seq(); // seq 1, held outside as a lane entry is
        q.schedule(t, 2); // same instant, a sequence number skipped
        q.schedule(u, 3); // next sequence number, another instant
        q.schedule(t, 4); // next sequence number, back to the first instant
        q.schedule_preassigned(t, held, 1); // a requeued entry, out of order
        q.schedule_preassigned(t, 6, 6); // skips 5
        q.schedule_preassigned(t, 5, 5); // below the latest insertion
        assert_eq!(heap_layout(&q), (7, 0), "no insertion may join a run");

        let entries = [(t, 0), (t, 1), (t, 2), (u, 3), (t, 4), (t, 5), (t, 6)];
        let mut reference: BinaryHeap<Scheduled<u64>> =
            entries.into_iter().map(|(due, seq)| Scheduled { due, seq, event: seq }).collect();
        while let Some(want) = reference.pop() {
            assert_eq!(q.pop(), Some((want.due, want.event)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn budget_cuts_inside_a_run_resume_under_the_right_sequence_numbers() {
        // A run of eight between an earlier event and a same-instant event
        // after a skipped sequence number. Cutting the drain at every pair
        // of positions must resume in the uncut order, each event under the
        // sequence number it was scheduled with.
        let t = SimTime::from_millis(4);
        let build = || {
            let mut q = EventQueue::with_backend(QueueBackend::Heap);
            q.schedule(SimTime::from_millis(3), 100); // seq 0
            q.schedule_batch(t, 0..8); // seqs 1..=8: one run
            q.take_seq(); // seq 9 held outside: the run closes
            q.schedule(t, 200); // seq 10
            assert_eq!(heap_layout(&q), (3, 7));
            q
        };
        let mut whole = Vec::new();
        build().pop_due_keyed_into(t, usize::MAX, &mut whole);
        let want: Vec<(u64, u64)> =
            [(0, 100)].into_iter().chain((1..=8).map(|s| (s, s - 1))).chain([(10, 200)]).collect();
        assert_eq!(whole, want);
        for first in 0..=whole.len() {
            for second in 0..=whole.len() - first {
                let mut q = build();
                let mut got = Vec::new();
                q.pop_due_keyed_into(t, first, &mut got);
                q.pop_due_keyed_into(t, second, &mut got);
                assert_eq!(got.len(), first + second);
                assert_eq!(q.len(), whole.len() - got.len(), "cut at {first}+{second}");
                q.pop_due_keyed_into(t, usize::MAX, &mut got);
                assert_eq!(got, whole, "cut at {first}+{second}");
                assert!(q.is_empty());
            }
        }
    }

    #[test]
    fn len_peak_and_total_count_events_not_heap_entries() {
        let mut q = EventQueue::with_backend(QueueBackend::Heap);
        let t = SimTime::from_millis(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        q.schedule(SimTime::from_millis(2), 100);
        assert_eq!(heap_layout(&q), (2, 99), "one run and a singleton");
        assert_eq!((q.len(), q.peak_pending(), q.scheduled_total()), (101, 101, 101));
        q.pop();
        assert_eq!(heap_layout(&q), (2, 98), "the run's second event heads the rest");
        assert_eq!(q.pop_due_capped(t, 49).len(), 49);
        assert_eq!(q.len(), 51);
        q.schedule_batch(SimTime::from_millis(3), 0..10);
        assert_eq!(heap_layout(&q), (3, 58));
        assert_eq!((q.len(), q.peak_pending(), q.scheduled_total()), (61, 101, 111));
        assert_eq!(q.pop_due(SimTime::MAX).len(), 61);
        assert_eq!(heap_layout(&q), (0, 0));
        assert!(q.is_empty());
    }

    #[test]
    fn a_10k_run_drains_one_pop_at_a_time_in_order_behind_one_heap_entry() {
        // The sharded executor pops one entry at a time (`pop_run_into`).
        // Each pop of a run head must hand the run's next event to a new
        // head: one heap pop and push plus O(1) table work, never a shift
        // of the rest of the run. So the run stays behind exactly one heap
        // entry while its parked tail shrinks by one event per pop.
        const N: u64 = 10_000;
        let (early, t, late) =
            (SimTime::from_millis(1), SimTime::from_millis(5), SimTime::from_millis(9));
        let build = || {
            let mut q = EventQueue::with_backend(QueueBackend::Heap);
            q.schedule(early, N);
            for i in 0..N {
                q.schedule(t, i);
            }
            q.schedule(late, N + 1);
            q
        };
        let mut q = build();
        assert_eq!(q.pop(), Some((early, N)));
        for i in 0..N {
            assert_eq!(heap_layout(&q), (2, (N - 1 - i) as usize), "before pop {i}");
            assert_eq!(q.peek_key(), Some((t, i + 1)));
            assert_eq!(q.pop(), Some((t, i)));
        }
        assert_eq!(q.pop(), Some((late, N + 1)));
        assert!(q.is_empty());

        let mut q = build();
        assert_eq!(q.pop(), Some((early, N)));
        let mut run = Vec::new();
        let frontier = q.pop_run_into(t, 1, crate::SimDuration::ZERO, &mut run);
        assert_eq!(frontier, Some((late, N + 1)), "the instant's cluster stays whole");
        let keys: Vec<(SimTime, u64, u64)> = run.iter().map(|s| (s.due, s.seq, s.event)).collect();
        assert_eq!(keys, (0..N).map(|i| (t, i + 1, i)).collect::<Vec<_>>());
    }
}
