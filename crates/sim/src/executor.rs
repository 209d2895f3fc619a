//! Generic discrete-event execution loop.
//!
//! A model implements [`Process`]; the [`Simulation`] pops the earliest
//! pending event, advances virtual time, and hands the event to the model
//! together with a [`Scheduler`] for follow-up events. Model execution is
//! strictly sequential in global `(due, seq)` order — which, combined with
//! the deterministic [`EventQueue`](crate::EventQueue) and
//! [`SimRng`](crate::SimRng), makes runs bit-reproducible.

use crate::queue::{EventQueue, QueueBackend};
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Handle through which a [`Process`] schedules follow-up events. Events
/// due at the current instant join the same-instant lane, later ones the
/// future-event list.
#[derive(Debug)]
pub struct Scheduler<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
    lane: &'a mut Vec<(u64, E)>,
    clamped_past: &'a mut u64,
}

impl<'a, E> Scheduler<'a, E> {
    fn push(&mut self, due: SimTime, event: E) {
        if due == self.now {
            self.lane.push((self.queue.take_seq(), event));
        } else {
            self.queue.schedule(due, event);
        }
        self.queue.note_pending(self.lane.len());
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire `delay` from now.
    pub fn after(&mut self, delay: SimDuration, event: E) {
        self.push(self.now + delay, event);
    }

    /// Schedules every event in `events` to fire `delay` from now, in
    /// iteration order — exactly as one [`after`](Self::after) call per
    /// event would. Used for same-delay fan-outs like broadcast control
    /// waves: a zero delay puts the batch on the same-instant lane, a
    /// positive one goes to [`EventQueue::schedule_batch`], where the
    /// batch's consecutive sequence numbers form one run behind a single
    /// heap entry on the heap backend. Back-to-back `after` calls with one
    /// delay form the same run.
    ///
    /// [`EventQueue::schedule_batch`]: crate::EventQueue::schedule_batch
    pub fn after_batch<I>(&mut self, delay: SimDuration, events: I)
    where
        I: IntoIterator<Item = E>,
    {
        let due = self.now + delay;
        if due == self.now {
            self.lane.extend(events.into_iter().map(|e| (self.queue.take_seq(), e)));
        } else {
            self.queue.schedule_batch(due, events);
        }
        self.queue.note_pending(self.lane.len());
    }

    /// Schedules `event` at an absolute instant.
    ///
    /// A past instant is clamped to `now`: the event fires immediately
    /// (after already-queued events for this instant) instead of entering
    /// the future-event list behind the clock, which would corrupt pop
    /// order. Debug builds additionally panic so the offending scheduling
    /// logic is caught in development.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` is in the past; release builds clamp
    /// and count the clamp in
    /// [`Simulation::clamped_past_schedules`], so production runs can
    /// detect the scheduling bug a debug build would have panicked on.
    pub fn at(&mut self, at: SimTime, event: E) {
        if at < self.now {
            *self.clamped_past += 1;
        }
        debug_assert!(at >= self.now, "cannot schedule into the past");
        self.push(at.max(self.now), event);
    }

    /// Schedules `event` to fire immediately (at the current instant, after
    /// already-queued events for this instant).
    pub fn now_event(&mut self, event: E) {
        self.push(self.now, event);
    }
}

/// A simulated system driven by events of type `E`.
pub trait Process<E> {
    /// Handles one event at virtual time `sched.now()`, scheduling any
    /// follow-up events through `sched`.
    fn handle(&mut self, event: E, sched: &mut Scheduler<'_, E>);
}

/// Which execution backend [`Simulation::run_until`] drives the event loop
/// with. There is one: the in-place single-threaded loop. The type stays so
/// that configurations and run records naming the executor keep working.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SimExecutor {
    /// The in-place single-threaded loop.
    #[default]
    SingleThread,
}

impl std::fmt::Display for SimExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimExecutor::SingleThread => f.write_str("single-thread"),
        }
    }
}

/// Outcome of [`Simulation::run_until`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The horizon was reached with events still pending.
    HorizonReached,
    /// The event queue drained before the horizon.
    Quiescent,
    /// The configured event budget was exhausted (guards against livelock).
    BudgetExhausted,
}

/// The simulation driver: owns the clock and the future-event list.
///
/// # Examples
///
/// ```
/// use flowmig_sim::{Process, RunOutcome, Scheduler, SimDuration, SimTime, Simulation};
///
/// struct Counter(u32);
/// impl Process<&'static str> for Counter {
///     fn handle(&mut self, ev: &'static str, sched: &mut Scheduler<'_, &'static str>) {
///         self.0 += 1;
///         if ev == "tick" && self.0 < 3 {
///             sched.after(SimDuration::from_secs(1), "tick");
///         }
///     }
/// }
///
/// let mut sim = Simulation::new();
/// sim.schedule(SimTime::ZERO, "tick");
/// let mut model = Counter(0);
/// let outcome = sim.run_until(&mut model, SimTime::from_secs(10));
/// assert_eq!(outcome, RunOutcome::Quiescent);
/// assert_eq!(model.0, 3);
/// assert_eq!(sim.now(), SimTime::from_secs(2));
/// ```
#[derive(Debug)]
pub struct Simulation<E> {
    queue: EventQueue<E>,
    now: SimTime,
    processed: u64,
    budget: u64,
    clamped_past: u64,
}

impl<E> Default for Simulation<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulation<E> {
    /// Default per-run event budget; large enough for any paper experiment,
    /// small enough to catch accidental event storms in tests.
    pub const DEFAULT_BUDGET: u64 = 200_000_000;

    /// Creates an idle simulation at time zero on the default
    /// ([`QueueBackend::Heap`]) future-event list.
    pub fn new() -> Self {
        Self::with_backend(QueueBackend::default())
    }

    /// Creates an idle simulation at time zero on the given future-event
    /// list backend. Backends are order-identical (see the "Backend
    /// selection" section of the [crate docs](crate)), so this is purely
    /// a performance knob.
    pub fn with_backend(backend: QueueBackend) -> Self {
        Simulation {
            queue: EventQueue::with_backend(backend),
            now: SimTime::ZERO,
            processed: 0,
            budget: Self::DEFAULT_BUDGET,
            clamped_past: 0,
        }
    }

    /// The future-event-list backend this simulation runs on.
    pub fn queue_backend(&self) -> QueueBackend {
        self.queue.backend()
    }

    /// Caps the number of events a single `run_until` may process.
    pub fn set_budget(&mut self, budget: u64) {
        self.budget = budget;
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// High-water mark of pending events over the simulation's lifetime,
    /// same-instant lane entries included.
    pub fn queue_peak_pending(&self) -> usize {
        self.queue.peak_pending()
    }

    /// Lookahead-window rotations performed by the calendar backend
    /// (always `0` under [`QueueBackend::Heap`]).
    pub fn queue_rotations(&self) -> u64 {
        self.queue.rotations()
    }

    /// Number of past instants clamped to `now`: external
    /// [`schedule`](Self::schedule) calls (any build) plus
    /// [`Scheduler::at`] calls from handlers (release builds only — debug
    /// builds panic there instead). Nonzero means a caller or a model
    /// scheduled into the past: a bug, but one the clamp keeps from
    /// corrupting pop order.
    pub fn clamped_past_schedules(&self) -> u64 {
        self.clamped_past
    }

    /// Schedules an initial or external event.
    ///
    /// An instant before [`now`](Self::now) — possible once a
    /// [`run_until`](Self::run_until) has advanced the clock — is clamped
    /// to `now` and counted in
    /// [`clamped_past_schedules`](Self::clamped_past_schedules): the event
    /// fires at the current instant instead of rewinding virtual time.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        if at < self.now {
            self.clamped_past += 1;
        }
        self.queue.schedule(at.max(self.now), event);
    }

    /// Runs the model until `horizon` (inclusive), the queue drains, or the
    /// event budget is exhausted. Time never advances beyond `horizon` —
    /// and never moves backwards: a horizon earlier than the current clock
    /// leaves `now` untouched.
    ///
    /// Dispatch is batched: all events due at one instant are drained from
    /// the future-event list in a single [`EventQueue::pop_due`] call and
    /// handled back to back through one hoisted [`Scheduler`], so the
    /// backend is not re-touched between same-instant events. Events a
    /// handler schedules *at* the current instant never enter the
    /// future-event list: they collect in the same-instant lane, in
    /// emission order, and the lane is dispatched as the next batch.
    /// Nothing else can be due then — the batch took every queued entry due
    /// at or before the instant — so this is the exact event order of
    /// one-at-a-time dispatch (see the "Same-instant lane" section of the
    /// [crate docs](crate)). If the event budget runs out first, the lane's
    /// entries return to the future-event list under the sequence numbers
    /// they were given, and a later call resumes in the same order.
    pub fn run_until<P: Process<E>>(&mut self, model: &mut P, horizon: SimTime) -> RunOutcome {
        let mut spent: u64 = 0;
        // Two buffers reused across instants, entries tagged with their
        // sequence numbers: `batch` holds the events being dispatched,
        // `lane` collects what they schedule at the current instant, which
        // is exactly the next batch. Single-event instants (the common case
        // under jittered timings) must not pay a heap allocation per event.
        let mut batch: Vec<(u64, E)> = Vec::new();
        let mut lane: Vec<(u64, E)> = Vec::new();
        loop {
            let remaining = usize::try_from(self.budget - spent).unwrap_or(usize::MAX);
            if lane.is_empty() {
                let t = match self.queue.peek_time() {
                    None => return RunOutcome::Quiescent,
                    Some(t) if t > horizon => {
                        // Clamp, don't assign: a horizon already behind the
                        // clock must not rewind virtual time.
                        self.now = self.now.max(horizon);
                        return RunOutcome::HorizonReached;
                    }
                    Some(t) => t,
                };
                if remaining == 0 {
                    return RunOutcome::BudgetExhausted;
                }
                debug_assert!(t >= self.now, "event queue produced a past event");
                self.now = t;
                self.queue.pop_due_keyed_into(t, remaining, &mut batch);
                debug_assert!(!batch.is_empty(), "peeked entry vanished");
            } else {
                if remaining == 0 {
                    self.requeue(&mut lane, 0);
                    return RunOutcome::BudgetExhausted;
                }
                debug_assert!(
                    !self.queue.holds_due_by(self.now),
                    "same-instant lane dispatched ahead of a queued event due at or before now"
                );
                std::mem::swap(&mut batch, &mut lane);
                self.requeue(&mut batch, remaining);
            }
            // The batch length is bounded by the remaining budget, so
            // counting it wholesale is equivalent to per-event increments.
            let dispatched = batch.len() as u64;
            let mut sched = Scheduler {
                now: self.now,
                queue: &mut self.queue,
                lane: &mut lane,
                clamped_past: &mut self.clamped_past,
            };
            for (_, event) in batch.drain(..) {
                model.handle(event, &mut sched);
            }
            self.processed += dispatched;
            spent += dispatched;
        }
    }

    /// Returns same-instant entries past the first `keep` to the
    /// future-event list under their reserved sequence numbers, so the
    /// budget-capped dispatch they missed resumes in the same order.
    fn requeue(&mut self, entries: &mut Vec<(u64, E)>, keep: usize) {
        if entries.len() > keep {
            for (seq, event) in entries.drain(keep..) {
                self.queue.schedule_preassigned(self.now, seq, event);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Recorder {
        seen: Vec<(u64, u32)>,
    }

    enum Ev {
        Emit(u32),
        Chain(u32),
    }

    impl Process<Ev> for Recorder {
        fn handle(&mut self, ev: Ev, sched: &mut Scheduler<'_, Ev>) {
            match ev {
                Ev::Emit(v) => self.seen.push((sched.now().as_micros(), v)),
                Ev::Chain(n) => {
                    self.seen.push((sched.now().as_micros(), n));
                    if n > 0 {
                        sched.after(SimDuration::from_micros(10), Ev::Chain(n - 1));
                    }
                }
            }
        }
    }

    #[test]
    fn runs_chained_events_to_quiescence() {
        let mut sim = Simulation::new();
        sim.schedule(SimTime::ZERO, Ev::Chain(4));
        let mut model = Recorder::default();
        assert_eq!(sim.run_until(&mut model, SimTime::from_secs(1)), RunOutcome::Quiescent);
        assert_eq!(model.seen.len(), 5);
        assert_eq!(sim.now().as_micros(), 40);
        assert_eq!(sim.processed(), 5);
    }

    #[test]
    fn horizon_stops_time() {
        let mut sim = Simulation::new();
        sim.schedule(SimTime::from_secs(100), Ev::Emit(1));
        let mut model = Recorder::default();
        assert_eq!(sim.run_until(&mut model, SimTime::from_secs(10)), RunOutcome::HorizonReached);
        assert!(model.seen.is_empty());
        assert_eq!(sim.now(), SimTime::from_secs(10));
        // The pending event is preserved and fires on a later run.
        assert_eq!(sim.run_until(&mut model, SimTime::from_secs(200)), RunOutcome::Quiescent);
        assert_eq!(model.seen.len(), 1);
    }

    #[test]
    fn budget_guards_against_livelock() {
        struct Livelock;
        impl Process<()> for Livelock {
            fn handle(&mut self, _: (), sched: &mut Scheduler<'_, ()>) {
                sched.now_event(());
            }
        }
        let mut sim = Simulation::new();
        sim.set_budget(1_000);
        sim.schedule(SimTime::ZERO, ());
        assert_eq!(sim.run_until(&mut Livelock, SimTime::MAX), RunOutcome::BudgetExhausted);
    }

    #[test]
    fn now_events_scheduled_mid_batch_run_after_the_batch() {
        // Handling the first event of an instant schedules another event at
        // the same instant; it must run after the rest of the batch (FIFO by
        // sequence number), exactly as one-at-a-time dispatch ordered it.
        struct Chainer {
            seen: Vec<u32>,
        }
        impl Process<u32> for Chainer {
            fn handle(&mut self, v: u32, sched: &mut Scheduler<'_, u32>) {
                self.seen.push(v);
                if v == 1 {
                    sched.now_event(99);
                }
            }
        }
        let mut sim = Simulation::new();
        let t = SimTime::from_millis(2);
        sim.schedule(t, 1);
        sim.schedule(t, 2);
        sim.schedule(t, 3);
        let mut model = Chainer { seen: Vec::new() };
        sim.run_until(&mut model, SimTime::from_secs(1));
        assert_eq!(model.seen, vec![1, 2, 3, 99]);
    }

    /// Schedules one event into the past from inside a handler, via
    /// `Scheduler::at`. Used by both past-scheduling guard tests.
    struct PastScheduler {
        fired_at: Vec<u64>,
    }

    impl Process<Ev> for PastScheduler {
        fn handle(&mut self, ev: Ev, sched: &mut Scheduler<'_, Ev>) {
            match ev {
                Ev::Chain(_) => sched.at(SimTime::from_micros(1), Ev::Emit(7)),
                Ev::Emit(_) => self.fired_at.push(sched.now().as_micros()),
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics_in_debug() {
        let mut sim = Simulation::new();
        sim.schedule(SimTime::from_millis(5), Ev::Chain(0));
        sim.run_until(&mut PastScheduler { fired_at: Vec::new() }, SimTime::from_secs(1));
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn scheduling_into_the_past_clamps_to_now_in_release() {
        // Release builds must not corrupt pop order: the past instant is
        // clamped to `now`, so the event fires at the current instant and
        // the clock never runs backwards.
        let mut sim = Simulation::new();
        sim.schedule(SimTime::from_millis(5), Ev::Chain(0));
        let mut model = PastScheduler { fired_at: Vec::new() };
        assert_eq!(sim.run_until(&mut model, SimTime::from_secs(1)), RunOutcome::Quiescent);
        assert_eq!(model.fired_at, vec![5_000], "clamped to the scheduling instant");
        assert_eq!(sim.now(), SimTime::from_millis(5));
        assert_eq!(sim.clamped_past_schedules(), 1, "the silent clamp is counted");
    }

    #[test]
    fn external_schedule_into_the_past_clamps_to_now() {
        // Regression: `Simulation::schedule` did not clamp, so an instant
        // behind the clock made the next run rewind virtual time (release)
        // or panic on the past event (debug).
        let mut sim = Simulation::new();
        sim.schedule(SimTime::from_secs(10), Ev::Emit(1));
        let mut model = Recorder::default();
        sim.run_until(&mut model, SimTime::from_secs(10));
        sim.schedule(SimTime::from_secs(5), Ev::Emit(2));
        assert_eq!(sim.clamped_past_schedules(), 1, "the clamp is counted");
        assert_eq!(sim.run_until(&mut model, SimTime::from_secs(20)), RunOutcome::Quiescent);
        assert_eq!(sim.now(), SimTime::from_secs(10), "clock must never move backwards");
        assert_eq!(model.seen, vec![(10_000_000, 1), (10_000_000, 2)]);
    }

    #[test]
    fn budget_split_inside_the_lane_resumes_in_uncapped_order() {
        // Every event of the instant fans out into same-instant children
        // through each lane entry point, plus one later event. Splitting
        // the budget at every position — many of them while the lane
        // still holds entries — must reproduce the uncapped order.
        struct Fan {
            seen: Vec<(u64, u32)>,
        }
        impl Process<u32> for Fan {
            fn handle(&mut self, v: u32, sched: &mut Scheduler<'_, u32>) {
                let now = sched.now();
                self.seen.push((now.as_micros(), v));
                if v < 30 {
                    sched.now_event(4 * v + 1);
                    sched.after(SimDuration::from_micros(5), 1_000 + v);
                    sched.after_batch(SimDuration::ZERO, [4 * v + 2, 4 * v + 3]);
                    sched.at(now, 4 * v + 4);
                    sched.after(SimDuration::ZERO, 2_000 + v);
                }
            }
        }
        for backend in [QueueBackend::Heap, QueueBackend::Calendar] {
            let run = |first_budget: u64| {
                let mut sim = Simulation::with_backend(backend);
                sim.schedule(SimTime::from_millis(1), 0);
                sim.schedule(SimTime::from_millis(1), 500);
                let mut model = Fan { seen: Vec::new() };
                sim.set_budget(first_budget);
                let first = (sim.run_until(&mut model, SimTime::MAX), sim.processed());
                let lane_left = sim.queue.peek_time() == Some(sim.now());
                sim.set_budget(u64::MAX);
                assert_eq!(sim.run_until(&mut model, SimTime::MAX), RunOutcome::Quiescent);
                // Requeued lane entries keep their sequence numbers.
                (first, lane_left, (model.seen, sim.queue.scheduled_total()))
            };
            let (_, _, whole) = run(u64::MAX);
            let mut mid_lane_splits = 0;
            for split in 1..whole.0.len() as u64 {
                let (first, lane_left, seen) = run(split);
                assert_eq!(
                    first,
                    (RunOutcome::BudgetExhausted, split),
                    "{backend:?} split {split}"
                );
                assert_eq!(seen, whole, "{backend:?} split at {split} reordered dispatch");
                mid_lane_splits += u32::from(lane_left);
            }
            assert!(mid_lane_splits > 0, "no split left same-instant events behind");
        }
    }

    #[test]
    fn at_future_instants_is_exact() {
        // The clamp must not disturb legitimate absolute scheduling.
        struct AtFuture;
        impl Process<Ev> for AtFuture {
            fn handle(&mut self, ev: Ev, sched: &mut Scheduler<'_, Ev>) {
                if matches!(ev, Ev::Chain(_)) {
                    sched.at(SimTime::from_millis(9), Ev::Emit(1));
                }
            }
        }
        let mut sim = Simulation::new();
        sim.schedule(SimTime::from_millis(2), Ev::Chain(0));
        sim.run_until(&mut AtFuture, SimTime::from_secs(1));
        assert_eq!(sim.now(), SimTime::from_millis(9));
    }

    #[test]
    fn horizon_in_the_past_does_not_rewind_the_clock() {
        // Regression: `run_until` with a horizon earlier than `now` used to
        // assign `now = horizon`, moving virtual time backwards.
        let mut sim = Simulation::new();
        sim.schedule(SimTime::from_millis(50), Ev::Emit(1));
        sim.schedule(SimTime::from_secs(100), Ev::Emit(2));
        let mut model = Recorder::default();
        sim.run_until(&mut model, SimTime::from_secs(1));
        assert_eq!(sim.now(), SimTime::from_secs(1));
        // An earlier (already-passed) horizon must be a no-op on the clock.
        assert_eq!(sim.run_until(&mut model, SimTime::from_millis(10)), RunOutcome::HorizonReached);
        assert_eq!(sim.now(), SimTime::from_secs(1), "clock must never move backwards");
        assert_eq!(model.seen.len(), 1, "no event re-dispatch either");
    }

    #[test]
    fn legitimate_runs_report_zero_clamped_schedules() {
        let mut sim = Simulation::new();
        sim.schedule(SimTime::ZERO, Ev::Chain(4));
        sim.run_until(&mut Recorder::default(), SimTime::from_secs(1));
        assert_eq!(sim.clamped_past_schedules(), 0);
    }

    #[test]
    fn calendar_backend_runs_models_identically() {
        // The same chained model on both backends: identical event count,
        // identical final clock, identical observations.
        let run = |backend: QueueBackend| {
            let mut sim = Simulation::with_backend(backend);
            assert_eq!(sim.queue_backend(), backend);
            sim.schedule(SimTime::ZERO, Ev::Chain(300));
            sim.schedule(SimTime::from_secs(2), Ev::Emit(7));
            let mut model = Recorder::default();
            let outcome = sim.run_until(&mut model, SimTime::from_secs(10));
            (outcome, sim.now(), sim.processed(), model.seen)
        };
        let heap = run(QueueBackend::Heap);
        let calendar = run(QueueBackend::Calendar);
        assert_eq!(heap, calendar);
    }

    #[test]
    fn the_one_executor_displays_as_single_thread() {
        // Run records print the executor, so its name is part of the output.
        assert_eq!(SimExecutor::default(), SimExecutor::SingleThread);
        assert_eq!(SimExecutor::default().to_string(), "single-thread");
    }

    #[test]
    fn same_instant_events_fire_in_schedule_order() {
        let mut sim = Simulation::new();
        let t = SimTime::from_millis(1);
        sim.schedule(t, Ev::Emit(1));
        sim.schedule(t, Ev::Emit(2));
        sim.schedule(t, Ev::Emit(3));
        let mut model = Recorder::default();
        sim.run_until(&mut model, SimTime::from_secs(1));
        let vals: Vec<u32> = model.seen.iter().map(|&(_, v)| v).collect();
        assert_eq!(vals, vec![1, 2, 3]);
    }
}
