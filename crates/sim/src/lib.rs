//! # flowmig-sim
//!
//! Deterministic discrete-event simulation (DES) kernel underpinning the
//! `flowmig` reproduction of *"Toward Reliable and Rapid Elasticity for
//! Streaming Dataflows on Clouds"* (Shukla & Simmhan, ICDCS 2018).
//!
//! The kernel provides three things:
//!
//! * virtual time — [`SimTime`] / [`SimDuration`], microsecond resolution;
//! * a future-event list — [`EventQueue`], with deterministic FIFO
//!   tie-breaking for same-instant events;
//! * a driver — [`Simulation`] running any [`Process`] model to a horizon,
//!   quiescence, or an event budget.
//!
//! Randomness is confined to [`SimRng`], a seeded generator, so every run is
//! a pure function of its seed: re-running an experiment with the same seed
//! reproduces every queue length, timeout and replay decision exactly.
//!
//! # Backend selection
//!
//! The future-event list has two interchangeable backends, chosen with
//! [`QueueBackend`] via [`EventQueue::with_backend`] /
//! [`Simulation::with_backend`]:
//!
//! * **`Heap`** (default) — a binary heap; `O(log n)` everywhere, no
//!   tuning, robust to arbitrary timestamp distributions. It coalesces
//!   *runs*: events scheduled back to back for one instant with
//!   consecutive sequence numbers, such as a [`Scheduler::after_batch`]
//!   or the follow-up every participant of a wave schedules after the
//!   same delay, sit behind **one** heap entry, the run's head. The rest
//!   of the run waits in a side table keyed by the head's sequence
//!   number, and when the head pops the whole run drains into the
//!   dispatch batch. Sequence numbers are unique, so no other entry can
//!   sort inside a run; anything that takes one in between (another
//!   instant, a same-instant lane push, an external schedule) closes the
//!   run. Heap entries keep their size and the side table is consulted
//!   only while it holds a run, so a singleton pays only the open-run
//!   bookkeeping: a few comparisons and stores per push and pop.
//! * **`Calendar`** — a two-tier calendar queue (near-term bucket ring +
//!   sorted far-future overflow tier); `O(1)` amortized for dense
//!   near-term traffic, and more than twice as fast as the heap on the
//!   `hotpath` bench's 100k-pending churn of random singletons, which
//!   form no runs.
//!
//! **Semantics guarantee:** both backends pop in identical `(due, seq)`
//! order for *any* interleaving of schedules and pops, so traces, stats and
//! seeds are backend-independent — switching backends can never change a
//! result, only how fast it arrives. Keep the default: measured end to end
//! on the repository's `perfbench` workloads (2-vCPU Xeon, seeds 1–4), the
//! calendar is slower than the heap on all three: −21% dispatched events
//! per second on paper-suite, −14% on skew-fifo and −17% on scale-10k,
//! where it also peaks at 38% more memory (26 MB against 19 MB).
//!
//! # Same-instant lane
//!
//! Under the single-threaded loop, events scheduled at the current
//! instant — [`Scheduler::now_event`], `after(SimDuration::ZERO)`,
//! `at(now)` (a clamped past instant included) and a zero-delay
//! [`Scheduler::after_batch`] — never enter the future-event list. They
//! collect, in emission order, in a FIFO lane that is dispatched as the
//! next batch. That is exactly `(due, seq)` order because **the loop takes
//! every queued entry due at the current instant out of the future-event
//! list before it dispatches any of them**: when a batch ends, nothing
//! queued is due at or before `now`, so the events the batch scheduled at
//! `now` are the next batch, and the lane holds them in sequence order.
//! Lane entries still take sequence numbers and count as pending, so
//! [`Simulation::queue_peak_pending`], traces and seeds are unchanged; if
//! the event budget runs out, they return to the future-event list under
//! those numbers. The sharded executor's buffered [`Scheduler`] does not
//! use the lane: it routes every emission through its per-shard queues.
//!
//! # Execution model
//!
//! Orthogonal to the backend, [`SimExecutor`] picks *who walks* the
//! future-event list ([`Simulation::set_executor`] /
//! `FLOWMIG_SIM_WORKERS`):
//!
//! * **`SingleThread`** (default) — the classic DES loop: pop the
//!   earliest event, execute, repeat.
//! * **`Workers(n)`** — the event list is sharded by
//!   [`Process::shard_of`] across `n` worker threads, each owning a
//!   private [`EventQueue`]; the driver thread synchronizes them with a
//!   conservative-lookahead barrier and executes events in global
//!   `(due, seq)` order.
//!
//! The **frontier invariant** is what makes `Workers(n)` exact rather
//! than approximate: each barrier window, every worker pops a bounded run
//! of due entries and reports its *frontier* — the `(due, seq)` key of
//! the earliest entry it still holds. The minimum frontier across shards
//! is a *safe bound*: no unexecuted event anywhere has a smaller key, so
//! the k-way merge of the runs below that bound **is** the global
//! execution order, and the driver executes exactly that prefix. Model
//! execution (state updates, RNG draws, trace appends) stays on the
//! driver thread in that order, which is why traces, stats, seeds and
//! clocks are byte-identical to the single-threaded loop — the workers
//! parallelize the queue plane (inserts, settles, window rotations,
//! ordered pops), which dominates at large pending-set sizes.
//!
//! The **lookahead** ([`Simulation::set_lookahead`]) derives from the
//! model's minimum cross-shard delivery latency — for the flowmig engine,
//! `min(net_latency_remote, control_latency)` = 1 ms. Because models may
//! also self-schedule at zero delay (`Scheduler::now_event`), lookahead
//! is used only to extend a worker's pop run past its cap without
//! splitting a dense same-instant cluster — it is a batching knob, and
//! correctness never depends on its value.
//!
//! The **merge order is pinned** to ascending `(due, seq)` with ties (in
//! the unreachable case of key collisions) broken by shard index:
//! same-instant events must fire in schedule order no matter which shard
//! held them, follow-up events get the same sequence numbers the
//! single-threaded loop would assign, and re-running any configuration —
//! across executors, worker counts and backends — reproduces every trace
//! hash. See `workers.rs` module docs for the barrier protocol details.
//!
//! # Examples
//!
//! ```
//! use flowmig_sim::{Process, Scheduler, SimDuration, SimTime, Simulation};
//!
//! struct Pinger { pongs: u32 }
//! impl Process<&'static str> for Pinger {
//!     fn handle(&mut self, ev: &'static str, sched: &mut Scheduler<'_, &'static str>) {
//!         if ev == "ping" {
//!             sched.after(SimDuration::from_millis(100), "pong");
//!         } else {
//!             self.pongs += 1;
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new();
//! sim.schedule(SimTime::ZERO, "ping");
//! let mut model = Pinger { pongs: 0 };
//! sim.run_until(&mut model, SimTime::from_secs(1));
//! assert_eq!(model.pongs, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod executor;
pub mod fasthash;
mod queue;
mod rng;
mod time;
mod workers;

pub use executor::{Process, RunOutcome, Scheduler, SimExecutor, Simulation};
pub use queue::{EventQueue, QueueBackend, CALENDAR_BUCKETS, CALENDAR_BUCKET_MICROS};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
