//! A layer-split benchmark for flowmig, driven through its public API.
//!
//! One **run** is one simulated migration. It makes exactly the calls
//! `MigrationController::run_with_plan` makes, in four timed steps:
//! *setup* (planning, the strategy's protocol and coordinator,
//! `Engine::new`), *simulate* (`Engine::run_until` to the horizon),
//! *analyze* (`MigrationMetrics::from_trace`) and *teardown* (`into_trace`
//! and the drops). A traced run also records a span around every call into
//! a layer and splits *simulate* into steady, migrate and recover phases.
//!
//! Every run is checked: its migration completes, reliable strategies drop
//! and replay nothing, every captured event is replayed, and a repeat of a
//! (scenario, seed) reproduces its engine counters and simulated outcomes.

pub mod check;
pub mod driver;
pub mod report;
pub mod trace;
pub mod workload;

pub use check::{check, SimOutcome};
pub use driver::execute;
pub use trace::Tracer;
pub use workload::{splitmix64, Suite, Workload, SKEW_SEEDS};
