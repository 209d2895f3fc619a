//! # flowmig-core
//!
//! The primary contribution of *"Toward Reliable and Rapid Elasticity for
//! Streaming Dataflows on Clouds"* (Shukla & Simmhan, ICDCS 2018),
//! reproduced in Rust: three strategies for migrating a running streaming
//! dataflow between VM sets **without losing in-flight messages or task
//! state**, and with minimal turnaround:
//!
//! * [`Dsm`] — *Default Storm Migration* (baseline, §2): immediate kill +
//!   ack-replay + periodic-checkpoint restore. Reliable but slow: restore
//!   grows in ~30 s jumps with DAG size and lost events storm back later.
//! * [`Dcr`] — *Drain-Checkpoint-Restore* (§3.1): pause, drain via a
//!   sequential PREPARE rearguard, JIT checkpoint, rebalance, restore.
//! * [`Ccr`] — *Capture-Checkpoint-Resume* (§3.2): pause, capture in-flight
//!   events in place via a broadcast PREPARE, persist state + pending
//!   lists, rebalance, resume captured events where they were.
//! * [`CcrPipelined`] — CCR with every wave (including PREPARE) fanned out
//!   per store shard and the window derived from the shard count — a
//!   hybrid expressible only on the plan IR.
//! * [`DcrParallelInit`] — DCR with only the post-rebalance INIT fanned
//!   out per store shard: the full sequential drain guarantee, a restore
//!   that costs ~one store epoch per shard window.
//! * [`CcrKeyRange`] — CCR narrowed to the hottest key ranges of a skewed
//!   key space: only the hot-range owners migrate, only the hot ranges'
//!   bytes move, and cold instances process straight through.
//!
//! Strategies are **data**: each one is a small builder returning a
//! declarative [`MigrationPlan`] (see [`plan`] for the IR and a worked
//! write-your-own example), validated by [`PlanValidator`] and interpreted
//! by the generic [`PlanCoordinator`]. All implement [`MigrationStrategy`];
//! [`MigrationController`] runs the paper's full experiment protocol in
//! one call, and [`strategies`] is the single registry the CLI, sweeps and
//! benches enumerate.
//!
//! # Examples
//!
//! Compare CCR against the DSM baseline on the Grid dataflow:
//!
//! ```
//! use flowmig_cluster::ScaleDirection;
//! use flowmig_core::{Ccr, Dsm, MigrationController};
//! use flowmig_sim::SimTime;
//! use flowmig_topology::library;
//!
//! let controller = MigrationController::new()
//!     .with_request_at(SimTime::from_secs(60))
//!     .with_horizon(SimTime::from_secs(360));
//! let dag = library::star();
//!
//! let ccr = controller.run(&dag, &Ccr::new(), ScaleDirection::In)?;
//! assert_eq!(ccr.stats.events_dropped, 0); // reliable…
//! assert!(ccr.completed);                  // …and done before the horizon
//! # Ok::<(), flowmig_cluster::ScheduleError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ccr;
mod ccr_key_range;
mod ccr_pipelined;
mod controller;
mod dcr;
mod dcr_parallel_init;
mod dsm;
mod interp;
pub mod plan;
mod strategy;

pub use ccr::Ccr;
pub use ccr_key_range::CcrKeyRange;
pub use ccr_pipelined::CcrPipelined;
pub use controller::{MigrationController, MigrationOutcome};
pub use dcr::Dcr;
pub use dcr_parallel_init::DcrParallelInit;
pub use dsm::Dsm;
pub use interp::PlanCoordinator;
pub use plan::{
    Barrier, MigrationPlan, PausePolicy, PeriodicCheckpoint, PlanError, PlanPhase, PlanValidator,
    ValidPlan, WaveKind,
};
pub use strategy::{
    default_strategy, strategies, strategy_named, MigrationStrategy, StrategyInfo, StrategyKind,
};
