//! # flowmig-workloads
//!
//! Experiment harness reproducing the evaluation protocol of *"Toward
//! Reliable and Rapid Elasticity for Streaming Dataflows on Clouds"*
//! (Shukla & Simmhan, ICDCS 2018), §5: each run deploys one of the Table 1
//! dataflows, runs 12 minutes of virtual time, issues the migration request
//! at 3 minutes, and evaluates the §4 metrics — across multiple seeds.
//!
//! * [`Experiment`] / [`ExperimentReport`] — one dataflow × direction ×
//!   strategy cell, aggregated over seeds;
//! * [`strategy_matrix`] — the full Fig. 5/6/8 grid;
//! * [`drain_time_sweep`] — the §5.1 drain-time analysis (incl. linear-50);
//! * [`TextTable`] — the plain-text tables printed by the bench harness.
//!
//! # Examples
//!
//! ```
//! use flowmig_cluster::ScaleDirection;
//! use flowmig_core::{Dcr, MigrationController};
//! use flowmig_sim::SimTime;
//! use flowmig_topology::library;
//! use flowmig_workloads::Experiment;
//!
//! let quick = MigrationController::new()
//!     .with_request_at(SimTime::from_secs(60))
//!     .with_horizon(SimTime::from_secs(300));
//! let report = Experiment::paper(library::diamond(), ScaleDirection::Out)
//!     .with_seeds(&[42])
//!     .with_controller(quick)
//!     .run(&Dcr::new())?;
//! assert!(report.completed_all);
//! # Ok::<(), flowmig_cluster::ScheduleError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod experiment;
mod export;
mod sweep;
mod table;

pub use experiment::{Experiment, ExperimentReport};
pub use export::{latency_csv, throughput_csv};
pub use sweep::{drain_time_sweep, strategy_matrix, strategy_of, DrainRow};
pub use table::{secs_cell, TextTable};
