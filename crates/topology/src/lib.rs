//! # flowmig-topology
//!
//! Streaming dataflow model for the `flowmig` reproduction of *"Toward
//! Reliable and Rapid Elasticity for Streaming Dataflows on Clouds"*
//! (Shukla & Simmhan, ICDCS 2018).
//!
//! A streaming application is a DAG of tasks: one or more [`TaskKind::Source`]s
//! emitting events at a fixed rate, user-logic [`TaskKind::Operator`]s with a
//! service time, and [`TaskKind::Sink`]s. Every task is the paper's 1:1
//! dummy: each input event yields one output event per out-edge. This crate
//! provides:
//!
//! * [`Dataflow`] / [`DataflowBuilder`] — validated DAG construction;
//! * [`RatePlan`] — steady-state rate propagation (input/output ev/s per task);
//! * [`InstanceSet`] — data-parallel expansion (one instance per 8 ev/s,
//!   the paper's provisioning rule);
//! * [`library`] — the five dataflows of the paper's evaluation (Fig. 4,
//!   Table 1) plus the `linear_n` scaling family;
//! * [`EdgeTable`] / [`KeyPartitioner`] — flat routing tables (dense
//!   per-edge target arrays, precomputed key-partition thresholds) for
//!   engines that resolve per-event lookups once per configuration.
//!
//! # Examples
//!
//! ```
//! use flowmig_topology::{library, InstanceSet, RatePlan};
//!
//! let dag = library::traffic();
//! let rates = RatePlan::for_dataflow(&dag);
//! assert_eq!(rates.expected_sink_rate_hz(&dag), 32.0);
//!
//! let instances = InstanceSet::plan(&dag);
//! assert_eq!(instances.user_instance_count(&dag), 13); // Table 1
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod graph;
pub mod library;
mod rates;
mod tables;
mod task;

pub use builder::DataflowBuilder;
pub use graph::{Dataflow, ValidateDataflowError};
pub use rates::{InstanceId, InstanceSet, RatePlan, EVENTS_PER_INSTANCE_HZ};
pub use tables::{EdgeTable, EdgeTargets, KeyPartitioner};
pub use task::{KeyRange, TaskId, TaskKind, TaskSpec};
