//! # flowmig-metrics
//!
//! Observability and analysis for the `flowmig` reproduction of *"Toward
//! Reliable and Rapid Elasticity for Streaming Dataflows on Clouds"*
//! (Shukla & Simmhan, ICDCS 2018).
//!
//! The engine appends [`TraceEvent`]s to a [`TraceLog`] as a run executes,
//! keeping those its [`TraceLevel`] keeps; the paper's spans and timelines
//! are then pure functions of the log, and the default level keeps every
//! event they read:
//!
//! * [`MigrationMetrics`] — the six §4 spans (restore, drain/capture,
//!   rebalance, catchup, recovery, stabilization); §4's loss and replay
//!   counts are the engine's run counters, not the trace's;
//! * [`RateTimeline`] — the input/output throughput series of Fig. 7;
//! * [`LatencyTimeline`] — the windowed latency series of Fig. 9;
//! * [`find_stabilization`] — the 20 %-band / 60 s-window stability rule;
//! * [`Summary`] — cross-seed aggregation for the benchmark tables.
//!
//! This crate deliberately has no dependency on the engine, so every
//! analyzer is testable against hand-built traces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod migration;
mod stability;
mod stats;
mod timeline;
mod trace;

pub use migration::MigrationMetrics;
pub use stability::{find_stabilization, StabilityCriteria};
pub use stats::{median, percentile, Summary};
pub use timeline::{latency_samples_ms, LatencyTimeline, RateTimeline};
pub use trace::{ControlKind, MigrationPhase, RootId, TraceEvent, TraceLevel, TraceLog};
