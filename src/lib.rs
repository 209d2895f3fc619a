//! # flowmig
//!
//! A Rust reproduction of *"Toward Reliable and Rapid Elasticity for
//! Streaming Dataflows on Clouds"* (Anshu Shukla & Yogesh Simmhan,
//! ICDCS 2018, arXiv:1712.00605): reliable, rapid migration of running
//! streaming dataflows between Cloud VM sets, with no loss of in-flight
//! messages or task state.
//!
//! The paper contributes two migration strategies — **DCR**
//! (Drain-Checkpoint-Restore) and **CCR** (Capture-Checkpoint-Resume) —
//! and compares them with stock Storm's **DSM** baseline on five dataflows
//! over 2–21 Azure VMs. This workspace rebuilds the entire system on a
//! deterministic virtual-time simulation of a Storm-like DSPS:
//!
//! | crate | role |
//! |---|---|
//! | [`sim`] | discrete-event kernel: virtual time, event queue, seeded RNG |
//! | [`topology`] | dataflow DAGs, rate propagation, the paper's DAG library |
//! | [`cluster`] | VMs/slots, schedulers, Table 1 scale-in/out plans |
//! | [`metrics`] | trace log, §4 metrics, throughput/latency timelines |
//! | [`engine`] | Storm-like engine: queues, XOR acker, checkpoint waves, state store, rebalance |
//! | [`core`] | **the contribution**: DSM/DCR/CCR strategies + controller |
//! | [`workloads`] | §5 experiment harness, sweeps, report tables |
//!
//! # Quickstart
//!
//! Migrate the Grid dataflow from 11×D2 to 6×D3 VMs with CCR:
//!
//! ```
//! use flowmig::prelude::*;
//!
//! let outcome = MigrationController::new()
//!     .with_request_at(SimTime::from_secs(60))
//!     .with_horizon(SimTime::from_secs(360))
//!     .run(&library::grid(), &Ccr::new(), ScaleDirection::In)?;
//!
//! assert!(outcome.completed);
//! assert_eq!(outcome.stats.events_dropped, 0);   // nothing lost
//! assert_eq!(outcome.stats.replayed_roots, 0);   // nothing replayed
//! println!("restored in {:?}", outcome.metrics.restore);
//! # Ok::<(), flowmig::cluster::ScheduleError>(())
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! harness regenerating every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use flowmig_cluster as cluster;
pub use flowmig_core as core;
pub use flowmig_engine as engine;
pub use flowmig_metrics as metrics;
pub use flowmig_sim as sim;
pub use flowmig_topology as topology;
pub use flowmig_workloads as workloads;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use flowmig_cluster::{
        Assignment, InstanceScheduler, PackingScheduler, RoundRobinScheduler, ScaleDirection,
        ScalePlan, VmPool, VmRole, VmSize,
    };
    pub use flowmig_core::{
        Ccr, CcrKeyRange, Dcr, Dsm, MigrationController, MigrationOutcome, MigrationStrategy,
        StrategyKind,
    };
    pub use flowmig_engine::{
        Engine, EngineConfig, EngineStats, ProtocolConfig, StoreReplication, StoreServiceModel,
        WorkerStatus,
    };
    pub use flowmig_metrics::{
        find_stabilization, latency_samples_ms, percentile, LatencyTimeline, MigrationMetrics,
        MigrationPhase, RateTimeline, StabilityCriteria, Summary, TraceEvent, TraceLevel, TraceLog,
    };
    pub use flowmig_sim::{QueueBackend, SimDuration, SimTime};
    pub use flowmig_topology::{
        library, Dataflow, DataflowBuilder, InstanceSet, RatePlan, TaskId, TaskKind, TaskSpec,
    };
    pub use flowmig_workloads::{Experiment, ExperimentReport, TextTable};
}
