//! # flowmig-cluster
//!
//! Cloud resource model for the `flowmig` reproduction of *"Toward Reliable
//! and Rapid Elasticity for Streaming Dataflows on Clouds"* (Shukla &
//! Simmhan, ICDCS 2018): VMs divided into 1-core slots, instance→slot
//! assignments, scheduling policies, and the Table 1 scale-in/scale-out
//! migration plans.
//!
//! # Examples
//!
//! ```
//! use flowmig_cluster::{ScaleDirection, ScalePlan};
//! use flowmig_topology::{library, InstanceSet};
//!
//! let dag = library::traffic();
//! let instances = InstanceSet::plan(&dag);
//! let plan = ScalePlan::paper_scenario(&dag, &instances, ScaleDirection::Out)?;
//! assert_eq!(plan.initial_vm_count(), 7);  // 7 × D2
//! assert_eq!(plan.target_vm_count(), 13);  // 13 × D1
//! # Ok::<(), flowmig_cluster::ScheduleError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assignment;
mod plan;
mod scheduler;
mod vm;

pub use assignment::Assignment;
pub use plan::{ScaleDirection, ScalePlan};
pub use scheduler::{InstanceScheduler, PackingScheduler, RoundRobinScheduler, ScheduleError};
pub use vm::{SlotId, VmId, VmPool, VmRole, VmSize};
