//! # flowmig-engine
//!
//! A deterministic, virtual-time simulation of a Storm-like Distributed
//! Stream Processing System (DSPS) — the substrate for the `flowmig`
//! reproduction of *"Toward Reliable and Rapid Elasticity for Streaming
//! Dataflows on Clouds"* (Shukla & Simmhan, ICDCS 2018).
//!
//! Faithfully modelled mechanisms:
//!
//! * **task instances** with single-threaded FIFO input queues shared by
//!   data and control events;
//! * **shuffle routing** between data-parallel instances, with per-VM
//!   network latencies;
//! * the **acker service** ([`Acker`]): XOR ledgers over causal tuple
//!   trees, a bucketed expiry wheel (O(expired) timeout ticks), FIFO
//!   replay ordering, and per-spout `max.spout.pending` throttling;
//! * **checkpoint waves** (PREPARE/COMMIT/ROLLBACK/INIT) with sequential
//!   (barrier-aligned, edge-wired) or broadcast (hub-and-spoke) routing;
//! * **capture semantics** for CCR (pending-event lists persisted and
//!   resumed);
//! * a latency-modelled, sharded **state store** ([`ShardedStateStore`] —
//!   the paper's Redis, partitioned for per-shard COMMIT-wave accounting)
//!   whose checkpoints are `(instance, key range)` blobs, kept in a dense
//!   slot per instance: one persist path and one restore path move a whole
//!   instance (its single [`flowmig_topology::KeyRange::whole`] range) or
//!   a key-range scope's hot ranges. The store owns its service model
//!   ([`StoreServiceModel`]): zero-queueing compatibility pricing, or
//!   per-shard FIFO queues under which a saturated shard makes
//!   concurrent operations wait — plus opt-in per-shard replication
//!   ([`StoreReplication`]) with quorum-priced persists and shard-failure
//!   injection ([`Engine::schedule_shard_outage`]);
//! * **rebalance** (kill + respawn with worker start-up delays) and failure
//!   injection.
//!
//! Strategies drive the engine through the [`MigrationCoordinator`] trait
//! and its [`EngineCtl`] handle — the mechanisms live here, the policy in
//! `flowmig-core`.
//!
//! # Dispatch model
//!
//! The hot event paths dispatch through **flat tables**, not through the
//! dataflow graph. At engine construction the model builds a
//! `DispatchTables` bundle (crate-private, in `dispatch`):
//!
//! * a dense `InstanceMeta` array — task id, kind, service latency,
//!   keyed-ness, store shard, replica slot — replacing the per-event
//!   `task_of` → `spec` pointer chases;
//! * an [`flowmig_topology::EdgeTable`] — per (task, out-edge): the
//!   downstream task and its replicas as a dense `u32` index array,
//!   replacing per-event `downstream(..).to_vec()` + `of_task(..)`;
//! * per-task [`flowmig_topology::KeyPartitioner`]s — precomputed
//!   cumulative key-weight thresholds, bitwise-identical to
//!   `TaskSpec::partition_of` but O(log partitions) instead of
//!   O(partitions²) per event;
//! * a per-instance VM column replacing per-event `Assignment::vm_of`
//!   lookups in network-delay pricing.
//!
//! **Lifecycle.** Tables are built once in `EngineModel::new` and
//! refreshed at exactly one other point: the end of a rebalance
//! (`on_rebalance_done`), after the assignment flips to the target and
//! staged logic updates are applied, before the coordinator is notified —
//! the only events that change routing inputs. A plain flip changes only
//! where instances run, so the refresh re-reads just the per-instance VM
//! column from the target assignment; only when staged logic updates
//! changed the dataflow are all tables rebuilt from it. The
//! [`EngineStats`] field `dispatch_rebuilds` counts the construction build
//! plus one refresh per rebalance, whichever path it took; debug builds
//! assert table/graph agreement after both paths.
//!
//! Per-kind wave bookkeeping (`next_wave`, trackers, routing, scopes) is
//! stored in [`flowmig_metrics::ControlKind`]-indexed arrays
//! (`ControlKind::index`). Every per-instance set — wave participants,
//! scope members, per-wave acks and the rebalance scope — is an
//! instance-indexed bitset with a member count, so membership checks
//! (including the per-delivery "is this instance mid-respawn?" test) are
//! O(1) and waves visit their targets in index order without a sort.
//!
//! **Instance state.** Each instance's runtime is a hot core that the
//! data path and every wave touch: worker status, the input queue, the
//! work in service, the capture flag and captured events, and the user
//! state. What only sequential waves, killed instances awaiting their
//! INIT, key-range captures and PREPARE snapshots touch — the
//! barrier-alignment sets, the forwarded-wave dedup (which a kill keeps,
//! so resends span a respawn), the pre-INIT buffer, the PREPARE snapshot
//! and the key-range capture filter — sits in one cold part, boxed on
//! first use. The round-robin shuffle cursors of all instances share one
//! flat engine-owned array, each instance's starting at its
//! `InstanceMeta` base offset, so deploying a dataflow makes no
//! allocation per instance; a compile-time assertion keeps the core
//! within 160 bytes.
//!
//! # Trace levels
//!
//! [`EngineConfig::trace`] sets which events the run's
//! [`flowmig_metrics::TraceLog`] keeps. The default,
//! [`TraceLevel::Metrics`](flowmig_metrics::TraceLevel::Metrics), keeps
//! every event that `MigrationMetrics`, the throughput and latency
//! timelines and the CLI's CSV exports read: source emissions, sink
//! arrivals, migration and phase marks, control waves, shard outages and
//! key-range moves. It leaves out ten kinds that no metric reads: the
//! acker's per-root `RootAcked` and `RootFailed`; the per-instance
//! `ControlAcked`, `InstanceKilled`, `WorkerReady` and `InstanceRestored`;
//! and `EventDropped`, `StoreQueueWait`, `QuorumPersist` and
//! `StoreOpFailed`, which [`EngineStats`] counts (`events_dropped`,
//! `store_wait_us`, `store_quorum_persists` and `store_degraded_persists`,
//! `store_ops_failed`). The per-root and per-instance kinds are most of a
//! large migration's trace: perfbench's
//! 10,000-instance CCR-P run (`scale-10k`) records about 1,100 events at
//! the default level and 60,000 at
//! [`TraceLevel::Full`](flowmig_metrics::TraceLevel::Full), which keeps
//! every event. The level changes only what is recorded — no engine or
//! coordinator decision reads the trace — so stats, metrics and the kept
//! events are identical at both levels, and a Metrics trace is the Full
//! trace without the ten kinds. The determinism pins hash Full traces. To
//! read the left-out kinds, opt in with
//! `EngineConfig { trace: TraceLevel::Full, ..EngineConfig::default() }`.
//!
//! **Hashing policy.** Bookkeeping keyed by dense instance indices lives
//! in `Vec`s or bitsets, not hash maps — the state store's blobs included,
//! in one slot per instance on its shard. The maps that remain are keyed
//! by sparse ids (acker ledgers and the root replay cache, by root id;
//! each instance's alignment sets, by control sender) and use the in-tree
//! [`FxHasher`] — see [`fasthash`] for the rule on when a map may adopt it
//! (no observable iteration-order dependence; the determinism pins are the
//! regression proof).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod acker;
mod config;
mod dispatch;
mod engine;
mod event;
mod instance;
mod protocol;
#[cfg(test)]
mod protocol_tests;
mod stats;
mod store;

pub use acker::{AckOutcome, Acker};
pub use config::{EngineConfig, StoreLatencyModel, StoreReplication, StoreServiceModel};
pub use engine::{Engine, EngineCtl};
pub use event::{ControlEvent, ControlSender, DataEvent, QueueItem};
pub use flowmig_sim::fasthash::{self, FastHashMap, FastHashSet, FxHasher};
pub use instance::WorkerStatus;
pub use protocol::{
    resend, KeyRangeScope, MigrationCoordinator, NoopCoordinator, ProtocolConfig, WaveRouting,
    WaveScope,
};
pub use stats::EngineStats;
pub use store::{AdmitOutcome, ShardStats, ShardedStateStore, StateBlob, StoreOpKind};
