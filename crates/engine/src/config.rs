//! Engine timing model and calibration constants.
//!
//! Defaults are calibrated so the simulated Storm cluster reproduces the
//! *shape* of the paper's measurements (see the `drain_time`,
//! `rebalance_duration` and `micro_redis_checkpoint` entries in
//! `EXPERIMENTS.md`): 100 ms dummy tasks, 30 s ack timeout, ~7.26 s
//! rebalance command, multi-second worker JVM spawn delays, and a Redis
//! round-trip that checkpoints 2 000 events in ~100 ms.
//!
//! Store pricing has two layers. [`StoreLatencyModel`] is the *service
//! time* of one persist/fetch (`base + per_event × pending`, the paper's
//! micro-benchmark calibration). [`StoreServiceModel`] decides what
//! concurrent load does to that service time: the zero-queueing
//! compatibility mode ([`StoreServiceModel::Unqueued`]) prices every
//! operation independently — the historical behaviour, under which an
//! arbitrarily wide parallel wave is free — while
//! [`StoreServiceModel::FifoPerShard`] runs each store shard as a FIFO
//! single-server queue, so operations admitted against a busy shard wait
//! for the shard's `busy_until` horizon first. Queueing is what makes the
//! derived per-shard wave window
//! ([`EngineConfig::derived_fan_out`]) an actual fairness bound rather
//! than bookkeeping: over-wide windows now queue, and shard-count sweeps
//! produce contention curves instead of flat lines.
//!
//! These constants price *when* things happen. The flat routing state
//! that decides *where* each event goes — and why none of it is looked
//! up per event — is the crate-level "Dispatch model" section
//! ([`crate`]).

use flowmig_metrics::TraceLevel;
use flowmig_sim::{QueueBackend, SimDuration, SimExecutor, SimRng};
use serde::{Deserialize, Serialize};

/// Latency model of the checkpoint state store (the paper's Redis v3.2.8 on
/// a dedicated D3 VM).
///
/// Persist/fetch cost is `base + per_event × pending_events`. The paper's
/// micro-benchmark ("it takes just 100 ms to checkpoint 2000 events to
/// Redis from Storm") fixes `per_event` ≈ 0.05 ms.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StoreLatencyModel {
    /// Fixed round-trip cost per operation.
    pub base: SimDuration,
    /// Incremental cost per captured pending event in the blob.
    pub per_event: SimDuration,
}

impl StoreLatencyModel {
    /// Cost of persisting or fetching a blob carrying `pending_events`
    /// captured events.
    pub fn op_cost(&self, pending_events: usize) -> SimDuration {
        self.base + SimDuration::from_micros(self.per_event.as_micros() * pending_events as u64)
    }
}

impl Default for StoreLatencyModel {
    fn default() -> Self {
        StoreLatencyModel {
            base: SimDuration::from_micros(500),
            per_event: SimDuration::from_micros(50),
        }
    }
}

/// How the checkpoint store serves *concurrent* operations against one
/// shard — the load model layered on top of [`StoreLatencyModel`]'s
/// per-operation service time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StoreServiceModel {
    /// Zero-queueing compatibility mode: every operation completes after
    /// exactly its service time, no matter how many others are in flight
    /// on the same shard. This is the historical engine behaviour (and
    /// the default) — byte-identical timelines to the pre-queueing cost
    /// model — but it is optimistic: a single shard serving 192
    /// simultaneous persists is priced the same as 8 shards serving 24
    /// each.
    #[default]
    Unqueued,
    /// Per-shard FIFO single-server queue: each shard tracks a
    /// `busy_until` horizon, an operation admitted at `now` starts at
    /// `max(now, busy_until)` and completes one service time later, and
    /// the shard's horizon advances to that completion. Operations on a
    /// saturated shard therefore wait in line — the state-store
    /// contention that Elasticutor and the elasticity surveys identify
    /// as the dominant cost of live migration at scale.
    FifoPerShard,
}

/// Replication of the checkpoint store: each shard is backed by `replicas`
/// copies and a persist returns once `write_quorum` of them have applied
/// it (the k-th fastest replica completion prices the operation).
///
/// Replica `0` is the shard's primary; replica `i` is priced `25 % × i`
/// slower per operation ([`Self::replica_service`]) — the deterministic
/// stand-in for a geo-spread or load-skewed replica set. Fetches are
/// served by the fastest live replica. The default (1 replica, quorum 1)
/// is the historical unreplicated store and prices identically to it.
///
/// # Examples
///
/// ```
/// use flowmig_engine::StoreReplication;
/// use flowmig_sim::SimDuration;
///
/// let r = StoreReplication::new(3, 2);
/// assert!(r.is_replicated());
/// // Quorum 2 of 3 completes with the 2nd replica: +25 % over the base.
/// let service = SimDuration::from_micros(1_000);
/// assert_eq!(r.replica_service(service, 1), SimDuration::from_micros(1_250));
/// assert_eq!(StoreReplication::default(), StoreReplication::new(1, 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StoreReplication {
    /// Copies of each shard (≥ 1). `1` is the unreplicated historical
    /// store.
    pub replicas: usize,
    /// Replica completions a persist waits for (1 ≤ quorum ≤ replicas).
    pub write_quorum: usize,
}

impl Default for StoreReplication {
    fn default() -> Self {
        StoreReplication { replicas: 1, write_quorum: 1 }
    }
}

impl StoreReplication {
    /// A replication scheme with `replicas` copies and a `write_quorum`.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero or `write_quorum` is not in
    /// `1..=replicas`.
    pub fn new(replicas: usize, write_quorum: usize) -> Self {
        assert!(replicas >= 1, "a replicated store needs at least one replica");
        assert!(
            (1..=replicas).contains(&write_quorum),
            "write quorum must be between 1 and the replica count"
        );
        StoreReplication { replicas, write_quorum }
    }

    /// Whether persists actually fan out (more than one replica).
    pub fn is_replicated(&self) -> bool {
        self.replicas > 1
    }

    /// Service time of replica `index` for a base `service`: the primary
    /// (index 0) serves at the base rate, each further replica 25 % slower
    /// per index — a deterministic replica-lag ladder, so quorum pricing
    /// is reproducible without extra RNG draws.
    pub fn replica_service(&self, service: SimDuration, index: usize) -> SimDuration {
        SimDuration::from_micros(service.as_micros() + service.as_micros() * index as u64 / 4)
    }
}

/// All timing and behavioural constants of the simulated DSPS cluster.
///
/// # Examples
///
/// ```
/// use flowmig_engine::EngineConfig;
/// use flowmig_sim::SimDuration;
///
/// let cfg = EngineConfig::default();
/// assert_eq!(cfg.ack_timeout, SimDuration::from_secs(30));
/// assert_eq!(cfg.checkpoint_interval, SimDuration::from_secs(30));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Acker timeout after which an incomplete tuple tree is failed and its
    /// root replayed (Storm default: 30 s).
    pub ack_timeout: SimDuration,
    /// How often the acker scans for expired trees. Storm's TimeCacheMap
    /// expires tuples in rotating buckets of ~timeout/2, so failures come
    /// in synchronized cohorts — the source of DSM's 30 s-spaced replay
    /// bursts in Fig. 7a.
    pub acker_scan_interval: SimDuration,
    /// Periodic checkpoint interval for DSM (Storm default: 30 s).
    pub checkpoint_interval: SimDuration,
    /// Base duration of Storm's `rebalance` command (paper: 7.26 s average,
    /// "relatively constant across dataflows, VM counts and strategies").
    pub rebalance_base: SimDuration,
    /// Relative jitter applied to `rebalance_base` (uniform ±fraction).
    pub rebalance_jitter: f64,
    /// Earliest a killed worker becomes ready after the rebalance completes
    /// (supervisor respawn + JVM start + executor registration).
    pub worker_ready_min: SimDuration,
    /// Latest a killed worker becomes ready after the rebalance completes.
    pub worker_ready_max: SimDuration,
    /// Platform-level handling cost of one control event.
    pub control_latency: SimDuration,
    /// Network latency between instances on the same VM.
    pub net_latency_local: SimDuration,
    /// Network latency between instances on different VMs.
    pub net_latency_remote: SimDuration,
    /// State-store (Redis) latency model: the service time of one
    /// persist/fetch operation.
    pub store: StoreLatencyModel,
    /// What concurrent load does to store operations: the zero-queueing
    /// compatibility default, or per-shard FIFO service queues
    /// ([`StoreServiceModel::FifoPerShard`]) under which a saturated
    /// shard makes later operations wait.
    pub store_service: StoreServiceModel,
    /// Number of shards the checkpoint store is partitioned into (instances
    /// hash to shards by index; per-shard counters price COMMIT waves).
    /// Must be at least 1.
    pub store_shards: usize,
    /// Replication of each store shard: a persist is a quorum write over
    /// `replicas` copies and is priced as the k-th fastest replica
    /// completion. The default (1 replica, quorum 1) is the historical
    /// unreplicated store with byte-identical timelines.
    pub store_replication: StoreReplication,
    /// Maximum unacked roots outstanding at the source before new emissions
    /// are throttled (Storm's `max.spout.pending`; only with acking).
    pub max_spout_pending: usize,
    /// Pacing of source backlog drain after an unpause (one event per tick;
    /// 10 ms ⇒ up to 100 ev/s burst, the input-rate spike of Fig. 7b/c).
    pub source_drain_interval: SimDuration,
    /// Maximum events the benchmark generator buffers while the source is
    /// paused or throttled; past this the generator itself stalls (the
    /// paper's driver thread sleeps while paused).
    pub max_source_backlog: usize,
    /// Outgoing-transport buffer per connecting (Starting) worker: data
    /// events beyond this are dropped, as with a Netty client whose
    /// reconnect queue overflows.
    pub transport_buffer: usize,
    /// Relative jitter on operator service time (uniform ±fraction),
    /// giving realistic non-lockstep queue depths.
    pub task_latency_jitter: f64,
    /// Relative jitter on the source emission interval (uniform ±fraction,
    /// mean preserved): the generator thread's scheduling noise, which is
    /// what puts 1–2 events in flight per queue at any instant.
    pub source_interval_jitter: f64,
    /// Event budget per simulation run (guards against event storms).
    pub event_budget: u64,
    /// Which future-event-list backend the simulation runs on. Backends
    /// are provably order-identical (see the `flowmig_sim::queue` module
    /// docs), so this is purely a performance knob: `Calendar` pays off on
    /// large scenarios, `Heap` (the default) is the untunable baseline.
    ///
    /// The default honors the `FLOWMIG_QUEUE_BACKEND` environment variable
    /// (`heap` | `calendar`), which is how CI runs the whole test suite
    /// under the calendar backend without touching any call site.
    pub queue_backend: QueueBackend,
    /// The simulation executor. It has one value,
    /// [`SimExecutor::SingleThread`], and selects nothing: the field stays
    /// because run records print it (the `perfbench` record line reads
    /// `sim_executor=single-thread`).
    pub sim_workers: SimExecutor,
    /// Which events the engine's trace keeps. The default,
    /// [`TraceLevel::Metrics`], keeps every event the metrics and timelines
    /// read; [`TraceLevel::Full`] adds ten kinds: the per-root acker
    /// outcomes, the per-instance lifecycle, and the drops and store
    /// events (queue waits, quorum persists, failed operations) that
    /// [`EngineStats`](crate::EngineStats) counts. Only recording changes:
    /// no engine or coordinator decision reads the trace, so stats, metrics
    /// and the kept events are the same at either level. See the
    /// crate-level "Trace levels" section.
    pub trace: TraceLevel,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            ack_timeout: SimDuration::from_secs(30),
            acker_scan_interval: SimDuration::from_secs(15),
            checkpoint_interval: SimDuration::from_secs(30),
            rebalance_base: SimDuration::from_millis(7_260),
            rebalance_jitter: 0.08,
            worker_ready_min: SimDuration::from_secs(5),
            worker_ready_max: SimDuration::from_secs(35),
            control_latency: SimDuration::from_millis(1),
            net_latency_local: SimDuration::from_micros(200),
            net_latency_remote: SimDuration::from_micros(1_500),
            store: StoreLatencyModel::default(),
            store_service: StoreServiceModel::default(),
            store_shards: crate::store::ShardedStateStore::DEFAULT_SHARDS,
            store_replication: StoreReplication::default(),
            max_spout_pending: 60,
            source_drain_interval: SimDuration::from_millis(10),
            max_source_backlog: 100,
            transport_buffer: 10,
            task_latency_jitter: 0.2,
            source_interval_jitter: 0.35,
            event_budget: 100_000_000,
            queue_backend: queue_backend_from_env(),
            sim_workers: SimExecutor::SingleThread,
            trace: TraceLevel::default(),
        }
    }
}

/// Default queue backend: `FLOWMIG_QUEUE_BACKEND` if set (a typo panics
/// loudly rather than silently running the wrong backend in a CI matrix
/// leg), otherwise [`QueueBackend::Heap`].
fn queue_backend_from_env() -> QueueBackend {
    match std::env::var("FLOWMIG_QUEUE_BACKEND") {
        Ok(value) => {
            value.parse().unwrap_or_else(|err| panic!("invalid FLOWMIG_QUEUE_BACKEND: {err}"))
        }
        Err(_) => QueueBackend::Heap,
    }
}

impl EngineConfig {
    /// The per-shard window a `Parallel { fan_out: 0 }` wave gets: each
    /// shard's fair share of the wave, `ceil(participants / store_shards)`,
    /// never below 1. A shard then pipelines exactly the instances hashed
    /// to it, so the wave needs ~one store service epoch per window slot
    /// and no fixed engine constant has to guess the deployment's shape.
    pub fn derived_fan_out(&self, participants: usize) -> usize {
        participants.div_ceil(self.store_shards.max(1)).max(1)
    }

    /// Draws a jittered rebalance-command duration.
    pub fn rebalance_duration(&self, rng: &mut SimRng) -> SimDuration {
        rng.jittered(self.rebalance_base, self.rebalance_jitter)
    }

    /// Draws a worker ready delay (uniform in `[min, max]`).
    pub fn worker_ready_delay(&self, rng: &mut SimRng) -> SimDuration {
        rng.duration_between(self.worker_ready_min, self.worker_ready_max)
    }

    /// Network latency between two VMs (`None` VM means co-located
    /// conceptual services like the checkpoint source on the pinned VM).
    pub fn net_latency(&self, same_vm: bool) -> SimDuration {
        if same_vm {
            self.net_latency_local
        } else {
            self.net_latency_remote
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_cost_matches_paper_micro_benchmark() {
        // 2000 events ≈ 100 ms (paper §5.1).
        let store = StoreLatencyModel::default();
        let cost = store.op_cost(2_000);
        let ms = cost.as_millis_f64();
        assert!((ms - 100.5).abs() < 1.0, "2000-event checkpoint ≈ 100 ms, got {ms} ms");
    }

    #[test]
    fn empty_blob_costs_base_only() {
        let store = StoreLatencyModel::default();
        assert_eq!(store.op_cost(0), store.base);
    }

    #[test]
    fn service_model_defaults_to_zero_queueing_compatibility() {
        // The compatibility mode is what keeps the pinned default
        // determinism traces byte-identical to the pre-queueing engine.
        assert_eq!(EngineConfig::default().store_service, StoreServiceModel::Unqueued);
    }

    #[test]
    fn replication_defaults_to_the_unreplicated_store() {
        let r = EngineConfig::default().store_replication;
        assert_eq!(r, StoreReplication::default());
        assert!(!r.is_replicated());
        // The primary's service time is the base service time, so the
        // default replication prices identically to the historical store.
        let service = SimDuration::from_micros(777);
        assert_eq!(r.replica_service(service, 0), service);
    }

    #[test]
    fn replica_lag_ladder_is_25_percent_per_index() {
        let r = StoreReplication::new(4, 3);
        let service = SimDuration::from_micros(1_000);
        assert_eq!(r.replica_service(service, 0), SimDuration::from_micros(1_000));
        assert_eq!(r.replica_service(service, 1), SimDuration::from_micros(1_250));
        assert_eq!(r.replica_service(service, 2), SimDuration::from_micros(1_500));
        assert_eq!(r.replica_service(service, 3), SimDuration::from_micros(1_750));
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_is_rejected() {
        let _ = StoreReplication::new(0, 0);
    }

    #[test]
    #[should_panic(expected = "between 1 and the replica count")]
    fn quorum_beyond_replicas_is_rejected() {
        let _ = StoreReplication::new(3, 4);
    }

    #[test]
    #[should_panic(expected = "between 1 and the replica count")]
    fn zero_quorum_is_rejected() {
        let _ = StoreReplication::new(3, 0);
    }

    #[test]
    fn rebalance_jitter_brackets_7_26s() {
        let cfg = EngineConfig::default();
        let mut rng = SimRng::seed_from(1);
        for _ in 0..100 {
            let d = cfg.rebalance_duration(&mut rng).as_secs_f64();
            assert!((6.6..=7.9).contains(&d), "{d}");
        }
    }

    #[test]
    fn worker_ready_within_bounds() {
        let cfg = EngineConfig::default();
        let mut rng = SimRng::seed_from(2);
        for _ in 0..100 {
            let d = cfg.worker_ready_delay(&mut rng);
            assert!(d >= cfg.worker_ready_min && d <= cfg.worker_ready_max);
        }
    }

    #[test]
    fn net_latency_prefers_local() {
        let cfg = EngineConfig::default();
        assert!(cfg.net_latency(true) < cfg.net_latency(false));
    }

    #[test]
    fn derived_fan_out_is_fair_share_of_shards() {
        let cfg = EngineConfig { store_shards: 8, ..EngineConfig::default() };
        assert_eq!(cfg.derived_fan_out(96), 12, "96 instances / 8 shards");
        assert_eq!(cfg.derived_fan_out(97), 13, "ceil, not floor");
        assert_eq!(cfg.derived_fan_out(8), 1);
        assert_eq!(cfg.derived_fan_out(3), 1, "fewer instances than shards");
    }

    #[test]
    fn derived_fan_out_never_zero() {
        let cfg = EngineConfig { store_shards: 4, ..EngineConfig::default() };
        assert_eq!(cfg.derived_fan_out(0), 1, "an empty wave still gets a window");
        let one = EngineConfig { store_shards: 1, ..EngineConfig::default() };
        assert_eq!(one.derived_fan_out(48), 48, "one shard serves the whole wave");
    }

    #[test]
    fn derived_fan_out_shrinks_as_shards_grow() {
        let few = EngineConfig { store_shards: 2, ..EngineConfig::default() };
        let many = EngineConfig { store_shards: 16, ..EngineConfig::default() };
        assert!(many.derived_fan_out(64) < few.derived_fan_out(64));
    }
}
