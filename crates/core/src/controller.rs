//! One-call migration enactment: deploy, run, migrate, measure.

use crate::strategy::MigrationStrategy;
use flowmig_cluster::{ScaleDirection, ScalePlan, ScheduleError};
use flowmig_engine::{Engine, EngineConfig, EngineStats, ShardStats};
use flowmig_metrics::{MigrationMetrics, StabilityCriteria, TraceLog};
use flowmig_sim::{RunOutcome, SimDuration, SimTime};
use flowmig_topology::{Dataflow, InstanceSet, RatePlan};

/// Width of the throughput buckets a run's trace is analyzed in.
const BUCKET: SimDuration = SimDuration::from_secs(10);

/// Everything measured from one migration run.
#[derive(Debug, Clone)]
pub struct MigrationOutcome {
    /// Strategy display name (`"DSM"`, `"DCR"`, `"CCR"`).
    pub strategy: &'static str,
    /// The §4 spans computed from the trace.
    pub metrics: MigrationMetrics,
    /// The run's totals: §4's loss and replay counts (`events_dropped`,
    /// `replayed_roots`), Fig. 6's replayed messages and the store
    /// counters.
    pub stats: EngineStats,
    /// Whether the migration reached completion before the horizon.
    pub completed: bool,
    /// Whether the run stopped at [`EngineConfig::event_budget`] before
    /// the horizon. The trace, stats and metrics then cover a truncated
    /// timeline.
    pub budget_exhausted: bool,
    /// The run's trace, for timeline plots and custom analysis. It keeps
    /// the events its [`EngineConfig::trace`] level keeps: by default every
    /// event the metrics read, but not the per-root acker outcomes or the
    /// per-instance lifecycle.
    pub trace: TraceLog,
    /// Final per-shard store counters, in shard order — put/get traffic
    /// plus the queueing observables (`max_queue_depth`, `queued_ops`,
    /// `queued_wait`) the contention benches export.
    pub shard_stats: Vec<ShardStats>,
}

/// Orchestrates the paper's experiment protocol for a single run: deploy
/// the dataflow, run to steady state, issue the migration request, and run
/// to the horizon (§5: 12-minute runs with the migration at 3 minutes).
///
/// # Examples
///
/// ```
/// use flowmig_cluster::ScaleDirection;
/// use flowmig_core::{Ccr, MigrationController};
/// use flowmig_topology::library;
///
/// let outcome = MigrationController::new()
///     .with_seed(7)
///     .run(&library::linear(), &Ccr::new(), ScaleDirection::In)?;
/// assert!(outcome.completed);
/// // CCR loses nothing and replays nothing:
/// assert_eq!(outcome.stats.events_dropped, 0);
/// assert_eq!(outcome.stats.replayed_roots, 0);
/// # Ok::<(), flowmig_cluster::ScheduleError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MigrationController {
    engine_config: EngineConfig,
    request_at: SimTime,
    horizon: SimTime,
    seed: u64,
    /// Scheduled shard outages: `(shard, down_replicas, at, downtime)`,
    /// applied to the engine before the run starts.
    shard_outages: Vec<(usize, usize, SimTime, SimDuration)>,
}

impl Default for MigrationController {
    fn default() -> Self {
        MigrationController {
            engine_config: EngineConfig::default(),
            request_at: SimTime::from_secs(180),
            horizon: SimTime::from_secs(720),
            seed: 42,
            shard_outages: Vec::new(),
        }
    }
}

impl MigrationController {
    /// A controller with the paper's §5 experiment parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the engine configuration: the timing model, the store
    /// (shards, service model, replication) and the trace level.
    pub fn with_engine_config(mut self, config: EngineConfig) -> Self {
        self.engine_config = config;
        self
    }

    /// Schedules a full store-shard outage: every replica of `shard` goes
    /// down at `at` and recovers `downtime` later (see
    /// [`flowmig_engine::Engine::schedule_shard_outage`]). May be called
    /// multiple times for multiple outages. A run panics before it starts
    /// if `shard` is not below the engine config's
    /// [`store_shards`](EngineConfig::store_shards).
    pub fn with_shard_outage(mut self, shard: usize, at: SimTime, downtime: SimDuration) -> Self {
        self.shard_outages.push((shard, usize::MAX, at, downtime));
        self
    }

    /// Schedules a partial shard outage: `down` replicas of `shard` (the
    /// fastest first) go down at `at` and recover `downtime` later. With
    /// replication configured, persists whose quorum fits in the
    /// survivors complete degraded instead of failing. A run panics before
    /// it starts if `shard` is not below the engine config's
    /// [`store_shards`](EngineConfig::store_shards).
    pub fn with_shard_degradation(
        mut self,
        shard: usize,
        down: usize,
        at: SimTime,
        downtime: SimDuration,
    ) -> Self {
        self.shard_outages.push((shard, down, at, downtime));
        self
    }

    /// Overrides when the migration request is issued (paper: 3 min).
    pub fn with_request_at(mut self, at: SimTime) -> Self {
        self.request_at = at;
        self
    }

    /// Overrides the run horizon (paper: 12 min).
    pub fn with_horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = horizon;
        self
    }

    /// Sets the deterministic seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The configured horizon.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Runs one migration of `dag` under `strategy` for the Table 1
    /// scenario in `direction`.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] if the scenario cannot be placed (cannot
    /// happen for the paper's dataflows).
    pub fn run(
        &self,
        dag: &Dataflow,
        strategy: &dyn MigrationStrategy,
        direction: ScaleDirection,
    ) -> Result<MigrationOutcome, ScheduleError> {
        let instances = InstanceSet::plan(dag);
        let plan = ScalePlan::paper_scenario(dag, &instances, direction)?;
        Ok(self.run_with_plan(dag, &instances, &plan, strategy))
    }

    /// Runs one migration over a pre-built plan (custom pools/schedulers).
    pub fn run_with_plan(
        &self,
        dag: &Dataflow,
        instances: &InstanceSet,
        plan: &ScalePlan,
        strategy: &dyn MigrationStrategy,
    ) -> MigrationOutcome {
        let rates = RatePlan::for_dataflow(dag);
        let expected = rates.expected_sink_rate_hz(dag);
        let mut engine = Engine::new(
            dag.clone(),
            instances.clone(),
            plan,
            self.engine_config,
            strategy.protocol(),
            strategy.coordinator(),
            self.seed,
        );
        engine.schedule_migration(self.request_at);
        for &(shard, down, at, downtime) in &self.shard_outages {
            engine.schedule_shard_degradation(shard, down, at, downtime);
        }
        let budget_exhausted = engine.run_until(self.horizon) == RunOutcome::BudgetExhausted;

        let stats = *engine.stats();
        let shard_stats = engine.store().all_shard_stats();
        let trace = engine.into_trace();
        let metrics =
            MigrationMetrics::from_trace(&trace, &StabilityCriteria::paper(expected), BUCKET);
        let completed = trace.migration_completed_at().is_some();
        MigrationOutcome {
            strategy: strategy.name(),
            metrics,
            stats,
            completed,
            budget_exhausted,
            trace,
            shard_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ccr, Dcr};
    use flowmig_engine::{StoreReplication, StoreServiceModel};
    use flowmig_metrics::{TraceEvent, TraceLevel};
    use flowmig_topology::library;

    /// The default engine config, tracing every event.
    fn full() -> EngineConfig {
        EngineConfig { trace: TraceLevel::Full, ..EngineConfig::default() }
    }

    #[test]
    fn controller_builder_round_trips() {
        let c = MigrationController::new()
            .with_request_at(SimTime::from_secs(60))
            .with_horizon(SimTime::from_secs(300))
            .with_seed(9);
        assert_eq!(c.horizon(), SimTime::from_secs(300));
    }

    #[test]
    fn ccr_parallel_waves_complete_without_loss() {
        // Parallel COMMIT+INIT must preserve CCR's reliability guarantees:
        // nothing dropped, nothing replayed, all captured events resumed.
        let c = MigrationController::new()
            .with_request_at(SimTime::from_secs(60))
            .with_horizon(SimTime::from_secs(400));
        let out = c
            .run(&library::linear(), &Ccr::new().with_parallel_waves(0), ScaleDirection::In)
            .unwrap();
        assert!(out.completed);
        assert_eq!(out.stats.events_dropped, 0, "parallel CCR loses nothing");
        assert_eq!(out.stats.replayed_roots, 0);
        assert!(out.stats.events_captured > 0);
        assert_eq!(out.stats.pending_replayed, out.stats.events_captured as u64);
        assert!(out.metrics.commit_wave.is_some(), "commit phase span recorded");
    }

    #[test]
    fn ccr_pipelined_runs_end_to_end_with_derived_fan_out() {
        // The plan-only strategy: every wave store-paced, window derived
        // from the shard count (no fan-out configured anywhere). Same
        // reliability bar as classic CCR: nothing dropped, nothing
        // replayed, every captured event resumed.
        let c = MigrationController::new()
            .with_request_at(SimTime::from_secs(60))
            .with_horizon(SimTime::from_secs(400));
        let out = c.run(&library::grid(), &crate::CcrPipelined::new(), ScaleDirection::In).unwrap();
        assert!(out.completed, "pipelined migration completes");
        assert_eq!(out.strategy, "CCR-P");
        assert_eq!(out.stats.events_dropped, 0, "pipelined CCR loses nothing");
        assert_eq!(out.stats.replayed_roots, 0);
        assert!(out.stats.events_captured > 0, "store-paced PREPARE still captures");
        assert_eq!(out.stats.pending_replayed, out.stats.events_captured as u64);
        assert!(out.metrics.commit_wave.is_some());
        assert!(out.metrics.restore_wave.is_some());
    }

    #[test]
    fn ccr_key_range_moves_only_hot_ranges_on_a_skewed_grid() {
        // On a Zipf-keyed grid the hot 60 % of key weight lives in a
        // handful of partitions; CCR-KR must migrate just their owners
        // while CCR-P redeploys every migrating instance. Same
        // reliability bar, strictly less state motion. The skewed routing
        // saturates the hot owners (p0 carries ~65 % of a 24 ev/s task at
        // 100 ms service), so the checkpoint drain outlives the default
        // 30 s wave timeout and the replay burst outgrows the steady-state
        // transport buffer — the skew scenario sizes both for it.
        let cfg = EngineConfig { transport_buffer: 2048, ..EngineConfig::default() };
        let run = |strategy: &dyn crate::MigrationStrategy| {
            MigrationController::new()
                .with_engine_config(cfg)
                .with_request_at(SimTime::from_secs(60))
                .with_horizon(SimTime::from_secs(400))
                .run(&library::grid_zipf(3, 8, 2), strategy, ScaleDirection::In)
                .unwrap()
        };
        let kr = run(&crate::CcrKeyRange::new().without_wave_timeout());
        let p = run(&crate::CcrPipelined::new().without_wave_timeout());
        assert!(kr.completed && p.completed);
        assert_eq!(kr.strategy, "CCR-KR");
        assert_eq!(kr.stats.events_dropped, 0, "scoped CCR loses nothing");
        assert_eq!(p.stats.events_dropped, 0);
        assert_eq!(kr.stats.replayed_roots, 0);
        assert_eq!(kr.stats.pending_replayed, kr.stats.events_captured);
        // The range ledger is populated and the resident remainder is real:
        // cold partitions stayed in place instead of riding the store.
        assert!(kr.metrics.ranges_moved > 0, "hot ranges moved through the store");
        assert!(kr.metrics.moved_bytes > 0);
        assert_eq!(p.metrics.ranges_moved, 0, "whole-instance CCR-P never range-persists");
        // Fewer participants pay the checkpoint: scoped persists must be a
        // strict subset of CCR-P's whole-instance persists, and the durable
        // state bytes riding the store shrink to a small fraction.
        assert!(
            kr.stats.state_persists < p.stats.state_persists,
            "scoped persists {} must undercut whole-instance persists {}",
            kr.stats.state_persists,
            p.stats.state_persists
        );
        assert!(
            kr.stats.state_bytes_moved * 4 < p.stats.state_bytes_moved,
            "range persists move <25% of the whole-instance state bytes: {} vs {}",
            kr.stats.state_bytes_moved,
            p.stats.state_bytes_moved
        );
        assert!(kr.stats.state_bytes_resident > 0, "cold counters never touched the store");
        assert_eq!(p.stats.state_bytes_resident, 0);
        assert!(kr.metrics.commit_wave.is_some());
        assert!(kr.metrics.restore_wave.is_some());
    }

    #[test]
    fn key_range_scope_degenerates_cleanly_on_unkeyed_dataflows() {
        // Linear has no key space: the KeyRanges scope falls back to the
        // migrating-instance set and CCR-KR behaves like CCR-P — whole
        // blobs, no range ledger entries, nothing lost.
        let out = MigrationController::new()
            .with_request_at(SimTime::from_secs(60))
            .with_horizon(SimTime::from_secs(400))
            .run(&library::linear(), &crate::CcrKeyRange::new(), ScaleDirection::In)
            .unwrap();
        assert!(out.completed);
        assert_eq!(out.stats.events_dropped, 0);
        assert_eq!(out.stats.pending_replayed, out.stats.events_captured as u64);
        assert!(out.stats.state_persists > 0, "whole-blob path still runs");
        assert_eq!(out.metrics.ranges_moved, 0, "no key space, no range motion");
        assert_eq!(out.metrics.moved_bytes, 0);
    }

    /// CCR with its PREPARE, COMMIT and INIT waves all narrowed to one
    /// scope.
    struct ScopedCcr(flowmig_engine::WaveScope);

    impl MigrationStrategy for ScopedCcr {
        fn kind(&self) -> crate::StrategyKind {
            crate::StrategyKind::Ccr
        }

        fn plan(&self) -> crate::MigrationPlan {
            use crate::{MigrationPlan, PausePolicy, PlanPhase, WaveKind};
            use flowmig_engine::{ProtocolConfig, WaveRouting};
            use flowmig_metrics::MigrationPhase;
            let wave = |kind, routing| PlanPhase::wave(kind, routing).with_scope(self.0);
            MigrationPlan::new(ProtocolConfig::ccr())
                .pause(PausePolicy::UntilComplete)
                .phase(
                    wave(WaveKind::Prepare, WaveRouting::Broadcast).scoped(MigrationPhase::Drain),
                )
                .phase(
                    wave(WaveKind::Commit, WaveRouting::Sequential).scoped(MigrationPhase::Commit),
                )
                .phase(
                    wave(WaveKind::Init, WaveRouting::Broadcast)
                        .after_rebalance()
                        .scoped(MigrationPhase::Restore)
                        .with_resend(SimDuration::from_secs(1)),
                )
        }
    }

    #[test]
    fn scoped_waves_complete_on_a_dataflow_without_operators() {
        // Source → sink: no instance migrates, so a key-range scope
        // resolves to no participant. A wave with no member would wait
        // forever for an ack; it degrades to every participant (here, the
        // sink), as plain CCR addresses them.
        use flowmig_engine::{KeyRangeScope, WaveScope};
        use flowmig_topology::{DataflowBuilder, TaskSpec};
        let mut b = DataflowBuilder::new("src-sink");
        let src = b.add(TaskSpec::source("src", 8.0));
        let sink = b.add(TaskSpec::sink("sink"));
        b.edge(src, sink);
        let dag = b.finish().unwrap();
        let controller = MigrationController::new()
            .with_request_at(SimTime::from_secs(60))
            .with_horizon(SimTime::from_secs(600));
        let strategy = ScopedCcr(WaveScope::KeyRanges(KeyRangeScope::hot(600)));
        strategy.plan().validate().expect("the scoped plan validates");
        let out = controller.run(&dag, &strategy, ScaleDirection::In).unwrap();
        assert!(out.completed, "the key-range scope wedged");
        assert_eq!(out.stats.events_dropped, 0);
        assert!(controller.run(&dag, &Ccr::new(), ScaleDirection::In).unwrap().completed);
    }

    #[test]
    fn dcr_linear_scale_in_completes_without_loss() {
        let c = MigrationController::new()
            .with_request_at(SimTime::from_secs(60))
            .with_horizon(SimTime::from_secs(400));
        let out = c.run(&library::linear(), &Dcr::new(), ScaleDirection::In).unwrap();
        assert!(out.completed, "migration must complete");
        assert_eq!(out.stats.events_dropped, 0, "DCR loses nothing");
        assert_eq!(out.stats.replayed_roots, 0, "DCR replays nothing");
        assert!(out.metrics.restore.is_some());
        assert!(out.metrics.rebalance.is_some());
        // DCR drains fully: no old events remain to catch up after the
        // rebalance.
        assert_eq!(out.metrics.catchup, None);
    }

    #[test]
    fn fifo_store_contention_penalizes_the_single_shard_pipelined_wave() {
        // CCR-P's derived window admits each shard's whole membership at
        // once, which the zero-queueing model prices as free. Under
        // per-shard FIFO service queues a 1-shard store must serialize
        // the entire wave while 8 shards split the line: the checkpoint
        // critical path must be strictly worse on 1 shard, the queueing
        // observables must show the wait, and the compatibility model
        // must remain a lower bound.
        let run = |store_shards, store_service| {
            MigrationController::new()
                .with_engine_config(EngineConfig { store_shards, store_service, ..full() })
                .with_request_at(SimTime::from_secs(60))
                .with_horizon(SimTime::from_secs(400))
                .run(&library::grid(), &crate::CcrPipelined::new(), ScaleDirection::In)
                .unwrap()
        };
        let total = |o: &MigrationOutcome| {
            o.metrics.commit_wave.expect("commit span") + o.metrics.restore_wave.expect("restore")
        };
        let one = run(1, StoreServiceModel::FifoPerShard);
        let eight = run(8, StoreServiceModel::FifoPerShard);
        let flat = run(1, StoreServiceModel::Unqueued);
        assert!(one.completed && eight.completed && flat.completed);
        assert!(
            total(&one) > total(&eight),
            "1-shard FIFO store must pay for serializing the wave: {} vs {}",
            total(&one),
            total(&eight)
        );
        assert!(
            total(&one) >= total(&flat),
            "queueing is a strict extension: {} vs flat {}",
            total(&one),
            total(&flat)
        );
        // The wait is observable at every layer: engine counters, trace
        // events, and the exported per-shard snapshot.
        assert!(one.stats.store_ops_queued > 0, "ops queued on the saturated shard");
        let traced = one.trace.iter().fold((0, 0), |(ops, us), e| match *e {
            TraceEvent::StoreQueueWait { wait, .. } => (ops + 1, us + wait.as_micros()),
            _ => (ops, us),
        });
        assert_eq!(traced, (one.stats.store_ops_queued, one.stats.store_wait_us), "one per op");
        assert_eq!(one.shard_stats.len(), 1);
        assert!(one.shard_stats[0].queued_wait > SimDuration::ZERO);
        assert!(one.shard_stats[0].max_queue_depth > 1);
        // Reliability is untouched by the repricing.
        assert_eq!(one.stats.events_dropped, 0);
        assert_eq!(one.stats.replayed_roots, 0);
        assert_eq!(one.stats.pending_replayed, one.stats.events_captured);
    }

    #[test]
    fn quorum_replication_surfaces_end_to_end_and_beats_full_replica_waits() {
        // The realism-tier accounting pattern: a 2-of-3 replicated store
        // prices every persist as the 2nd-fastest replica (1.25× service),
        // visible in engine counters and trace events — and the quorum's
        // whole point holds: its checkpoint critical path is strictly
        // cheaper than waiting on all 3 replicas.
        let run = |quorum| {
            let store_replication = StoreReplication::new(3, quorum);
            MigrationController::new()
                .with_engine_config(EngineConfig { store_replication, ..full() })
                .with_request_at(SimTime::from_secs(60))
                .with_horizon(SimTime::from_secs(400))
                .run(&library::grid(), &Ccr::new(), ScaleDirection::In)
                .unwrap()
        };
        let q2 = run(2);
        let q3 = run(3);
        assert!(q2.completed && q3.completed);
        assert!(q2.stats.store_quorum_persists > 0, "replicated persists counted");
        assert_eq!(q2.stats.store_degraded_persists, 0, "no outage, nothing degraded");
        assert_eq!(q2.stats.store_ops_failed, 0);
        let traced =
            q2.trace.iter().filter(|e| matches!(e, TraceEvent::QuorumPersist { .. })).count();
        assert_eq!(traced as u64, q2.stats.store_quorum_persists, "one event per quorum persist");
        let commit = |o: &MigrationOutcome| o.metrics.commit_wave.expect("commit span");
        assert!(
            commit(&q2) < commit(&q3),
            "2-of-3 quorum must beat the all-3 wait: {:?} vs {:?}",
            commit(&q2),
            commit(&q3)
        );
        // Reliability is untouched by the repricing.
        assert_eq!(q2.stats.events_dropped, 0);
        assert_eq!(q2.stats.replayed_roots, 0);
    }

    #[test]
    fn degraded_quorum_keeps_the_migration_alive() {
        // One replica of every shard is down for the whole migration
        // window. With a 2-of-3 quorum the surviving replicas still
        // satisfy every persist: the migration completes, but the
        // degradation is visible in the counters, the trace and the
        // metrics.
        let mut c = MigrationController::new()
            .with_engine_config(EngineConfig {
                store_replication: StoreReplication::new(3, 2),
                ..full()
            })
            .with_request_at(SimTime::from_secs(60))
            .with_horizon(SimTime::from_secs(400));
        for shard in 0..8 {
            c = c.with_shard_degradation(
                shard,
                1,
                SimTime::from_secs(50),
                SimDuration::from_secs(300),
            );
        }
        let out = c.run(&library::grid(), &Ccr::new(), ScaleDirection::In).unwrap();
        assert!(out.completed, "a quorum-satisfying subset must let the migration complete");
        assert_eq!(out.stats.store_ops_failed, 0, "nothing fell below quorum");
        assert!(out.stats.store_degraded_persists > 0, "the degraded mode was exercised");
        let degraded = out
            .trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::QuorumPersist { degraded: true, .. }))
            .count();
        assert_eq!(degraded as u64, out.stats.store_degraded_persists, "one event per degraded");
        assert!(out.metrics.shard_downtime.is_some(), "downtime surfaced in metrics");
        assert_eq!(out.stats.events_dropped, 0, "reliability holds degraded");
    }

    #[test]
    fn store_shard_count_does_not_change_outcomes() {
        // Sharding only partitions the store's bookkeeping; the simulated
        // timeline must be bit-identical regardless of shard count.
        let run = |store_shards| {
            MigrationController::new()
                .with_engine_config(EngineConfig { store_shards, ..EngineConfig::default() })
                .with_request_at(SimTime::from_secs(60))
                .with_horizon(SimTime::from_secs(300))
                .run(&library::linear(), &Dcr::new(), ScaleDirection::In)
                .unwrap()
        };
        let (one, eight) = (run(1), run(8));
        assert_eq!(one.stats, eight.stats);
        assert_eq!(one.trace, eight.trace);
    }

    #[test]
    fn ccr_linear_scale_in_captures_and_resumes() {
        let c = MigrationController::new()
            .with_request_at(SimTime::from_secs(60))
            .with_horizon(SimTime::from_secs(400));
        let out = c.run(&library::linear(), &Ccr::new(), ScaleDirection::In).unwrap();
        assert!(out.completed);
        assert_eq!(out.stats.events_dropped, 0, "CCR loses nothing");
        assert!(out.stats.events_captured > 0, "CCR captures in-flight events");
        assert_eq!(out.stats.pending_replayed, out.stats.events_captured as u64);
    }
}
