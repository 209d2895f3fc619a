//! Failure injection: checkpoint waves that cannot complete must roll the
//! dataflow back (the three-phase-commit semantics of §2) and leave it
//! processing, not wedged.
//!
//! Every crash scenario runs under both store service models — the
//! zero-queueing compatibility default and per-shard FIFO contention —
//! because a victim dying mid-wave exercises the queue accounting on the
//! abort path, where a bug would silently corrupt the §4 store metrics.
//! The `check_queue_accounting` helper pins the invariants either model
//! must uphold. On top of the executor crashes, two scenarios kill store
//! *shards* mid-wave: a full outage must abort the wave down the same
//! ROLLBACK path, while a quorum-satisfying replica subset must let the
//! migration complete degraded.

use flowmig::prelude::*;

fn config_with(service: StoreServiceModel) -> EngineConfig {
    EngineConfig { store_service: service, ..EngineConfig::default() }
}

/// The queue accounting every service model must keep consistent, even
/// when waves abort with operations still queued behind dead horizons.
fn check_queue_accounting(engine: &Engine, service: StoreServiceModel) {
    let store = engine.store();
    let (mut ops, mut wait) = (0u64, 0u64);
    for shard in 0..store.shard_count() {
        let s = store.shard_stats(shard);
        assert_eq!(
            s.queued_ops == 0,
            s.queued_wait.is_zero(),
            "shard {shard}: queued_ops={} but queued_wait={:?}",
            s.queued_ops,
            s.queued_wait
        );
        if s.queued_ops > 0 {
            assert!(
                s.max_queue_depth >= 2,
                "shard {shard}: an op waited, so at least two must have overlapped"
            );
        }
        ops += s.queued_ops;
        wait += s.queued_wait.as_micros();
    }
    assert_eq!(engine.stats().store_ops_queued, ops, "engine counter mirrors shard sums");
    assert_eq!(engine.stats().store_wait_us, wait, "engine wait mirrors shard sums");
    if service == StoreServiceModel::Unqueued {
        assert_eq!(ops, 0, "the zero-queueing model never makes an op wait");
    }
}

/// An instance crashes right as DCR's PREPARE wave sweeps: the wave cannot
/// align, the coordinator times out and broadcasts ROLLBACK, the sources
/// resume, and the dataflow keeps producing on the *old* deployment.
fn dcr_prepare_timeout_rolls_back_and_resumes(service: StoreServiceModel) {
    let dag = library::linear();
    let instances = InstanceSet::plan(&dag);
    let plan = ScalePlan::paper_scenario(&dag, &instances, ScaleDirection::In)
        .expect("scenario placeable");
    let victim = instances.of_task(dag.task_by_name("t3").expect("t3 exists"))[0];

    let strategy = Dcr::new().with_wave_timeout(SimDuration::from_secs(10));
    let mut engine = Engine::new(
        dag.clone(),
        instances.clone(),
        &plan,
        config_with(service),
        strategy.protocol(),
        strategy.coordinator(),
        5,
    );
    // Crash t3 a hair after the migration request; keep it down long
    // enough to exceed the 10 s wave timeout.
    engine.schedule_migration(SimTime::from_secs(60));
    engine.schedule_outage(victim, SimTime::from_millis(60_050), SimDuration::from_secs(20));
    engine.run_until(SimTime::from_secs(300));

    let trace = engine.trace();
    // The migration never completed…
    assert!(trace.migration_completed_at().is_none(), "migration must abort");
    // …no rebalance ever ran…
    assert!(trace.phase_span(MigrationPhase::Rebalance).is_none(), "no rebalance after abort");
    // …a ROLLBACK wave went out…
    let rollbacks = trace
        .iter()
        .filter(|e| {
            matches!(
                e,
                TraceEvent::ControlWave { kind: flowmig::metrics::ControlKind::Rollback, .. }
            )
        })
        .count();
    assert!(rollbacks >= 1, "rollback wave was broadcast");
    // …and the dataflow kept producing afterwards.
    let last_arrival = trace
        .iter()
        .rev()
        .find_map(|e| match *e {
            TraceEvent::SinkArrival { at, .. } => Some(at),
            _ => None,
        })
        .expect("sink arrivals exist");
    assert!(
        last_arrival > SimTime::from_secs(280),
        "dataflow still produces after the aborted migration (last arrival {last_arrival})"
    );
    check_queue_accounting(&engine, service);
}

#[test]
fn dcr_prepare_timeout_rolls_back_and_resumes_unqueued() {
    dcr_prepare_timeout_rolls_back_and_resumes(StoreServiceModel::Unqueued);
}

#[test]
fn dcr_prepare_timeout_rolls_back_and_resumes_fifo() {
    dcr_prepare_timeout_rolls_back_and_resumes(StoreServiceModel::FifoPerShard);
}

/// A crash just before the migration leaves an uninitialized executor:
/// CCR's PREPARE cannot complete, so the built-in 30 s wave timeout rolls
/// the migration back — and the ROLLBACK itself re-initializes the victim
/// from the last committed state, leaving the dataflow healthy.
fn ccr_default_timeout_rolls_back_when_an_executor_cannot_prepare(service: StoreServiceModel) {
    let dag = library::linear();
    let instances = InstanceSet::plan(&dag);
    let plan = ScalePlan::paper_scenario(&dag, &instances, ScaleDirection::In)
        .expect("scenario placeable");
    let victim = instances.of_task(dag.task_by_name("t2").expect("t2 exists"))[0];

    let strategy = Ccr::new(); // default: 30 s wave timeout
    let mut engine = Engine::new(
        dag.clone(),
        instances.clone(),
        &plan,
        config_with(service),
        strategy.protocol(),
        strategy.coordinator(),
        6,
    );
    engine.schedule_migration(SimTime::from_secs(60));
    // Crash before the migration: the victim is back but uninitialized
    // when the PREPARE broadcast arrives, so it cannot snapshot state.
    engine.schedule_outage(victim, SimTime::from_secs(40), SimDuration::from_secs(5));
    engine.run_until(SimTime::from_secs(420));

    assert!(engine.trace().migration_completed_at().is_none(), "migration aborts");
    assert!(
        engine.trace().phase_span(MigrationPhase::Rebalance).is_none(),
        "no rebalance after the abort"
    );
    assert_eq!(engine.worker_status(victim), WorkerStatus::Running);
    assert!(engine.is_initialized(victim), "ROLLBACK re-initialized the victim");
    // The dataflow is producing again after the abort.
    let last = engine
        .trace()
        .iter()
        .rev()
        .find_map(|e| match *e {
            TraceEvent::SinkArrival { at, .. } => Some(at),
            _ => None,
        })
        .expect("arrivals");
    assert!(last > SimTime::from_secs(400), "dataflow produces after the abort, last={last}");
    check_queue_accounting(&engine, service);
}

#[test]
fn ccr_default_timeout_rolls_back_when_an_executor_cannot_prepare_unqueued() {
    ccr_default_timeout_rolls_back_when_an_executor_cannot_prepare(StoreServiceModel::Unqueued);
}

#[test]
fn ccr_default_timeout_rolls_back_when_an_executor_cannot_prepare_fifo() {
    ccr_default_timeout_rolls_back_when_an_executor_cannot_prepare(StoreServiceModel::FifoPerShard);
}

/// A crash inside CCR's capture window: the victim holds events its
/// PREPARE captured that no COMMIT has persisted yet. They die with the
/// instance, so the kill must count them as dropped, in the stats and in
/// the trace, like the queued events it discards.
fn ccr_crash_in_the_capture_window_drops_captured_events(service: StoreServiceModel) {
    let dag = library::linear();
    let instances = InstanceSet::plan(&dag);
    let plan = ScalePlan::paper_scenario(&dag, &instances, ScaleDirection::In)
        .expect("scenario placeable");
    let victim = instances.of_task(dag.task_by_name("t2").expect("t2 exists"))[0];

    let strategy = Ccr::new().with_wave_timeout(SimDuration::from_secs(10));
    let mut engine = Engine::new(
        dag.clone(),
        instances.clone(),
        &plan,
        EngineConfig { trace: TraceLevel::Full, ..config_with(service) },
        strategy.protocol(),
        strategy.coordinator(),
        7,
    );
    let crash = SimTime::from_millis(60_020);
    engine.schedule_migration(SimTime::from_secs(60));
    engine.schedule_outage(victim, crash, SimDuration::from_secs(20));
    engine.run_until(SimTime::from_micros(crash.as_micros() - 1));
    let held = engine.captured_len(victim) + engine.queue_depth(victim);
    assert!(engine.captured_len(victim) > 0, "the victim holds captured events when it dies");
    engine.run_until(SimTime::from_secs(300));

    assert!(engine.trace().migration_completed_at().is_none(), "migration aborts");
    let stats = engine.stats();
    assert_eq!(stats.pending_replayed, 0, "no checkpoint was restored");
    let dropped_at_crash = engine
        .trace()
        .iter()
        .filter(|e| matches!(*e, TraceEvent::EventDropped { at, .. } if *at == crash))
        .count();
    assert_eq!(dropped_at_crash, held, "the kill drops every event the victim held");
    let traced = engine.trace().iter().filter(|e| matches!(e, TraceEvent::EventDropped { .. }));
    assert_eq!(stats.events_dropped, traced.count() as u64, "stats mirror the trace");
    check_queue_accounting(&engine, service);
}

#[test]
fn ccr_crash_in_the_capture_window_drops_captured_events_unqueued() {
    ccr_crash_in_the_capture_window_drops_captured_events(StoreServiceModel::Unqueued);
}

#[test]
fn ccr_crash_in_the_capture_window_drops_captured_events_fifo() {
    ccr_crash_in_the_capture_window_drops_captured_events(StoreServiceModel::FifoPerShard);
}

/// A crash outside any migration: the outage drops events (no acking for
/// DCR protocol) but the engine keeps running and the instance recovers.
fn steady_state_crash_recovers_without_migration(service: StoreServiceModel) {
    let dag = library::diamond();
    let instances = InstanceSet::plan(&dag);
    let plan = ScalePlan::paper_scenario(&dag, &instances, ScaleDirection::In)
        .expect("scenario placeable");
    let victim = instances.of_task(dag.task_by_name("e").expect("e exists"))[1];

    let mut engine = Engine::new(
        dag.clone(),
        instances.clone(),
        &plan,
        config_with(service),
        ProtocolConfig::dsm(),
        Dsm::new().coordinator(),
        7,
    );
    engine.schedule_outage(victim, SimTime::from_secs(50), SimDuration::from_secs(10));
    engine.run_until(SimTime::from_secs(180));

    assert!(engine.stats().events_dropped > 0, "outage lost events");
    // With DSM's acking, the lost trees were replayed and completed.
    assert!(engine.stats().replayed_roots > 0, "acker replayed the losses");
    assert_eq!(engine.worker_status(victim), WorkerStatus::Running);
    // Output is flowing again at the end.
    let last = engine
        .trace()
        .iter()
        .rev()
        .find_map(|e| match *e {
            TraceEvent::SinkArrival { at, .. } => Some(at),
            _ => None,
        })
        .expect("arrivals");
    assert!(last > SimTime::from_secs(175));
    check_queue_accounting(&engine, service);
}

#[test]
fn steady_state_crash_recovers_without_migration_unqueued() {
    steady_state_crash_recovers_without_migration(StoreServiceModel::Unqueued);
}

#[test]
fn steady_state_crash_recovers_without_migration_fifo() {
    steady_state_crash_recovers_without_migration(StoreServiceModel::FifoPerShard);
}

/// A store shard dies across CCR's COMMIT window with no replication to
/// fall back on: persists against the dead shard fail, the wave times out,
/// and the migration takes the same ROLLBACK path as an executor crash.
fn shard_outage_mid_commit_rolls_back(service: StoreServiceModel) {
    let outcome = MigrationController::new()
        .with_engine_config(EngineConfig { trace: TraceLevel::Full, ..config_with(service) })
        .with_request_at(SimTime::from_secs(60))
        .with_horizon(SimTime::from_secs(400))
        .with_shard_outage(0, SimTime::from_secs(50), SimDuration::from_secs(300))
        .run(&library::grid(), &Ccr::new(), ScaleDirection::In)
        .expect("scenario placeable");

    assert!(!outcome.completed, "a dead shard must abort the migration");
    assert!(outcome.stats.store_ops_failed > 0, "the COMMIT persists against shard 0 failed");
    let traced = outcome.trace.iter().filter(|e| matches!(e, TraceEvent::StoreOpFailed { .. }));
    assert_eq!(traced.count() as u64, outcome.stats.store_ops_failed, "one event per failed op");
    let rollbacks = outcome
        .trace
        .iter()
        .filter(|e| {
            matches!(
                e,
                TraceEvent::ControlWave { kind: flowmig::metrics::ControlKind::Rollback, .. }
            )
        })
        .count();
    assert!(rollbacks >= 1, "the stalled wave timed out into ROLLBACK");
    assert!(outcome.metrics.shard_downtime.is_some(), "downtime surfaced in §4 metrics");
    // The abort path kept the dataflow lossless on the old deployment.
    assert_eq!(outcome.stats.events_dropped, 0);
}

#[test]
fn shard_outage_mid_commit_rolls_back_unqueued() {
    shard_outage_mid_commit_rolls_back(StoreServiceModel::Unqueued);
}

#[test]
fn shard_outage_mid_commit_rolls_back_fifo() {
    shard_outage_mid_commit_rolls_back(StoreServiceModel::FifoPerShard);
}

/// The same mid-wave shard failure with a 2-of-3 quorum: losing one
/// replica degrades the persists (they pay the slower replica ladder) but
/// the wave still reaches quorum and the migration completes.
#[test]
fn quorum_replication_rides_out_a_mid_wave_replica_loss() {
    let outcome = MigrationController::new()
        .with_engine_config(EngineConfig {
            store_replication: StoreReplication::new(3, 2),
            ..EngineConfig::default()
        })
        .with_request_at(SimTime::from_secs(60))
        .with_horizon(SimTime::from_secs(400))
        .with_shard_degradation(0, 1, SimTime::from_secs(50), SimDuration::from_secs(300))
        .run(&library::grid(), &Ccr::new(), ScaleDirection::In)
        .expect("scenario placeable");

    assert!(outcome.completed, "2 live replicas still satisfy the 2-of-3 quorum");
    assert_eq!(outcome.stats.store_ops_failed, 0, "nothing fell below quorum");
    assert!(outcome.stats.store_degraded_persists > 0, "shard 0's persists ran degraded");
    assert!(
        outcome.stats.store_quorum_persists >= outcome.stats.store_degraded_persists,
        "degraded persists are a subset of quorum persists"
    );
    assert_eq!(outcome.stats.events_dropped, 0);
    assert_eq!(outcome.stats.replayed_roots, 0);
}

/// ROLLBACK re-initializes an instance that lost its state from its last
/// committed blob, and that fetch is priced by the blob it reads. CCR on a
/// Zipf-keyed `linear` commits `t2`'s first instance at the 60 s
/// migration with one captured event and 64 partition counters, and its
/// INIT replays that event, which leaves the blob with it. The instance
/// then crashes (150–155 s), so the 200 s migration's PREPARE stalls and
/// times out into ROLLBACK at 230 s, and the ROLLBACK fetches that 60 s
/// blob. Its 16 event equivalents (64 counters) cost 16 × 50 µs on top of
/// the 230.003000 s an empty blob would restore at, and it replays
/// nothing: the captured event was handed to the instance once. The
/// re-init rolls the victim's processed count back from the 1,070 events
/// it had processed by its crash to the 480 the blob holds, and the run's
/// stats count those 590 events. The run is traced at `Full` to read the
/// restores.
fn ccr_rollback_re_init_is_priced_by_the_committed_blob(service: StoreServiceModel) {
    let dag = library::zipf_keyed(&library::linear(), 64, 1);
    let instances = InstanceSet::plan(&dag);
    let plan = ScalePlan::paper_scenario(&dag, &instances, ScaleDirection::In)
        .expect("scenario placeable");
    let victim = instances.of_task(dag.task_by_name("t2").expect("t2 exists"))[0];

    let strategy = Ccr::new(); // default: 30 s wave timeout
    let mut engine = Engine::new(
        dag.clone(),
        instances.clone(),
        &plan,
        EngineConfig { trace: TraceLevel::Full, ..config_with(service) },
        strategy.protocol(),
        strategy.coordinator(),
        6,
    );
    engine.schedule_migration(SimTime::from_secs(60));
    engine.schedule_outage(victim, SimTime::from_secs(150), SimDuration::from_secs(5));
    engine.schedule_migration(SimTime::from_secs(200));
    engine.run_until(SimTime::from_secs(300));

    let rollback_at = engine.trace().iter().find_map(|e| match *e {
        TraceEvent::ControlWave { kind: flowmig::metrics::ControlKind::Rollback, at, .. } => {
            Some(at)
        }
        _ => None,
    });
    assert_eq!(rollback_at, Some(SimTime::from_secs(230)), "the 200 s PREPARE timed out");
    let restores: Vec<(SimTime, u32)> = engine
        .trace()
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::InstanceRestored { instance, at, pending_replayed }
                if instance == victim =>
            {
                Some((at, pending_replayed))
            }
            _ => None,
        })
        .collect();
    assert_eq!(
        restores.iter().map(|&(_, replayed)| replayed).collect::<Vec<_>>(),
        [1, 0],
        "the INIT replays the captured event and the ROLLBACK re-init does not"
    );
    assert_eq!(
        restores.last().map(|&(at, _)| at),
        Some(SimTime::from_micros(230_003_800)),
        "the ROLLBACK fetch pays for the 64 counters it reads"
    );
    assert!(engine.is_initialized(victim), "ROLLBACK re-initialized the victim");
    assert_eq!(
        engine.stats().processed_rolled_back,
        590,
        "the re-init discarded the 1,070 − 480 events processed since the commit"
    );
    check_queue_accounting(&engine, service);
}

#[test]
fn ccr_rollback_re_init_is_priced_by_the_committed_blob_unqueued() {
    ccr_rollback_re_init_is_priced_by_the_committed_blob(StoreServiceModel::Unqueued);
}

#[test]
fn ccr_rollback_re_init_is_priced_by_the_committed_blob_fifo() {
    ccr_rollback_re_init_is_priced_by_the_committed_blob(StoreServiceModel::FifoPerShard);
}
