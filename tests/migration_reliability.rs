//! End-to-end reliability guarantees across strategies, dataflows and
//! scaling directions — the paper's central claim: migration "without any
//! loss of in-flight messages or their internal task states".

use flowmig::core::{CcrPipelined, DcrParallelInit};
use flowmig::prelude::*;
use flowmig::topology::{InstanceId, KeyRange};
use std::collections::HashMap;

/// Expected sink arrivals per root for each paper dataflow (its end-to-end
/// fan-out: sink rate / source rate).
fn arrivals_per_root(dag: &Dataflow) -> u64 {
    let rates = RatePlan::for_dataflow(dag);
    (rates.expected_sink_rate_hz(dag) / dag.input_rate_hz()).round() as u64
}

fn quick_controller(seed: u64) -> MigrationController {
    MigrationController::new()
        .with_request_at(SimTime::from_secs(60))
        .with_horizon(SimTime::from_secs(420))
        .with_seed(seed)
}

/// Per-root delivery accounting from a trace: how many sink arrivals each
/// emitted root produced.
fn deliveries(outcome: &MigrationOutcome) -> (u64, HashMap<u64, u64>) {
    let mut per_root: HashMap<u64, u64> = HashMap::new();
    let mut emitted = 0;
    for event in outcome.trace.iter() {
        match *event {
            TraceEvent::SourceEmit { root, replay: false, at: _ } => {
                emitted += 1;
                per_root.entry(root.0).or_insert(0);
            }
            TraceEvent::SinkArrival { root, .. } => {
                *per_root.entry(root.0).or_insert(0) += 1;
            }
            _ => {}
        }
    }
    (emitted, per_root)
}

/// DCR and CCR provide exactly-once delivery: every emitted root reaches
/// the sink the expected number of times — no loss, no duplicates.
#[test]
fn dcr_and_ccr_are_exactly_once_on_all_dataflows() {
    for dag in library::paper_dataflows() {
        let expected = arrivals_per_root(&dag);
        for direction in [ScaleDirection::In, ScaleDirection::Out] {
            for strategy in [&Dcr::new() as &dyn MigrationStrategy, &Ccr::new()] {
                let outcome =
                    quick_controller(7).run(&dag, strategy, direction).expect("scenario placeable");
                assert!(outcome.completed, "{} {} {}", dag.name(), direction, outcome.strategy);
                assert_eq!(
                    outcome.stats.events_dropped,
                    0,
                    "{} {} {}: no loss",
                    dag.name(),
                    direction,
                    outcome.strategy
                );
                assert_eq!(outcome.stats.replayed_roots, 0, "no replays");

                let (emitted, per_root) = deliveries(&outcome);
                assert!(emitted > 2_000, "enough traffic to be meaningful");
                // Roots still in flight at the horizon are allowed to be
                // incomplete; every root with at least one arrival must
                // have exactly the expected count except the last few.
                let complete = per_root.values().filter(|&&c| c == expected).count() as u64;
                let over = per_root.values().filter(|&&c| c > expected).count();
                let partial: Vec<u64> =
                    per_root.values().copied().filter(|&c| c != 0 && c < expected).collect();
                assert_eq!(over, 0, "{} {}: duplicates", dag.name(), outcome.strategy);
                // The in-flight tail at the horizon scales with pipeline
                // depth: deeper DAGs hold more partially delivered roots.
                let tail_allow = dag.critical_path_len() + 6;
                assert!(
                    partial.len() <= tail_allow,
                    "{} {}: only in-flight tail roots may be partial, got {}",
                    dag.name(),
                    outcome.strategy,
                    partial.len()
                );
                assert!(
                    complete >= emitted - tail_allow as u64 - 4,
                    "nearly all roots fully delivered"
                );
            }
        }
    }
}

/// DSM provides at-least-once delivery: losses occur and are replayed, so
/// every settled root reaches the sink — possibly more than once.
#[test]
fn dsm_is_at_least_once_with_duplicates() {
    let dag = library::star();
    let outcome = quick_controller(11)
        .run(&dag, &Dsm::new(), ScaleDirection::In)
        .expect("scenario placeable");
    assert!(outcome.completed);
    assert!(outcome.stats.events_dropped > 0, "the kill loses events");
    assert!(outcome.stats.replayed_roots > 0, "the acker replays them");

    let expected = arrivals_per_root(&dag);
    let (_, per_root) = deliveries(&outcome);
    let duplicated = per_root.values().filter(|&&c| c > expected).count();
    assert!(duplicated > 0, "replays produce duplicate deliveries");

    // No root emitted more than a minute before the horizon is lost.
    let horizon = SimTime::from_secs(420);
    let mut settled_roots: HashMap<u64, bool> = HashMap::new();
    for event in outcome.trace.iter() {
        match *event {
            TraceEvent::SourceEmit { root, at, .. }
                if at + SimDuration::from_secs(90) < horizon =>
            {
                settled_roots.entry(root.0).or_insert(false);
            }
            TraceEvent::SinkArrival { root, .. } => {
                settled_roots.entry(root.0).and_modify(|seen| *seen = true);
            }
            _ => {}
        }
    }
    let lost = settled_roots.values().filter(|&&seen| !seen).count();
    assert_eq!(lost, 0, "at-least-once: every settled root reaches the sink");
}

/// Task state (processed-event counters) survives DCR/CCR migrations: the
/// post-migration counter equals events actually routed through the task —
/// nothing forgotten, nothing double-counted.
#[test]
fn state_continuity_across_ccr_migration() {
    let dag = library::linear();
    let outcome = quick_controller(13)
        .run(&dag, &Ccr::new(), ScaleDirection::In)
        .expect("scenario placeable");
    assert!(outcome.completed);
    // In a linear chain every task sees every root exactly once, so the
    // sink arrival count equals each task's processed count up to the
    // in-pipeline tail.
    let arrivals = outcome.stats.sink_arrivals;
    let processed = outcome.stats.events_processed as f64 / dag.user_tasks().count() as f64;
    let diff = (processed - arrivals as f64).abs();
    assert!(
        diff <= 8.0,
        "per-task processed (~{processed:.0}) must track sink arrivals ({arrivals}) modulo the tail"
    );
}

/// The §4 metric structure per strategy: drain only for DCR/CCR, catchup
/// never for DCR, recovery only for DSM.
#[test]
fn metric_applicability_matrix() {
    let dag = library::grid();
    let c = quick_controller(17);
    let dsm = c.run(&dag, &Dsm::new(), ScaleDirection::In).expect("placeable");
    let dcr = c.run(&dag, &Dcr::new(), ScaleDirection::In).expect("placeable");
    let ccr = c.run(&dag, &Ccr::new(), ScaleDirection::In).expect("placeable");

    assert!(dsm.metrics.drain_capture.is_none(), "DSM has no drain phase");
    assert!(dsm.metrics.recovery.is_some(), "DSM has a recovery phase");
    assert!(dcr.metrics.drain_capture.is_some());
    assert!(dcr.metrics.catchup.is_none(), "DCR drains everything pre-kill");
    assert!(dcr.metrics.recovery.is_none());
    assert!(ccr.metrics.drain_capture.is_some());
    assert!(ccr.metrics.catchup.is_some(), "CCR resumes captured old events");
    assert!(ccr.metrics.recovery.is_none());

    // CCR's capture beats DCR's drain (§3.2).
    assert!(ccr.metrics.drain_capture.unwrap() < dcr.metrics.drain_capture.unwrap());

    // All three record a ~7 s rebalance.
    for m in [&dsm.metrics, &dcr.metrics, &ccr.metrics] {
        let r = m.rebalance.expect("rebalance happened").as_secs_f64();
        assert!((6.5..8.1).contains(&r), "rebalance ≈ 7.26 s, got {r}");
    }
}

/// Migration phases appear in protocol order in the trace for DCR/CCR.
#[test]
fn phase_ordering_is_pause_drain_commit_rebalance_restore_resume() {
    let outcome = quick_controller(19)
        .run(&library::traffic(), &Ccr::new(), ScaleDirection::Out)
        .expect("scenario placeable");
    let spans: Vec<(MigrationPhase, SimTime)> = [
        MigrationPhase::Drain,
        MigrationPhase::Commit,
        MigrationPhase::Rebalance,
        MigrationPhase::Restore,
    ]
    .into_iter()
    .map(|p| (p, outcome.trace.phase_span(p).expect("phase recorded").0))
    .collect();
    for pair in spans.windows(2) {
        assert!(pair[0].1 <= pair[1].1, "{} must start before {}", pair[0].0, pair[1].0);
    }
    // Completion is recorded once the source resumes.
    assert!(outcome.trace.migration_completed_at().is_some());
}

/// Deploys `dag` under `strategy` on the paper's scale-in scenario, with
/// the migration requested at 60 s and every trace event kept.
fn keyed_engine(dag: &Dataflow, strategy: &dyn MigrationStrategy, seed: u64) -> Engine {
    let instances = InstanceSet::plan(dag);
    let plan =
        ScalePlan::paper_scenario(dag, &instances, ScaleDirection::In).expect("scenario placeable");
    let mut engine = Engine::new(
        dag.clone(),
        instances,
        &plan,
        EngineConfig { trace: TraceLevel::Full, ..EngineConfig::default() },
        strategy.protocol(),
        strategy.coordinator(),
        seed,
    );
    engine.schedule_migration(SimTime::from_secs(60));
    engine
}

/// The whole-instance checkpoint range of every keyed instance of `dag`.
fn keyed_instances(dag: &Dataflow) -> Vec<(InstanceId, KeyRange)> {
    let instances = InstanceSet::plan(dag);
    instances
        .iter()
        .filter(|&i| dag.spec(instances.task_of(i)).is_keyed())
        .map(|i| (i, KeyRange::whole(dag.spec(instances.task_of(i)).key_partitions())))
        .collect()
}

/// A checkpoint of keyed state holds one instant's state. DSM keeps its
/// sources running between PREPARE and COMMIT, so a COMMIT that paired the
/// PREPARE-time event count with COMMIT-time per-partition counters tore
/// every keyed blob, and a restored instance then disagreed with itself.
#[test]
fn whole_instance_checkpoints_of_keyed_state_hold_one_instant() {
    let strategies: [&dyn MigrationStrategy; 5] =
        [&Dsm::new(), &Dcr::new(), &DcrParallelInit::new(), &Ccr::new(), &CcrPipelined::new()];
    for dag in [library::zipf_keyed(&library::linear(), 4, 1), library::grid_zipf(3, 8, 1)] {
        for strategy in strategies {
            let label = format!("{} {}", dag.name(), strategy.name());
            let mut engine = keyed_engine(&dag, strategy, 1);
            engine.run_until(SimTime::from_secs(300));
            assert!(engine.trace().migration_completed_at().is_some(), "{label}: completed");
            let mut store = engine.store().clone();
            let mut blobs = 0;
            for (i, whole) in keyed_instances(&dag) {
                let counts: u64 = engine.key_processed(i).iter().sum();
                assert_eq!(engine.processed_count(i), counts, "{label}: {i} state is torn");
                if let Some(blob) = store.restore(i, whole) {
                    let counts: u64 = blob.key_counts.iter().sum();
                    assert_eq!(blob.processed, counts, "{label}: {i} checkpoint is torn");
                    blobs += 1;
                }
            }
            assert!(blobs > 0, "{label}: keyed state was checkpointed");
        }
    }
}

/// A whole-instance migration restores keyed state partition by
/// partition: at the instant each migrated keyed instance is restored,
/// its per-partition counters are exactly the ones it committed.
#[test]
fn ccr_pipelined_restores_committed_key_counters_exactly() {
    let dag = library::grid_zipf(3, 8, 1);
    let keyed = keyed_instances(&dag);
    // The run is deterministic: a first pass finds the restore instants,
    // a second stops at each one and reads the state it restored.
    let restored_at = |engine: &Engine| -> Vec<(SimTime, InstanceId)> {
        let restores = engine.trace().iter().filter_map(|e| match *e {
            TraceEvent::InstanceRestored { instance, at, .. } => Some((at, instance)),
            _ => None,
        });
        restores.filter(|(_, i)| keyed.iter().any(|(k, _)| k == i)).collect()
    };
    let mut probe = keyed_engine(&dag, &CcrPipelined::new(), 5);
    probe.run_until(SimTime::from_secs(300));
    assert!(probe.trace().migration_completed_at().is_some(), "the migration completed");
    let restores = restored_at(&probe);
    assert!(restores.len() >= 16, "keyed instances were migrated: {}", restores.len());

    let mut engine = keyed_engine(&dag, &CcrPipelined::new(), 5);
    for &(at, i) in &restores {
        engine.run_until(at);
        let whole = keyed.iter().find(|(k, _)| *k == i).expect("keyed").1;
        let blob = engine.store().clone().restore(i, whole).expect("the instance committed");
        assert_eq!(engine.key_processed(i), &blob.key_counts[..], "{i} counters restored");
        assert_eq!(engine.processed_count(i), blob.processed, "{i} count restored");
        assert!(blob.processed > 0, "{i} restored real state");
    }
}

/// A reliable strategy restores each migrated instance to the state it
/// committed after the last event it processed, so no restore discards
/// processed work: `processed_rolled_back` stays 0 on every paper dataflow
/// in both directions. DSM restores from its last periodic checkpoint and
/// rolls back the work done since, which keeps the check from passing
/// vacuously.
#[test]
fn only_dsm_restores_roll_processed_events_back() {
    let reliable: [&dyn MigrationStrategy; 5] = [
        &Dcr::new(),
        &DcrParallelInit::new(),
        &Ccr::new(),
        &CcrPipelined::new(),
        &CcrKeyRange::new(),
    ];
    let controller = MigrationController::new()
        .with_request_at(SimTime::from_secs(60))
        .with_horizon(SimTime::from_secs(300))
        .with_seed(3);
    for dag in library::paper_dataflows() {
        for direction in [ScaleDirection::In, ScaleDirection::Out] {
            for strategy in reliable {
                let outcome = controller.run(&dag, strategy, direction).expect("placeable");
                let label = format!("{} {direction} {}", dag.name(), outcome.strategy);
                assert!(outcome.completed, "{label}: completed");
                assert_eq!(outcome.stats.processed_rolled_back, 0, "{label}: nothing rolled back");
            }
            let dsm = controller.run(&dag, &Dsm::new(), direction).expect("placeable");
            assert!(
                dsm.stats.processed_rolled_back > 0,
                "{} {direction} DSM: restores roll back to the periodic checkpoint",
                dag.name()
            );
        }
    }
}
