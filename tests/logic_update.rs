//! The §7 extension: updating task logic during a DCR migration.
//!
//! "We can further extend and use DAG migration for interesting problems
//! like updating the task logic by re-wiring the DAG on the fly" — and DCR
//! is the recommended vehicle: its drain guarantees a clean boundary, so
//! no event is processed partly by old and partly by new logic.

use flowmig::prelude::*;
use flowmig::topology::{InstanceId, KeyRange};

#[test]
fn dcr_migration_swaps_task_logic_with_clean_boundary() {
    let dag = library::linear();
    let t3 = dag.task_by_name("t3").expect("t3 exists");
    let instances = InstanceSet::plan(&dag);
    let plan = ScalePlan::paper_scenario(&dag, &instances, ScaleDirection::In)
        .expect("scenario placeable");

    let strategy = Dcr::new();
    let mut engine = Engine::new(
        dag.clone(),
        instances.clone(),
        &plan,
        EngineConfig::default(),
        strategy.protocol(),
        strategy.coordinator(),
        21,
    );
    // The v2 logic is 4× faster.
    engine.stage_logic_update(
        t3,
        TaskSpec::operator("t3-v2").with_latency(SimDuration::from_millis(25)),
    );
    engine.schedule_migration(SimTime::from_secs(60));
    engine.run_until(SimTime::from_secs(420));

    let trace = engine.trace();
    assert!(trace.migration_completed_at().is_some(), "migration completes");
    assert_eq!(engine.stats().events_dropped, 0, "logic update loses nothing");
    assert_eq!(engine.stats().replayed_roots, 0);

    // The latency drop is visible end to end: the pipeline is one 75 ms
    // stage shorter after the migration.
    let request = trace.migration_requested_at().expect("requested");
    let timeline = LatencyTimeline::from_trace(trace, SimDuration::from_secs(10));
    let before = timeline.median_latency_ms(SimTime::ZERO, request).expect("pre-migration latency");
    let after = timeline
        .median_latency_ms(SimTime::from_secs(330), SimTime::from_secs(420))
        .expect("post-migration latency");
    assert!(
        before - after > 40.0,
        "v2 logic must cut the stable end-to-end latency (before {before:.0} ms, after {after:.0} ms)"
    );
}

#[test]
fn logic_update_without_migration_changes_nothing() {
    let dag = library::linear();
    let t1 = dag.task_by_name("t1").expect("t1 exists");
    let instances = InstanceSet::plan(&dag);
    let plan = ScalePlan::paper_scenario(&dag, &instances, ScaleDirection::In)
        .expect("scenario placeable");
    let mut engine = Engine::new(
        dag.clone(),
        instances,
        &plan,
        EngineConfig::default(),
        ProtocolConfig::dcr(),
        Box::new(flowmig::engine::NoopCoordinator),
        22,
    );
    engine.stage_logic_update(
        t1,
        TaskSpec::operator("t1-v2").with_latency(SimDuration::from_millis(10)),
    );
    // No migration is ever requested: the staged update must stay staged.
    engine.run_until(SimTime::from_secs(60));
    let timeline = LatencyTimeline::from_trace(engine.trace(), SimDuration::from_secs(10));
    let median = timeline
        .median_latency_ms(SimTime::from_secs(10), SimTime::from_secs(60))
        .expect("latency");
    assert!(median > 400.0, "old 5×100 ms logic still runs, median {median:.0} ms");
}

#[test]
#[should_panic(expected = "cannot change a task's kind")]
fn logic_update_rejects_kind_change() {
    let dag = library::linear();
    let t1 = dag.task_by_name("t1").expect("t1 exists");
    let instances = InstanceSet::plan(&dag);
    let plan = ScalePlan::paper_scenario(&dag, &instances, ScaleDirection::In)
        .expect("scenario placeable");
    let mut engine = Engine::new(
        dag,
        instances,
        &plan,
        EngineConfig::default(),
        ProtocolConfig::dcr(),
        Box::new(flowmig::engine::NoopCoordinator),
        23,
    );
    engine.stage_logic_update(t1, TaskSpec::sink("nope"));
}

/// A staged logic update may change a task's key space between its COMMIT
/// and its INIT. The restore still reads the blob the COMMIT wrote: each
/// migrated instance comes back with the event count it committed and
/// replays every event it captured.
#[test]
fn a_re_keyed_task_restores_the_state_it_committed() {
    let dag = library::linear();
    let t3 = dag.task_by_name("t3").expect("t3 exists");
    let committed = KeyRange::whole(dag.spec(t3).key_partitions());
    let instances = InstanceSet::plan(&dag);
    let plan = ScalePlan::paper_scenario(&dag, &instances, ScaleDirection::In)
        .expect("scenario placeable");
    let strategies: [&dyn MigrationStrategy; 2] = [&Dcr::new(), &Ccr::new()];
    for strategy in strategies {
        let name = strategy.name();
        let build = || {
            let mut engine = Engine::new(
                dag.clone(),
                instances.clone(),
                &plan,
                EngineConfig::default(),
                strategy.protocol(),
                strategy.coordinator(),
                24,
            );
            engine.stage_logic_update(t3, dag.spec(t3).clone().with_key_partitions(4));
            engine.schedule_migration(SimTime::from_secs(60));
            engine
        };
        // The run is deterministic: a first pass finds when each t3
        // instance is restored, a second stops there and reads its state.
        let mut probe = build();
        probe.run_until(SimTime::from_secs(300));
        assert!(probe.trace().migration_completed_at().is_some(), "{name}: completed");
        assert_eq!(probe.stats().events_dropped, 0, "{name}: nothing dropped");
        let restores: Vec<(SimTime, InstanceId, u32)> = probe
            .trace()
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::InstanceRestored { instance, at, pending_replayed } => {
                    Some((at, instance, pending_replayed))
                }
                _ => None,
            })
            .filter(|&(_, i, _)| instances.task_of(i) == t3)
            .collect();
        assert_eq!(restores.len(), instances.of_task(t3).len(), "{name}: every t3 restored");

        // A restore moves the captured events out of the blob, so read
        // every blob just before the first restore.
        let mut engine = build();
        let first = restores.iter().map(|&(at, _, _)| at).min().expect("t3 has instances");
        engine.run_until(SimTime::from_micros(first.as_micros() - 1));
        let mut store = engine.store().clone();
        for (at, i, replayed) in restores {
            let blob = store.restore(i, committed).expect("the instance committed");
            engine.run_until(at);
            assert!(blob.processed > 0, "{name}: {i} committed real state");
            assert_eq!(engine.processed_count(i), blob.processed, "{name}: {i} count restored");
            assert_eq!(
                replayed as usize,
                blob.pending.len(),
                "{name}: {i} captured events replayed"
            );
        }
    }
}

/// A whole-instance INIT is priced by the blob it reads. `linear`'s `t3`
/// commits under one partition, so its blob carries no per-partition
/// counters; staging a re-key to 4 partitions before the INIT must not
/// charge the fetch for 4. Each `t3` instance therefore restores at the
/// same instant with and without the staged re-key.
#[test]
fn a_re_keyed_restore_is_priced_by_the_blob_it_reads() {
    let dag = library::linear();
    let t3 = dag.task_by_name("t3").expect("t3 exists");
    assert_eq!(dag.spec(t3).key_partitions(), 1, "t3 commits unkeyed");
    let instances = InstanceSet::plan(&dag);
    let plan = ScalePlan::paper_scenario(&dag, &instances, ScaleDirection::In)
        .expect("scenario placeable");
    let strategies: [&dyn MigrationStrategy; 2] = [&Dcr::new(), &Ccr::new()];
    for strategy in strategies {
        let name = strategy.name();
        let t3_restores = |re_key: bool| {
            let mut engine = Engine::new(
                dag.clone(),
                instances.clone(),
                &plan,
                EngineConfig::default(),
                strategy.protocol(),
                strategy.coordinator(),
                24,
            );
            if re_key {
                engine.stage_logic_update(t3, dag.spec(t3).clone().with_key_partitions(4));
            }
            engine.schedule_migration(SimTime::from_secs(60));
            engine.run_until(SimTime::from_secs(300));
            assert!(engine.trace().migration_completed_at().is_some(), "{name}: completed");
            engine
                .trace()
                .iter()
                .filter_map(|e| match *e {
                    TraceEvent::InstanceRestored { instance, at, .. } => Some((instance, at)),
                    _ => None,
                })
                .filter(|&(i, _)| instances.task_of(i) == t3)
                .collect::<Vec<_>>()
        };
        let plain = t3_restores(false);
        assert_eq!(plain.len(), instances.of_task(t3).len(), "{name}: every t3 restored");
        assert_eq!(t3_restores(true), plain, "{name}: the re-key moved a t3 restore");
    }
}
