//! Focused tests of the checkpoint-wave mechanics: alignment, forwarding
//! dedup, capture semantics, wave tracking and flow control — driven
//! through a scripted coordinator so each phase can be observed directly.

use crate::engine::{Engine, EngineCtl};
use crate::protocol::{
    KeyRangeScope, MigrationCoordinator, ProtocolConfig, WaveRouting, WaveScope,
};
use crate::EngineConfig;
use flowmig_cluster::{ScaleDirection, ScalePlan};
use flowmig_metrics::{ControlKind, TraceEvent, TraceLevel};
use flowmig_sim::{SimDuration, SimTime};
use flowmig_topology::{library, Dataflow, InstanceId, InstanceSet, KeyRange, TaskKind};

/// A coordinator that runs exactly one wave of a chosen kind/routing when
/// the migration is requested, and records completion.
struct OneWave {
    kind: ControlKind,
    routing: WaveRouting,
    completed: std::rc::Rc<std::cell::Cell<bool>>,
}

impl MigrationCoordinator for OneWave {
    fn on_migration_requested(&mut self, ctl: &mut EngineCtl<'_, '_>) {
        ctl.reset_wave(self.kind);
        ctl.start_wave(self.kind, self.routing);
    }

    fn on_wave_complete(&mut self, kind: ControlKind, _ctl: &mut EngineCtl<'_, '_>) {
        if kind == self.kind {
            self.completed.set(true);
        }
    }

    fn on_rebalance_complete(&mut self, _ctl: &mut EngineCtl<'_, '_>) {}

    fn on_resend_timer(&mut self, _kind: ControlKind, _ctl: &mut EngineCtl<'_, '_>) {}
}

/// The default engine configuration with every trace event kept, for
/// the tests that read acks, kills and restores from the trace.
fn full_trace() -> EngineConfig {
    EngineConfig { trace: TraceLevel::Full, ..EngineConfig::default() }
}

fn engine_with_wave(
    dag: Dataflow,
    kind: ControlKind,
    routing: WaveRouting,
    protocol: ProtocolConfig,
) -> (Engine, std::rc::Rc<std::cell::Cell<bool>>) {
    let instances = InstanceSet::plan(&dag);
    let plan = ScalePlan::paper_scenario(&dag, &instances, ScaleDirection::In)
        .expect("paper scenario placeable");
    let completed = std::rc::Rc::new(std::cell::Cell::new(false));
    let coordinator = OneWave { kind, routing, completed: std::rc::Rc::clone(&completed) };
    let mut engine =
        Engine::new(dag, instances, &plan, full_trace(), protocol, Box::new(coordinator), 99);
    engine.schedule_migration(SimTime::from_secs(30));
    (engine, completed)
}

#[test]
fn sequential_prepare_aligns_across_multi_instance_upstreams() {
    // Grid's m1 has 3 instances fed by 3 chain tails; every m2 instance
    // must see PREPARE from all 3 m1 instances before acting. If the
    // barrier were broken the wave would complete before sweeping the
    // whole DAG — completion implies every instance aligned and acked.
    let (mut engine, completed) = engine_with_wave(
        library::grid(),
        ControlKind::Prepare,
        WaveRouting::Sequential,
        ProtocolConfig::dcr(),
    );
    engine.run_until(SimTime::from_secs(40));
    assert!(completed.get(), "sequential PREPARE wave completes on grid");
    // Exactly one ControlAcked per participant (22 = 21 operators + sink).
    let acks = engine
        .trace()
        .iter()
        .filter(|e| matches!(e, TraceEvent::ControlAcked { kind: ControlKind::Prepare, .. }))
        .count();
    assert_eq!(acks, 22, "each participant acks the wave exactly once");
}

#[test]
fn wave_acks_are_tracked_past_one_bitset_word() {
    // gridx5 has 75 operator and 5 sink participants, so the participant
    // and ack bitsets span two 64-bit words. A broadcast and a windowed
    // COMMIT each take exactly one ack from every participant, those
    // indexed past 63 included, and complete.
    let dag = library::grid_scaled(5);
    let instances = InstanceSet::plan(&dag);
    let participants: Vec<usize> = instances
        .iter()
        .filter(|&i| dag.spec(instances.task_of(i)).kind() != TaskKind::Source)
        .map(|i| i.index())
        .collect();
    assert_eq!(participants.len(), 80);
    assert!(participants.iter().any(|&i| i >= 64));
    for routing in [WaveRouting::Broadcast, WaveRouting::Parallel { fan_out: 2 }] {
        let (mut engine, completed) =
            engine_with_wave(dag.clone(), ControlKind::Commit, routing, ProtocolConfig::ccr());
        engine.run_until(SimTime::from_secs(60));
        assert!(completed.get(), "{routing:?} COMMIT completes");
        let mut acked: Vec<usize> = engine
            .trace()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::ControlAcked { kind: ControlKind::Commit, instance, .. } => {
                    Some(instance.index())
                }
                _ => None,
            })
            .collect();
        acked.sort_unstable();
        assert_eq!(acked, participants, "{routing:?}: one ack per participant");
    }
}

#[test]
fn broadcast_prepare_reaches_every_instance_without_forwarding() {
    let (mut engine, completed) = engine_with_wave(
        library::star(),
        ControlKind::Prepare,
        WaveRouting::Broadcast,
        ProtocolConfig::ccr(),
    );
    engine.run_until(SimTime::from_secs(40));
    assert!(completed.get(), "broadcast PREPARE completes");
    // Capture is now on at every operator: nothing processes even though
    // the source keeps emitting (it was never paused here).
    let dag = library::star();
    let instances = InstanceSet::plan(&dag);
    engine.run_until(SimTime::from_secs(45));
    for i in instances.user_instances(&dag) {
        assert!(
            engine.captured_len(i) > 0 || engine.queue_depth(i) == 0,
            "operator {i} is capturing (not processing)"
        );
    }
    // The sink does NOT capture (terminal logging task): arrivals continue
    // briefly after PREPARE while upstream queues drain.
    assert!(engine.stats().events_captured > 0);
}

#[test]
fn duplicate_broadcast_waves_are_idempotent() {
    // Two INIT waves in a row: the second is skipped by every initialized
    // instance (the paper's duplicate-INIT rule), so state fetches happen
    // at most once per instance.
    struct TwoInits;
    impl MigrationCoordinator for TwoInits {
        fn on_migration_requested(&mut self, ctl: &mut EngineCtl<'_, '_>) {
            ctl.reset_wave(ControlKind::Init);
            ctl.start_wave(ControlKind::Init, WaveRouting::Broadcast);
            ctl.start_wave(ControlKind::Init, WaveRouting::Broadcast);
        }
        fn on_wave_complete(&mut self, _: ControlKind, _: &mut EngineCtl<'_, '_>) {}
        fn on_rebalance_complete(&mut self, _: &mut EngineCtl<'_, '_>) {}
        fn on_resend_timer(&mut self, _: ControlKind, _: &mut EngineCtl<'_, '_>) {}
    }
    let dag = library::linear();
    let instances = InstanceSet::plan(&dag);
    let plan = ScalePlan::paper_scenario(&dag, &instances, ScaleDirection::In).expect("placeable");
    let mut engine = Engine::new(
        dag,
        instances,
        &plan,
        EngineConfig::default(),
        ProtocolConfig::dcr(),
        Box::new(TwoInits),
        7,
    );
    engine.schedule_migration(SimTime::from_secs(10));
    engine.run_until(SimTime::from_secs(20));
    // All instances were already initialized, so no fetch at all.
    assert_eq!(engine.stats().state_fetches, 0, "initialized instances skip INIT restores");
    // Both waves were recorded.
    let waves = engine
        .trace()
        .iter()
        .filter(|e| matches!(e, TraceEvent::ControlWave { kind: ControlKind::Init, .. }))
        .count();
    assert_eq!(waves, 2);
}

#[test]
fn commit_persists_state_for_every_participant() {
    struct PrepareThenCommit;
    impl MigrationCoordinator for PrepareThenCommit {
        fn on_migration_requested(&mut self, ctl: &mut EngineCtl<'_, '_>) {
            ctl.reset_wave(ControlKind::Prepare);
            ctl.start_wave(ControlKind::Prepare, WaveRouting::Sequential);
        }
        fn on_wave_complete(&mut self, kind: ControlKind, ctl: &mut EngineCtl<'_, '_>) {
            if kind == ControlKind::Prepare {
                ctl.reset_wave(ControlKind::Commit);
                ctl.start_wave(ControlKind::Commit, WaveRouting::Sequential);
            }
        }
        fn on_rebalance_complete(&mut self, _: &mut EngineCtl<'_, '_>) {}
        fn on_resend_timer(&mut self, _: ControlKind, _: &mut EngineCtl<'_, '_>) {}
    }
    let dag = library::traffic();
    let instances = InstanceSet::plan(&dag);
    let participants = instances.user_instance_count(&dag) + 1; // + sink
    let plan = ScalePlan::paper_scenario(&dag, &instances, ScaleDirection::In).expect("placeable");
    let mut engine = Engine::new(
        dag,
        instances,
        &plan,
        EngineConfig::default(),
        ProtocolConfig::dcr(),
        Box::new(PrepareThenCommit),
        13,
    );
    engine.schedule_migration(SimTime::from_secs(30));
    engine.run_until(SimTime::from_secs(60));
    assert_eq!(engine.store().len(), participants, "every participant committed a state blob");
    assert_eq!(engine.stats().state_persists as usize, participants);
}

/// Pauses sources, runs a sequential PREPARE, then a COMMIT with the given
/// routing, recording when the COMMIT wave completes.
struct CommitProbe {
    commit_routing: WaveRouting,
    commit_done_at: std::rc::Rc<std::cell::Cell<Option<SimTime>>>,
}

impl MigrationCoordinator for CommitProbe {
    fn on_migration_requested(&mut self, ctl: &mut EngineCtl<'_, '_>) {
        ctl.pause_sources();
        ctl.reset_wave(ControlKind::Prepare);
        ctl.start_wave(ControlKind::Prepare, WaveRouting::Sequential);
    }
    fn on_wave_complete(&mut self, kind: ControlKind, ctl: &mut EngineCtl<'_, '_>) {
        match kind {
            ControlKind::Prepare => {
                ctl.reset_wave(ControlKind::Commit);
                ctl.start_wave(ControlKind::Commit, self.commit_routing);
            }
            ControlKind::Commit => self.commit_done_at.set(Some(ctl.now())),
            _ => {}
        }
    }
    fn on_rebalance_complete(&mut self, _: &mut EngineCtl<'_, '_>) {}
    fn on_resend_timer(&mut self, _: ControlKind, _: &mut EngineCtl<'_, '_>) {}
}

/// Runs a drain + COMMIT on `dag` and returns (commit completion instant,
/// persist count, store length).
fn run_commit_probe(
    dag: Dataflow,
    commit_routing: WaveRouting,
    store_shards: usize,
) -> (Option<SimTime>, u64, usize) {
    let instances = InstanceSet::plan(&dag);
    let plan = ScalePlan::paper_scenario(&dag, &instances, ScaleDirection::In).expect("placeable");
    let done = std::rc::Rc::new(std::cell::Cell::new(None));
    let coordinator = CommitProbe { commit_routing, commit_done_at: std::rc::Rc::clone(&done) };
    let mut engine = Engine::new(
        dag,
        instances,
        &plan,
        EngineConfig { store_shards, ..EngineConfig::default() },
        ProtocolConfig::dcr(),
        Box::new(coordinator),
        21,
    );
    engine.schedule_migration(SimTime::from_secs(20));
    engine.run_until(SimTime::from_secs(80));
    (done.get(), engine.stats().state_persists, engine.store().len())
}

#[test]
fn parallel_commit_persists_every_participant() {
    let dag = library::grid_scaled(3); // 48 participants
    let participants = 16 * 3;
    let (done, persists, stored) = run_commit_probe(dag, WaveRouting::Parallel { fan_out: 4 }, 8);
    assert!(done.is_some(), "parallel COMMIT wave completes");
    assert_eq!(persists as usize, participants, "one persist per participant");
    assert_eq!(stored, participants, "every participant committed a blob");
}

#[test]
fn parallel_commit_beats_sequential_sweep_on_wide_grid() {
    // 48 participants, 8 store shards: the hop-by-hop sweep pays
    // O(instances) alignment handling along the depth-7 critical path; the
    // per-shard fan-out pays ~instances/(shards × fan_out) store
    // round-trips. Strictly earlier completion, by a wide margin.
    let sequential = run_commit_probe(library::grid_scaled(3), WaveRouting::Sequential, 8)
        .0
        .expect("sequential COMMIT completes");
    let parallel =
        run_commit_probe(library::grid_scaled(3), WaveRouting::Parallel { fan_out: 4 }, 8)
            .0
            .expect("parallel COMMIT completes");
    assert!(
        parallel < sequential,
        "parallel COMMIT ({parallel:?}) must finish strictly before sequential ({sequential:?})"
    );
}

#[test]
fn parallel_commit_time_is_max_over_shards() {
    // Same wave, same fan-out, more shards ⇒ smaller per-shard queue ⇒
    // earlier completion: wave time is the max over shards, not the sum.
    let one = run_commit_probe(library::grid_scaled(3), WaveRouting::Parallel { fan_out: 1 }, 1)
        .0
        .expect("1-shard COMMIT completes");
    let eight = run_commit_probe(library::grid_scaled(3), WaveRouting::Parallel { fan_out: 1 }, 8)
        .0
        .expect("8-shard COMMIT completes");
    assert!(
        eight < one,
        "8 shards ({eight:?}) must commit strictly earlier than 1 shard ({one:?})"
    );
}

#[test]
fn duplicate_parallel_waves_are_idempotent() {
    // Parallel INIT resends must behave like broadcast resends: already
    // initialized instances skip the restore and just re-ack.
    struct TwoParallelInits;
    impl MigrationCoordinator for TwoParallelInits {
        fn on_migration_requested(&mut self, ctl: &mut EngineCtl<'_, '_>) {
            ctl.reset_wave(ControlKind::Init);
            ctl.start_wave(ControlKind::Init, WaveRouting::Parallel { fan_out: 2 });
            ctl.start_wave(ControlKind::Init, WaveRouting::Parallel { fan_out: 2 });
        }
        fn on_wave_complete(&mut self, _: ControlKind, _: &mut EngineCtl<'_, '_>) {}
        fn on_rebalance_complete(&mut self, _: &mut EngineCtl<'_, '_>) {}
        fn on_resend_timer(&mut self, _: ControlKind, _: &mut EngineCtl<'_, '_>) {}
    }
    let dag = library::linear();
    let instances = InstanceSet::plan(&dag);
    let plan = ScalePlan::paper_scenario(&dag, &instances, ScaleDirection::In).expect("placeable");
    let mut engine = Engine::new(
        dag,
        instances,
        &plan,
        EngineConfig::default(),
        ProtocolConfig::dcr(),
        Box::new(TwoParallelInits),
        7,
    );
    engine.schedule_migration(SimTime::from_secs(10));
    engine.run_until(SimTime::from_secs(20));
    assert_eq!(engine.stats().state_fetches, 0, "initialized instances skip INIT restores");
    let waves = engine
        .trace()
        .iter()
        .filter(|e| matches!(e, TraceEvent::ControlWave { kind: ControlKind::Init, .. }))
        .count();
    assert_eq!(waves, 2);
}

#[test]
fn spout_throttles_at_max_pending() {
    // Acking on, but the sink's acks never complete the trees: pick a
    // config with an artificially long tree (kill the sink with an outage
    // so trees never complete) and watch the throttle engage.
    let dag = library::linear();
    let instances = InstanceSet::plan(&dag);
    let sink = instances.of_task(dag.task_by_name("sink").expect("sink"))[0];
    let plan = ScalePlan::paper_scenario(&dag, &instances, ScaleDirection::In).expect("placeable");
    let mut engine = Engine::new(
        dag,
        instances,
        &plan,
        EngineConfig::default(),
        ProtocolConfig::dsm(),
        Box::new(crate::protocol::NoopCoordinator),
        17,
    );
    // Take the sink down for a long stretch: trees cannot complete.
    engine.schedule_outage(sink, SimTime::from_secs(5), SimDuration::from_secs(60));
    engine.run_until(SimTime::from_secs(30));
    assert!(
        engine.stats().spout_throttled > 0,
        "max.spout.pending throttles new emissions once trees stop completing"
    );
    // Emissions stop at the cap (60) plus the few that completed early.
    let emitted = engine.stats().source_emissions;
    assert!(emitted < 120, "throttle caps outstanding emissions, got {emitted}");
}

/// The hot-range scope of the key-range cycle tests: on their Zipf(2)
/// operator, partition 0 alone carries >60 % of the traffic.
const HOT_SCOPE: WaveScope = WaveScope::KeyRanges(KeyRangeScope { hot_weight_permille: 600 });

/// A CCR-style cycle whose COMMIT, rebalance and INIT take the key-range
/// scope [`HOT_SCOPE`], and whose PREPARE takes `prepare`. The COMMIT
/// starts `commit_delay` after the PREPARE wave completes, or at once.
struct KrCycle {
    prepare: WaveScope,
    commit_delay: Option<SimDuration>,
}

impl MigrationCoordinator for KrCycle {
    fn on_migration_requested(&mut self, ctl: &mut EngineCtl<'_, '_>) {
        ctl.reset_wave(ControlKind::Prepare);
        ctl.start_scoped_wave(ControlKind::Prepare, WaveRouting::Broadcast, self.prepare);
    }
    fn on_wave_complete(&mut self, kind: ControlKind, ctl: &mut EngineCtl<'_, '_>) {
        match kind {
            ControlKind::Prepare => match self.commit_delay {
                Some(delay) => ctl.schedule_resend(ControlKind::Commit, delay),
                None => self.on_resend_timer(ControlKind::Commit, ctl),
            },
            ControlKind::Commit => ctl.start_rebalance(),
            _ => {}
        }
    }
    fn on_rebalance_complete(&mut self, ctl: &mut EngineCtl<'_, '_>) {
        ctl.reset_wave(ControlKind::Init);
        ctl.start_scoped_wave(ControlKind::Init, WaveRouting::Broadcast, HOT_SCOPE);
        // The respawned worker drops deliveries until ready: resend
        // like the real strategies do.
        ctl.schedule_resend(ControlKind::Init, SimDuration::from_millis(500));
    }
    fn on_resend_timer(&mut self, kind: ControlKind, ctl: &mut EngineCtl<'_, '_>) {
        if kind == ControlKind::Commit {
            ctl.reset_wave(ControlKind::Commit);
            ctl.start_scoped_wave(ControlKind::Commit, WaveRouting::Broadcast, HOT_SCOPE);
        } else if kind == ControlKind::Init && !ctl.wave_complete(kind) {
            ctl.start_scoped_wave(kind, WaveRouting::Broadcast, HOT_SCOPE);
            ctl.schedule_resend(kind, SimDuration::from_millis(500));
        }
    }
}

/// A keyed 4-replica operator with Zipf(2) keys over 8 partitions, run
/// under `cycle` with the migration requested at 30 s; returns the engine
/// and the operator's replicas.
fn kr_cycle_engine(cycle: KrCycle) -> (Engine, Vec<InstanceId>) {
    let mut b = flowmig_topology::DataflowBuilder::new("kr-cycle");
    let s = b.add(flowmig_topology::TaskSpec::source("s", 8.0));
    let op =
        b.add(flowmig_topology::TaskSpec::operator("op").with_parallelism(4).with_zipf_keys(8, 2));
    let sink = b.add(flowmig_topology::TaskSpec::sink("sink"));
    b.chain(&[s, op, sink]);
    let dag = b.finish().expect("valid dag");
    let op = dag.task_by_name("op").expect("op");
    let instances = InstanceSet::plan(&dag);
    let replicas = instances.of_task(op).to_vec();
    let plan = ScalePlan::paper_scenario(&dag, &instances, ScaleDirection::In).expect("placeable");
    let mut engine = Engine::new(
        dag,
        instances,
        &plan,
        full_trace(),
        ProtocolConfig::ccr(),
        Box::new(cycle),
        23,
    );
    engine.schedule_migration(SimTime::from_secs(30));
    (engine, replicas)
}

#[test]
fn key_range_scoped_cycle_migrates_hot_ranges_only() {
    // Full CCR-style cycle under a key-range scope: the hot set is k[0,1)
    // and only its owner (replica slot 0) participates in the waves and
    // the rebalance. The three cold replicas must keep running untouched
    // while replica 0's hot-range state round-trips through the store.
    use crate::WorkerStatus;

    let (mut engine, replicas) =
        kr_cycle_engine(KrCycle { prepare: HOT_SCOPE, commit_delay: None });
    engine.run_until(SimTime::from_secs(60));

    // Only the hot-range owner was redeployed; the cold replicas never died.
    let killed: Vec<_> = engine
        .trace()
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::InstanceKilled { instance, at } if at >= SimTime::from_secs(30) => {
                Some(instance)
            }
            _ => None,
        })
        .collect();
    assert_eq!(killed, vec![replicas[0]], "only the hot-range owner is rebalanced");
    for &cold in &replicas[1..] {
        assert_eq!(engine.worker_status(cold), WorkerStatus::Running);
        assert!(engine.is_initialized(cold), "cold replicas never de-initialize");
    }

    // One scoped persist + one scoped fetch, addressed by (instance, range).
    assert_eq!(engine.stats().state_persists, 1);
    assert_eq!(engine.stats().state_fetches, 1);
    assert_eq!(engine.store().len(), 1, "exactly one blob was written");
    assert!(engine.store().contains(replicas[0], KeyRange::new(0, 1)), "the hot range k[0,1)");
    assert!(!engine.store().contains(replicas[0], KeyRange::whole(8)), "no whole-instance blob");

    // The trace prices the move: hot bytes moved, cold bytes resident.
    let (moved, resident) = engine
        .trace()
        .iter()
        .find_map(|e| match *e {
            TraceEvent::RangePersist { moved_bytes, resident_bytes, ranges, .. } => {
                assert_eq!(ranges, 1);
                Some((moved_bytes, resident_bytes))
            }
            _ => None,
        })
        .expect("RangePersist recorded");
    assert!(moved > 0, "hot-range blob has bytes");
    // Replica 0 owns partitions {0, 4}; partition 4 stays resident (8 B).
    assert_eq!(resident, 8, "cold partition 4 never touches the store");
    let restored = engine
        .trace()
        .iter()
        .find_map(|e| match *e {
            TraceEvent::RangeRestore { moved_bytes, ranges, .. } => {
                assert_eq!(ranges, 1);
                Some(moved_bytes)
            }
            _ => None,
        })
        .expect("RangeRestore recorded");
    assert_eq!(restored, moved, "restore fetches exactly what commit persisted");

    // State continuity: replica 0's counters survived the round trip and
    // the merged total matches the per-key counters.
    let counts = engine.key_processed(replicas[0]);
    assert!(counts.first().copied().unwrap_or(0) > 0, "hot partition 0 state restored");
    assert_eq!(counts.iter().sum::<u64>(), engine.processed_count(replicas[0]));
}

#[test]
fn key_range_commit_files_only_hot_events_into_the_hot_blob() {
    // A PREPARE that addresses every participant captures all of replica
    // 0's events for 20 s, cold partition 4 included. The key-range COMMIT
    // files the hot ones into the k[0,1) blob and leaves the rest resident
    // (where the rebalance's kill at the same instant drops them: ROADMAP
    // direction 1).
    let hot = KeyRange::new(0, 1);
    let cycle = || KrCycle {
        prepare: WaveScope::AllParticipants,
        commit_delay: Some(SimDuration::from_secs(20)),
    };
    let (mut probe, replicas) = kr_cycle_engine(cycle());
    probe.run_until(SimTime::from_secs(90));
    let persisted_at = probe
        .trace()
        .iter()
        .find_map(|e| match *e {
            TraceEvent::RangePersist { instance, at, .. } if instance == replicas[0] => Some(at),
            _ => None,
        })
        .expect("replica 0 persisted its hot range");

    let (mut engine, _) = kr_cycle_engine(cycle());
    engine.run_until(persisted_at - SimDuration::from_micros(1));
    let captured = engine.captured_len(replicas[0]);
    engine.run_until(persisted_at);
    let blob = engine.store().peek(replicas[0], hot).expect("hot blob");
    let zipf = flowmig_topology::TaskSpec::operator("op").with_zipf_keys(8, 2);
    let partition = |root: u64| zipf.partition_of(crate::engine::key_hash(root));
    assert!(!blob.pending.is_empty(), "hot captured events are persisted");
    assert!(blob.pending.iter().all(|d| hot.contains(partition(d.root.0))), "only hot events");
    assert!(blob.pending.len() < captured, "cold captured events stay out of the hot blob");
}
