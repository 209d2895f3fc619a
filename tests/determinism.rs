//! Seed-determinism guard for the engine hot paths.
//!
//! Same seed ⇒ bit-identical `TraceLog` and `EngineStats` for every
//! strategy (DSM/DCR/CCR/CCR-P) on every library dataflow, run twice. This
//! is the behavior-preservation proof for the acker expiry wheel, the
//! sharded state store, the batched event-queue dispatch, and the
//! plan-interpreting `PlanCoordinator`: any nondeterminism or ordering
//! drift those refactors introduced would diverge the traces. The
//! PR 3 coordinator baselines are additionally pinned as FNV-1a hashes
//! (`plan_driven_strategies_reproduce_the_hardcoded_coordinator_traces`),
//! so the plan IR cannot silently reshape a default timeline.
//!
//! Every run here records its trace at `TraceLevel::Full`, so the pins
//! cover every event kind; `trace_hash` also checks that the Metrics level
//! keeps every metric of each pinned run.
//!
//! The store realism models (FIFO queueing, replication, shard outages)
//! stay **opt-in** until calibrated against measured Redis behavior: every
//! default-config pin in this file must hold byte for byte no matter how
//! those models evolve, and the realism tiers get their own pinned
//! matrices below (`quorum_replicated_ccr_pipelined_matrix_is_pinned`,
//! `shard_outage_abort_timeline_is_pinned`).

mod metrics_oracle;

use flowmig::core::{CcrPipelined, DcrParallelInit};
use flowmig::prelude::*;

/// FNV-1a over the debug rendering of every trace event — a stable,
/// pinnable digest of a full simulated timeline. Every hashed trace also
/// checks the one-pass `MigrationMetrics::from_trace` against the
/// multi-pass oracle, under the paper's criteria at the run's own
/// pre-request output rate, on the full trace and on its events that the
/// Metrics level keeps; both must give the same metrics.
fn trace_hash(trace: &TraceLog) -> u64 {
    assert_eq!(trace.level(), TraceLevel::Full, "pins digest full traces");
    let request = trace.migration_requested_at().expect("every hashed run requests a migration");
    let steady = trace
        .iter()
        .filter(|e| matches!(e, TraceEvent::SinkArrival { at, .. } if *at < request))
        .count();
    let criteria = StabilityCriteria::paper(steady as f64 / request.as_secs_f64());
    let bucket = SimDuration::from_secs(10);
    let metrics = MigrationMetrics::from_trace(trace, &criteria, bucket);
    assert_eq!(
        metrics,
        metrics_oracle::metrics(trace, &criteria, bucket),
        "the metrics fold left the oracle"
    );
    let mut lean = TraceLog::new();
    lean.extend(trace.iter().copied());
    assert_eq!(
        MigrationMetrics::from_trace(&lean, &criteria, bucket),
        metrics,
        "the Metrics level lost a metric"
    );
    assert_eq!(
        metrics_oracle::metrics(&lean, &criteria, bucket),
        metrics,
        "the oracle left the fold at the Metrics level"
    );
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for ev in trace.iter() {
        for b in format!("{ev:?}").bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

fn dags() -> Vec<Dataflow> {
    vec![
        library::linear(),
        library::diamond(),
        library::star(),
        library::grid(),
        library::traffic(),
    ]
}

fn strategies() -> Vec<Box<dyn MigrationStrategy>> {
    vec![Box::new(Dsm::new()), Box::new(Dcr::new()), Box::new(Ccr::new())]
}

/// The default engine configuration, tracing every event.
fn full() -> EngineConfig {
    EngineConfig { trace: TraceLevel::Full, ..EngineConfig::default() }
}

/// A shortened paper protocol (migration at 1 min, 5-minute horizon) keeps
/// the 5 × 3 × 2 run matrix fast while still crossing every phase:
/// steady state, checkpoint waves, rebalance, restore, and re-stabilized
/// flow.
fn controller(seed: u64) -> MigrationController {
    MigrationController::new()
        .with_engine_config(full())
        .with_request_at(SimTime::from_secs(60))
        .with_horizon(SimTime::from_secs(300))
        .with_seed(seed)
}

#[test]
fn same_seed_gives_identical_trace_and_stats_for_all_strategies_and_dags() {
    for dag in dags() {
        for strategy in strategies() {
            let first = controller(7)
                .run(&dag, strategy.as_ref(), ScaleDirection::In)
                .expect("paper scenario placeable");
            let second = controller(7)
                .run(&dag, strategy.as_ref(), ScaleDirection::In)
                .expect("paper scenario placeable");
            let label = format!("{} on {}", first.strategy, dag.name());
            assert_eq!(first.stats, second.stats, "stats diverged: {label}");
            assert_eq!(first.trace, second.trace, "trace diverged: {label}");
            assert!(!first.trace.is_empty(), "empty trace would vacuously pass: {label}");
        }
    }
}

/// The same three strategies with per-shard parallel COMMIT/INIT waves
/// (`WaveRouting::Parallel`, window 4 — DSM keeps its sequential periodic
/// PREPARE, DCR its sequential drain, CCR its broadcast capture).
fn parallel_strategies() -> Vec<Box<dyn MigrationStrategy>> {
    vec![
        Box::new(Dsm::new().with_parallel_waves(4)),
        Box::new(Dcr::new().with_parallel_waves(4)),
        Box::new(Ccr::new().with_parallel_waves(4)),
    ]
}

#[test]
fn parallel_waves_are_seed_deterministic_on_all_dags() {
    // The bounded-fan-out windows advance from completion events, so any
    // ordering nondeterminism in the per-shard queues would diverge the
    // traces immediately.
    for dag in dags() {
        for strategy in parallel_strategies() {
            let first = controller(7)
                .run(&dag, strategy.as_ref(), ScaleDirection::In)
                .expect("paper scenario placeable");
            let second = controller(7)
                .run(&dag, strategy.as_ref(), ScaleDirection::In)
                .expect("paper scenario placeable");
            let label = format!("parallel {} on {}", first.strategy, dag.name());
            assert_eq!(first.stats, second.stats, "stats diverged: {label}");
            assert_eq!(first.trace, second.trace, "trace diverged: {label}");
            assert!(!first.trace.is_empty(), "empty trace would vacuously pass: {label}");
        }
    }
}

#[test]
fn parallel_commit_completes_strictly_earlier_than_sequential_on_wide_grid() {
    // Regression tripwire for the parallel-wave optimization itself:
    // on gridx3 (48 wave participants ≥ 32) with the default 8-shard
    // store, DCR's COMMIT phase must close strictly earlier in simulated
    // time when fanned out per shard than when swept hop by hop.
    let dag = library::grid_scaled(3);
    let sequential =
        controller(7).run(&dag, &Dcr::new(), ScaleDirection::In).expect("paper scenario placeable");
    let parallel = controller(7)
        .run(&dag, &Dcr::new().with_parallel_waves(4), ScaleDirection::In)
        .expect("paper scenario placeable");
    assert!(sequential.completed && parallel.completed);
    let seq_commit = sequential.metrics.commit_wave.expect("sequential commit span");
    let par_commit = parallel.metrics.commit_wave.expect("parallel commit span");
    assert!(
        par_commit < seq_commit,
        "parallel COMMIT ({par_commit:?}) must beat sequential ({seq_commit:?}) at 48 instances"
    );
    // Reliability is untouched by the rerouting.
    assert_eq!(parallel.stats.events_dropped, 0);
    assert_eq!(parallel.stats.replayed_roots, 0);
}

/// The PR 3 hand-written coordinators (`DsmCoordinator`,
/// `PhasedCoordinator`) were replaced by the generic plan interpreter;
/// these hashes were computed from the hardcoded coordinators at commit
/// dd3bd8d with exactly this harness (seed 7, request 60 s, horizon
/// 300 s, scale-in). The plan-driven strategies must reproduce them
/// byte for byte.
const PR3_BASELINE: [(&str, &str, u64); 15] = [
    ("DSM", "linear", 0x4ae570fce7021224),
    ("DSM", "diamond", 0x1d91426f34143494),
    ("DSM", "star", 0xa1e2289ca471cd33),
    ("DSM", "grid", 0x502cbdb7dbc9a4b2),
    ("DSM", "traffic", 0xcebaba46a5d8ec5c),
    ("DCR", "linear", 0x071afb70a0b615fe),
    ("DCR", "diamond", 0x90cbe75417178e0a),
    ("DCR", "star", 0x08b6a5197cfed7a1),
    ("DCR", "grid", 0xa9e183f453d6914f),
    ("DCR", "traffic", 0x38841e336ee458c8),
    ("CCR", "linear", 0x144eb0b9e14dc0e2),
    ("CCR", "diamond", 0xc6bed943c2dfe274),
    ("CCR", "star", 0x9a084492ed2e564f),
    ("CCR", "grid", 0x0ba42c8d0f23f446),
    ("CCR", "traffic", 0xecc5e6bdbbe7ce20),
];

#[test]
fn plan_driven_strategies_reproduce_the_hardcoded_coordinator_traces() {
    let mut checked = 0;
    for strategy in strategies() {
        for dag in dags() {
            let out = controller(7)
                .run(&dag, strategy.as_ref(), ScaleDirection::In)
                .expect("paper scenario placeable");
            let pinned = PR3_BASELINE
                .iter()
                .find(|(s, d, _)| *s == out.strategy && *d == dag.name())
                .unwrap_or_else(|| panic!("no baseline for {} on {}", out.strategy, dag.name()));
            assert_eq!(
                trace_hash(&out.trace),
                pinned.2,
                "plan-driven {} on {} diverged from the PR 3 hardcoded coordinator",
                out.strategy,
                dag.name()
            );
            checked += 1;
        }
    }
    assert_eq!(checked, PR3_BASELINE.len());
}

/// The `CcrPipelined` matrix, pinned: every wave `Parallel { fan_out: 0 }`
/// (window derived from the 8-shard default store), across all five paper
/// DAGs. Run-twice equality guards nondeterminism; the pinned hashes guard
/// unintended timeline drift in future engine or interpreter changes.
#[test]
fn ccr_pipelined_matrix_is_pinned_and_deterministic() {
    const PINNED: [(&str, u64); 5] = [
        ("linear", 0x2456c08b82eccde3),
        ("diamond", 0x2aac789be9d7e555),
        ("star", 0xcf9e709c5f745494),
        ("grid", 0xfd86d6db3afcb553),
        ("traffic", 0x6baaa959292ac621),
    ];
    for dag in dags() {
        let first = controller(7)
            .run(&dag, &CcrPipelined::new(), ScaleDirection::In)
            .expect("paper scenario placeable");
        let second = controller(7)
            .run(&dag, &CcrPipelined::new(), ScaleDirection::In)
            .expect("paper scenario placeable");
        assert_eq!(first.stats, second.stats, "stats diverged: CCR-P on {}", dag.name());
        assert_eq!(first.trace, second.trace, "trace diverged: CCR-P on {}", dag.name());
        assert!(first.completed, "CCR-P completes on {}", dag.name());
        assert_eq!(first.stats.events_dropped, 0, "CCR-P loses nothing on {}", dag.name());
        assert_eq!(first.stats.replayed_roots, 0, "CCR-P replays nothing on {}", dag.name());
        let pinned = PINNED
            .iter()
            .find(|(d, _)| *d == dag.name())
            .unwrap_or_else(|| panic!("no pin for {}", dag.name()));
        assert_eq!(trace_hash(&first.trace), pinned.1, "CCR-P timeline drifted on {}", dag.name());
    }
}

/// The `DcrParallelInit` matrix, pinned: sequential PREPARE/COMMIT (the
/// full drain guarantee) with only the INIT wave `Parallel { fan_out: 0 }`
/// (window derived from the 8-shard default store), across all five paper
/// DAGs. Run-twice equality guards nondeterminism; the pinned hashes guard
/// timeline drift. Mismatches are collected and reported together so one
/// run shows the whole matrix.
#[test]
fn dcr_parallel_init_matrix_is_pinned_and_deterministic() {
    const PINNED: [(&str, u64); 5] = [
        ("linear", 0x7d0ebf7c824a502c),
        ("diamond", 0xe79e0858feacd7eb),
        ("star", 0xccd25e42b0052129),
        ("grid", 0xd5dfc727886d0f9b),
        ("traffic", 0xdc51cac38802b7a4),
    ];
    let mut mismatches = Vec::new();
    for dag in dags() {
        let first = controller(7)
            .run(&dag, &DcrParallelInit::new(), ScaleDirection::In)
            .expect("paper scenario placeable");
        let second = controller(7)
            .run(&dag, &DcrParallelInit::new(), ScaleDirection::In)
            .expect("paper scenario placeable");
        assert_eq!(first.stats, second.stats, "stats diverged: DCR-PI on {}", dag.name());
        assert_eq!(first.trace, second.trace, "trace diverged: DCR-PI on {}", dag.name());
        assert!(first.completed, "DCR-PI completes on {}", dag.name());
        assert_eq!(first.stats.events_dropped, 0, "DCR-PI loses nothing on {}", dag.name());
        assert_eq!(first.stats.replayed_roots, 0, "DCR-PI replays nothing on {}", dag.name());
        let pinned = PINNED
            .iter()
            .find(|(d, _)| *d == dag.name())
            .unwrap_or_else(|| panic!("no pin for {}", dag.name()));
        let hash = trace_hash(&first.trace);
        if hash != pinned.1 {
            mismatches.push(format!("(\"{}\", {hash:#018x})", dag.name()));
        }
    }
    assert!(
        mismatches.is_empty(),
        "DCR-PI timelines drifted; actual hashes:\n{}",
        mismatches.join(",\n")
    );
}

/// The replication tier, pinned: CCR-P with a 2-of-3 quorum store across
/// all five paper DAGs. Every persist is repriced to the 2nd-fastest
/// replica, so these hashes intentionally differ from the unreplicated
/// CCR-P matrix — but they must not drift once pinned. Run-twice equality
/// guards nondeterminism in the replica lag ladder; mismatches are
/// collected and reported together so one run shows the whole matrix.
#[test]
fn quorum_replicated_ccr_pipelined_matrix_is_pinned() {
    const PINNED: [(&str, u64); 5] = [
        ("linear", 0x29ffae4684b08d53),
        ("diamond", 0x0c892b8e5288958d),
        ("star", 0x9c66236835a2f723),
        ("grid", 0x9feb048729a9eb61),
        ("traffic", 0xca9a47769c646c17),
    ];
    let run = |dag: &Dataflow| {
        controller(7)
            .with_engine_config(EngineConfig {
                store_replication: StoreReplication::new(3, 2),
                ..full()
            })
            .run(dag, &CcrPipelined::new(), ScaleDirection::In)
            .expect("paper scenario placeable")
    };
    let mut mismatches = Vec::new();
    for dag in dags() {
        let first = run(&dag);
        let second = run(&dag);
        assert_eq!(first.stats, second.stats, "stats diverged: quorum CCR-P on {}", dag.name());
        assert_eq!(first.trace, second.trace, "trace diverged: quorum CCR-P on {}", dag.name());
        assert!(first.completed, "quorum CCR-P completes on {}", dag.name());
        assert!(
            first.stats.store_quorum_persists > 0,
            "the quorum path actually ran on {}",
            dag.name()
        );
        assert_eq!(first.stats.events_dropped, 0, "quorum CCR-P loses nothing on {}", dag.name());
        let pinned = PINNED
            .iter()
            .find(|(d, _)| *d == dag.name())
            .unwrap_or_else(|| panic!("no pin for {}", dag.name()));
        let hash = trace_hash(&first.trace);
        if hash != pinned.1 {
            mismatches.push(format!("(\"{}\", {hash:#018x})", dag.name()));
        }
    }
    assert!(
        mismatches.is_empty(),
        "quorum CCR-P timelines drifted; actual hashes:\n{}",
        mismatches.join(",\n")
    );
}

/// The failure tier, pinned: a full shard-0 outage spanning DCR's COMMIT
/// window on the grid dataflow. The stalled wave must time out into
/// ROLLBACK deterministically — the abort timeline (outage events, failed
/// persists, rollback wave, resumed flow) is as pinnable as a success.
#[test]
fn shard_outage_abort_timeline_is_pinned() {
    const PINNED: u64 = 0xfcf107c2a155002c;
    let run = || {
        controller(7)
            .with_shard_outage(0, SimTime::from_secs(50), SimDuration::from_secs(200))
            .run(&library::grid(), &Dcr::new(), ScaleDirection::In)
            .expect("paper scenario placeable")
    };
    let first = run();
    let second = run();
    assert_eq!(first.stats, second.stats, "stats diverged: shard-outage DCR");
    assert_eq!(first.trace, second.trace, "trace diverged: shard-outage DCR");
    assert!(!first.completed, "the dead shard must abort the migration");
    assert!(first.stats.store_ops_failed > 0, "persists against shard 0 failed");
    let hash = trace_hash(&first.trace);
    assert_eq!(hash, PINNED, "shard-outage abort timeline drifted; actual {hash:#018x}");
}

/// The `CcrKeyRange` matrix, pinned: key-range-scoped waves
/// (`WaveScope::KeyRanges`, hot weight 600‰) across all five paper DAGs.
/// The library DAGs are unkeyed (one partition per task), so the hot
/// range covers everything and CCR-KR degenerates to whole-instance
/// behavior — no `RangePersist` events, nothing resident — but the scoped
/// wave plumbing (scope resolution, scoped ack targets, derived fan-out
/// from the scoped count) is still on the timeline. Run-twice equality
/// guards nondeterminism; the pins guard drift.
#[test]
fn ccr_key_range_matrix_is_pinned_and_deterministic() {
    const PINNED: [(&str, u64); 5] = [
        ("linear", 0xa6f95d2b60d93387),
        ("diamond", 0xaefab2b9bd412f5e),
        ("star", 0x877d00a6b37af5be),
        ("grid", 0xaa744f94bd1379b8),
        ("traffic", 0x46033e476176352a),
    ];
    let mut mismatches = Vec::new();
    for dag in dags() {
        let first = controller(7)
            .run(&dag, &CcrKeyRange::new(), ScaleDirection::In)
            .expect("paper scenario placeable");
        let second = controller(7)
            .run(&dag, &CcrKeyRange::new(), ScaleDirection::In)
            .expect("paper scenario placeable");
        assert_eq!(first.stats, second.stats, "stats diverged: CCR-KR on {}", dag.name());
        assert_eq!(first.trace, second.trace, "trace diverged: CCR-KR on {}", dag.name());
        assert!(first.completed, "CCR-KR completes on {}", dag.name());
        assert_eq!(first.stats.events_dropped, 0, "CCR-KR loses nothing on {}", dag.name());
        assert_eq!(
            first.stats.state_bytes_resident,
            0,
            "unkeyed DAGs leave nothing resident on {}",
            dag.name()
        );
        let pinned = PINNED
            .iter()
            .find(|(d, _)| *d == dag.name())
            .unwrap_or_else(|| panic!("no pin for {}", dag.name()));
        let hash = trace_hash(&first.trace);
        if hash != pinned.1 {
            mismatches.push(format!("(\"{}\", {hash:#018x})", dag.name()));
        }
    }
    assert!(
        mismatches.is_empty(),
        "CCR-KR timelines drifted; actual hashes:\n{}",
        mismatches.join(",\n")
    );
}

/// The skew tier, pinned: CCR-KR on the Zipf-keyed grid
/// (`grid_zipf(3, 8, 2)` — partition 0 carries ~65% of every operator
/// task's weight). Keyed routing saturates the hot partition owners, so
/// the wave timeout is lifted (their request-time backlog delays PREPARE
/// past 30 s) and the transport buffer is raised so the staggered restore
/// replay cannot overflow still-starting downstream workers. This run
/// exercises everything the unkeyed matrix cannot: keyed routing, capture
/// filtered to the hot ranges, `RangePersist`/`RangeRestore` events, and
/// resident cold state.
#[test]
fn skewed_grid_key_range_timeline_is_pinned() {
    const PINNED: u64 = 0x65299689230df4fd;
    let run = || {
        let config = EngineConfig { transport_buffer: 2048, ..full() };
        controller(7)
            .with_engine_config(config)
            .with_horizon(SimTime::from_secs(400))
            .run(
                &library::grid_zipf(3, 8, 2),
                &CcrKeyRange::new().without_wave_timeout(),
                ScaleDirection::In,
            )
            .expect("paper scenario placeable")
    };
    let first = run();
    let second = run();
    assert_eq!(first.stats, second.stats, "stats diverged: skewed-grid CCR-KR");
    assert_eq!(first.trace, second.trace, "trace diverged: skewed-grid CCR-KR");
    assert!(first.completed, "CCR-KR completes on the skewed grid");
    assert_eq!(first.stats.events_dropped, 0, "nothing lost under skew");
    assert!(first.metrics.ranges_moved > 0, "hot ranges actually moved");
    assert!(first.stats.state_bytes_resident > 0, "cold state stayed resident");
    let hash = trace_hash(&first.trace);
    assert_eq!(hash, PINNED, "skewed-grid CCR-KR timeline drifted; actual {hash:#018x}");
}

/// Large-scope rebalance regression for the respawn bitset: on
/// `grid_zipf(6, 8, 2)` (96 instances) CCR-KR resolves a key-range scope
/// covering dozens of hot-range owners, and every delivery into the dead
/// window consults the scope — formerly an O(|scope|) `Vec::contains`
/// per event, now an instance-indexed bitset. A mis-indexed or stale
/// bitset flips the buffer-vs-drop decision for mid-respawn deliveries
/// and drifts the timeline, so the run is pinned and must also be
/// byte-identical across queue backends and across repeated runs.
#[test]
fn large_scope_rebalance_traces_are_identical_and_pinned() {
    const PINNED: u64 = 0x0250af2cd6231029;
    let run = |queue_backend: QueueBackend| {
        let config = EngineConfig { transport_buffer: 4096, queue_backend, ..full() };
        controller(7)
            .with_engine_config(config)
            .with_horizon(SimTime::from_secs(400))
            .run(
                &library::grid_zipf(6, 8, 2),
                &CcrKeyRange::new().without_wave_timeout(),
                ScaleDirection::In,
            )
            .expect("wide zipf grid placeable")
    };
    let heap = run(QueueBackend::Heap);
    let again = run(QueueBackend::Heap);
    let calendar = run(QueueBackend::Calendar);
    assert_eq!(heap.stats, again.stats, "stats diverged across runs");
    assert_eq!(heap.trace, again.trace, "trace diverged across runs");
    // `queue_rotations` is a backend-implementation counter (always 0 on
    // the heap); every simulation-visible stat must agree.
    let normalized = EngineStats { queue_rotations: heap.stats.queue_rotations, ..calendar.stats };
    assert_eq!(heap.stats, normalized, "stats diverged across backends");
    assert_eq!(heap.trace, calendar.trace, "trace diverged across backends");
    assert!(heap.completed, "large-scope CCR-KR completes");
    assert_eq!(heap.stats.events_dropped, 0, "mid-respawn deliveries were buffered, not dropped");
    assert!(heap.metrics.ranges_moved > 0, "the key-range scope actually resolved");
    let hash = trace_hash(&heap.trace);
    assert_eq!(hash, PINNED, "large-scope rebalance timeline drifted; actual {hash:#018x}");
}

/// The calendar queue backend must be *provably order-identical* to the
/// heap: the same 5-DAG x 3-strategy matrix, run under
/// `QueueBackend::Calendar`, must reproduce the PR 3 pinned hashes byte
/// for byte. Combined with the backend-equivalence proptest this is the
/// proof that backend choice is purely a performance knob.
#[test]
fn calendar_backend_reproduces_every_default_pin() {
    let mut mismatches = Vec::new();
    for strategy in strategies() {
        for dag in dags() {
            let out = controller(7)
                .with_engine_config(EngineConfig {
                    queue_backend: QueueBackend::Calendar,
                    ..full()
                })
                .run(&dag, strategy.as_ref(), ScaleDirection::In)
                .expect("paper scenario placeable");
            let pinned = PR3_BASELINE
                .iter()
                .find(|(s, d, _)| *s == out.strategy && *d == dag.name())
                .unwrap_or_else(|| panic!("no baseline for {} on {}", out.strategy, dag.name()));
            let hash = trace_hash(&out.trace);
            if hash != pinned.2 {
                mismatches.push(format!(
                    "{} on {}: {hash:#018x} != pinned {:#018x}",
                    out.strategy,
                    dag.name(),
                    pinned.2
                ));
            }
            assert!(out.stats.queue_peak_pending > 0, "the calendar run actually queued events");
        }
    }
    assert!(
        mismatches.is_empty(),
        "calendar backend diverged from the heap-pinned timelines:\n{}",
        mismatches.join("\n")
    );
}

/// The trace level changes only what the trace keeps. One seed run at
/// both levels gives the same stats, store counters and metrics, and the
/// Metrics trace is exactly the Full trace without the ten kinds no
/// analyzer reads. DSM's kill fails roots and drops events, so seven of
/// the ten occur in its run; CCR-P adds windowed waves. CCR on a 2-shard
/// FIFO store of 3 replicas, with shard 0 down across its COMMIT, records
/// the other three: queue waits, quorum persists and failed operations.
#[test]
fn the_metrics_level_keeps_the_full_trace_but_ten_kinds() {
    let full_only = |e: &TraceEvent| {
        matches!(
            e,
            TraceEvent::RootAcked { .. }
                | TraceEvent::RootFailed { .. }
                | TraceEvent::ControlAcked { .. }
                | TraceEvent::InstanceKilled { .. }
                | TraceEvent::WorkerReady { .. }
                | TraceEvent::InstanceRestored { .. }
                | TraceEvent::EventDropped { .. }
                | TraceEvent::StoreQueueWait { .. }
                | TraceEvent::QuorumPersist { .. }
                | TraceEvent::StoreOpFailed { .. }
        )
    };
    let store = EngineConfig {
        store_shards: 2,
        store_service: StoreServiceModel::FifoPerShard,
        store_replication: StoreReplication::new(3, 2),
        ..EngineConfig::default()
    };
    // (strategy, engine config, whether shard 0 is down from 62 s to 92 s)
    let cases: [(&dyn MigrationStrategy, EngineConfig, bool); 3] = [
        (&Dsm::new(), EngineConfig::default(), false),
        (&CcrPipelined::new(), EngineConfig::default(), false),
        (&Ccr::new(), store, true),
    ];
    let mut left_out = std::collections::HashSet::new();
    for (strategy, config, outage) in cases {
        let run = |trace| {
            let mut c = controller(7).with_engine_config(EngineConfig { trace, ..config });
            if outage {
                c = c.with_shard_outage(0, SimTime::from_secs(62), SimDuration::from_secs(30));
            }
            c.run(&library::grid(), strategy, ScaleDirection::In).expect("paper scenario placeable")
        };
        let (lean, full) = (run(TraceLevel::Metrics), run(TraceLevel::Full));
        let name = full.strategy;
        assert_eq!(lean.stats, full.stats, "{name}: stats");
        assert_eq!(lean.shard_stats, full.shard_stats, "{name}: store counters");
        assert_eq!(lean.metrics, full.metrics, "{name}: metrics");
        assert_eq!(lean.completed, full.completed, "{name}: completion");
        let kept: Vec<TraceEvent> = full.trace.iter().copied().filter(|e| !full_only(e)).collect();
        assert_eq!(lean.trace.iter().copied().collect::<Vec<_>>(), kept, "{name}: kept events");
        assert_eq!(lean.trace.last_at(), full.trace.last_at(), "{name}: last instant");
        let kinds: std::collections::HashSet<_> =
            full.trace.iter().filter(|e| full_only(e)).map(std::mem::discriminant).collect();
        if name == "DSM" {
            assert_eq!(kinds.len(), 7, "DSM's run records seven left-out kinds");
        }
        left_out.extend(kinds);
    }
    assert_eq!(left_out.len(), 10, "the runs record every left-out kind");
}

#[test]
fn different_seeds_actually_diverge() {
    // Sanity check that the equality above is meaningful: jitter draws
    // depend on the seed, so two seeds must not produce the same trace.
    let a = controller(7).run(&library::linear(), &Dcr::new(), ScaleDirection::In).unwrap();
    let b = controller(8).run(&library::linear(), &Dcr::new(), ScaleDirection::In).unwrap();
    assert_ne!(a.trace, b.trace, "seeds must steer the run");
}

/// `Engine::new` hands [`EngineConfig::event_budget`] to the simulation:
/// a run that meets its budget stops at exactly that many sim events,
/// reports it in `budget_exhausted`, and stops at the same event every
/// time. A run within the default budget leaves the flag clear.
#[test]
fn budget_exhaustion_stops_at_the_budget_and_is_reported() {
    const BUDGET: u64 = 50_000;
    let run = |event_budget: u64| {
        let config = EngineConfig { event_budget, ..full() };
        controller(7)
            .with_engine_config(config)
            .run(&library::traffic(), &Ccr::new(), ScaleDirection::In)
            .expect("paper scenario placeable")
    };
    let first = run(BUDGET);
    assert_eq!(first.stats.sim_events, BUDGET, "the budget bit at exactly its count");
    assert!(first.budget_exhausted, "the truncated run is reported");
    let again = run(BUDGET);
    assert!(again.budget_exhausted);
    assert_eq!(first.stats, again.stats, "the budget cuts at the same event every time");
    assert_eq!(first.trace, again.trace, "truncated timelines must match event for event");
    let whole = run(EngineConfig::default().event_budget);
    assert!(!whole.budget_exhausted, "a run within its budget reaches the horizon");
    assert!(whole.stats.sim_events > BUDGET, "the budget cut the first run short");
}
