//! Migration latency at scale: sequential vs per-shard **parallel**
//! checkpoint waves on width-scaled Grid dataflows, under both store
//! service models (zero-queueing vs per-shard FIFO contention).
//!
//! The paper's rapid-elasticity claim rests on shrinking the
//! checkpoint/restore critical path. The classic hop-by-hop COMMIT sweep
//! (and DCR's sequential INIT) pays O(instances) control handling along
//! the DAG, while `WaveRouting::Parallel` fans the wave out per store
//! shard with a bounded window, so wave time is the max over shards
//! (≈ instances / (shards × fan_out) store round-trips).
//!
//! Grid widths 3/6/12 give 48/96/192 wave participants (16 × width:
//! 15 operator tasks + the sink). Worker-ready delays are zeroed so the
//! measured restore span is the INIT wave itself, not the simulated JVM
//! spawn (which is identical for both routings and would drown the
//! comparison in a fixed 5–35 s draw).
//!
//! `CcrPipelined` ("pipelined" rows) additionally routes PREPARE through
//! the store-shard windows with the fan-out **derived** from the shard
//! count (`Parallel { fan_out: 0 }`). The `store=fifo` rows re-run DCR
//! and CCR-P with `StoreServiceModel::FifoPerShard`: each shard is a FIFO
//! single-server queue, so the derived window's per-shard fair share
//! actually binds — a 1-shard store must serialize a 192-instance wave
//! instead of absorbing it for free, which is the contention shape the
//! zero-queueing rows cannot show.
//!
//! Environment:
//!
//! * `BENCH_MIGRATION_JSON=path` writes a machine-readable summary
//!   including per-shard queueing stats (CI uploads it as
//!   `BENCH_migration.json`);
//! * exits non-zero on any perf/model-regression tripwire: parallel
//!   COMMIT not faster than sequential at the largest size (192
//!   instances), commit+restore speedup below 3x at 96 instances /
//!   8 shards, or — the contention gate — the 192-instance/1-shard
//!   `CCR-P` row *not* penalized vs 8 shards under FIFO queueing (which
//!   would mean contention no longer binds).
//!
//! The replication rows re-run CCR-P at 96 instances / 8 shards with a
//! 3-replica store at write quorum 2 vs 3, and two realism-tier tripwires
//! guard the store failure model: a quorum-2-of-3 COMMIT must be strictly
//! cheaper than waiting on all 3 replicas (the whole point of a quorum),
//! and a 1-shard outage spanning the COMMIT window must abort the
//! migration down the ROLLBACK path rather than complete or wedge.
//!
//! The skew rows re-run the 96-instance point on a Zipf-keyed grid
//! (`grid_zipf(6, 8, 2)`: 8 key partitions per operator task, exponent 2,
//! so partition 0 carries ~65% of the weight) under a small 2-shard FIFO
//! store. `CCR-KR` scopes its waves to the hot key ranges — only the ~15
//! hot-range owners persist/fetch, versus every one of the 96 participants
//! for `CCR-P` — and the skew tripwire requires the scoped commit+restore
//! path to be >= 2x faster while moving < 25% of the durable state bytes.
//! Both strategies run `without_wave_timeout()`: keyed routing saturates
//! the hot owner, whose request-time backlog delays PREPARE past the
//! default 30 s wave timeout (an honest model outcome — skewed scenarios
//! must extend it).
//!
//! The scale rows run `grid_scaled(625)` — **10,000 wave participants** —
//! under CCR-P once per future-event-list backend (`heap` vs `calendar`)
//! on the same seed. The backends are provably order-identical, so the
//! simulated outcome must match bit-for-bit (a tripwire exits non-zero if
//! it does not); what differs is host wall-clock and the DES dispatch
//! rate, both reported per row.

use flowmig_bench::{banner, BENCH_SEEDS};
use flowmig_cluster::ScaleDirection;
use flowmig_core::{Ccr, CcrKeyRange, CcrPipelined, Dcr, MigrationController, MigrationStrategy};
use flowmig_engine::{EngineConfig, StoreLatencyModel, StoreServiceModel};
use flowmig_metrics::{ControlKind, TraceEvent};
use flowmig_sim::{QueueBackend, SimDuration, SimTime};
use flowmig_topology::library;
use flowmig_workloads::TextTable;
use std::fmt::Write as _;
use std::time::Instant;

/// Grid widths under test: 16 × width wave participants.
const WIDTHS: [usize; 3] = [3, 6, 12];
/// Store shard counts under test.
const SHARDS: [usize; 3] = [1, 4, 8];
/// Per-shard window for the parallel variants.
const FAN_OUT: usize = 4;

/// One (dag, shards, strategy, routing, store model) cell, averaged over
/// the seeds.
struct Cell {
    dag: String,
    participants: usize,
    shards: usize,
    strategy: &'static str,
    waves: &'static str,
    store: &'static str,
    /// Replication label: `-` for the unreplicated rows, else `KofN`
    /// (write quorum K over N replicas per shard).
    replication: String,
    /// Wave-scope label: `-` for whole-instance rows, else the hot-weight
    /// target of the key-range scope (e.g. `hot:600`).
    scope: String,
    /// Future-event-list backend the row ran under.
    backend: &'static str,
    /// Mean DES events dispatched by the simulation driver over the run.
    sim_events: f64,
    /// Mean durable state bytes persisted to the store (processed counter
    /// plus per-key-partition counters; captured pending events are replay
    /// traffic, not state, and are excluded).
    moved_bytes: f64,
    commit_ms: f64,
    restore_ms: f64,
    wall_ms: f64,
    /// Mean total time ops spent waiting in shard queues (all shards).
    queued_wait_ms: f64,
    /// Mean count of ops that waited.
    queued_ops: f64,
    /// Mean of the deepest per-shard in-flight window observed.
    max_queue_depth: f64,
}

impl Cell {
    fn total_ms(&self) -> f64 {
        self.commit_ms + self.restore_ms
    }

    /// DES dispatch throughput: simulated events per host wall second.
    fn events_per_sec(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.sim_events / (self.wall_ms / 1e3)
        } else {
            0.0
        }
    }
}

fn backend_label(backend: QueueBackend) -> &'static str {
    match backend {
        QueueBackend::Heap => "heap",
        QueueBackend::Calendar => "calendar",
    }
}

fn store_label(service: StoreServiceModel) -> &'static str {
    match service {
        StoreServiceModel::Unqueued => "flat",
        StoreServiceModel::FifoPerShard => "fifo",
    }
}

fn controller(shards: usize, seed: u64, service: StoreServiceModel) -> MigrationController {
    // Isolate the wave critical path: zero worker-ready delay (identical
    // for both routings), everything else at paper defaults.
    let config = EngineConfig {
        worker_ready_min: SimDuration::ZERO,
        worker_ready_max: SimDuration::ZERO,
        ..EngineConfig::default()
    };
    MigrationController::new()
        .with_engine_config(config)
        .with_store_shards(shards)
        .with_store_service(service)
        .with_request_at(SimTime::from_secs(30))
        .with_horizon(SimTime::from_secs(90))
        .with_seed(seed)
}

fn measure(
    width: usize,
    shards: usize,
    strategy: &dyn MigrationStrategy,
    waves: &'static str,
    service: StoreServiceModel,
) -> Cell {
    measure_replicated(width, shards, strategy, waves, service, None)
}

fn measure_replicated(
    width: usize,
    shards: usize,
    strategy: &dyn MigrationStrategy,
    waves: &'static str,
    service: StoreServiceModel,
    replication: Option<(usize, usize)>,
) -> Cell {
    let dag = library::grid_scaled(width);
    let (mut commit, mut restore, mut wall) = (0.0, 0.0, 0.0);
    let (mut queued_wait, mut queued_ops, mut max_depth) = (0.0, 0.0, 0.0);
    let (mut moved_bytes, mut sim_events) = (0.0, 0.0);
    for &seed in &BENCH_SEEDS {
        let started = Instant::now();
        let mut c = controller(shards, seed, service);
        if let Some((replicas, quorum)) = replication {
            c = c.with_store_replication(replicas, quorum);
        }
        let out = c.run(&dag, strategy, ScaleDirection::In).expect("scaled grid placeable");
        wall += started.elapsed().as_secs_f64() * 1e3;
        assert!(out.completed, "migration completes ({} {waves} w{width} s{shards})", out.strategy);
        assert_eq!(out.stats.events_dropped, 0, "reliable migration drops nothing");
        commit += out.metrics.commit_wave.expect("commit span").as_millis_f64();
        restore += out.metrics.restore_wave.expect("restore span").as_millis_f64();
        queued_wait += out.stats.store_wait_us as f64 / 1e3;
        queued_ops += out.stats.store_ops_queued as f64;
        max_depth += out.shard_stats.iter().map(|s| s.max_queue_depth).max().unwrap_or(0) as f64;
        moved_bytes += out.stats.state_bytes_moved as f64;
        sim_events += out.stats.sim_events as f64;
    }
    let n = BENCH_SEEDS.len() as f64;
    Cell {
        dag: dag.name().to_owned(),
        participants: 16 * width,
        shards,
        strategy: strategy.name(),
        waves,
        store: store_label(service),
        replication: replication.map_or_else(|| "-".to_owned(), |(n, k)| format!("{k}of{n}")),
        scope: "-".to_owned(),
        backend: backend_label(EngineConfig::default().queue_backend),
        sim_events: sim_events / n,
        moved_bytes: moved_bytes / n,
        commit_ms: commit / n,
        restore_ms: restore / n,
        wall_ms: wall / n,
        queued_wait_ms: queued_wait / n,
        queued_ops: queued_ops / n,
        max_queue_depth: max_depth / n,
    }
}

/// One skew-dimension cell: the 96-instance Zipf-keyed grid under the FIFO
/// store, deliberately run against a *small* (2-shard) store — whole-
/// instance CCR-P must push all 48-per-shard persists through the FIFO
/// queues while CCR-KR's ~15 hot-range owners barely queue at all, which
/// is the skew story: scoped migration stays fast even when the store is
/// modest. Keyed routing saturates the hot key-partition owners, so both
/// strategies run without the wave timeout (the request-time backlog
/// delays PREPARE past 30 s), the request lands early (10 s) to bound
/// that backlog, and the transport buffer is raised so early-restored hot
/// owners replaying their captured backlog do not overflow downstream
/// instances that are still starting. The per-event store pricing is cut
/// to 5 µs so ops stay base-dominated: the hot owners' captured backlog is
/// an identical payload on both strategies' persists and fetches, and at
/// the paper's 50 µs it drowns the round-trip-count differential this
/// dimension exists to measure.
fn measure_skew(strategy: &dyn MigrationStrategy, scope: &str) -> Cell {
    let dag = library::grid_zipf(6, 8, 2);
    let shards = 2;
    let config = EngineConfig {
        worker_ready_min: SimDuration::ZERO,
        worker_ready_max: SimDuration::ZERO,
        transport_buffer: 2048,
        store: StoreLatencyModel {
            per_event: SimDuration::from_micros(5),
            ..StoreLatencyModel::default()
        },
        ..EngineConfig::default()
    };
    let (mut commit, mut restore, mut wall) = (0.0, 0.0, 0.0);
    let (mut queued_wait, mut queued_ops, mut max_depth) = (0.0, 0.0, 0.0);
    let (mut moved_bytes, mut sim_events) = (0.0, 0.0);
    for &seed in &BENCH_SEEDS {
        let started = Instant::now();
        let out = MigrationController::new()
            .with_engine_config(config)
            .with_store_shards(shards)
            .with_store_service(StoreServiceModel::FifoPerShard)
            .with_request_at(SimTime::from_secs(10))
            .with_horizon(SimTime::from_secs(300))
            .with_seed(seed)
            .run(&dag, strategy, ScaleDirection::In)
            .expect("zipf grid placeable");
        wall += started.elapsed().as_secs_f64() * 1e3;
        assert!(out.completed, "skewed migration completes ({} scope {scope})", out.strategy);
        assert_eq!(out.stats.events_dropped, 0, "reliable migration drops nothing");
        commit += out.metrics.commit_wave.expect("commit span").as_millis_f64();
        restore += out.metrics.restore_wave.expect("restore span").as_millis_f64();
        queued_wait += out.stats.store_wait_us as f64 / 1e3;
        queued_ops += out.stats.store_ops_queued as f64;
        max_depth += out.shard_stats.iter().map(|s| s.max_queue_depth).max().unwrap_or(0) as f64;
        moved_bytes += out.stats.state_bytes_moved as f64;
        sim_events += out.stats.sim_events as f64;
    }
    let n = BENCH_SEEDS.len() as f64;
    Cell {
        // `grid_zipf` keeps the scaled grid's name; label the keyed rows
        // distinctly so `find` never confuses them with the unkeyed grid.
        dag: format!("{}-zipf", dag.name()),
        participants: 16 * 6,
        shards,
        strategy: strategy.name(),
        waves: "pipelined",
        store: store_label(StoreServiceModel::FifoPerShard),
        replication: "-".to_owned(),
        scope: scope.to_owned(),
        backend: backend_label(EngineConfig::default().queue_backend),
        sim_events: sim_events / n,
        moved_bytes: moved_bytes / n,
        commit_ms: commit / n,
        restore_ms: restore / n,
        wall_ms: wall / n,
        queued_wait_ms: queued_wait / n,
        queued_ops: queued_ops / n,
        max_queue_depth: max_depth / n,
    }
}

/// One 10k-instance scale cell: `grid_scaled(625)` widens every grid task
/// to 625 instances — 10,000 wave participants — and runs the
/// derived-window CCR-P plan under the given future-event-list backend.
/// Store queueing is left at the zero-queueing compatibility model: the
/// scale dimension measures the *simulator's* dispatch path (the wave
/// fan-out floods the future-event list with tens of thousands of pending
/// deliveries), not store contention, which the fifo rows already cover.
/// One seed bounds bench time — the backend comparison is within-seed, so
/// averaging would only add wall-clock, and the order-identity tripwire in
/// `main` makes any cross-backend divergence fatal anyway.
fn measure_scale(backend: QueueBackend) -> Cell {
    const WIDTH: usize = 625;
    let dag = library::grid_scaled(WIDTH);
    let shards = 32;
    let seed = BENCH_SEEDS[0];
    let started = Instant::now();
    let out = controller(shards, seed, StoreServiceModel::Unqueued)
        .with_queue_backend(backend)
        .run(&dag, &CcrPipelined::new(), ScaleDirection::In)
        .expect("10k-instance grid placeable");
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let label = backend_label(backend);
    assert!(out.completed, "10k-instance migration completes ({label})");
    assert_eq!(out.stats.events_dropped, 0, "reliable migration drops nothing");
    println!(
        "scale @ {} instances [{label}]: {} sim events in {wall_ms:.0} ms \
         ({:.2}M ev/s), peak {} pending, {} window rotations",
        16 * WIDTH,
        out.stats.sim_events,
        out.stats.sim_events as f64 / (wall_ms / 1e3) / 1e6,
        out.stats.queue_peak_pending,
        out.stats.queue_rotations,
    );
    Cell {
        dag: dag.name().to_owned(),
        participants: 16 * WIDTH,
        shards,
        strategy: "CCR-P",
        waves: "pipelined",
        store: store_label(StoreServiceModel::Unqueued),
        replication: "-".to_owned(),
        scope: "-".to_owned(),
        backend: label,
        sim_events: out.stats.sim_events as f64,
        moved_bytes: out.stats.state_bytes_moved as f64,
        commit_ms: out.metrics.commit_wave.expect("commit span").as_millis_f64(),
        restore_ms: out.metrics.restore_wave.expect("restore span").as_millis_f64(),
        wall_ms,
        queued_wait_ms: out.stats.store_wait_us as f64 / 1e3,
        queued_ops: out.stats.store_ops_queued as f64,
        max_queue_depth: out.shard_stats.iter().map(|s| s.max_queue_depth).max().unwrap_or(0)
            as f64,
    }
}

/// One JSON summary row. The `scope`, `moved_bytes`, `backend`,
/// `sim_events` and `events_per_sec` keys are additive (appended after the
/// legacy keys) so existing consumers of `BENCH_migration.json` keep
/// parsing; `assert_legacy_json_keys` in main pins the legacy schema.
fn json_row(c: &Cell) -> String {
    let mut row = String::new();
    let _ = write!(
        row,
        "  {{\"dag\": \"{}\", \"participants\": {}, \"shards\": {}, \"strategy\": \"{}\", \
         \"waves\": \"{}\", \"store\": \"{}\", \"replication\": \"{}\", \
         \"commit_ms\": {:.3}, \"restore_ms\": {:.3}, \
         \"total_ms\": {:.3}, \"wall_ms\": {:.3}, \"queued_wait_ms\": {:.3}, \
         \"queued_ops\": {:.1}, \"max_queue_depth\": {:.1}, \
         \"scope\": \"{}\", \"moved_bytes\": {:.0}, \
         \"backend\": \"{}\", \"sim_events\": {:.0}, \"events_per_sec\": {:.0}}}",
        c.dag,
        c.participants,
        c.shards,
        c.strategy,
        c.waves,
        c.store,
        c.replication,
        c.commit_ms,
        c.restore_ms,
        c.total_ms(),
        c.wall_ms,
        c.queued_wait_ms,
        c.queued_ops,
        c.max_queue_depth,
        c.scope,
        c.moved_bytes,
        c.backend,
        c.sim_events,
        c.events_per_sec(),
    );
    row
}

/// The JSON exporter grew `scope`/`moved_bytes` fields for the key-range
/// rows; every key the previous schema emitted must still be present, or
/// downstream consumers of the CI artifact silently break.
fn assert_legacy_json_keys(cells: &[Cell]) {
    let sample = json_row(cells.first().expect("at least one cell"));
    for key in [
        "dag",
        "participants",
        "shards",
        "strategy",
        "waves",
        "store",
        "replication",
        "commit_ms",
        "restore_ms",
        "total_ms",
        "wall_ms",
        "queued_wait_ms",
        "queued_ops",
        "max_queue_depth",
    ] {
        assert!(
            sample.contains(&format!("\"{key}\":")),
            "legacy JSON key `{key}` missing from bench summary row: {sample}"
        );
    }
}

fn export_json(cells: &[Cell]) {
    let Ok(path) = std::env::var("BENCH_MIGRATION_JSON") else {
        return;
    };
    let rows: Vec<String> = cells.iter().map(json_row).collect();
    let body = format!("[\n{}\n]\n", rows.join(",\n"));
    if let Err(err) = std::fs::write(&path, body) {
        eprintln!("migration_latency: cannot write {path}: {err}");
    }
}

fn find<'a>(
    cells: &'a [Cell],
    width: usize,
    shards: usize,
    strategy: &str,
    waves: &str,
    store: &str,
) -> &'a Cell {
    cells
        .iter()
        .find(|c| {
            c.participants == 16 * width
                && c.shards == shards
                && c.strategy == strategy
                && c.waves == waves
                && c.store == store
                && c.replication == "-"
                && c.scope == "-"
                && !c.dag.contains("zipf")
        })
        .expect("cell measured")
}

fn find_replicated<'a>(cells: &'a [Cell], replication: &str) -> &'a Cell {
    cells.iter().find(|c| c.replication == replication).expect("replicated cell measured")
}

fn main() {
    banner(
        "migration_latency",
        "simulated COMMIT+INIT wave time: sequential vs parallel vs pipelined, flat vs fifo store",
    );
    let flat = StoreServiceModel::Unqueued;
    let fifo = StoreServiceModel::FifoPerShard;
    let mut cells: Vec<Cell> = Vec::new();
    for &width in &WIDTHS {
        for &shards in &SHARDS {
            cells.push(measure(width, shards, &Dcr::new(), "sequential", flat));
            cells.push(measure(
                width,
                shards,
                &Dcr::new().with_parallel_waves(FAN_OUT),
                "parallel",
                flat,
            ));
            cells.push(measure(width, shards, &Ccr::new(), "sequential", flat));
            cells.push(measure(
                width,
                shards,
                &Ccr::new().with_parallel_waves(FAN_OUT),
                "parallel",
                flat,
            ));
            // Fan-out derived from the shard count (0), PREPARE included.
            cells.push(measure(width, shards, &CcrPipelined::new(), "pipelined", flat));
            // Contention rows: the same sequential sweep (near-immune, at
            // most one op per shard in flight along the DAG) and the
            // derived-window pipelined plan (the stressor) under per-shard
            // FIFO queueing.
            cells.push(measure(width, shards, &Dcr::new(), "sequential", fifo));
            cells.push(measure(width, shards, &CcrPipelined::new(), "pipelined", fifo));
        }
    }
    // Replication rows: CCR-P at the headline point (96 instances /
    // 8 shards) with a 3-replica store, quorum 2 vs quorum 3. The quorum-2
    // persist completes at the 2nd-fastest replica; quorum 3 waits for the
    // slowest rung of the lag ladder.
    for quorum in [2, 3] {
        cells.push(measure_replicated(
            6,
            8,
            &CcrPipelined::new(),
            "pipelined",
            flat,
            Some((3, quorum)),
        ));
    }
    // Skew rows: whole-instance CCR-P vs key-range-scoped CCR-KR on the
    // Zipf-keyed 96-instance grid under the FIFO store.
    cells.push(measure_skew(&CcrPipelined::new().without_wave_timeout(), "-"));
    cells.push(measure_skew(&CcrKeyRange::new().without_wave_timeout(), "hot:600"));
    // Scale rows: the 10,000-participant grid, once per future-event-list
    // backend on the same seed — order-identity checked below.
    for backend in [QueueBackend::Heap, QueueBackend::Calendar] {
        cells.push(measure_scale(backend));
    }

    let mut table = TextTable::new(&[
        "DAG",
        "instances",
        "shards",
        "strategy",
        "waves",
        "store",
        "repl",
        "scope",
        "backend",
        "commit (ms)",
        "restore (ms)",
        "commit+restore (ms)",
        "queue wait (ms)",
        "max depth",
        "state bytes",
        "host wall (ms)",
    ]);
    for c in &cells {
        table.row_owned(vec![
            c.dag.clone(),
            c.participants.to_string(),
            c.shards.to_string(),
            c.strategy.to_owned(),
            c.waves.to_owned(),
            c.store.to_owned(),
            c.replication.clone(),
            c.scope.clone(),
            c.backend.to_owned(),
            format!("{:.2}", c.commit_ms),
            format!("{:.2}", c.restore_ms),
            format!("{:.2}", c.total_ms()),
            format!("{:.2}", c.queued_wait_ms),
            format!("{:.1}", c.max_queue_depth),
            format!("{:.0}", c.moved_bytes),
            format!("{:.1}", c.wall_ms),
        ]);
    }
    println!("{table}");
    assert_legacy_json_keys(&cells);
    export_json(&cells);

    // Headline number: restore+commit speedup at 96 instances / 8 shards.
    for strategy in ["DCR", "CCR"] {
        let seq = find(&cells, 6, 8, strategy, "sequential", "flat");
        let par = find(&cells, 6, 8, strategy, "parallel", "flat");
        let speedup = seq.total_ms() / par.total_ms();
        println!(
            "{strategy} @ 96 instances, 8 shards: commit+restore {:.2} ms -> {:.2} ms ({speedup:.1}x)",
            seq.total_ms(),
            par.total_ms(),
        );
        assert!(
            speedup >= 3.0,
            "{strategy}: parallel waves must be >= 3x faster at 96 instances / 8 shards, got {speedup:.2}x"
        );
    }

    // CcrPipelined vs classic CCR at the same point: the derived-window
    // pipelined plan against both the sequential sweep and the hand-tuned
    // parallel variant.
    {
        let seq = find(&cells, 6, 8, "CCR", "sequential", "flat");
        let par = find(&cells, 6, 8, "CCR", "parallel", "flat");
        let pip = find(&cells, 6, 8, "CCR-P", "pipelined", "flat");
        println!(
            "CCR-P @ 96 instances, 8 shards: commit+restore {:.2} ms \
             (CCR sequential {:.2} ms, CCR parallel fan_out={FAN_OUT} {:.2} ms)",
            pip.total_ms(),
            seq.total_ms(),
            par.total_ms(),
        );
    }

    // CI tripwire: at the largest size, parallel COMMIT must beat the
    // sequential sweep, or the step fails.
    let widest = *WIDTHS.iter().max().expect("widths non-empty");
    let most_shards = *SHARDS.iter().max().expect("shards non-empty");
    for strategy in ["DCR", "CCR"] {
        let seq = find(&cells, widest, most_shards, strategy, "sequential", "flat");
        let par = find(&cells, widest, most_shards, strategy, "parallel", "flat");
        if par.commit_ms >= seq.commit_ms {
            eprintln!(
                "PERF REGRESSION: {strategy} parallel COMMIT ({:.2} ms) is not faster than \
                 sequential ({:.2} ms) at {} instances / {} shards",
                par.commit_ms,
                seq.commit_ms,
                16 * widest,
                most_shards,
            );
            std::process::exit(1);
        }
    }

    // Contention tripwire: under per-shard FIFO queueing, the
    // 192-instance / 1-shard CCR-P wave must pay a measurable penalty
    // relative to 8 shards — that penalty is the proof that the derived
    // fan-out's fair share binds. Under the old flat pricing this ratio
    // was ~1.0 (the "optimistically flat" row); require >= 2x so noise
    // cannot satisfy the gate.
    {
        let one = find(&cells, widest, 1, "CCR-P", "pipelined", "fifo");
        let eight = find(&cells, widest, 8, "CCR-P", "pipelined", "fifo");
        let penalty = one.total_ms() / eight.total_ms();
        println!(
            "CCR-P @ {} instances under fifo store: 1 shard {:.2} ms vs 8 shards {:.2} ms \
             ({penalty:.1}x queueing penalty, {:.2} ms waited on the single shard)",
            16 * widest,
            one.total_ms(),
            eight.total_ms(),
            one.queued_wait_ms,
        );
        if penalty < 2.0 {
            eprintln!(
                "CONTENTION REGRESSION: 1-shard CCR-P at {} instances is not penalized vs \
                 8 shards under the FIFO store model ({:.2} ms vs {:.2} ms, {penalty:.2}x < 2x) — \
                 store queueing no longer binds",
                16 * widest,
                one.total_ms(),
                eight.total_ms(),
            );
            std::process::exit(1);
        }
        if one.queued_wait_ms <= 0.0 {
            eprintln!(
                "CONTENTION REGRESSION: no queueing wait recorded on the saturated 1-shard store"
            );
            std::process::exit(1);
        }
    }
    // Replication tripwire: the quorum-2-of-3 COMMIT must be strictly
    // cheaper than waiting on all 3 replicas — if it is not, the quorum
    // pricing has stopped selecting the k-th fastest completion and the
    // replication model is broken.
    {
        let q2 = find_replicated(&cells, "2of3");
        let q3 = find_replicated(&cells, "3of3");
        println!(
            "CCR-P @ 96 instances, 8 shards, 3 replicas: quorum 2 commit {:.2} ms vs \
             quorum 3 commit {:.2} ms",
            q2.commit_ms, q3.commit_ms,
        );
        if q2.commit_ms >= q3.commit_ms {
            eprintln!(
                "REPLICATION REGRESSION: quorum-2-of-3 COMMIT ({:.2} ms) is not cheaper than \
                 the full 3-replica wait ({:.2} ms) — quorum pricing no longer binds",
                q2.commit_ms, q3.commit_ms,
            );
            std::process::exit(1);
        }
    }

    // Failure tripwire: a full shard-0 outage spanning the COMMIT window
    // must abort the migration through ROLLBACK. Run directly (not via
    // `measure`, which asserts completion): if the run completes anyway,
    // or no ROLLBACK wave is traced, the failure model is broken.
    {
        let out = controller(8, BENCH_SEEDS[0], flat)
            .with_shard_outage(0, SimTime::from_secs(25), SimDuration::from_secs(60))
            .run(&library::grid_scaled(6), &CcrPipelined::new(), ScaleDirection::In)
            .expect("scaled grid placeable");
        let rollbacks = out
            .trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::ControlWave { kind: ControlKind::Rollback, .. }))
            .count();
        println!(
            "CCR-P @ 96 instances with shard 0 down across COMMIT: completed={} \
             rollback_waves={rollbacks} failed_ops={}",
            out.completed, out.stats.store_ops_failed,
        );
        if out.completed || rollbacks == 0 {
            eprintln!(
                "FAILURE-MODEL REGRESSION: a 1-shard outage across the COMMIT window did not \
                 abort through ROLLBACK (completed={}, rollback_waves={rollbacks})",
                out.completed,
            );
            std::process::exit(1);
        }
    }
    // Skew tripwire: on the Zipf-keyed grid, key-range-scoped CCR-KR must
    // finish its commit+restore critical path >= 2x faster than
    // whole-instance CCR-P (only the ~15 hot-range owners take store
    // round-trips through the FIFO shards, vs all 96 participants) while
    // persisting < 25% of the durable state bytes.
    {
        let p =
            cells.iter().find(|c| c.dag.contains("zipf") && c.scope == "-").expect("skew CCR-P");
        let kr =
            cells.iter().find(|c| c.dag.contains("zipf") && c.scope != "-").expect("skew CCR-KR");
        let speedup = p.total_ms() / kr.total_ms();
        let byte_ratio = kr.moved_bytes / p.moved_bytes;
        println!(
            "skewed grid @ 96 instances, fifo store: CCR-KR commit+restore {:.2} ms vs \
             CCR-P {:.2} ms ({speedup:.1}x), moving {:.0} of {:.0} state bytes \
             ({:.0}% of the whole-instance path)",
            kr.total_ms(),
            p.total_ms(),
            kr.moved_bytes,
            p.moved_bytes,
            byte_ratio * 100.0,
        );
        if speedup < 2.0 {
            eprintln!(
                "SKEW REGRESSION: key-range-scoped CCR-KR ({:.2} ms) is not >= 2x faster than \
                 whole-instance CCR-P ({:.2} ms) on the Zipf-keyed grid ({speedup:.2}x < 2x) — \
                 the scoped wave no longer shrinks the store critical path",
                kr.total_ms(),
                p.total_ms(),
            );
            std::process::exit(1);
        }
        if byte_ratio >= 0.25 {
            eprintln!(
                "SKEW REGRESSION: CCR-KR persisted {:.0} durable state bytes vs CCR-P's {:.0} \
                 ({:.0}% >= 25%) — the hot-range scope is no longer leaving cold state resident",
                kr.moved_bytes,
                p.moved_bytes,
                byte_ratio * 100.0,
            );
            std::process::exit(1);
        }
    }
    // Backend order-identity tripwire at scale: the heap and calendar rows
    // ran the same seed on the same 10,000-participant scenario, so every
    // *simulated* quantity must match exactly — a divergence means the
    // calendar queue reordered events and the backend guarantee is broken.
    {
        let scale = |backend: &str| {
            cells
                .iter()
                .find(|c| c.participants == 10_000 && c.backend == backend)
                .expect("scale cell measured")
        };
        let heap = scale("heap");
        let cal = scale("calendar");
        let identical = heap.commit_ms == cal.commit_ms
            && heap.restore_ms == cal.restore_ms
            && heap.sim_events == cal.sim_events
            && heap.moved_bytes == cal.moved_bytes;
        println!(
            "scale @ 10000 instances: heap wall {:.0} ms ({:.2}M ev/s) vs calendar wall \
             {:.0} ms ({:.2}M ev/s), simulated outcome identical={identical}",
            heap.wall_ms,
            heap.events_per_sec() / 1e6,
            cal.wall_ms,
            cal.events_per_sec() / 1e6,
        );
        if !identical {
            eprintln!(
                "BACKEND REGRESSION: heap and calendar disagree on the 10k-instance run \
                 (commit {:.3}/{:.3} ms, restore {:.3}/{:.3} ms, sim events {:.0}/{:.0}, \
                 state bytes {:.0}/{:.0}) — the calendar queue is no longer order-identical",
                heap.commit_ms,
                cal.commit_ms,
                heap.restore_ms,
                cal.restore_ms,
                heap.sim_events,
                cal.sim_events,
                heap.moved_bytes,
                cal.moved_bytes,
            );
            std::process::exit(1);
        }
        // Throughput tripwire (dispatch-model flattening): each 10k-instance
        // row must sustain >= 2x the flat-dispatch baseline measured before
        // the routing tables and the O(1) assignment build landed
        // (~0.44 M ev/s on either backend), or the dispatch path has
        // regressed back toward per-event map lookups.
        const BASELINE_EPS: f64 = 0.44e6;
        for cell in [heap, cal] {
            let eps = cell.events_per_sec();
            if eps < 2.0 * BASELINE_EPS {
                eprintln!(
                    "THROUGHPUT REGRESSION: {} backend sustains {:.2}M ev/s at 10k instances, \
                     below 2x the {:.2}M ev/s flat-dispatch baseline",
                    cell.backend,
                    eps / 1e6,
                    BASELINE_EPS / 1e6,
                );
                std::process::exit(1);
            }
        }
    }
    println!(
        "shape checks passed: parallel COMMIT beats sequential at {} instances, >=3x total \
         at 96/8, 1-shard contention binds under the fifo store, quorum-2 persists beat the \
         full-replica wait, a mid-COMMIT shard outage aborts through ROLLBACK, key-range \
         scope is >=2x faster while moving <25% of state bytes on the skewed grid, the \
         calendar backend reproduces the heap's 10k-instance run bit-for-bit at >=2x the \
         pre-flattening host throughput",
        16 * widest
    );
}
