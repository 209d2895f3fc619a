//! `flowmig` — command-line runner for single migration experiments.
//!
//! ```text
//! USAGE:
//!   flowmig [--dag NAME] [--strategy dsm|dcr|dcr-parallel-init|ccr|ccr-pipelined|ccr-key-range]
//!           [--direction in|out] [--seed N] [--request-secs N]
//!           [--horizon-secs N] [--shards N] [--parallel-waves FANOUT]
//!           [--store-queueing] [--store-replicas N] [--store-quorum K]
//!           [--shard-outage SHARD:AT_SECS:DOWN_SECS]
//!           [--key-skew PARTITIONS:EXPONENT (PARTITIONS <= 65536)]
//!           [--scope all|hot|hot:PERMILLE]
//!           [--no-wave-timeout] [--transport-buffer N]
//!           [--queue-backend heap|calendar]
//!           [--csv throughput|latency]
//! ```
//!
//! Prints the §4 metrics for one run of the paper's protocol, or a CSV
//! series for external plotting. Strategies are enumerated from the core
//! registry ([`flowmig::core::strategies`]) — a plan registered there is
//! immediately runnable here, listed in `--help`, with no CLI changes.

use flowmig::core::{strategies, strategy_named};
use flowmig::prelude::*;
use flowmig::workloads::{latency_csv, throughput_csv};
use std::process::ExitCode;

/// The largest key space `--key-skew` accepts. Every keyed task keeps
/// per-partition weights and thresholds, and each of its instances
/// per-partition counters: at this bound a `--dag gridx64` run peaks near
/// 1 GB of memory, and a key space of 4e9 partitions would need a 32-GB
/// weight vector per task.
const MAX_KEY_PARTITIONS: u32 = 65_536;

struct Args {
    dag: String,
    strategy: String,
    direction: ScaleDirection,
    seed: u64,
    request_secs: u64,
    horizon_secs: u64,
    shards: Option<usize>,
    parallel_waves: Option<usize>,
    store_queueing: bool,
    store_replicas: Option<usize>,
    store_quorum: Option<usize>,
    shard_outages: Vec<(usize, u64, u64)>,
    key_skew: Option<(u32, u32)>,
    scope: Option<u16>,
    no_wave_timeout: bool,
    transport_buffer: Option<usize>,
    queue_backend: Option<QueueBackend>,
    csv: Option<String>,
}

fn usage() -> ExitCode {
    let names: Vec<&str> = strategies().iter().map(|info| info.cli_name).collect();
    eprintln!(
        "usage: flowmig [--dag linear|diamond|star|grid|traffic|linearN|gridxN] \
         [--strategy {}] [--direction in|out] [--seed N] \
         [--request-secs N] [--horizon-secs N] [--shards N] \
         [--parallel-waves FANOUT (0 = derived from store shards)] \
         [--store-queueing (per-shard FIFO store contention)] \
         [--store-replicas N (replicate each shard N ways)] \
         [--store-quorum K (persists complete at the K-th fastest replica)] \
         [--shard-outage SHARD:AT_SECS:DOWN_SECS (repeatable; kill a shard mid-run)] \
         [--key-skew PARTITIONS:EXPONENT (Zipf-key every operator task; PARTITIONS <= {})] \
         [--scope all|hot|hot:PERMILLE (ccr-key-range hot-weight target; all = 1000)] \
         [--no-wave-timeout (ccr-key-range: wait out saturated hot owners)] \
         [--transport-buffer N (channel rerouting buffer slots)] \
         [--queue-backend heap|calendar (future-event list; identical results, different speed)] \
         [--csv throughput|latency]\n\nstrategies:",
        names.join("|"),
        MAX_KEY_PARTITIONS
    );
    for info in strategies() {
        eprintln!("  {:<14} {}", info.cli_name, info.paper_name);
    }
    ExitCode::FAILURE
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        dag: "grid".to_owned(),
        strategy: "ccr".to_owned(),
        direction: ScaleDirection::In,
        seed: 42,
        request_secs: 180,
        horizon_secs: 720,
        shards: None,
        parallel_waves: None,
        store_queueing: false,
        store_replicas: None,
        store_quorum: None,
        shard_outages: Vec::new(),
        key_skew: None,
        scope: None,
        no_wave_timeout: false,
        transport_buffer: None,
        queue_backend: None,
        csv: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--dag" => args.dag = value()?,
            "--strategy" => args.strategy = value()?,
            "--direction" => {
                args.direction = match value()?.as_str() {
                    "in" => ScaleDirection::In,
                    "out" => ScaleDirection::Out,
                    other => return Err(format!("unknown direction `{other}`")),
                }
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("bad seed: {e}"))?,
            "--request-secs" => {
                args.request_secs = value()?.parse().map_err(|e| format!("bad time: {e}"))?
            }
            "--horizon-secs" => {
                args.horizon_secs = value()?.parse().map_err(|e| format!("bad time: {e}"))?
            }
            "--shards" => {
                let n: usize = value()?.parse().map_err(|e| format!("bad shard count: {e}"))?;
                if n == 0 {
                    return Err("a sharded store needs at least one shard".to_owned());
                }
                args.shards = Some(n);
            }
            "--parallel-waves" => {
                args.parallel_waves =
                    Some(value()?.parse().map_err(|e| format!("bad fan-out: {e}"))?)
            }
            "--store-queueing" => args.store_queueing = true,
            "--store-replicas" => {
                let n: usize = value()?.parse().map_err(|e| format!("bad replica count: {e}"))?;
                if n == 0 {
                    return Err("a replicated store needs at least one replica".to_owned());
                }
                args.store_replicas = Some(n);
            }
            "--store-quorum" => {
                let k: usize = value()?.parse().map_err(|e| format!("bad quorum: {e}"))?;
                if k == 0 {
                    return Err("a write quorum needs at least one replica".to_owned());
                }
                args.store_quorum = Some(k);
            }
            "--shard-outage" => {
                let spec = value()?;
                let parts: Vec<&str> = spec.split(':').collect();
                let [shard, at, down] = parts[..] else {
                    return Err(format!("bad outage `{spec}`: want SHARD:AT_SECS:DOWN_SECS"));
                };
                args.shard_outages.push((
                    shard.parse().map_err(|e| format!("bad outage shard: {e}"))?,
                    at.parse().map_err(|e| format!("bad outage start: {e}"))?,
                    down.parse().map_err(|e| format!("bad outage duration: {e}"))?,
                ));
            }
            "--key-skew" => {
                let spec = value()?;
                let parts: Vec<&str> = spec.split(':').collect();
                let [partitions, exponent] = parts[..] else {
                    return Err(format!("bad key skew `{spec}`: want PARTITIONS:EXPONENT"));
                };
                let partitions: u32 =
                    partitions.parse().map_err(|e| format!("bad key partitions: {e}"))?;
                if partitions == 0 {
                    return Err("a keyed task needs at least one key partition".to_owned());
                }
                if partitions > MAX_KEY_PARTITIONS {
                    return Err(format!(
                        "--key-skew allows at most {MAX_KEY_PARTITIONS} key partitions, \
                         got {partitions}"
                    ));
                }
                args.key_skew = Some((
                    partitions,
                    exponent.parse().map_err(|e| format!("bad skew exponent: {e}"))?,
                ));
            }
            "--scope" => {
                let spec = value()?;
                args.scope = Some(match spec.as_str() {
                    "all" => 1000,
                    "hot" => 600,
                    other => match other.strip_prefix("hot:") {
                        Some(p) => {
                            let permille: u16 =
                                p.parse().map_err(|e| format!("bad scope permille: {e}"))?;
                            if permille == 0 || permille > 1000 {
                                return Err(format!(
                                    "scope permille must be in 1..=1000, got {permille}"
                                ));
                            }
                            permille
                        }
                        None => return Err(format!("unknown scope `{other}`")),
                    },
                });
            }
            "--no-wave-timeout" => args.no_wave_timeout = true,
            "--transport-buffer" => {
                let n: usize = value()?.parse().map_err(|e| format!("bad buffer size: {e}"))?;
                if n == 0 {
                    return Err("a transport buffer needs at least one slot".to_owned());
                }
                args.transport_buffer = Some(n);
            }
            "--queue-backend" => {
                args.queue_backend = Some(value()?.parse().map_err(|e: String| e)?)
            }
            "--csv" => args.csv = Some(value()?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn dag_by_name(name: &str) -> Option<Dataflow> {
    match name {
        "linear" => Some(library::linear()),
        "diamond" => Some(library::diamond()),
        "star" => Some(library::star()),
        "grid" => Some(library::grid()),
        "traffic" => Some(library::traffic()),
        _ => {
            if let Some(n) = name.strip_prefix("gridx") {
                return n
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0 && n <= 64)
                    .map(library::grid_scaled);
            }
            name.strip_prefix("linear")
                .and_then(|n| n.parse::<usize>().ok())
                .filter(|&n| n > 0 && n <= 500)
                .map(library::linear_n)
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            return usage();
        }
    };
    let Some(mut dag) = dag_by_name(&args.dag) else {
        eprintln!("error: unknown dataflow `{}`", args.dag);
        return usage();
    };
    if let Some((partitions, exponent)) = args.key_skew {
        dag = library::zipf_keyed(&dag, partitions, exponent);
    }
    let mut config = EngineConfig::default();
    if let Some(slots) = args.transport_buffer {
        config.transport_buffer = slots;
    }
    if let Some(shards) = args.shards {
        config.store_shards = shards;
    }
    if let Some(backend) = args.queue_backend {
        config.queue_backend = backend;
    }
    if args.store_queueing {
        config.store_service = StoreServiceModel::FifoPerShard;
    }
    if args.store_quorum.is_some() && args.store_replicas.is_none() {
        eprintln!("error: --store-quorum needs --store-replicas");
        return usage();
    }
    if let Some(replicas) = args.store_replicas {
        // Unspecified quorum defaults to a majority of the replica set.
        let quorum = args.store_quorum.unwrap_or(replicas / 2 + 1);
        if quorum > replicas {
            eprintln!("error: --store-quorum {quorum} exceeds --store-replicas {replicas}");
            return usage();
        }
        config.store_replication = StoreReplication::new(replicas, quorum);
    }
    // The run would panic on an outage of a shard the store does not have;
    // reject it here like any other bad flag.
    let shards = config.store_shards;
    if let Some(&(shard, ..)) = args.shard_outages.iter().find(|&&(shard, ..)| shard >= shards) {
        eprintln!(
            "error: --shard-outage names shard {shard}, but the store has {shards} shards \
             (0..={})",
            shards - 1
        );
        return usage();
    }
    let mut controller = MigrationController::new()
        .with_engine_config(config)
        .with_request_at(SimTime::from_secs(args.request_secs))
        .with_horizon(SimTime::from_secs(args.horizon_secs))
        .with_seed(args.seed);
    for &(shard, at, down) in &args.shard_outages {
        controller = controller.with_shard_outage(
            shard,
            SimTime::from_secs(at),
            SimDuration::from_secs(down),
        );
    }
    // One registry lookup covers parsing, listing and construction: any
    // plan registered in flowmig-core is runnable here by its cli name.
    let Some(info) = strategy_named(&args.strategy) else {
        eprintln!("error: unknown strategy `{}`", args.strategy);
        return usage();
    };
    if args.scope.is_some() && info.cli_name != "ccr-key-range" {
        eprintln!("error: --scope only applies to --strategy ccr-key-range");
        return usage();
    }
    if args.no_wave_timeout && args.scope.is_none() {
        eprintln!("error: --no-wave-timeout only applies to --strategy ccr-key-range with --scope");
        return usage();
    }
    let strategy: Box<dyn MigrationStrategy> = match args.scope {
        Some(permille) => {
            let mut s = CcrKeyRange::new().with_hot_permille(permille);
            if args.no_wave_timeout {
                // A Zipf hot owner can run past utilization 1 and delay its
                // PREPARE beyond the default wave deadline; waiting it out
                // turns the honest abort into a (slow) completed migration.
                s = s.without_wave_timeout();
            }
            Box::new(match args.parallel_waves {
                Some(fan_out) => s.with_fan_out(fan_out),
                None => s,
            })
        }
        None => info.build(args.parallel_waves),
    };
    let result = controller.run(&dag, strategy.as_ref(), args.direction);
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if outcome.budget_exhausted {
        // Every sim event the run dispatched counts against the budget.
        eprintln!(
            "error: the run exhausted its event budget of {} sim events before the {}s \
             horizon; its results would cover a truncated timeline",
            outcome.stats.sim_events, args.horizon_secs
        );
        return ExitCode::FAILURE;
    }

    if let Some(kind) = args.csv {
        let origin = outcome.trace.migration_requested_at().unwrap_or(SimTime::ZERO);
        match kind.as_str() {
            "throughput" => {
                print!("{}", throughput_csv(&outcome.trace, SimDuration::from_secs(10), origin))
            }
            "latency" => {
                print!("{}", latency_csv(&outcome.trace, SimDuration::from_secs(10), origin))
            }
            other => {
                eprintln!("error: unknown csv series `{other}`");
                return usage();
            }
        }
        return ExitCode::SUCCESS;
    }

    println!(
        "{} {} {} (seed {}, migrate @{}s, horizon {}s)",
        dag.name(),
        args.direction,
        outcome.strategy,
        args.seed,
        args.request_secs,
        args.horizon_secs
    );
    println!("  completed:     {}", outcome.completed);
    println!(
        "  dispatch:      {} sim events (peak {} pending, {} window rotations)",
        outcome.stats.sim_events, outcome.stats.queue_peak_pending, outcome.stats.queue_rotations
    );
    println!("  metrics:       {}", outcome.metrics);
    println!(
        "  reliability:   {} dropped, {} roots replayed, {} captured",
        outcome.stats.events_dropped, outcome.stats.replayed_roots, outcome.stats.events_captured
    );
    if args.store_queueing {
        let max_depth = outcome.shard_stats.iter().map(|s| s.max_queue_depth).max().unwrap_or(0);
        println!(
            "  store queue:   {} ops waited {:.2} ms total (max shard depth {})",
            outcome.stats.store_ops_queued,
            outcome.stats.store_wait_us as f64 / 1e3,
            max_depth,
        );
    }
    if args.store_replicas.is_some() || !args.shard_outages.is_empty() {
        println!(
            "  store realism: {} quorum persists ({} degraded), {} ops failed",
            outcome.stats.store_quorum_persists,
            outcome.stats.store_degraded_persists,
            outcome.stats.store_ops_failed,
        );
    }
    if outcome.metrics.ranges_moved > 0 {
        println!(
            "  key ranges:    {} ranges moved {} bytes ({} bytes stayed resident)",
            outcome.metrics.ranges_moved,
            outcome.metrics.moved_bytes,
            outcome.stats.state_bytes_resident,
        );
    }
    ExitCode::SUCCESS
}
