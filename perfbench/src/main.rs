//! `perfbench --workload NAME --seed N --seconds N --trace 0|1`
//!
//! Runs one workload in a closed loop, one simulation at a time, for the
//! given number of seconds after a warm-up pass, checks every run, and
//! prints one JSON result line: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. The traced run also writes its
//! spans to `spans/<workload>-seed<N>.jsonl` beside this package's
//! manifest. The exit code is non-zero if any run failed a check.

use flowmig_engine::EngineConfig;
use flowmig_sim::QueueBackend;
use perfbench::report::{self, Metric, Sample};
use perfbench::{check, execute, SimOutcome, Suite, Tracer, Workload};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload paper-suite|scale-10k|skew-fifo \
                     [--seed N] [--seconds N] [--trace 0|1]";

/// The host metrics come from at least this many runs, so that at least
/// ten samples lie beyond the reported p90.
const MIN_SAMPLES: usize = 100;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1, 10, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// Counts attempted and failed runs, reporting each failure.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, label: impl FnOnce() -> String, result: Result<SimOutcome, String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            eprintln!("perfbench: run {} failed: {why}", label());
        }
    }

    fn ok_ratio(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

/// The warm-up pass: runs every scenario once and keeps each outcome as
/// the reference its repeats must reproduce.
fn reference_pass(suite: &Suite, tally: &mut Tally) -> Vec<Option<SimOutcome>> {
    suite
        .scenarios
        .iter()
        .map(|scenario| {
            let run = execute(suite, scenario, None, false);
            let result = check(&run, scenario, None);
            let outcome = result.as_ref().ok().copied();
            tally.record(|| scenario.label(suite), result);
            outcome
        })
        .collect()
}

/// One pass over every scenario; returns each run's sample.
fn pass(
    suite: &Suite,
    reference: &[Option<SimOutcome>],
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer>,
) -> Vec<Sample> {
    suite
        .scenarios
        .iter()
        .zip(reference)
        .map(|(scenario, reference)| {
            let run = execute(suite, scenario, tracer.as_deref_mut(), false);
            tally.record(|| scenario.label(suite), check(&run, scenario, reference.as_ref()));
            Sample { times: run.times, sim_events: run.stats.sim_events }
        })
        .collect()
}

/// Peak resident set of this process, in MB, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn wall_ms(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.times.total().as_secs_f64() * 1e3).collect()
}

fn run(args: &Args) -> Result<(Tally, Vec<Metric>), String> {
    let mut tracer = Tracer::new();
    let build = tracer.open("topology.build", None);
    let suite = args.workload.build(args.seed);
    tracer.close(build, 0, 0);

    let config = EngineConfig::default();
    let backend = match config.queue_backend {
        QueueBackend::Heap => "heap",
        QueueBackend::Calendar => "calendar",
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    let record = format!(
        "workload={} seed={} scenarios={} queue_backend={backend} sim_executor={} nproc={nproc} \
         profile={profile} trace={}",
        args.workload.name(),
        args.seed,
        suite.scenarios.len(),
        config.sim_workers,
        u8::from(args.trace),
    );
    println!("perfbench: {record}");

    let mut tally = Tally::default();
    let reference = reference_pass(&suite, &mut tally);
    let outcomes: Vec<SimOutcome> = reference.iter().flatten().copied().collect();
    if outcomes.is_empty() {
        return Err("every warm-up run failed its checks".to_owned());
    }
    let deadline = Duration::from_secs(args.seconds);
    let started = Instant::now();

    if !args.trace {
        // Whole passes only, so every scenario weighs the same in the
        // host metrics.
        let mut samples = Vec::new();
        while started.elapsed() < deadline || samples.len() < MIN_SAMPLES {
            samples.extend(pass(&suite, &reference, &mut tally, None));
        }
        println!(
            "perfbench: {} measured runs in {:.1} s, {} passes over {} scenarios; \
             run_wall_ms.p90 has {} samples beyond it",
            samples.len(),
            started.elapsed().as_secs_f64(),
            samples.len() / suite.scenarios.len(),
            suite.scenarios.len(),
            report::beyond_p90(samples.len()),
        );
        let metrics = report::end_to_end(&samples, &outcomes, tally.ok_ratio(), peak_rss_mb()?);
        return Ok((tally, metrics));
    }

    // Interleave untraced and traced passes so both see the same machine
    // state; their median run walls give the tracing overhead.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    while started.elapsed() < deadline || traced.is_empty() {
        untraced.extend(wall_ms(&pass(&suite, &reference, &mut tally, None)));
        traced.extend(wall_ms(&pass(&suite, &reference, &mut tally, Some(&mut tracer))));
    }
    println!(
        "perfbench: {} untraced and {} traced runs in {:.1} s",
        untraced.len(),
        traced.len(),
        started.elapsed().as_secs_f64()
    );
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("spans");
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
    std::fs::create_dir_all(&dir)
        .and_then(|()| {
            let header = format!("{{\"record\":\"{record}\"}}\n");
            std::fs::write(&path, header + &tracer.to_json_lines())
        })
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("perfbench: {} spans written to {}", tracer.spans().len(), path.display());
    let metrics = report::per_layer(tracer.spans(), &outcomes, &untraced, &traced);
    Ok((tally, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((tally, metrics)) => {
            println!("{}", report::result_json(tally.attempted, tally.failed, &metrics));
            if tally.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(why) => {
            eprintln!("perfbench: {why}");
            ExitCode::FAILURE
        }
    }
}
