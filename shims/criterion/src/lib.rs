//! Offline stand-in for `criterion`.
//!
//! Implements the API surface the workspace's benches use —
//! [`criterion_group!`], [`Criterion::benchmark_group`],
//! [`BenchmarkGroup::bench_function`], [`Bencher::iter`] and
//! [`Bencher::iter_batched`] — with a simple measurement loop: a short
//! warm-up, then a fixed number of timed samples (20 by default),
//! reporting min/mean/max per iteration. No statistical analysis, HTML reports, or command-line
//! parsing; when invoked by `cargo test` (any argument containing
//! `--test`), benches are skipped so test runs stay fast.
//!
//! Two environment variables support CI smoke runs:
//!
//! * `CRITERION_SAMPLE_SIZE=N` overrides the sample count so a reduced
//!   pass stays cheap;
//! * `CRITERION_JSON=path` additionally writes all results of the process
//!   as a JSON array of `{name, samples, min_ns, mean_ns, max_ns}` objects
//!   (rewritten after every benchmark, so a partial file is still valid).

#![forbid(unsafe_code)]

use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// One benchmark's summary, retained for `CRITERION_JSON` export.
#[derive(Debug, Clone)]
struct JsonEntry {
    name: String,
    samples: usize,
    min_ns: u128,
    mean_ns: u128,
    max_ns: u128,
}

fn json_results() -> &'static Mutex<Vec<JsonEntry>> {
    static RESULTS: OnceLock<Mutex<Vec<JsonEntry>>> = OnceLock::new();
    RESULTS.get_or_init(|| Mutex::new(Vec::new()))
}

/// One `CRITERION_JSON` row.
fn format_row(e: &JsonEntry) -> String {
    format!(
        "  {{\"name\": \"{}\", \"samples\": {}, \"min_ns\": {}, \"mean_ns\": {}, \"max_ns\": {}}}",
        e.name.replace('\\', "\\\\").replace('"', "\\\""),
        e.samples,
        e.min_ns,
        e.mean_ns,
        e.max_ns,
    )
}

/// Appends `entry` and rewrites the `CRITERION_JSON` file (if requested)
/// with every result so far, as a complete JSON array.
fn export_json(entry: JsonEntry) {
    let Ok(path) = std::env::var("CRITERION_JSON") else {
        return;
    };
    let mut results = json_results().lock().expect("json results lock");
    results.push(entry);
    let rows: Vec<String> = results.iter().map(format_row).collect();
    let body = format!("[\n{}\n]\n", rows.join(",\n"));
    if let Err(err) = std::fs::write(&path, body) {
        eprintln!("criterion shim: cannot write {path}: {err}");
    }
}

/// The `CRITERION_SAMPLE_SIZE` override, if set and parseable.
fn sample_size_override() -> Option<usize> {
    std::env::var("CRITERION_SAMPLE_SIZE").ok()?.parse().ok().filter(|&n| n > 0)
}

/// How `iter_batched` amortizes setup cost. The shim runs one routine
/// call per setup regardless; the variants exist for API compatibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration input.
    SmallInput,
    /// Large per-iteration input.
    LargeInput,
    /// Fresh setup for every routine call.
    PerIteration,
}

/// Benchmark driver: registers and times benchmark functions.
#[derive(Debug)]
pub struct Criterion {
    sample_size: usize,
    skip: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        // `cargo test` runs bench targets with libtest flags; a real
        // Criterion detects this and becomes a no-op. Do the same.
        let skip = std::env::args().any(|a| a.contains("--test") || a == "--list");
        Criterion { sample_size: sample_size_override().unwrap_or(20), skip }
    }
}

impl Criterion {
    /// Opens a named group of benchmarks sharing settings.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup { parent: self, name: name.to_owned() }
    }
}

/// A group of related benchmarks with shared settings.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs one benchmark within the group.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        if self.parent.skip {
            return self;
        }
        let mut bencher = Bencher { samples: Vec::new(), budget: self.parent.sample_size };
        f(&mut bencher);
        bencher.report(&format!("{}/{}", self.name, name));
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Times closures for a single benchmark.
#[derive(Debug)]
pub struct Bencher {
    samples: Vec<Duration>,
    budget: usize,
}

impl Bencher {
    /// Times `routine` over the sample budget (after one warm-up call).
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        black_box(routine());
        for _ in 0..self.budget {
            let start = Instant::now();
            black_box(routine());
            self.samples.push(start.elapsed());
        }
    }

    /// Times `routine` on fresh inputs built by `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        black_box(routine(setup()));
        for _ in 0..self.budget {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.samples.push(start.elapsed());
        }
    }

    fn report(&self, name: &str) {
        if self.samples.is_empty() {
            println!("{name:<44} (no samples)");
            return;
        }
        let min = self.samples.iter().min().expect("non-empty");
        let max = self.samples.iter().max().expect("non-empty");
        let mean = self.samples.iter().sum::<Duration>() / self.samples.len() as u32;
        println!(
            "{name:<44} time: [{} {} {}]",
            fmt_duration(*min),
            fmt_duration(mean),
            fmt_duration(*max),
        );
        export_json(JsonEntry {
            name: name.to_owned(),
            samples: self.samples.len(),
            min_ns: min.as_nanos(),
            mean_ns: mean.as_nanos(),
            max_ns: max.as_nanos(),
        });
    }
}

fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.2} µs", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1e6)
    } else {
        format!("{:.2} s", nanos as f64 / 1e9)
    }
}

/// Bundles benchmark functions into a runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_times_and_reports() {
        let mut c = Criterion { sample_size: 3, skip: false };
        let mut runs = 0u32;
        c.benchmark_group("g").bench_function("noop", |b| b.iter(|| runs += 1));
        // 1 warm-up + 3 samples.
        assert_eq!(runs, 4);
    }

    #[test]
    fn iter_batched_runs_setup_per_sample() {
        let mut c = Criterion { sample_size: 2, skip: false };
        let mut setups = 0u32;
        c.benchmark_group("g").bench_function("batched", |b| {
            b.iter_batched(
                || {
                    setups += 1;
                },
                |()| (),
                BatchSize::SmallInput,
            )
        });
        assert_eq!(setups, 3);
    }

    #[test]
    fn json_row_carries_the_summary_keys_and_escapes_the_name() {
        let entry = JsonEntry {
            name: "acker/\"quoted\"".to_owned(),
            samples: 20,
            min_ns: 1,
            mean_ns: 2,
            max_ns: 3,
        };
        assert_eq!(
            format_row(&entry),
            r#"  {"name": "acker/\"quoted\"", "samples": 20, "min_ns": 1, "mean_ns": 2, "max_ns": 3}"#
        );
    }
}
