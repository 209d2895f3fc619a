//! Metrics derived from the measured runs and spans, and the result line.

use crate::check::SimOutcome;
use crate::driver::StepTimes;
use crate::trace::Span;
use std::collections::HashMap;
use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// The metric's name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

const fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Nearest-rank quantile `q` of `values`.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "a quantile needs at least one value");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Samples beyond the p90 of `n` samples under the nearest-rank rule.
pub fn beyond_p90(n: usize) -> usize {
    n - (0.9 * n as f64).ceil() as usize
}

/// One untraced run's host times and simulation event count.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Host time of each step.
    pub times: StepTimes,
    /// `EngineStats::sim_events` of the run.
    pub sim_events: u64,
}

/// The end-to-end metrics: host cost from every untraced run in `samples`,
/// simulated outcomes from one pass over the scenarios.
///
/// Every measured run counts. On a shared host, other tenants' load comes
/// and goes many times within one run; a scenario's fastest repetitions
/// measure the moments it paused, whose number varies from run to run much
/// more than the average over the whole run does.
pub fn end_to_end(
    samples: &[Sample],
    outcomes: &[SimOutcome],
    ok_ratio: f64,
    peak_rss_mb: f64,
) -> Vec<Metric> {
    let walls: Vec<f64> = samples.iter().map(|s| s.times.total().as_secs_f64() * 1e3).collect();
    let setups: Vec<f64> = samples.iter().map(|s| s.times.setup.as_secs_f64()).collect();
    let simulate_s: f64 = samples.iter().map(|s| s.times.simulate.as_secs_f64()).sum();
    let sim_events: u64 = samples.iter().map(|s| s.sim_events).sum();
    let secs =
        |f: fn(&SimOutcome) -> Option<f64>| -> Vec<f64> { outcomes.iter().filter_map(f).collect() };
    let migration = secs(|o| Some(o.migration.as_secs_f64()));
    let commit_restore = secs(|o| o.commit_restore.map(|d| d.as_millis_f64()));
    vec![
        metric("migrations_per_s", "1/s", walls.len() as f64 / (walls.iter().sum::<f64>() / 1e3)),
        metric("run_wall_ms.p50", "ms", quantile(&walls, 0.5)),
        metric("run_wall_ms.p90", "ms", quantile(&walls, 0.9)),
        metric("sim_events_per_s", "1/s", sim_events as f64 / simulate_s),
        metric("setup_s", "s", quantile(&setups, 0.5)),
        metric("peak_rss_mb", "MB", peak_rss_mb),
        metric("ok_run_ratio", "ratio", ok_ratio),
        metric("sim_migration_s.p50", "sim_s", quantile(&migration, 0.5)),
        metric("sim_commit_restore_ms.p50", "sim_ms", quantile(&commit_restore, 0.5)),
    ]
}

/// Per-name totals over the traced runs' spans.
#[derive(Default)]
struct Totals {
    ns: u64,
    events: u64,
}

/// The per-layer metrics of a traced run: host time per layer from the
/// `spans`, work counts from one pass of `outcomes`, and the tracing
/// overhead from the run walls of interleaved untraced and traced passes.
pub fn per_layer(
    spans: &[Span],
    outcomes: &[SimOutcome],
    untraced_ms: &[f64],
    traced_ms: &[f64],
) -> Vec<Metric> {
    let mut by_name: HashMap<&str, Totals> = HashMap::new();
    let mut layer_ns_by_run: HashMap<u64, u64> = HashMap::new();
    let (mut runs, mut run_ns) = (0u64, 0u64);
    for s in spans {
        let totals = by_name.entry(s.name).or_default();
        totals.ns += s.duration_ns();
        totals.events += s.events;
        if s.name == "run" {
            runs += 1;
            run_ns += s.duration_ns();
        } else if s.is_layer() && s.run > 0 {
            *layer_ns_by_run.entry(s.run).or_default() += s.duration_ns();
        }
    }
    let get = |name: &str| by_name.get(name).map_or((0.0, 0.0), |t| (t.ns as f64, t.events as f64));
    let per_run = |x: f64| x / runs as f64;
    let ms_per_run = |name: &str| per_run(get(name).0) / 1e6;
    let events_per_run = |name: &str| per_run(get(name).1);
    let ns_per_event = |name: &str| {
        let (ns, events) = get(name);
        ratio(ns, events)
    };
    let covered_ns: u64 = layer_ns_by_run.values().sum();

    let n = outcomes.len() as f64;
    let sum = |f: fn(&SimOutcome) -> u64| outcomes.iter().map(f).sum::<u64>() as f64;
    let mean = |f: fn(&SimOutcome) -> u64| sum(f) / n;
    let max = |f: fn(&SimOutcome) -> u64| outcomes.iter().map(f).max().unwrap_or(0) as f64;
    let processed = sum(|o| o.stats.events_processed);
    let acked = sum(|o| o.stats.roots_acked);
    let failed = sum(|o| o.stats.roots_failed);
    let moved = sum(|o| o.stats.state_bytes_moved);
    let resident = sum(|o| o.stats.state_bytes_resident);
    // Stabilization is bucketed to 10 s, never happens before the horizon
    // on scale-10k, and swings between 10 s and never from seed to seed on
    // skew-fifo, so it cannot carry an end-to-end bound.
    let stabilize: Vec<f64> = outcomes.iter().map(|o| o.stabilize.as_secs_f64()).collect();

    vec![
        metric("topology.build_ms", "ms", get("topology.build").0 / 1e6),
        metric("topology.instances_ms", "ms", ms_per_run("topology.instances")),
        metric("topology.rates_ms", "ms", ms_per_run("topology.rates")),
        metric("cluster.scale_plan_ms", "ms", ms_per_run("cluster.scale_plan")),
        metric("core.coordinator_ms", "ms", ms_per_run("core.coordinator")),
        metric("engine.new_ms", "ms", ms_per_run("engine.new")),
        metric("engine.steady_ms", "ms", ms_per_run("engine.steady")),
        metric("engine.steady_events", "count", events_per_run("engine.steady")),
        metric("engine.steady_ns_per_event", "ns", ns_per_event("engine.steady")),
        metric("engine.migrate_ms", "ms", ms_per_run("engine.migrate")),
        metric("engine.migrate_events", "count", events_per_run("engine.migrate")),
        metric("engine.migrate_ns_per_event", "ns", ns_per_event("engine.migrate")),
        metric("engine.recover_ms", "ms", ms_per_run("engine.recover")),
        metric("engine.recover_events", "count", events_per_run("engine.recover")),
        metric("engine.recover_ns_per_event", "ns", ns_per_event("engine.recover")),
        metric("engine.control_processed", "count", mean(|o| o.stats.control_processed)),
        metric("sim.events", "count", mean(|o| o.stats.sim_events)),
        metric("sim.peak_pending", "count", max(|o| o.stats.queue_peak_pending)),
        metric("sim.rotations", "count", mean(|o| o.stats.queue_rotations)),
        metric("engine.events_processed", "count", processed / n),
        metric(
            "engine.useful_event_ratio",
            "ratio",
            ratio(processed - sum(|o| o.stats.replayed_event_messages), processed),
        ),
        metric("engine.acker.roots_acked", "count", acked / n),
        metric("engine.acker.roots_failed", "count", failed / n),
        metric("engine.acker.ack_ratio", "ratio", ratio(acked, acked + failed)),
        metric("engine.acker.replayed_msgs", "count", sum(|o| o.stats.replayed_event_messages)),
        metric("engine.spout_throttled", "count", mean(|o| o.stats.spout_throttled)),
        metric("engine.store.persists", "count", mean(|o| o.stats.state_persists)),
        metric("engine.store.fetches", "count", mean(|o| o.stats.state_fetches)),
        metric("engine.store.ops_queued", "count", mean(|o| o.stats.store_ops_queued)),
        metric("engine.store.wait_ms", "sim_ms", mean(|o| o.stats.store_wait_us) / 1e3),
        metric("engine.store.max_queue_depth", "count", max(|o| o.max_queue_depth)),
        metric("engine.store.bytes_moved", "B", moved / n),
        metric("engine.store.moved_ratio", "ratio", ratio(moved, moved + resident)),
        metric("engine.captured", "count", mean(|o| o.stats.events_captured)),
        metric("engine.pending_replayed", "count", mean(|o| o.stats.pending_replayed)),
        metric("metrics.analyze_ms", "ms", ms_per_run("metrics.analyze")),
        metric("metrics.stabilize_s.p50", "sim_s", quantile(&stabilize, 0.5)),
        metric("metrics.trace_events", "count", events_per_run("metrics.analyze")),
        metric("metrics.analyze_ns_per_trace_event", "ns", ns_per_event("metrics.analyze")),
        metric("engine.teardown_ms", "ms", ms_per_run("engine.teardown")),
        metric(
            "bench.uncovered_ratio",
            "ratio",
            ratio((run_ns - covered_ns) as f64, run_ns as f64),
        ),
        metric(
            "bench.trace_overhead_ratio",
            "ratio",
            quantile(traced_ms, 0.5) / quantile(untraced_ms, 0.5),
        ),
    ]
}

/// The result line: `correct`, `attempted`, `failed` and every metric with
/// its unit, as one JSON object.
pub fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(m.value.is_finite(), "metric {} is not a finite number", m.name);
        let sep = if i == 0 { "" } else { ", " };
        write!(out, "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_the_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&values, 0.5), 50.0);
        assert_eq!(quantile(&values, 0.9), 90.0);
        assert_eq!(beyond_p90(values.len()), 10);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn host_metrics_count_every_run() {
        let ms = std::time::Duration::from_millis;
        let samples: Vec<Sample> = [(1, 9), (2, 18), (3, 27), (4, 36)]
            .iter()
            .map(|&(setup, simulate)| Sample {
                times: StepTimes {
                    setup: ms(setup),
                    simulate: ms(simulate),
                    ..StepTimes::default()
                },
                sim_events: 900,
            })
            .collect();
        let outcome = SimOutcome {
            stats: flowmig_engine::EngineStats::default(),
            migration: flowmig_sim::SimDuration::from_secs(7),
            stabilize: flowmig_sim::SimDuration::from_secs(20),
            commit_restore: Some(flowmig_sim::SimDuration::from_millis(9)),
            max_queue_depth: 0,
        };
        let metrics = end_to_end(&samples, &[outcome], 1.0, 5.0);
        let value = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
        for (name, expected) in [
            ("migrations_per_s", 4.0 / 0.1),
            ("run_wall_ms.p50", 20.0),
            ("run_wall_ms.p90", 40.0),
            ("sim_events_per_s", 3600.0 / 0.09),
            ("setup_s", 0.002),
        ] {
            assert!((value(name) - expected).abs() < 1e-9 * expected, "{name}: {}", value(name));
        }
    }

    #[test]
    fn the_result_line_reports_correctness_from_the_failures() {
        let metrics = [metric("setup_s", "s", 0.25)];
        assert_eq!(
            result_json(3, 0, &metrics),
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}}}"#
        );
        assert!(result_json(3, 1, &metrics).starts_with(r#"{"correct": false"#));
    }
}
