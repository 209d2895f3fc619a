//! The benchmark measures the program users call.
//!
//! For every scenario of every workload, the untraced driver (one
//! `run_until` to the horizon) and the traced driver (steady, migrate and
//! recover slices) must each produce the `EngineStats` and `TraceLog` of
//! `MigrationController::run` on the same seed: slicing `run_until` does
//! not perturb the simulation. Run with `--release`; the 10,000-instance
//! scenarios are slow in a debug build.

use flowmig_workloads::Experiment;
use perfbench::{check, execute, splitmix64, Tracer, Workload, SKEW_SEEDS};

/// The workload seed the tests build their scenario lists from.
const SEED: u64 = 1;

fn assert_drivers_match_the_controller(workload: Workload) {
    let suite = workload.build(SEED);
    let mut tracer = Tracer::new();
    for scenario in &suite.scenarios {
        let label = scenario.label(&suite);
        let expected = scenario
            .controller()
            .run(suite.dag(scenario), &*scenario.strategy, scenario.direction)
            .expect("every benchmark scenario can be placed");
        for traced in [false, true] {
            let run = execute(&suite, scenario, traced.then_some(&mut tracer), true);
            let what = format!("{label} ({})", if traced { "traced" } else { "untraced" });
            assert_eq!(run.stats, expected.stats, "{what}: engine stats");
            assert_eq!(run.trace.as_ref(), Some(&expected.trace), "{what}: trace");
            assert_eq!(run.shard_stats, expected.shard_stats, "{what}: shard stats");
            assert_eq!(run.metrics, expected.metrics, "{what}: migration metrics");
            assert_eq!(run.completed, expected.completed, "{what}: completion");
        }
    }
    let phases = ["engine.steady", "engine.migrate", "engine.recover"];
    for phase in phases {
        let runs = tracer.spans().iter().filter(|s| s.name == phase).count();
        assert_eq!(runs, suite.scenarios.len(), "one {phase} span per traced run");
    }
}

#[test]
fn paper_suite_drivers_match_the_controller() {
    assert_drivers_match_the_controller(Workload::PaperSuite);
}

#[test]
fn scale_10k_drivers_match_the_controller() {
    assert_drivers_match_the_controller(Workload::Scale10k);
}

#[test]
fn skew_fifo_drivers_match_the_controller() {
    assert_drivers_match_the_controller(Workload::SkewFifo);
}

#[test]
fn scenario_seeds_follow_experiment_run() {
    // Scenarios come in runs of one (dag, direction, strategy) over the
    // suite's seed list, which is what `Experiment::run` iterates.
    let suite = Workload::PaperSuite.build(SEED);
    for group in suite.scenarios.chunks(suite.seeds.len()) {
        let first = &group[0];
        let report = Experiment::paper(suite.dag(first).clone(), first.direction)
            .with_seeds(&suite.seeds)
            .with_controller(first.controller())
            .run(&*first.strategy)
            .expect("every paper scenario can be placed");
        for (scenario, outcome) in group.iter().zip(&report.outcomes) {
            let run = execute(&suite, scenario, None, false);
            assert_eq!(run.stats, outcome.stats, "{}", scenario.label(&suite));
        }
    }
}

#[test]
fn skew_seed_pool_is_the_drop_free_prefix_of_its_candidates() {
    let positions = Workload::SkewFifo.seeds(SEED).len();
    let mut pool = Vec::new();
    let mut k = 0;
    while pool.len() < SKEW_SEEDS.len() {
        let candidate = splitmix64(0, k);
        let suite = Workload::SkewFifo.build_with_seeds(vec![candidate; positions]);
        let drop_free = suite
            .scenarios
            .iter()
            .all(|s| check(&execute(&suite, s, None, false), s, None).is_ok());
        if drop_free {
            pool.push(candidate);
        }
        k += 1;
    }
    assert_eq!(pool, SKEW_SEEDS);
}
