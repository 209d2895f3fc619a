//! One run: the calls `MigrationController::run_with_plan` makes, in four
//! timed steps — setup, simulate, analyze, teardown.

use crate::trace::Tracer;
use crate::workload::{Scenario, Suite};
use flowmig_cluster::ScalePlan;
use flowmig_engine::{Engine, EngineStats, ShardStats};
use flowmig_metrics::{MigrationMetrics, StabilityCriteria, TraceEvent, TraceLog};
use flowmig_sim::{SimDuration, SimTime};
use flowmig_topology::{InstanceSet, RatePlan};
use std::time::{Duration, Instant};

/// The throughput bucket `MigrationController` analyzes traces with.
pub const BUCKET: SimDuration = SimDuration::from_secs(10);

/// The traced run advances the migrate phase in slices of this much
/// simulated time, so the phase ends at most one slice after the
/// `MigrationCompleted` event.
const MIGRATE_SLICE: SimDuration = SimDuration::from_millis(100);

/// Host time of each step of one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepTimes {
    /// Planning, coordinator build and `Engine::new`.
    pub setup: Duration,
    /// `Engine::run_until` to the horizon.
    pub simulate: Duration,
    /// `MigrationMetrics::from_trace` and the stats reads.
    pub analyze: Duration,
    /// `into_trace` and the drops.
    pub teardown: Duration,
}

impl StepTimes {
    /// The run's wall time: all four steps.
    pub fn total(&self) -> Duration {
        self.setup + self.simulate + self.analyze + self.teardown
    }
}

/// What one run produced.
#[derive(Debug)]
pub struct Run {
    /// Engine counters at the horizon.
    pub stats: EngineStats,
    /// Per-shard store counters at the horizon.
    pub shard_stats: Vec<ShardStats>,
    /// The §4 metrics computed from the trace.
    pub metrics: MigrationMetrics,
    /// Whether the migration completed before the horizon.
    pub completed: bool,
    /// The trace itself, when the caller asked to keep it.
    pub trace: Option<TraceLog>,
    /// Host time of each step.
    pub times: StepTimes,
}

/// Records spans when the run is traced; every call is a no-op otherwise.
struct Probe<'a>(Option<&'a mut Tracer>);

impl Probe<'_> {
    fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        self.0.as_deref_mut().map(|t| t.open(name, parent))
    }

    fn close(&mut self, id: Option<usize>, events: u64, store_ops: u64) {
        if let (Some(tracer), Some(id)) = (self.0.as_deref_mut(), id) {
            tracer.close(id, events, store_ops);
        }
    }

    fn layer<R>(&mut self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent);
        let out = f();
        self.close(id, 0, 0);
        out
    }
}

/// Runs `scenario` once.
///
/// Without a tracer the simulate step is one `run_until` to the horizon,
/// exactly as in `MigrationController::run`. With one, every layer call is
/// wrapped in a span and simulate runs in three phases — steady, migrate
/// and recover — whose spans carry the simulation events and store
/// operations counted at their boundaries.
pub fn execute(
    suite: &Suite,
    scenario: &Scenario,
    tracer: Option<&mut Tracer>,
    keep_trace: bool,
) -> Run {
    let dag = suite.dag(scenario);
    let mut probe = Probe(tracer);
    if let Some(tracer) = probe.0.as_deref_mut() {
        tracer.next_run();
    }
    let run = probe.open("run", None);

    let started = Instant::now();
    let step = probe.open("setup", run);
    let instances = probe.layer("topology.instances", step, || InstanceSet::plan(dag));
    let (rates, expected) = probe.layer("topology.rates", step, || {
        let rates = RatePlan::for_dataflow(dag);
        let expected = rates.expected_sink_rate_hz(dag);
        (rates, expected)
    });
    let plan = probe
        .layer("cluster.scale_plan", step, || {
            ScalePlan::paper_scenario(dag, &instances, scenario.direction)
        })
        .expect("every benchmark scenario can be placed");
    let (protocol, coordinator) = probe.layer("core.coordinator", step, || {
        (scenario.strategy.protocol(), scenario.strategy.coordinator())
    });
    let mut engine = probe.layer("engine.new", step, || {
        let mut engine = Engine::new(
            dag.clone(),
            instances.clone(),
            &plan,
            scenario.config,
            protocol,
            coordinator,
            scenario.seed,
        );
        engine.schedule_migration(scenario.request_at);
        engine
    });
    probe.close(step, 0, 0);
    let setup_done = Instant::now();

    let step = probe.open("simulate", run);
    if probe.0.is_some() {
        simulate_in_phases(&mut probe, step, &mut engine, scenario);
    } else {
        engine.run_until(scenario.horizon);
    }
    probe.close(step, engine.stats().sim_events, 0);
    let simulate_done = Instant::now();

    let step = probe.open("analyze", run);
    let layer = probe.open("metrics.analyze", step);
    let stats = *engine.stats();
    let shard_stats = engine.store().all_shard_stats();
    let metrics =
        MigrationMetrics::from_trace(engine.trace(), &StabilityCriteria::paper(expected), BUCKET);
    let completed = engine.trace().migration_completed_at().is_some();
    let trace_events = engine.trace().len();
    probe.close(layer, trace_events as u64, 0);
    probe.close(step, 0, 0);
    let analyze_done = Instant::now();

    let step = probe.open("teardown", run);
    let trace = probe.layer("engine.teardown", step, || {
        let trace = engine.into_trace();
        drop((instances, rates, plan));
        keep_trace.then_some(trace)
    });
    probe.close(step, 0, 0);
    let finished = Instant::now();
    probe.close(run, 0, 0);

    Run {
        stats,
        shard_stats,
        metrics,
        completed,
        trace,
        times: StepTimes {
            setup: setup_done - started,
            simulate: simulate_done - setup_done,
            analyze: analyze_done - simulate_done,
            teardown: finished - analyze_done,
        },
    }
}

/// Steady runs to just before the migration request; migrate runs in
/// slices until a newly appended trace event is `MigrationCompleted` (or
/// the horizon); recover runs to the horizon.
fn simulate_in_phases(
    probe: &mut Probe<'_>,
    parent: Option<usize>,
    engine: &mut Engine,
    scenario: &Scenario,
) {
    let horizon = scenario.horizon;
    let steady_end =
        SimTime::from_micros(scenario.request_at.as_micros().saturating_sub(1)).min(horizon);
    phase(probe, parent, "engine.steady", engine, |engine| {
        engine.run_until(steady_end);
    });
    phase(probe, parent, "engine.migrate", engine, |engine| {
        let mut scanned = engine.trace().len();
        let mut until = steady_end;
        while until < horizon {
            until = (until + MIGRATE_SLICE).min(horizon);
            engine.run_until(until);
            let trace = engine.trace().iter().as_slice();
            let completed =
                trace[scanned..].iter().any(|e| matches!(e, TraceEvent::MigrationCompleted { .. }));
            scanned = trace.len();
            if completed {
                break;
            }
        }
    });
    phase(probe, parent, "engine.recover", engine, |engine| {
        engine.run_until(horizon);
    });
}

/// One simulate phase, with the simulation events and store operations
/// read from `EngineStats` and `ShardStats` at its boundaries.
fn phase(
    probe: &mut Probe<'_>,
    parent: Option<usize>,
    name: &'static str,
    engine: &mut Engine,
    run: impl FnOnce(&mut Engine),
) {
    let (events, ops) = (engine.stats().sim_events, store_ops(engine));
    let id = probe.open(name, parent);
    run(engine);
    let (events_after, ops_after) = (engine.stats().sim_events, store_ops(engine));
    probe.close(id, events_after - events, ops_after - ops);
}

fn store_ops(engine: &Engine) -> u64 {
    engine.store().all_shard_stats().iter().map(|s| s.puts + s.gets).sum()
}
