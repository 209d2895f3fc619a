//! The output checks every run must pass.

use crate::driver::Run;
use crate::workload::Scenario;
use flowmig_engine::EngineStats;
use flowmig_sim::SimDuration;

/// The simulated outcome of a run: deterministic for a (scenario, seed),
/// so a repeat must reproduce it exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOutcome {
    /// Engine counters at the horizon.
    pub stats: EngineStats,
    /// `MigrationMetrics::total_migration`, the Fig. 5 bar height.
    pub migration: SimDuration,
    /// `MigrationMetrics::stabilization`; a run that never stabilizes
    /// counts at its horizon.
    pub stabilize: SimDuration,
    /// `commit_wave + restore_wave`, for strategies with both phases.
    pub commit_restore: Option<SimDuration>,
    /// The deepest per-shard store queue (`ShardStats::max_queue_depth`).
    pub max_queue_depth: u64,
}

impl SimOutcome {
    /// The outcome of `run`.
    pub fn of(run: &Run, scenario: &Scenario) -> Self {
        let rest = scenario.horizon.saturating_since(scenario.request_at);
        let m = &run.metrics;
        SimOutcome {
            stats: run.stats,
            migration: m.total_migration().unwrap_or(rest),
            stabilize: m.stabilization.unwrap_or(rest),
            commit_restore: m.commit_wave.zip(m.restore_wave).map(|(c, r)| c + r),
            max_queue_depth: run
                .shard_stats
                .iter()
                .map(|s| s.max_queue_depth as u64)
                .max()
                .unwrap_or(0),
        }
    }
}

/// Checks `run` and returns its outcome, or the first check it failed:
///
/// - the migration completes;
/// - a reliable strategy drops and replays nothing;
/// - every captured event is replayed (`pending_replayed == events_captured`);
/// - a repeat reproduces the `reference` outcome of the same scenario.
pub fn check(
    run: &Run,
    scenario: &Scenario,
    reference: Option<&SimOutcome>,
) -> Result<SimOutcome, String> {
    let s = &run.stats;
    if !run.completed {
        return Err("the migration did not complete".to_owned());
    }
    if scenario.reliable()
        && (s.events_dropped, s.replayed_roots, s.replayed_event_messages) != (0, 0, 0)
    {
        return Err(format!(
            "a reliable strategy dropped {} events and replayed {} roots ({} messages)",
            s.events_dropped, s.replayed_roots, s.replayed_event_messages
        ));
    }
    if s.pending_replayed != s.events_captured {
        return Err(format!(
            "replayed {} of {} captured events",
            s.pending_replayed, s.events_captured
        ));
    }
    let outcome = SimOutcome::of(run, scenario);
    match reference {
        Some(reference) if *reference != outcome => {
            Err(format!("a repeat diverged: {outcome:?} != {reference:?}"))
        }
        _ => Ok(outcome),
    }
}
