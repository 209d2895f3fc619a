//! Parameter sweeps used by the benchmark harness.

use crate::experiment::{Experiment, ExperimentReport};
use flowmig_cluster::{ScaleDirection, ScheduleError};
use flowmig_core::{default_strategy, Ccr, Dcr, MigrationController, StrategyKind};
use flowmig_topology::{library, Dataflow};

/// Runs the full strategy × dataflow matrix for one scaling direction —
/// the data behind Figs. 5, 6 and 8.
///
/// Returns reports in (dataflow, strategy) order: for each of the paper's
/// five dataflows, one report per strategy in DSM, DCR, CCR order.
///
/// # Errors
///
/// Returns [`ScheduleError`] if any scenario cannot be placed (cannot
/// happen for the paper's dataflows).
pub fn strategy_matrix(
    direction: ScaleDirection,
    seeds: &[u64],
    controller: &MigrationController,
) -> Result<Vec<ExperimentReport>, ScheduleError> {
    let mut reports = Vec::new();
    for dag in library::paper_dataflows() {
        for kind in StrategyKind::ALL {
            let experiment = Experiment::paper(dag.clone(), direction)
                .with_seeds(seeds)
                .with_controller(controller.clone());
            let report = experiment.run(default_strategy(kind).as_ref())?;
            reports.push(report);
        }
    }
    Ok(reports)
}

/// One row of the drain-time analysis (§5.1).
#[derive(Debug, Clone)]
pub struct DrainRow {
    /// Dataflow name.
    pub dag: String,
    /// Scaling direction.
    pub direction: ScaleDirection,
    /// Mean DCR drain duration in milliseconds.
    pub dcr_drain_ms: f64,
    /// Mean CCR capture duration in milliseconds.
    pub ccr_capture_ms: f64,
}

impl DrainRow {
    /// DCR drain minus CCR capture (ms) — grows with the critical path.
    pub fn delta_ms(&self) -> f64 {
        self.dcr_drain_ms - self.ccr_capture_ms
    }
}

/// Measures DCR drain vs CCR capture durations for a set of dataflows —
/// the §5.1 drain-time analysis, including the 50-task linear DAG.
///
/// # Errors
///
/// Returns [`ScheduleError`] if a scenario cannot be placed.
pub fn drain_time_sweep(
    dags: Vec<Dataflow>,
    direction: ScaleDirection,
    seeds: &[u64],
    controller: &MigrationController,
) -> Result<Vec<DrainRow>, ScheduleError> {
    let mut rows = Vec::new();
    for dag in dags {
        let name = dag.name().to_owned();
        let experiment =
            Experiment::paper(dag, direction).with_seeds(seeds).with_controller(controller.clone());
        let dcr = experiment.run(&Dcr::new())?;
        let ccr = experiment.run(&Ccr::new())?;
        rows.push(DrainRow {
            dag: name,
            direction,
            dcr_drain_ms: dcr.drain_capture.mean() * 1_000.0,
            ccr_capture_ms: ccr.drain_capture.mean() * 1_000.0,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmig_sim::SimTime;

    fn quick() -> MigrationController {
        MigrationController::new()
            .with_request_at(SimTime::from_secs(60))
            .with_horizon(SimTime::from_secs(300))
    }

    #[test]
    fn matrix_covers_all_cells() {
        let reports = strategy_matrix(ScaleDirection::In, &[5], &quick()).unwrap();
        assert_eq!(reports.len(), 15); // 5 DAGs × 3 strategies
        let names: Vec<&str> = reports.iter().map(|r| r.strategy).collect();
        assert_eq!(&names[..3], &["DSM", "DCR", "CCR"]);
        assert!(reports.iter().all(|r| r.completed_all));
    }

    #[test]
    fn drain_sweep_shows_dcr_above_ccr() {
        let rows = drain_time_sweep(
            vec![library::linear(), library::linear_n(50)],
            ScaleDirection::In,
            &[3, 5],
            &quick(),
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(
                row.dcr_drain_ms > row.ccr_capture_ms,
                "{}: DCR drain ({:.0} ms) must exceed CCR capture ({:.0} ms)",
                row.dag,
                row.dcr_drain_ms,
                row.ccr_capture_ms
            );
        }
        // The delta grows sharply with the critical path (paper: 905 ms
        // drain for linear-5 vs a 4.3 s delta for linear-50).
        assert!(rows[1].delta_ms() > 4.0 * rows[0].delta_ms());
    }
}
