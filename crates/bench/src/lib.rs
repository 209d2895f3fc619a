//! # flowmig-bench
//!
//! Shared plumbing for the benchmark harness that regenerates every table
//! and figure of Shukla & Simmhan (ICDCS 2018). Each paper `benches/*.rs`
//! target prints the same rows/series the paper reports, side by side with
//! the paper's published numbers where the text states them.
//!
//! Absolute values come from a simulated cluster, not the authors' Azure
//! testbed — the comparisons are about *shape*: orderings, growth trends
//! and crossovers. `EXPERIMENTS.md` records the outcome of each run.

#![forbid(unsafe_code)]

use flowmig_core::MigrationController;

/// Seeds used by the figure benches (kept small so `cargo bench` stays
/// fast; raise for tighter confidence intervals).
pub const BENCH_SEEDS: [u64; 3] = [11, 23, 37];

/// The paper's §5 protocol: 12-minute runs, migration requested at 3 min.
pub fn paper_controller() -> MigrationController {
    MigrationController::new()
}

/// Published numbers from the paper, for side-by-side comparison.
pub mod paper {
    /// Dataflow presentation order of Figs. 5–8.
    pub const DAGS: [&str; 5] = ["linear", "diamond", "star", "grid", "traffic"];

    /// Fig. 5a — restore time (s), scale-in, rows per DAG: [DSM, DCR, CCR].
    pub const FIG5A_RESTORE: [[f64; 3]; 5] = [
        [67.0, 39.0, 18.0],
        [49.0, 28.0, 27.0],
        [57.0, 37.0, 16.0],
        [92.0, 41.0, 16.0],
        [70.0, 40.0, 16.0],
    ];

    /// Fig. 5b — restore time (s), scale-out.
    pub const FIG5B_RESTORE: [[f64; 3]; 5] = [
        [64.0, 35.0, 26.0],
        [46.0, 37.0, 26.0],
        [57.0, 37.0, 27.0],
        [70.0, 36.0, 17.0],
        [61.0, 37.0, 27.0],
    ];

    /// Fig. 6a — failed+replayed messages for DSM, scale-in.
    pub const FIG6A_REPLAYED: [f64; 5] = [476.0, 315.0, 245.0, 2083.0, 1513.0];

    /// Fig. 6b — failed+replayed messages for DSM, scale-out.
    pub const FIG6B_REPLAYED: [f64; 5] = [239.0, 112.0, 292.0, 1339.0, 504.0];

    /// Fig. 8a — stabilization time (s), scale-in: [DSM, DCR, CCR].
    pub const FIG8A_STABILIZATION: [[f64; 3]; 5] = [
        [147.0, 128.0, 100.0],
        [135.0, 100.0, 90.0],
        [130.0, 116.0, 110.0],
        [224.0, 148.0, 130.0],
        [208.0, 140.0, 128.0],
    ];

    /// Fig. 8b — stabilization time (s), scale-out.
    pub const FIG8B_STABILIZATION: [[f64; 3]; 5] = [
        [139.0, 120.0, 107.0],
        [135.0, 131.0, 112.0],
        [147.0, 130.0, 118.0],
        [200.0, 146.0, 140.0],
        [183.0, 137.0, 120.0],
    ];

    /// §5.1 drain times (ms): (dag, scale, DCR drain, CCR capture).
    pub const DRAIN_TIMES_MS: [(&str, &str, f64, f64); 3] = [
        ("grid", "scale-in", 1_875.0, 468.0),
        ("grid", "scale-out", 1_440.0, 550.0),
        ("linear", "scale-in", 905.0, 256.0),
    ];

    /// §5.1: drain-time difference for a 50-task linear DAG (ms).
    pub const LINEAR50_DRAIN_DELTA_MS: f64 = 4_352.0;

    /// §5.1: average rebalance command duration (s), "relatively constant".
    pub const REBALANCE_AVG_S: f64 = 7.26;

    /// §5.1 micro-benchmark: checkpointing 2 000 events to Redis takes
    /// about this long (ms).
    pub const REDIS_2000_EVENTS_MS: f64 = 100.0;

    /// Table 1 rows: (dag, tasks, instances, default VMs, scale-in VMs,
    /// scale-out VMs).
    pub const TABLE1: [(&str, usize, usize, usize, usize, usize); 5] = [
        ("linear", 5, 5, 3, 2, 5),
        ("diamond", 5, 8, 4, 2, 8),
        ("star", 5, 8, 4, 2, 8),
        ("grid", 15, 21, 11, 6, 21),
        ("traffic", 11, 13, 7, 4, 13),
    ];
}

/// Formats a mean±sd cell like `"38.2±3.1"`.
pub fn mean_sd(summary: &flowmig_metrics::Summary) -> String {
    if summary.count() == 0 {
        "-".to_owned()
    } else {
        format!("{:.1}±{:.1}", summary.mean(), summary.std_dev())
    }
}

/// Prints the standard bench header.
pub fn banner(id: &str, what: &str) {
    println!("================================================================");
    println!("{id}: {what}");
    println!("(simulated substrate; compare shapes, not absolute values)");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmig_metrics::Summary;

    #[test]
    fn paper_tables_are_consistent() {
        assert_eq!(paper::DAGS.len(), paper::FIG5A_RESTORE.len());
        assert_eq!(paper::DAGS.len(), paper::FIG8B_STABILIZATION.len());
        assert_eq!(paper::TABLE1.len(), 5);
        // Restore orderings in the paper: CCR <= DCR < DSM everywhere.
        for rows in [paper::FIG5A_RESTORE, paper::FIG5B_RESTORE] {
            for [dsm, dcr, ccr] in rows {
                assert!(ccr <= dcr && dcr < dsm);
            }
        }
    }

    #[test]
    fn mean_sd_formats() {
        let s: Summary = [1.0, 2.0, 3.0].into_iter().collect();
        assert_eq!(mean_sd(&s), "2.0±0.8");
        assert_eq!(mean_sd(&Summary::new()), "-");
    }
}
