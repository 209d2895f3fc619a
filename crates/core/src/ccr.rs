//! Capture-Checkpoint-Resume (CCR) — §3.2 of the paper.
//!
//! CCR attacks DCR's drain time on both fronts:
//!
//! 1. PREPARE is **broadcast** hub-and-spoke from the checkpoint source to
//!    the end of every task's input queue, rather than sweeping the whole
//!    dataflow — so it arrives after only the *local* queue backlog.
//! 2. On PREPARE, a task stops processing and **captures** subsequent input
//!    events into a pending list instead of executing them; the capture
//!    time is bounded by the slowest single queue, not the critical path.
//!
//! A sequential COMMIT still sweeps behind all in-flight events and
//! persists state *plus pending lists* to the store. After the rebalance, a
//! broadcast INIT restores each task independently — the captured events
//! resume locally, so the dataflow refills while workers are still coming
//! up. Intuitively, CCR overlaps DCR's drain time with the post-rebalance
//! refill time (§3.2).

use crate::plan::{MigrationPlan, PausePolicy, PlanPhase, WaveKind};
use crate::strategy::{MigrationStrategy, StrategyKind};
use flowmig_engine::{resend, ProtocolConfig, WaveRouting};
use flowmig_metrics::MigrationPhase;
use flowmig_sim::SimDuration;

/// The CCR strategy.
///
/// # Examples
///
/// ```
/// use flowmig_core::{Ccr, MigrationStrategy, StrategyKind};
///
/// let ccr = Ccr::default();
/// assert_eq!(ccr.kind(), StrategyKind::Ccr);
/// // Capture is what distinguishes CCR's protocol:
/// assert!(ccr.protocol().capture_on_prepare);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ccr {
    init_resend: SimDuration,
    wave_timeout: Option<SimDuration>,
    parallel_fan_out: Option<usize>,
}

impl Default for Ccr {
    fn default() -> Self {
        // The checkpoint waves roll back if not fully acked within the
        // acking timeout (§2's three-phase-commit failure handling).
        Ccr {
            init_resend: resend::FAST,
            wave_timeout: Some(resend::ACK_TIMEOUT),
            parallel_fan_out: None,
        }
    }
}

impl Ccr {
    /// CCR with the paper's 1 s INIT resend cadence.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the INIT re-emission interval.
    pub fn with_init_resend(mut self, interval: SimDuration) -> Self {
        self.init_resend = interval;
        self
    }

    /// Aborts the migration with a ROLLBACK wave if PREPARE/COMMIT do not
    /// complete within `timeout`.
    pub fn with_wave_timeout(mut self, timeout: SimDuration) -> Self {
        self.wave_timeout = Some(timeout);
        self
    }

    /// Disables the checkpoint-wave timeout (the migration waits out any
    /// stall indefinitely).
    pub fn without_wave_timeout(mut self) -> Self {
        self.wave_timeout = None;
        self
    }

    /// Parallelizes the checkpoint waves: COMMIT and INIT both switch to
    /// [`WaveRouting::Parallel`] with `fan_out` in-flight store operations
    /// per shard (0 = the window
    /// [`EngineConfig::derived_fan_out`](flowmig_engine::EngineConfig::derived_fan_out)
    /// derives from the store topology). PREPARE stays broadcast — it is
    /// what starts capture, not a store operation. Wave time becomes the
    /// max over store shards instead of the O(instances) sweep; the
    /// `migration_latency` bench quantifies the win.
    pub fn with_parallel_waves(mut self, fan_out: usize) -> Self {
        self.parallel_fan_out = Some(fan_out);
        self
    }
}

impl MigrationStrategy for Ccr {
    fn kind(&self) -> StrategyKind {
        StrategyKind::Ccr
    }

    /// CCR as data: the same skeleton as DCR with PREPARE re-routed
    /// broadcast (capture, not drain — legal because the protocol sets
    /// `capture_on_prepare`) and INIT broadcast (each task resumes its
    /// captured events independently).
    fn plan(&self) -> MigrationPlan {
        let (commit, init) = match self.parallel_fan_out {
            Some(fan_out) => (WaveRouting::Parallel { fan_out }, WaveRouting::Parallel { fan_out }),
            None => (WaveRouting::Sequential, WaveRouting::Broadcast),
        };
        let mut prepare = PlanPhase::wave(WaveKind::Prepare, WaveRouting::Broadcast)
            .scoped(MigrationPhase::Drain);
        prepare.timeout = self.wave_timeout;
        let mut commit = PlanPhase::wave(WaveKind::Commit, commit).scoped(MigrationPhase::Commit);
        commit.timeout = self.wave_timeout;
        MigrationPlan::new(ProtocolConfig::ccr())
            .pause(PausePolicy::UntilComplete)
            .phase(prepare)
            .phase(commit)
            .phase(
                PlanPhase::wave(WaveKind::Init, init)
                    .after_rebalance()
                    .scoped(MigrationPhase::Restore)
                    .with_resend(self.init_resend),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        assert_eq!(Ccr::new().plan().phases()[2].resend, Some(SimDuration::from_secs(1)));
        assert_eq!(Ccr::new().name(), "CCR");
    }

    #[test]
    fn protocol_enables_capture() {
        let p = Ccr::new().protocol();
        assert!(p.capture_on_prepare);
        assert!(!p.ack_user_events);
    }

    #[test]
    fn parallel_waves_builder() {
        let commit = |c: Ccr| c.plan().phases()[1].routing;
        assert_eq!(commit(Ccr::new()), WaveRouting::Sequential, "sequential COMMIT by default");
        assert_eq!(commit(Ccr::new().with_parallel_waves(4)), WaveRouting::Parallel { fan_out: 4 });
        // 0 derives the window from the store topology.
        assert_eq!(commit(Ccr::new().with_parallel_waves(0)), WaveRouting::Parallel { fan_out: 0 });
    }

    #[test]
    fn wave_timeout_builder() {
        let plan = Ccr::new().with_wave_timeout(SimDuration::from_secs(15)).plan();
        assert_eq!(plan.phases()[0].timeout, Some(SimDuration::from_secs(15)));
        assert_eq!(plan.phases()[1].timeout, Some(SimDuration::from_secs(15)));
    }

    #[test]
    fn plan_routes_capture_broadcast_and_keeps_it_under_parallel_waves() {
        let classic: Vec<WaveRouting> =
            Ccr::new().plan().phases().iter().map(|p| p.routing).collect();
        assert_eq!(
            classic,
            vec![WaveRouting::Broadcast, WaveRouting::Sequential, WaveRouting::Broadcast]
        );
        let parallel: Vec<WaveRouting> =
            Ccr::new().with_parallel_waves(4).plan().phases().iter().map(|p| p.routing).collect();
        assert_eq!(
            parallel,
            vec![
                WaveRouting::Broadcast, // capture is not a store operation
                WaveRouting::Parallel { fan_out: 4 },
                WaveRouting::Parallel { fan_out: 4 },
            ]
        );
        assert!(Ccr::new().plan().validate().is_ok());
    }
}
