//! Drain-Checkpoint-Restore (DCR) — §3.1 of the paper.
//!
//! DCR pauses the sources and lets a **sequential** PREPARE wave sweep the
//! dataflow as the *rearguard*: because every input queue is
//! single-threaded, a task seeing PREPARE knows it has processed every
//! in-flight event — the dataflow is drained with zero loss. A COMMIT wave
//! then persists a just-in-time checkpoint, the rebalance runs with nothing
//! in flight, and after redeployment an INIT wave (re-sent every second)
//! restores the freshest state before the sources resume.
//!
//! Compared to DSM there are no failed/replayed events, no interleaving of
//! old and new events, and no always-on acking/checkpointing overheads; the
//! cost is the drain time, proportional to the dataflow's critical path and
//! input rate (§5.1 — see the `drain_time` bench).

use crate::plan::{MigrationPlan, PausePolicy, PlanPhase, WaveKind};
use crate::strategy::{MigrationStrategy, StrategyKind};
use flowmig_engine::{resend, ProtocolConfig, WaveRouting};
use flowmig_metrics::MigrationPhase;
use flowmig_sim::SimDuration;

/// The DCR strategy.
///
/// # Examples
///
/// ```
/// use flowmig_core::{Dcr, MigrationStrategy, StrategyKind};
///
/// let dcr = Dcr::default();
/// assert_eq!(dcr.kind(), StrategyKind::Dcr);
/// // Reliability only for checkpoint events (§3.1):
/// assert!(!dcr.protocol().ack_user_events);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dcr {
    init_resend: SimDuration,
    wave_timeout: Option<SimDuration>,
    parallel_fan_out: Option<usize>,
}

impl Default for Dcr {
    fn default() -> Self {
        // The checkpoint waves roll back if not fully acked within the
        // acking timeout (§2's three-phase-commit failure handling).
        Dcr {
            init_resend: resend::FAST,
            wave_timeout: Some(resend::ACK_TIMEOUT),
            parallel_fan_out: None,
        }
    }
}

impl Dcr {
    /// DCR with the paper's 1 s INIT resend cadence.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the INIT re-emission interval (the `ablation_init_resend`
    /// bench compares 1 s with DSM's 30 s cadence).
    pub fn with_init_resend(mut self, interval: SimDuration) -> Self {
        self.init_resend = interval;
        self
    }

    /// Aborts the migration with a ROLLBACK wave if PREPARE/COMMIT do not
    /// complete within `timeout` (three-phase-commit failure handling).
    pub fn with_wave_timeout(mut self, timeout: SimDuration) -> Self {
        self.wave_timeout = Some(timeout);
        self
    }

    /// The configured INIT resend interval.
    pub fn init_resend(&self) -> SimDuration {
        self.init_resend
    }

    /// The configured checkpoint-wave timeout, if any.
    pub fn wave_timeout(&self) -> Option<SimDuration> {
        self.wave_timeout
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
    /// derives from the store topology). PREPARE stays sequential — it
    /// *is* the drain rearguard and must keep sweeping behind the in-flight
    /// events. By COMMIT time the dataflow is fully drained, so the persist
    /// order no longer matters and the wave can fan out across store
    /// shards.
    pub fn with_parallel_waves(mut self, fan_out: usize) -> Self {
        self.parallel_fan_out = Some(fan_out);
        self
    }

    /// The configured per-shard parallel-wave fan-out, if parallel waves
    /// are enabled.
    pub fn parallel_fan_out(&self) -> Option<usize> {
        self.parallel_fan_out
    }
}

impl MigrationStrategy for Dcr {
    fn kind(&self) -> StrategyKind {
        StrategyKind::Dcr
    }

    /// DCR as data: pause for the duration, sequential PREPARE rearguard
    /// (the drain), store-bound COMMIT, rebalance, INIT re-sent every
    /// second. COMMIT and INIT switch to per-shard parallel under
    /// [`with_parallel_waves`](Self::with_parallel_waves); PREPARE never
    /// does — it *is* the drain and must keep sweeping behind the
    /// in-flight events (the plan validator enforces this for any
    /// non-capturing protocol).
    fn plan(&self) -> MigrationPlan {
        let store_wave = match self.parallel_fan_out {
            Some(fan_out) => WaveRouting::Parallel { fan_out },
            None => WaveRouting::Sequential,
        };
        let mut prepare = PlanPhase::wave(WaveKind::Prepare, WaveRouting::Sequential)
            .scoped(MigrationPhase::Drain);
        prepare.timeout = self.wave_timeout;
        let mut commit =
            PlanPhase::wave(WaveKind::Commit, store_wave).scoped(MigrationPhase::Commit);
        commit.timeout = self.wave_timeout;
        MigrationPlan::new("DCR", ProtocolConfig::dcr())
            .pause(PausePolicy::UntilComplete)
            .phase(prepare)
            .phase(commit)
            .phase(
                PlanPhase::wave(WaveKind::Init, store_wave)
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
        let d = Dcr::new();
        assert_eq!(d.init_resend(), SimDuration::from_secs(1));
        assert_eq!(d.wave_timeout(), Some(SimDuration::from_secs(30)));
        assert_eq!(d.without_wave_timeout().wave_timeout(), None);
        assert_eq!(d.name(), "DCR");
    }

    #[test]
    fn builders_configure_ablations() {
        let d = Dcr::new()
            .with_init_resend(SimDuration::from_secs(30))
            .with_wave_timeout(SimDuration::from_secs(20));
        assert_eq!(d.init_resend(), SimDuration::from_secs(30));
        assert_eq!(d.wave_timeout(), Some(SimDuration::from_secs(20)));
    }

    #[test]
    fn parallel_waves_builder() {
        let d = Dcr::new();
        assert_eq!(d.parallel_fan_out(), None, "fully sequential by default");
        assert_eq!(d.with_parallel_waves(8).parallel_fan_out(), Some(8));
    }

    #[test]
    fn protocol_has_no_capture() {
        let p = Dcr::new().protocol();
        assert!(!p.capture_on_prepare && !p.persist_pending);
        assert!(!p.periodic_checkpoint);
    }

    #[test]
    fn plan_keeps_prepare_sequential_even_with_parallel_waves() {
        let plan = Dcr::new().with_parallel_waves(8).plan();
        let routing: Vec<WaveRouting> = plan.phases().iter().map(|p| p.routing).collect();
        assert_eq!(
            routing,
            vec![
                WaveRouting::Sequential, // the drain rearguard
                WaveRouting::Parallel { fan_out: 8 },
                WaveRouting::Parallel { fan_out: 8 },
            ]
        );
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn wave_timeouts_flow_into_the_checkpoint_phases() {
        let plan = Dcr::new().with_wave_timeout(SimDuration::from_secs(20)).plan();
        assert_eq!(plan.phases()[0].timeout, Some(SimDuration::from_secs(20)));
        assert_eq!(plan.phases()[1].timeout, Some(SimDuration::from_secs(20)));
        assert_eq!(plan.phases()[2].timeout, None, "INIT has no rollback deadline");
        let open_ended = Dcr::new().without_wave_timeout().plan();
        assert!(open_ended.phases().iter().all(|p| p.timeout.is_none()));
    }
}
