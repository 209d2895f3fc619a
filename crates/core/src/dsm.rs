//! Default Storm Migration (DSM) — the baseline strategy of §2.
//!
//! DSM is what stock Storm gives you: on a migration request the
//! `rebalance` command runs immediately (default timeout 0), killing the
//! migrating tasks along with their queued events. Reliability is recovered
//! after the fact: the always-on acker replays lost tuple trees from the
//! source after their 30 s timeout, and task state is restored from the
//! last *periodic* checkpoint via an INIT wave — re-sent only on the 30 s
//! ack-timeout, which is why DSM's restore time grows in ≈30 s jumps
//! (§5.1).

use crate::plan::{MigrationPlan, PausePolicy, PeriodicCheckpoint, PlanPhase, WaveKind};
use crate::strategy::{MigrationStrategy, StrategyKind};
use flowmig_engine::{resend, ProtocolConfig, WaveRouting};
use flowmig_metrics::MigrationPhase;
use flowmig_sim::SimDuration;

/// The DSM strategy.
///
/// `pause_timeout` models the user-chosen rebalance timeout of §2: Storm
/// pauses the sources for this long before killing tasks, hoping in-flight
/// events drain. Users "may under- or over-estimate this timeout, causing
/// messages to be lost or the dataflow to be idle" — the
/// `ablation_dsm_timeout` bench sweeps it. The paper's evaluation uses 0.
///
/// # Examples
///
/// ```
/// use flowmig_core::{Dsm, MigrationStrategy, StrategyKind};
///
/// let dsm = Dsm::default();
/// assert_eq!(dsm.kind(), StrategyKind::Dsm);
/// assert!(dsm.protocol().ack_user_events);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dsm {
    pause_timeout: SimDuration,
    parallel_fan_out: Option<usize>,
}

impl Default for Dsm {
    fn default() -> Self {
        Dsm { pause_timeout: SimDuration::ZERO, parallel_fan_out: None }
    }
}

impl Dsm {
    /// DSM with the paper's zero rebalance timeout.
    pub fn new() -> Self {
        Self::default()
    }

    /// DSM with a user-specified pause timeout before the kill (§2).
    pub fn with_pause_timeout(pause_timeout: SimDuration) -> Self {
        Dsm { pause_timeout, parallel_fan_out: None }
    }

    /// Parallelizes DSM's store-bound waves: the periodic-checkpoint COMMIT
    /// and the post-rebalance INIT switch to [`WaveRouting::Parallel`] with
    /// `fan_out` in-flight store operations per shard (0 = derived from
    /// the store topology). The periodic PREPARE stays sequential — its barrier is
    /// what makes the snapshot consistent against in-flight events.
    pub fn with_parallel_waves(mut self, fan_out: usize) -> Self {
        self.parallel_fan_out = Some(fan_out);
        self
    }
}

impl MigrationStrategy for Dsm {
    fn kind(&self) -> StrategyKind {
        StrategyKind::Dsm
    }

    /// DSM as data: no checkpoint waves of its own — the migration is just
    /// kill (optionally after a timed pause) and a post-rebalance INIT
    /// re-sent on the 30 s ack-timeout cadence, with durability supplied
    /// by the always-on periodic PREPARE→COMMIT loop.
    fn plan(&self) -> MigrationPlan {
        let store_wave = match self.parallel_fan_out {
            Some(fan_out) => WaveRouting::Parallel { fan_out },
            None => WaveRouting::Sequential,
        };
        let pause = if self.pause_timeout.is_zero() {
            PausePolicy::None
        } else {
            // §2: after the timeout the kill happens; the topology is
            // reactivated (sources resume) once the rebalance command
            // completes, as with Storm's deactivate→rebalance→activate.
            PausePolicy::Timed(self.pause_timeout)
        };
        MigrationPlan::new(ProtocolConfig::dsm())
            .pause(pause)
            .phase(
                PlanPhase::wave(WaveKind::Init, store_wave)
                    .after_rebalance()
                    .scoped(MigrationPhase::Restore)
                    .with_resend(resend::ACK_TIMEOUT),
            )
            .periodic(PeriodicCheckpoint { commit_routing: store_wave })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_timeout_is_zero() {
        // A zero rebalance timeout kills at once: the plan never pauses.
        assert_eq!(Dsm::new(), Dsm::with_pause_timeout(SimDuration::ZERO));
        assert_eq!(Dsm::new().plan().pause_policy(), PausePolicy::None);
    }

    #[test]
    fn protocol_enables_acking_and_periodic_checkpoints() {
        let p = Dsm::new().protocol();
        assert!(p.ack_user_events);
        assert!(p.periodic_checkpoint);
        assert!(!p.capture_on_prepare);
    }

    #[test]
    fn parallel_waves_builder() {
        // The store-bound waves: the INIT phase and the periodic COMMIT.
        let store_waves = |plan: MigrationPlan| {
            (plan.phases()[0].routing, plan.periodic_checkpoint().map(|p| p.commit_routing))
        };
        let sequential = WaveRouting::Sequential;
        assert_eq!(store_waves(Dsm::new().plan()), (sequential, Some(sequential)));
        let parallel = WaveRouting::Parallel { fan_out: 2 };
        assert_eq!(
            store_waves(Dsm::new().with_parallel_waves(2).plan()),
            (parallel, Some(parallel))
        );
    }

    #[test]
    fn plan_is_restore_only_with_periodic_durability() {
        let plan = Dsm::new().plan();
        assert_eq!(plan.phases().len(), 1, "no JIT checkpoint waves");
        assert_eq!(plan.phases()[0].wave, WaveKind::Init);
        assert_eq!(plan.phases()[0].resend, Some(resend::ACK_TIMEOUT));
        assert!(plan.clone().validate().is_ok(), "periodic section supplies durability");
    }

    #[test]
    fn pause_timeout_becomes_a_timed_pause() {
        let timed = Dsm::with_pause_timeout(SimDuration::from_secs(10)).plan();
        assert_eq!(timed.pause_policy(), PausePolicy::Timed(SimDuration::from_secs(10)));
        assert!(timed.validate().is_ok());
    }
}
