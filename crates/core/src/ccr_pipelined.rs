//! Capture-Checkpoint-Resume with fully pipelined waves — the first
//! strategy expressible only as a [`MigrationPlan`](crate::MigrationPlan).
//!
//! Classic CCR broadcasts PREPARE in one O(1) hub-and-spoke burst, but its
//! COMMIT and INIT (even the `with_parallel_waves` variants) leave the
//! PREPARE acks funnelling through a single completion path, and the
//! parallel windows need a hand-tuned `fan_out`. `CcrPipelined` routes
//! *every* wave [`WaveRouting::Parallel`] with `fan_out: 0`, which the
//! engine resolves per deployment to the window **derived from the store
//! shard count**
//! ([`EngineConfig::derived_fan_out`](flowmig_engine::EngineConfig::derived_fan_out))
//! — `ceil(participants / store_shards)`, each shard's fair share of the
//! wave. PREPARE pacing is legal here, and only here among the built-ins,
//! because CCR's capture semantics make any PREPARE order safe: events a
//! not-yet-swept task processes flow into a capturing task's pending list
//! or reach the sink; nothing is dropped (the plan validator rejects the
//! same routing for drain-based protocols).
//!
//! The point is architectural as much as quantitative: under PR 3's
//! coordinators this strategy would have needed a fourth hand-written
//! state machine; as a plan it is one builder below.

use crate::plan::{MigrationPlan, PausePolicy, PlanPhase, WaveKind};
use crate::strategy::{MigrationStrategy, StrategyKind};
use flowmig_engine::{resend, ProtocolConfig, WaveRouting};
use flowmig_metrics::MigrationPhase;
use flowmig_sim::SimDuration;

/// The pipelined-CCR strategy.
///
/// # Examples
///
/// ```
/// use flowmig_core::{CcrPipelined, MigrationStrategy, StrategyKind};
/// use flowmig_engine::WaveRouting;
///
/// let s = CcrPipelined::new();
/// assert_eq!(s.kind(), StrategyKind::CcrPipelined);
/// // Every wave is store-paced, window derived from the shard count:
/// assert!(s
///     .plan()
///     .phases()
///     .iter()
///     .all(|p| p.routing == WaveRouting::Parallel { fan_out: 0 }));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CcrPipelined {
    wave_timeout: Option<SimDuration>,
    /// Per-shard window for all three waves; 0 derives it from the store
    /// shard count at the engine.
    fan_out: usize,
}

impl Default for CcrPipelined {
    fn default() -> Self {
        CcrPipelined { wave_timeout: Some(resend::ACK_TIMEOUT), fan_out: 0 }
    }
}

impl CcrPipelined {
    /// Pipelined CCR with the derived fan-out and the paper's 1 s INIT
    /// resend cadence.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pins the per-shard window instead of deriving it from the shard
    /// count (0 restores the derivation).
    pub fn with_fan_out(mut self, fan_out: usize) -> Self {
        self.fan_out = fan_out;
        self
    }

    /// Disables the checkpoint-wave timeout.
    pub fn without_wave_timeout(mut self) -> Self {
        self.wave_timeout = None;
        self
    }
}

impl MigrationStrategy for CcrPipelined {
    fn kind(&self) -> StrategyKind {
        StrategyKind::CcrPipelined
    }

    /// The CCR skeleton with every wave store-paced: PREPARE starts
    /// capture shard window by shard window, COMMIT persists and INIT
    /// restores through the same windows, so each phase's span is the max
    /// over shards rather than any single funnel.
    fn plan(&self) -> MigrationPlan {
        let paced = WaveRouting::Parallel { fan_out: self.fan_out };
        let mut prepare = PlanPhase::wave(WaveKind::Prepare, paced).scoped(MigrationPhase::Drain);
        prepare.timeout = self.wave_timeout;
        let mut commit = PlanPhase::wave(WaveKind::Commit, paced).scoped(MigrationPhase::Commit);
        commit.timeout = self.wave_timeout;
        MigrationPlan::new(ProtocolConfig::ccr())
            .pause(PausePolicy::UntilComplete)
            .phase(prepare)
            .phase(commit)
            .phase(
                PlanPhase::wave(WaveKind::Init, paced)
                    .after_rebalance()
                    .scoped(MigrationPhase::Restore)
                    .with_resend(resend::FAST),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_derive_the_fan_out() {
        let plan = CcrPipelined::new().plan();
        let phases = plan.phases();
        assert!(phases.iter().all(|p| p.routing == WaveRouting::Parallel { fan_out: 0 }));
        assert_eq!(phases[2].resend, Some(SimDuration::from_secs(1)));
        assert_eq!(phases[0].timeout, Some(SimDuration::from_secs(30)));
        assert_eq!(phases[1].timeout, Some(SimDuration::from_secs(30)));
        assert_eq!(CcrPipelined::new().name(), "CCR-P");
    }

    #[test]
    fn builders_pin_the_window() {
        let s = CcrPipelined::new().with_fan_out(6);
        assert!(s
            .plan()
            .phases()
            .iter()
            .all(|p| p.routing == WaveRouting::Parallel { fan_out: 6 }));
        assert!(s.without_wave_timeout().plan().phases().iter().all(|p| p.timeout.is_none()));
    }

    #[test]
    fn plan_validates_because_capture_is_on() {
        // The identical routing with ProtocolConfig::dcr() is rejected
        // (UnsafePrepareRouting); capture is what licenses the paced
        // PREPARE.
        let plan = CcrPipelined::new().plan();
        assert!(plan.protocol().capture_on_prepare);
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn protocol_matches_ccr() {
        assert_eq!(CcrPipelined::new().protocol(), ProtocolConfig::ccr());
    }
}
