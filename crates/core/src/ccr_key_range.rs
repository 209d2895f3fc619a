//! Capture-Checkpoint-Resume scoped to hot key ranges — skew-aware
//! migration that moves only the state that is actually hot.
//!
//! Every whole-instance strategy — CCR and CCR-P included — pays for the
//! *entire* state of every migrating instance: each one is captured,
//! persisted, killed, respawned and restored, even when a Zipf-skewed key
//! space concentrates most of the traffic (and most of the state growth)
//! in a handful of key partitions. `CcrKeyRange` scopes all three waves
//! with [`WaveScope::KeyRanges`]: the engine resolves the hottest
//! partitions per migrating keyed task (smallest set reaching the
//! configured weight target, default 60 %), and only their *owner*
//! instances participate. Owners capture, persist and restore just the
//! scoped ranges — priced by the bytes of those ranges, not the whole
//! blob — while cold keyed instances keep processing straight through the
//! migration, untouched by the rebalance. On an unkeyed dataflow the scope
//! degenerates to the migrating-instance set and the strategy behaves like
//! CCR-P.
//!
//! Migrated ranges return to their respawned owners, the only placement
//! the engine's slot-stable keyed shuffle can serve: partition `p` belongs
//! to replica `p mod k` before and after the rebalance.

use crate::plan::{MigrationPlan, PausePolicy, PlanPhase, WaveKind};
use crate::strategy::{MigrationStrategy, StrategyKind};
use flowmig_engine::{resend, KeyRangeScope, ProtocolConfig, WaveRouting, WaveScope};
use flowmig_metrics::MigrationPhase;
use flowmig_sim::SimDuration;

/// The key-range-scoped CCR strategy.
///
/// # Examples
///
/// ```
/// use flowmig_core::{CcrKeyRange, MigrationStrategy, StrategyKind};
/// use flowmig_engine::WaveScope;
///
/// let s = CcrKeyRange::new();
/// assert_eq!(s.kind(), StrategyKind::CcrKeyRange);
/// // Every wave is narrowed to the hot key ranges:
/// assert!(s.plan().phases().iter().all(|p| p.wave_scope.is_key_range()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CcrKeyRange {
    hot_permille: u16,
    wave_timeout: Option<SimDuration>,
    /// Per-shard window for all three waves; 0 derives it from the store
    /// shard count at the engine — against the *scoped* participant count.
    fan_out: usize,
}

impl Default for CcrKeyRange {
    fn default() -> Self {
        CcrKeyRange {
            hot_permille: KeyRangeScope::DEFAULT_HOT_PERMILLE,
            wave_timeout: Some(resend::ACK_TIMEOUT),
            fan_out: 0,
        }
    }
}

impl CcrKeyRange {
    /// Key-range CCR targeting the default 60 % hot weight, with the
    /// derived fan-out and the paper's 1 s INIT resend cadence.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the hot-weight target, in permille (clamped to 1000;
    /// 1000 migrates the whole key space — CCR-P with extra addressing).
    pub fn with_hot_permille(mut self, permille: u16) -> Self {
        self.hot_permille = permille.min(1000);
        self
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

impl MigrationStrategy for CcrKeyRange {
    fn kind(&self) -> StrategyKind {
        StrategyKind::CcrKeyRange
    }

    /// The CCR-P skeleton with every wave scoped to the hot key ranges:
    /// PREPARE installs range-filtered capture at the owners, COMMIT
    /// persists one blob per hot range (cold counters stay resident),
    /// the rebalance redeploys only the owners, and INIT merges the
    /// fetched ranges back over the state that survived in place.
    fn plan(&self) -> MigrationPlan {
        let paced = WaveRouting::Parallel { fan_out: self.fan_out };
        let scope = WaveScope::KeyRanges(KeyRangeScope::hot(self.hot_permille));
        let mut prepare = PlanPhase::wave(WaveKind::Prepare, paced)
            .scoped(MigrationPhase::Drain)
            .with_scope(scope);
        prepare.timeout = self.wave_timeout;
        let mut commit = PlanPhase::wave(WaveKind::Commit, paced)
            .scoped(MigrationPhase::Commit)
            .with_scope(scope);
        commit.timeout = self.wave_timeout;
        MigrationPlan::new(ProtocolConfig::ccr())
            .pause(PausePolicy::UntilComplete)
            .phase(prepare)
            .phase(commit)
            .phase(
                PlanPhase::wave(WaveKind::Init, paced)
                    .after_rebalance()
                    .scoped(MigrationPhase::Restore)
                    .with_scope(scope)
                    .with_resend(resend::FAST),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlanError;

    #[test]
    fn defaults_target_sixty_percent_hot_weight() {
        let plan = CcrKeyRange::new().plan();
        let phases = plan.phases();
        assert!(phases
            .iter()
            .all(|p| p.wave_scope == WaveScope::KeyRanges(KeyRangeScope::hot(600))));
        assert!(phases.iter().all(|p| p.routing == WaveRouting::Parallel { fan_out: 0 }));
        assert_eq!(phases[2].resend, Some(SimDuration::from_secs(1)));
        assert_eq!(phases[0].timeout, Some(SimDuration::from_secs(30)));
        assert_eq!(phases[1].timeout, Some(SimDuration::from_secs(30)));
        assert_eq!(CcrKeyRange::new().name(), "CCR-KR");
    }

    #[test]
    fn builders_adjust_scope_and_window() {
        let s = CcrKeyRange::new().with_hot_permille(900).with_fan_out(4);
        let plan = s.plan();
        assert!(plan
            .phases()
            .iter()
            .all(|p| p.wave_scope
                == WaveScope::KeyRanges(KeyRangeScope { hot_weight_permille: 900 })));
        assert!(plan.phases().iter().all(|p| p.routing == WaveRouting::Parallel { fan_out: 4 }));
        let clamped = s.with_hot_permille(2000).plan();
        assert_eq!(
            clamped.phases()[0].wave_scope,
            WaveScope::KeyRanges(KeyRangeScope::hot(1000)),
            "permille clamps"
        );
    }

    #[test]
    fn plan_validates_with_owner_respawn_routing() {
        // Ranges return to their respawned owners when the INIT re-reads
        // every range the COMMIT persisted.
        let plan = CcrKeyRange::new().plan();
        assert!(plan.phases()[2].wave_scope.covers_commit(plan.phases()[1].wave_scope));
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn dropping_the_routing_or_capture_invalidates_the_plan() {
        // Same phases with an unscoped INIT: the hot ranges the COMMIT
        // persisted are never routed back to their owners.
        let base = CcrKeyRange::new().plan();
        let mut unrouted =
            MigrationPlan::new(ProtocolConfig::ccr()).pause(PausePolicy::UntilComplete);
        for &ph in base.phases() {
            let mut unscoped_init = ph;
            if ph.wave == WaveKind::Init {
                unscoped_init.wave_scope = WaveScope::AllParticipants;
            }
            unrouted = unrouted.phase(unscoped_init);
        }
        assert_eq!(unrouted.validate().unwrap_err(), PlanError::ScopedCommitUncovered);

        // A capture-less protocol cannot scope by key range even when its
        // PREPARE is a safe sequential drain.
        let mut uncaptured =
            MigrationPlan::new(ProtocolConfig::dcr()).pause(PausePolicy::UntilComplete);
        for &ph in base.phases() {
            let mut drained = ph;
            drained.routing = WaveRouting::Sequential;
            uncaptured = uncaptured.phase(drained);
        }
        assert_eq!(uncaptured.validate().unwrap_err(), PlanError::KeyRangeScopeWithoutCapture);
    }

    #[test]
    fn protocol_matches_ccr() {
        assert_eq!(CcrKeyRange::new().protocol(), ProtocolConfig::ccr());
    }
}
