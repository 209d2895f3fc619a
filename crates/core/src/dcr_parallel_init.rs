//! Drain-Checkpoint-Restore with a parallel restore wave — the ROADMAP's
//! "drain purist" variant, a one-liner on the plan IR.
//!
//! Classic DCR keeps all three waves sequential: PREPARE *must* sweep the
//! DAG (it is the drain rearguard) and a conservative deployment keeps
//! COMMIT hop-by-hop too, but the post-rebalance INIT has no ordering
//! obligation at all — by then the dataflow is empty and every restore is
//! an independent store fetch. `DcrParallelInit` changes exactly that one
//! phase: PREPARE and COMMIT stay [`WaveRouting::Sequential`] (the full
//! drain guarantee, byte-for-byte), while INIT goes
//! [`WaveRouting::Parallel`] with the per-shard window derived from the
//! store topology (`fan_out: 0` —
//! [`EngineConfig::derived_fan_out`](flowmig_engine::EngineConfig::derived_fan_out)).
//! The restore critical path drops from an O(instances) sweep to ~one
//! store service epoch per shard window, without touching the semantics
//! that make DCR lossless.
//!
//! Under the per-shard FIFO store model
//! ([`StoreServiceModel::FifoPerShard`](flowmig_engine::StoreServiceModel))
//! the derived window is also a *fairness* bound: a store with too few
//! shards queues the INIT fetches and the restore span grows — visible in
//! the `migration_latency` bench's contention rows.

use crate::plan::{MigrationPlan, PausePolicy, PlanPhase, WaveKind};
use crate::strategy::{MigrationStrategy, StrategyKind};
use flowmig_engine::{resend, ProtocolConfig, WaveRouting};
use flowmig_metrics::MigrationPhase;
use flowmig_sim::SimDuration;

/// The DCR-with-parallel-INIT strategy.
///
/// # Examples
///
/// ```
/// use flowmig_core::{DcrParallelInit, MigrationStrategy, StrategyKind, WaveKind};
/// use flowmig_engine::WaveRouting;
///
/// let s = DcrParallelInit::new();
/// assert_eq!(s.kind(), StrategyKind::DcrParallelInit);
/// let plan = s.plan();
/// // The drain and the checkpoint stay sequential…
/// assert_eq!(plan.phases()[0].routing, WaveRouting::Sequential);
/// assert_eq!(plan.phases()[1].routing, WaveRouting::Sequential);
/// // …only the restore fans out, window derived from the shard count.
/// assert_eq!(plan.phases()[2].wave, WaveKind::Init);
/// assert_eq!(plan.phases()[2].routing, WaveRouting::Parallel { fan_out: 0 });
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DcrParallelInit {
    wave_timeout: Option<SimDuration>,
    /// Per-shard INIT window; 0 derives it from the store shard count at
    /// the engine.
    fan_out: usize,
}

impl Default for DcrParallelInit {
    fn default() -> Self {
        DcrParallelInit { wave_timeout: Some(resend::ACK_TIMEOUT), fan_out: 0 }
    }
}

impl DcrParallelInit {
    /// DCR-PI with the derived INIT window and the paper's 1 s INIT
    /// resend cadence.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pins the per-shard INIT window instead of deriving it from the
    /// shard count (0 restores the derivation).
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

impl MigrationStrategy for DcrParallelInit {
    fn kind(&self) -> StrategyKind {
        StrategyKind::DcrParallelInit
    }

    /// The DCR skeleton with only the restore re-routed: sequential
    /// PREPARE rearguard (the drain), sequential store-bound COMMIT,
    /// rebalance, then a store-paced parallel INIT re-sent every second.
    fn plan(&self) -> MigrationPlan {
        let mut prepare = PlanPhase::wave(WaveKind::Prepare, WaveRouting::Sequential)
            .scoped(MigrationPhase::Drain);
        prepare.timeout = self.wave_timeout;
        let mut commit = PlanPhase::wave(WaveKind::Commit, WaveRouting::Sequential)
            .scoped(MigrationPhase::Commit);
        commit.timeout = self.wave_timeout;
        MigrationPlan::new(ProtocolConfig::dcr())
            .pause(PausePolicy::UntilComplete)
            .phase(prepare)
            .phase(commit)
            .phase(
                PlanPhase::wave(WaveKind::Init, WaveRouting::Parallel { fan_out: self.fan_out })
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
    fn defaults_derive_the_init_window() {
        let plan = DcrParallelInit::new().plan();
        assert_eq!(plan.phases()[2].routing, WaveRouting::Parallel { fan_out: 0 });
        assert_eq!(plan.phases()[2].resend, Some(SimDuration::from_secs(1)));
        assert_eq!(plan.phases()[0].timeout, Some(SimDuration::from_secs(30)));
        assert_eq!(plan.phases()[1].timeout, Some(SimDuration::from_secs(30)));
        assert_eq!(DcrParallelInit::new().name(), "DCR-PI");
    }

    #[test]
    fn builders_configure_window_and_timeout() {
        let s = DcrParallelInit::new().with_fan_out(6);
        assert_eq!(s.plan().phases()[2].routing, WaveRouting::Parallel { fan_out: 6 });
        assert!(s.without_wave_timeout().plan().phases().iter().all(|p| p.timeout.is_none()));
    }

    #[test]
    fn protocol_is_plain_dcr() {
        // No capture, no acking, no periodic checkpointing — the drain is
        // what carries the reliability guarantee.
        assert_eq!(DcrParallelInit::new().protocol(), ProtocolConfig::dcr());
    }

    #[test]
    fn plan_validates_and_keeps_the_drain_sequential() {
        let plan = DcrParallelInit::new().plan();
        let routing: Vec<WaveRouting> = plan.phases().iter().map(|p| p.routing).collect();
        assert_eq!(
            routing,
            vec![
                WaveRouting::Sequential, // the drain rearguard
                WaveRouting::Sequential, // conservative checkpoint sweep
                WaveRouting::Parallel { fan_out: 0 },
            ]
        );
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn wave_timeouts_cover_only_the_checkpoint_phases() {
        let plan = DcrParallelInit::new().plan();
        assert!(plan.phases()[0].timeout.is_some());
        assert!(plan.phases()[1].timeout.is_some());
        assert_eq!(plan.phases()[2].timeout, None, "INIT has no rollback deadline");
    }
}
