//! Checkpoint-protocol configuration and the coordinator interface.
//!
//! The engine implements the *mechanisms* — queues, waves, alignment,
//! capture, rebalance, acking — while a [`MigrationCoordinator`] (the
//! strategies in `flowmig-core`) supplies the *policy*: which waves to send
//! in what order, how they are routed, and when to rebalance and resume.

use crate::engine::EngineCtl;
use flowmig_metrics::ControlKind;
use flowmig_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// How a control wave reaches the dataflow's instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WaveRouting {
    /// Along the dataflow edges, entering at the root tasks and forwarded
    /// task-to-task with barrier alignment — the wave sweeps *behind* all
    /// in-flight user events (DCR's PREPARE, every strategy's COMMIT).
    Sequential,
    /// Hub-and-spoke directly from the checkpoint source to the end of
    /// every instance's input queue (CCR's PREPARE and INIT).
    Broadcast,
    /// Hub-and-spoke like [`Broadcast`](WaveRouting::Broadcast), but paced
    /// by the sharded checkpoint store: participants are grouped by store
    /// shard (deterministic order: shard index, then instance index) and
    /// each shard serves at most `fan_out` concurrent persist/fetch
    /// operations — the next instance of a shard is injected only when one
    /// of the shard's in-flight operations completes. Shards progress
    /// concurrently, so wave time is the *max* over shards (≈ instances /
    /// (shards × fan_out) store round-trips) instead of the O(instances)
    /// sweep of a hop-by-hop wave.
    ///
    /// The first window is injected one remote-network epoch after the wave
    /// starts, which keeps the wave a rearguard: any data event still in
    /// network flight when the wave starts lands first.
    ///
    /// `fan_out == 0` derives the window from the store topology
    /// ([`EngineConfig::derived_fan_out`](crate::EngineConfig::derived_fan_out)).
    Parallel {
        /// Maximum concurrent store operations per shard (0 = derived).
        fan_out: usize,
    },
}

/// Which slice of the dataflow a control wave touches: every participant,
/// or the hot key ranges of the migrating instances.
///
/// The scope is orthogonal to the routing: routing says *how* a wave
/// travels, scope says *who* must act on and ack it. The default
/// ([`AllParticipants`](WaveScope::AllParticipants)) reproduces the
/// whole-instance protocols byte-for-byte; the key-range scope is what
/// key-range migration (CCR-KR) uses to touch only the state that actually
/// moves.
///
/// A key-range scope is a symbolic selector, resolved by the engine
/// against the run's scale plan and key spaces when the wave starts — a
/// plan stays static strategy data and never embeds concrete instance ids.
/// A scope that resolves to no participant (a dataflow where nothing
/// migrates) widens to every participant, so the wave still completes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WaveScope {
    /// Every non-source participant (operators + sinks) — the behaviour of
    /// all whole-instance strategies.
    #[default]
    AllParticipants,
    /// Only selected key ranges of the migrating instances: instances that
    /// own none of the ranges are skipped entirely, and the ones in scope
    /// capture, persist, and restore just the scoped ranges' state.
    KeyRanges(KeyRangeScope),
}

impl WaveScope {
    /// Whether this scope selects at key-range granularity, narrowing the
    /// wave below the full participant set.
    pub fn is_key_range(self) -> bool {
        matches!(self, WaveScope::KeyRanges(_))
    }

    /// Whether an INIT with scope `self` restores everything a COMMIT with
    /// scope `commit` persisted. Scopes address different store entries —
    /// a whole-instance restore cannot read range-addressed blobs — so a
    /// key-range COMMIT is covered only by a key-range INIT whose hot
    /// target is at least as wide.
    pub fn covers_commit(self, commit: WaveScope) -> bool {
        match (self, commit) {
            (_, WaveScope::AllParticipants) => true,
            (WaveScope::KeyRanges(i), WaveScope::KeyRanges(c)) => {
                i.hot_weight_permille >= c.hot_weight_permille
            }
            (WaveScope::AllParticipants, WaveScope::KeyRanges(_)) => false,
        }
    }
}

/// Key-range wave scope selector: the hottest ranges of each migrating
/// task's key space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct KeyRangeScope {
    /// Cumulative weight target, in permille: the hot set is the smallest
    /// group of partitions (picked by descending weight) whose combined
    /// rate/state weight reaches `hot_weight_permille / 1000` — see
    /// [`TaskSpec::hot_ranges`](flowmig_topology::TaskSpec::hot_ranges).
    /// `1000` degenerates to whole-key-space (≈ whole-instance) migration.
    pub hot_weight_permille: u16,
}

impl KeyRangeScope {
    /// The default hot target: ranges carrying ≥ 60 % of the traffic move.
    pub const DEFAULT_HOT_PERMILLE: u16 = 600;

    /// Scope covering the hottest ranges up to `permille / 1000` weight.
    pub fn hot(permille: u16) -> Self {
        KeyRangeScope { hot_weight_permille: permille.min(1000) }
    }
}

impl Default for KeyRangeScope {
    fn default() -> Self {
        KeyRangeScope::hot(Self::DEFAULT_HOT_PERMILLE)
    }
}

/// Static protocol behaviour selected by a strategy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProtocolConfig {
    /// Ack every user event through the acker service (DSM; DCR/CCR enable
    /// reliability only for checkpoint events — §3.1).
    pub ack_user_events: bool,
    /// Run periodic checkpoints at `EngineConfig::checkpoint_interval`
    /// (DSM's always-on 30 s checkpointing).
    pub periodic_checkpoint: bool,
    /// PREPARE starts capture (CCR) instead of snapshotting state (DCR),
    /// and COMMIT persists the captured pending-event list along with the
    /// user state.
    pub capture_on_prepare: bool,
}

impl ProtocolConfig {
    /// Protocol behaviour of Default Storm Migration: acking on for all
    /// events, periodic checkpointing, no capture.
    pub fn dsm() -> Self {
        ProtocolConfig {
            ack_user_events: true,
            periodic_checkpoint: true,
            capture_on_prepare: false,
        }
    }

    /// Protocol behaviour of Drain-Checkpoint-Restore: reliability only for
    /// checkpoint events, just-in-time checkpoint, drain semantics.
    pub fn dcr() -> Self {
        ProtocolConfig {
            ack_user_events: false,
            periodic_checkpoint: false,
            capture_on_prepare: false,
        }
    }

    /// Protocol behaviour of Capture-Checkpoint-Resume: like DCR, plus
    /// capture-on-PREPARE and pending-list persistence.
    pub fn ccr() -> Self {
        ProtocolConfig {
            ack_user_events: false,
            periodic_checkpoint: false,
            capture_on_prepare: true,
        }
    }
}

/// Policy hooks through which a migration strategy drives the engine.
///
/// All methods receive an [`EngineCtl`] handle exposing the control-plane
/// operations (pause/unpause sources, start waves, rebalance, phase marks).
/// The engine performs all per-instance mechanics; the coordinator only
/// sequences phases.
pub trait MigrationCoordinator {
    /// The user requested the migration (the paper's time 0).
    fn on_migration_requested(&mut self, ctl: &mut EngineCtl<'_, '_>);

    /// Every participating instance has acked the current `kind` wave.
    fn on_wave_complete(&mut self, kind: ControlKind, ctl: &mut EngineCtl<'_, '_>);

    /// Storm's rebalance command finished; workers are respawning.
    fn on_rebalance_complete(&mut self, ctl: &mut EngineCtl<'_, '_>);

    /// A resend timer armed via [`EngineCtl::schedule_resend`] fired.
    fn on_resend_timer(&mut self, kind: ControlKind, ctl: &mut EngineCtl<'_, '_>);

    /// The periodic checkpoint timer fired (only when
    /// [`ProtocolConfig::periodic_checkpoint`] is set).
    fn on_checkpoint_timer(&mut self, ctl: &mut EngineCtl<'_, '_>) {
        let _ = ctl;
    }

    /// A timer armed via [`EngineCtl::schedule_timer`] fired.
    fn on_timer(&mut self, token: u32, ctl: &mut EngineCtl<'_, '_>) {
        let _ = (token, ctl);
    }
}

/// A coordinator that never migrates — steady-state runs and unit tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopCoordinator;

impl MigrationCoordinator for NoopCoordinator {
    fn on_migration_requested(&mut self, _ctl: &mut EngineCtl<'_, '_>) {}

    fn on_wave_complete(&mut self, _kind: ControlKind, _ctl: &mut EngineCtl<'_, '_>) {}

    fn on_rebalance_complete(&mut self, _ctl: &mut EngineCtl<'_, '_>) {}

    fn on_resend_timer(&mut self, _kind: ControlKind, _ctl: &mut EngineCtl<'_, '_>) {}
}

/// Resend cadences used by the strategies (§3/§5.1: DCR and CCR re-emit
/// INIT every second; DSM relies on the 30 s ack-timeout).
pub mod resend {
    use super::SimDuration;

    /// DCR/CCR INIT re-emission interval.
    pub const FAST: SimDuration = SimDuration::from_secs(1);
    /// DSM's INIT retry interval (the acking timeout).
    pub const ACK_TIMEOUT: SimDuration = SimDuration::from_secs(30);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_protocol_matrix() {
        let dsm = ProtocolConfig::dsm();
        assert!(dsm.ack_user_events && dsm.periodic_checkpoint);
        assert!(!dsm.capture_on_prepare);

        let dcr = ProtocolConfig::dcr();
        assert!(!dcr.ack_user_events && !dcr.periodic_checkpoint);
        assert!(!dcr.capture_on_prepare);

        let ccr = ProtocolConfig::ccr();
        assert!(!ccr.ack_user_events && !ccr.periodic_checkpoint);
        assert!(ccr.capture_on_prepare);
    }

    #[test]
    fn parallel_routing_carries_fan_out() {
        let r = WaveRouting::Parallel { fan_out: 4 };
        assert_ne!(r, WaveRouting::Sequential);
        assert_ne!(r, WaveRouting::Broadcast);
        assert_ne!(r, WaveRouting::Parallel { fan_out: 2 });
        assert!(matches!(r, WaveRouting::Parallel { fan_out: 4 }));
    }

    #[test]
    fn resend_constants_match_paper() {
        assert_eq!(resend::FAST.as_secs_f64(), 1.0);
        assert_eq!(resend::ACK_TIMEOUT.as_secs_f64(), 30.0);
    }

    #[test]
    fn default_scope_is_all_participants() {
        assert_eq!(WaveScope::default(), WaveScope::AllParticipants);
        assert!(!WaveScope::AllParticipants.is_key_range());
        assert!(WaveScope::KeyRanges(KeyRangeScope::default()).is_key_range());
    }

    #[test]
    fn scope_coverage_requires_matching_granularity() {
        let all = WaveScope::AllParticipants;
        let hot600 = WaveScope::KeyRanges(KeyRangeScope::hot(600));
        let hot400 = WaveScope::KeyRanges(KeyRangeScope::hot(400));

        // An unscoped commit is covered by any init.
        assert!(all.covers_commit(all));

        // Key-range commits need a key-range init at least as wide.
        assert!(hot600.covers_commit(hot600));
        assert!(hot600.covers_commit(hot400));
        assert!(!hot400.covers_commit(hot600), "narrower init leaves ranges stranded");
        assert!(!all.covers_commit(hot600), "whole-instance fetch cannot read range blobs");
    }

    #[test]
    fn key_range_scope_clamps_permille() {
        assert_eq!(KeyRangeScope::hot(1500).hot_weight_permille, 1000);
        assert_eq!(KeyRangeScope::default().hot_weight_permille, 600);
    }
}
