//! The declarative migration-plan IR: strategies as data.
//!
//! The paper's strategies all sequence the same skeleton — pause → PREPARE
//! → COMMIT → rebalance → INIT → resume — and differ only in how each wave
//! is routed and which capture flags the engine protocol runs with. A
//! [`MigrationPlan`] captures exactly that: an ordered list of
//! [`PlanPhase`] values (wave kind, routing, barrier, metric scope,
//! deadline, resend cadence) plus the [`ProtocolConfig`] flags, validated
//! once by [`MigrationPlan::validate`] and then *interpreted* by the
//! generic [`PlanCoordinator`](crate::PlanCoordinator). [`Dsm`](crate::Dsm),
//! [`Dcr`](crate::Dcr), [`Ccr`](crate::Ccr) and
//! [`CcrPipelined`](crate::CcrPipelined) are nothing but small plan
//! builders; a new hybrid strategy is a new plan, not a new state machine.
//!
//! # Write your own strategy
//!
//! A strategy is a [`MigrationStrategy`](crate::MigrationStrategy) impl
//! whose [`plan`](crate::MigrationStrategy::plan) describes the timeline.
//! Here is CCR with its restore wave fanned out per store shard and every
//! wave narrowed to the hottest key ranges ([`WaveScope::KeyRanges`] — on
//! an unkeyed dataflow like Linear the scope degenerates to the migrating
//! instances), run end to end:
//!
//! ```
//! use flowmig_cluster::ScaleDirection;
//! use flowmig_core::{
//!     MigrationController, MigrationPlan, MigrationStrategy, PausePolicy, PlanPhase,
//!     StrategyKind, WaveKind,
//! };
//! use flowmig_engine::{KeyRangeScope, ProtocolConfig, WaveRouting, WaveScope};
//! use flowmig_metrics::MigrationPhase;
//! use flowmig_sim::{SimDuration, SimTime};
//! use flowmig_topology::library;
//!
//! /// CCR, except INIT is `Parallel` with the fan-out derived from the
//! /// store shard count (`fan_out: 0`) and every wave is scoped to the
//! /// ranges carrying ≥ 60 % of the key weight.
//! struct CcrShardedRestore;
//!
//! impl MigrationStrategy for CcrShardedRestore {
//!     fn kind(&self) -> StrategyKind {
//!         StrategyKind::Ccr // the CCR family: capture + resume semantics
//!     }
//!
//!     fn name(&self) -> &'static str {
//!         "CCR+SR"
//!     }
//!
//!     fn plan(&self) -> MigrationPlan {
//!         let hot = WaveScope::KeyRanges(KeyRangeScope::hot(600));
//!         MigrationPlan::new(ProtocolConfig::ccr())
//!             .pause(PausePolicy::UntilComplete)
//!             .phase(
//!                 PlanPhase::wave(WaveKind::Prepare, WaveRouting::Broadcast)
//!                     .scoped(MigrationPhase::Drain)
//!                     .with_scope(hot)
//!                     .with_timeout(SimDuration::from_secs(30)),
//!             )
//!             .phase(
//!                 PlanPhase::wave(WaveKind::Commit, WaveRouting::Sequential)
//!                     .scoped(MigrationPhase::Commit)
//!                     .with_scope(hot)
//!                     .with_timeout(SimDuration::from_secs(30)),
//!             )
//!             .phase(
//!                 PlanPhase::wave(WaveKind::Init, WaveRouting::Parallel { fan_out: 0 })
//!                     .after_rebalance()
//!                     .scoped(MigrationPhase::Restore)
//!                     .with_scope(hot)
//!                     .with_resend(SimDuration::from_secs(1)),
//!             )
//!     }
//! }
//!
//! // The validator accepts the plan (the default coordinator would panic
//! // on an invalid one, with the offending rule in the message)…
//! CcrShardedRestore.plan().validate().expect("a well-formed plan");
//!
//! // …and the controller runs it like any built-in strategy.
//! let outcome = MigrationController::new()
//!     .with_request_at(SimTime::from_secs(60))
//!     .with_horizon(SimTime::from_secs(360))
//!     .run(&library::linear(), &CcrShardedRestore, ScaleDirection::In)?;
//! assert!(outcome.completed);
//! assert_eq!(outcome.stats.events_dropped, 0); // capture semantics intact
//! # Ok::<(), flowmig_cluster::ScheduleError>(())
//! ```
//!
//! Swapping `WaveRouting::Broadcast` for `WaveRouting::Sequential` on the
//! PREPARE above (and `ProtocolConfig::dcr()` for the protocol) gives DCR;
//! the validator is what keeps such edits honest — e.g. a non-sequential
//! PREPARE without capture is rejected because in-flight events would be
//! neither drained nor captured, and a key-range scope without capture
//! semantics, or a key-range COMMIT whose INIT does not restore every
//! range it persisted, is rejected before it can strand hot-range state.
//! Migrated ranges always return to their respawned owners: the engine's
//! keyed shuffle is slot-stable, so partition `p` belongs to replica
//! `p mod k` before and after the rebalance.

use flowmig_engine::{ProtocolConfig, WaveRouting, WaveScope};
use flowmig_metrics::{ControlKind, MigrationPhase};
use flowmig_sim::SimDuration;
use std::fmt;

/// The wave a [`PlanPhase`] sends. ROLLBACK is deliberately absent: it is
/// the abort path, reachable only through an expired
/// [`PlanPhase::timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WaveKind {
    /// Snapshot (or start capturing) at every participant.
    Prepare,
    /// Persist state (and captured pending lists) to the checkpoint store.
    Commit,
    /// Restore state (and resume captured events) from the store.
    Init,
}

impl WaveKind {
    /// The engine control-event kind this wave is carried by.
    pub fn control_kind(self) -> ControlKind {
        match self {
            WaveKind::Prepare => ControlKind::Prepare,
            WaveKind::Commit => ControlKind::Commit,
            WaveKind::Init => ControlKind::Init,
        }
    }
}

/// What a [`PlanPhase`] waits on before its wave launches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Barrier {
    /// The previous phase's wave completing (or, for the first phase, the
    /// migration request itself).
    #[default]
    Wave,
    /// Storm's `rebalance` command: when the previous phase's wave
    /// completes (or at the migration request, for the first phase) the
    /// rebalance is invoked, and this phase launches once it finishes.
    /// Exactly one phase per plan carries this barrier.
    Rebalance,
}

/// One step of a [`MigrationPlan`]: a routed control wave plus its
/// synchronization, metric scope, failure deadline and re-emission cadence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanPhase {
    /// Which wave this phase sends.
    pub wave: WaveKind,
    /// How the wave reaches the participants.
    pub routing: WaveRouting,
    /// What the phase waits on before launching.
    pub barrier: Barrier,
    /// The §4 metric span recorded around the phase
    /// ([`MigrationPhase::Drain`], [`MigrationPhase::Commit`] or
    /// [`MigrationPhase::Restore`]; `None` records nothing).
    pub scope: Option<MigrationPhase>,
    /// Deadline, measured from the start of the plan's checkpoint
    /// sequence — the migration request or, under
    /// [`PausePolicy::Timed`], the end of the timed pause — by which this
    /// phase must have completed. Expiry while this phase — or an earlier
    /// one — is still in flight aborts the migration with §2's
    /// three-phase-commit failure handling: a ROLLBACK wave is broadcast
    /// (re-sent every [`resend::FAST`](flowmig_engine::resend::FAST))
    /// until every participant restores its pre-migration behaviour, then
    /// the sources resume. Only reachable before the rebalance — afterwards
    /// the old deployment no longer exists to roll back to, and the
    /// validator rejects a deadline there.
    pub timeout: Option<SimDuration>,
    /// Re-emit the wave at this cadence until every participant acks
    /// (already-done participants skip duplicates, so an aggressive
    /// cadence is cheap — §3.1).
    pub resend: Option<SimDuration>,
    /// Which participants (or key ranges) the wave addresses. The default
    /// [`WaveScope::AllParticipants`] is the pre-scope behaviour of every
    /// whole-instance strategy; a [`WaveScope::KeyRanges`] scope narrows
    /// the wave — and the state it moves — to the hot ranges.
    pub wave_scope: WaveScope,
}

impl PlanPhase {
    /// A phase sending `wave` with `routing`, launching on the previous
    /// wave's completion, with no scope, deadline or resend.
    pub fn wave(wave: WaveKind, routing: WaveRouting) -> Self {
        PlanPhase {
            wave,
            routing,
            barrier: Barrier::Wave,
            scope: None,
            timeout: None,
            resend: None,
            wave_scope: WaveScope::AllParticipants,
        }
    }

    /// Launches this phase after the rebalance command instead of directly
    /// on the previous wave's completion.
    pub fn after_rebalance(mut self) -> Self {
        self.barrier = Barrier::Rebalance;
        self
    }

    /// Records the phase under a §4 metric span.
    pub fn scoped(mut self, scope: MigrationPhase) -> Self {
        self.scope = Some(scope);
        self
    }

    /// Arms a completion deadline (see [`PlanPhase::timeout`]).
    pub fn with_timeout(mut self, timeout: SimDuration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Re-emits the wave at `cadence` until fully acked.
    pub fn with_resend(mut self, cadence: SimDuration) -> Self {
        self.resend = Some(cadence);
        self
    }

    /// Narrows the wave to `scope` (see [`WaveScope`]).
    pub fn with_scope(mut self, scope: WaveScope) -> Self {
        self.wave_scope = scope;
        self
    }
}

/// How a plan handles the sources while migrating.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PausePolicy {
    /// Never pause: the kill happens under live traffic and reliability
    /// is recovered after the fact (DSM with zero rebalance timeout).
    #[default]
    None,
    /// Pause for a fixed duration before proceeding, resuming when the
    /// rebalance completes — §2's user-chosen rebalance timeout.
    Timed(SimDuration),
    /// Pause at the migration request and resume only when the final
    /// phase completes (DCR/CCR).
    UntilComplete,
}

/// Always-on periodic checkpointing (DSM's 30 s PREPARE→COMMIT loop, §2).
/// The PREPARE sweep is always sequential — its barrier is what makes the
/// snapshot consistent against in-flight events; only the store-bound
/// COMMIT routing is configurable. A stalled cycle is recovered with a
/// ROLLBACK broadcast at the next tick (Storm's checkpoint-spout
/// recovery).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeriodicCheckpoint {
    /// Routing of the periodic COMMIT wave.
    pub commit_routing: WaveRouting,
}

impl Default for PeriodicCheckpoint {
    fn default() -> Self {
        PeriodicCheckpoint { commit_routing: WaveRouting::Sequential }
    }
}

/// A complete, declarative migration strategy: the ordered phase timeline
/// plus the engine protocol flags it runs under. Built by the strategy
/// types, checked by [`validate`](Self::validate), executed by
/// [`PlanCoordinator`](crate::PlanCoordinator).
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationPlan {
    protocol: ProtocolConfig,
    pause: PausePolicy,
    phases: Vec<PlanPhase>,
    periodic: Option<PeriodicCheckpoint>,
}

impl MigrationPlan {
    /// An empty plan running under `protocol`, with no pause and no
    /// periodic checkpointing.
    pub fn new(protocol: ProtocolConfig) -> Self {
        MigrationPlan { protocol, pause: PausePolicy::None, phases: Vec::new(), periodic: None }
    }

    /// Sets the source pause policy.
    pub fn pause(mut self, pause: PausePolicy) -> Self {
        self.pause = pause;
        self
    }

    /// Appends a phase to the timeline.
    pub fn phase(mut self, phase: PlanPhase) -> Self {
        self.phases.push(phase);
        self
    }

    /// Enables always-on periodic checkpointing.
    pub fn periodic(mut self, periodic: PeriodicCheckpoint) -> Self {
        self.periodic = Some(periodic);
        self
    }

    /// The engine protocol flags the plan runs under.
    pub fn protocol(&self) -> ProtocolConfig {
        self.protocol
    }

    /// The phase timeline.
    pub fn phases(&self) -> &[PlanPhase] {
        &self.phases
    }

    /// The source pause policy.
    pub fn pause_policy(&self) -> PausePolicy {
        self.pause
    }

    /// The periodic-checkpoint section, if the plan declares one.
    pub fn periodic_checkpoint(&self) -> Option<PeriodicCheckpoint> {
        self.periodic
    }

    /// Checks the plan against the structural rules (see [`PlanError`]
    /// for the full list) and seals it for interpretation.
    ///
    /// # Errors
    ///
    /// Returns the first [`PlanError`] violated, most fundamental first.
    pub fn validate(self) -> Result<ValidPlan, PlanError> {
        PlanValidator::check(&self)?;
        Ok(ValidPlan(self))
    }
}

/// A [`MigrationPlan`] that passed [`MigrationPlan::validate`] — the only
/// thing a [`PlanCoordinator`](crate::PlanCoordinator) will interpret.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidPlan(pub(crate) MigrationPlan);

impl ValidPlan {
    /// The underlying plan.
    pub fn plan(&self) -> &MigrationPlan {
        &self.0
    }
}

/// Why a [`MigrationPlan`] was rejected by the validator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// The plan has no phases at all.
    Empty,
    /// No phase carries [`Barrier::Rebalance`]: the migration would never
    /// move the dataflow.
    NoRebalance,
    /// More than one phase carries [`Barrier::Rebalance`]; the engine
    /// rebalances exactly once per migration.
    MultipleRebalances,
    /// Two phases send the same wave kind; the engine tracks acks per
    /// kind, so a duplicate would corrupt completion accounting.
    DuplicateWave(WaveKind),
    /// A PREPARE or COMMIT phase is placed at or after the rebalance
    /// barrier, where the pre-migration deployment no longer exists.
    CheckpointAfterRebalance(WaveKind),
    /// An INIT phase is placed before the rebalance barrier: there is
    /// nothing to restore onto yet.
    RestoreBeforeRebalance,
    /// COMMIT precedes PREPARE: state would be persisted before it was
    /// snapshotted.
    CommitBeforePrepare,
    /// A PREPARE routed non-sequentially without capture semantics:
    /// in-flight events would be neither drained (no rearguard sweep) nor
    /// captured — they would be silently lost.
    UnsafePrepareRouting,
    /// The protocol's `periodic_checkpoint` flag disagrees with the
    /// plan's [`PeriodicCheckpoint`] section.
    PeriodicMismatch,
    /// Neither a COMMIT phase nor periodic checkpointing: the INIT phase
    /// would restore from a store nobody ever writes.
    NothingToRestore,
    /// A deadline on a phase at or after the rebalance barrier: an expired
    /// deadline rolls back, and the rollback target is unreachable there.
    UnreachableRollback,
    /// The final phase has no resend cadence: post-rebalance workers drop
    /// control events while starting, so a single un-resent wave can
    /// wedge the migration forever.
    FinalPhaseWithoutResend,
    /// A phase is scoped to an engine-managed span
    /// ([`MigrationPhase::Pause`], [`MigrationPhase::Rebalance`] or
    /// [`MigrationPhase::Resume`]), which the coordinator records itself.
    ReservedScope(MigrationPhase),
    /// A COMMIT narrowed by a [`WaveScope`] with no following INIT whose
    /// scope covers it (see [`WaveScope::covers_commit`]): part of the
    /// persisted state would never be restored.
    ScopedCommitUncovered,
    /// A [`WaveScope::KeyRanges`] scope without `capture_on_prepare`: the
    /// hot-range pending lists the scope migrates only exist under capture
    /// semantics.
    KeyRangeScopeWithoutCapture,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Empty => f.write_str("plan has no phases"),
            PlanError::NoRebalance => f.write_str("no phase carries the rebalance barrier"),
            PlanError::MultipleRebalances => {
                f.write_str("more than one phase carries the rebalance barrier")
            }
            PlanError::DuplicateWave(kind) => {
                write!(f, "wave kind {kind:?} appears in more than one phase")
            }
            PlanError::CheckpointAfterRebalance(kind) => {
                write!(f, "{kind:?} phase placed at or after the rebalance barrier")
            }
            PlanError::RestoreBeforeRebalance => {
                f.write_str("Init phase placed before the rebalance barrier")
            }
            PlanError::CommitBeforePrepare => f.write_str("Commit phase precedes Prepare"),
            PlanError::UnsafePrepareRouting => f.write_str(
                "non-sequential PREPARE without capture: in-flight events would be lost",
            ),
            PlanError::PeriodicMismatch => f.write_str(
                "protocol periodic_checkpoint flag disagrees with the plan's periodic section",
            ),
            PlanError::NothingToRestore => {
                f.write_str("no Commit phase and no periodic checkpointing: nothing to restore")
            }
            PlanError::UnreachableRollback => f.write_str(
                "rollback-on-timeout at or after the rebalance: the old deployment is gone",
            ),
            PlanError::FinalPhaseWithoutResend => {
                f.write_str("final phase has no resend cadence and could wedge the migration")
            }
            PlanError::ReservedScope(phase) => {
                write!(f, "scope {phase:?} is engine-managed and cannot be claimed by a phase")
            }
            PlanError::ScopedCommitUncovered => f.write_str(
                "scoped Commit without a covering Init scope: persisted state would be stranded",
            ),
            PlanError::KeyRangeScopeWithoutCapture => f.write_str(
                "key-range scope without capture_on_prepare: hot-range pending lists need capture",
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// The structural rule set every interpreted plan must satisfy — routing ×
/// phase compatibility, rebalance placement, rollback reachability and
/// protocol consistency.
pub struct PlanValidator;

impl PlanValidator {
    /// Checks `plan` against every rule; `Ok(())` means the plan can be
    /// interpreted safely.
    ///
    /// # Errors
    ///
    /// Returns the first [`PlanError`] violated.
    pub fn check(plan: &MigrationPlan) -> Result<(), PlanError> {
        let phases = &plan.phases;
        if phases.is_empty() {
            return Err(PlanError::Empty);
        }

        let rebalance_idx = {
            let mut found = None;
            for (i, ph) in phases.iter().enumerate() {
                if ph.barrier == Barrier::Rebalance {
                    if found.is_some() {
                        return Err(PlanError::MultipleRebalances);
                    }
                    found = Some(i);
                }
            }
            found.ok_or(PlanError::NoRebalance)?
        };

        let mut prepare_idx = None;
        let mut commit_idx = None;
        for (i, ph) in phases.iter().enumerate() {
            let slot = match ph.wave {
                WaveKind::Prepare => &mut prepare_idx,
                WaveKind::Commit => &mut commit_idx,
                WaveKind::Init => {
                    if i < rebalance_idx {
                        return Err(PlanError::RestoreBeforeRebalance);
                    }
                    continue;
                }
            };
            if slot.is_some() {
                return Err(PlanError::DuplicateWave(ph.wave));
            }
            if i >= rebalance_idx {
                return Err(PlanError::CheckpointAfterRebalance(ph.wave));
            }
            *slot = Some(i);
        }
        // Init duplicates: at most one Init phase too.
        if phases.iter().filter(|p| p.wave == WaveKind::Init).count() > 1 {
            return Err(PlanError::DuplicateWave(WaveKind::Init));
        }
        if let (Some(p), Some(c)) = (prepare_idx, commit_idx) {
            if c < p {
                return Err(PlanError::CommitBeforePrepare);
            }
        }

        if let Some(p) = prepare_idx {
            let drained = phases[p].routing == WaveRouting::Sequential;
            if !drained && !plan.protocol.capture_on_prepare {
                return Err(PlanError::UnsafePrepareRouting);
            }
        }
        // Scope rules: a key-range COMMIT must be restored by an INIT whose
        // scope covers it, and key-range scopes need capture semantics.
        if let Some(c) = commit_idx {
            let commit_scope = phases[c].wave_scope;
            if commit_scope.is_key_range() {
                let init_scope =
                    phases.iter().find(|p| p.wave == WaveKind::Init).map(|p| p.wave_scope);
                if !init_scope.is_some_and(|s| s.covers_commit(commit_scope)) {
                    return Err(PlanError::ScopedCommitUncovered);
                }
            }
        }
        if phases.iter().any(|p| p.wave_scope.is_key_range()) && !plan.protocol.capture_on_prepare {
            return Err(PlanError::KeyRangeScopeWithoutCapture);
        }
        if plan.protocol.periodic_checkpoint != plan.periodic.is_some() {
            return Err(PlanError::PeriodicMismatch);
        }
        if commit_idx.is_none() && plan.periodic.is_none() {
            return Err(PlanError::NothingToRestore);
        }

        for (i, ph) in phases.iter().enumerate() {
            if ph.timeout.is_some() && i >= rebalance_idx {
                return Err(PlanError::UnreachableRollback);
            }
            if let Some(scope) = ph.scope {
                if matches!(
                    scope,
                    MigrationPhase::Pause | MigrationPhase::Rebalance | MigrationPhase::Resume
                ) {
                    return Err(PlanError::ReservedScope(scope));
                }
            }
        }

        if phases.last().is_some_and(|p| p.resend.is_none()) {
            return Err(PlanError::FinalPhaseWithoutResend);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn restore_phase() -> PlanPhase {
        PlanPhase::wave(WaveKind::Init, WaveRouting::Broadcast)
            .after_rebalance()
            .scoped(MigrationPhase::Restore)
            .with_resend(SimDuration::from_secs(1))
    }

    fn dcr_like() -> MigrationPlan {
        MigrationPlan::new(ProtocolConfig::dcr())
            .pause(PausePolicy::UntilComplete)
            .phase(
                PlanPhase::wave(WaveKind::Prepare, WaveRouting::Sequential)
                    .scoped(MigrationPhase::Drain),
            )
            .phase(
                PlanPhase::wave(WaveKind::Commit, WaveRouting::Sequential)
                    .scoped(MigrationPhase::Commit),
            )
            .phase(restore_phase())
    }

    #[test]
    fn dcr_like_plan_validates() {
        assert!(dcr_like().validate().is_ok());
    }

    #[test]
    fn empty_plan_is_rejected() {
        let plan = MigrationPlan::new(ProtocolConfig::dcr());
        assert_eq!(plan.validate().unwrap_err(), PlanError::Empty);
    }

    #[test]
    fn a_plan_needs_exactly_one_rebalance() {
        let none = MigrationPlan::new(ProtocolConfig::dcr())
            .phase(PlanPhase::wave(WaveKind::Commit, WaveRouting::Sequential))
            .phase(
                PlanPhase::wave(WaveKind::Init, WaveRouting::Broadcast)
                    .with_resend(SimDuration::from_secs(1)),
            );
        assert_eq!(none.validate().unwrap_err(), PlanError::NoRebalance);

        let two = MigrationPlan::new(ProtocolConfig::dcr())
            .phase(PlanPhase::wave(WaveKind::Commit, WaveRouting::Sequential).after_rebalance())
            .phase(restore_phase());
        assert_eq!(two.validate().unwrap_err(), PlanError::MultipleRebalances);
    }

    #[test]
    fn duplicate_wave_kinds_are_rejected() {
        let plan = MigrationPlan::new(ProtocolConfig::dcr())
            .phase(PlanPhase::wave(WaveKind::Commit, WaveRouting::Sequential))
            .phase(PlanPhase::wave(WaveKind::Commit, WaveRouting::Broadcast))
            .phase(restore_phase());
        assert_eq!(plan.validate().unwrap_err(), PlanError::DuplicateWave(WaveKind::Commit));
    }

    #[test]
    fn routing_phase_compatibility_guards_the_drain() {
        // A broadcast PREPARE without capture loses in-flight events.
        let plan = MigrationPlan::new(ProtocolConfig::dcr())
            .phase(PlanPhase::wave(WaveKind::Prepare, WaveRouting::Broadcast))
            .phase(PlanPhase::wave(WaveKind::Commit, WaveRouting::Sequential))
            .phase(restore_phase());
        assert_eq!(plan.validate().unwrap_err(), PlanError::UnsafePrepareRouting);

        // The same routing is fine once capture is on (CCR semantics).
        let captured = MigrationPlan::new(ProtocolConfig::ccr())
            .phase(PlanPhase::wave(WaveKind::Prepare, WaveRouting::Broadcast))
            .phase(PlanPhase::wave(WaveKind::Commit, WaveRouting::Sequential))
            .phase(restore_phase());
        assert!(captured.validate().is_ok());

        // Parallel PREPARE (CcrPipelined's signature move) is also capture-only.
        let parallel = MigrationPlan::new(ProtocolConfig::ccr())
            .phase(PlanPhase::wave(WaveKind::Prepare, WaveRouting::Parallel { fan_out: 0 }))
            .phase(PlanPhase::wave(WaveKind::Commit, WaveRouting::Sequential))
            .phase(restore_phase());
        assert!(parallel.validate().is_ok());
    }

    #[test]
    fn checkpoint_waves_must_precede_the_rebalance() {
        let plan = MigrationPlan::new(ProtocolConfig::dcr())
            .phase(PlanPhase::wave(WaveKind::Prepare, WaveRouting::Sequential))
            .phase(
                PlanPhase::wave(WaveKind::Commit, WaveRouting::Sequential)
                    .after_rebalance()
                    .with_resend(SimDuration::from_secs(1)),
            );
        assert_eq!(
            plan.validate().unwrap_err(),
            PlanError::CheckpointAfterRebalance(WaveKind::Commit)
        );

        let init_early = MigrationPlan::new(ProtocolConfig::dcr())
            .phase(PlanPhase::wave(WaveKind::Init, WaveRouting::Broadcast))
            .phase(PlanPhase::wave(WaveKind::Commit, WaveRouting::Sequential).after_rebalance());
        assert_eq!(init_early.validate().unwrap_err(), PlanError::RestoreBeforeRebalance);
    }

    #[test]
    fn commit_cannot_precede_prepare() {
        let plan = MigrationPlan::new(ProtocolConfig::dcr())
            .phase(PlanPhase::wave(WaveKind::Commit, WaveRouting::Sequential))
            .phase(PlanPhase::wave(WaveKind::Prepare, WaveRouting::Sequential))
            .phase(restore_phase());
        assert_eq!(plan.validate().unwrap_err(), PlanError::CommitBeforePrepare);
    }

    #[test]
    fn rollback_must_be_reachable() {
        let plan = MigrationPlan::new(ProtocolConfig::dcr())
            .phase(PlanPhase::wave(WaveKind::Commit, WaveRouting::Sequential))
            .phase(restore_phase().with_timeout(SimDuration::from_secs(30)));
        assert_eq!(plan.validate().unwrap_err(), PlanError::UnreachableRollback);
    }

    #[test]
    fn final_phase_must_resend() {
        let plan = MigrationPlan::new(ProtocolConfig::dcr())
            .phase(PlanPhase::wave(WaveKind::Commit, WaveRouting::Sequential))
            .phase(PlanPhase::wave(WaveKind::Init, WaveRouting::Broadcast).after_rebalance());
        assert_eq!(plan.validate().unwrap_err(), PlanError::FinalPhaseWithoutResend);
    }

    #[test]
    fn protocol_consistency_is_enforced() {
        // periodic flag without a periodic section…
        let plan = MigrationPlan::new(ProtocolConfig::dsm())
            .phase(restore_phase().with_resend(SimDuration::from_secs(30)));
        assert_eq!(plan.validate().unwrap_err(), PlanError::PeriodicMismatch);

        // …and a JIT plan without any COMMIT has nothing to restore.
        let no_commit = MigrationPlan::new(ProtocolConfig::dcr()).phase(restore_phase());
        assert_eq!(no_commit.validate().unwrap_err(), PlanError::NothingToRestore);
    }

    #[test]
    fn reserved_scopes_are_rejected() {
        let plan = dcr_like();
        let mut phases: Vec<PlanPhase> = plan.phases().to_vec();
        phases[0].scope = Some(MigrationPhase::Rebalance);
        let mut bad = MigrationPlan::new(ProtocolConfig::dcr()).pause(PausePolicy::None);
        for p in phases {
            bad = bad.phase(p);
        }
        assert_eq!(
            bad.validate().unwrap_err(),
            PlanError::ReservedScope(MigrationPhase::Rebalance)
        );
    }

    #[test]
    fn scoped_commit_needs_a_covering_init() {
        use flowmig_engine::KeyRangeScope;
        let kr = |permille| WaveScope::KeyRanges(KeyRangeScope::hot(permille));
        let scoped = |wave, routing, scope| PlanPhase::wave(wave, routing).with_scope(scope);
        let base = |init: PlanPhase| {
            MigrationPlan::new(ProtocolConfig::ccr())
                .phase(scoped(WaveKind::Prepare, WaveRouting::Broadcast, kr(600)))
                .phase(scoped(WaveKind::Commit, WaveRouting::Sequential, kr(600)))
                .phase(init)
        };

        // An unscoped INIT addresses whole-instance blobs; it cannot read
        // what a key-range COMMIT persisted.
        assert_eq!(base(restore_phase()).validate().unwrap_err(), PlanError::ScopedCommitUncovered);
        // A narrower INIT scope strands the commit's wider hot set.
        assert_eq!(
            base(restore_phase().with_scope(kr(300))).validate().unwrap_err(),
            PlanError::ScopedCommitUncovered
        );
        // Equal or wider coverage validates.
        assert!(base(restore_phase().with_scope(kr(600))).validate().is_ok());
        assert!(base(restore_phase().with_scope(kr(800))).validate().is_ok());
    }

    #[test]
    fn key_range_scope_requires_capture_semantics() {
        use flowmig_engine::KeyRangeScope;
        let scope = WaveScope::KeyRanges(KeyRangeScope::hot(600));
        // Sequential drain keeps UnsafePrepareRouting quiet; the scope rule
        // itself must fire: no capture means no hot-range pending lists.
        let plan = MigrationPlan::new(ProtocolConfig::dcr())
            .phase(PlanPhase::wave(WaveKind::Prepare, WaveRouting::Sequential).with_scope(scope))
            .phase(PlanPhase::wave(WaveKind::Commit, WaveRouting::Sequential).with_scope(scope))
            .phase(restore_phase().with_scope(scope));
        assert_eq!(plan.validate().unwrap_err(), PlanError::KeyRangeScopeWithoutCapture);
    }

    #[test]
    fn built_in_plans_all_validate() {
        for info in crate::strategies() {
            let strategy = info.build_default();
            let plan = strategy.plan();
            assert!(
                plan.clone().validate().is_ok(),
                "built-in `{}` plan rejected: {:?}",
                info.cli_name,
                plan.validate().unwrap_err()
            );
        }
    }

    #[test]
    fn errors_render_human_readable() {
        assert!(PlanError::Empty.to_string().contains("no phases"));
        assert!(PlanError::UnsafePrepareRouting.to_string().contains("capture"));
        assert!(PlanError::DuplicateWave(WaveKind::Init).to_string().contains("Init"));
    }
}
