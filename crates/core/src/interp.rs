//! The generic plan interpreter: one coordinator for every strategy.
//!
//! [`PlanCoordinator`] walks a [`ValidPlan`](crate::ValidPlan) phase by
//! phase — pausing per the plan's [`PausePolicy`](crate::PausePolicy),
//! launching each [`PlanPhase`](crate::PlanPhase)'s wave when its barrier
//! clears, recording the phase's metric scope, re-emitting per its resend
//! cadence, aborting via ROLLBACK when a deadline expires, and running the
//! plan's periodic-checkpoint loop if one is declared. DSM, DCR, CCR and
//! CcrPipelined are all executions of this one state machine over
//! different plan values; their default timelines are byte-identical to
//! the strategy-specific coordinators they replaced (pinned by
//! `tests/determinism.rs`).

use crate::plan::{Barrier, MigrationPlan, PausePolicy, PlanPhase, ValidPlan};
use flowmig_engine::{resend, EngineCtl, MigrationCoordinator, WaveRouting};
use flowmig_metrics::{ControlKind, MigrationPhase};

/// Timer token for the [`PausePolicy::Timed`] wait; phase-deadline tokens
/// are the phase indices, which can never reach this value.
const PAUSE_TOKEN: u32 = u32::MAX;

/// Where the interpreter currently is in the plan (plus the periodic
/// checkpoint sub-machine, which runs between migrations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunState {
    /// No migration requested yet; periodic checkpoints may run.
    Idle,
    /// A periodic PREPARE sweep is in flight.
    PeriodicPrepare,
    /// A periodic COMMIT wave is in flight.
    PeriodicCommit,
    /// A stalled periodic cycle is being recovered via ROLLBACK.
    PeriodicRecover,
    /// Waiting out a [`PausePolicy::Timed`] pause before the first phase.
    Pausing,
    /// Phase `.0`'s wave is in flight.
    Running(usize),
    /// The rebalance command is in flight; phase `.0` launches when it
    /// completes.
    Rebalancing(usize),
    /// Every phase completed; the migration is done.
    Done,
    /// A deadline expired: the abort ROLLBACK is sweeping.
    Aborting,
    /// The abort completed; the dataflow resumed on the old deployment.
    Aborted,
}

/// The one migration coordinator: interprets any valid
/// [`MigrationPlan`](crate::MigrationPlan) (see [`crate::plan`] for the IR
/// and a worked example).
#[derive(Debug)]
pub struct PlanCoordinator {
    /// The plan, validated when the coordinator was built.
    plan: MigrationPlan,
    state: RunState,
    /// A [`PausePolicy::Timed`] pause is active and must be lifted when
    /// the rebalance completes.
    timed_pause: bool,
}

impl PlanCoordinator {
    /// A coordinator ready to run one migration of `plan`.
    pub fn new(plan: ValidPlan) -> Self {
        PlanCoordinator { plan: plan.0, state: RunState::Idle, timed_pause: false }
    }

    /// The current phase index, if a phase's wave is in flight.
    #[cfg(test)]
    pub(crate) fn running_phase(&self) -> Option<usize> {
        match self.state {
            RunState::Running(i) => Some(i),
            _ => None,
        }
    }

    fn phase(&self, i: usize) -> &PlanPhase {
        &self.plan.phases()[i]
    }

    /// Moves to phase `i`: launches it directly, or invokes the rebalance
    /// first if the phase is gated on it. Past the last phase, the
    /// migration completes.
    fn enter(&mut self, i: usize, ctl: &mut EngineCtl<'_, '_>) {
        if i >= self.plan.phases().len() {
            self.finish(ctl);
            return;
        }
        match self.phase(i).barrier {
            Barrier::Wave => self.launch(i, ctl),
            Barrier::Rebalance => {
                self.state = RunState::Rebalancing(i);
                ctl.start_rebalance();
            }
        }
    }

    /// Starts phase `i`'s wave: scope mark, fresh tracker, injection, and
    /// the resend timer if the phase has a cadence.
    fn launch(&mut self, i: usize, ctl: &mut EngineCtl<'_, '_>) {
        let ph = *self.phase(i);
        self.state = RunState::Running(i);
        if let Some(scope) = ph.scope {
            ctl.phase_started(scope);
        }
        let kind = ph.wave.control_kind();
        ctl.reset_wave(kind);
        ctl.start_scoped_wave(kind, ph.routing, ph.wave_scope);
        if let Some(cadence) = ph.resend {
            ctl.schedule_resend(kind, cadence);
        }
    }

    /// Arms one deadline timer per timed phase. Deadlines are relative to
    /// the start of the checkpoint sequence, so this runs once, right
    /// after the first phase launches.
    fn arm_deadlines(&mut self, ctl: &mut EngineCtl<'_, '_>) {
        for (i, ph) in self.plan.phases().iter().enumerate() {
            if let Some(deadline) = ph.timeout {
                ctl.schedule_timer(i as u32, deadline);
            }
        }
    }

    /// All phases done: resume the sources if the plan paused them for
    /// the duration, and record completion.
    fn finish(&mut self, ctl: &mut EngineCtl<'_, '_>) {
        self.state = RunState::Done;
        if self.plan.pause_policy() == PausePolicy::UntilComplete {
            ctl.phase_started(MigrationPhase::Resume);
            ctl.unpause_sources();
            ctl.phase_ended(MigrationPhase::Pause);
        }
        ctl.complete_migration();
    }

    /// §2's three-phase-commit failure handling: roll the dataflow back
    /// and resume where it was — no rebalance happens.
    fn abort(&mut self, ctl: &mut EngineCtl<'_, '_>) {
        self.state = RunState::Aborting;
        ctl.reset_wave(ControlKind::Rollback);
        ctl.start_wave(ControlKind::Rollback, WaveRouting::Broadcast);
        ctl.schedule_resend(ControlKind::Rollback, resend::FAST);
    }
}

impl MigrationCoordinator for PlanCoordinator {
    fn on_migration_requested(&mut self, ctl: &mut EngineCtl<'_, '_>) {
        match self.plan.pause_policy() {
            PausePolicy::None => {
                self.enter(0, ctl);
                self.arm_deadlines(ctl);
            }
            PausePolicy::Timed(wait) => {
                self.state = RunState::Pausing;
                self.timed_pause = true;
                ctl.phase_started(MigrationPhase::Pause);
                ctl.pause_sources();
                ctl.schedule_timer(PAUSE_TOKEN, wait);
            }
            PausePolicy::UntilComplete => {
                ctl.phase_started(MigrationPhase::Pause);
                ctl.pause_sources();
                self.enter(0, ctl);
                self.arm_deadlines(ctl);
            }
        }
    }

    fn on_wave_complete(&mut self, kind: ControlKind, ctl: &mut EngineCtl<'_, '_>) {
        match self.state {
            RunState::Running(i) if self.phase(i).wave.control_kind() == kind => {
                if let Some(scope) = self.phase(i).scope {
                    ctl.phase_ended(scope);
                }
                self.enter(i + 1, ctl);
            }
            RunState::PeriodicPrepare if kind == ControlKind::Prepare => {
                let routing = self
                    .plan
                    .periodic_checkpoint()
                    .map_or(WaveRouting::Sequential, |p| p.commit_routing);
                self.state = RunState::PeriodicCommit;
                ctl.reset_wave(ControlKind::Commit);
                ctl.start_wave(ControlKind::Commit, routing);
            }
            RunState::PeriodicCommit if kind == ControlKind::Commit => {
                self.state = RunState::Idle;
            }
            RunState::PeriodicRecover if kind == ControlKind::Rollback => {
                self.state = RunState::Idle;
            }
            RunState::Aborting if kind == ControlKind::Rollback => {
                self.state = RunState::Aborted;
                // Resume the sources only if this plan paused them — a
                // PausePolicy::None plan never opened a Pause span, and
                // closing one here would corrupt the trace.
                let paused =
                    self.timed_pause || self.plan.pause_policy() == PausePolicy::UntilComplete;
                self.timed_pause = false;
                if paused {
                    ctl.unpause_sources();
                    ctl.phase_ended(MigrationPhase::Pause);
                }
            }
            _ => {} // stale wave (e.g. a periodic cycle the migration cut short)
        }
    }

    fn on_rebalance_complete(&mut self, ctl: &mut EngineCtl<'_, '_>) {
        let RunState::Rebalancing(next) = self.state else {
            return;
        };
        if self.timed_pause {
            // §2: the topology is reactivated once the rebalance command
            // completes, as with Storm's deactivate→rebalance→activate.
            self.timed_pause = false;
            ctl.unpause_sources();
            ctl.phase_ended(MigrationPhase::Pause);
        }
        self.launch(next, ctl);
    }

    fn on_resend_timer(&mut self, kind: ControlKind, ctl: &mut EngineCtl<'_, '_>) {
        match self.state {
            RunState::Running(i)
                if self.phase(i).wave.control_kind() == kind && !ctl.wave_complete(kind) =>
            {
                // §3.1: re-emissions are cheap — already-done participants
                // skip duplicates — so the plan's cadence can be aggressive.
                let ph = *self.phase(i);
                ctl.start_scoped_wave(kind, ph.routing, ph.wave_scope);
                if let Some(cadence) = ph.resend {
                    ctl.schedule_resend(kind, cadence);
                }
            }
            RunState::Aborting
                if kind == ControlKind::Rollback && !ctl.wave_complete(ControlKind::Rollback) =>
            {
                ctl.start_wave(ControlKind::Rollback, WaveRouting::Broadcast);
                ctl.schedule_resend(ControlKind::Rollback, resend::FAST);
            }
            _ => {}
        }
    }

    fn on_checkpoint_timer(&mut self, ctl: &mut EngineCtl<'_, '_>) {
        if self.plan.periodic_checkpoint().is_none() {
            return;
        }
        match self.state {
            RunState::Idle | RunState::Done | RunState::Aborted => {
                // The periodic PREPARE is always the sequential rearguard —
                // its barrier is what makes the snapshot consistent. An
                // aborted migration resumes the loop too: the rolled-back
                // dataflow still needs its always-on durability.
                self.state = RunState::PeriodicPrepare;
                ctl.reset_wave(ControlKind::Prepare);
                ctl.start_wave(ControlKind::Prepare, WaveRouting::Sequential);
            }
            RunState::PeriodicPrepare | RunState::PeriodicCommit | RunState::PeriodicRecover => {
                // The previous cycle stalled (e.g. an executor crashed
                // mid-sweep): recover with a ROLLBACK broadcast, which also
                // re-initializes returned instances from the last commit.
                self.state = RunState::PeriodicRecover;
                ctl.reset_wave(ControlKind::Rollback);
                ctl.start_wave(ControlKind::Rollback, WaveRouting::Broadcast);
            }
            _ => {} // mid-migration: the periodic loop yields
        }
    }

    fn on_timer(&mut self, token: u32, ctl: &mut EngineCtl<'_, '_>) {
        if token == PAUSE_TOKEN {
            if self.state == RunState::Pausing {
                self.enter(0, ctl);
                self.arm_deadlines(ctl);
            }
            return;
        }
        // Deadline for phase `token`: if the plan has not progressed past
        // that phase, the migration rolls back. (With several phases
        // sharing one deadline value this reproduces a joint budget:
        // whichever of them is still running when the timers fire aborts.)
        let RunState::Running(current) = self.state else {
            return;
        };
        if current as u32 <= token {
            self.abort(ctl);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dcr, MigrationStrategy};

    #[test]
    fn coordinator_starts_idle() {
        let c = PlanCoordinator::new(Dcr::new().plan().validate().expect("valid"));
        assert_eq!(c.state, RunState::Idle);
        assert_eq!(c.running_phase(), None);
    }

    #[test]
    fn aborting_an_unpaused_plan_neither_unpauses_nor_kills_the_periodic_loop() {
        // A user-authored plan the built-ins never exercise: periodic
        // checkpointing plus a timed JIT PREPARE, with no source pause.
        // Stalling the PREPARE must abort cleanly — no phantom Pause span
        // in the trace — and the periodic durability loop must resume
        // after the abort instead of wedging in the Aborted state.
        use crate::plan::{MigrationPlan, PausePolicy, PeriodicCheckpoint, PlanPhase, WaveKind};
        use flowmig_cluster::{ScaleDirection, ScalePlan};
        use flowmig_engine::{Engine, EngineConfig, ProtocolConfig, WaveRouting};
        use flowmig_metrics::{MigrationPhase, TraceEvent};
        use flowmig_sim::{SimDuration, SimTime};
        use flowmig_topology::{library, InstanceSet};

        struct UnpausedPeriodic;
        impl crate::MigrationStrategy for UnpausedPeriodic {
            fn kind(&self) -> crate::StrategyKind {
                crate::StrategyKind::Dsm
            }
            fn name(&self) -> &'static str {
                "DSM+JIT"
            }
            fn plan(&self) -> MigrationPlan {
                let mut prepare = PlanPhase::wave(WaveKind::Prepare, WaveRouting::Sequential);
                prepare.timeout = Some(SimDuration::from_secs(10));
                MigrationPlan::new(ProtocolConfig::dsm())
                    .pause(PausePolicy::None)
                    .phase(prepare)
                    .phase(PlanPhase::wave(WaveKind::Commit, WaveRouting::Sequential))
                    .phase(
                        PlanPhase::wave(WaveKind::Init, WaveRouting::Broadcast)
                            .after_rebalance()
                            .scoped(MigrationPhase::Restore)
                            .with_resend(SimDuration::from_secs(1)),
                    )
                    .periodic(PeriodicCheckpoint::default())
            }
        }

        let dag = library::linear();
        let instances = InstanceSet::plan(&dag);
        let plan =
            ScalePlan::paper_scenario(&dag, &instances, ScaleDirection::In).expect("placeable");
        let victim = instances.of_task(dag.task_by_name("t3").expect("t3 exists"))[0];
        let strategy = UnpausedPeriodic;
        let mut engine = Engine::new(
            dag,
            instances,
            &plan,
            EngineConfig::default(),
            strategy.protocol(),
            strategy.coordinator(),
            9,
        );
        engine.schedule_migration(SimTime::from_secs(60));
        // Crash t3 just after the request; the sequential PREPARE cannot
        // align, so the 10 s deadline fires and the migration aborts.
        engine.schedule_outage(victim, SimTime::from_millis(60_050), SimDuration::from_secs(20));
        engine.run_until(SimTime::from_secs(200));

        let trace = engine.trace();
        assert!(trace.migration_completed_at().is_none(), "migration must abort");
        // The plan never paused, so no Pause span may appear — neither a
        // start nor a dangling end.
        assert!(
            !trace.iter().any(|e| matches!(
                e,
                TraceEvent::PhaseStarted { phase: MigrationPhase::Pause, .. }
                    | TraceEvent::PhaseEnded { phase: MigrationPhase::Pause, .. }
            )),
            "an unpaused plan must not record Pause spans on abort"
        );
        // The periodic loop resumed after the abort: PREPARE waves keep
        // sweeping well past the failed migration.
        let last_periodic_prepare = trace
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::ControlWave {
                    kind: flowmig_metrics::ControlKind::Prepare, at, ..
                } => Some(at),
                _ => None,
            })
            .max()
            .expect("prepare waves recorded");
        assert!(
            last_periodic_prepare > SimTime::from_secs(150),
            "periodic checkpoints must survive the abort, last PREPARE at {last_periodic_prepare}"
        );
    }
}
