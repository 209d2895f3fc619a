//! The migration-strategy abstraction and the strategy registry.

use crate::interp::PlanCoordinator;
use crate::plan::MigrationPlan;
use crate::{Ccr, CcrKeyRange, CcrPipelined, Dcr, DcrParallelInit, Dsm};
use flowmig_engine::{MigrationCoordinator, ProtocolConfig};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The strategies shipped with the crate: the paper's three plus the
/// plan-IR-era extensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StrategyKind {
    /// Default Storm Migration (§2): kill immediately, rely on acking
    /// replay and periodic checkpoints for reliability.
    Dsm,
    /// Drain-Checkpoint-Restore (§3.1): drain in-flight events, JIT
    /// checkpoint, restore after rebalance.
    Dcr,
    /// DCR with only the post-rebalance INIT fanned out per store shard
    /// (sequential PREPARE/COMMIT keep the full drain guarantee) — the
    /// "drain purist" plan-IR variant ([`DcrParallelInit`]).
    DcrParallelInit,
    /// Capture-Checkpoint-Resume (§3.2): capture in-flight events in place,
    /// checkpoint them with the state, resume them after rebalance.
    Ccr,
    /// CCR with every wave — including PREPARE — fanned out per store
    /// shard, the fan-out derived from the shard count
    /// ([`CcrPipelined`]). Expressible only as a plan.
    CcrPipelined,
    /// CCR scoped to the hottest key ranges ([`CcrKeyRange`]): only the
    /// hot-range owners migrate, and only the hot ranges' bytes move —
    /// the skew-aware strategy.
    CcrKeyRange,
}

impl fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl StrategyKind {
    /// The paper's three strategies, in its presentation order — the
    /// matrix every §5 experiment sweeps.
    pub const ALL: [StrategyKind; 3] = [StrategyKind::Dsm, StrategyKind::Dcr, StrategyKind::Ccr];

    /// Display name (e.g. `"DCR"`).
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::Dsm => "DSM",
            StrategyKind::Dcr => "DCR",
            StrategyKind::DcrParallelInit => "DCR-PI",
            StrategyKind::Ccr => "CCR",
            StrategyKind::CcrPipelined => "CCR-P",
            StrategyKind::CcrKeyRange => "CCR-KR",
        }
    }
}

/// A dataflow migration strategy: a declarative [`MigrationPlan`]
/// describing the phase timeline and protocol flags. The plan is validated
/// and interpreted by the generic [`PlanCoordinator`]; a strategy normally
/// overrides nothing but [`plan`](Self::plan) and [`kind`](Self::kind).
///
/// Implementations: [`Dsm`], [`Dcr`], [`Ccr`], [`CcrPipelined`] — and see
/// [`crate::plan`] for a worked write-your-own example.
pub trait MigrationStrategy {
    /// Which strategy family this is.
    fn kind(&self) -> StrategyKind;

    /// Display name (e.g. `"DCR"`).
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// The declarative plan this strategy executes.
    fn plan(&self) -> MigrationPlan;

    /// The engine protocol behaviour this strategy requires.
    fn protocol(&self) -> ProtocolConfig {
        self.plan().protocol()
    }

    /// Builds a fresh coordinator for one migration run: the interpreted,
    /// validated plan.
    ///
    /// # Panics
    ///
    /// Panics if [`plan`](Self::plan) fails validation — a strategy bug,
    /// reported with the violated rule.
    fn coordinator(&self) -> Box<dyn MigrationCoordinator> {
        match self.plan().validate() {
            Ok(valid) => Box::new(PlanCoordinator::new(valid)),
            Err(err) => panic!("invalid migration plan for {}: {err}", self.name()),
        }
    }
}

/// One registry row: everything the CLI, benches and sweeps need to list,
/// parse and instantiate a strategy in one place.
pub struct StrategyInfo {
    /// The strategy family.
    pub kind: StrategyKind,
    /// The CLI spelling (`--strategy` accepts it case-insensitively).
    pub cli_name: &'static str,
    /// The long, paper-style name for docs and reports.
    pub paper_name: &'static str,
    builder: fn(Option<usize>) -> Box<dyn MigrationStrategy>,
}

impl StrategyInfo {
    /// Instantiates the strategy; `parallel_fan_out` switches its
    /// store-bound waves to [`WaveRouting::Parallel`] (0 = the window
    /// derived from the store topology) where the strategy supports it.
    /// `CcrPipelined` is parallel by construction: the value overrides its
    /// per-shard window instead.
    ///
    /// [`WaveRouting::Parallel`]: flowmig_engine::WaveRouting::Parallel
    pub fn build(&self, parallel_fan_out: Option<usize>) -> Box<dyn MigrationStrategy> {
        (self.builder)(parallel_fan_out)
    }

    /// The strategy with its paper-default configuration.
    pub fn build_default(&self) -> Box<dyn MigrationStrategy> {
        self.build(None)
    }
}

impl fmt::Debug for StrategyInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StrategyInfo")
            .field("kind", &self.kind)
            .field("cli_name", &self.cli_name)
            .field("paper_name", &self.paper_name)
            .finish_non_exhaustive()
    }
}

fn build_dsm(par: Option<usize>) -> Box<dyn MigrationStrategy> {
    Box::new(match par {
        Some(fan_out) => Dsm::new().with_parallel_waves(fan_out),
        None => Dsm::new(),
    })
}

fn build_dcr(par: Option<usize>) -> Box<dyn MigrationStrategy> {
    Box::new(match par {
        Some(fan_out) => Dcr::new().with_parallel_waves(fan_out),
        None => Dcr::new(),
    })
}

fn build_dcr_parallel_init(par: Option<usize>) -> Box<dyn MigrationStrategy> {
    Box::new(match par {
        // DCR-PI's INIT is parallel by construction; the knob overrides
        // its per-shard window instead (like CcrPipelined).
        Some(fan_out) => DcrParallelInit::new().with_fan_out(fan_out),
        None => DcrParallelInit::new(),
    })
}

fn build_ccr(par: Option<usize>) -> Box<dyn MigrationStrategy> {
    Box::new(match par {
        Some(fan_out) => Ccr::new().with_parallel_waves(fan_out),
        None => Ccr::new(),
    })
}

fn build_ccr_pipelined(par: Option<usize>) -> Box<dyn MigrationStrategy> {
    Box::new(match par {
        Some(fan_out) => CcrPipelined::new().with_fan_out(fan_out),
        None => CcrPipelined::new(),
    })
}

fn build_ccr_key_range(par: Option<usize>) -> Box<dyn MigrationStrategy> {
    Box::new(match par {
        // CCR-KR's waves are parallel by construction; the knob overrides
        // its per-shard window instead (like CcrPipelined).
        Some(fan_out) => CcrKeyRange::new().with_fan_out(fan_out),
        None => CcrKeyRange::new(),
    })
}

/// The single strategy registry: kind, CLI spelling, paper name and plan
/// builder for every shipped strategy. New plans register here once and
/// appear in the CLI, the sweeps and the bench matrices.
static REGISTRY: [StrategyInfo; 6] = [
    StrategyInfo {
        kind: StrategyKind::Dsm,
        cli_name: "dsm",
        paper_name: "Default Storm Migration",
        builder: build_dsm,
    },
    StrategyInfo {
        kind: StrategyKind::Dcr,
        cli_name: "dcr",
        paper_name: "Drain-Checkpoint-Restore",
        builder: build_dcr,
    },
    StrategyInfo {
        kind: StrategyKind::DcrParallelInit,
        cli_name: "dcr-parallel-init",
        paper_name: "Drain-Checkpoint-Restore, parallel restore",
        builder: build_dcr_parallel_init,
    },
    StrategyInfo {
        kind: StrategyKind::Ccr,
        cli_name: "ccr",
        paper_name: "Capture-Checkpoint-Resume",
        builder: build_ccr,
    },
    StrategyInfo {
        kind: StrategyKind::CcrPipelined,
        cli_name: "ccr-pipelined",
        paper_name: "Capture-Checkpoint-Resume, pipelined waves",
        builder: build_ccr_pipelined,
    },
    StrategyInfo {
        kind: StrategyKind::CcrKeyRange,
        cli_name: "ccr-key-range",
        paper_name: "Capture-Checkpoint-Resume, hot key ranges only",
        builder: build_ccr_key_range,
    },
];

/// Every shipped strategy, in registry order (the paper's three first).
pub fn strategies() -> &'static [StrategyInfo] {
    &REGISTRY
}

/// Looks a strategy up by CLI spelling, case-insensitively (`"DSM"`,
/// `"dsm"`, `"ccr-pipelined"`, …).
pub fn strategy_named(name: &str) -> Option<&'static StrategyInfo> {
    REGISTRY.iter().find(|info| info.cli_name.eq_ignore_ascii_case(name))
}

/// The paper-default strategy instance for `kind`.
pub fn default_strategy(kind: StrategyKind) -> Box<dyn MigrationStrategy> {
    REGISTRY
        .iter()
        .find(|info| info.kind == kind)
        .expect("every kind is registered")
        .build_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_display_paper_names() {
        assert_eq!(StrategyKind::Dsm.to_string(), "DSM");
        assert_eq!(StrategyKind::Dcr.to_string(), "DCR");
        assert_eq!(StrategyKind::DcrParallelInit.to_string(), "DCR-PI");
        assert_eq!(StrategyKind::Ccr.to_string(), "CCR");
        assert_eq!(StrategyKind::CcrPipelined.to_string(), "CCR-P");
        assert_eq!(StrategyKind::CcrKeyRange.to_string(), "CCR-KR");
        assert_eq!(StrategyKind::ALL.len(), 3, "ALL is the paper's matrix");
    }

    #[test]
    fn registry_covers_every_kind_once() {
        for kind in [
            StrategyKind::Dsm,
            StrategyKind::Dcr,
            StrategyKind::DcrParallelInit,
            StrategyKind::Ccr,
            StrategyKind::CcrPipelined,
            StrategyKind::CcrKeyRange,
        ] {
            let rows = strategies().iter().filter(|i| i.kind == kind).count();
            assert_eq!(rows, 1, "{kind} registered exactly once");
            assert_eq!(default_strategy(kind).kind(), kind);
        }
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert_eq!(strategy_named("DSM").map(|i| i.kind), Some(StrategyKind::Dsm));
        assert_eq!(strategy_named("dcr").map(|i| i.kind), Some(StrategyKind::Dcr));
        assert_eq!(
            strategy_named("DCR-Parallel-Init").map(|i| i.kind),
            Some(StrategyKind::DcrParallelInit)
        );
        assert_eq!(
            strategy_named("CCR-Pipelined").map(|i| i.kind),
            Some(StrategyKind::CcrPipelined)
        );
        assert_eq!(
            strategy_named("CCR-Key-Range").map(|i| i.kind),
            Some(StrategyKind::CcrKeyRange)
        );
        assert!(strategy_named("nope").is_none());
    }

    #[test]
    fn registry_builds_respect_parallel_fan_out() {
        let dcr = strategy_named("dcr").expect("registered").build(Some(8));
        assert_eq!(dcr.kind(), StrategyKind::Dcr);
        // The built strategy's plan routes its store-bound waves Parallel.
        let plan = dcr.plan();
        let commit = plan
            .phases()
            .iter()
            .find(|p| p.wave == crate::WaveKind::Commit)
            .expect("DCR has a COMMIT phase");
        assert_eq!(commit.routing, flowmig_engine::WaveRouting::Parallel { fan_out: 8 });
    }
}
