//! The three workloads and the scenario lists they generate from a seed.

use flowmig_cluster::ScaleDirection;
use flowmig_core::{
    Ccr, CcrKeyRange, CcrPipelined, Dcr, DcrParallelInit, Dsm, MigrationController,
    MigrationStrategy, StrategyKind,
};
use flowmig_engine::{EngineConfig, StoreLatencyModel, StoreServiceModel};
use flowmig_sim::{SimDuration, SimTime};
use flowmig_topology::{library, Dataflow};

/// A named set of migration scenarios, each stressing different layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §5 sweep: five DAGs × {in, out} × six strategies at the
    /// default engine configuration. Data plane, acker and trace analysis
    /// dominate its host time.
    PaperSuite,
    /// `grid_scaled(625)` (10,000 instances) under CCR-P on 32 flat store
    /// shards. Planning, dispatch-table builds and the wave fan-out
    /// dominate; the data plane is nearly idle.
    Scale10k,
    /// The 96-instance Zipf grid on a 2-shard FIFO store under CCR-KR and
    /// CCR-P: store queueing sets the checkpoint critical path and keyed
    /// routing saturates the hot owner.
    SkewFifo,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [Workload::PaperSuite, Workload::Scale10k, Workload::SkewFifo];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSuite => "paper-suite",
            Workload::Scale10k => "scale-10k",
            Workload::SkewFifo => "skew-fifo",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed list drawn from the workload seed; every (dag, direction,
    /// strategy) combination runs once per entry. paper-suite has two
    /// entries, so that the slowest tenth of its runs, which sets the
    /// reported p90, spans twelve scenarios; with one entry, its p90 jumps
    /// between scenario classes from seed to seed. The
    /// one-scenario-per-entry workloads have four.
    pub fn seeds(self, seed: u64) -> Vec<u64> {
        match self {
            Workload::PaperSuite => (0..2).map(|i| splitmix64(seed, i)).collect(),
            Workload::Scale10k => (0..4).map(|i| splitmix64(seed, i)).collect(),
            Workload::SkewFifo => {
                let start = splitmix64(seed, 0) % SKEW_SEEDS.len() as u64;
                (start..start + 4).map(|i| SKEW_SEEDS[i as usize % SKEW_SEEDS.len()]).collect()
            }
        }
    }

    /// Builds the workload's dataflows and its scenario list from `seed`.
    pub fn build(self, seed: u64) -> Suite {
        self.build_with_seeds(self.seeds(seed))
    }

    /// Builds the workload's dataflows and one scenario per (dag,
    /// direction, strategy) per entry of `seeds`.
    pub fn build_with_seeds(self, seeds: Vec<u64>) -> Suite {
        let mut suite = Suite { dags: Vec::new(), seeds, scenarios: Vec::new() };
        match self {
            Workload::PaperSuite => {
                let strategies: [fn() -> Box<dyn MigrationStrategy>; 6] = [
                    || Box::new(Dsm::new()),
                    || Box::new(Dcr::new()),
                    || Box::new(DcrParallelInit::new()),
                    || Box::new(Ccr::new()),
                    || Box::new(CcrPipelined::new()),
                    || Box::new(CcrKeyRange::new()),
                ];
                let timing = Timing {
                    config: EngineConfig::default(),
                    request_at: SimTime::from_secs(180),
                    horizon: SimTime::from_secs(720),
                };
                for dag in library::paper_dataflows() {
                    let dag = suite.push_dag(dag);
                    for direction in [ScaleDirection::In, ScaleDirection::Out] {
                        suite.add(dag, direction, &strategies, timing);
                    }
                }
            }
            Workload::Scale10k => {
                let config = EngineConfig {
                    worker_ready_min: SimDuration::ZERO,
                    worker_ready_max: SimDuration::ZERO,
                    store_shards: 32,
                    ..EngineConfig::default()
                };
                let timing = Timing {
                    config,
                    request_at: SimTime::from_secs(30),
                    horizon: SimTime::from_secs(90),
                };
                let dag = suite.push_dag(library::grid_scaled(625));
                suite.add(dag, ScaleDirection::In, &[|| Box::new(CcrPipelined::new())], timing);
            }
            Workload::SkewFifo => {
                let config = EngineConfig {
                    worker_ready_min: SimDuration::ZERO,
                    worker_ready_max: SimDuration::ZERO,
                    transport_buffer: 2048,
                    store: StoreLatencyModel {
                        per_event: SimDuration::from_micros(5),
                        ..StoreLatencyModel::default()
                    },
                    store_shards: 2,
                    store_service: StoreServiceModel::FifoPerShard,
                    ..EngineConfig::default()
                };
                let timing = Timing {
                    config,
                    request_at: SimTime::from_secs(10),
                    horizon: SimTime::from_secs(300),
                };
                let dag = suite.push_dag(library::grid_zipf(6, 8, 2));
                suite.add(
                    dag,
                    ScaleDirection::In,
                    &[
                        || Box::new(CcrKeyRange::new().without_wave_timeout()),
                        || Box::new(CcrPipelined::new().without_wave_timeout()),
                    ],
                    timing,
                );
            }
        }
        suite
    }
}

/// The skew-fifo seed pool. CCR-KR drops one or two events on about one
/// run in twenty-five of this scenario (events still queued at a hot-range
/// owner when the rebalance kills it are lost), and a benchmark run must
/// not fail; so skew-fifo draws its seeds from the first 32
/// outputs of `splitmix64(0, k)` on which both strategies drop nothing at
/// every seed-list position (candidates 8, 11, 16, 23 and 30 drop
/// events). `tests/equivalence.rs` re-derives the pool.
pub const SKEW_SEEDS: [u64; 32] = [
    0xd5a9a2938991eeba,
    0x4b9907044087a973,
    0xc2f4573440a956c0,
    0x47955c0865fb7a9,
    0xc84967d853295e47,
    0x67dc6e07344ff63d,
    0x8eb8eac9881703af,
    0xfc19be8b9c550243,
    0xdfdfd66ff5390bdb,
    0x8280c11f0ab572fc,
    0x2419fb6e6ffb3539,
    0x75a72f3cfbca26e0,
    0x53348178bb353674,
    0xe4e17e2da67c95bd,
    0xe79f516b02155fd4,
    0x838ffb88978499f,
    0xd6a08ff0ef639232,
    0xc150634890ddd094,
    0x2e7b7d72242b2443,
    0x9e3b349478d171b6,
    0xb847ee40990c6775,
    0xa18c04555d4d3141,
    0xac037c1745481adc,
    0xc08ca6721f8e994d,
    0xd4d52c112b09dfa9,
    0x30f824fe5fae73e8,
    0xc53759d02a22d585,
    0xd583466a77fba7dd,
    0xdc97849634cccf6,
    0x5918f503b400c49b,
    0x2ee995655257839e,
    0x591b69675c8e6779,
];

/// SplitMix64 output `index` of the stream seeded by `seed`: the
/// benchmark's own generator, so scenario seeds do not move when the
/// program's RNG changes.
pub fn splitmix64(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE5_E9B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The per-run seed `Experiment::run` derives from entry `index` of its
/// seed list, so scale-in and scale-out of one DAG draw distinct streams.
fn derive_seed(seed: u64, direction: ScaleDirection, index: usize, dag: &Dataflow) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(direction as u64 * 97 + index as u64 * 131 + dag.len() as u64)
}

#[derive(Clone, Copy)]
struct Timing {
    config: EngineConfig,
    request_at: SimTime,
    horizon: SimTime,
}

/// A workload's dataflows, built once, and the scenarios that run on them.
pub struct Suite {
    /// The dataflows, built once per process.
    pub dags: Vec<Dataflow>,
    /// The seed list drawn from the workload seed.
    pub seeds: Vec<u64>,
    /// One entry per simulated migration of a pass.
    pub scenarios: Vec<Scenario>,
}

impl Suite {
    fn push_dag(&mut self, dag: Dataflow) -> usize {
        self.dags.push(dag);
        self.dags.len() - 1
    }

    /// Adds one scenario per strategy per seed for dataflow `dag` in
    /// `direction`.
    fn add(
        &mut self,
        dag: usize,
        direction: ScaleDirection,
        strategies: &[fn() -> Box<dyn MigrationStrategy>],
        timing: Timing,
    ) {
        for build in strategies {
            for (index, &seed) in self.seeds.iter().enumerate() {
                self.scenarios.push(Scenario {
                    dag,
                    direction,
                    strategy: build(),
                    config: timing.config,
                    request_at: timing.request_at,
                    horizon: timing.horizon,
                    seed_index: index,
                    seed: derive_seed(seed, direction, index, &self.dags[dag]),
                });
            }
        }
    }

    /// The dataflow `scenario` runs on.
    pub fn dag(&self, scenario: &Scenario) -> &Dataflow {
        &self.dags[scenario.dag]
    }
}

/// One simulated migration: a dataflow, a direction, a strategy, the
/// engine configuration and the derived run seed.
pub struct Scenario {
    dag: usize,
    /// Scale-in or scale-out.
    pub direction: ScaleDirection,
    /// The migration strategy.
    pub strategy: Box<dyn MigrationStrategy>,
    /// The engine configuration.
    pub config: EngineConfig,
    /// When the migration request is issued.
    pub request_at: SimTime,
    /// The run horizon.
    pub horizon: SimTime,
    /// Which entry of the suite's seed list this run derives from.
    pub seed_index: usize,
    /// The run seed.
    pub seed: u64,
}

impl Scenario {
    /// Whether the strategy promises to drop and replay nothing (every
    /// strategy but DSM).
    pub fn reliable(&self) -> bool {
        self.strategy.kind() != StrategyKind::Dsm
    }

    /// The controller that runs this scenario through
    /// `MigrationController::run`.
    pub fn controller(&self) -> MigrationController {
        MigrationController::new()
            .with_engine_config(self.config)
            .with_request_at(self.request_at)
            .with_horizon(self.horizon)
            .with_seed(self.seed)
    }

    /// A short label such as `linear/in/DCR/#0`.
    pub fn label(&self, suite: &Suite) -> String {
        format!(
            "{}/{}/{}/#{}",
            suite.dag(self).name(),
            self.direction,
            self.strategy.name(),
            self.seed_index
        )
    }
}
