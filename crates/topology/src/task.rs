//! Task identities and specifications.

use flowmig_sim::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a logical task (vertex) within a [`Dataflow`].
///
/// Ids are dense indices assigned by the [`DataflowBuilder`] in insertion
/// order, so they can index parallel `Vec`s.
///
/// [`Dataflow`]: crate::Dataflow
/// [`DataflowBuilder`]: crate::DataflowBuilder
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TaskId(pub(crate) u32);

impl TaskId {
    /// Returns the dense index of this task.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `TaskId` from a dense index.
    pub const fn from_index(index: usize) -> Self {
        TaskId(index as u32)
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A half-open range `[start, end)` of key partitions within a task's key
/// space.
///
/// Key-range migration (Elasticutor-style) moves state at this granularity
/// instead of whole executors: a range is the unit the state store
/// addresses, prices, and routes through a rebalance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct KeyRange {
    /// First partition in the range.
    pub start: u32,
    /// One past the last partition in the range.
    pub end: u32,
}

impl KeyRange {
    /// Builds a range covering `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty (`start >= end`).
    pub fn new(start: u32, end: u32) -> Self {
        assert!(start < end, "key range [{start}, {end}) is empty");
        KeyRange { start, end }
    }

    /// The range covering a task's entire key space.
    pub fn whole(partitions: u32) -> Self {
        KeyRange::new(0, partitions.max(1))
    }

    /// Number of partitions in the range.
    pub fn len(self) -> u32 {
        self.end - self.start
    }

    /// Whether the range is empty (never true for a constructed range).
    pub fn is_empty(self) -> bool {
        self.start >= self.end
    }

    /// Whether partition `p` falls inside the range.
    pub fn contains(self, p: u32) -> bool {
        self.start <= p && p < self.end
    }
}

impl fmt::Display for KeyRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k[{},{})", self.start, self.end)
    }
}

/// The role a task plays in the dataflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaskKind {
    /// Generates the input stream (Storm spout). Sources emit at a fixed
    /// rate and are pinned (never migrated) in the paper's experiments.
    Source,
    /// A user-logic task (Storm bolt).
    Operator,
    /// Terminal task that consumes the output stream. Also pinned.
    Sink,
}

impl TaskKind {
    /// Whether tasks of this kind are migrated during a rebalance
    /// (only operators are; source and sink stay on their logging VM, §5).
    pub const fn is_migratable(self) -> bool {
        matches!(self, TaskKind::Operator)
    }
}

/// Static description of one logical task.
///
/// The evaluation in the paper uses dummy operators with a fixed 100 ms
/// service time and 1:1 selectivity; both are configurable here so tests and
/// ablations can explore other regimes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSpec {
    name: String,
    kind: TaskKind,
    latency: SimDuration,
    selectivity: f64,
    stateful: bool,
    emit_rate_hz: f64,
    parallelism: Option<usize>,
    /// Number of key partitions in the task's key space (1 = unkeyed).
    key_partitions: u32,
    /// Per-partition rate/state-size weights; empty means uniform.
    key_weights: Vec<f64>,
}

impl TaskSpec {
    /// Creates a source emitting `rate_hz` events per second.
    pub fn source(name: impl Into<String>, rate_hz: f64) -> Self {
        TaskSpec {
            name: name.into(),
            kind: TaskKind::Source,
            latency: SimDuration::ZERO,
            selectivity: 1.0,
            stateful: false,
            emit_rate_hz: rate_hz,
            parallelism: None,
            key_partitions: 1,
            key_weights: Vec::new(),
        }
    }

    /// Creates an operator with the paper's defaults (100 ms service time,
    /// 1:1 selectivity, stateful).
    pub fn operator(name: impl Into<String>) -> Self {
        TaskSpec {
            name: name.into(),
            kind: TaskKind::Operator,
            latency: SimDuration::from_millis(100),
            selectivity: 1.0,
            stateful: true,
            emit_rate_hz: 0.0,
            parallelism: None,
            key_partitions: 1,
            key_weights: Vec::new(),
        }
    }

    /// Creates a sink (zero service time; it only records arrivals).
    pub fn sink(name: impl Into<String>) -> Self {
        TaskSpec {
            name: name.into(),
            kind: TaskKind::Sink,
            latency: SimDuration::ZERO,
            selectivity: 1.0,
            stateful: false,
            emit_rate_hz: 0.0,
            parallelism: None,
            key_partitions: 1,
            key_weights: Vec::new(),
        }
    }

    /// Sets the per-event service time.
    pub fn with_latency(mut self, latency: SimDuration) -> Self {
        self.latency = latency;
        self
    }

    /// Sets the selectivity (output events per input event, per out-edge).
    ///
    /// # Panics
    ///
    /// Panics if `selectivity` is negative or not finite.
    pub fn with_selectivity(mut self, selectivity: f64) -> Self {
        assert!(
            selectivity.is_finite() && selectivity >= 0.0,
            "selectivity must be finite and >= 0"
        );
        self.selectivity = selectivity;
        self
    }

    /// Marks the task stateless (its state is not checkpointed).
    pub fn stateless(mut self) -> Self {
        self.stateful = false;
        self
    }

    /// Overrides the rate-derived instance count for this task: exactly
    /// `instances` data-parallel instances are planned, regardless of the
    /// 8 ev/s provisioning rule. Applies to every kind — including sinks,
    /// whose rate rule pins them to a single instance — and is what the
    /// scaled wave-latency workloads use to grow a dataflow's width
    /// without touching its rates.
    ///
    /// # Panics
    ///
    /// Panics if `instances` is zero.
    pub fn with_parallelism(mut self, instances: usize) -> Self {
        assert!(instances > 0, "a task needs at least one instance");
        self.parallelism = Some(instances);
        self
    }

    /// Sets the number of key partitions in the task's key space, with
    /// uniform per-partition weights. Partition 1 (the default) models an
    /// unkeyed task whose state moves as one unit.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is zero.
    pub fn with_key_partitions(mut self, partitions: u32) -> Self {
        assert!(partitions > 0, "a key space needs at least one partition");
        self.key_partitions = partitions;
        self.key_weights = Vec::new();
        self
    }

    /// Sets explicit per-partition rate/state-size weights; the key space
    /// size becomes `weights.len()`. Weights are relative (normalized on
    /// use), so `[3.0, 1.0]` means partition 0 carries 75 % of the traffic
    /// and state.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, or any weight is negative or not
    /// finite, or all weights are zero.
    pub fn with_key_weights(mut self, weights: Vec<f64>) -> Self {
        assert!(!weights.is_empty(), "a key space needs at least one partition");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "key weights must be finite and >= 0"
        );
        assert!(weights.iter().sum::<f64>() > 0.0, "key weights must not all be zero");
        self.key_partitions = weights.len() as u32;
        self.key_weights = weights;
        self
    }

    /// Sets a Zipf-skewed key space: `partitions` partitions where
    /// partition `i` has weight `1 / (i + 1)^exponent`. Exponent 0 is
    /// uniform; exponent 1 is the classic harmonic skew; higher exponents
    /// concentrate traffic further. Integer exponents keep the weights
    /// free of `powf`, so skewed traces hash identically across libm
    /// implementations. A rank whose power overflows `u64` gets weight 0:
    /// its true weight is below 2⁻⁶⁴ of partition 0's.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is zero.
    pub fn with_zipf_keys(self, partitions: u32, exponent: u32) -> Self {
        assert!(partitions > 0, "a key space needs at least one partition");
        let weights = (0..partitions)
            .map(|i| {
                let rank = u64::from(i) + 1;
                rank.checked_pow(exponent).map_or(0.0, |power| 1.0 / power as f64)
            })
            .collect();
        self.with_key_weights(weights)
    }

    /// Task name (unique within a dataflow).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The task's role.
    pub fn kind(&self) -> TaskKind {
        self.kind
    }

    /// Per-event service time.
    pub fn latency(&self) -> SimDuration {
        self.latency
    }

    /// Output events per input event, per out-edge.
    pub fn selectivity(&self) -> f64 {
        self.selectivity
    }

    /// Whether the task keeps user state that must be checkpointed.
    pub fn is_stateful(&self) -> bool {
        self.stateful
    }

    /// Source emit rate in events per second (zero for non-sources).
    pub fn emit_rate_hz(&self) -> f64 {
        self.emit_rate_hz
    }

    /// The explicit instance-count override, if one was set with
    /// [`with_parallelism`](Self::with_parallelism).
    pub fn parallelism_hint(&self) -> Option<usize> {
        self.parallelism
    }

    /// Maximum sustainable input rate for one instance of this task
    /// (`1 / latency`), or `f64::INFINITY` for zero-latency tasks.
    pub fn capacity_hz(&self) -> f64 {
        let s = self.latency.as_secs_f64();
        if s == 0.0 {
            f64::INFINITY
        } else {
            1.0 / s
        }
    }

    /// Number of key partitions in the task's key space (1 = unkeyed).
    pub fn key_partitions(&self) -> u32 {
        self.key_partitions
    }

    /// Whether the task carries a keyed (multi-partition) key space.
    pub fn is_keyed(&self) -> bool {
        self.key_partitions > 1
    }

    /// Normalized weight of partition `p` (the fraction of traffic and
    /// state it carries). Uniform `1 / partitions` when no explicit
    /// weights were set.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside the key space.
    pub fn key_weight(&self, p: u32) -> f64 {
        assert!(p < self.key_partitions, "partition {p} outside key space");
        if self.key_weights.is_empty() {
            return 1.0 / f64::from(self.key_partitions);
        }
        let total: f64 = self.key_weights.iter().sum();
        self.key_weights[p as usize] / total
    }

    /// Every partition's [`key_weight`](Self::key_weight), in partition
    /// order, with the weight total summed once instead of once per
    /// partition. Each value comes from the same float operations as
    /// `key_weight`, so it is bit-identical.
    pub(crate) fn normalized_key_weights(&self) -> Vec<f64> {
        if self.key_weights.is_empty() {
            return vec![1.0 / f64::from(self.key_partitions); self.key_partitions as usize];
        }
        let total: f64 = self.key_weights.iter().sum();
        self.key_weights.iter().map(|w| w / total).collect()
    }

    /// Maps a uniformly-distributed 64-bit hash onto a key partition,
    /// respecting the per-partition weights: a partition with weight `w`
    /// receives a `w` fraction of the hash space. Cumulative sums are
    /// walked in partition order, so the mapping is deterministic.
    pub fn partition_of(&self, hash: u64) -> u32 {
        if self.key_partitions <= 1 {
            return 0;
        }
        // 53 high-entropy bits → [0, 1): exact in f64.
        let u = (hash >> 11) as f64 / (1u64 << 53) as f64;
        let mut acc = 0.0;
        for p in 0..self.key_partitions {
            acc += self.key_weight(p);
            if u < acc {
                return p;
            }
        }
        self.key_partitions - 1 // rounding tail
    }

    /// The hottest partitions of the key space: the smallest set, chosen
    /// greedily by descending weight (ties by ascending index), whose
    /// cumulative weight reaches `permille / 1000` — compressed into
    /// maximal contiguous [`KeyRange`]s. With Zipf weights the hot set is
    /// a prefix, so this is typically a single range. Always returns at
    /// least one partition; `permille >= 1000` returns the whole space.
    pub fn hot_ranges(&self, permille: u16) -> Vec<KeyRange> {
        let weights = self.normalized_key_weights();
        let mut order: Vec<u32> = (0..self.key_partitions).collect();
        // Stable sort by descending weight; equal weights keep index order.
        order.sort_by(|&a, &b| {
            weights[b as usize].partial_cmp(&weights[a as usize]).expect("finite weights")
        });
        let target = f64::from(permille) / 1000.0;
        let mut picked = Vec::new();
        let mut acc = 0.0;
        for p in order {
            picked.push(p);
            acc += weights[p as usize];
            if acc >= target {
                break;
            }
        }
        picked.sort_unstable();
        let mut ranges: Vec<KeyRange> = Vec::new();
        for p in picked {
            match ranges.last_mut() {
                Some(r) if r.end == p => r.end = p + 1,
                _ => ranges.push(KeyRange::new(p, p + 1)),
            }
        }
        ranges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operator_defaults_match_paper() {
        let t = TaskSpec::operator("xform");
        assert_eq!(t.latency(), SimDuration::from_millis(100));
        assert_eq!(t.selectivity(), 1.0);
        assert!(t.is_stateful());
        assert_eq!(t.capacity_hz(), 10.0);
        assert_eq!(t.kind(), TaskKind::Operator);
        assert!(t.kind().is_migratable());
    }

    #[test]
    fn source_carries_rate_and_is_pinned() {
        let s = TaskSpec::source("src", 8.0);
        assert_eq!(s.emit_rate_hz(), 8.0);
        assert!(!s.kind().is_migratable());
        assert_eq!(s.capacity_hz(), f64::INFINITY);
    }

    #[test]
    fn sink_is_pinned() {
        assert!(!TaskSpec::sink("sink").kind().is_migratable());
    }

    #[test]
    fn builder_style_modifiers() {
        let t = TaskSpec::operator("agg")
            .with_latency(SimDuration::from_millis(50))
            .with_selectivity(2.0)
            .stateless();
        assert_eq!(t.capacity_hz(), 20.0);
        assert_eq!(t.selectivity(), 2.0);
        assert!(!t.is_stateful());
    }

    #[test]
    fn parallelism_hint_round_trips() {
        assert_eq!(TaskSpec::operator("t").parallelism_hint(), None);
        let t = TaskSpec::operator("t").with_parallelism(6);
        assert_eq!(t.parallelism_hint(), Some(6));
        let sink = TaskSpec::sink("sink").with_parallelism(3);
        assert_eq!(sink.parallelism_hint(), Some(3));
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn rejects_zero_parallelism() {
        let _ = TaskSpec::operator("bad").with_parallelism(0);
    }

    #[test]
    #[should_panic(expected = "selectivity")]
    fn rejects_negative_selectivity() {
        let _ = TaskSpec::operator("bad").with_selectivity(-1.0);
    }

    #[test]
    fn task_id_round_trips_index() {
        let id = TaskId::from_index(7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "t7");
    }

    #[test]
    fn default_key_space_is_unkeyed() {
        let t = TaskSpec::operator("t");
        assert_eq!(t.key_partitions(), 1);
        assert!(!t.is_keyed());
        assert_eq!(t.key_weight(0), 1.0);
        assert_eq!(t.partition_of(0xDEAD_BEEF), 0);
        assert_eq!(t.hot_ranges(600), vec![KeyRange::new(0, 1)]);
    }

    #[test]
    fn uniform_partitions_split_weight_evenly() {
        let t = TaskSpec::operator("t").with_key_partitions(4);
        assert_eq!(t.key_partitions(), 4);
        assert!(t.is_keyed());
        for p in 0..4 {
            assert!((t.key_weight(p) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_keys_concentrate_weight_on_low_partitions() {
        let t = TaskSpec::operator("t").with_zipf_keys(8, 2);
        assert_eq!(t.key_partitions(), 8);
        assert!(t.key_weight(0) > 0.6, "1/1 dominates sum(1/k^2)");
        assert!(t.key_weight(0) > t.key_weight(1));
        assert!(t.key_weight(6) > t.key_weight(7));
        let total: f64 = (0..8).map(|p| t.key_weight(p)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zipf_ranks_whose_power_overflows_get_zero_weight() {
        // 16^16 = 2^64 is the first power past u64::MAX: rank 16 (partition
        // 15) gets weight 0; every lower rank keeps its exact 1/rank^16.
        let t = TaskSpec::operator("t").with_zipf_keys(16, 16);
        assert_eq!(t.key_partitions(), 16);
        assert_eq!(t.key_weight(15), 0.0);
        let raw: Vec<f64> = (1..16u64).map(|r| 1.0 / r.pow(16) as f64).collect();
        let total: f64 = raw.iter().sum();
        for (p, w) in raw.iter().enumerate() {
            assert_eq!(t.key_weight(p as u32), w / total, "partition {p}");
        }
        // Past the overflow every rank but the first weighs 0, and the
        // key space still partitions every hash.
        let steep = TaskSpec::operator("t").with_zipf_keys(8, 200);
        assert_eq!(steep.key_weight(0), 1.0);
        assert!((1..8).all(|p| steep.key_weight(p) == 0.0));
        assert_eq!(steep.partition_of(u64::MAX), 0);
    }

    #[test]
    fn hot_ranges_pick_a_prefix_under_zipf() {
        let t = TaskSpec::operator("t").with_zipf_keys(8, 2);
        let hot = t.hot_ranges(600);
        assert_eq!(hot, vec![KeyRange::new(0, 1)], "partition 0 alone carries >60 %");
        assert!(t.key_weight(0) >= 0.6);
        assert_eq!(t.hot_ranges(1000), vec![KeyRange::new(0, 8)], "full target → whole space");
    }

    #[test]
    fn hot_ranges_compress_non_contiguous_picks() {
        let t = TaskSpec::operator("t").with_key_weights(vec![4.0, 1.0, 4.0, 1.0]);
        assert_eq!(t.hot_ranges(800), vec![KeyRange::new(0, 1), KeyRange::new(2, 3)]);
    }

    #[test]
    fn hot_ranges_match_a_reference_that_sorts_by_key_weight() {
        // The reference reads `key_weight` in the sort and in the
        // accumulation, where `hot_ranges` reads the weights it normalized
        // once: the picks must match for every target.
        let reference = |t: &TaskSpec, permille: u16| {
            let mut order: Vec<u32> = (0..t.key_partitions()).collect();
            order.sort_by(|&a, &b| t.key_weight(b).partial_cmp(&t.key_weight(a)).unwrap());
            let mut picked = Vec::new();
            let mut acc = 0.0;
            for p in order {
                picked.push(p);
                acc += t.key_weight(p);
                if acc >= f64::from(permille) / 1000.0 {
                    break;
                }
            }
            picked.sort_unstable();
            picked
        };
        // Equal weights must keep index order: the explicit key spaces tie.
        let ties: Vec<f64> = (0..1_000u32).map(|i| f64::from(i % 7)).collect();
        let mut specs = vec![
            TaskSpec::operator("unkeyed"),
            TaskSpec::operator("explicit").with_key_weights(vec![0.0, 3.0, 1.0, 3.0, 0.5, 0.0]),
            TaskSpec::operator("explicit-1000").with_key_weights(ties),
        ];
        for partitions in [2, 7, 64, 1000] {
            specs.push(TaskSpec::operator("uniform").with_key_partitions(partitions));
            for exponent in 0..4 {
                specs.push(TaskSpec::operator("zipf").with_zipf_keys(partitions, exponent));
            }
        }
        for t in &specs {
            for permille in [1, 300, 600, 999, 1000] {
                let picked: Vec<u32> =
                    t.hot_ranges(permille).iter().flat_map(|r| r.start..r.end).collect();
                assert_eq!(
                    picked,
                    reference(t, permille),
                    "{} over {} partitions at {permille}‰",
                    t.name(),
                    t.key_partitions()
                );
            }
        }
    }

    #[test]
    fn partition_of_respects_weights() {
        let t = TaskSpec::operator("t").with_zipf_keys(8, 1);
        let mut counts = [0u32; 8];
        // splitmix64 over a few thousand roots: the hot partition must see
        // far more traffic than the cold tail.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..4096 {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            counts[t.partition_of(z ^ (z >> 31)) as usize] += 1;
        }
        assert!(counts[0] > 3 * counts[7], "partition 0 is ~8x hotter under 1/k");
        assert!(counts.iter().all(|&c| c > 0), "every partition sees some traffic");
    }

    #[test]
    fn key_range_basics() {
        let r = KeyRange::new(2, 5);
        assert_eq!(r.len(), 3);
        assert!(r.contains(2) && r.contains(4) && !r.contains(5));
        assert_eq!(r.to_string(), "k[2,5)");
        assert_eq!(KeyRange::whole(4), KeyRange::new(0, 4));
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn rejects_zero_key_partitions() {
        let _ = TaskSpec::operator("bad").with_key_partitions(0);
    }

    #[test]
    #[should_panic(expected = "must not all be zero")]
    fn rejects_all_zero_key_weights() {
        let _ = TaskSpec::operator("bad").with_key_weights(vec![0.0, 0.0]);
    }
}
