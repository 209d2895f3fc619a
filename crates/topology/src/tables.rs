//! Flat routing tables: dense per-(task, edge) target arrays and
//! precomputed key-partition thresholds.
//!
//! The engine's hot dispatch paths resolve every event through
//! `task_of`/`spec`/`of_task` chains; at production scale (10k instances)
//! those per-event lookups dominate host time. This module precomputes the
//! same answers into dense arrays built once per (re)configuration:
//!
//! * [`EdgeTable`] — for each task and out-edge, the downstream task, its
//!   keyed-ness, and the dense instance indices of its replicas (in
//!   replica order, exactly as [`InstanceSet::of_task`] returns them);
//! * [`KeyPartitioner`] — the cumulative weight thresholds of a keyed
//!   task's key space, accumulated with the *same float operations in the
//!   same order* as [`TaskSpec::partition_of`], so lookups are
//!   bitwise-identical while skipping the per-call re-normalization
//!   (`TaskSpec::key_weight` re-sums the weight total on every call,
//!   making the dynamic path O(partitions²) per event). The weights are
//!   normalized once per table build, so a build is O(partitions).
//!
//! Tables hold plain indices, not references, so a consumer can rebuild
//! them whenever the dataflow or instance expansion changes (rebalance,
//! staged logic updates, scale events) and compare generations cheaply.

use crate::graph::Dataflow;
use crate::rates::InstanceSet;
use crate::task::{TaskId, TaskSpec};

/// Precomputed cumulative key-space thresholds of one keyed task.
///
/// `cum[p]` is exactly the accumulator value [`TaskSpec::partition_of`]
/// holds after adding partition `p`'s normalized weight, so
/// [`Self::partition_of`] returns the same partition for every hash —
/// bit for bit — while replacing the O(partitions²) dynamic walk with a
/// binary search over a non-decreasing array.
///
/// # Examples
///
/// ```
/// use flowmig_topology::{KeyPartitioner, TaskSpec};
///
/// let spec = TaskSpec::operator("op").with_zipf_keys(16, 1);
/// let table = KeyPartitioner::of(&spec);
/// for hash in [0u64, 1, u64::MAX / 3, u64::MAX] {
///     assert_eq!(table.partition_of(hash), spec.partition_of(hash));
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KeyPartitioner {
    partitions: u32,
    cum: Vec<f64>,
}

impl KeyPartitioner {
    /// Builds the threshold table for `spec`'s key space in
    /// O(partitions).
    pub fn of(spec: &TaskSpec) -> Self {
        let partitions = spec.key_partitions();
        let mut cum = if partitions > 1 { spec.normalized_key_weights() } else { Vec::new() };
        // Identical accumulation to `TaskSpec::partition_of`: each step
        // adds `key_weight(p)`, normalized here once for all `p`.
        let mut acc = 0.0;
        for c in &mut cum {
            acc += *c;
            *c = acc;
        }
        KeyPartitioner { partitions, cum }
    }

    /// Number of partitions in the key space (1 = unkeyed).
    pub fn partitions(&self) -> u32 {
        self.partitions
    }

    /// Maps a uniformly-distributed 64-bit hash onto a key partition;
    /// bitwise-identical to [`TaskSpec::partition_of`] on the spec this
    /// table was built from.
    pub fn partition_of(&self, hash: u64) -> u32 {
        if self.partitions <= 1 {
            return 0;
        }
        // 53 high-entropy bits → [0, 1): exact in f64 (same as the spec).
        let u = (hash >> 11) as f64 / (1u64 << 53) as f64;
        // First partition whose cumulative weight exceeds `u`. `cum` is
        // non-decreasing (weights are non-negative), so the partition
        // point is the same index the dynamic linear walk stops at; the
        // rounding tail (u beyond the last threshold) clamps like the
        // dynamic path does.
        let p = self.cum.partition_point(|&c| c <= u) as u32;
        p.min(self.partitions - 1)
    }
}

/// The routing targets of one out-edge: the downstream task, whether it
/// routes by key, and the dense instance indices of its replicas.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeTargets {
    /// The edge's downstream task.
    pub dtask: TaskId,
    /// Whether `dtask` is keyed (fields-grouped routing).
    pub keyed: bool,
    /// Dense instance indices of `dtask`'s replicas, in replica order —
    /// the same order [`InstanceSet::of_task`] yields, so round-robin
    /// cursors and `partition % replicas` ownership are unchanged.
    pub targets: Vec<u32>,
}

/// Dense per-(task, out-edge) routing targets for a whole dataflow.
///
/// # Examples
///
/// ```
/// use flowmig_topology::{library, EdgeTable, InstanceSet};
///
/// let dag = library::grid();
/// let instances = InstanceSet::plan(&dag);
/// let table = EdgeTable::build(&dag, &instances);
/// for task in dag.task_ids() {
///     let edges = table.out_edges(task);
///     assert_eq!(edges.len(), dag.downstream(task).len());
///     for (edge, et) in edges.iter().enumerate() {
///         assert_eq!(et.dtask, dag.downstream(task)[edge]);
///     }
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeTable {
    edges: Vec<Vec<EdgeTargets>>,
}

impl EdgeTable {
    /// Builds the table from the dataflow's edges and the instance
    /// expansion. O(tasks + edges + instances); rebuild after any change
    /// to either input.
    pub fn build(dag: &Dataflow, instances: &InstanceSet) -> Self {
        let edges = dag
            .task_ids()
            .map(|t| {
                dag.downstream(t)
                    .iter()
                    .map(|&d| EdgeTargets {
                        dtask: d,
                        keyed: dag.spec(d).is_keyed(),
                        targets: instances.of_task(d).iter().map(|i| i.index() as u32).collect(),
                    })
                    .collect()
            })
            .collect();
        EdgeTable { edges }
    }

    /// The out-edges of `task`, in DAG edge order.
    #[inline]
    pub fn out_edges(&self, task: TaskId) -> &[EdgeTargets] {
        &self.edges[task.index()]
    }

    /// Out-degree of `task`.
    #[inline]
    pub fn out_degree(&self, task: TaskId) -> usize {
        self.edges[task.index()].len()
    }

    /// One out-edge of `task`.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of range for `task`.
    #[inline]
    pub fn edge(&self, task: TaskId, edge: usize) -> &EdgeTargets {
        &self.edges[task.index()][edge]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DataflowBuilder;
    use crate::library;

    #[test]
    fn edge_table_mirrors_dynamic_lookups_on_library_dags() {
        for dag in [
            library::linear(),
            library::diamond(),
            library::star(),
            library::grid(),
            library::traffic(),
        ] {
            let instances = InstanceSet::plan(&dag);
            let table = EdgeTable::build(&dag, &instances);
            for task in dag.task_ids() {
                let downstream = dag.downstream(task);
                assert_eq!(table.out_degree(task), downstream.len());
                for (edge, &dtask) in downstream.iter().enumerate() {
                    let et = table.edge(task, edge);
                    assert_eq!(et.dtask, dtask);
                    assert_eq!(et.keyed, dag.spec(dtask).is_keyed());
                    let expect: Vec<u32> =
                        instances.of_task(dtask).iter().map(|i| i.index() as u32).collect();
                    assert_eq!(et.targets, expect, "{} edge {edge}", dag.name());
                }
            }
        }
    }

    #[test]
    fn partitioner_matches_spec_exactly_for_uniform_and_zipf_weights() {
        let specs = [
            TaskSpec::operator("uniform").with_key_partitions(64),
            TaskSpec::operator("zipf1").with_zipf_keys(64, 1),
            TaskSpec::operator("zipf2").with_zipf_keys(128, 2),
            TaskSpec::operator("unkeyed"),
        ];
        for spec in &specs {
            let table = KeyPartitioner::of(spec);
            assert_eq!(table.partitions(), spec.key_partitions());
            // Walk a deterministic hash sweep including the extremes.
            let mut h = 0x9E37_79B9_7F4A_7C15u64;
            for _ in 0..4_096 {
                assert_eq!(table.partition_of(h), spec.partition_of(h), "{}", spec.name());
                h = h.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            }
            for h in [0u64, 1, u64::MAX - 1, u64::MAX] {
                assert_eq!(table.partition_of(h), spec.partition_of(h));
            }
        }
    }

    #[test]
    fn partitioner_thresholds_are_the_running_sum_of_key_weights() {
        // Bit for bit: the thresholds normalize the weights once, and must
        // still be the very sums `TaskSpec::partition_of` accumulates.
        let explicit: Vec<f64> = (0..4_096u32).map(|i| f64::from(i % 7) * 0.37 + 0.01).collect();
        let mut specs = vec![
            TaskSpec::operator("explicit").with_key_weights(vec![3.0, 0.0, 1.0, 0.25, 3.0]),
            TaskSpec::operator("explicit-4096").with_key_weights(explicit),
        ];
        for partitions in [2, 3, 64, 1_000, 4_096] {
            specs.push(TaskSpec::operator("uniform").with_key_partitions(partitions));
            for exponent in 0..4 {
                specs.push(TaskSpec::operator("zipf").with_zipf_keys(partitions, exponent));
            }
        }
        for spec in &specs {
            let table = KeyPartitioner::of(spec);
            let mut acc = 0.0;
            let running: Vec<u64> = (0..spec.key_partitions())
                .map(|p| {
                    acc += spec.key_weight(p);
                    f64::to_bits(acc)
                })
                .collect();
            let cum: Vec<u64> = table.cum.iter().map(|&c| f64::to_bits(c)).collect();
            assert_eq!(cum, running, "{} over {} partitions", spec.name(), spec.key_partitions());
        }
    }

    #[test]
    fn edge_table_reflects_parallelism_hints() {
        let mut b = DataflowBuilder::new("hinted");
        let s = b.add(TaskSpec::source("src", 8.0));
        let t = b.add(TaskSpec::operator("t").with_parallelism(5));
        let k = b.add(TaskSpec::sink("sink"));
        b.edge(s, t).edge(t, k);
        let dag = b.finish().unwrap();
        let instances = InstanceSet::plan(&dag);
        let table = EdgeTable::build(&dag, &instances);
        let src = dag.task_by_name("src").unwrap();
        assert_eq!(table.edge(src, 0).targets.len(), 5);
    }
}
