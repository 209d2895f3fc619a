//! Flat dispatch state: dense per-instance metadata, routing tables, and
//! the rebalance-scope bitset.
//!
//! Everything the hot event paths (`emit_root`, `route`, `on_deliver`,
//! `on_wake`, `finish_data`, `forward_control`) used to resolve through
//! `instances.task_of(..)` + `dag.spec(..)` + `of_task(..)` +
//! `assignment.vm_of(..)` chains is resolved once here, per
//! (re)configuration. [`DispatchTables::build`] runs at engine
//! construction; `on_rebalance_done` — the only point where the
//! assignment flips or staged logic updates mutate the DAG — re-reads the
//! VM column ([`DispatchTables::refresh_vms`]), or rebuilds every table
//! when the DAG changed. The per-event cost drops to array indexing.

use flowmig_cluster::{Assignment, VmId};
use flowmig_sim::SimDuration;
use flowmig_topology::{
    Dataflow, EdgeTable, EdgeTargets, InstanceId, InstanceSet, KeyPartitioner, TaskId, TaskKind,
};

/// Per-instance metadata resolved once per configuration: everything a
/// hot path needs about an instance without touching the DAG or the
/// instance set.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InstanceMeta {
    /// Owning task.
    pub task: TaskId,
    /// Task kind (source/operator/sink).
    pub kind: TaskKind,
    /// Per-event service time of the owning task.
    pub latency: SimDuration,
    /// Whether the owning task routes by key partition.
    pub keyed: bool,
    /// Key partitions of the owning task (1 = unkeyed).
    pub key_partitions: u32,
    /// Store shard serving this instance (`index % shard_count`).
    pub store_shard: u32,
    /// Replica slot of this instance within its task (0-based).
    pub slot: u32,
    /// Total replicas of the owning task.
    pub task_replicas: u32,
    /// Where this instance's round-robin cursors start in the engine's
    /// flat cursor array, one per out-edge: the out-degrees of the
    /// instances before it, summed. A logic update keeps every task's
    /// out-degree, so a rebuild keeps every base and the shuffle order.
    pub cursor_base: u32,
}

/// The flat dispatch tables of one engine configuration.
#[derive(Debug, Clone)]
pub(crate) struct DispatchTables {
    meta: Vec<InstanceMeta>,
    edges: EdgeTable,
    /// Per task: the precomputed key-partition thresholds (`None` for
    /// unkeyed tasks).
    partitioners: Vec<Option<KeyPartitioner>>,
    /// Per instance: hosting VM under the *current* assignment. Re-read
    /// when `on_target` flips.
    vm: Vec<Option<VmId>>,
    /// Length of the flat cursor array: every instance's out-degree,
    /// summed.
    cursor_count: usize,
}

impl DispatchTables {
    /// Builds every table from the current dataflow, instance expansion,
    /// and assignment. O(tasks + edges + instances).
    pub fn build(
        dag: &Dataflow,
        instances: &InstanceSet,
        assignment: &Assignment,
        shard_count: usize,
    ) -> Self {
        let n = instances.len();
        let edges = EdgeTable::build(dag, instances);
        let mut meta = Vec::with_capacity(n);
        let mut vm = Vec::with_capacity(n);
        let mut cursor_count = 0usize;
        for i in 0..n {
            let iid = InstanceId::from_index(i);
            let task = instances.task_of(iid);
            let spec = dag.spec(task);
            let cursor_base = u32::try_from(cursor_count).expect("fewer than 2^32 cursors");
            cursor_count += edges.out_degree(task);
            meta.push(InstanceMeta {
                task,
                kind: spec.kind(),
                latency: spec.latency(),
                keyed: spec.is_keyed(),
                key_partitions: spec.key_partitions(),
                store_shard: (i % shard_count) as u32,
                slot: u32::from(instances.replica_of(iid)),
                task_replicas: instances.of_task(task).len() as u32,
                cursor_base,
            });
            vm.push(assignment.vm_of(iid));
        }
        let partitioners = dag
            .task_ids()
            .map(|t| {
                let spec = dag.spec(t);
                spec.is_keyed().then(|| KeyPartitioner::of(spec))
            })
            .collect();
        DispatchTables { meta, edges, partitioners, vm, cursor_count }
    }

    /// Re-reads the VM column from `assignment`: all an assignment flip
    /// changes while the dataflow and instance expansion stay the same.
    pub fn refresh_vms(&mut self, assignment: &Assignment) {
        for (i, vm) in self.vm.iter_mut().enumerate() {
            *vm = assignment.vm_of(InstanceId::from_index(i));
        }
    }

    /// Metadata of instance `i`.
    #[inline]
    pub fn meta(&self, i: usize) -> &InstanceMeta {
        &self.meta[i]
    }

    /// Hosting VM of instance `i` under the current assignment.
    #[inline]
    pub fn vm(&self, i: usize) -> Option<VmId> {
        self.vm[i]
    }

    /// Length of the flat round-robin cursor array these tables address.
    pub fn cursor_count(&self) -> usize {
        self.cursor_count
    }

    /// Out-degree of `task`.
    #[inline]
    pub fn out_degree(&self, task: TaskId) -> usize {
        self.edges.out_degree(task)
    }

    /// One out-edge of `task`: downstream task, keyed-ness, dense targets.
    #[inline]
    pub fn edge(&self, task: TaskId, edge: usize) -> &EdgeTargets {
        self.edges.edge(task, edge)
    }

    /// Key partition of `hash` under `task`'s key space (0 for unkeyed
    /// tasks) — bitwise-identical to `dag.spec(task).partition_of(hash)`.
    #[inline]
    pub fn partition_of(&self, task: TaskId, hash: u64) -> u32 {
        self.partitioners[task.index()].as_ref().map_or(0, |p| p.partition_of(hash))
    }

    /// Whether every table entry still agrees with the dynamic lookups it
    /// replaces, and every key partitioner with a fresh build from its
    /// spec — the staleness oracle for tests and debug assertions.
    pub fn agrees_with(
        &self,
        dag: &Dataflow,
        instances: &InstanceSet,
        assignment: &Assignment,
        shard_count: usize,
    ) -> bool {
        if self.meta.len() != instances.len() || self.vm.len() != instances.len() {
            return false;
        }
        for i in 0..instances.len() {
            let iid = InstanceId::from_index(i);
            let task = instances.task_of(iid);
            let spec = dag.spec(task);
            let m = &self.meta[i];
            let ok = m.task == task
                && m.kind == spec.kind()
                && m.latency == spec.latency()
                && m.keyed == spec.is_keyed()
                && m.key_partitions == spec.key_partitions()
                && m.store_shard as usize == i % shard_count
                && m.slot == u32::from(instances.replica_of(iid))
                && m.task_replicas as usize == instances.of_task(task).len()
                && self.vm[i] == assignment.vm_of(iid);
            if !ok {
                return false;
            }
        }
        for task in dag.task_ids() {
            let downstream = dag.downstream(task);
            if self.edges.out_degree(task) != downstream.len() {
                return false;
            }
            for (edge, &dtask) in downstream.iter().enumerate() {
                let et = self.edges.edge(task, edge);
                let targets: Vec<u32> =
                    instances.of_task(dtask).iter().map(|i| i.index() as u32).collect();
                if et.dtask != dtask
                    || et.keyed != dag.spec(dtask).is_keyed()
                    || et.targets != targets
                {
                    return false;
                }
            }
            let spec = dag.spec(task);
            let p = &self.partitioners[task.index()];
            if p.is_some() != spec.is_keyed() {
                return false;
            }
            // The threshold table must be the one the spec builds now. (The
            // dynamic walk costs O(partitions²) per hash, too slow to
            // spot-check a large key space; the topology tests check the
            // table against it bit for bit.)
            if p.as_ref().is_some_and(|p| *p != KeyPartitioner::of(spec)) {
                return false;
            }
        }
        true
    }

    /// Whether `cursors` is the flat cursor array these tables address:
    /// each instance's base offset is the sum of the out-degrees before it,
    /// and the array holds exactly one cursor per (instance, out-edge). A
    /// stale table would hand two instances the same cursor.
    pub fn cursors_consistent(&self, cursors: &[usize]) -> bool {
        let mut next = 0usize;
        for m in &self.meta {
            if m.cursor_base as usize != next {
                return false;
            }
            next += self.edges.out_degree(m.task);
        }
        next == self.cursor_count && cursors.len() == self.cursor_count
    }
}

/// A fixed-capacity bitset over dense instance indices with a member
/// count: the engine's per-instance sets (wave participants, scope
/// members, per-wave acks, the rebalance scope) are all of this shape, so
/// membership is O(1) and iteration runs in index order without a sort.
#[derive(Debug, Clone, Default)]
pub(crate) struct InstanceBitset {
    words: Vec<u64>,
    len: usize,
}

impl InstanceBitset {
    /// An empty bitset sized for `n` instances.
    pub fn with_capacity(n: usize) -> Self {
        InstanceBitset { words: vec![0; n.div_ceil(64)], len: 0 }
    }

    /// Marks instance `i`; returns whether it was newly marked.
    pub fn insert(&mut self, i: usize) -> bool {
        let word = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        // A branch, not `len += usize::from(fresh)`: rustc 1.95's release
        // build miscompiled that form and `len` never grew
        // (`bitset_inserts_and_clears` catches it under `--release`).
        if *word & bit != 0 {
            return false;
        }
        *word |= bit;
        self.len += 1;
        true
    }

    /// Whether instance `i` is marked.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 != 0
    }

    /// Number of marked instances.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no instance is marked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Clears every mark (capacity retained).
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Marked instances in ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    w * 64 + bit
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmig_cluster::{ScaleDirection, ScalePlan};
    use flowmig_topology::library;

    #[test]
    fn tables_agree_with_dynamic_lookups_on_the_paper_dags() {
        for dag in [
            library::linear(),
            library::diamond(),
            library::star(),
            library::grid(),
            library::traffic(),
        ] {
            let instances = InstanceSet::plan(&dag);
            let plan = ScalePlan::paper_scenario(&dag, &instances, ScaleDirection::In).unwrap();
            for assignment in [plan.initial(), plan.target()] {
                let t = DispatchTables::build(&dag, &instances, assignment, 8);
                assert!(t.agrees_with(&dag, &instances, assignment, 8), "{}", dag.name());
            }
        }
    }

    #[test]
    fn cursor_bases_sum_the_out_degrees_in_instance_order() {
        let dag = library::grid();
        let instances = InstanceSet::plan(&dag);
        let plan = ScalePlan::paper_scenario(&dag, &instances, ScaleDirection::In).unwrap();
        let t = DispatchTables::build(&dag, &instances, plan.initial(), 8);
        let degrees: Vec<usize> =
            instances.iter().map(|i| dag.downstream(instances.task_of(i)).len()).collect();
        assert_eq!(t.cursor_count(), degrees.iter().sum::<usize>());
        assert!(t.cursors_consistent(&vec![0; t.cursor_count()]));
        assert!(!t.cursors_consistent(&vec![0; t.cursor_count() - 1]), "one cursor short");
        let mut shifted = t.clone();
        shifted.meta[1].cursor_base += 1;
        assert!(!shifted.cursors_consistent(&vec![0; t.cursor_count()]), "a shifted base");
    }

    #[test]
    fn stale_tables_are_detected() {
        let dag = library::linear();
        let instances = InstanceSet::plan(&dag);
        let plan = ScalePlan::paper_scenario(&dag, &instances, ScaleDirection::In).unwrap();
        let t = DispatchTables::build(&dag, &instances, plan.initial(), 8);
        // Same tables against the flipped assignment: the VM column is
        // stale unless initial == target (paper scenarios always move
        // instances).
        assert!(!t.agrees_with(&dag, &instances, plan.target(), 8));
        // Wrong shard count: store_shard column is stale.
        assert!(!t.agrees_with(&dag, &instances, plan.initial(), 3));
        // Re-weighted key spaces of the same size: the partitioners are
        // stale.
        let keyed =
            DispatchTables::build(&library::zipf_keyed(&dag, 8, 1), &instances, plan.initial(), 8);
        let reweighted = library::zipf_keyed(&dag, 8, 2);
        assert!(!keyed.agrees_with(&reweighted, &instances, plan.initial(), 8));
    }

    #[test]
    fn bitset_inserts_and_clears() {
        let mut b = InstanceBitset::with_capacity(200);
        assert!(b.is_empty());
        for i in [199usize, 0, 64, 63, 127] {
            assert!(!b.contains(i));
            assert!(b.insert(i), "first insert of {i} is fresh");
            assert!(b.contains(i));
        }
        assert!(!b.insert(64), "re-insert is not fresh");
        assert_eq!(b.len(), 5);
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![0, 63, 64, 127, 199]);
        assert!(!b.contains(1));
        assert!(!b.contains(128));
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert_eq!(b.iter().next(), None);
        assert!(!b.contains(63));
    }
}
