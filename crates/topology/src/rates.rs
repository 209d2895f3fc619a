//! Steady-state rate propagation and data-parallel instance planning.
//!
//! The paper sizes parallelism from cumulative input rates: each task gets
//! one instance (thread + exclusive 1-core slot) per 8 ev/s of input (§5,
//! "We assign one task instance for each incremental 8 events/sec input
//! rate"). [`RatePlan`] computes the per-task rates from source emit
//! rates; [`InstanceSet`] expands tasks into instances.

use crate::graph::Dataflow;
use crate::task::{TaskId, TaskKind};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Events/second each task instance is provisioned for (paper: 8 ev/s,
/// 20 % below the 10 ev/s capacity of a 100 ms task).
pub const EVENTS_PER_INSTANCE_HZ: f64 = 8.0;

/// Steady-state input/output rates for every task of a dataflow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RatePlan {
    input_hz: Vec<f64>,
    output_hz: Vec<f64>,
}

impl RatePlan {
    /// Propagates rates from the sources through the DAG.
    ///
    /// A task's input rate is the sum of its upstream output rates (events
    /// are replicated on every out-edge); every task is 1:1, so its output
    /// rate equals its input rate.
    pub fn for_dataflow(dag: &Dataflow) -> Self {
        let n = dag.len();
        let mut input_hz = vec![0.0; n];
        let mut output_hz = vec![0.0; n];
        for &id in dag.topo_order() {
            let spec = dag.spec(id);
            let out = match spec.kind() {
                TaskKind::Source => spec.emit_rate_hz(),
                _ => input_hz[id.index()],
            };
            output_hz[id.index()] = out;
            for &child in dag.downstream(id) {
                input_hz[child.index()] += out;
            }
        }
        RatePlan { input_hz, output_hz }
    }

    /// Steady input rate of `task` in events/second.
    pub fn input_hz(&self, task: TaskId) -> f64 {
        self.input_hz[task.index()]
    }

    /// Steady output rate of `task` in events/second (per out-edge).
    pub fn output_hz(&self, task: TaskId) -> f64 {
        self.output_hz[task.index()]
    }

    /// The expected steady output rate observed at the sinks (sum of sink
    /// input rates) — the reference rate for the stabilization metric.
    pub fn expected_sink_rate_hz(&self, dag: &Dataflow) -> f64 {
        dag.sinks().map(|s| self.input_hz(s)).sum()
    }

    /// Number of instances the paper's provisioning rule assigns to `task`:
    /// `max(1, ceil(input_rate / 8))` for operators; sources use their emit
    /// rate. Sinks always get a single instance — they have no service time
    /// and share the pinned logging VM with the source (§5, Table 1 footnote).
    ///
    /// An explicit [`TaskSpec::with_parallelism`] hint overrides the rule
    /// entirely (for every kind, sinks included) — the scaled wave-latency
    /// workloads use it to widen a dataflow without changing its rates.
    ///
    /// [`TaskSpec::with_parallelism`]: crate::TaskSpec::with_parallelism
    pub fn instances_for(&self, dag: &Dataflow, task: TaskId) -> usize {
        if let Some(n) = dag.spec(task).parallelism_hint() {
            return n;
        }
        let rate = match dag.spec(task).kind() {
            TaskKind::Source => self.output_hz(task),
            TaskKind::Sink => return 1,
            TaskKind::Operator => self.input_hz(task),
        };
        ((rate / EVENTS_PER_INSTANCE_HZ).ceil() as usize).max(1)
    }
}

/// Identifier of one data-parallel instance of a task.
///
/// Instances are dense global indices across the whole dataflow so engine
/// state can live in flat `Vec`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct InstanceId(pub(crate) u32);

impl InstanceId {
    /// Dense index of this instance.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an `InstanceId` from a dense index.
    pub const fn from_index(index: usize) -> Self {
        InstanceId(index as u32)
    }
}

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// The expansion of a dataflow's tasks into data-parallel instances.
///
/// # Examples
///
/// ```
/// use flowmig_topology::{library, InstanceSet};
///
/// let dag = library::grid();
/// let inst = InstanceSet::plan(&dag);
/// // Table 1: Grid has 21 user-task instances (slots).
/// assert_eq!(inst.user_instance_count(&dag), 21);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceSet {
    owner: Vec<TaskId>,
    replica: Vec<u16>,
    by_task: Vec<Vec<InstanceId>>,
}

impl InstanceSet {
    /// Plans instances per the paper's rule (1 instance per 8 ev/s).
    pub fn plan(dag: &Dataflow) -> Self {
        Self::plan_with(dag, &RatePlan::for_dataflow(dag))
    }

    /// Plans instances from a precomputed [`RatePlan`].
    pub fn plan_with(dag: &Dataflow, rates: &RatePlan) -> Self {
        let mut owner = Vec::new();
        let mut replica = Vec::new();
        let mut by_task = vec![Vec::new(); dag.len()];
        for id in dag.task_ids() {
            let count = rates.instances_for(dag, id);
            for r in 0..count {
                let iid = InstanceId::from_index(owner.len());
                owner.push(id);
                replica.push(r as u16);
                by_task[id.index()].push(iid);
            }
        }
        InstanceSet { owner, replica, by_task }
    }

    /// Total instances, including source and sink instances.
    pub fn len(&self) -> usize {
        self.owner.len()
    }

    /// Returns true if there are no instances.
    pub fn is_empty(&self) -> bool {
        self.owner.is_empty()
    }

    /// The task owning `instance`.
    ///
    /// # Panics
    ///
    /// Panics if `instance` is out of range.
    pub fn task_of(&self, instance: InstanceId) -> TaskId {
        self.owner[instance.index()]
    }

    /// The replica number of `instance` within its task (0-based).
    pub fn replica_of(&self, instance: InstanceId) -> u16 {
        self.replica[instance.index()]
    }

    /// Instances of `task`, in replica order.
    pub fn of_task(&self, task: TaskId) -> &[InstanceId] {
        &self.by_task[task.index()]
    }

    /// Iterates over all instance ids.
    pub fn iter(&self) -> impl Iterator<Item = InstanceId> + '_ {
        (0..self.owner.len()).map(InstanceId::from_index)
    }

    /// Number of **user-task** instances — the slot count of Table 1
    /// (source and sink instances live on their own pinned VM).
    pub fn user_instance_count(&self, dag: &Dataflow) -> usize {
        self.iter().filter(|&i| dag.spec(self.task_of(i)).kind() == TaskKind::Operator).count()
    }

    /// Iterates over user-task instances only (the migratable set).
    pub fn user_instances<'a>(
        &'a self,
        dag: &'a Dataflow,
    ) -> impl Iterator<Item = InstanceId> + 'a {
        self.iter().filter(move |&i| dag.spec(self.task_of(i)).kind() == TaskKind::Operator)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DataflowBuilder;
    use crate::task::TaskSpec;

    fn fan_in_dag() -> Dataflow {
        // src -> {a, b, c} -> m -> sink : m sees 24 ev/s.
        let mut b = DataflowBuilder::new("fan");
        let s = b.add(TaskSpec::source("src", 8.0));
        let a = b.add(TaskSpec::operator("a"));
        let b2 = b.add(TaskSpec::operator("b"));
        let c = b.add(TaskSpec::operator("c"));
        let m = b.add(TaskSpec::operator("m"));
        let k = b.add(TaskSpec::sink("sink"));
        b.edge(s, a).edge(s, b2).edge(s, c);
        b.edge(a, m).edge(b2, m).edge(c, m);
        b.edge(m, k);
        b.finish().unwrap()
    }

    #[test]
    fn rates_accumulate_at_fan_in() {
        let dag = fan_in_dag();
        let rates = RatePlan::for_dataflow(&dag);
        let m = dag.task_by_name("m").unwrap();
        let sink = dag.task_by_name("sink").unwrap();
        assert_eq!(rates.input_hz(m), 24.0);
        assert_eq!(rates.output_hz(m), 24.0);
        assert_eq!(rates.input_hz(sink), 24.0);
        assert_eq!(rates.expected_sink_rate_hz(&dag), 24.0);
    }

    #[test]
    fn instance_rule_one_per_8hz() {
        let dag = fan_in_dag();
        let rates = RatePlan::for_dataflow(&dag);
        let m = dag.task_by_name("m").unwrap();
        let a = dag.task_by_name("a").unwrap();
        assert_eq!(rates.instances_for(&dag, m), 3);
        assert_eq!(rates.instances_for(&dag, a), 1);
        let inst = InstanceSet::plan(&dag);
        assert_eq!(inst.of_task(m).len(), 3);
        // 4 user tasks at 8 ev/s? a,b,c = 1 each; m = 3 → 6 user instances.
        assert_eq!(inst.user_instance_count(&dag), 6);
    }

    #[test]
    fn instance_bookkeeping_is_consistent() {
        let dag = fan_in_dag();
        let inst = InstanceSet::plan(&dag);
        assert!(!inst.is_empty());
        for iid in inst.iter() {
            let t = inst.task_of(iid);
            let r = inst.replica_of(iid) as usize;
            assert_eq!(inst.of_task(t)[r], iid);
        }
        // Replicas are 0-based and contiguous per task.
        for t in dag.task_ids() {
            for (i, &iid) in inst.of_task(t).iter().enumerate() {
                assert_eq!(inst.replica_of(iid) as usize, i);
            }
        }
    }

    #[test]
    fn parallelism_hint_overrides_rate_rule() {
        let mut b = DataflowBuilder::new("hinted");
        let s = b.add(TaskSpec::source("src", 8.0).with_parallelism(2));
        let t = b.add(TaskSpec::operator("t").with_parallelism(5)); // rule says 1
        let k = b.add(TaskSpec::sink("sink").with_parallelism(3)); // rule says 1
        b.edge(s, t).edge(t, k);
        let dag = b.finish().unwrap();
        let rates = RatePlan::for_dataflow(&dag);
        assert_eq!(rates.instances_for(&dag, s), 2);
        assert_eq!(rates.instances_for(&dag, t), 5);
        assert_eq!(rates.instances_for(&dag, k), 3, "hints apply to sinks too");
        let inst = InstanceSet::plan(&dag);
        assert_eq!(inst.len(), 10);
        assert_eq!(inst.user_instance_count(&dag), 5);
    }

    #[test]
    fn fractional_rates_round_up() {
        let mut b = DataflowBuilder::new("frac");
        let s = b.add(TaskSpec::source("src", 9.0));
        let t = b.add(TaskSpec::operator("t"));
        let k = b.add(TaskSpec::sink("sink"));
        b.edge(s, t).edge(t, k);
        let dag = b.finish().unwrap();
        let rates = RatePlan::for_dataflow(&dag);
        assert_eq!(rates.instances_for(&dag, t), 2);
    }

    #[test]
    fn zero_rate_still_gets_one_instance() {
        let mut b = DataflowBuilder::new("z");
        let s = b.add(TaskSpec::source("src", 0.0));
        let t = b.add(TaskSpec::operator("t"));
        let k = b.add(TaskSpec::sink("sink"));
        b.edge(s, t).edge(t, k);
        let dag = b.finish().unwrap();
        let rates = RatePlan::for_dataflow(&dag);
        assert_eq!(rates.instances_for(&dag, t), 1);
    }
}
