//! Task-instance schedulers.
//!
//! Storm's default scheduler distributes executors round-robin over the
//! available worker slots; the paper uses it for both the initial deployment
//! and the post-rebalance placement (§5, "Storm's default round-robin
//! scheduler is used to map a task instance to an available VM slot").
//! A resource-aware packing scheduler (in the spirit of R-Storm [3]) is
//! provided for the scheduler ablation.

use crate::assignment::Assignment;
use crate::vm::{SlotId, VmPool, VmRole};
use flowmig_topology::{Dataflow, InstanceId, InstanceSet, TaskKind};
use std::error::Error;
use std::fmt;

/// Error raised when a deployment cannot be placed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// More instances than slots with the requested role.
    NotEnoughSlots {
        /// Instances needing placement.
        needed: usize,
        /// Slots available in the pool for the role.
        available: usize,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotEnoughSlots { needed, available } => {
                write!(f, "not enough slots: need {needed}, have {available}")
            }
        }
    }
}

impl Error for ScheduleError {}

/// A placement policy mapping user-task instances onto worker slots.
///
/// Source and sink instances are always placed on the pinned VM regardless
/// of policy (they are never migrated, §5); implementations only decide the
/// placement of operator instances.
pub trait InstanceScheduler {
    /// Human-readable policy name (for reports).
    fn name(&self) -> &'static str;

    /// Orders the worker slots; instances are assigned to the returned
    /// slots in instance order.
    fn order_slots(&self, pool: &VmPool, slots: Vec<SlotId>) -> Vec<SlotId>;

    /// Produces a full assignment of `instances` onto the pool:
    /// pinned tasks on the pinned VM, operators on `role` worker slots.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::NotEnoughSlots`] if the pool lacks capacity
    /// for either the pinned or the operator instances.
    fn assign(
        &self,
        dag: &Dataflow,
        instances: &InstanceSet,
        pool: &VmPool,
        role: VmRole,
    ) -> Result<Assignment, ScheduleError> {
        let mut assignment = Assignment::new();

        // Pinned tasks (source + sink) go on the pinned VM, in order.
        let pinned: Vec<InstanceId> = instances
            .iter()
            .filter(|&i| dag.spec(instances.task_of(i)).kind() != TaskKind::Operator)
            .collect();
        let pinned_slots = pool.slots_of(VmRole::Pinned);
        if pinned.len() > pinned_slots.len() {
            return Err(ScheduleError::NotEnoughSlots {
                needed: pinned.len(),
                available: pinned_slots.len(),
            });
        }
        for (&i, &s) in pinned.iter().zip(&pinned_slots) {
            assignment.place(i, s);
        }

        // Operator instances go on worker slots in policy order.
        let users: Vec<InstanceId> = instances.user_instances(dag).collect();
        let slots = self.order_slots(pool, pool.slots_of(role));
        if users.len() > slots.len() {
            return Err(ScheduleError::NotEnoughSlots {
                needed: users.len(),
                available: slots.len(),
            });
        }
        for (&i, &s) in users.iter().zip(&slots) {
            assignment.place(i, s);
        }
        Ok(assignment)
    }
}

/// Storm's default scheduler: slots are taken round-robin **across VMs**
/// (vm₀ slot 0, vm₁ slot 0, …, vm₀ slot 1, …), spreading load evenly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundRobinScheduler;

impl InstanceScheduler for RoundRobinScheduler {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn order_slots(&self, _pool: &VmPool, slots: Vec<SlotId>) -> Vec<SlotId> {
        // Round-robin across VMs is the slot-major `(slot, vm)` order:
        // bucket by slot index, then put each bucket in VM order. For the
        // VM-major input `VmPool::slots_of` yields, every bucket already
        // is, and the sort only confirms it in one pass.
        let mut buckets: Vec<Vec<SlotId>> = Vec::new();
        for s in slots {
            let b = usize::from(s.slot);
            if b >= buckets.len() {
                buckets.resize_with(b + 1, Vec::new);
            }
            buckets[b].push(s);
        }
        for bucket in &mut buckets {
            bucket.sort_unstable_by_key(|s| s.vm);
        }
        buckets.concat()
    }
}

/// Resource-aware packing scheduler (R-Storm-flavoured ablation): fills one
/// VM completely before the next, maximizing co-location so connected tasks
/// more often share a VM (lower network latency, fewer VMs touched).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PackingScheduler;

impl InstanceScheduler for PackingScheduler {
    fn name(&self) -> &'static str {
        "packing"
    }

    fn order_slots(&self, _pool: &VmPool, mut slots: Vec<SlotId>) -> Vec<SlotId> {
        // VM-major order *is* packing order.
        slots.sort_by_key(|s| (s.vm, s.slot));
        slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::VmSize;
    use flowmig_topology::library;

    fn pool_for(n_workers: usize, size: VmSize) -> VmPool {
        let mut pool = VmPool::new();
        pool.add(VmSize::D3, VmRole::Pinned);
        for _ in 0..n_workers {
            pool.add(size, VmRole::InitialWorker);
        }
        pool
    }

    #[test]
    fn round_robin_spreads_across_vms() {
        let dag = library::diamond(); // 8 user instances
        let inst = flowmig_topology::InstanceSet::plan(&dag);
        let pool = pool_for(4, VmSize::D2);
        let a = RoundRobinScheduler.assign(&dag, &inst, &pool, VmRole::InitialWorker).unwrap();
        // First four user instances land on four distinct VMs.
        let users: Vec<InstanceId> = inst.user_instances(&dag).collect();
        let vms: std::collections::HashSet<_> =
            users[..4].iter().map(|&i| a.vm_of(i).unwrap()).collect();
        assert_eq!(vms.len(), 4);
    }

    #[test]
    fn round_robin_order_is_the_slot_major_tuple_sort() {
        // Pools of random sizes (including slot indices past 64) and mixed
        // roles, from a fixed SplitMix64 stream: the bucketed order must
        // reproduce the stable `(slot, vm)` sort exactly, for the VM-major
        // input `assign` passes and for a shuffled one.
        let mut state = 0x5EED_u64;
        let mut next = move |bound: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        };
        let roles = [VmRole::Pinned, VmRole::InitialWorker, VmRole::TargetWorker];
        for _ in 0..200 {
            let mut pool = VmPool::new();
            for _ in 0..next(40) {
                let slots = if next(8) == 0 { 1 + next(255) } else { 1 + next(4) };
                pool.add(VmSize::custom("R", slots as u8), roles[next(3) as usize]);
            }
            for role in roles {
                let mut slots = pool.slots_of(role);
                for _ in 0..2 {
                    let mut expected = slots.clone();
                    expected.sort_by_key(|s| (s.slot, s.vm));
                    assert_eq!(RoundRobinScheduler.order_slots(&pool, slots.clone()), expected);
                    for k in (1..slots.len()).rev() {
                        slots.swap(k, next(k as u64 + 1) as usize);
                    }
                }
            }
        }
    }

    #[test]
    fn packing_fills_vm_first() {
        let dag = library::diamond();
        let inst = flowmig_topology::InstanceSet::plan(&dag);
        let pool = pool_for(4, VmSize::D2);
        let a = PackingScheduler.assign(&dag, &inst, &pool, VmRole::InitialWorker).unwrap();
        let users: Vec<InstanceId> = inst.user_instances(&dag).collect();
        // First two instances share the first worker VM.
        assert_eq!(a.vm_of(users[0]), a.vm_of(users[1]));
    }

    #[test]
    fn pinned_tasks_go_to_pinned_vm() {
        let dag = library::linear();
        let inst = flowmig_topology::InstanceSet::plan(&dag);
        let pool = pool_for(3, VmSize::D2);
        let a = RoundRobinScheduler.assign(&dag, &inst, &pool, VmRole::InitialWorker).unwrap();
        let pinned_vm = pool.with_role(VmRole::Pinned).next().unwrap();
        for i in inst.iter() {
            let kind = dag.spec(inst.task_of(i)).kind();
            let on_pinned = a.vm_of(i).unwrap() == pinned_vm;
            assert_eq!(on_pinned, kind != TaskKind::Operator, "instance {i}");
        }
    }

    #[test]
    fn insufficient_slots_is_an_error() {
        let dag = library::grid(); // 21 user instances
        let inst = flowmig_topology::InstanceSet::plan(&dag);
        let pool = pool_for(2, VmSize::D2); // only 4 worker slots
        let err =
            RoundRobinScheduler.assign(&dag, &inst, &pool, VmRole::InitialWorker).unwrap_err();
        assert_eq!(err, ScheduleError::NotEnoughSlots { needed: 21, available: 4 });
        assert!(err.to_string().contains("not enough slots"));
    }

    #[test]
    fn every_instance_is_placed_exactly_once() {
        let dag = library::traffic();
        let inst = flowmig_topology::InstanceSet::plan(&dag);
        let pool = pool_for(7, VmSize::D2);
        for sched in [&RoundRobinScheduler as &dyn InstanceScheduler, &PackingScheduler] {
            let a = sched.assign(&dag, &inst, &pool, VmRole::InitialWorker).unwrap();
            assert_eq!(a.len(), inst.len(), "{}", sched.name());
            let slots: std::collections::HashSet<_> = a.iter().map(|(_, s)| s).collect();
            assert_eq!(slots.len(), inst.len(), "no slot reuse");
        }
    }
}
