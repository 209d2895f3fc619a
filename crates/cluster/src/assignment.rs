//! Instance→slot assignments and migration diffs.

use crate::vm::{SlotId, VmId};
use flowmig_topology::InstanceId;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// A complete mapping of every task instance to a slot.
///
/// Dense over [`InstanceSet`](flowmig_topology::InstanceSet) indices: the
/// slot of instance `i` lives at position `i` of a flat vector, so
/// lookups, iteration and migration diffs are array scans in instance
/// order, with no hashing and no sort.
///
/// # Examples
///
/// ```
/// use flowmig_cluster::{Assignment, SlotId, VmId};
/// use flowmig_topology::InstanceId;
///
/// let mut a = Assignment::new();
/// let i0 = InstanceId::from_index(0);
/// a.place(i0, SlotId { vm: VmId::from_index(1), slot: 0 });
/// assert_eq!(a.slot_of(i0).unwrap().vm, VmId::from_index(1));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(from = "AssignmentSerde", into = "AssignmentSerde")]
pub struct Assignment {
    /// Instance index → its slot (`None` = unassigned).
    slots: Vec<Option<SlotId>>,
    /// Number of assigned instances (`Some` entries of `slots`).
    len: usize,
    /// Occupied slots, one bit per (VM, slot index): VM `v`'s bits are
    /// words `v * stride..(v + 1) * stride` — the O(1) exclusivity check
    /// [`place`](Self::place) runs per placement. Derived from `slots`.
    occupied: Vec<u64>,
    /// Occupancy words per VM, grown to fit the highest slot index placed.
    stride: usize,
}

/// Serde shadow of [`Assignment`]: the serialized form is the
/// instance→slot map alone (occupancy is derived from it).
#[derive(Serialize, Deserialize)]
#[serde(rename = "Assignment")]
struct AssignmentSerde {
    slots: HashMap<InstanceId, SlotId>,
}

impl From<AssignmentSerde> for Assignment {
    fn from(s: AssignmentSerde) -> Self {
        let mut a = Assignment { len: s.slots.len(), ..Assignment::default() };
        for (i, slot) in s.slots {
            if i.index() >= a.slots.len() {
                a.slots.resize(i.index() + 1, None);
            }
            a.slots[i.index()] = Some(slot);
        }
        // A deserialized mapping is taken as given: exclusivity is
        // asserted only by `place`.
        a.rebuild_occupancy(1);
        a
    }
}

impl From<Assignment> for AssignmentSerde {
    fn from(a: Assignment) -> Self {
        AssignmentSerde { slots: a.iter().collect() }
    }
}

/// Equal when both map the same instances to the same slots; the derived
/// occupancy storage, whose size depends on placement history, is ignored.
impl PartialEq for Assignment {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Assignment {
    /// Creates an empty assignment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Places `instance` on `slot`, returning the previous slot if any.
    ///
    /// # Panics
    ///
    /// Panics if another instance already occupies `slot` (slots are
    /// exclusive: one instance per 1-core slot).
    pub fn place(&mut self, instance: InstanceId, slot: SlotId) -> Option<SlotId> {
        let prev = self.slot_of(instance);
        if prev == Some(slot) {
            return prev;
        }
        let (word, bit) = self.occupancy_bit(slot);
        assert!(self.occupied[word] & bit == 0, "slot {slot} is already occupied");
        self.occupied[word] |= bit;
        match prev {
            Some(p) => {
                let (word, bit) = self.occupancy_bit(p);
                self.occupied[word] &= !bit;
            }
            None => self.len += 1,
        }
        let i = instance.index();
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        self.slots[i] = Some(slot);
        prev
    }

    /// The occupancy word and bit of `slot`, growing the storage (and
    /// re-striding it for a slot index beyond the current stride) to fit.
    fn occupancy_bit(&mut self, slot: SlotId) -> (usize, u64) {
        let s = usize::from(slot.slot);
        if s / 64 >= self.stride {
            self.rebuild_occupancy(s / 64 + 1);
        }
        let base = slot.vm.index() * self.stride;
        if base + self.stride > self.occupied.len() {
            self.occupied.resize(base + self.stride, 0);
        }
        (base + s / 64, 1 << (s % 64))
    }

    /// Re-derives the occupancy bits from `slots`, with at least
    /// `min_stride` words per VM and enough for every placed slot index.
    fn rebuild_occupancy(&mut self, min_stride: usize) {
        let widest = self.slots.iter().flatten().map(|s| usize::from(s.slot) / 64 + 1).max();
        let stride = widest.unwrap_or(0).max(min_stride);
        self.stride = stride;
        self.occupied.clear();
        for slot in self.slots.iter().flatten() {
            let (s, base) = (usize::from(slot.slot), slot.vm.index() * stride);
            if base + stride > self.occupied.len() {
                self.occupied.resize(base + stride, 0);
            }
            self.occupied[base + s / 64] |= 1 << (s % 64);
        }
    }

    /// The slot hosting `instance`, if assigned.
    pub fn slot_of(&self, instance: InstanceId) -> Option<SlotId> {
        self.slots.get(instance.index()).copied().flatten()
    }

    /// The VM hosting `instance`, if assigned.
    pub fn vm_of(&self, instance: InstanceId) -> Option<VmId> {
        self.slot_of(instance).map(|s| s.vm)
    }

    /// Number of assigned instances.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns true if nothing is assigned.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over `(instance, slot)` pairs in instance order
    /// (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (InstanceId, SlotId)> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, s)| s.map(|s| (InstanceId::from_index(i), s)))
    }

    /// The set of distinct VMs used by this assignment.
    pub fn vms_used(&self) -> HashSet<VmId> {
        (0..self.occupied.len() / self.stride.max(1))
            .filter(|&v| {
                self.occupied[v * self.stride..(v + 1) * self.stride].iter().any(|&w| w != 0)
            })
            .map(VmId::from_index)
            .collect()
    }

    /// Instances whose slot differs between `self` (old) and `new` — the
    /// set that must be killed and respawned by a rebalance — in instance
    /// order.
    ///
    /// Instances present in only one assignment are counted as moved.
    pub fn moved_instances(&self, new: &Assignment) -> Vec<InstanceId> {
        (0..self.slots.len().max(new.slots.len()))
            .map(InstanceId::from_index)
            .filter(|&i| self.slot_of(i) != new.slot_of(i))
            .collect()
    }
}

impl FromIterator<(InstanceId, SlotId)> for Assignment {
    fn from_iter<T: IntoIterator<Item = (InstanceId, SlotId)>>(iter: T) -> Self {
        let mut a = Assignment::new();
        for (i, s) in iter {
            a.place(i, s);
        }
        a
    }
}

impl Extend<(InstanceId, SlotId)> for Assignment {
    fn extend<T: IntoIterator<Item = (InstanceId, SlotId)>>(&mut self, iter: T) {
        for (i, s) in iter {
            self.place(i, s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::VmId;

    fn slot(vm: usize, s: u8) -> SlotId {
        SlotId { vm: VmId::from_index(vm), slot: s }
    }

    #[test]
    fn place_and_lookup() {
        let mut a = Assignment::new();
        let i = InstanceId::from_index(3);
        assert_eq!(a.place(i, slot(0, 1)), None);
        assert_eq!(a.slot_of(i), Some(slot(0, 1)));
        assert_eq!(a.vm_of(i), Some(VmId::from_index(0)));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn replace_returns_previous() {
        let mut a = Assignment::new();
        let i = InstanceId::from_index(0);
        a.place(i, slot(0, 0));
        assert_eq!(a.place(i, slot(1, 0)), Some(slot(0, 0)));
    }

    #[test]
    fn a_slot_freed_by_a_replace_can_be_taken() {
        let mut a = Assignment::new();
        let (i, j) = (InstanceId::from_index(0), InstanceId::from_index(70));
        a.place(i, slot(0, 0));
        a.place(i, slot(1, 200)); // off slot 0, into a wider occupancy stride
        assert_eq!(a.place(j, slot(0, 0)), None, "the vacated slot is free");
        assert_eq!(a.place(j, slot(0, 0)), Some(slot(0, 0)), "same-slot re-place");
        assert_eq!(a.len(), 2);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![(i, slot(1, 200)), (j, slot(0, 0))]);
    }

    #[test]
    #[should_panic(expected = "occupied")]
    fn serde_shadow_round_trips_the_mapping_and_its_occupancy() {
        let a: Assignment =
            [(InstanceId::from_index(40), slot(2, 130)), (InstanceId::from_index(3), slot(0, 1))]
                .into_iter()
                .collect();
        let mut back = Assignment::from(AssignmentSerde::from(a.clone()));
        assert_eq!(back, a);
        assert_eq!(back.len(), 2);
        assert_eq!(back.vms_used(), a.vms_used());
        back.place(InstanceId::from_index(7), slot(2, 130));
    }

    #[test]
    #[should_panic(expected = "occupied")]
    fn exclusive_slots() {
        let mut a = Assignment::new();
        a.place(InstanceId::from_index(0), slot(0, 0));
        a.place(InstanceId::from_index(1), slot(0, 0));
    }

    #[test]
    fn moved_instances_detects_changes() {
        let old: Assignment = [
            (InstanceId::from_index(0), slot(0, 0)),
            (InstanceId::from_index(1), slot(0, 1)),
            (InstanceId::from_index(2), slot(1, 0)),
        ]
        .into_iter()
        .collect();
        let new: Assignment = [
            (InstanceId::from_index(0), slot(0, 0)), // unchanged (pinned)
            (InstanceId::from_index(1), slot(2, 0)), // moved
            (InstanceId::from_index(2), slot(2, 1)), // moved
        ]
        .into_iter()
        .collect();
        assert_eq!(
            old.moved_instances(&new),
            vec![InstanceId::from_index(1), InstanceId::from_index(2)]
        );
    }

    #[test]
    fn moved_instances_handles_asymmetric_sets() {
        let old: Assignment = [(InstanceId::from_index(0), slot(0, 0))].into_iter().collect();
        let new = Assignment::new();
        assert_eq!(old.moved_instances(&new), vec![InstanceId::from_index(0)]);
    }

    #[test]
    fn vms_used_deduplicates() {
        let a: Assignment = [
            (InstanceId::from_index(0), slot(0, 0)),
            (InstanceId::from_index(1), slot(0, 1)),
            (InstanceId::from_index(2), slot(3, 0)),
        ]
        .into_iter()
        .collect();
        assert_eq!(a.vms_used().len(), 2);
    }

    #[test]
    fn iter_is_sorted_by_instance() {
        let a: Assignment = [
            (InstanceId::from_index(2), slot(0, 0)),
            (InstanceId::from_index(0), slot(0, 1)),
            (InstanceId::from_index(1), slot(1, 0)),
        ]
        .into_iter()
        .collect();
        let ids: Vec<usize> = a.iter().map(|(i, _)| i.index()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }
}
