//! Property-based tests over the core data structures and protocols.

mod metrics_oracle;

use flowmig::cluster::{SlotId, VmId};
use flowmig::core::CcrPipelined;
use flowmig::engine::{
    AckOutcome, Acker, AdmitOutcome, DataEvent, ShardStats, ShardedStateStore, StateBlob,
    StoreOpKind,
};
use flowmig::metrics::{ControlKind, RootId};
use flowmig::prelude::*;
use flowmig::sim::{Process, RunOutcome, Scheduler, Simulation};
use flowmig::topology::{InstanceId, KeyRange};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

// ---------------------------------------------------------------------
// Acker XOR-ledger properties
// ---------------------------------------------------------------------

/// A random tuple tree: node ids (non-zero, distinct) with parent links.
fn tree_strategy() -> impl Strategy<Value = Vec<(u64, Option<usize>)>> {
    // Up to 24 nodes; node 0 is the root; each later node picks an earlier
    // parent. Ids are made distinct and non-zero by construction below.
    proptest::collection::vec(0usize..24, 1..24).prop_map(|parents| {
        let mut nodes: Vec<(u64, Option<usize>)> = vec![(1, None)];
        for (i, p) in parents.into_iter().enumerate() {
            let id = (i as u64 + 2).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1; // distinct, odd
            nodes.push((id, Some(p % nodes.len())));
        }
        nodes
    })
}

proptest! {
    /// Acking every edge of any tree, in any interleaving consistent with
    /// processing order, zeroes the ledger exactly at the last ack.
    #[test]
    fn acker_completes_iff_every_tuple_acked(
        tree in tree_strategy(),
        shuffle_seed in 0u64..u64::MAX,
    ) {
        let mut acker = Acker::new(SimDuration::from_secs(30));
        let root = RootId(0xFEED);
        // children[i] = ids of i's children.
        let mut children: Vec<Vec<u64>> = vec![Vec::new(); tree.len()];
        for &(id, parent) in &tree {
            if let Some(p) = parent {
                children[p].push(id);
            }
        }
        acker.register(root, tree[0].0, SimTime::ZERO);

        // Process nodes in a shuffled topological order: each node acks
        // itself XOR its children (children get registered by the ack).
        let mut order: Vec<usize> = (0..tree.len()).collect();
        // Deterministic Fisher-Yates from the seed.
        let mut state = shuffle_seed | 1;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        // Repair to topological: stable-sort by depth.
        let mut depth = vec![0usize; tree.len()];
        for (i, &(_, parent)) in tree.iter().enumerate() {
            if let Some(p) = parent {
                depth[i] = depth[p] + 1;
            }
        }
        order.sort_by_key(|&i| depth[i]);

        let mut outcome = AckOutcome::Pending;
        for (k, &i) in order.iter().enumerate() {
            let update = tree[i].0 ^ children[i].iter().fold(0u64, |a, &c| a ^ c);
            outcome = acker.apply(root, update);
            if k + 1 < order.len() {
                prop_assert_eq!(outcome, AckOutcome::Pending, "complete only at the end");
            }
        }
        prop_assert_eq!(outcome, AckOutcome::Complete);
        prop_assert_eq!(acker.pending(), 0);
    }

    /// Leaving any single tuple unacked keeps the tree pending and it
    /// expires at the timeout.
    #[test]
    fn acker_times_out_incomplete_trees(
        tree in tree_strategy(),
        skip in 0usize..24,
    ) {
        let mut acker = Acker::new(SimDuration::from_secs(30));
        let root = RootId(0xBEEF);
        let mut children: Vec<Vec<u64>> = vec![Vec::new(); tree.len()];
        for &(id, parent) in &tree {
            if let Some(p) = parent {
                children[p].push(id);
            }
        }
        acker.register(root, tree[0].0, SimTime::ZERO);
        let skip = skip % tree.len();
        for i in 0..tree.len() {
            if i == skip {
                continue;
            }
            let update = tree[i].0 ^ children[i].iter().fold(0u64, |a, &c| a ^ c);
            let _ = acker.apply(root, update);
        }
        prop_assert!(acker.is_pending(root), "tree with a missing ack stays pending");
        let expired = acker.expire(SimTime::from_secs(30));
        prop_assert_eq!(expired, vec![root]);
    }
}

// ---------------------------------------------------------------------
// Store shard-queue properties
// ---------------------------------------------------------------------

proptest! {
    /// For any admission sequence, the per-shard FIFO queue never reorders
    /// completions, never charges less than the service time, and its
    /// accounting (queued waits, depth high-water marks) adds up exactly.
    #[test]
    fn fifo_shard_queue_completions_are_non_decreasing(
        shards in 1usize..9,
        ops in proptest::collection::vec(
            // (instance index, gap to previous admission µs, service µs)
            (0usize..32, 0u64..2_000, 1u64..1_500),
            1..64,
        ),
    ) {
        let replication = StoreReplication::default();
        let mut store =
            ShardedStateStore::with_config(shards, StoreServiceModel::FifoPerShard, replication);
        let mut flat = ShardedStateStore::with_config(shards, StoreServiceModel::Unqueued, replication);
        let mut now = SimTime::ZERO;
        let mut last_completion = vec![SimTime::ZERO; shards];
        let mut expected_wait = SimDuration::ZERO;
        for &(idx, gap, service_us) in &ops {
            now += SimDuration::from_micros(gap);
            let i = flowmig::topology::InstanceId::from_index(idx);
            let service = SimDuration::from_micros(service_us);
            let delay = store.admit(i, now, service, StoreOpKind::Persist).delay().unwrap();
            let baseline = flat.admit(i, now, service, StoreOpKind::Persist).delay().unwrap();
            // Queueing is a strict extension of the flat model…
            prop_assert_eq!(baseline, service);
            prop_assert!(delay >= service, "an op never beats its service time");
            expected_wait += delay - service;
            // …and per-shard completions never reorder.
            let shard = store.shard_of(i);
            let completion = now + delay;
            prop_assert!(
                completion >= last_completion[shard],
                "shard {} completion reordered", shard
            );
            last_completion[shard] = completion;
        }
        let total_wait = store.queued_wait();
        prop_assert_eq!(total_wait, expected_wait, "shard wait accounting adds up");
        let queued = store.queued_ops();
        prop_assert!(queued as usize <= ops.len());
        let depth = store.max_queue_depth();
        prop_assert!((1..=ops.len()).contains(&depth), "depth high-water within bounds");
        // The flat store observed the same admissions, so its depth mark
        // is at least as deep (its ops never leave earlier than FIFO ones
        // start... they complete at now+service, which is <= the FIFO
        // completion, so its window can only be shallower or equal).
        prop_assert!(flat.max_queue_depth() <= depth);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For any seed and shard count, a migration's checkpoint critical
    /// path (COMMIT + restore spans) under per-shard FIFO queueing is at
    /// least as long as under the zero-queueing compatibility model — the
    /// queueing path only ever adds waiting.
    #[test]
    fn wave_spans_under_queueing_dominate_the_flat_model(
        seed in 0u64..1_000,
        shards in 1usize..10,
    ) {
        let run = |model| {
            let config = EngineConfig {
                store_shards: shards,
                store_service: model,
                ..EngineConfig::default()
            };
            MigrationController::new()
                .with_engine_config(config)
                .with_request_at(SimTime::from_secs(60))
                .with_horizon(SimTime::from_secs(400))
                .with_seed(seed)
                .run(&library::grid(), &CcrPipelined::new(), ScaleDirection::In)
                .expect("paper scenario placeable")
        };
        let fifo = run(StoreServiceModel::FifoPerShard);
        let flat = run(StoreServiceModel::Unqueued);
        prop_assert!(fifo.completed && flat.completed);
        let span = |o: &MigrationOutcome| {
            o.metrics.commit_wave.unwrap_or(SimDuration::ZERO)
                + o.metrics.restore_wave.unwrap_or(SimDuration::ZERO)
        };
        prop_assert!(
            span(&fifo) >= span(&flat),
            "queueing shortened the wave: fifo {} < flat {} (seed {}, {} shards)",
            span(&fifo), span(&flat), seed, shards
        );
        // Reliability must not depend on the pricing model.
        prop_assert_eq!(fifo.stats.events_dropped, 0);
        prop_assert_eq!(fifo.stats.replayed_roots, 0);
    }
}

// ---------------------------------------------------------------------
// Dense checkpoint store oracles
// ---------------------------------------------------------------------

/// The key ranges the store oracle addresses: an unkeyed instance's whole
/// range, a keyed one's, and nested or adjacent sub-ranges, so an
/// instance holds several blobs and a lookup must match its range exactly.
const ORACLE_RANGES: [KeyRange; 5] = [
    KeyRange { start: 0, end: 1 },
    KeyRange { start: 0, end: 8 },
    KeyRange { start: 0, end: 2 },
    KeyRange { start: 2, end: 4 },
    KeyRange { start: 4, end: 8 },
];

/// A blob whose counter, pending events and per-partition counters all
/// derive from `seed`, so overwrites change its bytes.
fn oracle_blob(seed: u64) -> StateBlob {
    StateBlob {
        processed: seed,
        pending: (0..seed % 4)
            .map(|k| DataEvent {
                id: seed * 4 + k,
                root: RootId(seed * 4 + k),
                generated_at: SimTime::ZERO,
                replayed: false,
            })
            .collect(),
        key_counts: (0..seed % 3).map(|p| seed + p).collect(),
    }
}

proptest! {
    /// The dense store answers every blob query like a plain `HashMap`
    /// keyed by `(instance, key range)` fed the same calls — several ranges
    /// per instance, overwrites, misses, instances past any slot it has
    /// grown, restores that take a blob's captured events with them — and
    /// keeps each shard's traffic counters and blob count.
    #[test]
    fn dense_store_matches_a_hash_map_model(
        shards in 1usize..9,
        // (call, instance index, range, blob seed)
        calls in proptest::collection::vec((0u8..6, 0usize..40, 0usize..5, 0u64..1_000), 0..96),
    ) {
        let mut store = ShardedStateStore::with_shards(shards);
        let mut model: HashMap<(InstanceId, KeyRange), StateBlob> = HashMap::new();
        let mut expected = vec![ShardStats::default(); shards];
        for &(call, idx, r, seed) in &calls {
            let (i, range) = (InstanceId::from_index(idx), ORACLE_RANGES[r]);
            let counters = &mut expected[idx % shards];
            match call {
                0 | 1 => {
                    let blob = oracle_blob(seed);
                    counters.puts += 1;
                    counters.bytes_written += blob.byte_size();
                    store.put(i, range, blob.clone());
                    model.insert((i, range), blob);
                }
                2 | 3 => {
                    let stored = model.get_mut(&(i, range));
                    counters.gets += 1;
                    match &stored {
                        Some(blob) => counters.bytes_read += blob.byte_size(),
                        None => counters.misses += 1,
                    }
                    let want = stored.map(|blob| {
                        let restored = blob.clone();
                        blob.pending.clear();
                        restored
                    });
                    prop_assert_eq!(store.restore(i, range), want, "restore({}, {:?})", i, range);
                }
                4 => prop_assert_eq!(store.contains(i, range), model.contains_key(&(i, range))),
                _ => {
                    // Two ranges, the same one twice when `seed % 5 == 0`.
                    let ranges = [range, ORACLE_RANGES[(r + seed as usize) % ORACLE_RANGES.len()]];
                    let want: usize = ranges
                        .iter()
                        .filter_map(|&q| model.get(&(i, q)))
                        .map(|b| b.pending.len())
                        .sum();
                    prop_assert_eq!(store.peek_pending_len(i, &ranges), want);
                }
            }
            prop_assert_eq!(store.len(), model.len());
            prop_assert_eq!(store.is_empty(), model.is_empty());
        }
        for (shard, counters) in expected.iter_mut().enumerate() {
            counters.blobs = model.keys().filter(|(i, _)| i.index() % shards == shard).count();
            prop_assert_eq!(store.shard_stats(shard), *counters, "shard {}", shard);
        }
        for i in (0..48).map(InstanceId::from_index) {
            for range in ORACLE_RANGES {
                prop_assert_eq!(store.contains(i, range), model.contains_key(&(i, range)));
            }
            let pending: usize = ORACLE_RANGES
                .iter()
                .filter_map(|&q| model.get(&(i, q)))
                .map(|b| b.pending.len())
                .sum();
            prop_assert_eq!(store.peek_pending_len(i, &ORACLE_RANGES), pending);
        }
    }
}

/// A shard of [`RescanStore`].
#[derive(Debug, Clone, Default)]
struct RescanShard {
    replica_busy: Vec<SimTime>,
    in_flight: Vec<SimTime>,
    stats: ShardStats,
}

/// Store admission as a rescanning window prices it: every admission
/// drops the completed operations from its shard's whole in-flight list and
/// collects the serving replicas' completions into fresh `Vec`s. The
/// store's min-heap window and reused buffer must price exactly the same.
struct RescanStore {
    shards: Vec<RescanShard>,
    model: StoreServiceModel,
    replication: StoreReplication,
}

impl RescanStore {
    fn admit(
        &mut self,
        instance: usize,
        now: SimTime,
        service: SimDuration,
        kind: StoreOpKind,
    ) -> AdmitOutcome {
        let (model, replication) = (self.model, self.replication);
        let replicas = replication.replicas.max(1);
        let shard_count = self.shards.len();
        let s = &mut self.shards[instance % shard_count];
        let down = s.stats.down_replicas.min(replicas);
        let needed = match kind {
            StoreOpKind::Persist => replication.write_quorum.clamp(1, replicas),
            StoreOpKind::Fetch => 1,
        };
        if replicas - down < needed {
            s.stats.failed_ops += 1;
            return AdmitOutcome::Failed;
        }
        if s.replica_busy.len() < replicas {
            s.replica_busy.resize(replicas, SimTime::ZERO);
        }
        s.in_flight.retain(|&done| done > now);
        let serving: Vec<usize> = match kind {
            StoreOpKind::Persist => (down..replicas).collect(),
            StoreOpKind::Fetch => vec![down],
        };
        let mut completions: Vec<(SimTime, usize)> = serving
            .iter()
            .map(|&r| {
                let start = match model {
                    StoreServiceModel::FifoPerShard => s.replica_busy[r].max(now),
                    StoreServiceModel::Unqueued => now,
                };
                (start + replication.replica_service(service, r), r)
            })
            .collect();
        if model == StoreServiceModel::FifoPerShard {
            for &(done, r) in &completions {
                s.replica_busy[r] = done;
            }
        }
        completions.sort_unstable();
        let (completion, decider) = completions[needed - 1];
        let delay = completion - now;
        let wait = delay - replication.replica_service(service, decider);
        if !wait.is_zero() {
            s.stats.queued_ops += 1;
            s.stats.queued_wait += wait;
        }
        let degraded = down > 0;
        if kind == StoreOpKind::Persist && replication.is_replicated() {
            s.stats.quorum_persists += 1;
            if degraded {
                s.stats.degraded_persists += 1;
            }
        }
        s.in_flight.push(completion);
        s.stats.max_queue_depth = s.stats.max_queue_depth.max(s.in_flight.len());
        AdmitOutcome::Served { delay, wait, degraded }
    }
}

proptest! {
    /// For any admission sequence — both op kinds, 1–3 replicas under every
    /// write quorum, replica outages and recoveries, both service models,
    /// and instants that repeat or advance on a 250 µs grid so
    /// completions often land exactly on a later admission — the store
    /// returns the same outcome and keeps the same shard counters as the
    /// rescanning reference.
    #[test]
    fn heap_admission_matches_a_rescanning_reference(
        // (shards, service model, replicas, quorum pick)
        config in (1usize..5, 0usize..2, 1usize..4, 0usize..3),
        // (action, instance index, gap in 250 µs units, service units)
        steps in proptest::collection::vec((0u8..12, 0usize..24, 0u64..8, 1u64..7), 1..96),
    ) {
        let (shards, model, replicas, quorum) = config;
        let model = [StoreServiceModel::Unqueued, StoreServiceModel::FifoPerShard][model];
        let replication = StoreReplication::new(replicas, 1 + quorum % replicas);
        let mut store = ShardedStateStore::with_config(shards, model, replication);
        let mut reference = RescanStore {
            shards: vec![RescanShard::default(); shards],
            model,
            replication,
        };
        let mut now = SimTime::ZERO;
        for (step, &(action, idx, gap, units)) in steps.iter().enumerate() {
            // Half the gaps are zero: same-instant admissions.
            now += SimDuration::from_micros(250 * gap.saturating_sub(3));
            let shard = idx % shards;
            match action {
                0 => {
                    let down = if idx % 5 == 4 { usize::MAX } else { idx % 4 };
                    store.fail_shard_replicas(shard, down);
                    reference.shards[shard].stats.down_replicas = down;
                }
                1 => {
                    store.restore_shard_replicas(shard);
                    reference.shards[shard].stats.down_replicas = 0;
                }
                _ => {
                    let kind = if action % 2 == 0 { StoreOpKind::Persist } else { StoreOpKind::Fetch };
                    let service = SimDuration::from_micros(250 * units);
                    let got = store.admit(InstanceId::from_index(idx), now, service, kind);
                    let want = reference.admit(idx, now, service, kind);
                    prop_assert_eq!(got, want, "step {} ({:?} on shard {})", step, kind, shard);
                }
            }
            prop_assert_eq!(store.shard_stats(shard), reference.shards[shard].stats, "step {}", step);
        }
        let stats: Vec<ShardStats> = reference.shards.iter().map(|s| s.stats).collect();
        prop_assert_eq!(store.all_shard_stats(), stats);
    }
}

// ---------------------------------------------------------------------
// Dense assignment oracle
// ---------------------------------------------------------------------

/// One `place(instance, slot)` call: sparse instance ids, a few VMs, and
/// slot indices in the first, second and last 64-slot occupancy words.
fn place_op() -> impl Strategy<Value = (usize, usize, u8)> {
    (0usize..24, 0usize..4, prop_oneof![0u8..4, 62u8..66, 252u8..255])
}

/// Replays `ops` on a dense [`Assignment`] and on a `HashMap` model,
/// checking each `place` return value. A placement onto a slot another
/// instance holds is skipped in both: `place` panics on it, which the
/// cluster crate's unit tests pin.
fn replay_places(ops: &[(usize, usize, u8)]) -> (Assignment, HashMap<InstanceId, SlotId>) {
    let mut dense = Assignment::new();
    let mut model = HashMap::new();
    for &(i, vm, slot) in ops {
        let (i, s) = (InstanceId::from_index(i), SlotId { vm: VmId::from_index(vm), slot });
        if model.iter().any(|(&j, &t)| j != i && t == s) {
            continue;
        }
        assert_eq!(dense.place(i, s), model.insert(i, s), "place({i}, {s}) return value");
    }
    (dense, model)
}

proptest! {
    /// The dense `Assignment` answers every query like a plain
    /// `HashMap<InstanceId, SlotId>` fed the same `place` history — fresh
    /// slots, re-places onto a new or the same slot, ids with gaps placed
    /// out of order — and compares equal exactly when the mappings are,
    /// whatever history built them.
    #[test]
    fn dense_assignment_matches_a_hash_map_model(
        first in proptest::collection::vec(place_op(), 0..64),
        second in proptest::collection::vec(place_op(), 0..64),
    ) {
        let (a, model_a) = replay_places(&first);
        let (b, model_b) = replay_places(&second);
        for (dense, model) in [(&a, &model_a), (&b, &model_b)] {
            prop_assert_eq!(dense.len(), model.len());
            prop_assert_eq!(dense.is_empty(), model.is_empty());
            for i in (0..80).map(InstanceId::from_index) {
                prop_assert_eq!(dense.slot_of(i), model.get(&i).copied());
                prop_assert_eq!(dense.vm_of(i), model.get(&i).map(|s| s.vm));
            }
            let mut pairs: Vec<(InstanceId, SlotId)> =
                model.iter().map(|(&i, &s)| (i, s)).collect();
            pairs.sort();
            prop_assert_eq!(dense.iter().collect::<Vec<_>>(), pairs);
            let vms: HashSet<VmId> = model.values().map(|s| s.vm).collect();
            prop_assert_eq!(dense.vms_used(), vms);
        }

        // Migration diffs, including on asymmetric instance sets: an
        // instance in only one assignment counts as moved.
        let keys: HashSet<InstanceId> = model_a.keys().chain(model_b.keys()).copied().collect();
        let mut moved: Vec<InstanceId> =
            keys.into_iter().filter(|i| model_a.get(i) != model_b.get(i)).collect();
        moved.sort();
        prop_assert_eq!(a.moved_instances(&b), moved.clone());
        prop_assert_eq!(b.moved_instances(&a), moved);
        prop_assert!(a.moved_instances(&a).is_empty());
        prop_assert_eq!(a == b, model_a == model_b);

        // The same mapping through other histories: placed directly in
        // reverse instance order; re-placed onto the slots it already
        // holds; and with every instance first parked on a
        // higher-numbered VM (and a wider slot index), whose left-over
        // occupancy storage must not make the mappings compare unequal.
        let mut pairs: Vec<(InstanceId, SlotId)> = model_a.iter().map(|(&i, &s)| (i, s)).collect();
        pairs.sort();
        let direct: Assignment = pairs.iter().rev().copied().collect();
        prop_assert!(direct == a);
        let mut again = a.clone();
        for &(i, s) in &pairs {
            prop_assert_eq!(again.place(i, s), Some(s));
        }
        prop_assert!(again == a);
        let mut detour = Assignment::new();
        for (k, &(i, _)) in pairs.iter().enumerate() {
            detour.place(i, SlotId { vm: VmId::from_index(100 + k), slot: 200 });
        }
        detour.extend(pairs.iter().copied());
        prop_assert!(detour == a);
        prop_assert_eq!(detour.vms_used(), a.vms_used());
    }
}

// ---------------------------------------------------------------------
// Scale-plan properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For any linear dataflow length, both Table 1 scenarios place every
    /// instance exactly once, migrate exactly the user instances, and
    /// conserve slot capacity.
    #[test]
    fn scale_plans_place_and_migrate_exactly_the_user_instances(
        n in 1usize..40,
        dir in prop_oneof![Just(ScaleDirection::In), Just(ScaleDirection::Out)],
    ) {
        let dag = library::linear_n(n);
        let instances = InstanceSet::plan(&dag);
        let plan = ScalePlan::paper_scenario(&dag, &instances, dir).expect("placeable");

        prop_assert_eq!(plan.initial().len(), instances.len());
        prop_assert_eq!(plan.target().len(), instances.len());
        prop_assert_eq!(plan.migrating().len(), instances.user_instance_count(&dag));

        // No two instances share a slot in either assignment.
        let slots_initial: std::collections::HashSet<_> =
            plan.initial().iter().map(|(_, s)| s).collect();
        prop_assert_eq!(slots_initial.len(), instances.len());
        let slots_target: std::collections::HashSet<_> =
            plan.target().iter().map(|(_, s)| s).collect();
        prop_assert_eq!(slots_target.len(), instances.len());

        // Table 1 arithmetic.
        let users = instances.user_instance_count(&dag);
        prop_assert_eq!(plan.initial_vm_count(), users.div_ceil(2));
        match dir {
            ScaleDirection::In => prop_assert_eq!(plan.target_vm_count(), users.div_ceil(4)),
            ScaleDirection::Out => prop_assert_eq!(plan.target_vm_count(), users),
        }
    }

    /// Rate propagation conserves flow on arbitrary layered dataflows:
    /// with 1:1 selectivity, the sink input rate equals the source rate
    /// times the number of source→sink paths.
    #[test]
    fn rate_propagation_counts_paths(widths in proptest::collection::vec(1usize..4, 1..4)) {
        let mut b = DataflowBuilder::new("layered");
        let src = b.add(TaskSpec::source("src", 8.0));
        let sink = b.add(TaskSpec::sink("sink"));
        let mut prev = vec![src];
        let mut paths = 1u64;
        for (l, &w) in widths.iter().enumerate() {
            let layer: Vec<TaskId> =
                (0..w).map(|i| b.add(TaskSpec::operator(format!("l{l}n{i}")))).collect();
            for &p in &prev {
                for &t in &layer {
                    b.edge(p, t);
                }
            }
            paths *= w as u64;
            prev = layer;
        }
        for &p in &prev {
            b.edge(p, sink);
        }
        let dag = b.finish().expect("layered dataflow is valid");
        let rates = RatePlan::for_dataflow(&dag);
        let expected = 8.0 * paths as f64;
        prop_assert!((rates.expected_sink_rate_hz(&dag) - expected).abs() < 1e-9);
    }
}

// ---------------------------------------------------------------------
// End-to-end conservation under random migration timing (CCR)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Whenever the migration is requested, CCR never loses or duplicates:
    /// sink arrivals equal emitted roots (linear chain ⇒ 1 arrival each)
    /// up to the in-flight tail.
    #[test]
    fn ccr_conserves_events_for_any_migration_time(
        request_secs in 30u64..120,
        seed in 0u64..1_000,
        n in 2usize..7,
    ) {
        let dag = library::linear_n(n);
        let outcome = MigrationController::new()
            .with_request_at(SimTime::from_secs(request_secs))
            .with_horizon(SimTime::from_secs(request_secs + 300))
            .with_seed(seed)
            .run(&dag, &Ccr::new(), ScaleDirection::In)
            .expect("scenario placeable");
        prop_assert!(outcome.completed, "migration completes");
        prop_assert_eq!(outcome.stats.events_dropped, 0);
        prop_assert_eq!(outcome.stats.replayed_roots, 0);
        let emitted = outcome.stats.source_emissions;
        let arrived = outcome.stats.sink_arrivals;
        prop_assert!(
            emitted - arrived <= (n as u64 + 4),
            "all but the in-flight tail arrive: emitted {} vs arrived {}",
            emitted,
            arrived
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random layered dataflows also migrate loss-free under CCR — the
    /// protocol does not depend on the paper's five shapes.
    #[test]
    fn ccr_is_loss_free_on_random_dataflows(
        seed in 0u64..500,
        layers in 1usize..5,
        width in 1usize..4,
    ) {
        let dag = library::random_layered(seed, layers, width);
        let outcome = MigrationController::new()
            .with_request_at(SimTime::from_secs(45))
            .with_horizon(SimTime::from_secs(300))
            .with_seed(seed ^ 0xABCD)
            .run(&dag, &Ccr::new(), ScaleDirection::Out)
            .expect("random scenario placeable");
        prop_assert!(outcome.completed, "{} migration completes", dag.name());
        prop_assert_eq!(outcome.stats.events_dropped, 0);
        prop_assert_eq!(outcome.stats.replayed_roots, 0);
        // Everything captured is resumed.
        prop_assert_eq!(outcome.stats.pending_replayed, outcome.stats.events_captured as u64);
    }
}

// ---------------------------------------------------------------------
// Metrics properties
// ---------------------------------------------------------------------

proptest! {
    /// Summary statistics stay within the sample bounds.
    #[test]
    fn summary_mean_within_min_max(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let s: Summary = xs.iter().copied().collect();
        let min = s.min().expect("non-empty");
        let max = s.max().expect("non-empty");
        prop_assert!(min <= max);
        prop_assert!(s.mean() >= min - 1e-9 && s.mean() <= max + 1e-9);
        prop_assert_eq!(s.count(), xs.len() as u64);
    }

    /// Rate timelines conserve event counts: bucket sums equal the number
    /// of emissions/arrivals recorded.
    #[test]
    fn rate_timeline_conserves_counts(
        times in proptest::collection::vec(0u64..600_000, 0..300),
    ) {
        let mut sorted = times.clone();
        sorted.sort_unstable();
        let mut log = TraceLog::new();
        for (i, &ms) in sorted.iter().enumerate() {
            log.record(TraceEvent::SourceEmit {
                root: RootId(i as u64 + 1),
                at: SimTime::from_millis(ms),
                replay: false,
            });
        }
        let tl = RateTimeline::from_trace(&log, SimDuration::from_secs(10));
        let total: f64 = (0..tl.len()).map(|i| tl.input_rate_hz(i) * 10.0).sum();
        prop_assert!((total - sorted.len() as f64).abs() < 1e-6);
    }
}

// ---------------------------------------------------------------------
// One-pass metrics against the multi-pass oracle
// ---------------------------------------------------------------------

/// The phases in the bit order of `random_trace`'s `dropped_starts`.
const PHASES: [MigrationPhase; 6] = [
    MigrationPhase::Pause,
    MigrationPhase::Drain,
    MigrationPhase::Commit,
    MigrationPhase::Rebalance,
    MigrationPhase::Restore,
    MigrationPhase::Resume,
];

fn phase_slot(phase: MigrationPhase) -> usize {
    PHASES.iter().position(|&p| p == phase).expect("every phase has a slot")
}

/// A trace event of `kind` (`0..34`) at `at`, with `a` (`0..8`) and `b` as
/// its parameters. Sink arrivals, emissions and phase marks weigh most,
/// and a third of the phase marks are Rebalance's, so the restore and
/// catchup baselines come up in most traces; three shards make repeated
/// and unclosed outages common.
fn random_trace_event(kind: u8, at: SimTime, a: u8, b: u64) -> TraceEvent {
    let (root, instance) = (RootId(b), InstanceId::from_index(usize::from(a)));
    let (shard, control) = (usize::from(a % 3), ControlKind::ALL[usize::from(a % 4)]);
    let phase = PHASES.get(usize::from(a)).copied().unwrap_or(MigrationPhase::Rebalance);
    match kind {
        0..=5 => TraceEvent::SinkArrival {
            root,
            at,
            generated_at: at - SimDuration::from_millis(b),
            old: a & 1 == 1,
            replayed: a & 2 == 2,
        },
        6..=8 => TraceEvent::SourceEmit { root, at, replay: a & 1 == 1 },
        9..=11 => TraceEvent::PhaseStarted { phase, at },
        12..=15 => TraceEvent::PhaseEnded { phase, at },
        16 => TraceEvent::MigrationRequested { at },
        17 => TraceEvent::MigrationCompleted { at },
        18 => TraceEvent::RootFailed { root, at },
        19 => TraceEvent::RootAcked { root, at },
        20 => TraceEvent::EventDropped { root, at },
        21 => TraceEvent::ControlWave { kind: control, wave: u32::from(a), at },
        22 => TraceEvent::ControlAcked { kind: control, instance, at },
        23 => TraceEvent::InstanceKilled { instance, at },
        24 => TraceEvent::WorkerReady { instance, at },
        25 => TraceEvent::InstanceRestored { instance, at, pending_replayed: b as u32 },
        26 => TraceEvent::StoreQueueWait {
            instance,
            shard,
            wait: SimDuration::from_micros(250 * b),
            at,
        },
        27 | 28 => TraceEvent::ShardDown { shard, down_replicas: 1 + u32::from(a % 3), at },
        29 => TraceEvent::ShardUp { shard, at },
        30 => TraceEvent::QuorumPersist {
            instance,
            shard,
            replicas: 3,
            quorum: 2,
            degraded: b & 1 == 1,
            at,
        },
        31 => TraceEvent::StoreOpFailed { instance, shard, at },
        32 => TraceEvent::RangePersist {
            instance,
            ranges: u32::from(a),
            moved_bytes: b,
            resident_bytes: b / 2,
            at,
        },
        _ => TraceEvent::RangeRestore { instance, ranges: u32::from(a), moved_bytes: b, at },
    }
}

/// A time-ordered `Full` trace of `(kind, gap, a, b)` steps; half the
/// gaps are zero, so instants repeat. A non-zero `quiet` appends one source
/// emission that long after the last step, so the timeline runs past the
/// last arrival. The starts of each phase whose bit is set in
/// `dropped_starts` are left out, and so are those of a phase whose every
/// end precedes its first start: such a span would run backwards, and no
/// engine records one.
fn random_trace(steps: &[(u8, u64, u8, u64)], quiet: SimDuration, dropped_starts: u8) -> TraceLog {
    let mut at = SimTime::ZERO;
    let mut events: Vec<TraceEvent> = steps
        .iter()
        .map(|&(kind, gap, a, b)| {
            at += SimDuration::from_millis(250 * gap.saturating_sub(3));
            random_trace_event(kind, at, a, b)
        })
        .filter(|e| {
            !matches!(*e, TraceEvent::PhaseStarted { phase, .. }
                if dropped_starts >> phase_slot(phase) & 1 == 1)
        })
        .collect();
    let (mut first_start, mut last_end) = ([None; 6], [None; 6]);
    for e in &events {
        match *e {
            TraceEvent::PhaseStarted { phase, at } => {
                first_start[phase_slot(phase)].get_or_insert(at);
            }
            TraceEvent::PhaseEnded { phase, at } => last_end[phase_slot(phase)] = Some(at),
            _ => {}
        }
    }
    events.retain(|e| match *e {
        TraceEvent::PhaseStarted { phase, .. } => {
            let slot = phase_slot(phase);
            !matches!((first_start[slot], last_end[slot]), (Some(s), Some(e)) if e < s)
        }
        _ => true,
    });
    if !quiet.is_zero() {
        events.push(TraceEvent::SourceEmit { root: RootId(0), at: at + quiet, replay: false });
    }
    let mut log = TraceLog::with_level(TraceLevel::Full);
    log.extend(events);
    log
}

proptest! {
    /// `MigrationMetrics::from_trace`, one fold over the trace, equals the
    /// multi-pass oracle field for field on random time-ordered traces
    /// that draw every event kind at repeating instants, in 1-3 s buckets
    /// and at expected rates that include 0. The traces reach each rule
    /// the fold has to keep: an arrival at the last Rebalance end's
    /// instant counts toward restore even when recorded before it; a
    /// Rebalance end without any start falls back to the request; spans
    /// run from the first start to the last end; only the first request
    /// counts, and none yields the default; a repeated `ShardDown` keeps
    /// its first instant and an unclosed outage runs to the last event;
    /// and the stabilization timeline runs to the later of the last
    /// emission and the last arrival.
    #[test]
    fn metrics_fold_matches_the_multi_pass_oracle(
        // (bucket seconds, expected-rate pick, window seconds, dropped starts)
        shape in (1u64..4, 0usize..4, 1u64..9, 0u8..64),
        // (event kind, gap in 250 ms units, parameter a, parameter b)
        steps in proptest::collection::vec((0u8..34, 0u64..8, 0u8..8, 0u64..64), 0..160),
        quiet_secs in 0u64..8,
    ) {
        let (bucket_secs, rate, window_secs, dropped_starts) = shape;
        let log = random_trace(&steps, SimDuration::from_secs(quiet_secs), dropped_starts);
        let criteria = StabilityCriteria {
            expected_rate_hz: [0.0, 0.5, 1.0, 2.0][rate],
            tolerance: 0.2,
            window: SimDuration::from_secs(window_secs),
        };
        let bucket = SimDuration::from_secs(bucket_secs);
        prop_assert_eq!(
            MigrationMetrics::from_trace(&log, &criteria, bucket),
            metrics_oracle::metrics(&log, &criteria, bucket),
            "trace: {:?}",
            log
        );
    }

    /// The Metrics trace level keeps every metric: on the same random
    /// traces, the events of a `Full` trace that a Metrics-level log keeps
    /// give the same `MigrationMetrics` and the same throughput and
    /// latency timelines as the whole trace. The traces draw the ten kinds
    /// the Metrics level leaves out at every position and leave outages
    /// unclosed, and each ends on a left-out `WorkerReady`, mostly after
    /// its last kept event: an open outage must still run to that last
    /// recorded instant.
    #[test]
    fn metrics_level_keeps_every_metric(
        // (bucket seconds, expected-rate pick, window seconds, dropped starts)
        shape in (1u64..4, 0usize..4, 1u64..9, 0u8..64),
        // (event kind, gap in 250 ms units, parameter a, parameter b)
        steps in proptest::collection::vec((0u8..34, 0u64..8, 0u8..8, 0u64..64), 0..160),
        tail_secs in 0u64..8,
    ) {
        let (bucket_secs, rate, window_secs, dropped_starts) = shape;
        let mut full = random_trace(&steps, SimDuration::ZERO, dropped_starts);
        let end = full.last_at() + SimDuration::from_secs(tail_secs);
        full.record(TraceEvent::WorkerReady { instance: InstanceId::from_index(0), at: end });
        let mut lean = TraceLog::new();
        lean.extend(full.iter().copied());
        let criteria = StabilityCriteria {
            expected_rate_hz: [0.0, 0.5, 1.0, 2.0][rate],
            tolerance: 0.2,
            window: SimDuration::from_secs(window_secs),
        };
        let bucket = SimDuration::from_secs(bucket_secs);
        prop_assert_eq!(
            MigrationMetrics::from_trace(&lean, &criteria, bucket),
            MigrationMetrics::from_trace(&full, &criteria, bucket),
            "trace: {:?}",
            full
        );
        prop_assert_eq!(
            RateTimeline::from_trace(&lean, bucket),
            RateTimeline::from_trace(&full, bucket)
        );
        prop_assert_eq!(
            LatencyTimeline::from_trace(&lean, bucket),
            LatencyTimeline::from_trace(&full, bucket)
        );
    }
}

// ---------------------------------------------------------------------
// Flat dispatch-table equivalence (EdgeTable / KeyPartitioner)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The flat tables the engine's dispatch paths index into —
    /// [`EdgeTable`] for per-(task, edge) target arrays and
    /// [`KeyPartitioner`] for key→partition mapping — agree with the
    /// dynamic `downstream`/`of_task`/`spec().partition_of` lookup chains
    /// they replaced, over random layered DAGs with randomly keyed
    /// operators (unkeyed, uniform, and Zipf-weighted key spaces of up to
    /// 64 partitions at exponents 0–3).
    #[test]
    fn flat_tables_agree_with_dynamic_lookups_on_random_dags(
        widths in proptest::collection::vec(1usize..4, 1..4),
        keys in proptest::collection::vec((1u32..65, 0u32..3, 0u32..4), 12..13),
        hashes in proptest::collection::vec(0u64..u64::MAX, 8..33),
    ) {
        use flowmig::topology::{EdgeTable, KeyPartitioner};
        let mut b = DataflowBuilder::new("random-keyed");
        let src = b.add(TaskSpec::source("src", 8.0));
        let sink = b.add(TaskSpec::sink("sink"));
        let mut prev = vec![src];
        let mut k = 0usize;
        for (l, &w) in widths.iter().enumerate() {
            let layer: Vec<TaskId> = (0..w)
                .map(|i| {
                    let (parts, style, exponent) = keys[k % keys.len()];
                    k += 1;
                    let spec = TaskSpec::operator(format!("l{l}n{i}"));
                    b.add(match style {
                        0 => spec.with_key_partitions(parts),
                        1 => spec.with_zipf_keys(parts, exponent),
                        _ => spec, // unkeyed
                    })
                })
                .collect();
            for &p in &prev {
                for &t in &layer {
                    b.edge(p, t);
                }
            }
            prev = layer;
        }
        for &p in &prev {
            b.edge(p, sink);
        }
        let dag = b.finish().expect("random keyed dataflow is valid");
        let instances = InstanceSet::plan(&dag);

        let table = EdgeTable::build(&dag, &instances);
        for task in dag.task_ids() {
            let downstream = dag.downstream(task);
            prop_assert_eq!(table.out_degree(task), downstream.len());
            for (e, &dtask) in downstream.iter().enumerate() {
                let et = table.edge(task, e);
                prop_assert_eq!(et.dtask, dtask);
                prop_assert_eq!(et.keyed, dag.spec(dtask).is_keyed());
                let expect: Vec<u32> =
                    instances.of_task(dtask).iter().map(|i| i.index() as u32).collect();
                prop_assert_eq!(&et.targets, &expect, "targets of {task:?} edge {}", e);
            }
            // The precomputed threshold table must be bitwise-identical to
            // the dynamic cumulative-weight walk for any hash.
            let spec = dag.spec(task);
            if spec.is_keyed() {
                let p = KeyPartitioner::of(spec);
                for &h in &hashes {
                    prop_assert_eq!(
                        p.partition_of(h), spec.partition_of(h),
                        "hash {:#x} on {}", h, spec.name()
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Event-queue backend equivalence
// ---------------------------------------------------------------------

proptest! {
    /// The heap and calendar future-event-list backends pop byte-identical
    /// sequences for any interleaving of schedules (near-term and
    /// far-future, exercising the overflow tier and window rotation),
    /// single pops, peeks, and budget-capped batch drains
    /// (`pop_due_capped_into`). This is the semantics guarantee that makes
    /// `QueueBackend` a pure performance knob.
    #[test]
    fn queue_backends_pop_byte_identically(
        ops in proptest::collection::vec((0u8..6, 0u64..4_000_000_000), 1..250),
    ) {
        use flowmig::sim::EventQueue;
        let mut heap = EventQueue::with_backend(QueueBackend::Heap);
        let mut cal = EventQueue::with_backend(QueueBackend::Calendar);
        let mut tag = 0u64;
        for (step, &(kind, raw)) in ops.iter().enumerate() {
            match kind {
                // Schedule: biased near-term, sometimes hours out — far
                // enough to guarantee overflow-tier traffic and rebases.
                0..=2 => {
                    let micros = match raw % 5 {
                        0 => raw % 4_000_000_000,   // up to ~67 min: overflow
                        1 => raw % 30_000_000,      // up to 30 s
                        _ => raw % 600_000,         // near-term: ring
                    };
                    let due = SimTime::from_micros(micros);
                    heap.schedule(due, tag);
                    cal.schedule(due, tag);
                    tag += 1;
                }
                3 => {
                    prop_assert_eq!(heap.pop(), cal.pop(), "pop diverged at step {}", step);
                }
                4 => {
                    prop_assert_eq!(
                        heap.peek_time(), cal.peek_time(),
                        "peek diverged at step {}", step
                    );
                }
                _ => {
                    let cap = (raw % 9) as usize;
                    let horizon = SimTime::from_micros(raw % 2_000_000_000);
                    let a = heap.pop_due_capped(horizon, cap);
                    let b = cal.pop_due_capped(horizon, cap);
                    prop_assert_eq!(a, b, "capped drain diverged at step {}", step);
                }
            }
            prop_assert_eq!(heap.len(), cal.len());
        }
        // Full drain must agree to the last event.
        loop {
            let a = heap.pop();
            let b = cal.pop();
            prop_assert_eq!(&a, &b, "final drain diverged");
            if a.is_none() {
                break;
            }
        }
        prop_assert_eq!(heap.scheduled_total(), cal.scheduled_total());
    }
}

// ---------------------------------------------------------------------
// Dispatch-loop reference oracle
// ---------------------------------------------------------------------

/// How a [`Fanout`] handler schedules its follow-ups.
#[derive(Clone, Copy)]
enum Emit {
    NowEvent,
    AfterZero,
    AtNow,
    BatchZero,
    After(SimDuration),
    BatchAfter(SimDuration),
    /// One `after` call per follow-up, back to back, with one delay: the
    /// shape of a wave whose every participant schedules the same
    /// follow-up, which the heap backend keeps as one run.
    AfterEach(SimDuration),
}

/// A model whose follow-ups depend only on the dispatched id and on how
/// many follow-ups it may still spawn, so two loops that dispatch in the
/// same order log the same sequence and schedule the same events.
struct Fanout {
    plan: Vec<(u8, u64)>,
    spawn_left: u64,
    next_id: u64,
    seen: Vec<(SimTime, u64)>,
}

impl Fanout {
    fn new(plan: &[(u8, u64)]) -> Self {
        Fanout { plan: plan.to_vec(), spawn_left: 600, next_id: 1_000, seen: Vec::new() }
    }

    /// Logs the dispatch of `id` at `now` and returns its follow-ups.
    fn react(&mut self, now: SimTime, id: u64) -> Vec<(Emit, Vec<u64>)> {
        self.seen.push((now, id));
        let mut out = Vec::new();
        for pick in [id, id / 3 + 7] {
            let (kind, raw) = self.plan[(pick % self.plan.len() as u64) as usize];
            let near = SimDuration::from_micros(1 + raw % 2_000);
            let emit = match kind {
                0 => continue,
                1 => Emit::NowEvent,
                2 => Emit::AfterZero,
                3 => Emit::AtNow,
                4 => Emit::BatchZero,
                5 => Emit::After(near),
                // Beyond the calendar's lookahead window: overflow traffic.
                6 => Emit::After(SimDuration::from_micros(1 + raw % 3_000_000)),
                7 => Emit::BatchAfter(near),
                _ => Emit::AfterEach(near),
            };
            // Fans of up to 64 form runs long enough for random budgets to
            // cut them mid-way.
            let fan = match emit {
                Emit::BatchZero => 1 + raw % 4,
                Emit::BatchAfter(_) | Emit::AfterEach(_) => 1 + raw % 64,
                _ => 1,
            };
            let n = fan.min(self.spawn_left);
            if n == 0 {
                break;
            }
            self.spawn_left -= n;
            let ids = (0..n).map(|_| {
                self.next_id += 1;
                self.next_id
            });
            out.push((emit, ids.collect()));
        }
        out
    }
}

impl Process<u64> for Fanout {
    fn handle(&mut self, id: u64, sched: &mut Scheduler<'_, u64>) {
        let now = sched.now();
        for (emit, ids) in self.react(now, id) {
            match emit {
                Emit::NowEvent => sched.now_event(ids[0]),
                Emit::AfterZero => sched.after(SimDuration::ZERO, ids[0]),
                Emit::AtNow => sched.at(now, ids[0]),
                Emit::BatchZero => sched.after_batch(SimDuration::ZERO, ids),
                Emit::After(delay) => sched.after(delay, ids[0]),
                Emit::BatchAfter(delay) => sched.after_batch(delay, ids),
                Emit::AfterEach(delay) => {
                    for id in ids {
                        sched.after(delay, id);
                    }
                }
            }
        }
    }
}

/// The reference dispatch loop: pops the single earliest `(due, seq)`
/// entry, dispatches it and repeats — no batching and no same-instant
/// lane — over an ordered map rather than the crate's event queue.
#[derive(Default)]
struct ReferenceLoop {
    pending: std::collections::BTreeMap<(SimTime, u64), u64>,
    next_seq: u64,
    now: SimTime,
    processed: u64,
    peak: usize,
    clamped: u64,
    /// Entries of the simulator's current batch not yet dispatched. The
    /// simulator takes a whole batch — everything due at the instant, or
    /// everything the previous batch scheduled at it — out of the pending
    /// set before dispatching any of it, so these do not count toward the
    /// pending high-water mark.
    in_hand: usize,
}

impl ReferenceLoop {
    fn insert(&mut self, due: SimTime, id: u64) {
        self.pending.insert((due, self.next_seq), id);
        self.next_seq += 1;
        self.peak = self.peak.max(self.pending.len() - self.in_hand);
    }

    /// `Simulation::schedule`: a past instant is clamped to `now`.
    fn schedule(&mut self, at: SimTime, id: u64) {
        self.clamped += u64::from(at < self.now);
        self.insert(at.max(self.now), id);
    }

    fn run_until(&mut self, model: &mut Fanout, horizon: SimTime, budget: u64) -> RunOutcome {
        let mut spent = 0;
        loop {
            let Some(&(t, _)) = self.pending.keys().next() else {
                return RunOutcome::Quiescent;
            };
            if t > horizon {
                self.now = self.now.max(horizon);
                return RunOutcome::HorizonReached;
            }
            if spent >= budget {
                return RunOutcome::BudgetExhausted;
            }
            if self.in_hand == 0 {
                let due = self.pending.range(..=(t, u64::MAX)).count() as u64;
                self.in_hand = due.min(budget - spent) as usize;
            }
            let ((t, _), id) = self.pending.pop_first().expect("peeked entry present");
            self.in_hand -= 1;
            self.now = t;
            for (emit, ids) in model.react(t, id) {
                let due = match emit {
                    Emit::After(delay) | Emit::BatchAfter(delay) | Emit::AfterEach(delay) => {
                        t + delay
                    }
                    _ => t,
                };
                for id in ids {
                    self.insert(due, id);
                }
            }
            self.processed += 1;
            spent += 1;
        }
    }
}

/// What one `run_until` call leaves observable: outcome, clock,
/// processed, pending, pending high-water mark and clamped schedules.
type Observed = (RunOutcome, SimTime, u64, usize, usize, u64);

proptest! {
    /// The single-threaded loop — batched dispatch plus the same-instant
    /// lane — dispatches exactly what a one-at-a-time reference loop
    /// dispatches, in the same order, and reports the same counters, for
    /// models mixing every way to schedule at the current instant with
    /// positive delays, including same-delay fans of up to 64 events made
    /// by one `after_batch` or by back-to-back `after` calls (which the heap
    /// backend keeps as runs). Runs are split over several `run_until`
    /// calls with random budgets (often cutting an instant, its lane, or a
    /// run short) and horizons, with external schedules — some behind the
    /// clock — between them, on both queue backends.
    #[test]
    fn single_thread_loop_matches_one_at_a_time_reference(
        plan in proptest::collection::vec((0u8..9, 0u64..4_000_000), 1..16),
        starts in proptest::collection::vec(0u64..3_000, 1..6),
        segments in proptest::collection::vec((0u64..48, 0u64..5_000, 0u8..3, 0u64..4_000), 1..10),
    ) {
        // The segment list, then a final uncapped drain.
        let calls: Vec<(u64, u64, u8, u64)> =
            segments.iter().copied().chain([(u64::MAX, u64::MAX, 0, 0)]).collect();
        let at = |now: SimTime, kind: u8, offset: u64| match kind {
            1 => Some(SimTime::from_micros(now.as_micros().saturating_sub(offset))),
            2 => Some(now + SimDuration::from_micros(offset)),
            _ => None,
        };
        let horizon = |now: SimTime, step: u64| match step {
            u64::MAX => SimTime::MAX,
            step => now + SimDuration::from_micros(step),
        };

        let mut reference = ReferenceLoop::default();
        let mut reference_model = Fanout::new(&plan);
        for (id, &t) in starts.iter().enumerate() {
            reference.schedule(SimTime::from_micros(t), id as u64);
        }
        let mut expected: Vec<Observed> = Vec::new();
        for (call, &(budget, step, kind, offset)) in calls.iter().enumerate() {
            if let Some(t) = at(reference.now, kind, offset) {
                reference.schedule(t, 100 + call as u64);
            }
            let outcome =
                reference.run_until(&mut reference_model, horizon(reference.now, step), budget);
            expected.push((
                outcome,
                reference.now,
                reference.processed,
                reference.pending.len(),
                reference.peak,
                reference.clamped,
            ));
        }
        prop_assert_eq!(expected.last().map(|o| o.0), Some(RunOutcome::Quiescent));

        for backend in [QueueBackend::Heap, QueueBackend::Calendar] {
            let mut sim = Simulation::with_backend(backend);
            let mut model = Fanout::new(&plan);
            for (id, &t) in starts.iter().enumerate() {
                sim.schedule(SimTime::from_micros(t), id as u64);
            }
            for (call, (&(budget, step, kind, offset), want)) in
                calls.iter().zip(&expected).enumerate()
            {
                if let Some(t) = at(sim.now(), kind, offset) {
                    sim.schedule(t, 100 + call as u64);
                }
                sim.set_budget(budget);
                let outcome = sim.run_until(&mut model, horizon(sim.now(), step));
                let got: Observed = (
                    outcome,
                    sim.now(),
                    sim.processed(),
                    sim.pending(),
                    sim.queue_peak_pending(),
                    sim.clamped_past_schedules(),
                );
                prop_assert_eq!(&got, want, "call {} diverged on {:?}", call, backend);
            }
            prop_assert_eq!(
                &model.seen, &reference_model.seen,
                "dispatch sequence diverged on {:?}", backend
            );
        }
    }
}
