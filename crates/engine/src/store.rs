//! The checkpoint state store (the paper's Redis v3.2.8).
//!
//! A checkpoint is a set of [`StateBlob`]s, each addressed by an
//! `(instance, key range)` pair. A whole-instance checkpoint is the single
//! range [`KeyRange::whole`] over the task's key space at COMMIT (an
//! unkeyed task has one partition), and the engine restores it from that
//! range even if a staged logic update has re-keyed the task since; a
//! key-range migration persists one blob per hot range it moves. Both live
//! in one per-instance slot, so one persist path and one restore path
//! serve every wave scope.
//!
//! [`ShardedStateStore`] partitions the blobs over shards by instance
//! index, each shard with its own counters, and owns its service model: the
//! [`StoreServiceModel`] and [`StoreReplication`] are fixed at construction
//! and every operation is priced by [`ShardedStateStore::admit`] —
//! zero-queueing or a FIFO queue per shard replica, with quorum persists
//! over replicas that can be failed mid-run. FIFO busy horizons are **not** reset when a migration wave
//! aborts: the store already accepted that work, so a post-rollback retry
//! pays for it, exactly as a real store keeps serving requests whose
//! clients died (pinned by `aborted_wave_work_still_occupies_fifo_horizons`).
//!
//! No operation's cost grows with the wave around it: a shard finds an
//! instance's blobs by indexing a `Vec` of per-instance slots (no key is
//! hashed), keeps its in-flight completions in a min-heap so an admission
//! pops only what finished since the last one, and prices the serving
//! replicas in a buffer the store reuses. A 10,000-instance COMMIT wave on
//! 32 shards therefore costs each admission `O(log 313)`, not a rescan of
//! its shard's 313-deep window.

use crate::config::{StoreReplication, StoreServiceModel};
use crate::event::DataEvent;
use flowmig_sim::{SimDuration, SimTime};
use flowmig_topology::{InstanceId, KeyRange};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A checkpointed snapshot of one key range of a task instance; a
/// whole-instance checkpoint covers [`KeyRange::whole`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StateBlob {
    /// The user state: for the paper's dummy tasks, a running count of
    /// processed events (enough to verify state continuity end to end).
    pub processed: u64,
    /// Captured in-flight events (CCR only; empty for DCR/DSM).
    pub pending: Vec<DataEvent>,
    /// Per-key-partition processed counters, in partition order for the
    /// partitions this blob covers. Empty for unkeyed tasks, whose byte
    /// size is unchanged from the pre-keyed format.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub key_counts: Vec<u64>,
}

impl StateBlob {
    /// A snapshot with no pending events.
    pub fn of_count(processed: u64) -> Self {
        StateBlob { processed, pending: Vec::new(), key_counts: Vec::new() }
    }

    /// Number of captured pending events (drives persist/fetch latency).
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Serialized size estimate in bytes: the user-state counter, one
    /// counter per covered key partition, plus the captured pending events
    /// (what a Redis `SET` of this blob would carry).
    pub fn byte_size(&self) -> u64 {
        let counter = std::mem::size_of::<u64>() as u64;
        let event = std::mem::size_of::<DataEvent>() as u64;
        counter + counter * self.key_counts.len() as u64 + event * self.pending.len() as u64
    }
}

/// One instance's committed blobs: the first range it persisted inline (a
/// whole-instance checkpoint is the only blob most instances ever have),
/// any further key ranges beside it.
#[derive(Debug, Clone, Default)]
struct BlobSlot {
    first: Option<(KeyRange, StateBlob)>,
    more: Vec<(KeyRange, StateBlob)>,
}

impl BlobSlot {
    fn get(&self, range: KeyRange) -> Option<&StateBlob> {
        self.first.iter().chain(&self.more).find(|(r, _)| *r == range).map(|(_, blob)| blob)
    }

    fn get_mut(&mut self, range: KeyRange) -> Option<&mut StateBlob> {
        self.first.iter_mut().chain(&mut self.more).find(|(r, _)| *r == range).map(|(_, blob)| blob)
    }

    /// Stores (overwrites) the blob of `range`; returns whether the range
    /// is new to this instance.
    fn put(&mut self, range: KeyRange, blob: StateBlob) -> bool {
        if let Some(stored) = self.get_mut(range) {
            *stored = blob;
            return false;
        }
        match self.first {
            None => self.first = Some((range, blob)),
            Some(_) => self.more.push((range, blob)),
        }
        true
    }
}

/// One shard of the checkpoint store: the blob slots of its instances with
/// its own operation and traffic counters, plus the replicated
/// service-queue state.
#[derive(Debug, Clone, Default)]
struct StoreShard {
    /// Committed blobs by instance: instance `i` owns slot `i / shards`.
    slots: Vec<BlobSlot>,
    /// Blobs committed on this shard, one per `(instance, range)`.
    blobs: usize,
    puts: u64,
    gets: u64,
    misses: u64,
    bytes_written: u64,
    bytes_read: u64,
    /// Per-replica FIFO busy horizons (FIFO queue model); index 0 is the
    /// primary. Lazily grown to the replica count on first admission.
    /// Horizons deliberately survive aborted migrations (see the module
    /// docs).
    replica_busy: Vec<SimTime>,
    /// Replicas currently failed on this shard (replicas `0..down` are
    /// down, the fastest first — a degraded quorum pays the lag ladder).
    down_replicas: usize,
    /// Completion instants of operations still in flight at the last
    /// admission, earliest on top — the observed concurrency window (pure
    /// accounting; the timing authority is `replica_busy`).
    in_flight: BinaryHeap<Reverse<SimTime>>,
    /// Deepest observed in-flight window, including the op being admitted.
    max_queue_depth: usize,
    /// Operations that had to wait behind a busy shard.
    queued_ops: u64,
    /// Total time operations spent waiting in this shard's queue.
    queued_wait: SimDuration,
    /// Operations rejected because too few replicas were up.
    failed_ops: u64,
    /// Persists priced as a quorum over a replicated shard.
    quorum_persists: u64,
    /// Quorum persists served while at least one replica was down.
    degraded_persists: u64,
}

/// Per-shard counter snapshot (see [`ShardedStateStore::shard_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Persist operations served by this shard.
    pub puts: u64,
    /// Fetch operations served by this shard (hits *and* misses: a GET of
    /// an absent key is still a round-trip the shard serves).
    pub gets: u64,
    /// Fetch operations that found no blob. Misses are *not* excluded from
    /// `gets` (the operation happened) but read zero bytes — so
    /// `bytes_read` reflects hits only.
    pub misses: u64,
    /// Bytes written by persists to this shard.
    pub bytes_written: u64,
    /// Bytes read by fetches from this shard (misses read nothing).
    pub bytes_read: u64,
    /// Blobs currently committed on this shard.
    pub blobs: usize,
    /// Deepest concurrent in-flight operation window observed at an
    /// admission (including the admitted op). Recorded under *both*
    /// service models — under zero-queueing it measures how much
    /// concurrency the flat pricing silently absorbed.
    pub max_queue_depth: usize,
    /// Operations that waited behind a busy shard (FIFO model only;
    /// always 0 under zero-queueing).
    pub queued_ops: u64,
    /// Total time operations spent waiting in this shard's FIFO queue
    /// before their service time started (0 under zero-queueing).
    pub queued_wait: SimDuration,
    /// Operations rejected because too few replicas were up (a persist
    /// below its write quorum, or a fetch with every replica down).
    pub failed_ops: u64,
    /// Persists priced as a quorum over a replicated shard (0 for the
    /// default unreplicated store).
    pub quorum_persists: u64,
    /// Quorum persists that completed while at least one replica of this
    /// shard was down — the degraded-but-alive mode.
    pub degraded_persists: u64,
    /// Replicas of this shard currently failed.
    pub down_replicas: usize,
}

/// What a store admission is for — quorum and failure semantics differ:
/// a persist needs `write_quorum` live replicas, a fetch needs one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreOpKind {
    /// A checkpoint persist (quorum write over the shard's replicas).
    Persist,
    /// A state fetch (served by the fastest live replica).
    Fetch,
}

/// Result of admitting one operation through [`ShardedStateStore::admit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitOutcome {
    /// The operation was accepted and completes `delay` after admission.
    Served {
        /// Total delay until the operation completes (wait + service).
        delay: SimDuration,
        /// The queueing/degradation component of `delay`: how much longer
        /// the operation took than the deciding replica's idle service
        /// time (0 under zero-queueing).
        wait: SimDuration,
        /// Whether the operation was served while at least one replica of
        /// the shard was down (quorum still satisfied).
        degraded: bool,
    },
    /// Too few replicas were up: a persist below its write quorum, or a
    /// fetch against a fully-down shard. The caller sees the operation
    /// stall (no completion is ever scheduled).
    Failed,
}

impl AdmitOutcome {
    /// Total delay of a served operation; `None` if it failed.
    pub fn delay(self) -> Option<SimDuration> {
        match self {
            AdmitOutcome::Served { delay, .. } => Some(delay),
            AdmitOutcome::Failed => None,
        }
    }
}

/// A key-value checkpoint store partitioned over `N` shards by instance
/// index, with one service model and one replication scheme fixed at
/// construction.
///
/// Blobs are addressed by `(instance, key range)`. Instance `i` lives on
/// shard `i % N` in slot `i / N` of that shard's dense slot `Vec`, which
/// holds its first blob inline and any further key ranges beside it, so a
/// persist or fetch indexes rather than hashes. Every shard keeps its own
/// put/get/byte counters and blob count so a checkpoint COMMIT wave's load
/// can be priced shard by shard.
///
/// # Examples
///
/// ```
/// use flowmig_engine::{ShardedStateStore, StateBlob};
/// use flowmig_topology::{InstanceId, KeyRange};
///
/// let mut store = ShardedStateStore::with_shards(4);
/// let whole = KeyRange::whole(1); // an unkeyed instance's whole state
/// for i in 0..8 {
///     store.put(InstanceId::from_index(i), whole, StateBlob::of_count(i as u64));
/// }
/// assert_eq!(store.len(), 8);
/// assert_eq!(store.puts(), 8);
/// // Instance index modulo shard count picks the shard:
/// assert_eq!(store.shard_of(InstanceId::from_index(6)), 2);
/// assert_eq!(store.shard_stats(2).puts, 2); // instances 2 and 6
/// ```
#[derive(Debug, Clone)]
pub struct ShardedStateStore {
    shards: Vec<StoreShard>,
    service: StoreServiceModel,
    replication: StoreReplication,
    /// Latest admission instant (debug-build misuse guard: admissions
    /// must arrive in time order or the queue accounting silently skews).
    last_admitted_at: SimTime,
    /// `(completion, replica)` of each replica serving the admission being
    /// priced; kept between calls so admitting allocates nothing.
    completions: Vec<(SimTime, usize)>,
}

impl Default for ShardedStateStore {
    fn default() -> Self {
        Self::with_shards(Self::DEFAULT_SHARDS)
    }
}

impl ShardedStateStore {
    /// Default shard count: enough parallelism headroom for the paper's
    /// 21-instance deployments without fragmenting small stores.
    pub const DEFAULT_SHARDS: usize = 8;

    /// Creates an empty store with [`Self::DEFAULT_SHARDS`] unreplicated,
    /// zero-queueing shards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty store with `shards` unreplicated, zero-queueing
    /// shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_shards(shards: usize) -> Self {
        Self::with_config(shards, StoreServiceModel::default(), StoreReplication::default())
    }

    /// Creates an empty store with `shards` shards, each replicated per
    /// `replication` and serving concurrent load under `service` — the
    /// engine builds its store from [`EngineConfig::store_shards`],
    /// [`EngineConfig::store_service`] and
    /// [`EngineConfig::store_replication`].
    ///
    /// [`EngineConfig::store_shards`]: crate::EngineConfig::store_shards
    /// [`EngineConfig::store_service`]: crate::EngineConfig::store_service
    /// [`EngineConfig::store_replication`]: crate::EngineConfig::store_replication
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_config(
        shards: usize,
        service: StoreServiceModel,
        replication: StoreReplication,
    ) -> Self {
        assert!(shards > 0, "a sharded store needs at least one shard");
        ShardedStateStore {
            shards: vec![StoreShard::default(); shards],
            service,
            replication,
            last_admitted_at: SimTime::ZERO,
            completions: Vec::new(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard serving `instance` (instance index modulo shard count).
    pub fn shard_of(&self, instance: InstanceId) -> usize {
        instance.index() % self.shards.len()
    }

    /// The shard of `instance` and its slot on that shard.
    fn locate(&self, instance: InstanceId) -> (usize, usize) {
        let n = self.shards.len();
        (instance.index() % n, instance.index() / n)
    }

    /// The blob slot of `instance`, if it ever persisted.
    fn slot(&self, instance: InstanceId) -> Option<&BlobSlot> {
        let (shard, slot) = self.locate(instance);
        self.shards[shard].slots.get(slot)
    }

    /// Counter snapshot for shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shard_count()`.
    pub fn shard_stats(&self, shard: usize) -> ShardStats {
        let s = &self.shards[shard];
        ShardStats {
            puts: s.puts,
            gets: s.gets,
            misses: s.misses,
            bytes_written: s.bytes_written,
            bytes_read: s.bytes_read,
            blobs: s.blobs,
            max_queue_depth: s.max_queue_depth,
            queued_ops: s.queued_ops,
            queued_wait: s.queued_wait,
            failed_ops: s.failed_ops,
            quorum_persists: s.quorum_persists,
            degraded_persists: s.degraded_persists,
            down_replicas: s.down_replicas,
        }
    }

    /// Admits one operation of `kind` for `instance` through its shard's
    /// replicated service queue; `service` is the primary replica's idle
    /// service time.
    ///
    /// * **Replication** — a [`StoreOpKind::Persist`] runs on every live
    ///   replica and completes when `write_quorum` of them have (the k-th
    ///   fastest completion); a [`StoreOpKind::Fetch`] is served by the
    ///   fastest live replica alone. Replica `i` serves `25 % × i` slower
    ///   than the primary ([`StoreReplication::replica_service`]), so a
    ///   2-of-3 quorum is strictly cheaper than waiting on all 3.
    /// * **Failure** — replicas `0..down` of a shard can be marked down
    ///   ([`Self::fail_shard_replicas`]). A persist with fewer live
    ///   replicas than its quorum, or a fetch with none, returns
    ///   [`AdmitOutcome::Failed`] (the shard counts it in
    ///   [`ShardStats::failed_ops`]); a quorum-satisfying subset serves
    ///   the operation *degraded*. The fastest replicas go down first, so
    ///   degraded quorums pay the lag ladder.
    /// * **Service models** — zero-queueing prices each replica at its
    ///   idle service time, so an unreplicated store's delay is exactly
    ///   `service`, while the shard still records its observed in-flight
    ///   window ([`ShardStats::max_queue_depth`]). FIFO keeps one busy
    ///   horizon per replica: an operation starts at `max(now, horizon)`,
    ///   the wait accumulates in [`ShardStats::queued_wait`], a persist
    ///   advances every live replica's horizon and a fetch only the
    ///   serving one, so per-shard completion instants are non-decreasing
    ///   in admission order.
    ///
    /// Admissions must be made in non-decreasing `now` order (the engine's
    /// event loop guarantees it); debug builds panic on a violation rather
    /// than let the accounting silently skew.
    pub fn admit(
        &mut self,
        instance: InstanceId,
        now: SimTime,
        service: SimDuration,
        kind: StoreOpKind,
    ) -> AdmitOutcome {
        debug_assert!(now >= self.last_admitted_at, "store admissions must be in time order");
        self.last_admitted_at = now;
        let (model, replication) = (self.service, self.replication);
        let replicas = replication.replicas.max(1);
        let shard = self.shard_of(instance);
        let s = &mut self.shards[shard];
        let down = s.down_replicas.min(replicas);
        let live = replicas - down;
        let needed = match kind {
            StoreOpKind::Persist => replication.write_quorum.clamp(1, replicas),
            StoreOpKind::Fetch => 1,
        };
        if live < needed {
            s.failed_ops += 1;
            return AdmitOutcome::Failed;
        }
        if s.replica_busy.len() < replicas {
            s.replica_busy.resize(replicas, SimTime::ZERO);
        }
        // Admissions arrive in time order, so an operation done by `now`
        // never counts toward a later window either.
        while s.in_flight.peek().is_some_and(|&Reverse(done)| done <= now) {
            s.in_flight.pop();
        }
        // Completion instant of each serving replica: a persist runs on
        // every live one (indices `down..replicas`; the fastest replicas
        // fail first, so a degraded shard serves from further down the lag
        // ladder), a fetch on the fastest live one alone.
        let serving = match kind {
            StoreOpKind::Persist => down..replicas,
            StoreOpKind::Fetch => down..down + 1,
        };
        let completions = &mut self.completions;
        completions.clear();
        completions.extend(serving.map(|r| {
            let start = match model {
                StoreServiceModel::FifoPerShard => s.replica_busy[r].max(now),
                StoreServiceModel::Unqueued => now,
            };
            (start + replication.replica_service(service, r), r)
        }));
        if model == StoreServiceModel::FifoPerShard {
            // The write lands on every live replica; each horizon advances
            // even though the client returns at quorum.
            for &(done, r) in completions.iter() {
                s.replica_busy[r] = done;
            }
        }
        completions.sort_unstable();
        let (completion, decider) = completions[needed - 1];
        let delay = completion - now;
        let wait = delay - replication.replica_service(service, decider);
        if !wait.is_zero() {
            s.queued_ops += 1;
            s.queued_wait += wait;
        }
        let degraded = down > 0;
        if kind == StoreOpKind::Persist && replication.is_replicated() {
            s.quorum_persists += 1;
            if degraded {
                s.degraded_persists += 1;
            }
        }
        s.in_flight.push(Reverse(completion));
        s.max_queue_depth = s.max_queue_depth.max(s.in_flight.len());
        AdmitOutcome::Served { delay, wait, degraded }
    }

    /// Failure injection: marks `count` replicas of `shard` as down
    /// (clamped to the configured replica count at admission time; the
    /// fastest replicas fail first). Use `usize::MAX` for a full shard
    /// outage.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shard_count()`.
    pub fn fail_shard_replicas(&mut self, shard: usize, count: usize) {
        self.shards[shard].down_replicas = count;
    }

    /// Failure injection: brings every replica of `shard` back up.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shard_count()`.
    pub fn restore_shard_replicas(&mut self, shard: usize) {
        self.shards[shard].down_replicas = 0;
    }

    /// Persists (overwrites) the blob for key range `range` of `instance`.
    pub fn put(&mut self, instance: InstanceId, range: KeyRange, blob: StateBlob) {
        let (shard, slot) = self.locate(instance);
        let s = &mut self.shards[shard];
        s.puts += 1;
        s.bytes_written += blob.byte_size();
        if s.slots.len() <= slot {
            s.slots.resize_with(slot + 1, BlobSlot::default);
        }
        if s.slots[slot].put(range, blob) {
            s.blobs += 1;
        }
    }

    /// Fetches the last committed blob for key range `range` of `instance`
    /// to restore from it, if any. A hit counts the whole blob in
    /// `bytes_read`; the blob's captured `pending` events move out of the
    /// store, since the restore replays them and a later restore from the
    /// same blob (a ROLLBACK re-init after an INIT) must not replay them
    /// again. The user state and counters stay for it.
    pub fn restore(&mut self, instance: InstanceId, range: KeyRange) -> Option<StateBlob> {
        let (shard, slot) = self.locate(instance);
        let s = &mut self.shards[shard];
        s.gets += 1;
        let Some(stored) = s.slots.get_mut(slot).and_then(|b| b.get_mut(range)) else {
            s.misses += 1;
            return None;
        };
        s.bytes_read += stored.byte_size();
        Some(StateBlob {
            processed: stored.processed,
            pending: std::mem::take(&mut stored.pending),
            key_counts: stored.key_counts.clone(),
        })
    }

    /// The committed blob for key range `range` of `instance`, read without
    /// counting as a fetch — the engine prices a restore by what it will
    /// read.
    pub(crate) fn peek(&self, instance: InstanceId, range: KeyRange) -> Option<&StateBlob> {
        self.slot(instance)?.get(range)
    }

    /// Whether a blob exists for key range `range` of `instance` (no
    /// latency charged — used by tests and invariant checks, not the data
    /// path).
    pub fn contains(&self, instance: InstanceId, range: KeyRange) -> bool {
        self.peek(instance, range).is_some()
    }

    /// Total pending events stored across `ranges` of `instance`, without
    /// counting as fetches — the engine uses this to price a restore before
    /// performing it. Absent ranges contribute 0.
    pub fn peek_pending_len(&self, instance: InstanceId, ranges: &[KeyRange]) -> usize {
        let Some(slot) = self.slot(instance) else {
            return 0;
        };
        ranges.iter().filter_map(|&r| slot.get(r)).map(|b| b.pending.len()).sum()
    }

    /// Number of committed blobs (whole-instance and key-range) across all
    /// shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.blobs).sum()
    }

    /// Returns true if nothing has been committed.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.blobs == 0)
    }

    /// Total persist operations performed, across all shards.
    pub fn puts(&self) -> u64 {
        self.shards.iter().map(|s| s.puts).sum()
    }

    /// Total fetch operations performed, across all shards.
    pub fn gets(&self) -> u64 {
        self.shards.iter().map(|s| s.gets).sum()
    }

    /// Total fetch operations that found no blob, across all shards.
    pub fn misses(&self) -> u64 {
        self.shards.iter().map(|s| s.misses).sum()
    }

    /// Total bytes written across all shards.
    pub fn bytes_written(&self) -> u64 {
        self.shards.iter().map(|s| s.bytes_written).sum()
    }

    /// Total bytes read across all shards.
    pub fn bytes_read(&self) -> u64 {
        self.shards.iter().map(|s| s.bytes_read).sum()
    }

    /// Total operations that waited behind a busy shard, across all
    /// shards (always 0 under the zero-queueing model).
    pub fn queued_ops(&self) -> u64 {
        self.shards.iter().map(|s| s.queued_ops).sum()
    }

    /// Total time operations spent waiting in shard queues, across all
    /// shards.
    pub fn queued_wait(&self) -> SimDuration {
        self.shards.iter().fold(SimDuration::ZERO, |acc, s| acc + s.queued_wait)
    }

    /// Deepest concurrent in-flight window observed on any shard.
    pub fn max_queue_depth(&self) -> usize {
        self.shards.iter().map(|s| s.max_queue_depth).max().unwrap_or(0)
    }

    /// Total operations rejected for lack of live replicas, across all
    /// shards.
    pub fn failed_ops(&self) -> u64 {
        self.shards.iter().map(|s| s.failed_ops).sum()
    }

    /// Total quorum-priced persists across all shards (0 for the default
    /// unreplicated store).
    pub fn quorum_persists(&self) -> u64 {
        self.shards.iter().map(|s| s.quorum_persists).sum()
    }

    /// Total quorum persists served while a replica was down, across all
    /// shards.
    pub fn degraded_persists(&self) -> u64 {
        self.shards.iter().map(|s| s.degraded_persists).sum()
    }

    /// Per-shard counter snapshots for every shard, in shard order — the
    /// export surface for benches and the CLI.
    pub fn all_shard_stats(&self) -> Vec<ShardStats> {
        (0..self.shards.len()).map(|i| self.shard_stats(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmig_metrics::RootId;
    use flowmig_sim::SimTime;

    /// An unkeyed instance's whole state: the one range of its one-partition
    /// key space.
    const WHOLE: KeyRange = KeyRange { start: 0, end: 1 };

    fn event(id: u64) -> DataEvent {
        DataEvent { id, root: RootId(id), generated_at: SimTime::ZERO, replayed: false }
    }

    /// A store of `shards` unreplicated shards under `model`.
    fn store_under(shards: usize, model: StoreServiceModel) -> ShardedStateStore {
        ShardedStateStore::with_config(shards, model, StoreReplication::default())
    }

    /// The delay of an admission that must be served.
    fn served(outcome: AdmitOutcome) -> SimDuration {
        outcome.delay().expect("a healthy store serves every operation")
    }

    #[test]
    fn put_get_round_trip_with_pending() {
        let mut store = ShardedStateStore::new();
        let i = InstanceId::from_index(3);
        let blob = StateBlob {
            processed: 7,
            pending: vec![DataEvent {
                id: 1,
                root: RootId(9),
                generated_at: SimTime::from_secs(1),
                replayed: false,
            }],
            key_counts: Vec::new(),
        };
        store.put(i, WHOLE, blob.clone());
        assert_eq!(store.restore(i, WHOLE), Some(blob));
        assert!(store.contains(i, WHOLE));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn missing_instance_returns_none() {
        let mut store = ShardedStateStore::new();
        assert_eq!(store.restore(InstanceId::from_index(5), WHOLE), None);
        assert_eq!(store.gets(), 1);
        assert!(store.is_empty());
    }

    #[test]
    fn overwrite_keeps_latest() {
        let mut store = ShardedStateStore::new();
        let i = InstanceId::from_index(0);
        store.put(i, WHOLE, StateBlob::of_count(1));
        store.put(i, WHOLE, StateBlob::of_count(2));
        assert_eq!(store.restore(i, WHOLE).unwrap().processed, 2);
        assert_eq!(store.puts(), 2);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn repeated_get_is_idempotent() {
        // A blob without captured events restores the same state each time.
        let mut store = ShardedStateStore::new();
        let i = InstanceId::from_index(0);
        store.put(i, WHOLE, StateBlob::of_count(5));
        assert_eq!(store.restore(i, WHOLE).unwrap().processed, 5);
        assert_eq!(store.restore(i, WHOLE).unwrap().processed, 5);
        assert_eq!(store.gets(), 2);
    }

    #[test]
    fn restore_moves_the_pending_events_out_and_keeps_the_state() {
        let mut store = ShardedStateStore::with_shards(2);
        let i = InstanceId::from_index(1);
        let blob =
            StateBlob { processed: 7, pending: vec![event(1), event(2)], key_counts: vec![3, 4] };
        let size = blob.byte_size();
        store.put(i, WHOLE, blob.clone());
        assert_eq!(store.restore(i, WHOLE), Some(blob.clone()));
        assert_eq!(store.bytes_read(), size, "the first restore reads the whole blob");
        // A second restore from the same blob replays nothing, yet still
        // finds the user state and counters.
        let again = StateBlob { pending: Vec::new(), ..blob };
        assert_eq!(store.restore(i, WHOLE), Some(again.clone()));
        assert_eq!(store.bytes_read(), size + again.byte_size());
        assert_eq!((store.gets(), store.misses(), store.len()), (2, 0, 1));
    }

    #[test]
    fn key_range_blobs_share_one_map_with_the_whole_instance_blob() {
        // A keyed instance with 8 partitions: its whole-instance checkpoint
        // is the `KeyRange::whole(8)` entry, and each hot range it moves is
        // an entry of its own beside it.
        let mut store = ShardedStateStore::with_shards(2);
        let i = InstanceId::from_index(1);
        let whole = KeyRange::whole(8);
        let (hot, warm) = (KeyRange::new(0, 1), KeyRange::new(2, 4));
        let blob = |processed, pending: usize| StateBlob {
            processed,
            pending: (0..pending as u64).map(event).collect(),
            key_counts: vec![processed],
        };
        store.put(i, whole, blob(10, 1));
        store.put(i, hot, blob(6, 2));
        store.put(i, warm, blob(3, 4));
        assert_eq!(store.len(), 3, "len counts whole-instance and range blobs alike");
        assert_eq!(store.shard_stats(1).blobs, 3);
        assert!(store.contains(i, whole) && store.contains(i, hot) && store.contains(i, warm));
        assert!(!store.contains(i, KeyRange::new(1, 2)), "an unwritten range is absent");
        assert!(!store.contains(InstanceId::from_index(3), hot), "ranges are per instance");
        // A range persist never shadows the whole-instance blob.
        assert_eq!(store.peek(i, whole).unwrap().processed, 10);
        assert_eq!(store.peek(i, hot).unwrap().processed, 6);
        // Pending lengths sum over the ranges present; absent ones are 0.
        assert_eq!(store.peek_pending_len(i, &[whole]), 1);
        assert_eq!(store.peek_pending_len(i, &[hot, warm]), 6);
        assert_eq!(store.peek_pending_len(i, &[hot, KeyRange::new(4, 8)]), 2);
        assert_eq!(store.peek_pending_len(i, &[]), 0);
        assert_eq!(store.peek_pending_len(InstanceId::from_index(5), &[whole]), 0);
        assert_eq!(store.gets(), 0, "peeking is not a fetch");
    }

    #[test]
    fn sharding_routes_by_instance_index() {
        let mut store = ShardedStateStore::with_shards(4);
        for idx in 0..12 {
            store.put(InstanceId::from_index(idx), WHOLE, StateBlob::of_count(idx as u64));
        }
        assert_eq!(store.len(), 12);
        for shard in 0..4 {
            assert_eq!(store.shard_stats(shard).puts, 3, "shard {shard}");
            assert_eq!(store.shard_stats(shard).blobs, 3, "shard {shard}");
        }
        // Reads hit only the owning shard.
        assert!(store.restore(InstanceId::from_index(5), WHOLE).is_some());
        assert_eq!(store.shard_stats(1).gets, 1);
        assert_eq!(store.shard_stats(0).gets, 0);
    }

    #[test]
    fn byte_counters_track_blob_sizes() {
        let mut store = ShardedStateStore::with_shards(2);
        let i = InstanceId::from_index(1);
        let blob = StateBlob {
            processed: 3,
            pending: vec![
                DataEvent {
                    id: 1,
                    root: RootId(1),
                    generated_at: SimTime::ZERO,
                    replayed: false
                };
                5
            ],
            key_counts: Vec::new(),
        };
        let expected = blob.byte_size();
        assert!(expected > 8, "pending events contribute bytes");
        store.put(i, WHOLE, blob);
        assert_eq!(store.shard_stats(1).bytes_written, expected);
        assert_eq!(store.bytes_written(), expected);
        assert_eq!(store.bytes_read(), 0);
        let _ = store.restore(i, WHOLE);
        assert_eq!(store.bytes_read(), expected);
        // A miss reads nothing.
        let _ = store.restore(InstanceId::from_index(3), WHOLE);
        assert_eq!(store.bytes_read(), expected);
    }

    #[test]
    fn miss_counts_as_get_but_reads_nothing() {
        // Accounting audit pin: a failed lookup is still a served GET (the
        // round-trip happened), increments the shard's `misses`, and must
        // not touch `bytes_read` — only hits move bytes.
        let mut store = ShardedStateStore::with_shards(4);
        let present = InstanceId::from_index(1);
        let absent = InstanceId::from_index(5); // same shard (1) as `present`
        assert_eq!(store.shard_of(present), store.shard_of(absent));
        store.put(present, WHOLE, StateBlob::of_count(9));
        let written = store.shard_stats(1).bytes_written;
        assert!(written > 0);

        assert!(store.restore(absent, WHOLE).is_none());
        let stats = store.shard_stats(1);
        assert_eq!(stats.gets, 1, "a miss is still a served fetch");
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.bytes_read, 0, "misses read nothing");

        assert!(store.restore(present, WHOLE).is_some());
        let stats = store.shard_stats(1);
        assert_eq!(stats.gets, 2);
        assert_eq!(stats.misses, 1, "hits don't count as misses");
        assert_eq!(stats.bytes_read, written);
        // Other shards untouched; aggregates line up.
        assert_eq!(store.shard_stats(0).gets, 0);
        assert_eq!(store.misses(), 1);
        assert_eq!(store.gets(), 2);
    }

    #[test]
    fn single_shard_store_degenerates_to_flat_map() {
        let mut store = ShardedStateStore::with_shards(1);
        for idx in 0..5 {
            store.put(InstanceId::from_index(idx), WHOLE, StateBlob::of_count(idx as u64));
        }
        assert_eq!(store.shard_count(), 1);
        assert_eq!(store.shard_stats(0).puts, 5);
        assert_eq!(store.puts(), 5);
        assert_eq!(store.len(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        let _ = ShardedStateStore::with_shards(0);
    }

    #[test]
    fn unqueued_admission_charges_exactly_the_service_time() {
        // Zero-queueing compatibility: the delay is the service time no
        // matter how many ops pile onto the same shard at the same instant.
        let mut store = ShardedStateStore::with_shards(2);
        let now = SimTime::from_secs(1);
        let service = SimDuration::from_millis(10);
        for idx in [0, 2, 4] {
            let outcome =
                store.admit(InstanceId::from_index(idx), now, service, StoreOpKind::Persist);
            assert_eq!(
                outcome,
                AdmitOutcome::Served { delay: service, wait: SimDuration::ZERO, degraded: false },
                "instance {idx} pays service time only"
            );
        }
        let stats = store.shard_stats(0);
        assert_eq!(stats.queued_ops, 0);
        assert_eq!(stats.queued_wait, SimDuration::ZERO);
        // …but the observed concurrency is still recorded.
        assert_eq!(stats.max_queue_depth, 3, "flat pricing absorbed 3 concurrent ops");
        assert_eq!(store.max_queue_depth(), 3);
        // The default unreplicated store prices no persist as a quorum.
        assert_eq!(store.quorum_persists(), 0, "default replication never counts quorums");
    }

    #[test]
    fn fifo_admission_serializes_one_shard() {
        let mut store = store_under(2, StoreServiceModel::FifoPerShard);
        let now = SimTime::from_secs(1);
        let service = SimDuration::from_millis(10);
        let mut admit = |idx| {
            served(store.admit(InstanceId::from_index(idx), now, service, StoreOpKind::Persist))
        };
        // Three same-instant ops on shard 0: delays 10, 20, 30 ms.
        for (k, idx) in [0usize, 2, 4].into_iter().enumerate() {
            assert_eq!(admit(idx), service.mul(k as u64 + 1), "op {k} waits behind {k} ops");
        }
        // A different shard serves its op immediately.
        assert_eq!(admit(1), service, "shards queue independently");
        let stats = store.shard_stats(0);
        assert_eq!(stats.queued_ops, 2, "first op never waits");
        assert_eq!(stats.queued_wait, SimDuration::from_millis(30), "10 + 20 ms of waiting");
        assert_eq!(stats.max_queue_depth, 3);
        assert_eq!(store.shard_stats(1).queued_ops, 0);
        assert_eq!(store.queued_ops(), 2);
        assert_eq!(store.queued_wait(), SimDuration::from_millis(30));
        assert_eq!(store.quorum_persists(), 0, "default replication never counts quorums");
    }

    #[test]
    fn fifo_idle_shard_charges_exactly_the_service_time() {
        // Without concurrent load the FIFO model degenerates to the
        // zero-queueing one: admission on an idle shard is a strict
        // extension, not a repricing.
        let mut store = store_under(4, StoreServiceModel::FifoPerShard);
        let service = SimDuration::from_millis(7);
        for step in 0..5u64 {
            let now = SimTime::from_secs(step); // far past the previous completion
            let delay =
                served(store.admit(InstanceId::from_index(0), now, service, StoreOpKind::Persist));
            assert_eq!(delay, service, "idle shard at step {step}");
        }
        assert_eq!(store.shard_stats(0).queued_ops, 0);
        assert_eq!(store.shard_stats(0).max_queue_depth, 1);
    }

    #[test]
    fn max_queue_depth_drains_completed_operations() {
        let mut store = ShardedStateStore::with_shards(1);
        let service = SimDuration::from_millis(10);
        let i = InstanceId::from_index(0);
        let t0 = SimTime::from_secs(1);
        store.admit(i, t0, service, StoreOpKind::Persist);
        store.admit(i, t0, service, StoreOpKind::Persist);
        assert_eq!(store.shard_stats(0).max_queue_depth, 2);
        // Both ops completed by t0+10ms; a later admission sees an empty
        // window and the high-water mark stays at 2.
        let later = t0 + SimDuration::from_millis(11);
        store.admit(i, later, service, StoreOpKind::Persist);
        assert_eq!(store.shard_stats(0).max_queue_depth, 2, "high-water mark, not current depth");
    }

    #[test]
    #[should_panic(expected = "time order")]
    #[cfg(debug_assertions)]
    fn out_of_order_admissions_are_caught() {
        let mut store = store_under(2, StoreServiceModel::FifoPerShard);
        let service = SimDuration::from_millis(1);
        store.admit(
            InstanceId::from_index(0),
            SimTime::from_secs(2),
            service,
            StoreOpKind::Persist,
        );
        store.admit(
            InstanceId::from_index(1),
            SimTime::from_secs(1),
            service,
            StoreOpKind::Persist,
        );
    }

    #[test]
    fn quorum_persist_completes_at_the_kth_fastest_replica() {
        // 3 replicas, lag ladder 1.0×/1.25×/1.5×: a 2-of-3 quorum returns
        // at the second replica (1.25×), strictly cheaper than all-3.
        let i = InstanceId::from_index(0);
        let service = SimDuration::from_micros(1000);
        let persist = |quorum| {
            let replication = StoreReplication::new(3, quorum);
            let mut store =
                ShardedStateStore::with_config(1, StoreServiceModel::Unqueued, replication);
            let delay =
                store.admit(i, SimTime::from_secs(1), service, StoreOpKind::Persist).delay();
            let stats = store.shard_stats(0);
            assert_eq!((stats.quorum_persists, stats.degraded_persists), (1, 0));
            delay.expect("a healthy quorum persist must serve")
        };
        let (q2, q3) = (persist(2), persist(3));
        assert_eq!(q2, SimDuration::from_micros(1250), "2-of-3 waits for replica 1");
        assert_eq!(q3, SimDuration::from_micros(1500), "all-3 waits for replica 2");
        assert!(q2 < q3, "quorum persist must beat the full-replica wait");
    }

    #[test]
    fn fetch_is_served_by_the_fastest_live_replica() {
        let mut store = ShardedStateStore::with_config(
            1,
            StoreServiceModel::Unqueued,
            StoreReplication::new(3, 2),
        );
        let i = InstanceId::from_index(0);
        let service = SimDuration::from_micros(1000);
        let AdmitOutcome::Served { delay, degraded, .. } =
            store.admit(i, SimTime::from_secs(1), service, StoreOpKind::Fetch)
        else {
            panic!("healthy fetch must serve");
        };
        assert_eq!(delay, service, "healthy fetch pays the primary's service time");
        assert!(!degraded);
        // With the primary down the fetch falls to replica 1 and pays its
        // lag — degraded but alive.
        store.fail_shard_replicas(0, 1);
        let AdmitOutcome::Served { delay, degraded, .. } =
            store.admit(i, SimTime::from_secs(2), service, StoreOpKind::Fetch)
        else {
            panic!("a 1-down fetch must still serve");
        };
        assert_eq!(delay, SimDuration::from_micros(1250), "degraded fetch pays replica 1's lag");
        assert!(degraded);
        assert_eq!(store.failed_ops(), 0);
    }

    #[test]
    fn persist_below_quorum_fails_and_is_counted() {
        let mut store = ShardedStateStore::with_config(
            1,
            StoreServiceModel::Unqueued,
            StoreReplication::new(3, 2),
        );
        let i = InstanceId::from_index(0);
        let service = SimDuration::from_micros(1000);
        // 2 of 3 down leaves 1 live replica < quorum 2: the persist fails.
        store.fail_shard_replicas(0, 2);
        let outcome = store.admit(i, SimTime::from_secs(1), service, StoreOpKind::Persist);
        assert_eq!(outcome, AdmitOutcome::Failed);
        assert_eq!(outcome.delay(), None);
        // A fetch only needs one live replica, so it still serves.
        let fetched = store.admit(i, SimTime::from_secs(2), service, StoreOpKind::Fetch);
        assert!(matches!(fetched, AdmitOutcome::Served { degraded: true, .. }));
        // A full outage fails fetches too.
        store.fail_shard_replicas(0, usize::MAX);
        let outcome = store.admit(i, SimTime::from_secs(3), service, StoreOpKind::Fetch);
        assert_eq!(outcome, AdmitOutcome::Failed);
        assert_eq!(store.failed_ops(), 2);
        assert_eq!(store.shard_stats(0).failed_ops, 2);
        // Restoring the shard brings the persist path back.
        store.restore_shard_replicas(0);
        let outcome = store.admit(i, SimTime::from_secs(4), service, StoreOpKind::Persist);
        assert!(matches!(outcome, AdmitOutcome::Served { degraded: false, .. }));
    }

    #[test]
    fn degraded_quorum_pays_the_lag_ladder_and_is_counted() {
        // With the fastest replica down, a 2-of-3 persist is served by
        // replicas 1 and 2 and returns at replica 2 (1.5×): degraded
        // quorums cost more than healthy ones.
        let mut store = ShardedStateStore::with_config(
            1,
            StoreServiceModel::Unqueued,
            StoreReplication::new(3, 2),
        );
        store.fail_shard_replicas(0, 1);
        let AdmitOutcome::Served { delay, degraded, .. } = store.admit(
            InstanceId::from_index(0),
            SimTime::from_secs(1),
            SimDuration::from_micros(1000),
            StoreOpKind::Persist,
        ) else {
            panic!("a 1-down quorum persist must serve");
        };
        assert_eq!(delay, SimDuration::from_micros(1500), "quorum over replicas 1 and 2");
        assert!(degraded);
        let stats = store.shard_stats(0);
        assert_eq!(stats.quorum_persists, 1);
        assert_eq!(stats.degraded_persists, 1);
        assert_eq!(stats.down_replicas, 1);
    }

    #[test]
    fn fifo_replicated_persist_advances_every_live_horizon() {
        // The write lands on all live replicas even though the client
        // returns at quorum: a back-to-back persist queues on every
        // replica, while a fetch occupies only its serving replica.
        let mut store = ShardedStateStore::with_config(
            1,
            StoreServiceModel::FifoPerShard,
            StoreReplication::new(2, 2),
        );
        let i = InstanceId::from_index(0);
        let now = SimTime::from_secs(1);
        let service = SimDuration::from_micros(1000);
        let first = served(store.admit(i, now, service, StoreOpKind::Persist));
        assert_eq!(first, SimDuration::from_micros(1250), "idle 2-of-2 waits for replica 1");
        let AdmitOutcome::Served { delay: second, wait, .. } =
            store.admit(i, now, service, StoreOpKind::Persist)
        else {
            panic!("persist must serve");
        };
        // Replica 0 free at 1000, replica 1 at 1250; the second persist
        // completes on replica 1 at 1250 + 1250 = 2500 after `now`.
        assert_eq!(second, SimDuration::from_micros(2500), "queues behind both horizons");
        assert_eq!(wait, SimDuration::from_micros(1250), "the horizon wait is accounted");
        // A fetch now runs on replica 0 (free at 1000), not replica 1
        // (busy until 2500): fetches only pay the fastest live horizon.
        let fetch = served(store.admit(i, now, service, StoreOpKind::Fetch));
        assert_eq!(fetch, SimDuration::from_micros(3000), "fetch queues on replica 0 only");
    }

    #[test]
    fn aborted_wave_work_still_occupies_fifo_horizons() {
        // The decision, pinned: horizons survive an aborted migration. A
        // wave queues 3 ops on one shard, the wave dies (the engine simply
        // stops scheduling their completions), and a post-rollback retry
        // admitted before the horizon clears still waits behind the dead
        // wave's queued work — the store accepted that work and a real one
        // would keep serving it.
        let mut store = store_under(1, StoreServiceModel::FifoPerShard);
        let i = InstanceId::from_index(0);
        let t0 = SimTime::from_secs(1);
        let service = SimDuration::from_millis(10);
        for _ in 0..3 {
            store.admit(i, t0, service, StoreOpKind::Persist);
        }
        // The migration aborts here; nothing resets the store. A retry
        // 5 ms later still queues behind the dead wave's 30 ms horizon.
        let retry_at = t0 + SimDuration::from_millis(5);
        let delay = served(store.admit(i, retry_at, service, StoreOpKind::Persist));
        assert_eq!(
            delay,
            SimDuration::from_millis(35),
            "25 ms behind the dead wave's horizon + 10 ms service"
        );
        assert_eq!(store.shard_stats(0).queued_ops, 3);
        // Once the horizon drains, pricing is back to idle — the penalty
        // is bounded by the aborted wave's accepted work, not permanent.
        let much_later = t0 + SimDuration::from_secs(1);
        let delay = served(store.admit(i, much_later, service, StoreOpKind::Persist));
        assert_eq!(delay, service, "the dead wave's horizon drains out");
    }

    #[test]
    fn fifo_completion_instants_are_non_decreasing_per_shard() {
        // The queue invariant the proptest suite fuzzes, pinned here on a
        // hand-written interleaving: completions never reorder within a
        // shard even when later ops are shorter.
        let mut store = store_under(1, StoreServiceModel::FifoPerShard);
        let i = InstanceId::from_index(0);
        let mut last_completion = SimTime::ZERO;
        let ops = [
            (SimTime::from_millis(0), SimDuration::from_millis(50)),
            (SimTime::from_millis(1), SimDuration::from_millis(1)),
            (SimTime::from_millis(2), SimDuration::from_millis(30)),
            (SimTime::from_millis(90), SimDuration::from_millis(1)),
        ];
        for (now, service) in ops {
            let completion = now + served(store.admit(i, now, service, StoreOpKind::Persist));
            assert!(completion >= last_completion, "FIFO must not reorder completions");
            last_completion = completion;
        }
    }
}
