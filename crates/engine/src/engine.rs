//! The simulated Storm-like stream processing engine.
//!
//! [`Engine`] deploys a dataflow over a [`ScalePlan`]'s VM pool and drives
//! it in virtual time: sources tick, events queue and process, the acker
//! tracks tuple trees, checkpoint waves sweep or broadcast, and a rebalance
//! kills and respawns instances. A [`MigrationCoordinator`] (strategy)
//! sequences the control plane through [`EngineCtl`].

use crate::acker::{AckOutcome, Acker};
use crate::config::EngineConfig;
use crate::dispatch::{DispatchTables, InstanceBitset};
use crate::event::{ControlEvent, ControlSender, DataEvent, Ev, QueueItem};
use crate::fasthash::FastHashMap;
use crate::instance::{InstanceRuntime, Work, WorkerStatus};
use crate::protocol::{MigrationCoordinator, ProtocolConfig, WaveRouting, WaveScope};
use crate::stats::EngineStats;
use crate::store::{AdmitOutcome, ShardedStateStore, StateBlob, StoreOpKind};
use flowmig_cluster::{Assignment, ScalePlan, VmId, VmRole};
use flowmig_metrics::{ControlKind, MigrationPhase, RootId, TraceEvent, TraceLog};
use flowmig_sim::{Process, RunOutcome, Scheduler, SimDuration, SimRng, SimTime, Simulation};
use flowmig_topology::{Dataflow, InstanceId, InstanceSet, KeyRange, TaskId, TaskKind};
use std::collections::VecDeque;

/// Mixes a root id into a uniformly distributed key hash (the SplitMix64
/// finalizer): keyed tasks partition their key space over this hash, so
/// sibling instances of one task agree on an event's partition without
/// coordination.
pub(crate) fn key_hash(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Compresses a sorted, deduplicated partition list into maximal
/// contiguous [`KeyRange`]s.
fn compress_partitions(mut parts: Vec<u32>) -> Vec<KeyRange> {
    parts.sort_unstable();
    parts.dedup();
    let mut ranges = Vec::new();
    let mut iter = parts.into_iter();
    let Some(first) = iter.next() else {
        return ranges;
    };
    let (mut start, mut end) = (first, first + 1);
    for p in iter {
        if p == end {
            end += 1;
        } else {
            ranges.push(KeyRange::new(start, end));
            start = p;
            end = p + 1;
        }
    }
    ranges.push(KeyRange::new(start, end));
    ranges
}

/// A resolved wave scope: which participants a scoped wave addresses, and
/// (for key-range scopes) which key ranges of each keyed member actually
/// move. `ranges` is indexed by instance (empty when no member is
/// sliced); a member whose entry is empty migrates whole-instance (an
/// unkeyed task under a key-range scope has no ranges to slice).
#[derive(Debug, Clone)]
struct ScopeSet {
    members: InstanceBitset,
    ranges: Vec<Vec<KeyRange>>,
}

/// A root event cached at the source for replay (acking enabled only).
#[derive(Debug, Clone, Copy)]
struct CachedRoot {
    generated_at: SimTime,
    replays: u32,
    source: usize,
}

/// Per-source emission state.
#[derive(Debug, Clone)]
struct SourceState {
    instance: usize,
    interval: SimDuration,
    backlog: VecDeque<(RootId, SimTime)>,
    /// Failed roots awaiting re-emission (with their original generation
    /// instants); served before the backlog and gated by
    /// `max.spout.pending`, like Storm's spout retry service. A root
    /// queued here is *not* in the replay cache: expiry transfers
    /// ownership of the pending slot from the cache to this queue, so a
    /// straggler ack for the expired incarnation can never free the slot
    /// a second time.
    retries: VecDeque<(RootId, SimTime)>,
    draining: bool,
}

/// Ack bookkeeping for one control-wave phase.
#[derive(Debug, Clone)]
struct WaveTracker {
    acked: InstanceBitset,
    completed: bool,
}

impl WaveTracker {
    /// A tracker with no ack yet, over `n` instances.
    fn new(n: usize) -> Self {
        WaveTracker { acked: InstanceBitset::with_capacity(n), completed: false }
    }
}

/// The engine's full mutable state (crate-private; drive it via [`Engine`]).
pub struct EngineModel {
    dag: Dataflow,
    instances: InstanceSet,
    initial: Assignment,
    target: Assignment,
    migrating: Vec<InstanceId>,
    config: EngineConfig,
    protocol: ProtocolConfig,

    on_target: bool,
    runtimes: Vec<InstanceRuntime>,
    /// Round-robin shuffle cursors, one per (instance, out-edge), in one
    /// flat array: instance `i`'s start at its `InstanceMeta::cursor_base`.
    cursors: Vec<usize>,
    sources: Vec<SourceState>,
    /// Dense instance index → index into `sources` (`u32::MAX` = not a
    /// ticking source).
    source_of: Vec<u32>,
    /// Flat dispatch tables (per-instance metadata, edge targets, key
    /// partitioners, VM column); rebuilt on rebalance completion. See the
    /// crate-level "Dispatch model" section.
    tables: DispatchTables,
    /// O(1) membership of the installed rebalance scope, for the
    /// per-delivery mid-respawn check; cleared on rebalance completion.
    respawning: InstanceBitset,
    acker: Acker,
    cache: FastHashMap<RootId, CachedRoot>,
    /// In-flight (registered, unacked) root count per source — the
    /// per-spout ledger behind `max.spout.pending` gating.
    in_flight: Vec<usize>,
    store: ShardedStateStore,
    trace: TraceLog,
    stats: EngineStats,
    rng: SimRng,
    coordinator: Option<Box<dyn MigrationCoordinator>>,

    paused: bool,
    migration_requested_at: Option<SimTime>,

    staged_updates: Vec<(TaskId, flowmig_topology::TaskSpec)>,
    // Per-kind wave bookkeeping, indexed by `ControlKind::index()`.
    next_wave: [u32; ControlKind::COUNT],
    wave_routing: [Option<WaveRouting>; ControlKind::COUNT],
    /// Per-kind, per-store-shard queues of instances a parallel wave has
    /// not yet reached: the bounded fan-out window of each shard advances
    /// from [`Self::advance_parallel_wave`] as the shard's in-flight
    /// operations complete. `None` = no open window for that kind.
    parallel_pending: [Option<Vec<VecDeque<usize>>>; ControlKind::COUNT],
    trackers: [Option<WaveTracker>; ControlKind::COUNT],
    /// Every non-source instance: the set an unscoped wave addresses.
    participants: InstanceBitset,
    /// Resolved scope of the most recent wave per kind; absent means the
    /// wave addresses every participant (the default, pin-preserving path).
    scope_sets: [Option<ScopeSet>; ControlKind::COUNT],
    /// Rebalance kill/respawn set override, installed when a key-range
    /// scope is resolved: only the members of the scoped wave are torn
    /// down — cold instances keep running through the migration.
    rebalance_scope: Option<Vec<InstanceId>>,
    expected_senders: Vec<usize>,
    pinned_vm: VmId,
}

impl std::fmt::Debug for EngineModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineModel")
            .field("dag", &self.dag.name())
            .field("instances", &self.instances.len())
            .field("paused", &self.paused)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// Control-plane handle passed to [`MigrationCoordinator`] hooks.
///
/// Exposes exactly the operations a strategy may perform: pausing sources,
/// starting checkpoint waves, arming resend timers, invoking the rebalance,
/// and recording phase marks in the trace.
pub struct EngineCtl<'a, 'b> {
    model: &'a mut EngineModel,
    sched: &'a mut Scheduler<'b, Ev>,
}

impl std::fmt::Debug for EngineCtl<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineCtl").field("now", &self.sched.now()).finish_non_exhaustive()
    }
}

impl EngineCtl<'_, '_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Pauses all source tasks: generated events accumulate in the source
    /// backlog instead of entering the dataflow.
    pub fn pause_sources(&mut self) {
        self.model.paused = true;
    }

    /// Resumes all source tasks; backlogged events drain at the burst rate.
    pub fn unpause_sources(&mut self) {
        self.model.paused = false;
        for s in 0..self.model.sources.len() {
            self.model.maybe_schedule_drain(s, self.sched);
        }
    }

    /// Starts a control wave addressing every participant; returns its
    /// wave number (resends increment). Clears any scope installed for
    /// `kind` by an earlier [`Self::start_scoped_wave`].
    pub fn start_wave(&mut self, kind: ControlKind, routing: WaveRouting) -> u32 {
        self.start_scoped_wave(kind, routing, WaveScope::AllParticipants)
    }

    /// Starts a control wave addressing only the participants `scope`
    /// resolves to. [`WaveScope::AllParticipants`] is byte-identical to
    /// [`Self::start_wave`]; a key-range scope restricts the wave to the
    /// migrating participants, keyed tasks to the instances owning a hot
    /// partition, slices their persists/fetches to those ranges and
    /// narrows the rebalance to the scoped members. A scope that resolves
    /// to no participant addresses every participant instead, as
    /// [`Self::start_wave`] does.
    /// The scope is re-resolved on every call, so resends stay consistent
    /// with the first emission.
    pub fn start_scoped_wave(
        &mut self,
        kind: ControlKind,
        routing: WaveRouting,
        scope: WaveScope,
    ) -> u32 {
        self.model.install_scope(kind, scope);
        self.model.start_wave(kind, routing, self.sched)
    }

    /// Clears the ack tracker for `kind` — call before the first wave of a
    /// phase so acks from earlier phases don't count.
    pub fn reset_wave(&mut self, kind: ControlKind) {
        self.model.trackers[kind.index()] = Some(WaveTracker::new(self.model.instances.len()));
        self.model.parallel_pending[kind.index()] = None;
    }

    /// Arms a one-shot resend timer for `kind`.
    pub fn schedule_resend(&mut self, kind: ControlKind, delay: SimDuration) {
        self.sched.after(delay, Ev::ControlResend { kind });
    }

    /// Arms a one-shot strategy timer delivered to
    /// [`MigrationCoordinator::on_timer`] with `token`.
    pub fn schedule_timer(&mut self, token: u32, delay: SimDuration) {
        self.sched.after(delay, Ev::StrategyTimer { token });
    }

    /// Whether every scoped participant has acked the current `kind` phase
    /// (every participant, for an unscoped wave).
    pub fn wave_complete(&self, kind: ControlKind) -> bool {
        self.model.trackers[kind.index()]
            .as_ref()
            .is_some_and(|t| t.acked.len() >= self.model.wave_target_count(kind))
    }

    /// Invokes Storm's `rebalance` command with zero timeout: migrating
    /// instances are killed (queues lost) and redeployed on the target
    /// assignment after the command duration plus worker spawn delays.
    pub fn start_rebalance(&mut self) {
        self.model.start_rebalance(self.sched);
    }

    /// Records a phase start mark in the trace.
    pub fn phase_started(&mut self, phase: MigrationPhase) {
        let at = self.sched.now();
        self.model.trace.record(TraceEvent::PhaseStarted { phase, at });
    }

    /// Records a phase end mark in the trace.
    pub fn phase_ended(&mut self, phase: MigrationPhase) {
        let at = self.sched.now();
        self.model.trace.record(TraceEvent::PhaseEnded { phase, at });
    }

    /// Records the migration as complete.
    pub fn complete_migration(&mut self) {
        let at = self.sched.now();
        self.model.trace.record(TraceEvent::MigrationCompleted { at });
    }
}

impl EngineModel {
    #[allow(clippy::too_many_arguments)]
    fn new(
        dag: Dataflow,
        instances: InstanceSet,
        plan: &ScalePlan,
        config: EngineConfig,
        protocol: ProtocolConfig,
        coordinator: Box<dyn MigrationCoordinator>,
        seed: u64,
    ) -> Self {
        let n = instances.len();
        let runtimes = std::iter::repeat_with(InstanceRuntime::new).take(n).collect();

        let mut sources = Vec::new();
        let mut source_of = vec![u32::MAX; n];
        for (idx, i) in instances.iter().enumerate() {
            let task = instances.task_of(i);
            let spec = dag.spec(task);
            if spec.kind() == TaskKind::Source {
                let rate = spec.emit_rate_hz();
                assert!(rate > 0.0, "source `{}` must have a positive rate", spec.name());
                // A source task's emit rate is shared across its parallel
                // instances (a Storm spout's stream is partitioned over
                // its executors).
                let replicas = instances.of_task(task).len() as f64;
                source_of[idx] = sources.len() as u32;
                sources.push(SourceState {
                    instance: idx,
                    interval: SimDuration::from_secs_f64(replicas / rate),
                    backlog: VecDeque::new(),
                    retries: VecDeque::new(),
                    draining: false,
                });
            }
        }

        let mut participants = InstanceBitset::with_capacity(n);
        for i in instances.iter() {
            if dag.spec(instances.task_of(i)).kind() != TaskKind::Source {
                participants.insert(i.index());
            }
        }

        let mut expected_senders = vec![0usize; n];
        for i in instances.iter() {
            let task = instances.task_of(i);
            let mut expected = 0;
            for &u in dag.upstream(task) {
                expected += match dag.spec(u).kind() {
                    TaskKind::Source => 1, // the checkpoint source stands in
                    _ => instances.of_task(u).len(),
                };
            }
            expected_senders[i.index()] = expected;
        }

        let pinned_vm =
            plan.pool().with_role(VmRole::Pinned).next().expect("plan has a pinned source/sink VM");
        let source_count = sources.len();
        let store = ShardedStateStore::with_config(
            config.store_shards,
            config.store_service,
            config.store_replication,
        );
        let tables = DispatchTables::build(&dag, &instances, plan.initial(), store.shard_count());
        let stats = EngineStats { dispatch_rebuilds: 1, ..EngineStats::default() };

        EngineModel {
            dag,
            instances,
            initial: plan.initial().clone(),
            target: plan.target().clone(),
            migrating: plan.migrating().to_vec(),
            config,
            protocol,
            on_target: false,
            runtimes,
            cursors: vec![0; tables.cursor_count()],
            sources,
            source_of,
            tables,
            respawning: InstanceBitset::with_capacity(n),
            in_flight: vec![0; source_count],
            acker: Acker::new(EngineConfig::ACK_TIMEOUT),
            cache: FastHashMap::default(),
            store,
            trace: TraceLog::with_level(config.trace),
            stats,
            rng: SimRng::seed_from(seed),
            coordinator: Some(coordinator),
            paused: false,
            migration_requested_at: None,
            staged_updates: Vec::new(),
            next_wave: [0; ControlKind::COUNT],
            wave_routing: [None; ControlKind::COUNT],
            parallel_pending: [const { None }; ControlKind::COUNT],
            trackers: [const { None }; ControlKind::COUNT],
            participants,
            scope_sets: [const { None }; ControlKind::COUNT],
            rebalance_scope: None,
            expected_senders,
            pinned_vm,
        }
    }

    fn assignment(&self) -> &Assignment {
        if self.on_target {
            &self.target
        } else {
            &self.initial
        }
    }

    fn vm_of(&self, instance: usize) -> Option<VmId> {
        self.tables.vm(instance)
    }

    fn net_delay(&self, from: Option<usize>, to: usize) -> SimDuration {
        let to_vm = self.vm_of(to);
        let from_vm = match from {
            Some(i) => self.vm_of(i),
            None => Some(self.pinned_vm), // checkpoint source lives on the pinned VM
        };
        match (from_vm, to_vm) {
            (Some(a), Some(b)) if a == b => EngineConfig::NET_LATENCY_LOCAL,
            _ => EngineConfig::NET_LATENCY_REMOTE,
        }
    }

    fn notify<F>(&mut self, sched: &mut Scheduler<'_, Ev>, f: F)
    where
        F: FnOnce(&mut dyn MigrationCoordinator, &mut EngineCtl<'_, '_>),
    {
        let mut c = self.coordinator.take().expect("coordinator present");
        {
            let mut ctl = EngineCtl { model: self, sched };
            f(c.as_mut(), &mut ctl);
        }
        self.coordinator = Some(c);
    }

    // ------------------------------------------------------------------
    // Sources
    // ------------------------------------------------------------------

    /// Whether source `sidx` may emit: Storm's `max.spout.pending` is a
    /// *per-spout* cap on unacked roots, so each source is gated on its own
    /// in-flight count — a slow branch must not throttle its siblings.
    fn can_emit(&self, sidx: usize) -> bool {
        !self.paused
            && (!self.protocol.ack_user_events
                || self.in_flight[sidx] < EngineConfig::MAX_SPOUT_PENDING)
    }

    fn on_source_tick(&mut self, instance: usize, sched: &mut Scheduler<'_, Ev>) {
        let sidx = self.source_of[instance] as usize;
        let backlog_len = self.sources[sidx].backlog.len();
        if backlog_len >= EngineConfig::MAX_SOURCE_BACKLOG {
            // The benchmark generator stalls once its buffer is full (the
            // driver thread sleeps while the spout is paused/throttled).
            let next = self.next_tick_interval(sidx);
            sched.after(next, Ev::SourceTick { instance: instance as u32 });
            return;
        }
        let root = RootId(self.rng.id());
        let gen = sched.now();
        self.stats.roots_generated += 1;
        if self.can_emit(sidx) && backlog_len == 0 {
            self.emit_root(sidx, root, gen, false, sched);
        } else {
            if !self.paused && !self.can_emit(sidx) {
                self.stats.spout_throttled += 1;
            }
            self.sources[sidx].backlog.push_back((root, gen));
            self.maybe_schedule_drain(sidx, sched);
        }
        let next = self.next_tick_interval(sidx);
        sched.after(next, Ev::SourceTick { instance: instance as u32 });
    }

    /// Next inter-emission gap: the source's interval with generator
    /// scheduling jitter (mean preserved).
    fn next_tick_interval(&mut self, sidx: usize) -> SimDuration {
        self.rng.jittered(self.sources[sidx].interval, EngineConfig::SOURCE_INTERVAL_JITTER)
    }

    fn maybe_schedule_drain(&mut self, sidx: usize, sched: &mut Scheduler<'_, Ev>) {
        let s = &self.sources[sidx];
        if !s.draining && (!s.backlog.is_empty() || !s.retries.is_empty()) && self.can_emit(sidx) {
            let instance = s.instance;
            self.sources[sidx].draining = true;
            sched.now_event(Ev::SourceDrain { instance: instance as u32 });
        }
    }

    fn on_source_drain(&mut self, instance: usize, sched: &mut Scheduler<'_, Ev>) {
        let sidx = self.source_of[instance] as usize;
        let empty = self.sources[sidx].backlog.is_empty() && self.sources[sidx].retries.is_empty();
        if !self.can_emit(sidx) || empty {
            self.sources[sidx].draining = false;
            return;
        }
        // Retries first (Storm's spout serves its retry service before new
        // tuples), then the paused/throttled backlog.
        if let Some((root, generated_at)) = self.sources[sidx].retries.pop_front() {
            self.emit_root(sidx, root, generated_at, true, sched);
        } else {
            let (root, gen) = self.sources[sidx].backlog.pop_front().expect("non-empty backlog");
            self.emit_root(sidx, root, gen, false, sched);
        }
        sched.after(
            EngineConfig::SOURCE_DRAIN_INTERVAL,
            Ev::SourceDrain { instance: instance as u32 },
        );
    }

    /// Emits (or re-emits) a root: one copy per out-edge of the source task,
    /// shuffle-routed to downstream instances; registers the XOR ledger.
    fn emit_root(
        &mut self,
        sidx: usize,
        root: RootId,
        generated_at: SimTime,
        replay: bool,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        let instance = self.sources[sidx].instance;
        let task = self.tables.meta(instance).task;
        let replayed = if self.protocol.ack_user_events {
            let entry = self.cache.entry(root).or_insert(CachedRoot {
                generated_at,
                replays: 0,
                source: sidx,
            });
            if replay {
                entry.replays += 1;
            }
            entry.replays > 0
        } else {
            replay
        };

        let mut xor = 0u64;
        for edge in 0..self.tables.out_degree(task) {
            let id = self.rng.id();
            xor ^= id;
            let child = DataEvent { id, root, generated_at, replayed };
            let to = self.route(instance, task, edge, root);
            self.deliver(QueueItem::Data(child), Some(instance), to, sched);
        }
        if self.protocol.ack_user_events {
            if !self.acker.is_pending(root) {
                self.in_flight[sidx] += 1;
            }
            self.acker.register(root, xor, sched.now());
        }
        self.trace.record(TraceEvent::SourceEmit { root, at: sched.now(), replay });
        self.stats.source_emissions += 1;
        if replay {
            self.stats.replayed_roots += 1;
        }
    }

    fn route(&mut self, from: usize, task: TaskId, edge: usize, root: RootId) -> usize {
        let et = self.tables.edge(task, edge);
        if et.keyed {
            // Fields-grouped routing: the event's key partition picks the
            // owning replica (partition `p` is owned by slot
            // `p % replicas`), so sibling events of one key always land on
            // the same instance and per-key state stays single-writer. The
            // round-robin cursor is left untouched — unkeyed downstream
            // tasks of the same edge keep their historical shuffle order.
            let p = self.tables.partition_of(et.dtask, key_hash(root.0));
            return et.targets[p as usize % et.targets.len()] as usize;
        }
        let slot = &mut self.cursors[self.tables.meta(from).cursor_base as usize + edge];
        let cursor = *slot;
        *slot = cursor.wrapping_add(1);
        et.targets[cursor % et.targets.len()] as usize
    }

    // ------------------------------------------------------------------
    // Delivery and processing
    // ------------------------------------------------------------------

    fn deliver(
        &mut self,
        item: QueueItem,
        from: Option<usize>,
        to: usize,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        let delay = self.net_delay(from, to);
        sched.after(delay, Ev::Deliver { to: to as u32, item });
    }

    fn on_deliver(&mut self, to: usize, item: QueueItem, sched: &mut Scheduler<'_, Ev>) {
        let rt = &mut self.runtimes[to];
        // A worker that is not running buffers data only while it is
        // coming back: the upstream transport holds up to `transport_buffer`
        // events for a worker that is connecting (`Starting`, drained once
        // ready), and for a dead slot a scoped rebalance is respawning,
        // since live upstreams still emit into it. Every other dead worker
        // drops them: in a whole-topology rebalance every upstream is dead
        // or drained by then, and DSM's measured loss depends on the drop.
        // Control events time out instead of buffering, which is what
        // produces DSM's 30 s INIT retry waves (§5.1).
        let buffers = match rt.status {
            WorkerStatus::Running => {
                rt.queue.push_back(item);
                if !rt.busy() {
                    sched.now_event(Ev::Wake { instance: to as u32 });
                }
                return;
            }
            WorkerStatus::Starting => true,
            WorkerStatus::Dead => self.respawning.contains(to),
        };
        match item {
            QueueItem::Data(_) if buffers && rt.queue.len() < self.config.transport_buffer => {
                rt.queue.push_back(item);
            }
            QueueItem::Data(d) => {
                self.stats.events_dropped += 1;
                self.trace.record(TraceEvent::EventDropped { root: d.root, at: sched.now() });
            }
            QueueItem::Control(_) => {
                self.stats.control_dropped += 1;
            }
        }
    }

    fn on_wake(&mut self, instance: usize, sched: &mut Scheduler<'_, Ev>) {
        let meta = *self.tables.meta(instance);
        let latency = meta.latency;
        let is_operator = meta.kind == TaskKind::Operator;
        let rt = &mut self.runtimes[instance];
        if rt.busy() || rt.status != WorkerStatus::Running {
            return;
        }
        while let Some(item) = rt.queue.pop_front() {
            match item {
                QueueItem::Data(d) => {
                    if !rt.initialized {
                        rt.buffer_pre_init(d);
                        continue;
                    }
                    // Under a key-range capture only events whose key
                    // falls in a migrating range are diverted; cold-range
                    // events keep processing through the migration.
                    let captures = rt.capture
                        && is_operator
                        && match rt.capture_ranges() {
                            None => true,
                            Some(ranges) => {
                                let p = self.tables.partition_of(meta.task, key_hash(d.root.0));
                                ranges.iter().any(|r| r.contains(p))
                            }
                        };
                    if captures {
                        rt.pending.push(d);
                        self.stats.events_captured += 1;
                        continue;
                    }
                    rt.current = Some(Work::Data(d));
                    // A zero latency (a sink's) jitters to zero without a draw.
                    let service = self.rng.jittered(latency, EngineConfig::TASK_LATENCY_JITTER);
                    sched.after(service, Ev::Finish { instance: instance as u32 });
                    return;
                }
                QueueItem::Control(c) => {
                    rt.current = Some(Work::Control(c));
                    sched.after(
                        EngineConfig::CONTROL_LATENCY,
                        Ev::Finish { instance: instance as u32 },
                    );
                    return;
                }
            }
        }
    }

    fn on_finish(&mut self, instance: usize, sched: &mut Scheduler<'_, Ev>) {
        let Some(work) = self.runtimes[instance].current.take() else {
            return; // killed mid-work
        };
        match work {
            Work::Data(d) => self.finish_data(instance, d, sched),
            Work::Control(c) => self.finish_control(instance, c, sched),
            Work::Persist(c) => self.finish_persist(instance, c, sched),
            Work::Restore(c) => self.finish_restore(instance, c, sched),
        }
        let rt = &self.runtimes[instance];
        if !rt.busy() && !rt.queue.is_empty() && rt.status == WorkerStatus::Running {
            sched.now_event(Ev::Wake { instance: instance as u32 });
        }
    }

    fn finish_data(&mut self, instance: usize, d: DataEvent, sched: &mut Scheduler<'_, Ev>) {
        let meta = *self.tables.meta(instance);
        let task = meta.task;
        let kind = meta.kind;
        self.runtimes[instance].processed += 1;
        if meta.keyed {
            let parts = meta.key_partitions as usize;
            let p = self.tables.partition_of(task, key_hash(d.root.0)) as usize;
            let rt = &mut self.runtimes[instance];
            if rt.key_processed.len() < parts {
                rt.key_processed.resize(parts, 0);
            }
            rt.key_processed[p] += 1;
        }
        if d.replayed {
            self.stats.replayed_event_messages += 1;
        }

        match kind {
            TaskKind::Sink => {
                self.stats.sink_arrivals += 1;
                let old = self.migration_requested_at.is_none_or(|r| d.generated_at < r);
                self.trace.record(TraceEvent::SinkArrival {
                    root: d.root,
                    at: sched.now(),
                    generated_at: d.generated_at,
                    old,
                    replayed: d.replayed,
                });
                if self.protocol.ack_user_events {
                    self.apply_ack(d.root, d.id, sched);
                }
            }
            TaskKind::Operator => {
                self.stats.events_processed += 1;
                let mut children_xor = 0u64;
                for edge in 0..self.tables.out_degree(task) {
                    let id = self.rng.id();
                    children_xor ^= id;
                    let child = DataEvent {
                        id,
                        root: d.root,
                        generated_at: d.generated_at,
                        replayed: d.replayed,
                    };
                    let to = self.route(instance, task, edge, d.root);
                    self.deliver(QueueItem::Data(child), Some(instance), to, sched);
                }
                if self.protocol.ack_user_events {
                    self.apply_ack(d.root, d.id ^ children_xor, sched);
                }
            }
            TaskKind::Source => unreachable!("sources do not process queue items"),
        }
    }

    fn apply_ack(&mut self, root: RootId, update: u64, sched: &mut Scheduler<'_, Ev>) {
        if self.acker.apply(root, update) == AckOutcome::Complete {
            self.stats.roots_acked += 1;
            self.trace.record(TraceEvent::RootAcked { root, at: sched.now() });
            if let Some(cached) = self.cache.remove(&root) {
                // Completion frees one pending slot at the owning spout
                // only; sibling spouts are gated on their own counts.
                self.in_flight[cached.source] = self.in_flight[cached.source].saturating_sub(1);
                self.maybe_schedule_drain(cached.source, sched);
            }
        }
    }

    fn on_acker_scan(&mut self, sched: &mut Scheduler<'_, Ev>) {
        // `expire` hands back failed roots oldest-registration-first, so the
        // retry queues below preserve Storm's FIFO replay order.
        for root in self.acker.expire(sched.now()) {
            self.stats.roots_failed += 1;
            self.trace.record(TraceEvent::RootFailed { root, at: sched.now() });
            if let Some(cached) = self.cache.remove(&root) {
                // A failed root frees its pending slot and queues for
                // re-emission through the spout's gated loop — Storm's
                // closed-loop flow control, which is what lets DSM's replay
                // storms eventually damp out. The cache entry is *removed*,
                // not peeked: the retry queue now owns the root, so a
                // straggler ack completing the expired incarnation finds
                // nothing in the cache and cannot decrement the spout's
                // `in_flight` ledger a second time.
                self.in_flight[cached.source] = self.in_flight[cached.source].saturating_sub(1);
                self.sources[cached.source].retries.push_back((root, cached.generated_at));
                self.maybe_schedule_drain(cached.source, sched);
            }
        }
        sched.after(EngineConfig::ACKER_SCAN_INTERVAL, Ev::AckerScan);
    }

    // ------------------------------------------------------------------
    // Control plane: waves
    // ------------------------------------------------------------------

    /// Resolves `scope` against the current migration set and key spaces
    /// and installs the result for `kind` waves (removes any scope for
    /// [`WaveScope::AllParticipants`]). A key-range scope also narrows the
    /// rebalance to the scoped members. A scope that resolves to no member
    /// degrades to every participant: a wave nobody is addressed by would
    /// wait forever for its first ack.
    fn install_scope(&mut self, kind: ControlKind, scope: WaveScope) {
        let set = match scope {
            WaveScope::AllParticipants => None,
            WaveScope::KeyRanges(kr) => {
                let set = self.resolve_key_range_scope(kr.hot_weight_permille);
                self.rebalance_scope =
                    Some(set.members.iter().map(InstanceId::from_index).collect());
                self.respawning.clone_from(&set.members);
                Some(set)
            }
        };
        self.scope_sets[kind.index()] = set.filter(|s| !s.members.is_empty());
    }

    /// The migrating instances that take part in waves.
    fn migrating_participants(&self) -> InstanceBitset {
        let mut members = InstanceBitset::with_capacity(self.instances.len());
        for i in &self.migrating {
            if self.participants.contains(i.index()) {
                members.insert(i.index());
            }
        }
        members
    }

    /// Resolves a key-range scope: for each migrating participant, keyed
    /// tasks contribute the instance only if it owns at least one hot
    /// partition (partition `p` is owned by the task replica at slot
    /// `p % replicas`), sliced to those partitions; unkeyed tasks migrate
    /// whole-instance. Falls back to the full migrating set if no instance
    /// owns any hot partition (e.g. a key-range scope over an unkeyed DAG
    /// degenerates to the migrating instances).
    fn resolve_key_range_scope(&self, permille: u16) -> ScopeSet {
        let n = self.instances.len();
        let mut members = InstanceBitset::with_capacity(n);
        let mut ranges: Vec<Vec<KeyRange>> = vec![Vec::new(); n];
        for &iid in &self.migrating {
            let i = iid.index();
            if !self.participants.contains(i) {
                continue;
            }
            let meta = self.tables.meta(i);
            if !meta.keyed {
                members.insert(i);
                continue;
            }
            let (slot, k) = (meta.slot, meta.task_replicas);
            let owned: Vec<u32> = self
                .dag
                .spec(meta.task)
                .hot_ranges(permille)
                .iter()
                .flat_map(|r| r.start..r.end)
                .filter(|p| p % k == slot)
                .collect();
            if owned.is_empty() {
                continue; // this replica's state is all cold: it stays put
            }
            members.insert(i);
            ranges[i] = compress_partitions(owned);
        }
        if members.is_empty() {
            // Nothing owns a hot partition (all-cold edge case): degrade
            // to the migrating instances rather than wedge a zero-target wave.
            return ScopeSet { members: self.migrating_participants(), ranges: Vec::new() };
        }
        ScopeSet { members, ranges }
    }

    /// Participants the current `kind` wave addresses — the completion
    /// denominator for scoped waves.
    fn wave_target_count(&self, kind: ControlKind) -> usize {
        self.scope_sets[kind.index()].as_ref().map_or(self.participants.len(), |s| s.members.len())
    }

    /// The hot key ranges the current `kind` wave slices `instance` to,
    /// if that wave is key-range scoped and `instance` is a keyed member.
    fn scoped_ranges(&self, kind: ControlKind, instance: usize) -> Option<&Vec<KeyRange>> {
        self.scope_sets[kind.index()]
            .as_ref()
            .and_then(|s| s.ranges.get(instance))
            .filter(|r| !r.is_empty())
    }

    /// The range of `instance`'s whole-instance blob: the one its last
    /// unscoped COMMIT wrote, else its current key space.
    fn committed_range(&self, instance: usize) -> KeyRange {
        self.runtimes[instance]
            .committed
            .unwrap_or_else(|| KeyRange::whole(self.tables.meta(instance).key_partitions))
    }

    /// Store-op pricing surcharge for the per-partition counters that a
    /// persist/fetch of `ranges` carries, in pending-event equivalents
    /// (zero for unkeyed state, which keeps pre-keyed pricing
    /// byte-identical).
    fn counter_event_equiv(keyed: bool, ranges: &[KeyRange]) -> usize {
        if !keyed {
            return 0;
        }
        Self::counters_event_equiv(ranges.iter().map(|r| r.len() as usize).sum())
    }

    /// `counters` per-partition counters in pending-event equivalents.
    fn counters_event_equiv(counters: usize) -> usize {
        (std::mem::size_of::<u64>() * counters).div_ceil(std::mem::size_of::<DataEvent>())
    }

    /// Fetch payload of `instance`'s whole-instance blob, the one
    /// [`committed_range`](Self::committed_range) names: its captured
    /// events plus its counters, in pending-event equivalents. `None` if
    /// the store holds no such blob.
    fn committed_blob_payload(&self, instance: usize) -> Option<usize> {
        let iid = InstanceId::from_index(instance);
        self.store
            .peek(iid, self.committed_range(instance))
            .map(|blob| blob.pending.len() + Self::counters_event_equiv(blob.key_counts.len()))
    }

    fn start_wave(
        &mut self,
        kind: ControlKind,
        routing: WaveRouting,
        sched: &mut Scheduler<'_, Ev>,
    ) -> u32 {
        let wave = {
            let w = &mut self.next_wave[kind.index()];
            let current = *w;
            *w += 1;
            current
        };
        self.wave_routing[kind.index()] = Some(routing);
        let n = self.instances.len();
        self.trackers[kind.index()].get_or_insert_with(|| WaveTracker::new(n));
        self.trace.record(TraceEvent::ControlWave { kind, wave, at: sched.now() });

        let injections: Vec<(usize, ControlSender)> = if routing == WaveRouting::Sequential {
            // Enter at root operator tasks: one injection per (source
            // upstream, instance), impersonating that source for the
            // alignment accounting.
            let mut injections: Vec<(usize, ControlSender)> = Vec::new();
            for src in self.dag.sources() {
                for &child in self.dag.downstream(src) {
                    for &inst in self.instances.of_task(child) {
                        injections.push((inst.index(), ControlSender::CheckpointSource(src)));
                    }
                }
            }
            injections
        } else {
            // Hub-and-spoke from the checkpoint source; sender identity is
            // irrelevant (no alignment). A scoped wave targets only the
            // scope's members. Re-sent parallel waves target only the
            // instances still missing (e.g. workers that dropped the INIT
            // while starting): already-acked instances would ack as
            // duplicates without advancing any window, wedging the shard
            // behind them.
            let members =
                self.scope_sets[kind.index()].as_ref().map_or(&self.participants, |s| &s.members);
            let from = ControlSender::CheckpointSource(TaskId::from_index(0));
            if let WaveRouting::Parallel { fan_out } = routing {
                // Paced by the sharded store: every shard serves at most
                // `fan_out` in-flight operations; the rest of the shard's
                // instances queue in `parallel_pending` and are injected
                // one by one as operations complete
                // (`advance_parallel_wave`). Shards progress concurrently,
                // so wave time is the max over shards, not the sum. The
                // fair-share window derives from the *scoped* participant
                // count: a scoped wave with the full-set window would let
                // every operation through at once.
                let scoped_participants = self.wave_target_count(kind);
                let window = self.effective_fan_out(fan_out, scoped_participants);
                let acked = self.trackers[kind.index()].as_ref().map(|t| &t.acked);
                let is_target =
                    |i: usize| members.contains(i) && !acked.is_some_and(|a| a.contains(i));
                let mut queues: Vec<VecDeque<usize>> =
                    vec![VecDeque::new(); self.store.shard_count()];
                let mut injections: Vec<(usize, ControlSender)> = Vec::new();
                // Shard by shard (the injection order the pinned traces
                // fix), each shard's first `window` targets in index order
                // are injected now; only the rest queue.
                for (shard, queue) in queues.iter_mut().enumerate() {
                    let mut targets =
                        self.store.shard_instances(shard, n).filter(|&i| is_target(i));
                    injections.extend(targets.by_ref().take(window).map(|to| (to, from)));
                    queue.extend(targets);
                }
                self.parallel_pending[kind.index()] = Some(queues);
                injections
            } else {
                members.iter().map(|to| (to, from)).collect()
            }
        };
        // One remote-network epoch of head start keeps a parallel wave a
        // rearguard: every data event still in flight when the wave began
        // (emissions have ceased by then for the strategies that window
        // their waves) reaches its queue first.
        let guard = match routing {
            WaveRouting::Parallel { .. } => EngineConfig::NET_LATENCY_REMOTE,
            _ => SimDuration::ZERO,
        };
        self.deliver_wave_batch(injections, kind, wave, guard, sched);
        wave
    }

    /// Resolves a wave's per-shard window: 0 derives it from the store
    /// topology (`ceil(participants / store_shards)` — see
    /// [`EngineConfig::derived_fan_out`]). `participants` is the wave's
    /// *effective* participant count — the scoped member count for a
    /// scoped wave, the full set otherwise — so a scoped wave's fair
    /// share does not over-provision against the instances that are not
    /// migrating.
    fn effective_fan_out(&self, fan_out: usize, participants: usize) -> usize {
        if fan_out > 0 {
            return fan_out;
        }
        self.config.derived_fan_out(participants)
    }

    /// The routing of the most recent `kind` wave (sequential before any
    /// wave of that kind has started). A sequential wave is forwarded hop
    /// by hop and aligned at every instance; a parallel one runs in
    /// store-paced windows behind a one-epoch guard; a broadcast is
    /// neither.
    fn routing(&self, kind: ControlKind) -> WaveRouting {
        self.wave_routing[kind.index()].unwrap_or(WaveRouting::Sequential)
    }

    /// Prices one store round-trip for `instance`: the latency model's
    /// service time for `pending_events`, admitted through the instance's
    /// shard queue, which the store serves under
    /// [`EngineConfig::store_service`] and
    /// [`EngineConfig::store_replication`] and counts in its shard's
    /// [`ShardStats`](crate::ShardStats). Under per-shard FIFO queueing a
    /// saturated shard delays the operation; the wait is traced as a
    /// [`TraceEvent::StoreQueueWait`] so contention is observable rather
    /// than silently absorbed. Replicated persists additionally record a
    /// [`TraceEvent::QuorumPersist`].
    ///
    /// Returns `None` when the operation *fails* — too few live replicas
    /// on the instance's shard ([`TraceEvent::StoreOpFailed`]). The caller
    /// simply doesn't schedule a completion: the instance never acks its
    /// wave, the phase deadline fires, and the coordinator takes the
    /// existing ROLLBACK path — exactly how a real store outage surfaces.
    fn store_admit(
        &mut self,
        instance: usize,
        pending_events: usize,
        kind: StoreOpKind,
        sched: &mut Scheduler<'_, Ev>,
    ) -> Option<SimDuration> {
        let iid = InstanceId::from_index(instance);
        let service = self.config.store.op_cost(pending_events);
        let now = sched.now();
        let replication = self.config.store_replication;
        let outcome = self.store.admit(iid, now, service, kind);
        let shard = self.store.shard_of(iid);
        let AdmitOutcome::Served { delay, wait, degraded } = outcome else {
            self.trace.record(TraceEvent::StoreOpFailed { instance: iid, shard, at: now });
            return None;
        };
        if !wait.is_zero() {
            self.trace.record(TraceEvent::StoreQueueWait { instance: iid, shard, wait, at: now });
        }
        if kind == StoreOpKind::Persist && replication.is_replicated() {
            self.trace.record(TraceEvent::QuorumPersist {
                instance: iid,
                shard,
                replicas: replication.replicas as u32,
                quorum: replication.write_quorum as u32,
                degraded,
                at: now,
            });
        }
        Some(delay)
    }

    /// After an instance concludes its part in a parallel `kind` wave,
    /// injects the next queued instance of the same store shard — the
    /// per-shard completion aggregation that keeps at most `fan_out`
    /// operations in flight per shard.
    fn advance_parallel_wave(
        &mut self,
        kind: ControlKind,
        instance: usize,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        if !matches!(self.routing(kind), WaveRouting::Parallel { .. }) {
            return;
        }
        let shard = self.tables.meta(instance).store_shard as usize;
        let next = match self.parallel_pending[kind.index()].as_mut() {
            Some(queues) => match queues.get_mut(shard).and_then(VecDeque::pop_front) {
                Some(next) => next,
                None => return,
            },
            None => return,
        };
        // Waves number from 0; `next_wave` already holds the *next* one.
        // A windowed wave can only be advancing if `start_wave` ran for
        // this kind, so the counter must be positive — guessing wave 0
        // here would mis-tag resent parallel waves.
        let wave = match self.next_wave[kind.index()] {
            w if w > 0 => w - 1,
            _ => {
                debug_assert!(false, "advancing a {kind:?} wave that never started");
                return;
            }
        };
        let from = ControlSender::CheckpointSource(TaskId::from_index(0));
        self.deliver(QueueItem::Control(ControlEvent { kind, wave, from }), None, next, sched);
    }

    /// Fans a control wave out from the checkpoint source: injections with
    /// the same network delay share one instant, so each delay class is
    /// handed to the future-event list as a single batch
    /// ([`Scheduler::after_batch`]) instead of one insertion per target.
    /// Within a class the injection order is kept, and classes never tie on
    /// the due instant, so dispatch order matches per-target delivery.
    /// `extra` shifts every class by a fixed head start (parallel waves'
    /// rearguard guard; zero for broadcast/sequential).
    fn deliver_wave_batch(
        &mut self,
        injections: Vec<(usize, ControlSender)>,
        kind: ControlKind,
        wave: u32,
        extra: SimDuration,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        let mut classes: Vec<(SimDuration, Vec<Ev>)> = Vec::new();
        for (to, from) in injections {
            let delay = extra + self.net_delay(None, to);
            let ev = Ev::Deliver {
                to: to as u32,
                item: QueueItem::Control(ControlEvent { kind, wave, from }),
            };
            match classes.iter_mut().find(|(d, _)| *d == delay) {
                Some((_, batch)) => batch.push(ev),
                None => classes.push((delay, vec![ev])),
            }
        }
        for (delay, batch) in classes {
            sched.after_batch(delay, batch);
        }
    }

    fn already_acked(&self, kind: ControlKind, instance: usize) -> bool {
        self.trackers[kind.index()].as_ref().is_some_and(|t| t.acked.contains(instance))
    }

    fn finish_control(&mut self, instance: usize, c: ControlEvent, sched: &mut Scheduler<'_, Ev>) {
        self.stats.control_processed += 1;
        match c.kind {
            ControlKind::Prepare => {
                if !self.runtimes[instance].initialized {
                    // An uninitialized executor cannot snapshot state; the
                    // wave stalls and the coordinator rolls it back (§2's
                    // "ROLLBACK is sent if the prepare was not acked").
                    return;
                }
                if self.already_acked(ControlKind::Prepare, instance) {
                    return;
                }
                let sequential = self.routing(ControlKind::Prepare) == WaveRouting::Sequential;
                if sequential {
                    let seen = self.runtimes[instance].record_sender(ControlKind::Prepare, c.from);
                    if seen < self.expected_senders[instance] {
                        return; // waiting for the barrier to align
                    }
                    self.runtimes[instance].clear_alignment(ControlKind::Prepare);
                }
                if self.protocol.capture_on_prepare {
                    // A key-range PREPARE narrows the capture to the
                    // instance's migrating ranges; `None` captures all.
                    let ranges = self.scoped_ranges(ControlKind::Prepare, instance).cloned();
                    self.runtimes[instance].start_capture(ranges);
                } else {
                    // Without a capture the instance keeps processing until
                    // COMMIT, so snapshot the state it persists now.
                    self.runtimes[instance].snapshot_prepared();
                }
                if sequential {
                    self.forward_control(instance, c, sched);
                }
                self.ack_control(instance, ControlKind::Prepare, sched);
            }
            ControlKind::Commit => {
                if !self.runtimes[instance].initialized {
                    return;
                }
                if self.already_acked(ControlKind::Commit, instance) {
                    return;
                }
                if self.routing(ControlKind::Commit) == WaveRouting::Sequential {
                    // Barrier alignment only applies to the hop-by-hop
                    // sweep; hub-and-spoke COMMITs act on first receipt.
                    let seen = self.runtimes[instance].record_sender(ControlKind::Commit, c.from);
                    if seen < self.expected_senders[instance] {
                        return;
                    }
                    self.runtimes[instance].clear_alignment(ControlKind::Commit);
                }
                // Second half: persist to the state store (service time
                // plus any per-shard queueing delay). Keyed state adds the
                // per-partition counters of the ranges the wave moves, so
                // a key-range persist is priced by the bytes actually
                // moving.
                let pending_len = if self.protocol.capture_on_prepare {
                    self.runtimes[instance].pending.len()
                } else {
                    0
                };
                let meta = self.tables.meta(instance);
                let whole = [KeyRange::whole(meta.key_partitions)];
                let ranges = self
                    .scoped_ranges(ControlKind::Commit, instance)
                    .map_or(&whole[..], Vec::as_slice);
                let payload = pending_len + Self::counter_event_equiv(meta.keyed, ranges);
                let Some(cost) = self.store_admit(instance, payload, StoreOpKind::Persist, sched)
                else {
                    return; // shard down: the COMMIT stalls toward rollback
                };
                self.runtimes[instance].current = Some(Work::Persist(c));
                sched.after(cost, Ev::Finish { instance: instance as u32 });
            }
            ControlKind::Rollback => {
                if self.already_acked(ControlKind::Rollback, instance) {
                    return;
                }
                let rt = &mut self.runtimes[instance];
                rt.roll_back();
                if !rt.initialized {
                    // Storm's rollback semantics: re-init from the last
                    // committed state, priced by the blob it reads.
                    let payload = self.committed_blob_payload(instance).unwrap_or(0);
                    let Some(cost) = self.store_admit(instance, payload, StoreOpKind::Fetch, sched)
                    else {
                        return; // shard down: the resend timer retries later
                    };
                    self.runtimes[instance].current = Some(Work::Restore(c));
                    sched.after(cost, Ev::Finish { instance: instance as u32 });
                    return;
                }
                self.ack_control(instance, ControlKind::Rollback, sched);
            }
            ControlKind::Init => {
                let rt = &self.runtimes[instance];
                if rt.initialized && !rt.capture {
                    // Duplicate INIT: skip restore, still forward + ack
                    // (§3.1: "skips processing this event if the task has
                    // already restored its state").
                    if self.routing(ControlKind::Init) == WaveRouting::Sequential {
                        self.forward_control(instance, c, sched);
                    }
                    self.ack_control(instance, ControlKind::Init, sched);
                    return;
                }
                // The round-trip is priced by the pending events stored in
                // the blobs it reads and the counters of the ranges the
                // wave moves: a key-range INIT fetches only the hot range
                // blobs, a whole-instance INIT the blob its COMMIT wrote,
                // counters and all — a staged logic update may have
                // re-keyed the task since, so that blob's counters, not
                // the current key space's, are what moves.
                let iid = InstanceId::from_index(instance);
                let meta = self.tables.meta(instance);
                let payload = match self.scoped_ranges(ControlKind::Init, instance) {
                    Some(ranges) => {
                        self.store.peek_pending_len(iid, ranges)
                            + Self::counter_event_equiv(meta.keyed, ranges)
                    }
                    None => self.committed_blob_payload(instance).unwrap_or_else(|| {
                        Self::counter_event_equiv(
                            meta.keyed,
                            &[KeyRange::whole(meta.key_partitions)],
                        )
                    }),
                };
                let Some(cost) = self.store_admit(instance, payload, StoreOpKind::Fetch, sched)
                else {
                    return; // shard down: INIT resends retry after recovery
                };
                self.runtimes[instance].current = Some(Work::Restore(c));
                sched.after(cost, Ev::Finish { instance: instance as u32 });
            }
        }
    }

    /// The COMMIT second half: persists one [`StateBlob`] per key range the
    /// wave moves, addressed by `(instance, range)`. A whole-instance
    /// COMMIT moves the single range [`KeyRange::whole`] and puts every
    /// persisted pending event into that one blob, hashing no key. Under a
    /// key-range scope each pending event's partition is computed once to
    /// file it under its range, and the cold-range counters stay in place —
    /// they never touch the store.
    fn finish_persist(&mut self, instance: usize, c: ControlEvent, sched: &mut Scheduler<'_, Ev>) {
        let iid = InstanceId::from_index(instance);
        let meta = *self.tables.meta(instance);
        let parts = meta.key_partitions as usize;
        let scoped = self.scoped_ranges(ControlKind::Commit, instance).cloned();
        let whole = [KeyRange::whole(meta.key_partitions)];
        let ranges = scoped.as_deref().unwrap_or(&whole);
        let rt = &mut self.runtimes[instance];
        let (processed, mut counts) =
            rt.take_prepared().unwrap_or_else(|| (rt.processed, rt.key_processed.clone()));
        if !meta.keyed {
            counts.clear(); // unkeyed blobs carry no counters
        } else if counts.len() < parts {
            counts.resize(parts, 0);
        }
        let mut pending = if self.protocol.capture_on_prepare {
            std::mem::take(&mut rt.pending)
        } else {
            Vec::new()
        };
        let mut buckets: Vec<Vec<DataEvent>> = Vec::new();
        if scoped.is_none() {
            rt.committed = Some(whole[0]);
        } else {
            buckets.resize_with(ranges.len(), Vec::new);
            let mut resident = Vec::new();
            for d in pending {
                let p = self.tables.partition_of(meta.task, key_hash(d.root.0));
                match ranges.iter().position(|r| r.contains(p)) {
                    Some(idx) => buckets[idx].push(d),
                    None => resident.push(d),
                }
            }
            pending = resident;
        }
        let mut moved_bytes = 0u64;
        for (idx, &range) in ranges.iter().enumerate() {
            // A whole-instance blob carries the instance's state as is; a
            // range blob carries its partitions' counters and captured
            // events, and its user state is the events those partitions saw.
            let (processed, key_counts, bucket) = if scoped.is_none() {
                (processed, std::mem::take(&mut counts), std::mem::take(&mut pending))
            } else {
                let key_counts = counts[range.start as usize..range.end as usize].to_vec();
                (key_counts.iter().sum(), key_counts, std::mem::take(&mut buckets[idx]))
            };
            let blob = StateBlob { processed, pending: bucket, key_counts };
            moved_bytes += blob.byte_size();
            self.stats.state_bytes_moved +=
                (std::mem::size_of::<u64>() * (1 + blob.key_counts.len())) as u64;
            self.store.put(iid, range, blob);
        }
        // The capture filter only diverts hot-range events, so anything
        // left (events queued before the scope was installed) stays
        // resident as pending.
        if !pending.is_empty() {
            self.runtimes[instance].pending = pending;
        }
        self.stats.state_persists += 1;
        if scoped.is_some() {
            let (slot, k) = (meta.slot, meta.task_replicas);
            let resident_partitions = (0..parts as u32)
                .filter(|&p| p % k == slot && !ranges.iter().any(|r| r.contains(p)))
                .count() as u64;
            let resident_bytes = std::mem::size_of::<u64>() as u64 * resident_partitions;
            self.stats.state_bytes_resident += resident_bytes;
            self.trace.record(TraceEvent::RangePersist {
                instance: iid,
                ranges: ranges.len() as u32,
                moved_bytes,
                resident_bytes,
                at: sched.now(),
            });
        }
        if self.routing(ControlKind::Commit) == WaveRouting::Sequential {
            self.forward_control(instance, c, sched);
        }
        self.ack_control(instance, ControlKind::Commit, sched);
    }

    /// The INIT second half, and ROLLBACK's re-init of an instance that
    /// lost its state: fetches the blob of every key range the wave moves
    /// (a ROLLBACK reads the whole-instance blob) and rebuilds the instance
    /// from them. The blobs' captured events leave the store with the fetch
    /// ([`ShardedStateStore::restore`]), so a later restore from the same
    /// blobs does not replay them a second time. A whole-instance restore
    /// replaces the user state; a key-range restore merges the fetched hot
    /// counters into the cold ones that stayed in place. Processed events
    /// the restored state no longer counts (a re-init from an older blob)
    /// add to [`EngineStats::processed_rolled_back`].
    fn finish_restore(&mut self, instance: usize, c: ControlEvent, sched: &mut Scheduler<'_, Ev>) {
        let iid = InstanceId::from_index(instance);
        let meta = *self.tables.meta(instance);
        let scoped = match c.kind {
            ControlKind::Init => self.scoped_ranges(ControlKind::Init, instance).cloned(),
            _ => None,
        };
        let whole = [self.committed_range(instance)];
        let ranges = scoped.as_deref().unwrap_or(&whole);
        let rt = &mut self.runtimes[instance];
        let processed_before = rt.processed;
        let parts = meta.key_partitions as usize;
        if scoped.is_none() {
            rt.key_processed.clear(); // a whole-instance restore replaces them
        } else if rt.key_processed.len() < parts {
            rt.key_processed.resize(parts, 0);
        }
        let (mut processed, mut moved_bytes) = (0u64, 0u64);
        let mut fetched_pending: Vec<DataEvent> = Vec::new();
        for &range in ranges {
            let Some(mut blob) = self.store.restore(iid, range) else {
                continue;
            };
            moved_bytes += blob.byte_size();
            processed += blob.processed;
            let start = range.start as usize;
            let end = start + blob.key_counts.len();
            if rt.key_processed.len() < end {
                rt.key_processed.resize(end, 0);
            }
            rt.key_processed[start..end].copy_from_slice(&blob.key_counts);
            fetched_pending.append(&mut blob.pending);
        }
        self.stats.state_fetches += 1;
        rt.processed = if scoped.is_some() { rt.key_processed.iter().sum() } else { processed };
        self.stats.processed_rolled_back += processed_before.saturating_sub(rt.processed);
        let pending_replayed = fetched_pending.len() as u32;
        rt.resume(fetched_pending);
        self.stats.pending_replayed += u64::from(pending_replayed);
        if scoped.is_some() {
            self.trace.record(TraceEvent::RangeRestore {
                instance: iid,
                ranges: ranges.len() as u32,
                moved_bytes,
                at: sched.now(),
            });
        }
        self.trace.record(TraceEvent::InstanceRestored {
            instance: iid,
            at: sched.now(),
            pending_replayed,
        });
        if c.kind == ControlKind::Init && self.routing(c.kind) == WaveRouting::Sequential {
            self.forward_control(instance, c, sched);
        }
        self.ack_control(instance, c.kind, sched);
    }

    fn forward_control(&mut self, instance: usize, c: ControlEvent, sched: &mut Scheduler<'_, Ev>) {
        if !self.runtimes[instance].mark_forwarded(c.kind, c.wave) {
            return;
        }
        let task = self.tables.meta(instance).task;
        let from = ControlSender::Upstream(InstanceId::from_index(instance));
        for edge in 0..self.tables.out_degree(task) {
            for t in 0..self.tables.edge(task, edge).targets.len() {
                let to = self.tables.edge(task, edge).targets[t] as usize;
                self.deliver(
                    QueueItem::Control(ControlEvent { kind: c.kind, wave: c.wave, from }),
                    Some(instance),
                    to,
                    sched,
                );
            }
        }
    }

    fn ack_control(&mut self, instance: usize, kind: ControlKind, sched: &mut Scheduler<'_, Ev>) {
        let iid = InstanceId::from_index(instance);
        let target = self.wave_target_count(kind);
        let (newly_acked, start_completion) = {
            let Some(tracker) = self.trackers[kind.index()].as_mut() else {
                return;
            };
            let newly_acked = tracker.acked.insert(instance);
            let complete = tracker.acked.len() >= target;
            let start = complete && !tracker.completed;
            if start {
                tracker.completed = true;
            }
            (newly_acked, start)
        };
        if newly_acked {
            self.trace.record(TraceEvent::ControlAcked { kind, instance: iid, at: sched.now() });
            // A parallel wave frees one slot in this instance's store-shard
            // window; hand it to the shard's next queued instance.
            self.advance_parallel_wave(kind, instance, sched);
        }
        if start_completion {
            self.notify(sched, |c, ctl| c.on_wave_complete(kind, ctl));
        }
    }

    // ------------------------------------------------------------------
    // Rebalance and worker lifecycle
    // ------------------------------------------------------------------

    fn start_rebalance(&mut self, sched: &mut Scheduler<'_, Ev>) {
        self.trace
            .record(TraceEvent::PhaseStarted { phase: MigrationPhase::Rebalance, at: sched.now() });
        // Under a key-range scope only the scoped members (hot-range owners
        // plus unkeyed migrating instances) are redeployed: cold keyed
        // instances keep running through the rebalance. The assignment flip
        // (`on_target`) still covers every migrating instance — only the
        // kill/respawn/state-move cost is scoped.
        for k in 0..self.rebalance_set().len() {
            let iid = self.rebalance_set()[k];
            self.kill(iid, sched.now());
        }
        let duration =
            self.rng.jittered(EngineConfig::REBALANCE_BASE, EngineConfig::REBALANCE_JITTER);
        sched.after(duration, Ev::RebalanceDone);
    }

    /// The instances a rebalance kills and respawns: the scope members
    /// under a key-range scope, every migrating instance otherwise.
    fn rebalance_set(&self) -> &[InstanceId] {
        self.rebalance_scope.as_deref().unwrap_or(&self.migrating)
    }

    /// Kills `instance` at `at`: counts and traces each event it loses,
    /// then traces the kill.
    fn kill(&mut self, instance: InstanceId, at: SimTime) {
        let lost = self.runtimes[instance.index()].kill();
        self.stats.events_dropped += lost.len() as u64;
        for d in lost {
            self.trace.record(TraceEvent::EventDropped { root: d.root, at });
        }
        self.trace.record(TraceEvent::InstanceKilled { instance, at });
    }

    fn on_rebalance_done(&mut self, sched: &mut Scheduler<'_, Ev>) {
        self.on_target = true;
        // Apply staged task-logic updates: the redeployed executors run
        // the new user logic (§7's DAG update on the fly; DCR's clean
        // old/new boundary makes this safe).
        let dag_changed = !self.staged_updates.is_empty();
        for (task, spec) in self.staged_updates.drain(..) {
            self.dag = self.dag.with_spec(task, spec);
        }
        self.trace
            .record(TraceEvent::PhaseEnded { phase: MigrationPhase::Rebalance, at: sched.now() });
        // Respawn exactly the set that was killed: marking a still-running
        // cold instance Starting would wrongly drop its deliveries.
        for k in 0..self.rebalance_set().len() {
            let iid = self.rebalance_set()[k];
            self.runtimes[iid.index()].status = WorkerStatus::Starting;
            let delay = self.config.worker_ready_delay(&mut self.rng);
            sched.after(delay, Ev::WorkerReady { instance: iid.index() as u32 });
        }
        // The routing inputs just changed (assignment flipped to the
        // target, staged logic updates applied): refresh the flat dispatch
        // tables before the coordinator can start an INIT wave against
        // them. The scoped-respawn fast path ends with the rebalance too.
        self.refresh_dispatch_tables(dag_changed);
        self.respawning.clear();
        self.notify(sched, |c, ctl| c.on_rebalance_complete(ctl));
    }

    /// Brings the flat dispatch tables up to date with the current
    /// assignment: re-reads only the VM column, or rebuilds every table
    /// from the dataflow when `dag_changed` (staged logic updates were
    /// applied) — see the crate-level "Dispatch model" section for the
    /// lifecycle.
    fn refresh_dispatch_tables(&mut self, dag_changed: bool) {
        let assignment = if self.on_target { &self.target } else { &self.initial };
        if dag_changed {
            self.tables = DispatchTables::build(
                &self.dag,
                &self.instances,
                assignment,
                self.store.shard_count(),
            );
        } else {
            self.tables.refresh_vms(assignment);
        }
        self.stats.dispatch_rebuilds += 1;
        debug_assert!(self.tables.agrees_with(
            &self.dag,
            &self.instances,
            self.assignment(),
            self.store.shard_count()
        ));
        debug_assert!(self.tables.cursors_consistent(&self.cursors));
    }

    fn on_worker_ready(&mut self, instance: usize, sched: &mut Scheduler<'_, Ev>) {
        let rt = &mut self.runtimes[instance];
        if rt.status != WorkerStatus::Starting {
            return; // outage overlapped; stale readiness
        }
        rt.status = WorkerStatus::Running;
        self.trace.record(TraceEvent::WorkerReady {
            instance: InstanceId::from_index(instance),
            at: sched.now(),
        });
        if !rt.busy() && !self.runtimes[instance].queue.is_empty() {
            sched.now_event(Ev::Wake { instance: instance as u32 });
        }
    }

    fn on_outage_start(&mut self, instance: usize, sched: &mut Scheduler<'_, Ev>) {
        self.kill(InstanceId::from_index(instance), sched.now());
    }

    fn on_outage_end(&mut self, instance: usize, sched: &mut Scheduler<'_, Ev>) {
        self.runtimes[instance].status = WorkerStatus::Running;
        self.trace.record(TraceEvent::WorkerReady {
            instance: InstanceId::from_index(instance),
            at: sched.now(),
        });
    }

    fn on_shard_outage_start(&mut self, shard: usize, down: usize, sched: &mut Scheduler<'_, Ev>) {
        self.store.fail_shard_replicas(shard, down);
        let replicas = self.config.store_replication.replicas.max(1);
        self.trace.record(TraceEvent::ShardDown {
            shard,
            down_replicas: down.min(replicas) as u32,
            at: sched.now(),
        });
    }

    fn on_shard_outage_end(&mut self, shard: usize, sched: &mut Scheduler<'_, Ev>) {
        self.store.restore_shard_replicas(shard);
        self.trace.record(TraceEvent::ShardUp { shard, at: sched.now() });
    }
}

impl Process<Ev> for EngineModel {
    fn handle(&mut self, event: Ev, sched: &mut Scheduler<'_, Ev>) {
        match event {
            Ev::SourceTick { instance } => self.on_source_tick(instance as usize, sched),
            Ev::SourceDrain { instance } => self.on_source_drain(instance as usize, sched),
            Ev::Deliver { to, item } => self.on_deliver(to as usize, item, sched),
            Ev::Wake { instance } => self.on_wake(instance as usize, sched),
            Ev::Finish { instance } => self.on_finish(instance as usize, sched),
            Ev::AckerScan => self.on_acker_scan(sched),
            Ev::CheckpointTimer => {
                self.notify(sched, |c, ctl| c.on_checkpoint_timer(ctl));
                sched.after(EngineConfig::CHECKPOINT_INTERVAL, Ev::CheckpointTimer);
            }
            Ev::RebalanceDone => self.on_rebalance_done(sched),
            Ev::WorkerReady { instance } => self.on_worker_ready(instance as usize, sched),
            Ev::ControlResend { kind } => {
                self.notify(sched, |c, ctl| c.on_resend_timer(kind, ctl));
            }
            Ev::StrategyTimer { token } => {
                self.notify(sched, |c, ctl| c.on_timer(token, ctl));
            }
            Ev::MigrationRequest => {
                self.migration_requested_at = Some(sched.now());
                self.trace.record(TraceEvent::MigrationRequested { at: sched.now() });
                self.notify(sched, |c, ctl| c.on_migration_requested(ctl));
            }
            Ev::OutageStart { instance } => self.on_outage_start(instance as usize, sched),
            Ev::OutageEnd { instance } => self.on_outage_end(instance as usize, sched),
            Ev::ShardOutageStart { shard, down } => {
                self.on_shard_outage_start(shard as usize, down as usize, sched)
            }
            Ev::ShardOutageEnd { shard } => self.on_shard_outage_end(shard as usize, sched),
        }
    }
}

/// The simulated DSPS engine: a deployed dataflow plus its virtual-time
/// driver.
///
/// # Examples
///
/// Run the Linear dataflow at steady state (no migration) for 30 seconds:
///
/// ```
/// use flowmig_cluster::{ScaleDirection, ScalePlan};
/// use flowmig_engine::{Engine, EngineConfig, NoopCoordinator, ProtocolConfig};
/// use flowmig_sim::SimTime;
/// use flowmig_topology::{library, InstanceSet};
///
/// let dag = library::linear();
/// let instances = InstanceSet::plan(&dag);
/// let plan = ScalePlan::paper_scenario(&dag, &instances, ScaleDirection::In)?;
/// let mut engine = Engine::new(
///     dag,
///     instances,
///     &plan,
///     EngineConfig::default(),
///     ProtocolConfig::dcr(),
///     Box::new(NoopCoordinator),
///     42,
/// );
/// engine.run_until(SimTime::from_secs(30));
/// assert!(engine.stats().sink_arrivals > 200); // ~8 ev/s reaching the sink
/// # Ok::<(), flowmig_cluster::ScheduleError>(())
/// ```
#[derive(Debug)]
pub struct Engine {
    sim: Simulation<Ev>,
    model: EngineModel,
}

impl Engine {
    /// Deploys `dag` on `plan`'s initial assignment and prepares the run.
    ///
    /// `instances` must be the same instance expansion the plan was built
    /// from. `seed` makes the whole run reproducible.
    ///
    /// # Panics
    ///
    /// Panics if a source task has a non-positive emit rate or the plan has
    /// no pinned VM.
    pub fn new(
        dag: Dataflow,
        instances: InstanceSet,
        plan: &ScalePlan,
        config: EngineConfig,
        protocol: ProtocolConfig,
        coordinator: Box<dyn MigrationCoordinator>,
        seed: u64,
    ) -> Self {
        let model = EngineModel::new(dag, instances, plan, config, protocol, coordinator, seed);
        let mut sim = Simulation::with_backend(config.queue_backend);
        sim.set_budget(config.event_budget);
        for s in &model.sources {
            sim.schedule(
                SimTime::ZERO + s.interval,
                Ev::SourceTick { instance: s.instance as u32 },
            );
        }
        if protocol.ack_user_events {
            sim.schedule(SimTime::ZERO + EngineConfig::ACKER_SCAN_INTERVAL, Ev::AckerScan);
        }
        if protocol.periodic_checkpoint {
            sim.schedule(SimTime::ZERO + EngineConfig::CHECKPOINT_INTERVAL, Ev::CheckpointTimer);
        }
        Engine { sim, model }
    }

    /// Schedules the user's migration request at `at`. An instant behind
    /// [`now`](Self::now) fires at `now` instead and is counted in
    /// [`EngineStats::sched_clamped_past`]; the same clamp applies to every
    /// `schedule_*` injection below.
    pub fn schedule_migration(&mut self, at: SimTime) {
        self.sim.schedule(at, Ev::MigrationRequest);
    }

    /// Stages a task-logic update to be applied when the migration's
    /// rebalance completes: the redeployed instances run `spec` instead of
    /// the original task logic. This is the paper's §7 extension
    /// ("updating the task logic by re-wiring the DAG on the fly"); pair
    /// it with DCR, whose drain guarantees no event is processed partly by
    /// old and partly by new logic.
    ///
    /// # Panics
    ///
    /// Panics if `spec` changes the task's kind.
    pub fn stage_logic_update(&mut self, task: TaskId, spec: flowmig_topology::TaskSpec) {
        assert_eq!(
            self.model.dag.spec(task).kind(),
            spec.kind(),
            "a logic update cannot change a task's kind"
        );
        self.model.staged_updates.push((task, spec));
    }

    /// Failure injection: `instance` crashes at `at` (losing queue and
    /// state) and its worker recovers `downtime` later.
    pub fn schedule_outage(&mut self, instance: InstanceId, at: SimTime, downtime: SimDuration) {
        self.sim.schedule(at, Ev::OutageStart { instance: instance.index() as u32 });
        self.sim.schedule(at + downtime, Ev::OutageEnd { instance: instance.index() as u32 });
    }

    /// Failure injection: every replica of store shard `shard` goes down
    /// at `at` and comes back `downtime` later. Persists and fetches
    /// against the shard fail while it is down — a checkpoint wave caught
    /// mid-flight stalls into its phase deadline and rolls back.
    ///
    /// # Panics
    ///
    /// Panics if the store has no shard `shard`.
    pub fn schedule_shard_outage(&mut self, shard: usize, at: SimTime, downtime: SimDuration) {
        self.schedule_shard_degradation(shard, usize::MAX, at, downtime);
    }

    /// Failure injection: `down` replicas of store shard `shard` (the
    /// fastest first) go down at `at` and come back `downtime` later.
    /// With [`EngineConfig::store_replication`] configured, a persist
    /// whose quorum still fits in the surviving replicas completes
    /// *degraded* instead of failing.
    ///
    /// # Panics
    ///
    /// Panics if the store has no shard `shard`: checked here, before the
    /// run, rather than when the outage fires.
    pub fn schedule_shard_degradation(
        &mut self,
        shard: usize,
        down: usize,
        at: SimTime,
        downtime: SimDuration,
    ) {
        let shards = self.model.store.shard_count();
        assert!(shard < shards, "no store shard {shard}: the store has {shards} shards");
        self.sim.schedule(at, Ev::ShardOutageStart { shard: shard as u32, down: down as u32 });
        self.sim.schedule(at + downtime, Ev::ShardOutageEnd { shard: shard as u32 });
    }

    /// Runs until `horizon` (sources tick forever, so quiescence only
    /// happens on an empty dataflow).
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        let outcome = self.sim.run_until(&mut self.model, horizon);
        // Mirror the driver's counters and the store's per-shard operation
        // counts into the run stats, so callers see dispatch throughput,
        // queue behaviour and the store's run totals next to the engine's
        // own counters.
        let stats = &mut self.model.stats;
        stats.sim_events = self.sim.processed();
        stats.queue_peak_pending = self.sim.queue_peak_pending() as u64;
        stats.queue_rotations = self.sim.queue_rotations();
        stats.sched_clamped_past = self.sim.clamped_past_schedules();
        let store = &self.model.store;
        let shards = || (0..store.shard_count()).map(|shard| store.shard_stats(shard));
        stats.store_ops_failed = shards().map(|s| s.failed_ops).sum();
        stats.store_ops_queued = shards().map(|s| s.queued_ops).sum();
        stats.store_wait_us = shards().map(|s| s.queued_wait.as_micros()).sum();
        stats.store_quorum_persists = shards().map(|s| s.quorum_persists).sum();
        stats.store_degraded_persists = shards().map(|s| s.degraded_persists).sum();
        outcome
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The trace recorded so far, at the [`EngineConfig::trace`] level.
    pub fn trace(&self) -> &TraceLog {
        &self.model.trace
    }

    /// Consumes the engine and returns the trace.
    pub fn into_trace(self) -> TraceLog {
        self.model.trace
    }

    /// Aggregate counters.
    pub fn stats(&self) -> &EngineStats {
        &self.model.stats
    }

    /// The checkpoint store (for invariant checks in tests and per-shard
    /// COMMIT-wave pricing).
    pub fn store(&self) -> &ShardedStateStore {
        &self.model.store
    }

    /// In-flight (registered, unacked) root count per source, in source
    /// declaration order — what `max.spout.pending` gates each spout on.
    pub fn spout_in_flight(&self) -> &[usize] {
        &self.model.in_flight
    }

    /// Processed-event count of `instance`'s user state.
    pub fn processed_count(&self, instance: InstanceId) -> u64 {
        self.model.runtimes[instance.index()].processed
    }

    /// Per-key-partition processed counters of `instance`'s user state
    /// (empty for unkeyed tasks, or before the first keyed event).
    pub fn key_processed(&self, instance: InstanceId) -> &[u64] {
        &self.model.runtimes[instance.index()].key_processed
    }

    /// Whether `instance`'s user state is initialized.
    pub fn is_initialized(&self, instance: InstanceId) -> bool {
        self.model.runtimes[instance.index()].initialized
    }

    /// Worker status of `instance`.
    pub fn worker_status(&self, instance: InstanceId) -> WorkerStatus {
        self.model.runtimes[instance.index()].status
    }

    /// Input-queue depth of `instance` (including buffered pre-init items).
    pub fn queue_depth(&self, instance: InstanceId) -> usize {
        let rt = &self.model.runtimes[instance.index()];
        rt.queue.len() + rt.pre_init_len()
    }

    /// Number of events currently captured at `instance` (CCR).
    pub fn captured_len(&self, instance: InstanceId) -> usize {
        self.model.runtimes[instance.index()].pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::NoopCoordinator;
    use flowmig_cluster::ScaleDirection;
    use flowmig_topology::library;
    use std::collections::{HashMap, HashSet};

    fn engine_for(dag: Dataflow, protocol: ProtocolConfig, seed: u64) -> Engine {
        let instances = InstanceSet::plan(&dag);
        let plan = ScalePlan::paper_scenario(&dag, &instances, ScaleDirection::In).unwrap();
        Engine::new(
            dag,
            instances,
            &plan,
            EngineConfig::default(),
            protocol,
            Box::new(NoopCoordinator),
            seed,
        )
    }

    #[test]
    fn steady_state_linear_throughput() {
        let mut e = engine_for(library::linear(), ProtocolConfig::dcr(), 1);
        e.run_until(SimTime::from_secs(60));
        // 8 ev/s for 60 s ≈ 480 roots; pipeline fill delay loses a few.
        let arrivals = e.stats().sink_arrivals;
        assert!((440..=480).contains(&arrivals), "arrivals={arrivals}");
        assert_eq!(e.stats().events_dropped, 0);
        assert_eq!(e.stats().roots_failed, 0);
    }

    #[test]
    fn steady_state_grid_fan_rates() {
        let mut e = engine_for(library::grid(), ProtocolConfig::dcr(), 2);
        e.run_until(SimTime::from_secs(60));
        // Sink rate is 4× source rate for Grid (32 ev/s).
        let arrivals = e.stats().sink_arrivals as f64;
        assert!((1_700.0..=1_920.0).contains(&arrivals), "arrivals={arrivals}");
    }

    #[test]
    fn acking_completes_trees_at_steady_state() {
        let mut e = engine_for(library::linear(), ProtocolConfig::dsm(), 3);
        e.run_until(SimTime::from_secs(60));
        assert!(e.stats().roots_acked > 400, "acked={}", e.stats().roots_acked);
        assert_eq!(e.stats().roots_failed, 0);
        assert_eq!(e.stats().replayed_roots, 0);
    }

    #[test]
    fn periodic_checkpoint_timer_fires_for_dsm() {
        // NoopCoordinator ignores the timer; just verify the timer events
        // don't disturb the dataflow.
        let mut e = engine_for(library::linear(), ProtocolConfig::dsm(), 4);
        e.run_until(SimTime::from_secs(65));
        assert_eq!(e.stats().events_dropped, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut e = engine_for(library::star(), ProtocolConfig::dcr(), seed);
            e.run_until(SimTime::from_secs(30));
            (e.stats().sink_arrivals, e.stats().events_processed)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).1, 0);
    }

    #[test]
    fn migration_requested_behind_the_clock_fires_at_now() {
        // Regression: an external schedule behind the clock rewound virtual
        // time (release) or panicked on the past event (debug).
        let mut e = engine_for(library::linear(), ProtocolConfig::dcr(), 6);
        e.run_until(SimTime::from_secs(10));
        e.schedule_migration(SimTime::from_secs(5));
        e.run_until(SimTime::from_secs(20));
        assert_eq!(e.now(), SimTime::from_secs(20));
        assert_eq!(e.stats().sched_clamped_past, 1);
        assert_eq!(e.trace().migration_requested_at(), Some(SimTime::from_secs(10)));
        let times: Vec<SimTime> = e.trace().iter().map(TraceEvent::at).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "trace time ran backwards");
    }

    #[test]
    fn outage_drops_events_and_recovers() {
        let dag = library::linear();
        let instances = InstanceSet::plan(&dag);
        let victim = instances.of_task(dag.task_by_name("t3").unwrap())[0];
        let plan = ScalePlan::paper_scenario(&dag, &instances, ScaleDirection::In).unwrap();
        let mut e = Engine::new(
            dag,
            instances,
            &plan,
            EngineConfig::default(),
            ProtocolConfig::dcr(),
            Box::new(NoopCoordinator),
            5,
        );
        e.schedule_outage(victim, SimTime::from_secs(10), SimDuration::from_secs(5));
        e.run_until(SimTime::from_secs(30));
        assert!(e.stats().events_dropped > 0);
        assert_eq!(e.worker_status(victim), WorkerStatus::Running);
        // Uninitialized after crash: user events buffer rather than process.
        assert!(!e.is_initialized(victim));
    }

    #[test]
    fn only_a_worker_coming_back_buffers_data() {
        // A starting worker and a dead slot a scoped rebalance respawns
        // buffer data up to the transport buffer; any other dead worker
        // drops it, and no worker that is not running takes a control event.
        let mut e = engine_for(library::linear(), ProtocolConfig::dcr(), 1);
        let ops: Vec<usize> = (0..e.model.instances.len())
            .filter(|&i| e.model.tables.meta(i).kind == TaskKind::Operator)
            .take(3)
            .collect();
        let (starting, respawning, dead) = (ops[0], ops[1], ops[2]);
        e.model.runtimes[starting].status = WorkerStatus::Starting;
        e.model.runtimes[respawning].kill();
        e.model.respawning.insert(respawning);
        e.model.runtimes[dead].kill();
        let buffer = e.model.config.transport_buffer;
        let control = ControlEvent {
            kind: ControlKind::Prepare,
            wave: 0,
            from: ControlSender::CheckpointSource(TaskId::from_index(0)),
        };
        for &to in &ops {
            let data = (1..=buffer as u64 + 1).map(|id| {
                let root = RootId(id);
                QueueItem::Data(DataEvent {
                    id,
                    root,
                    generated_at: SimTime::ZERO,
                    replayed: false,
                })
            });
            for item in data.chain([QueueItem::Control(control)]) {
                e.sim.schedule(SimTime::ZERO, Ev::Deliver { to: to as u32, item });
            }
        }
        // The first source tick comes later: only these deliveries run.
        e.run_until(SimTime::from_millis(1));
        let depth = |i: usize| e.model.runtimes[i].queue.len();
        assert_eq!((depth(starting), depth(respawning), depth(dead)), (buffer, buffer, 0));
        assert_eq!(e.stats().events_dropped, buffer as u64 + 3);
        assert_eq!(e.stats().control_dropped, 3);
    }

    /// A coordinator that goes straight to Storm's rebalance on request —
    /// no waves — so the test isolates the table-rebuild path.
    struct RebalanceOnly;

    impl MigrationCoordinator for RebalanceOnly {
        fn on_migration_requested(&mut self, ctl: &mut EngineCtl<'_, '_>) {
            ctl.start_rebalance();
        }

        fn on_wave_complete(&mut self, _kind: ControlKind, _ctl: &mut EngineCtl<'_, '_>) {}

        fn on_rebalance_complete(&mut self, ctl: &mut EngineCtl<'_, '_>) {
            ctl.complete_migration();
        }

        fn on_resend_timer(&mut self, _kind: ControlKind, _ctl: &mut EngineCtl<'_, '_>) {}
    }

    /// Whether every dispatch table agrees with the dynamic lookups — the
    /// `agrees_with` oracle, called directly so release builds check it.
    fn tables_fresh(m: &EngineModel) -> bool {
        m.tables.agrees_with(&m.dag, &m.instances, m.assignment(), m.store.shard_count())
    }

    /// A grid engine under the wave-less [`RebalanceOnly`] coordinator.
    fn rebalance_only_grid() -> Engine {
        let dag = library::grid();
        let instances = InstanceSet::plan(&dag);
        let plan = ScalePlan::paper_scenario(&dag, &instances, ScaleDirection::In).unwrap();
        Engine::new(
            dag,
            instances,
            &plan,
            EngineConfig::default(),
            ProtocolConfig::dcr(),
            Box::new(RebalanceOnly),
            13,
        )
    }

    #[test]
    fn rebalance_rebuilds_tables_without_stale_targets() {
        let mut e = rebalance_only_grid();
        // Construction builds the tables once, against the initial assignment.
        assert_eq!(e.model.stats.dispatch_rebuilds, 1);
        assert!(tables_fresh(&e.model), "tables stale right after construction");

        e.schedule_migration(SimTime::from_secs(10));
        e.run_until(SimTime::from_secs(60));

        // The scale-in kill/respawn switched the engine to the target
        // assignment and refreshed the tables for it, exactly once: a
        // plain flip re-reads only the VM column.
        assert!(e.model.on_target, "rebalance did not complete");
        assert_eq!(e.model.stats.dispatch_rebuilds, 2);
        assert!(tables_fresh(&e.model), "tables stale after rebalance");
        // The scenario genuinely relocates instances across VMs, and the VM
        // column tracks the *target* placement for each of them — a stale
        // table would still answer with pre-rebalance VMs here.
        assert!(e
            .model
            .migrating
            .iter()
            .any(|&i| e.model.initial.vm_of(i) != e.model.target.vm_of(i)));
        for &i in &e.model.migrating {
            assert_eq!(e.model.tables.vm(i.index()), e.model.target.vm_of(i));
        }
        assert!(e.model.respawning.is_empty(), "respawn scope not cleared");
    }

    #[test]
    fn rebalance_with_a_staged_logic_update_rebuilds_every_table() {
        let slower = SimDuration::from_millis(250);
        let staged = || {
            let mut e = rebalance_only_grid();
            let task = e.model.dag.task_by_name("m2").unwrap();
            let keyed = e.model.dag.spec(task).clone().with_latency(slower).with_key_partitions(16);
            e.stage_logic_update(task, keyed);
            e.schedule_migration(SimTime::from_secs(10));
            e
        };
        // The run is deterministic: a first pass finds when the rebalance
        // completes, a second stops just before it to read the cursors.
        let mut probe = staged();
        probe.run_until(SimTime::from_secs(60));
        let (_, done_at) = probe.trace().phase_span(MigrationPhase::Rebalance).unwrap();
        let mut e = staged();
        let task = e.model.dag.task_by_name("m2").unwrap();
        e.run_until(SimTime::from_micros(done_at.as_micros() - 1));
        let bases = |m: &EngineModel| {
            (0..m.instances.len()).map(|i| m.tables.meta(i).cursor_base).collect::<Vec<_>>()
        };
        let (cursors, offsets) = (e.model.cursors.clone(), bases(&e.model));
        assert!(cursors.iter().any(|&c| c > 0), "shuffle routing ran before the rebalance");
        e.run_until(done_at);
        assert_eq!(e.model.stats.dispatch_rebuilds, 2, "the rebalance rebuilt the tables");
        // The rebuild keeps every base offset and every cursor, so each
        // shuffle continues where it stopped rather than restarting at the
        // first replica.
        assert_eq!(bases(&e.model), offsets);
        assert_eq!(e.model.cursors, cursors);
        assert!(e.model.tables.cursors_consistent(&e.model.cursors));
        e.run_until(SimTime::from_secs(60));

        assert!(e.model.on_target, "rebalance did not complete");
        assert_eq!(e.model.stats.dispatch_rebuilds, 2);
        assert!(tables_fresh(&e.model), "tables stale after a logic update");
        for &i in e.model.instances.of_task(task) {
            let meta = e.model.tables.meta(i.index());
            assert_eq!((meta.latency, meta.keyed, meta.key_partitions), (slower, true, 16));
        }
        // Re-reading the VM column alone would have left the updated
        // task's metadata and partitioner stale.
        let m = &e.model;
        let mut vm_only = DispatchTables::build(
            &library::grid(),
            &m.instances,
            &m.initial,
            m.store.shard_count(),
        );
        vm_only.refresh_vms(&m.target);
        assert!(!vm_only.agrees_with(&m.dag, &m.instances, &m.target, m.store.shard_count()));
    }

    #[test]
    fn a_run_without_migration_allocates_no_cold_part() {
        for protocol in [ProtocolConfig::dcr(), ProtocolConfig::ccr(), ProtocolConfig::dsm()] {
            let mut e = engine_for(library::grid(), protocol, 3);
            e.run_until(SimTime::from_secs(60));
            assert!(e.stats().sink_arrivals > 0, "the dataflow ran");
            assert!(
                e.model.runtimes.iter().all(|rt| !rt.has_cold()),
                "steady state touched an instance's cold part"
            );
        }
    }

    #[test]
    fn slow_branch_does_not_throttle_sibling_spout() {
        // Two independent branches: s_fast -> fast -> sink_f at the default
        // 100 ms task latency, and s_slow -> slow -> sink_s where `slow`
        // needs 5 s per event. The slow branch quickly accumulates
        // max.spout.pending unacked roots and throttles; with the per-spout
        // gate the fast branch must keep emitting at full rate. (Under the
        // old global-pending gate, the slow branch's 60 in-flight roots
        // starved the fast spout too, collapsing roots_acked to a trickle.)
        let mut e = engine_for(two_branch_dag(), ProtocolConfig::dsm(), 11);
        e.run_until(SimTime::from_secs(60));

        // The fast branch alone contributes ~8 ev/s × 60 s of completed
        // trees; the slow branch completes at most 12 (one per 5 s).
        let acked = e.stats().roots_acked;
        assert!(acked > 350, "fast branch must not be throttled: acked={acked}");
        // The slow spout did hit its own max.spout.pending gate.
        assert!(e.stats().spout_throttled > 0, "slow spout throttles on its own pending");
        // Per-spout ledgers stay consistent with the acker's global count.
        let total: usize = e.spout_in_flight().iter().sum();
        assert_eq!(total, e.model.acker.pending(), "in-flight ledgers track the acker");
        // One spout is saturated, the other nearly idle.
        let counts = e.spout_in_flight();
        assert!(counts.iter().any(|&c| c >= EngineConfig::MAX_SPOUT_PENDING - 5));
        assert!(counts.iter().any(|&c| c < 10));
    }

    /// Builds the two-branch DAG of `slow_branch_does_not_throttle_sibling_spout`:
    /// a fast 100 ms branch and a slow 5 s/event branch whose trees time
    /// out en masse at the acker scans.
    fn two_branch_dag() -> Dataflow {
        let mut b = flowmig_topology::DataflowBuilder::new("two-branch");
        let s_fast = b.add(flowmig_topology::TaskSpec::source("s_fast", 8.0));
        let fast = b.add(flowmig_topology::TaskSpec::operator("fast"));
        let sink_f = b.add(flowmig_topology::TaskSpec::sink("sink_f"));
        let s_slow = b.add(flowmig_topology::TaskSpec::source("s_slow", 8.0));
        let slow = b.add(
            flowmig_topology::TaskSpec::operator("slow").with_latency(SimDuration::from_secs(5)),
        );
        let sink_s = b.add(flowmig_topology::TaskSpec::sink("sink_s"));
        b.chain(&[s_fast, fast, sink_f]).chain(&[s_slow, slow, sink_s]);
        b.finish().unwrap()
    }

    #[test]
    fn expired_roots_leave_the_replay_cache_while_queued_for_retry() {
        // Regression test for the spout in-flight double-decrement: expiry
        // used to free the pending slot via `cache.get(..)` while *leaving*
        // the root cached, so the cache claimed a slot the retry queue also
        // owned — a straggler ack completing the expired incarnation would
        // decrement the spout ledger a second time. Ownership is now
        // structural: a root queued for retry has NO cache entry until its
        // re-emission re-inserts it. Stopping exactly at an acker scan
        // catches a cohort mid-handoff.
        let mut e = engine_for(two_branch_dag(), ProtocolConfig::dsm(), 11);
        e.run_until(SimTime::from_secs(45)); // scan instant: 30 s timeout, 15 s scans
        let queued: Vec<RootId> =
            e.model.sources.iter().flat_map(|s| s.retries.iter().map(|&(root, _)| root)).collect();
        assert!(!queued.is_empty(), "the slow branch must have expired roots awaiting retry");
        for root in queued {
            assert!(
                !e.model.cache.contains_key(&root),
                "{root} is queued for retry but still cached: the cache and the retry queue \
                 both own its pending slot"
            );
        }
        // The ledgers stayed consistent through the expiry cohort.
        let total: usize = e.spout_in_flight().iter().sum();
        assert_eq!(total, e.model.acker.pending(), "in-flight ledgers track the acker");
    }

    #[test]
    fn straggler_acks_after_expiry_cannot_double_free_spout_slots() {
        // Delayed-ack journey: a 50 s/event operator guarantees every tree
        // completes *after* its 30 s ack timeout, so acks for expired (and
        // already re-emitted) incarnations keep arriving all run long. None
        // of them may free a spout slot: the expired root's cache entry
        // moved to the retry queue, and the re-registered incarnation is
        // completed only by its own tree.
        let mut b = flowmig_topology::DataflowBuilder::new("straggler");
        let s = b.add(flowmig_topology::TaskSpec::source("s", 8.0));
        let op = b.add(
            flowmig_topology::TaskSpec::operator("op").with_latency(SimDuration::from_secs(50)),
        );
        let sink = b.add(flowmig_topology::TaskSpec::sink("sink"));
        b.chain(&[s, op, sink]);
        let dag = b.finish().unwrap();

        let mut e = engine_for(dag, ProtocolConfig::dsm(), 17);
        e.run_until(SimTime::from_secs(180));
        assert!(e.stats().roots_failed > 0, "trees must expire before completing");
        // Straggler sink arrivals did happen (the 50 s pipeline delivers).
        assert!(e.stats().sink_arrivals > 0, "the slow pipeline still delivers");
        // The per-spout ledger equals the acker's pending count: a double
        // decrement would leave it short, quietly loosening the
        // max.spout.pending throttle.
        let total: usize = e.spout_in_flight().iter().sum();
        assert_eq!(total, e.model.acker.pending(), "straggler acks must not unbalance ledgers");
        for &c in e.spout_in_flight() {
            assert!(c <= EngineConfig::MAX_SPOUT_PENDING, "ledger within the throttle bound: {c}");
        }
    }

    #[test]
    fn shard_outage_records_trace_and_recovers() {
        // Without a migration no store operation is in flight, so a shard
        // outage at steady state is pure bookkeeping: the trace records the
        // down/up pair and the store ends the run fully live.
        let mut e = engine_for(library::linear(), ProtocolConfig::dcr(), 5);
        e.schedule_shard_outage(0, SimTime::from_secs(10), SimDuration::from_secs(5));
        e.run_until(SimTime::from_secs(30));
        let down = e
            .trace()
            .iter()
            .find_map(|ev| match *ev {
                TraceEvent::ShardDown { shard, down_replicas, at } => {
                    Some((shard, down_replicas, at))
                }
                _ => None,
            })
            .expect("outage start recorded");
        assert_eq!(down, (0, 1, SimTime::from_secs(10)), "unreplicated store: 1 replica down");
        let up = e
            .trace()
            .iter()
            .find_map(|ev| match *ev {
                TraceEvent::ShardUp { shard, at } => Some((shard, at)),
                _ => None,
            })
            .expect("outage end recorded");
        assert_eq!(up, (0, SimTime::from_secs(15)));
        assert_eq!(e.store().shard_stats(0).down_replicas, 0, "shard fully restored");
        assert_eq!(e.stats().store_ops_failed, 0, "no store traffic at steady state");
    }

    #[test]
    #[should_panic(expected = "no store shard 8: the store has 8 shards")]
    fn shard_outage_beyond_the_store_is_rejected_when_scheduled() {
        let mut e = engine_for(library::linear(), ProtocolConfig::dcr(), 5);
        e.schedule_shard_outage(8, SimTime::from_secs(10), SimDuration::from_secs(5));
    }

    #[test]
    fn failed_roots_replay_in_fifo_order() {
        // Crash an operator so a cohort of trees times out, then check the
        // spout re-emits the failed roots oldest-first (registration order),
        // not in root-id order.
        let dag = library::linear();
        let instances = InstanceSet::plan(&dag);
        let victim = instances.of_task(dag.task_by_name("t3").unwrap())[0];
        let plan = ScalePlan::paper_scenario(&dag, &instances, ScaleDirection::In).unwrap();
        let mut e = Engine::new(
            dag,
            instances,
            &plan,
            EngineConfig::default(),
            ProtocolConfig::dsm(),
            Box::new(NoopCoordinator),
            13,
        );
        e.schedule_outage(victim, SimTime::from_secs(10), SimDuration::from_secs(5));
        e.run_until(SimTime::from_secs(70));
        assert!(e.stats().replayed_roots > 1, "outage must force replays");

        // Only each root's *first* replay is pinned to the original emission
        // order: a root that times out again re-enters the retry queue by
        // its re-registration time, which is FIFO too but not comparable to
        // first-emission instants.
        let mut first_emit = HashMap::new();
        let mut replayed = HashSet::new();
        let mut replay_order = Vec::new();
        for ev in e.trace().iter() {
            if let TraceEvent::SourceEmit { root, at, replay } = *ev {
                if replay {
                    if replayed.insert(root) {
                        replay_order.push(root);
                    }
                } else {
                    first_emit.entry(root).or_insert(at);
                }
            }
        }
        let mut expected = replay_order.clone();
        expected.sort_by_key(|r| (first_emit[r], *r));
        assert_eq!(replay_order, expected, "replays must be served FIFO by original emission");
    }

    #[test]
    fn processed_counts_accumulate() {
        let dag = library::linear();
        let t1 = dag.task_by_name("t1").unwrap();
        let instances = InstanceSet::plan(&dag);
        let inst = instances.of_task(t1)[0];
        let plan = ScalePlan::paper_scenario(&dag, &instances, ScaleDirection::In).unwrap();
        let mut e = Engine::new(
            dag,
            instances,
            &plan,
            EngineConfig::default(),
            ProtocolConfig::dcr(),
            Box::new(NoopCoordinator),
            6,
        );
        e.run_until(SimTime::from_secs(30));
        let count = e.processed_count(inst);
        // ~8 ev/s for 30 s, minus pipeline fill, with generator jitter.
        assert!((215..=250).contains(&count), "count={count}");
    }

    #[test]
    fn effective_fan_out_prefers_explicit_then_derives_from_scoped_count() {
        let e = engine_for(library::linear(), ProtocolConfig::ccr(), 1);
        // An explicit per-wave fan-out wins outright.
        assert_eq!(e.model.effective_fan_out(4, 96), 4);
        // Zero defers to the store topology, derived from the *effective*
        // participant count handed in: a scoped wave's smaller membership
        // yields a smaller per-shard window (default store: 8 shards).
        assert_eq!(e.model.effective_fan_out(0, 96), 12);
        assert_eq!(e.model.effective_fan_out(0, 16), 2, "scoped count shrinks the window");
    }

    fn keyed_pair_dag(partitions: u32, exponent: u32) -> Dataflow {
        let mut b = flowmig_topology::DataflowBuilder::new("keyed-pair");
        let s = b.add(flowmig_topology::TaskSpec::source("s", 8.0));
        let op = b.add(
            flowmig_topology::TaskSpec::operator("op")
                .with_parallelism(2)
                .with_zipf_keys(partitions, exponent),
        );
        let sink = b.add(flowmig_topology::TaskSpec::sink("sink"));
        b.chain(&[s, op, sink]);
        b.finish().unwrap()
    }

    #[test]
    fn keyed_routing_is_sticky_and_counts_accumulate_per_partition() {
        let dag = keyed_pair_dag(8, 1);
        let op = dag.task_by_name("op").unwrap();
        let instances = InstanceSet::plan(&dag);
        let replicas = instances.of_task(op).to_vec();
        assert_eq!(replicas.len(), 2);
        let plan = ScalePlan::paper_scenario(&dag, &instances, ScaleDirection::In).unwrap();
        let mut e = Engine::new(
            dag,
            instances,
            &plan,
            EngineConfig::default(),
            ProtocolConfig::dcr(),
            Box::new(NoopCoordinator),
            6,
        );
        e.run_until(SimTime::from_secs(30));
        let mut total = 0u64;
        for &iid in &replicas {
            let counts = e.key_processed(iid);
            assert!(!counts.is_empty(), "keyed task records per-partition counters");
            let sum: u64 = counts.iter().sum();
            assert_eq!(sum, e.processed_count(iid), "per-key counters cover every event");
            total += sum;
        }
        assert!(total > 200, "keyed operator kept processing the stream: {total}");
        // Keyed shuffle is sticky: partition p always routes to replica
        // p % 2, so the two replicas' partition sets are disjoint.
        let c0 = e.key_processed(replicas[0]).to_vec();
        let c1 = e.key_processed(replicas[1]).to_vec();
        for p in 0..8usize {
            let a = c0.get(p).copied().unwrap_or(0);
            let b = c1.get(p).copied().unwrap_or(0);
            assert!(a == 0 || b == 0, "partition {p} routed to both replicas");
            assert!(a > 0 || b > 0, "partition {p} never routed (zipf covers all 8)");
        }
        // Zipf(1) skew: partition 0 dominates.
        let p0 = c0.first().copied().unwrap_or(0) + c1.first().copied().unwrap_or(0);
        assert!(p0 * 3 > total, "zipf exponent 1 concentrates ~37% of keys on partition 0");
    }

    #[test]
    fn unkeyed_runs_never_touch_key_counters() {
        // Pin-safety probe: on an unkeyed dag the keyed paths must stay
        // cold — no per-key counters, no range blobs in the store.
        let dag = library::linear();
        let instances = InstanceSet::plan(&dag);
        let all: Vec<InstanceId> = instances.user_instances(&dag).collect();
        let plan = ScalePlan::paper_scenario(&dag, &instances, ScaleDirection::In).unwrap();
        let mut e = Engine::new(
            dag,
            instances,
            &plan,
            EngineConfig::default(),
            ProtocolConfig::dcr(),
            Box::new(NoopCoordinator),
            6,
        );
        e.run_until(SimTime::from_secs(30));
        for iid in all {
            assert!(e.key_processed(iid).is_empty());
        }
        assert!(e.store().is_empty());
    }
}
