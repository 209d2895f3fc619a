//! Hot-path micro-benchmarks: acker register/apply/expire, event-queue
//! batch dispatch, and sharded state-store round-trips at 1k/10k/100k
//! pending roots, plus a 10,000-instance checkpoint wave through the store.
//!
//! The acker comparison pits the production bucketed expiry wheel
//! ([`flowmig_engine::Acker`]) against `NaiveScanAcker`, a reimplementation
//! of the pre-wheel ledger (HashMap + full scan per expiry tick): the tick
//! cost of the wheel is O(expired) while the scan is O(pending), which is
//! what keeps 100k in-flight roots affordable. Results are recorded in
//! `EXPERIMENTS.md`; CI runs a reduced-sample smoke pass exporting
//! `BENCH_hotpath.json` (see the criterion shim's `CRITERION_JSON`).

use criterion::{criterion_group, BatchSize, Criterion};
use flowmig_engine::{Acker, ShardedStateStore, StateBlob, StoreOpKind};
use flowmig_metrics::RootId;
use flowmig_sim::{EventQueue, QueueBackend, SimDuration, SimTime};
use flowmig_topology::{InstanceId, KeyRange};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

const BACKENDS: [(QueueBackend, &str); 2] =
    [(QueueBackend::Heap, "heap"), (QueueBackend::Calendar, "calendar")];

const SIZES: [(usize, &str); 3] = [(1_000, "1k"), (10_000, "10k"), (100_000, "100k")];
const TIMEOUT: SimDuration = SimDuration::from_secs(30);

/// The pre-wheel acker: expiry scans every ledger, exactly as the seed
/// implementation did (kept here as the benchmark baseline).
struct NaiveScanAcker {
    ledgers: HashMap<RootId, (u64, SimTime)>,
    timeout: SimDuration,
}

impl NaiveScanAcker {
    fn new(timeout: SimDuration) -> Self {
        NaiveScanAcker { ledgers: HashMap::new(), timeout }
    }

    fn register(&mut self, root: RootId, xor: u64, now: SimTime) {
        self.ledgers.insert(root, (xor, now));
    }

    fn expire(&mut self, now: SimTime) -> Vec<RootId> {
        let timeout = self.timeout;
        let mut expired: Vec<RootId> = self
            .ledgers
            .iter()
            .filter(|(_, &(_, at))| now.saturating_since(at) >= timeout)
            .map(|(&r, _)| r)
            .collect();
        expired.sort();
        for r in &expired {
            self.ledgers.remove(r);
        }
        expired
    }
}

/// Registration instants spread over one second, as a tick-driven source
/// would produce them.
fn spread(i: usize) -> SimTime {
    SimTime::from_micros((i as u64 * 7_919) % 1_000_000)
}

fn bench_acker_register_apply(c: &mut Criterion) {
    let mut group = c.benchmark_group("acker");
    for (n, label) in SIZES {
        group.bench_function(&format!("register_apply_{label}"), |b| {
            b.iter_batched(
                || Acker::new(TIMEOUT),
                |mut acker| {
                    for i in 1..=n as u64 {
                        let root = RootId(i);
                        acker.register(root, i, spread(i as usize));
                        // Chain of 3 hops: op1 -> op2 -> sink.
                        acker.apply(root, i ^ (i << 1));
                        acker.apply(root, (i << 1) ^ (i << 2));
                        acker.apply(root, i << 2);
                    }
                    black_box(acker.pending())
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_acker_expire_tick(c: &mut Criterion) {
    // The steady-state expiry tick: many trees pending, none (or almost
    // none) due. This is the quadratic-ish path the wheel removes — the
    // old scan pays O(pending) per tick even when nothing expires.
    // A no-op tick mutates neither implementation, so one pre-built acker
    // per benchmark is reused across samples — the measurement is the tick
    // alone, free of setup and drop noise.
    let mut group = c.benchmark_group("expire_tick");
    for (n, label) in SIZES {
        group.bench_function(&format!("wheel_{label}_pending"), |b| {
            let mut acker = Acker::new(TIMEOUT);
            for i in 1..=n as u64 {
                acker.register(RootId(i), i, spread(i as usize));
            }
            b.iter(|| black_box(acker.expire(SimTime::from_secs(15)).len()))
        });
        group.bench_function(&format!("naive_scan_{label}_pending"), |b| {
            let mut acker = NaiveScanAcker::new(TIMEOUT);
            for i in 1..=n as u64 {
                acker.register(RootId(i), i, spread(i as usize));
            }
            b.iter(|| black_box(acker.expire(SimTime::from_secs(15)).len()))
        });
    }
    group.finish();
}

fn bench_acker_expire_due(c: &mut Criterion) {
    // The failure-cohort tick: every tree is past its deadline at once
    // (a worker died). Both implementations do O(n) work plus the replay
    // sort; the wheel must not regress this case.
    let mut group = c.benchmark_group("expire_all_due");
    for (n, label) in SIZES {
        group.bench_function(&format!("wheel_{label}"), |b| {
            b.iter_batched(
                || {
                    let mut acker = Acker::new(TIMEOUT);
                    for i in 1..=n as u64 {
                        acker.register(RootId(i), i, spread(i as usize));
                    }
                    acker
                },
                |mut acker| black_box(acker.expire(SimTime::from_secs(31)).len()),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// The 100k-pending mixed-horizon workload the CI tripwire gates on:
/// 100k events, ~87 % within 500 ms (ring traffic), the rest spread out to
/// 30 s (overflow tier), drained in dispatch-style batches with one
/// follow-up rescheduled per eight popped events — the shape an engine run
/// presents to the future-event list. Returns an FNV-1a hash over the pop
/// sequence so callers can assert both backends drained identically.
fn mixed_horizon_churn_100k(backend: QueueBackend) -> u64 {
    let mut q = EventQueue::with_backend(backend);
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut rng = move || {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        state >> 11
    };
    for i in 0..100_000u64 {
        let r = rng();
        let micros = if r % 8 == 0 { r % 30_000_000 } else { r % 500_000 };
        q.schedule(SimTime::from_micros(micros), i);
    }
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut follow_ups = 0u64;
    let mut batch = Vec::new();
    while let Some(t) = q.peek_time() {
        q.pop_due_capped_into(t, usize::MAX, &mut batch);
        for &(at, v) in &batch {
            for b in at.as_micros().to_le_bytes().into_iter().chain(v.to_le_bytes()) {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x100_0000_01b3);
            }
            if v % 8 == 0 && follow_ups < 30_000 {
                follow_ups += 1;
                q.schedule(at + SimDuration::from_micros((v % 997) * 100 + 1), 1_000_000 + v);
            }
        }
        batch.clear();
    }
    hash
}

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    for (backend, label) in BACKENDS {
        group.bench_function(&format!("schedule_pop_singles_10k_{label}"), |b| {
            b.iter(|| {
                let mut q = EventQueue::with_backend(backend);
                for i in 0..10_000u64 {
                    q.schedule(SimTime::from_micros((i * 7_919) % 100_000), i);
                }
                let mut sum = 0u64;
                while let Some((_, v)) = q.pop() {
                    sum = sum.wrapping_add(v);
                }
                black_box(sum)
            })
        });
        group.bench_function(&format!("schedule_batch_pop_due_10k_{label}"), |b| {
            b.iter(|| {
                let mut q = EventQueue::with_backend(backend);
                // 100 instants × 100-event batches, as the engine's delivery
                // waves produce them.
                for instant in 0..100u64 {
                    let due = SimTime::from_millis(instant);
                    q.schedule_batch(due, (0..100u64).map(|i| instant * 100 + i));
                }
                let mut sum = 0u64;
                while let Some(t) = q.peek_time() {
                    for (_, v) in q.pop_due(t) {
                        sum = sum.wrapping_add(v);
                    }
                }
                black_box(sum)
            })
        });
        group.bench_function(&format!("fanout_singles_10k_{label}"), |b| {
            b.iter(|| {
                // A wave fanned out to 10k participants, as handlers emit
                // it: each event dispatched at the instant schedules its
                // follow-up 1 ms out with its own `schedule` call (not
                // `schedule_batch`), for 10 waves.
                let mut q = EventQueue::with_backend(backend);
                for i in 0..10_000u64 {
                    q.schedule(SimTime::ZERO, i);
                }
                let mut batch = Vec::new();
                let mut sum = 0u64;
                for _ in 0..10 {
                    let t = q.peek_time().expect("a wave is pending");
                    q.pop_due_capped_into(t, usize::MAX, &mut batch);
                    for (at, v) in batch.drain(..) {
                        sum = sum.wrapping_add(v);
                        q.schedule(at + SimDuration::from_millis(1), v + 1);
                    }
                }
                black_box((sum, q.len()))
            })
        });
        group.bench_function(&format!("mixed_horizon_100k_{label}"), |b| {
            b.iter(|| black_box(mixed_horizon_churn_100k(backend)))
        });
    }
    group.finish();
}

fn bench_sharded_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("state_store");
    let blob = StateBlob {
        processed: 42,
        pending: (0..2_000u64)
            .map(|i| flowmig_engine::DataEvent {
                id: i + 1,
                root: RootId(i + 1),
                generated_at: SimTime::ZERO,
                replayed: false,
            })
            .collect(),
        key_counts: Vec::new(),
    };
    for shards in [1usize, 8] {
        group.bench_function(&format!("commit_wave_64_instances_{shards}_shards"), |b| {
            b.iter_batched(
                || ShardedStateStore::with_shards(shards),
                |mut store| {
                    let whole = KeyRange::whole(1);
                    for idx in 0..64 {
                        store.put(InstanceId::from_index(idx), whole, blob.clone());
                    }
                    let mut fetched = 0usize;
                    for idx in 0..64 {
                        let blob = store.restore(InstanceId::from_index(idx), whole);
                        fetched += blob.map_or(0, |b| b.pending.len());
                    }
                    black_box((fetched, store.bytes_written()))
                },
                BatchSize::SmallInput,
            )
        });
    }
    // scale-10k's COMMIT/INIT shape: every one of 10,000 instances is
    // admitted and persisted at one instant over 32 flat shards, then
    // peeked, admitted and restored at a later one, so each shard's
    // in-flight window grows to 313 in both waves.
    group.bench_function("commit_init_wave_10k_instances_32_shards", |b| {
        let (commit, init) = (SimTime::from_secs(1), SimTime::from_secs(2));
        let (service, whole) = (SimDuration::from_millis(1), KeyRange::whole(1));
        b.iter_batched(
            || ShardedStateStore::with_shards(32),
            |mut store| {
                for idx in 0..10_000 {
                    let i = InstanceId::from_index(idx);
                    store.admit(i, commit, service, StoreOpKind::Persist);
                    store.put(i, whole, StateBlob::of_count(idx as u64));
                }
                let mut restored = 0u64;
                for idx in 0..10_000 {
                    let i = InstanceId::from_index(idx);
                    let pending = store.peek_pending_len(i, &[whole]) as u64;
                    store.admit(i, init, service, StoreOpKind::Fetch);
                    restored += pending + store.restore(i, whole).map_or(0, |b| b.processed);
                }
                black_box((restored, store.max_queue_depth()))
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(
    hotpath,
    bench_acker_register_apply,
    bench_acker_expire_tick,
    bench_acker_expire_due,
    bench_event_queue,
    bench_sharded_store,
);

/// CI tripwire: the calendar backend must beat the heap by >= 2x on the
/// 100k-pending mixed-horizon workload, or the bench exits non-zero. Both
/// drains must also hash identically — a fast-but-wrong backend fails
/// louder than a slow one.
fn queue_backend_tripwire() {
    let time_and_hash = |backend: QueueBackend| {
        let mut best = f64::INFINITY;
        let mut hash = 0u64;
        // One warm-up + best of 5 timed runs.
        for round in 0..6 {
            let start = Instant::now();
            hash = black_box(mixed_horizon_churn_100k(backend));
            let secs = start.elapsed().as_secs_f64();
            if round > 0 {
                best = best.min(secs);
            }
        }
        (best, hash)
    };
    let (heap_s, heap_hash) = time_and_hash(QueueBackend::Heap);
    let (cal_s, cal_hash) = time_and_hash(QueueBackend::Calendar);
    let speedup = heap_s / cal_s;
    println!(
        "event_queue/mixed_horizon_100k tripwire: heap {:.2} ms, calendar {:.2} ms ({speedup:.2}x)",
        heap_s * 1e3,
        cal_s * 1e3,
    );
    assert_eq!(heap_hash, cal_hash, "backends drained different pop sequences");
    if speedup < 2.0 {
        eprintln!(
            "PERF REGRESSION: calendar backend only {speedup:.2}x faster than heap \
             on the 100k mixed-horizon workload (tripwire requires >= 2x)"
        );
        std::process::exit(1);
    }
}

fn main() {
    hotpath();
    // `cargo test` runs bench targets with libtest flags; skip the wall
    // clock tripwire there, exactly as the criterion harness skips its
    // sampling.
    let libtest = std::env::args().any(|a| a.contains("--test") || a == "--list");
    if !libtest {
        queue_backend_tripwire();
    }
}
