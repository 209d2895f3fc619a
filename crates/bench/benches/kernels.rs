//! Criterion micro-benchmarks of the substrate kernels: acker XOR ledger,
//! DES event queue, state-store round-trips, and complete end-to-end
//! migration runs — the wall-clock cost of the simulation itself.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use flowmig_cluster::ScaleDirection;
use flowmig_core::{Ccr, Dsm, MigrationController};
use flowmig_engine::{Acker, ShardedStateStore, StateBlob};
use flowmig_metrics::RootId;
use flowmig_sim::{EventQueue, SimDuration, SimTime};
use flowmig_topology::{library, InstanceId, KeyRange};
use std::hint::black_box;

fn bench_acker(c: &mut Criterion) {
    c.bench_function("acker_register_ack_1k_trees", |b| {
        b.iter_batched(
            || Acker::new(SimDuration::from_secs(30)),
            |mut acker| {
                for i in 1..=1_000u64 {
                    let root = RootId(i);
                    acker.register(root, i, SimTime::ZERO);
                    // Chain of 4 hops: a -> b -> c -> sink.
                    acker.apply(root, i ^ (i << 1));
                    acker.apply(root, (i << 1) ^ (i << 2));
                    acker.apply(root, i << 2);
                }
                black_box(acker.pending())
            },
            BatchSize::SmallInput,
        )
    });

    c.bench_function("acker_expire_scan_10k_pending", |b| {
        b.iter_batched(
            || {
                let mut acker = Acker::new(SimDuration::from_secs(30));
                for i in 1..=10_000u64 {
                    acker.register(RootId(i), i, SimTime::from_millis(i % 1_000));
                }
                acker
            },
            |mut acker| black_box(acker.expire(SimTime::from_secs(15)).len()),
            BatchSize::SmallInput,
        )
    });
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_schedule_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
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
}

fn bench_state_store(c: &mut Criterion) {
    c.bench_function("state_store_put_get_2k_pending", |b| {
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
        b.iter_batched(
            ShardedStateStore::new,
            |mut store| {
                let (i, whole) = (InstanceId::from_index(0), KeyRange::whole(1));
                store.put(i, whole, blob.clone());
                black_box(store.get(i, whole).map(|b| b.pending.len()))
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);

    group.bench_function("ccr_linear_scale_in_6min", |b| {
        let controller = MigrationController::new()
            .with_request_at(SimTime::from_secs(60))
            .with_horizon(SimTime::from_secs(360));
        b.iter(|| {
            let out = controller
                .run(&library::linear(), &Ccr::new(), ScaleDirection::In)
                .expect("scenario placeable");
            black_box(out.stats.sink_arrivals)
        })
    });

    group.bench_function("dsm_grid_scale_in_12min", |b| {
        let controller = MigrationController::new();
        b.iter(|| {
            let out = controller
                .run(&library::grid(), &Dsm::new(), ScaleDirection::In)
                .expect("scenario placeable");
            black_box(out.stats.sink_arrivals)
        })
    });

    group.finish();
}

criterion_group!(kernels, bench_acker, bench_event_queue, bench_state_store, bench_end_to_end);
criterion_main!(kernels);
