//! §5.1 micro-benchmark: "it takes just 100 ms to checkpoint 2000 events
//! to Redis from Storm".
//!
//! Prices checkpoints through the store *service model* — the same
//! admission path the engine charges (`ShardedStateStore::admit`) — rather
//! than the raw latency formula: an operation on an idle shard must
//! reproduce the paper's calibration point exactly (the per-shard FIFO
//! queue is a strict extension of the flat model), and a concurrency sweep
//! shows what the zero-queueing compatibility mode silently absorbs — k
//! simultaneous 2 000-event checkpoints on one shard are "free" under flat
//! pricing but serialize to k × 100 ms under
//! [`StoreServiceModel::FifoPerShard`]. A live CCR capture+commit then
//! verifies durability end to end.

use flowmig_bench::{banner, paper};
use flowmig_engine::{
    ShardedStateStore, StateBlob, StoreLatencyModel, StoreOpKind, StoreReplication,
    StoreServiceModel,
};
use flowmig_metrics::RootId;
use flowmig_sim::SimTime;
use flowmig_topology::{InstanceId, KeyRange};
use flowmig_workloads::TextTable;

/// A one-shard store serving concurrent load under `model`.
fn one_shard(model: StoreServiceModel) -> ShardedStateStore {
    ShardedStateStore::with_config(1, model, StoreReplication::default())
}

fn main() {
    banner("§5.1 Redis micro", "checkpoint latency vs captured-event count and shard load");

    let model = StoreLatencyModel::default();

    // Service time vs blob size, priced through an idle shard's queue:
    // with no concurrent load the FIFO admission must equal the raw
    // latency formula for every size.
    let mut table = TextTable::new(&["pending events", "persist cost (ms)", "paper"]);
    for n in [0usize, 10, 100, 500, 1_000, 2_000, 5_000] {
        let mut store = one_shard(StoreServiceModel::FifoPerShard);
        let delay = store
            .admit(InstanceId::from_index(0), SimTime::ZERO, model.op_cost(n), StoreOpKind::Persist)
            .delay()
            .expect("a healthy shard serves");
        assert_eq!(delay, model.op_cost(n), "idle shard reproduces the latency model at {n}");
        let note = if n == 2_000 {
            format!("≈{:.0} ms", paper::REDIS_2000_EVENTS_MS)
        } else {
            String::new()
        };
        table.row_owned(vec![n.to_string(), format!("{:.1}", delay.as_millis_f64()), note]);
    }
    println!("{table}");

    let two_k = model.op_cost(2_000).as_millis_f64();
    assert!(
        (two_k - paper::REDIS_2000_EVENTS_MS).abs() < 5.0,
        "2000-event checkpoint must cost ≈100 ms, got {two_k:.1} ms"
    );

    // Concurrency sweep: k simultaneous 2 000-event checkpoints against a
    // single shard. Flat pricing completes them all after one service
    // time; the FIFO queue serializes them — the contention the
    // `migration_latency` bench measures at wave scale.
    let service = model.op_cost(2_000);
    let mut sweep = TextTable::new(&[
        "concurrent checkpoints",
        "flat last-completion (ms)",
        "fifo last-completion (ms)",
        "fifo total wait (ms)",
    ]);
    for k in [1u64, 2, 4, 8, 16] {
        let mut flat = one_shard(StoreServiceModel::Unqueued);
        let mut fifo = one_shard(StoreServiceModel::FifoPerShard);
        let (mut flat_last, mut fifo_last) = (0.0f64, 0.0f64);
        for op in 0..k {
            let i = InstanceId::from_index(op as usize);
            let admit = |store: &mut ShardedStateStore| {
                let outcome = store.admit(i, SimTime::ZERO, service, StoreOpKind::Persist);
                outcome.delay().expect("a healthy shard serves").as_millis_f64()
            };
            flat_last = flat_last.max(admit(&mut flat));
            fifo_last = fifo_last.max(admit(&mut fifo));
        }
        assert!(
            (fifo_last - service.as_millis_f64() * k as f64).abs() < 1e-6,
            "one shard serializes {k} checkpoints"
        );
        sweep.row_owned(vec![
            k.to_string(),
            format!("{flat_last:.1}"),
            format!("{fifo_last:.1}"),
            format!("{:.1}", fifo.queued_wait().as_millis_f64()),
        ]);
    }
    println!("{sweep}");

    // Durability semantics: a 2 000-event blob round-trips intact.
    let mut store = ShardedStateStore::new();
    let instance = InstanceId::from_index(0);
    let whole = KeyRange::whole(1);
    let blob = StateBlob {
        processed: 123,
        pending: (0..2_000u64)
            .map(|i| flowmig_engine::DataEvent {
                id: i + 1,
                root: RootId(i + 1),
                generated_at: SimTime::from_millis(i),
                replayed: false,
            })
            .collect(),
        key_counts: Vec::new(),
    };
    store.put(instance, whole, blob.clone());
    let restored = store.restore(instance, whole).expect("blob present");
    assert_eq!(restored, blob);
    println!(
        "durability check passed: 2000-event blob round-trips intact ({} puts, {} gets)",
        store.puts(),
        store.gets()
    );
}
