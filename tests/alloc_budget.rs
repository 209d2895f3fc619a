//! Allocation budget of deploying a 10,000-instance dataflow.
//!
//! `Engine::new` on `grid_scaled(625)` (10,625 instances) makes no
//! allocation per instance: the runtimes live in one `Vec`, each one's
//! cold part is allocated only on first use, and the round-robin shuffle
//! cursors of every instance share one flat array. A counting global
//! allocator checks the allocation count and the bytes the engine keeps
//! live. It replaces the allocator of the whole test binary, so this file
//! holds this one test and no other.

use flowmig::core::CcrPipelined;
use flowmig::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};

/// The system allocator, counting allocations while [`COUNTING`] is set
/// and the bytes live at any time.
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

/// Records one allocation (a fresh block or a resize) that changes the
/// live total by `delta` bytes.
fn record(delta: isize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
    LIVE_BYTES.fetch_add(delta, Ordering::Relaxed);
}

// SAFETY: every method hands its arguments unchanged to `System`, which
// meets the `GlobalAlloc` contract; the bookkeeping around the calls only
// updates atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size() as isize);
        // SAFETY: the caller meets `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, so from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // meets `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn deploying_10k_instances_allocates_nothing_per_instance() {
    let dag = library::grid_scaled(625);
    let instances = InstanceSet::plan(&dag);
    let n = instances.len();
    assert_eq!(n, 10_625);
    let plan = ScalePlan::paper_scenario(&dag, &instances, ScaleDirection::In)
        .expect("scenario placeable");
    let config = EngineConfig { store_shards: 32, ..EngineConfig::default() };
    let strategy = CcrPipelined::new();
    let (protocol, coordinator) = (strategy.protocol(), strategy.coordinator());

    let live_before = LIVE_BYTES.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let engine = Engine::new(dag, instances, &plan, config, protocol, coordinator, 1);
    COUNTING.store(false, Ordering::Relaxed);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    let live = LIVE_BYTES.load(Ordering::Relaxed) - live_before;

    assert!(allocations < 500, "Engine::new made {allocations} allocations for {n} instances");
    let per_instance = live as f64 / n as f64;
    assert!(
        live <= 350 * n as isize,
        "Engine::new left {live} bytes live, {per_instance:.0} per instance"
    );
    drop(engine);
}
