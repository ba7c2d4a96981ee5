//! What a simulated run allocates, counted per trace event — not timed, so
//! it repeats exactly.
//!
//! The engine's own data structures should cost nothing per event: the
//! event queues order keys over slabs that reuse their slots, a plan
//! reuses its process's step buffers, a word-sized payload sits inline in
//! its message, and memory grows only over the bytes written. What is left
//! is growth (trace, registry, maps, slabs reaching their high-water
//! mark) and, under `Dual`, the detector's clocks and reports.
//!
//! The programs are `benchmark`'s `sim_debug` three at 10 ranks, run at
//! seed 176. A counting `#[global_allocator]` does the measuring; counters
//! are per-thread, so the tests of this file can run in parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use race_core::{DetectorConfig, DetectorKind};
use simulator::workloads::random_access::{self, RandomSpec};
use simulator::workloads::{master_worker, stencil, Workload};
use simulator::{Engine, SimConfig};

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a plain thread-local `Cell` with a
// const initialiser and no destructor, so touching it cannot allocate or
// re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const RANKS: usize = 10;
const SEED: u64 = 176;

/// `sim_debug`'s three programs at full scale.
fn programs() -> [Workload; 3] {
    [
        stencil::with_barrier(RANKS, 64, 32),
        master_worker::racy(RANKS - 1, 64),
        random_access::generate(RandomSpec {
            n: RANKS,
            ops_per_rank: 256,
            hot_words: 64,
            p_write: 0.25,
            locked: false,
            seed: SEED,
        }),
    ]
}

/// Allocations per trace event of one whole run (`Engine::new` and `run`)
/// of each program, in `programs` order.
fn per_event(kind: DetectorKind) -> Vec<(String, f64)> {
    programs()
        .into_iter()
        .map(|workload| {
            let config = SimConfig::debugging(RANKS)
                .with_seed(SEED)
                .with_detector_config(DetectorConfig::new(kind, RANKS));
            let programs = workload.programs.clone();
            let before = allocs();
            let result = Engine::new(config, programs).run();
            let made = allocs() - before;
            assert!(result.errors.is_empty() && result.stuck.is_empty());
            let events = result.trace.events.len();
            assert!(events > 0, "{}: no events", workload.name);
            let ratio = made as f64 / events as f64;
            eprintln!(
                "{kind:?} {}: {made} allocations / {events} events = {ratio:.3}",
                workload.name
            );
            (workload.name.to_string(), ratio)
        })
        .collect()
}

fn check(kind: DetectorKind, bound: f64) {
    for (name, ratio) in per_event(kind) {
        assert!(
            ratio <= bound,
            "{kind:?} {name}: {ratio:.3} allocations per trace event (bound {bound})"
        );
    }
}

// The bounds sit about 1.5× above the counts measured when they were set
// (per program: Vanilla 0.159 / 0.149 / 0.061, Dual 0.562 / 0.430 / 0.556
// for stencil / master-worker / random); the engine before its key heap,
// inline payloads and reused plan buffers made 2.3–4.2 and 4.0–6.5.

#[test]
fn a_vanilla_run_allocates_under_a_quarter_per_event() {
    check(DetectorKind::Vanilla, 0.25);
}

#[test]
fn a_dual_run_allocates_under_three_quarters_per_event() {
    check(DetectorKind::Dual, 0.75);
}
