//! What the detector allocates, counted — not timed, so it repeats exactly.
//!
//! An access's clock is the actor's row, borrowed; an antichain entry
//! keeps `(process, count)` and shares a copy of that row which is re-made
//! only when the actor learns something about *another* process. So:
//!
//! * race-free traffic allocates **nothing** per op between
//!   synchronisations, and a constant per barrier (the join, copied once
//!   and shared by all n actors) — the parent commit copied the row twice
//!   over (`Vec` + `Arc`) on every op;
//! * racy traffic copies a full clock only when an actor's row moved (and
//!   once per actor, for its first shared row) — never per tick, and never
//!   for a report: a report names both accesses by the rows their
//!   antichain entries already share.
//!
//! A counting `#[global_allocator]` does the measuring. Counters are
//! per-thread, so the tests of this file can run in parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;

use dsm::addr::GlobalAddr;
use race_core::api::{DetectorConfig, ReportSink, VecSink};
use race_core::{AreaKey, Detector, DetectorKind, DsmOp, Granularity, HbDetector, HbMode, OpKind};
use vclock::AreaClock;

thread_local! {
    /// Allocations made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Of those, the ones of exactly `WATCHED` bytes.
    static WATCHED_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static WATCHED: Cell<usize> = const { Cell::new(usize::MAX) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain thread-local `Cell`s with
// const initialisers and no destructor, so touching them cannot allocate
// or re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        if WATCHED.with(Cell::get) == layout.size() {
            WATCHED_ALLOCS.with(|c| c.set(c.get() + 1));
        }
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

/// The halo exchange of `benchmark`'s `inproc_stencil`: 16 ranks, 16 words
/// each; per iteration every rank writes its words, all barrier, every
/// rank gets its two neighbours' boundary words, all barrier. Race-free.
#[test]
fn race_free_halo_exchange_allocates_per_barrier_not_per_op() {
    const N: usize = 16;
    const WORDS: usize = 16;
    let mut session = DetectorConfig::new(DetectorKind::Dual, N)
        .with_granularity(Granularity::WORD)
        .session();
    let mut op_id = 0;
    let mut next = |actor, kind| {
        op_id += 1;
        DsmOp { op_id, actor, kind }
    };
    let word = |rank, w| GlobalAddr::public(rank, 8 * w).range(8);

    let (mut ops, mut worst_op, mut worst_barrier) = (0u64, 0, 0);
    for iter in 0..12 {
        // The first iterations grow the slabs and the antichains'
        // capacity; after them the state is steady.
        let steady = iter >= 2;
        let mut phase: Vec<DsmOp> = Vec::new();
        for rank in 0..N {
            for w in 0..WORDS {
                phase.push(next(
                    rank,
                    OpKind::LocalWrite {
                        range: word(rank, w),
                    },
                ));
            }
        }
        let writes = phase.len();
        for rank in 0..N {
            for (from, w) in [((rank + N - 1) % N, WORDS - 1), ((rank + 1) % N, 0)] {
                phase.push(next(
                    rank,
                    OpKind::Get {
                        src: word(from, w),
                        dst: GlobalAddr::private(rank, 0).range(8),
                    },
                ));
            }
        }
        for (i, op) in phase.iter().enumerate() {
            if i == writes {
                let before = allocs();
                session.on_barrier();
                worst_barrier = worst_barrier.max(allocs() - before);
            }
            let before = allocs();
            assert_eq!(session.observe(op, &[]), 0, "the exchange is race-free");
            if steady {
                worst_op = worst_op.max(allocs() - before);
                ops += 1;
            }
        }
        let before = allocs();
        session.on_barrier();
        worst_barrier = worst_barrier.max(allocs() - before);
    }
    assert_eq!(ops, 10 * (N * WORDS + 2 * N) as u64);
    assert_eq!(worst_op, 0, "an op between synchronisations allocates");
    // The join (one `Vec`) and the one `Arc` all 16 actors share — not
    // one copy per rank, let alone per op.
    assert!(
        worst_barrier <= 2,
        "{worst_barrier} allocations at a barrier"
    );
}

/// `benchmark`'s `inproc_contended` shape — unsynchronised ranks issuing
/// puts (one in four) and gets against a few hot words, one public word
/// per op, so antichains are wide and the report stream is dense — with
/// three writes to words of its own, which nobody else touches, between a
/// rank's hot accesses: ticks whose rows the reports share, lagging.
#[test]
fn racy_stream_copies_no_clock_per_report() {
    // 29 ranks: a clock's buffer is 232 bytes, a size nothing else here
    // allocates, so counting allocations of that size counts clock copies
    // (and the few area clocks that demote to a full vector).
    const N: usize = 29;
    const HOT: usize = 24;
    let mut det = HbDetector::new(N, Granularity::WORD, HbMode::Dual);
    let mut sink = VecSink::new();
    let mut x: u64 = 0x5EED_CAFE;
    let mut pick = |bound: usize| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((x >> 33) % bound as u64) as usize
    };

    // Which of a hot area's two clocks (`V`, `W`) hold a full vector.
    let vectors = |det: &HbDetector, area: AreaKey| {
        det.store().history(&area).map_or([false; 2], |h| {
            [&h.v, &h.w].map(|clock| matches!(clock, AreaClock::Vector(_)))
        })
    };
    let (mut ops, mut copies, mut moved_rows, mut demotions) = (0u64, 0u64, 0u64, 0u64);
    let mut scratch = det.process_clock(0).clone();
    for _round in 0..40 {
        for actor in 0..N {
            let word = pick(HOT);
            let hot = GlobalAddr::public(word % N, 8 * (word / N)).range(8);
            let hot_area = AreaKey::new(word % N, word / N);
            let near = GlobalAddr::private(actor, 0).range(8);
            let own = |w: usize| OpKind::LocalWrite {
                range: GlobalAddr::public(actor, 8 * (100 + w)).range(8),
            };
            let racy = if pick(4) == 0 {
                OpKind::Put {
                    src: near,
                    dst: hot,
                }
            } else {
                OpKind::Get {
                    src: hot,
                    dst: near,
                }
            };
            for kind in [racy, own(0), own(1), own(2)] {
                let op = DsmOp {
                    op_id: ops,
                    actor,
                    kind,
                };
                ops += 1;
                scratch.clone_from(det.process_clock(actor));
                scratch.tick(actor);

                let was_vector = vectors(&det, hot_area);
                WATCHED.with(|w| w.set(N * 8));
                let before = WATCHED_ALLOCS.with(Cell::get);
                det.observe_sink(&op, &[], &mut sink);
                copies += WATCHED_ALLOCS.with(Cell::get) - before;
                WATCHED.with(|w| w.set(usize::MAX));
                // A clock that re-promoted to an epoch demotes, and
                // allocates its join, again.
                let is_vector = vectors(&det, hot_area);
                demotions += (0..2).filter(|&i| is_vector[i] && !was_vector[i]).count() as u64;

                // The op's read absorbed something new: the next entry
                // this actor records needs a fresh copy of its row.
                if det.process_clock(actor) != &scratch {
                    moved_rows += 1;
                }
            }
        }
    }

    let reports = sink.reports();
    assert!(
        reports.len() > 3000,
        "the stream is racy: {}",
        reports.len()
    );
    // Each actor's first op makes its first shared row, each moved row a
    // new one, and each demotion of a hot area's `V` or `W` allocates a
    // full join. Nothing else copies a clock: not a report, not a tick.
    assert!(
        demotions >= 2 * HOT as u64,
        "every hot area's V and W demote: {demotions}"
    );
    let bound = moved_rows + N as u64 + demotions;
    assert!(
        copies <= bound && copies < ops / 2,
        "{copies} clock copies in {ops} ops with {} reports, {moved_rows} moved rows, \
         {demotions} demotions",
        reports.len()
    );
    // The reports share the rows the antichain entries hold: no more
    // distinct rows in the stream than shared rows were ever made.
    let distinct_rows: HashSet<*const vclock::VectorClock> = reports
        .iter()
        .flat_map(|r| [Some(&r.current), r.previous.as_ref()])
        .flatten()
        .map(|access| std::sync::Arc::as_ptr(&access.row))
        .collect();
    assert!(
        distinct_rows.len() as u64 <= moved_rows + N as u64,
        "{} distinct rows, {moved_rows} moved rows",
        distinct_rows.len()
    );
    eprintln!(
        "racy stream: {ops} ops, {} reports sharing {} rows, {copies} clock copies, \
         {moved_rows} moved rows, {demotions} demotions",
        reports.len(),
        distinct_rows.len()
    );
}
