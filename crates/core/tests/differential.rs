//! Differential property test: the epoch-fast-path detector must report
//! **exactly** the races of the full-vector-clock reference — same
//! reports, same order, same attribution — in every [`HbMode`] and at
//! several granularities, on random workloads mixing every operation shape
//! with barriers and lock hand-offs.
//!
//! This is the proof obligation of the fast path: epochs/guards may only
//! skip work whose outcome is provably "no race", never change a verdict.

use proptest::prelude::*;
use race_core::{
    Detector, DsmOp, Granularity, HbDetector, HbMode, OpKind, RaceReport, ReferenceHbDetector,
};

use dsm::addr::GlobalAddr;

/// One random step of a workload.
#[derive(Debug, Clone)]
enum Step {
    Op(DsmOp),
    Barrier,
    Release { rank: usize, lock: (usize, usize) },
    Acquire { rank: usize, lock: (usize, usize) },
}

/// Decode a raw tuple into a step. `n` is the process count; offsets index
/// a small pool of hot words so conflicts actually happen.
fn decode(n: usize, raw: (usize, usize, usize, usize, usize), op_id: u64) -> Step {
    let (kind_sel, actor_raw, target_raw, word, len_sel) = raw;
    let actor = actor_raw % n;
    let target = target_raw % n;
    let offset = (word % 12) * 8;
    let len = [8usize, 16, 24][len_sel % 3];
    let public = GlobalAddr::public(target, offset).range(len);
    let own_word = GlobalAddr::public(target, offset).range(8);
    let private = GlobalAddr::private(actor, 0).range(len);
    match kind_sel % 10 {
        0 | 1 => Step::Op(DsmOp {
            op_id,
            actor,
            kind: OpKind::LocalWrite { range: public },
        }),
        2 | 3 => Step::Op(DsmOp {
            op_id,
            actor,
            kind: OpKind::LocalRead { range: public },
        }),
        4 => Step::Op(DsmOp {
            op_id,
            actor,
            kind: OpKind::Put {
                src: private,
                dst: public,
            },
        }),
        5 => Step::Op(DsmOp {
            op_id,
            actor,
            kind: OpKind::Get {
                src: public,
                dst: private,
            },
        }),
        6 => Step::Op(DsmOp {
            op_id,
            actor,
            kind: OpKind::AtomicRmw { range: own_word },
        }),
        7 => Step::Barrier,
        8 => Step::Release {
            rank: actor,
            lock: (target, offset),
        },
        _ => Step::Acquire {
            rank: actor,
            lock: (target, offset),
        },
    }
}

/// Reports with the detector label normalised (the two implementations
/// attribute to different names by design; everything else must match).
fn normalised(reports: &[RaceReport]) -> Vec<RaceReport> {
    reports
        .iter()
        .cloned()
        .map(|mut r| {
            r.detector = "";
            r
        })
        .collect()
}

fn drive(steps: &[Step], fast: &mut HbDetector, slow: &mut ReferenceHbDetector) {
    for (i, step) in steps.iter().enumerate() {
        match step {
            Step::Op(op) => {
                // Drive the legacy log path (the whole-log assertions below
                // depend on it) and compare each op's log tail.
                let na = fast.observe(op, &[]);
                let nb = slow.observe(op, &[]);
                let a = &fast.reports()[fast.reports().len() - na..];
                let b = &slow.reports()[slow.reports().len() - nb..];
                assert_eq!(
                    normalised(a),
                    normalised(b),
                    "divergent reports at step {i}: {step:?}"
                );
            }
            Step::Barrier => {
                fast.on_barrier();
                slow.on_barrier();
            }
            Step::Release { rank, lock } => {
                fast.on_release(*rank, *lock);
                slow.on_release(*rank, *lock);
            }
            Step::Acquire { rank, lock } => {
                fast.on_acquire(*rank, *lock);
                slow.on_acquire(*rank, *lock);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Byte-identical report streams across every mode and granularity.
    #[test]
    fn epoch_fast_path_matches_reference(
        n in 2usize..5,
        raw in collection::vec((0usize..10, 0usize..8, 0usize..8, 0usize..16, 0usize..3), 1..60),
    ) {
        let steps: Vec<Step> = raw
            .iter()
            .enumerate()
            .map(|(i, &r)| decode(n, r, i as u64))
            .collect();
        for mode in [HbMode::Dual, HbMode::Single, HbMode::Literal] {
            for granularity in [
                Granularity::WORD,
                Granularity::block(16),
                Granularity::CACHE_LINE,
                Granularity::PAGE,
            ] {
                let mut fast = HbDetector::new(n, granularity, mode);
                let mut slow = ReferenceHbDetector::new(n, granularity, mode);
                drive(&steps, &mut fast, &mut slow);
                // Whole-log equality, emitted order and sorted order.
                let mut a = normalised(fast.reports());
                let mut b = normalised(slow.reports());
                prop_assert_eq!(&a, &b, "log divergence mode={:?} gran={:?}", mode, granularity);
                let key = |r: &RaceReport| (r.current.id, r.previous.as_ref().map(|p| p.id), r.area);
                a.sort_by_key(key);
                b.sort_by_key(key);
                prop_assert_eq!(a, b);
                // Identical §IV-D accounting, too.
                prop_assert_eq!(fast.clock_memory_bytes(), slow.clock_memory_bytes());
            }
        }
    }

    /// The fast path must also agree on *process clock evolution* — the
    /// absorb-skip optimisation may not change what readers learn.
    #[test]
    fn process_clocks_match_reference(
        n in 2usize..5,
        raw in collection::vec((0usize..10, 0usize..8, 0usize..8, 0usize..16, 0usize..3), 1..40),
    ) {
        let steps: Vec<Step> = raw
            .iter()
            .enumerate()
            .map(|(i, &r)| decode(n, r, i as u64))
            .collect();
        for mode in [HbMode::Dual, HbMode::Single, HbMode::Literal] {
            let mut fast = HbDetector::new(n, Granularity::WORD, mode);
            let mut slow = ReferenceHbDetector::new(n, Granularity::WORD, mode);
            drive(&steps, &mut fast, &mut slow);
            for rank in 0..n {
                prop_assert_eq!(
                    fast.process_clock(rank),
                    slow.process_clock(rank),
                    "clock divergence at rank {} mode={:?}",
                    rank,
                    mode
                );
            }
        }
    }
}
