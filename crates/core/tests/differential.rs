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
    Detector, DsmOp, Event, Granularity, HbDetector, HbMode, OpKind, RaceReport,
    ReferenceHbDetector, VecSink,
};

use dsm::addr::GlobalAddr;

/// Decode a raw tuple into one event. `n` is the process count; offsets index
/// a small pool of hot words so conflicts actually happen.
fn decode(n: usize, raw: (usize, usize, usize, usize, usize), op_id: u64) -> Event {
    let (kind_sel, actor_raw, target_raw, word, len_sel) = raw;
    let actor = actor_raw % n;
    let target = target_raw % n;
    let offset = (word % 12) * 8;
    let len = [8usize, 16, 24][len_sel % 3];
    let public = GlobalAddr::public(target, offset).range(len);
    let own_word = GlobalAddr::public(target, offset).range(8);
    let private = GlobalAddr::private(actor, 0).range(len);
    match kind_sel % 10 {
        0 | 1 => Event::Op(DsmOp {
            op_id,
            actor,
            kind: OpKind::LocalWrite { range: public },
        }),
        2 | 3 => Event::Op(DsmOp {
            op_id,
            actor,
            kind: OpKind::LocalRead { range: public },
        }),
        4 => Event::Op(DsmOp {
            op_id,
            actor,
            kind: OpKind::Put {
                src: private,
                dst: public,
            },
        }),
        5 => Event::Op(DsmOp {
            op_id,
            actor,
            kind: OpKind::Get {
                src: public,
                dst: private,
            },
        }),
        6 => Event::Op(DsmOp {
            op_id,
            actor,
            kind: OpKind::AtomicRmw { range: own_word },
        }),
        7 => Event::Barrier,
        8 => Event::Release {
            rank: actor,
            lock: (target, offset),
        },
        _ => Event::Acquire {
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

/// Drive both detectors through `steps`, comparing each event's reports;
/// returns the two whole report logs.
fn drive(
    steps: &[Event],
    fast: &mut HbDetector,
    slow: &mut ReferenceHbDetector,
) -> (VecSink, VecSink) {
    let (mut fast_log, mut slow_log) = (VecSink::new(), VecSink::new());
    for (i, step) in steps.iter().enumerate() {
        // Stream into a caller-owned log per detector (the whole-log
        // assertions depend on it) and compare each event's log tail.
        let na = fast.apply(step, &mut fast_log);
        let nb = slow.apply(step, &mut slow_log);
        let a = &fast_log.as_slice()[fast_log.len() - na..];
        let b = &slow_log.as_slice()[slow_log.len() - nb..];
        assert_eq!(
            normalised(a),
            normalised(b),
            "divergent reports at step {i}: {step:?}"
        );
    }
    (fast_log, slow_log)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Byte-identical report streams across every mode and granularity.
    #[test]
    fn epoch_fast_path_matches_reference(
        n in 2usize..5,
        raw in collection::vec((0usize..10, 0usize..8, 0usize..8, 0usize..16, 0usize..3), 1..60),
    ) {
        let steps: Vec<Event> = raw
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
                let (fast_log, slow_log) = drive(&steps, &mut fast, &mut slow);
                // Whole-log equality, emitted order and sorted order.
                let mut a = normalised(fast_log.as_slice());
                let mut b = normalised(slow_log.as_slice());
                prop_assert_eq!(&a, &b, "log divergence mode={:?} gran={:?}", mode, granularity);
                let key = |r: &RaceReport| (r.current.id, r.previous.id, r.area);
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
        let steps: Vec<Event> = raw
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
