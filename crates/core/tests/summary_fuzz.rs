//! `RaceSummary` under random report streams and hostile JSON.
//!
//! The session folds an operation's reports in by runs
//! ([`RaceSummary::add_all`]: one `by_class` / `by_area` update per run of
//! equal class and area); the per-report [`RaceSummary::from_reports`] is the
//! reference it must equal field by field, however the stream is cut into
//! operations. And `from_json` is the service's untrusted wire path
//! (`ClientError::BadSummary`, the server's park headers): byte soup,
//! corrupted and truncated summaries are errors or self-consistent values,
//! never a panic.

use std::sync::Arc;

use dsm::addr::GlobalAddr;
use proptest::prelude::*;
use race_core::api::DetectorConfig;
use race_core::{
    AccessKind, AccessSummary, AreaKey, DetectorKind, DsmOp, OpKind, RaceClass, RaceReport,
    RaceSummary,
};
use vclock::VectorClock;

const CLASSES: [RaceClass; 3] = [
    RaceClass::WriteWrite,
    RaceClass::ReadWrite,
    RaceClass::ReadRead,
];

/// One report from four small numbers: class, area and the two processes.
fn report((class, area, cur, prev): (usize, usize, usize, usize)) -> RaceReport {
    let access = |id, process| AccessSummary {
        id,
        process,
        kind: AccessKind::Write,
        range: GlobalAddr::public(area % 3, 8 * area).range(8),
        atomic: false,
        count: 0,
        row: Arc::new(VectorClock::zero(8)),
    };
    RaceReport {
        detector: "fuzz",
        class: CLASSES[class],
        current: access(1, cur),
        previous: access(0, prev),
        area: AreaKey::new(area % 3, area),
    }
}

/// A stream with runs in it: each drawn report is repeated 1–4 times.
fn stream(seeds: Vec<((usize, usize, usize, usize), usize)>) -> Vec<RaceReport> {
    seeds
        .into_iter()
        .flat_map(|(seed, times)| std::iter::repeat_n(report(seed), times))
        .collect()
}

fn assert_self_consistent(s: &RaceSummary) {
    assert_eq!(s.by_class.values().sum::<usize>(), s.total);
    assert_eq!(s.by_area.values().sum::<usize>(), s.total);
    assert!(s.by_process_pair.values().sum::<usize>() <= s.total);
}

/// A summary with every field populated.
fn real_summary() -> RaceSummary {
    let mut s = RaceSummary::from_reports(&stream(vec![
        ((0, 0, 1, 2), 3),
        ((1, 5, 2, 3), 1),
        ((2, 17, 0, 7), 2),
        ((1, 0, 4, 1), 12),
    ]));
    s.degraded = true;
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// However a stream is cut into operations, folding the pieces in by
    /// runs gives the per-report aggregate, and the JSON round-trips.
    #[test]
    fn folding_by_runs_equals_folding_by_report(
        seeds in collection::vec(((0usize..3, 0usize..6, 0usize..8, 0usize..8), 1usize..5), 0..40usize),
        cuts in collection::vec(1usize..12, 0..40usize),
        degraded in 0u8..2,
    ) {
        let reports = stream(seeds);
        let mut reference = RaceSummary::from_reports(&reports);
        let mut folded = RaceSummary::default();
        let mut rest = &reports[..];
        for cut in cuts {
            let (op, tail) = rest.split_at(cut.min(rest.len()));
            folded.add_all(op);
            rest = tail;
        }
        folded.add_all(rest);
        reference.degraded = degraded == 1;
        folded.degraded = degraded == 1;

        prop_assert_eq!(&folded.by_class, &reference.by_class);
        prop_assert_eq!(&folded.by_area, &reference.by_area);
        prop_assert_eq!(&folded.by_process_pair, &reference.by_process_pair);
        prop_assert_eq!(folded.total, reference.total);
        prop_assert_eq!(folded.total, reports.len());
        assert_self_consistent(&folded);

        let json = folded.to_json();
        let back = RaceSummary::from_json(&json);
        prop_assert_eq!(back.as_ref(), Ok(&folded));
        prop_assert_eq!(json, reference.to_json());
    }

    /// The maps are hashed, each with its own secret, and unordered; the
    /// printed forms are not. The same reports folded in any order, into
    /// summaries that hash differently, print byte-identically.
    #[test]
    fn a_summary_prints_the_same_whatever_the_fold_order(
        seeds in collection::vec(((0usize..3, 0usize..6, 0usize..8, 0usize..8), 1usize..5), 0..40usize),
        shuffle in collection::vec(0u64..1 << 32, 0..200usize),
    ) {
        let reports = stream(seeds);
        let forward = RaceSummary::from_reports(&reports);
        let mut order: Vec<(u64, &RaceReport)> = reports
            .iter()
            .enumerate()
            .map(|(i, r)| (shuffle.get(i).copied().unwrap_or(i as u64), r))
            .collect();
        order.sort_by_key(|&(key, _)| key);
        let mut shuffled = RaceSummary::default();
        for (_, r) in order.iter().rev() {
            shuffled.add(r);
        }
        prop_assert_eq!(&shuffled, &forward);
        prop_assert_eq!(shuffled.to_json(), forward.to_json());
        prop_assert_eq!(shuffled.to_string(), forward.to_string());
    }

    /// The same through a real session: what the tee folded in, operation
    /// by operation, is the aggregate of the reports the sink retained.
    #[test]
    fn a_sessions_summary_is_the_summary_of_its_reports(
        kind in 0usize..DetectorKind::ALL.len(),
        ops in collection::vec((0usize..4, 0usize..4, 0usize..6, 1usize..4, 0u8..2), 1..120usize),
    ) {
        let config = DetectorConfig::new(DetectorKind::ALL[kind], 4);
        let mut session = config.session();
        for (op_id, (actor, owner, word, words, is_put)) in ops.into_iter().enumerate() {
            let public = GlobalAddr::public(owner, 8 * word).range(8 * words);
            let private = GlobalAddr::private(actor, 0).range(8 * words);
            let kind = if is_put == 1 {
                OpKind::Put { src: private, dst: public }
            } else {
                OpKind::Get { src: public, dst: private }
            };
            session.observe(&DsmOp { op_id: op_id as u64, actor, kind }, &[]);
        }
        prop_assert_eq!(session.summary(), &RaceSummary::from_reports(session.reports()));
    }

    /// Random bytes are never a summary.
    #[test]
    fn from_json_rejects_byte_soup(soup in collection::vec(0u8..=255, 0..256usize)) {
        let text = String::from_utf8_lossy(&soup);
        prop_assert!(RaceSummary::from_json(&text).is_err());
    }

    /// One to six bytes of a real summary XORed with random masks: an error,
    /// or — when the damage happens to spell another summary (a digit of an
    /// area key, say) — a value that is consistent and round-trips.
    #[test]
    fn from_json_survives_corruption_of_a_real_summary(
        flips in collection::vec((0usize..1 << 16, 1u8..=255), 1..=6usize),
    ) {
        let mut bytes = real_summary().to_json().into_bytes();
        for (at, mask) in flips {
            let at = at % bytes.len();
            bytes[at] ^= mask;
        }
        if let Ok(parsed) = RaceSummary::from_json(&String::from_utf8_lossy(&bytes)) {
            assert_self_consistent(&parsed);
            prop_assert_eq!(RaceSummary::from_json(&parsed.to_json()), Ok(parsed));
        }
    }
}

#[test]
fn the_hottest_of_equally_hot_areas_is_the_largest_key() {
    // Areas 3, 5 and 1 twice each, area 0 once; of the three tied keys,
    // area 5's is the largest.
    let mut s = RaceSummary::default();
    for area in [3, 5, 1, 0, 5, 1, 3] {
        s.add(&report((0, area, 0, 1)));
    }
    assert_eq!(s.hottest_area(), Some((AreaKey::new(5 % 3, 5), 2)));
    // Every summary of these reports agrees, whatever it hashes with.
    for _ in 0..16 {
        let reports = [0, 1, 3, 5, 5, 3, 1].map(|area| report((0, area, 0, 1)));
        assert_eq!(
            RaceSummary::from_reports(&reports).hottest_area(),
            s.hottest_area()
        );
    }
}

#[test]
fn every_truncation_of_a_real_summary_is_an_error() {
    let summary = real_summary();
    let json = summary.to_json();
    assert_eq!(RaceSummary::from_json(&json), Ok(summary.clone()));
    // Every prefix loses a field, an object's end or part of a count —
    // the one without only the outermost closing brace included: the
    // parser reads the top level as an object, so it must close.
    for len in 0..json.len() {
        assert!(
            RaceSummary::from_json(&json[..len]).is_err(),
            "a {len}-byte prefix of {} bytes parsed: {:?}",
            json.len(),
            &json[..len]
        );
    }
}
