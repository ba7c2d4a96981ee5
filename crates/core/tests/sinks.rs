//! Differential property tests for the `race_core::api` report-streaming
//! layer: driving any detector through a `Session` must produce
//! **byte-for-byte** the report stream of the bare
//! `Detector::observe_sink` hot loop, for every [`DetectorKind`] — and the
//! aggregating sinks must retain bounded state, never per-report copies.

use std::sync::Arc;

use proptest::prelude::*;
use race_core::api::{CountingSink, DedupSink, DetectorConfig, ReportSink, SummarySink, VecSink};
use race_core::{
    AccessKind, AccessSummary, AreaKey, DetectorKind, DsmOp, Event, Granularity, OpKind, RaceClass,
    RaceReport, RaceSummary,
};
use vclock::VectorClock;

use dsm::addr::GlobalAddr;

/// One random event of a workload (same decoding scheme as the
/// `differential.rs` suite, kept local so the two files stay independent).
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

/// Drive the bare path: `observe_sink()` into a caller-owned `VecSink`.
fn drive_bare(config: &DetectorConfig, steps: &[Event]) -> Vec<race_core::RaceReport> {
    let mut det = config.build();
    let mut log = VecSink::new();
    for step in steps {
        det.apply(step, &[], &mut log);
    }
    log.into_reports()
}

/// Drive the façade path: a `Session` streaming into `VecSink`.
fn drive_facade(
    config: &DetectorConfig,
    steps: &[Event],
) -> (Vec<race_core::RaceReport>, RaceSummary) {
    let mut session = config.session();
    for step in steps {
        session.apply(step, &[]);
    }
    let (summary, sink) = session.finish();
    (sink.reports().to_vec(), summary)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For random op streams, the `Session` + `VecSink` stream equals the
    /// bare `observe_sink` stream byte-for-byte, across every
    /// `DetectorKind` — and the session's bounded summary agrees with the
    /// summary of the retained stream.
    #[test]
    fn session_stream_equals_bare_observe_sink(
        n in 2usize..5,
        raw in collection::vec((0usize..10, 0usize..8, 0usize..8, 0usize..16, 0usize..3), 1..50),
    ) {
        let steps: Vec<Event> = raw
            .iter()
            .enumerate()
            .map(|(i, &r)| decode(n, r, i as u64))
            .collect();
        for kind in DetectorKind::ALL {
            for granularity in [Granularity::WORD, Granularity::CACHE_LINE] {
                let config = DetectorConfig::new(kind, n).with_granularity(granularity);
                let bare = drive_bare(&config, &steps);
                let (streamed, summary) = drive_facade(&config, &steps);
                prop_assert_eq!(
                    &bare, &streamed,
                    "sink stream diverges kind={:?} gran={:?}",
                    kind, granularity
                );
                prop_assert_eq!(summary.total, streamed.len());
                let recomputed = RaceSummary::from_reports(&streamed);
                prop_assert_eq!(summary.by_class, recomputed.by_class);
                prop_assert_eq!(summary.by_area, recomputed.by_area);
                prop_assert_eq!(summary.by_process_pair, recomputed.by_process_pair);
            }
        }
    }

    /// `SummarySink` (and the session's own aggregate) retain O(areas)
    /// state: bounded by distinct classes / areas / process pairs, never
    /// growing with the report count.
    #[test]
    fn summary_sink_memory_is_o_areas(
        n in 2usize..5,
        raw in collection::vec((0usize..10, 0usize..8, 0usize..8, 0usize..16, 0usize..3), 1..60),
    ) {
        let steps: Vec<Event> = raw
            .iter()
            .enumerate()
            .map(|(i, &r)| decode(n, r, i as u64))
            .collect();
        let config = DetectorConfig::new(DetectorKind::Single, n); // noisiest kind
        let mut session = config.session_with(Box::new(SummarySink::default()));
        let mut distinct_areas = std::collections::BTreeSet::new();
        let mut total = 0usize;
        for step in &steps {
            total += session.apply(step, &[]);
        }
        let summary = session.summary();
        for area in summary.by_area.keys() {
            distinct_areas.insert(*area);
        }
        prop_assert_eq!(summary.total, total);
        // Bounded state: classes ≤ 3, areas ≤ touched areas, pairs ≤ n².
        prop_assert!(summary.by_class.len() <= 3);
        prop_assert!(summary.by_area.len() <= 12 * n, "areas bounded by the address pool");
        prop_assert!(summary.by_process_pair.len() <= n * n);
        // And no per-report retention anywhere in the session.
        prop_assert!(session.reports().is_empty(), "aggregating sink keeps no reports");
    }
}

/// A write-write report on word 0 of rank 1 by the access `current`,
/// attributed to the access `previous` when there is one.
fn report(current: u64, previous: Option<u64>) -> RaceReport {
    let access = |id, process| AccessSummary {
        id,
        process,
        kind: AccessKind::Write,
        range: GlobalAddr::public(1, 0).range(8),
        atomic: false,
        count: 0,
        row: Arc::new(VectorClock::zero(2)),
    };
    RaceReport {
        detector: "test",
        class: RaceClass::WriteWrite,
        current: access(current, 0),
        previous: previous.map(|id| access(id, 1)),
        area: AreaKey::new(1, 0),
    }
}

/// Memory shape of the aggregating sinks, checked structurally: a million
/// same-pair reports leave a one-entry summary and a two-word counter.
#[test]
fn aggregating_sinks_do_not_grow_with_report_count() {
    let report = report(1, None);
    let mut summary = SummarySink::default();
    let mut counting = CountingSink::default();
    let mut vec = VecSink::new();
    for _ in 0..100_000 {
        summary.on_report(&report);
        counting.on_report(&report);
    }
    for _ in 0..100 {
        vec.on_report(&report);
    }
    assert_eq!(summary.summary().total, 100_000);
    assert_eq!(summary.summary().by_area.len(), 1, "one area, one entry");
    assert_eq!(summary.summary().by_class.len(), 1);
    assert_eq!(counting.total(), 100_000);
    assert_eq!(counting.true_races(), 100_000);
    assert_eq!(vec.len(), 100, "only the retaining sink grows");
}

/// A full `DedupSink` evicts its *oldest* key, and a restored one keeps
/// that order: the key that goes is the one seen first, not the newest.
#[test]
fn dedup_sink_evicts_the_oldest_key_before_and_after_a_restore() {
    let forwarded = |sink: &DedupSink| -> Vec<(u64, u64)> {
        sink.reports().iter().map(RaceReport::dedup_key).collect()
    };
    let (a, b, c, d) = ((1, 2), (3, 4), (5, 6), (7, 8));
    let send = |sink: &mut DedupSink, (cur, prev): (u64, u64)| {
        sink.on_report(&report(cur, Some(prev)));
    };

    let mut sink = DedupSink::with_capacity(Box::new(VecSink::new()), 2);
    for key in [a, b, c] {
        send(&mut sink, key);
    }
    assert_eq!(sink.evictions(), 1, "c found the window full");
    let state = sink.snapshot_state().expect("a dedup window to persist");
    // c pushed out a, the oldest: a is new again, c is still resident.
    send(&mut sink, a);
    send(&mut sink, c);
    assert_eq!(forwarded(&sink), vec![a, b, c, a]);

    // The restored window is [b, c], oldest first: d pushes out b.
    let mut restored = DedupSink::with_capacity(Box::new(VecSink::new()), 2);
    assert!(restored.restore_state(&state));
    send(&mut restored, d);
    send(&mut restored, c);
    send(&mut restored, b);
    assert_eq!(forwarded(&restored), vec![d, b]);
    assert_eq!(restored.evictions(), 3);
}
