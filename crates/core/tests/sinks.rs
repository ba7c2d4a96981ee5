//! Differential property tests for the `race_core::api` report-streaming
//! layer: driving any detector through a `Session` must produce
//! **byte-for-byte** the report stream of the bare
//! `Detector::observe_sink` hot loop, for every [`DetectorKind`] — and the
//! aggregating sinks must retain bounded state, never per-report copies.

use proptest::prelude::*;
use race_core::api::{CountingSink, DetectorConfig, SummarySink, VecSink};
use race_core::{DetectorKind, DsmOp, Event, Granularity, OpKind, RaceSummary};

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

/// Memory shape of the aggregating sinks, checked structurally: a million
/// same-pair reports leave a one-entry summary and a two-word counter.
#[test]
fn aggregating_sinks_do_not_grow_with_report_count() {
    use race_core::api::ReportSink;
    use race_core::{AccessKind, AccessSummary, AreaKey, RaceClass, RaceReport};
    use std::sync::Arc;
    use vclock::VectorClock;

    let report = RaceReport {
        detector: "test",
        class: RaceClass::WriteWrite,
        current: AccessSummary {
            id: 1,
            process: 0,
            kind: AccessKind::Write,
            range: GlobalAddr::public(1, 0).range(8),
            clock: Arc::new(VectorClock::zero(2)),
            atomic: false,
        },
        previous: None,
        area: AreaKey::new(1, 0),
    };
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
