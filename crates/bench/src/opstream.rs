//! Detector-only operation streams.
//!
//! These generators reproduce the access patterns of the `stencil`,
//! `hotspot` and `producer_consumer` workloads as bare [`Event`] streams —
//! [`DsmOp`]s plus synchronisation events — without the discrete-event
//! engine: [`race_core::Session::apply`] and [`race_core::Detector::apply`]
//! drive a session or a bare detector with them. The `repro --config`
//! smoke and the serve smoke replay them.

use race_core::{DsmOp, Event, LockId, OpKind};

use dsm::GlobalAddr;

/// Number of *clocked* memory accesses a stream performs: the public-side
/// accesses of each op (private memory never reaches the clocks, §IV-A).
/// Synchronisation events — barriers and lock hand-offs — touch clocks but
/// never memory, so they count zero; the match is exhaustive on purpose,
/// so a new event variant cannot silently skew an access count.
pub fn access_count(events: &[Event]) -> u64 {
    use dsm::addr::Segment;
    events
        .iter()
        .map(|e| match e {
            Event::Op(op) => op
                .accesses()
                .into_iter()
                .filter(|(_, r, _)| r.addr.segment == Segment::Public)
                .count() as u64,
            Event::Barrier => 0,
            Event::Acquire { .. } | Event::Release { .. } => 0,
        })
        .sum()
}

/// The stencil pattern of `simulator::workloads::stencil`: each rank owns
/// `words` words; per iteration it writes its interior, reads its
/// neighbours' boundary words, and everyone barriers. Fully synchronised —
/// the detector's totally-ordered fast path.
pub fn stencil(n: usize, words: usize, iters: usize) -> Vec<Event> {
    assert!(n >= 2 && words >= 2);
    let mut events = Vec::new();
    let mut op_id = 0u64;
    let mut op = |actor: usize, kind: OpKind, events: &mut Vec<Event>| {
        events.push(Event::Op(DsmOp { op_id, actor, kind }));
        op_id += 1;
    };
    for _ in 0..iters {
        for rank in 0..n {
            for w in 0..words {
                op(
                    rank,
                    OpKind::LocalWrite {
                        range: GlobalAddr::public(rank, w * 8).range(8),
                    },
                    &mut events,
                );
            }
        }
        events.push(Event::Barrier);
        for rank in 0..n {
            let left = (rank + n - 1) % n;
            let right = (rank + 1) % n;
            for (nbr, w) in [(left, words - 1), (right, 0)] {
                op(
                    rank,
                    OpKind::Get {
                        src: GlobalAddr::public(nbr, w * 8).range(8),
                        dst: GlobalAddr::private(rank, 0).range(8),
                    },
                    &mut events,
                );
            }
        }
        events.push(Event::Barrier);
    }
    events
}

/// The `hotspot` pattern: every rank hammers the same few words of rank
/// 0's public segment, completely unsynchronised, ~25% writes. Maximum
/// contention for the detector: the hot areas demote to dense joins, the
/// antichains grow to the concurrency width, every access runs the O(n)
/// scan, and the report stream is dense. Deterministic, no RNG.
pub fn hotspot(n: usize, ops_per_rank: usize, hot_words: usize) -> Vec<Event> {
    assert!(n >= 2 && hot_words >= 1);
    let mut events = Vec::new();
    for op_index in 0..ops_per_rank {
        for rank in 0..n {
            let word = (op_index * 7 + rank) % hot_words;
            let target = GlobalAddr::public(0, word * 8).range(8);
            let op_id = (op_index * n + rank) as u64;
            let kind = if (op_index + rank) % 4 == 0 {
                OpKind::Put {
                    src: GlobalAddr::private(rank, 0).range(8),
                    dst: target,
                }
            } else {
                OpKind::Get {
                    src: target,
                    dst: GlobalAddr::private(rank, 0).range(8),
                }
            };
            events.push(Event::Op(DsmOp {
                op_id,
                actor: rank,
                kind,
            }));
        }
    }
    events
}

/// The producer/consumer hand-off pattern of
/// `simulator::workloads::producer_consumer`, as a detector-only stream:
/// `pairs` disjoint rank pairs exchange `items` values through one shared
/// word each, every access bracketed by the word's lock hand-off events.
/// Lock-disciplined — zero reports from any sound detector — while still
/// exercising the lock-clock path the engine benches never isolate.
pub fn producer_consumer(pairs: usize, items: usize) -> Vec<Event> {
    assert!(pairs >= 1 && items >= 1);
    let mut events = Vec::new();
    let mut op_id = 0u64;
    for item in 0..items {
        for p in 0..pairs {
            let (producer, consumer) = (2 * p, 2 * p + 1);
            let buf = GlobalAddr::public(producer, 0).range(8);
            let lock: LockId = (producer, 0);
            // Producer writes under the lock…
            events.push(Event::Acquire {
                rank: producer,
                lock,
            });
            events.push(Event::Op(DsmOp {
                op_id,
                actor: producer,
                kind: OpKind::LocalWrite { range: buf },
            }));
            op_id += 1;
            events.push(Event::Release {
                rank: producer,
                lock,
            });
            // …and the consumer gets it under the same lock.
            events.push(Event::Acquire {
                rank: consumer,
                lock,
            });
            events.push(Event::Op(DsmOp {
                op_id,
                actor: consumer,
                kind: OpKind::Get {
                    src: buf,
                    dst: GlobalAddr::private(consumer, item * 8).range(8),
                },
            }));
            op_id += 1;
            events.push(Event::Release {
                rank: consumer,
                lock,
            });
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use race_core::{
        Detector, Granularity, HbDetector, HbMode, ReferenceHbDetector, ReportSink, Session,
        VecSink,
    };

    /// Total reports of `events` through a bare detector into `sink`.
    fn detector_reports(
        d: &mut dyn Detector,
        sink: &mut dyn ReportSink,
        events: &[Event],
    ) -> usize {
        events.iter().map(|e| d.apply(e, &[], sink)).sum()
    }

    /// Total reports of `events` through a session.
    fn session_reports(session: &mut Session, events: &[Event]) -> usize {
        events.iter().map(|e| session.apply(e, &[])).sum()
    }

    #[test]
    fn stencil_stream_is_race_free_and_stays_on_fast_path() {
        let events = stencil(8, 8, 3);
        let mut d = HbDetector::new(8, Granularity::WORD, HbMode::Dual);
        assert_eq!(
            detector_reports(&mut d, &mut VecSink::new(), &events),
            0,
            "synchronised stencil never races"
        );
        assert_eq!(
            d.store().epoch_areas(),
            d.store().touched_areas(),
            "every area stays in epoch representation"
        );
    }

    #[test]
    fn hotspot_is_racy_and_matches_reference() {
        let events = hotspot(4, 32, 4);
        let mut fast = HbDetector::new(4, Granularity::WORD, HbMode::Dual);
        let mut slow = ReferenceHbDetector::new(4, Granularity::WORD, HbMode::Dual);
        let (mut fast_log, mut slow_log) = (VecSink::new(), VecSink::new());
        let a = detector_reports(&mut fast, &mut fast_log, &events);
        let b = detector_reports(&mut slow, &mut slow_log, &events);
        assert_eq!(a, b);
        assert!(a > 0, "unsynchronised hotspot traffic must race");
        assert_eq!(fast_log.as_slice(), slow_log.as_slice());
    }

    #[test]
    fn access_counting() {
        let events = stencil(2, 2, 1);
        // 2 ranks × 2 local writes + 2 ranks × 2 gets (public read side
        // only — the private destination is not clocked).
        assert_eq!(access_count(&events), 4 + 4);
    }

    #[test]
    fn lock_events_count_zero_accesses() {
        // Sync events must never skew an access count: the
        // producer/consumer stream is 2 clocked accesses per item per pair
        // (the write and the get's public read), no matter how many lock
        // events bracket them.
        let events = producer_consumer(2, 3);
        assert_eq!(access_count(&events), 2 * 3 * 2);
        let locks = events
            .iter()
            .filter(|e| matches!(e, Event::Acquire { .. } | Event::Release { .. }))
            .count();
        assert_eq!(locks, 2 * 3 * 4, "an acquire+release bracket per access");
    }

    #[test]
    fn lock_disciplined_stream_is_race_free_on_every_drive_path() {
        let events = producer_consumer(2, 4);
        let mut d = HbDetector::new(4, Granularity::WORD, HbMode::Dual);
        let mut sink = VecSink::new();
        assert_eq!(
            detector_reports(&mut d, &mut sink, &events),
            0,
            "hand-off orders every pair"
        );
        let mut session =
            race_core::DetectorConfig::new(race_core::DetectorKind::Dual, 4).session();
        assert_eq!(session_reports(&mut session, &events), 0);
    }

    #[test]
    fn stripping_the_locks_races_and_all_paths_agree() {
        // The same traffic minus the hand-off events must race — proving
        // the lock events (not luck) made the stream clean — and the
        // session path must agree with the bare detector on it.
        let events: Vec<Event> = producer_consumer(2, 4)
            .into_iter()
            .filter(|e| matches!(e, Event::Op(_)))
            .collect();
        let mut d = HbDetector::new(4, Granularity::WORD, HbMode::Dual);
        let inline_reports = detector_reports(&mut d, &mut VecSink::new(), &events);
        assert!(inline_reports > 0, "unlocked hand-off must race");
        let mut session =
            race_core::DetectorConfig::new(race_core::DetectorKind::Dual, 4).session();
        assert_eq!(session_reports(&mut session, &events), inline_reports);
    }
}
