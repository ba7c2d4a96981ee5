//! Detector-only operation streams for perf measurement.
//!
//! The full-system benches (`ops`, `detect`, `overhead`) run the whole
//! discrete-event engine, where network and lock plumbing dominates. To
//! measure the *detector hot path* itself — the target of the epoch
//! fast-path work — these generators reproduce the access patterns of the
//! `stencil` and `random_access` workloads as bare [`DsmOp`] streams plus
//! synchronisation events, and [`drive`] feeds them straight into a
//! [`Detector`].

use race_core::{Detector, DsmOp, LockId, OpKind};
use simulator::workloads::random_access::RandomSpec;

use dsm::GlobalAddr;

/// One event of a detector-only stream.
#[derive(Debug, Clone)]
pub enum StreamEvent {
    /// A DSM operation observed by the detector.
    Op(DsmOp),
    /// A barrier among all ranks.
    Barrier,
    /// `rank` acquired the NIC area lock `lock` (scenario streams with
    /// lock hand-off synchronisation, e.g. [`producer_consumer`]).
    Acquire {
        /// Acquiring process.
        rank: usize,
        /// The program lock.
        lock: LockId,
    },
    /// `rank` released the NIC area lock `lock`.
    Release {
        /// Releasing process.
        rank: usize,
        /// The program lock.
        lock: LockId,
    },
}

/// Number of *clocked* memory accesses a stream performs: the public-side
/// accesses of each op (private memory never reaches the clocks, §IV-A).
/// Synchronisation events — barriers and lock hand-offs — touch clocks but
/// never memory, so they count zero; the match is exhaustive on purpose,
/// so a new event variant cannot silently skew every `ns/access` and
/// `accesses_per_sec` column in the committed BENCH_*.json files.
pub fn access_count(events: &[StreamEvent]) -> u64 {
    use dsm::addr::Segment;
    events
        .iter()
        .map(|e| match e {
            StreamEvent::Op(op) => op
                .accesses()
                .into_iter()
                .filter(|(_, r, _)| r.addr.segment == Segment::Public)
                .count() as u64,
            StreamEvent::Barrier => 0,
            StreamEvent::Acquire { .. } | StreamEvent::Release { .. } => 0,
        })
        .sum()
}

/// The stencil pattern of `simulator::workloads::stencil`: each rank owns
/// `words` words; per iteration it writes its interior, reads its
/// neighbours' boundary words, and everyone barriers. Fully synchronised —
/// the detector's totally-ordered fast path.
pub fn stencil(n: usize, words: usize, iters: usize) -> Vec<StreamEvent> {
    assert!(n >= 2 && words >= 2);
    let mut events = Vec::new();
    let mut op_id = 0u64;
    let mut op = |actor: usize, kind: OpKind, events: &mut Vec<StreamEvent>| {
        events.push(StreamEvent::Op(DsmOp { op_id, actor, kind }));
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
        events.push(StreamEvent::Barrier);
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
        events.push(StreamEvent::Barrier);
    }
    events
}

/// The `random_access` pattern: every rank issues `spec.ops_per_rank`
/// put/get operations against `spec.hot_words` shared words, unlocked —
/// genuinely concurrent traffic exercising demotion and the antichain
/// slow path.
pub fn random(spec: RandomSpec) -> Vec<StreamEvent> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut events = Vec::new();
    let word = |i: usize| {
        let rank = i % spec.n;
        let slot = i / spec.n;
        GlobalAddr::public(rank, slot * 8).range(8)
    };
    // Interleave rank streams round-robin, as the engine's lockstep
    // scheduling roughly does.
    for op_index in 0..spec.ops_per_rank {
        for rank in 0..spec.n {
            let target = word(rng.gen_range(0..spec.hot_words));
            let op_id = (op_index * spec.n + rank) as u64;
            let kind = if rng.gen_bool(spec.p_write) {
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
            events.push(StreamEvent::Op(DsmOp {
                op_id,
                actor: rank,
                kind,
            }));
        }
    }
    events
}

/// The `hotspot` pattern: every rank hammers the same few words of rank
/// 0's public segment, completely unsynchronised, ~25% writes. Maximum
/// contention for the detector: the hot areas demote to dense joins, the
/// antichains grow to the concurrency width, every access runs the O(n)
/// scan, and the report stream is dense. Deterministic, no RNG.
pub fn hotspot(n: usize, ops_per_rank: usize, hot_words: usize) -> Vec<StreamEvent> {
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
            events.push(StreamEvent::Op(DsmOp {
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
pub fn producer_consumer(pairs: usize, items: usize) -> Vec<StreamEvent> {
    assert!(pairs >= 1 && items >= 1);
    let mut events = Vec::new();
    let mut op_id = 0u64;
    for item in 0..items {
        for p in 0..pairs {
            let (producer, consumer) = (2 * p, 2 * p + 1);
            let buf = GlobalAddr::public(producer, 0).range(8);
            let lock: LockId = (producer, 0);
            // Producer writes under the lock…
            events.push(StreamEvent::Acquire {
                rank: producer,
                lock,
            });
            events.push(StreamEvent::Op(DsmOp {
                op_id,
                actor: producer,
                kind: OpKind::LocalWrite { range: buf },
            }));
            op_id += 1;
            events.push(StreamEvent::Release {
                rank: producer,
                lock,
            });
            // …and the consumer gets it under the same lock.
            events.push(StreamEvent::Acquire {
                rank: consumer,
                lock,
            });
            events.push(StreamEvent::Op(DsmOp {
                op_id,
                actor: consumer,
                kind: OpKind::Get {
                    src: buf,
                    dst: GlobalAddr::private(consumer, item * 8).range(8),
                },
            }));
            op_id += 1;
            events.push(StreamEvent::Release {
                rank: consumer,
                lock,
            });
        }
    }
    events
}

/// Feed a stream through a detector; returns the total number of reports.
pub fn drive(detector: &mut dyn Detector, events: &[StreamEvent]) -> usize {
    let mut reports = 0;
    for e in events {
        match e {
            StreamEvent::Op(op) => reports += detector.observe(op, &[]),
            StreamEvent::Barrier => detector.on_barrier(),
            StreamEvent::Acquire { rank, lock } => detector.on_acquire(*rank, *lock),
            StreamEvent::Release { rank, lock } => detector.on_release(*rank, *lock),
        }
    }
    reports
}

/// Feed a stream through a detector's sink path
/// ([`Detector::observe_sink`]) with a caller-owned sink — the bare
/// streaming hot loop, no session bookkeeping; returns the total number of
/// reports.
pub fn drive_sink(
    detector: &mut dyn Detector,
    sink: &mut dyn race_core::ReportSink,
    events: &[StreamEvent],
) -> usize {
    let mut reports = 0;
    for e in events {
        match e {
            StreamEvent::Op(op) => reports += detector.observe_sink(op, &[], sink),
            StreamEvent::Barrier => detector.on_barrier(),
            StreamEvent::Acquire { rank, lock } => detector.on_acquire(*rank, *lock),
            StreamEvent::Release { rank, lock } => detector.on_release(*rank, *lock),
        }
    }
    reports
}

/// Feed a stream through a `race_core::api` [`race_core::Session`]
/// (reports go to the session's sink); returns the total number of
/// reports.
pub fn drive_session(session: &mut race_core::Session, events: &[StreamEvent]) -> usize {
    let mut reports = 0;
    for e in events {
        match e {
            StreamEvent::Op(op) => reports += session.observe(op, &[]),
            StreamEvent::Barrier => session.on_barrier(),
            StreamEvent::Acquire { rank, lock } => session.on_acquire(*rank, *lock),
            StreamEvent::Release { rank, lock } => session.on_release(*rank, *lock),
        }
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use race_core::{Granularity, HbDetector, HbMode, ReferenceHbDetector};

    #[test]
    fn stencil_stream_is_race_free_and_stays_on_fast_path() {
        let events = stencil(8, 8, 3);
        let mut d = HbDetector::new(8, Granularity::WORD, HbMode::Dual);
        assert_eq!(
            drive(&mut d, &events),
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
    fn random_stream_matches_reference_reports() {
        let spec = RandomSpec {
            n: 6,
            ops_per_rank: 40,
            hot_words: 12,
            p_write: 0.5,
            locked: false,
            seed: 7,
        };
        let events = random(spec);
        let mut fast = HbDetector::new(spec.n, Granularity::WORD, HbMode::Dual);
        let mut slow = ReferenceHbDetector::new(spec.n, Granularity::WORD, HbMode::Dual);
        let a = drive(&mut fast, &events);
        let b = drive(&mut slow, &events);
        assert_eq!(a, b);
        assert!(a > 0, "unlocked random traffic must race");
    }

    #[test]
    fn hotspot_is_racy_and_matches_reference() {
        let events = hotspot(4, 32, 4);
        let mut fast = HbDetector::new(4, Granularity::WORD, HbMode::Dual);
        let mut slow = ReferenceHbDetector::new(4, Granularity::WORD, HbMode::Dual);
        let a = drive(&mut fast, &events);
        let b = drive(&mut slow, &events);
        assert_eq!(a, b);
        assert!(a > 0, "unsynchronised hotspot traffic must race");
        assert_eq!(fast.reports(), slow.reports());
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
        // Sync events must never skew the ns/access denominators of
        // committed bench rows: the producer/consumer stream is 2 clocked
        // accesses per item per pair (the write and the get's public read),
        // no matter how many lock events bracket them.
        let events = producer_consumer(2, 3);
        assert_eq!(access_count(&events), 2 * 3 * 2);
        let locks = events
            .iter()
            .filter(|e| matches!(e, StreamEvent::Acquire { .. } | StreamEvent::Release { .. }))
            .count();
        assert_eq!(locks, 2 * 3 * 4, "an acquire+release bracket per access");
    }

    #[test]
    fn lock_disciplined_stream_is_race_free_on_every_drive_path() {
        let events = producer_consumer(2, 4);
        let mut d = HbDetector::new(4, Granularity::WORD, HbMode::Dual);
        assert_eq!(drive(&mut d, &events), 0, "hand-off orders every pair");
        let mut d = HbDetector::new(4, Granularity::WORD, HbMode::Dual);
        let mut sink = race_core::VecSink::new();
        assert_eq!(drive_sink(&mut d, &mut sink, &events), 0);
        let mut session =
            race_core::DetectorConfig::new(race_core::DetectorKind::Dual, 4).session();
        assert_eq!(drive_session(&mut session, &events), 0);
    }

    #[test]
    fn stripping_the_locks_races_and_all_paths_agree() {
        // The same traffic minus the hand-off events must race — proving
        // the lock events (not luck) made the stream clean — and the
        // session path must agree with the bare detector on it.
        let events: Vec<StreamEvent> = producer_consumer(2, 4)
            .into_iter()
            .filter(|e| matches!(e, StreamEvent::Op(_)))
            .collect();
        let mut d = HbDetector::new(4, Granularity::WORD, HbMode::Dual);
        let inline_reports = drive(&mut d, &events);
        assert!(inline_reports > 0, "unlocked hand-off must race");
        let mut session =
            race_core::DetectorConfig::new(race_core::DetectorKind::Dual, 4).session();
        assert_eq!(drive_session(&mut session, &events), inline_reports);
    }
}
