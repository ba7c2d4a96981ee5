//! Producer/consumer hand-off: disjoint pairs of ranks exchange items
//! through a single buffer word per pair.
//!
//! Pair `p` is ranks `2p` (producer) and `2p+1` (consumer); the buffer is
//! word 0 of the producer's public segment. The producer writes the buffer
//! locally; the consumer fetches it with a one-sided get.
//!
//! * [`safe`] — both sides wrap the buffer access in the NIC area lock
//!   (§III-A), so every conflicting pair is ordered by a lock hand-off:
//!   race-free in every schedule, no barriers involved.
//! * [`racy`] — the same traffic without the lock: the producer's write
//!   and the consumer's get are unsynchronised conflicting accesses on
//!   every item, so each pair's buffer races in every schedule
//!   ([`ScenarioTruth::always`]).

use dsm::GlobalAddr;

use crate::program::ProgramBuilder;

use super::{ScenarioTruth, Workload};

/// The hand-off buffer of pair `p`: word 0 of the producer's segment.
pub fn buffer(pair: usize) -> dsm::MemRange {
    GlobalAddr::public(2 * pair, 0).range(8)
}

fn build(n: usize, items: usize, locked: bool) -> Workload {
    assert!(
        n >= 2 && n.is_multiple_of(2),
        "producer/consumer needs rank pairs"
    );
    assert!(items >= 1);
    let pairs = n / 2;
    let mut programs = Vec::with_capacity(n);
    for p in 0..pairs {
        let (producer, consumer) = (2 * p, 2 * p + 1);
        let buf = buffer(p);
        let mut b = ProgramBuilder::new(producer);
        for item in 0..items {
            if locked {
                b = b.lock(buf);
            }
            b = b.local_write_u64(buf, item as u64);
            if locked {
                b = b.unlock(buf);
            }
            b = b.compute(500);
        }
        programs.push(b.build());
        let scratch = GlobalAddr::private(consumer, 0).range(8);
        let mut b = ProgramBuilder::new(consumer);
        for _ in 0..items {
            if locked {
                b = b.lock(buf);
            }
            b = b.get(buf, scratch);
            if locked {
                b = b.unlock(buf);
            }
            b = b.compute(500);
        }
        programs.push(b.build());
    }
    let truth = if locked {
        ScenarioTruth::race_free()
    } else {
        ScenarioTruth::always((0..pairs).map(|p| (2 * p, 0)).collect())
    };
    Workload {
        name: format!(
            "prodcons-{}({n}p,{items}i)",
            if locked { "safe" } else { "racy" }
        ),
        n,
        programs,
        truth: None,
    }
    .with_truth(truth)
}

/// Lock-disciplined hand-off (race-free).
pub fn safe(n: usize, items: usize) -> Workload {
    build(n, items, true)
}

/// Lock-free hand-off: every pair's buffer races in every schedule.
pub fn racy(n: usize, items: usize) -> Workload {
    build(n, items, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_truth() {
        let s = safe(4, 3);
        assert_eq!(s.programs.len(), 4);
        let t = racy(4, 3).truth.unwrap();
        assert!(t.always_races());
        assert_eq!(t.racy_sites, vec![(0, 0), (2, 0)]);
    }

    #[test]
    #[should_panic(expected = "rank pairs")]
    fn odd_rank_count_rejected() {
        safe(3, 1);
    }
}
