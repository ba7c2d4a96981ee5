//! Flag handshake: disjoint pairs of ranks exchange items through
//! per-item data words, signalled by an atomic flag.
//!
//! Pair `p` is ranks `2p` (producer) and `2p+1` (consumer). The flag is
//! word 0 of the consumer's public segment and is touched *only* by
//! NIC-serialised atomics (atomic/atomic pairs never race — §V-B); item
//! `i`'s data lives in word `1 + i` of the consumer's segment, so every
//! data word carries exactly one conflicting pair.
//!
//! * [`safe`] — each item's put is separated from the consumer's read by
//!   a global barrier: race-free in every schedule.
//! * [`racy`] — the consumer polls the flag *once* (a single fetch-add of
//!   zero) instead of waiting, then reads the data word. When the poll
//!   observes the producer's flag increment, the oracle's absorb edge
//!   (flag write → consumer's *subsequent* accesses) orders the data read
//!   after the put; when the poll fires first, nothing does. The data
//!   sites therefore race in *some* schedules only —
//!   [`ScenarioTruth::sometimes`], the grade the static analyzer
//!   certifies as `ScheduleDependent` (a may-HB path exists through the
//!   flag, but no must-HB path).

use dsm::GlobalAddr;

use crate::program::ProgramBuilder;

use super::{ScenarioTruth, Workload};

/// The atomic flag of pair `p`: word 0 of the consumer's segment.
pub fn flag(pair: usize) -> dsm::MemRange {
    GlobalAddr::public(2 * pair + 1, 0).range(8)
}

/// Item `i`'s data word for pair `p`: word `1 + i` of the consumer's
/// segment.
pub fn data(pair: usize, item: usize) -> dsm::MemRange {
    GlobalAddr::public(2 * pair + 1, 8 * (1 + item)).range(8)
}

fn build(n: usize, items: usize, barriers: bool) -> Workload {
    assert!(n >= 2 && n.is_multiple_of(2), "handshake needs rank pairs");
    assert!(items >= 1);
    let pairs = n / 2;
    let mut programs = Vec::with_capacity(n);
    for p in 0..pairs {
        let (producer, consumer) = (2 * p, 2 * p + 1);
        let f = flag(p);
        let mut b = ProgramBuilder::new(producer);
        for item in 0..items {
            b = b.put_u64(item as u64, data(p, item)).fetch_add(f, 1, None);
            if barriers {
                b = b.barrier();
            }
        }
        programs.push(b.build());
        let scratch = GlobalAddr::private(consumer, 0).range(8);
        let mut b = ProgramBuilder::new(consumer);
        for item in 0..items {
            if barriers {
                b = b.barrier();
            } else {
                // Alternate the poll's timing: even items poll immediately
                // (the poll beats the increment on quiet nets — race), odd
                // items poll after a long compute (the poll observes the
                // increment, whose absorb edge orders the data read — no
                // race). One workload thus shows both outcomes of the
                // schedule-dependent site set on most nets and seeds.
                b = b.compute(200_000 * (item as u64 % 2));
            }
            b = b.fetch_add(f, 0, Some(scratch)).local_read(data(p, item));
        }
        programs.push(b.build());
    }
    let truth = if barriers {
        ScenarioTruth::race_free()
    } else {
        ScenarioTruth::sometimes(
            (0..pairs)
                .flat_map(|p| (0..items).map(move |i| (2 * p + 1, 1 + i)))
                .collect(),
        )
    };
    Workload {
        name: format!(
            "handshake-{}({n}p,{items}i)",
            if barriers { "safe" } else { "racy" }
        ),
        n,
        programs,
        truth: None,
    }
    .with_truth(truth)
}

/// Barrier-separated hand-off (race-free in every schedule).
pub fn safe(n: usize, items: usize) -> Workload {
    build(n, items, true)
}

/// Single-poll hand-off: each data word races in *some* schedules only
/// (schedule-dependent; the flag's absorb edge orders the read when — and
/// only when — the poll observes the increment).
pub fn racy(n: usize, items: usize) -> Workload {
    build(n, items, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::RaceGrade;

    #[test]
    fn shapes_and_truth() {
        let s = safe(4, 2);
        assert_eq!(s.programs.len(), 4);
        assert_eq!(s.truth.as_ref().map(|t| t.grade), Some(RaceGrade::Never));
        let r = racy(4, 2);
        let t = r.truth.unwrap();
        assert_eq!(t.grade, RaceGrade::Sometimes);
        assert_eq!(t.racy_sites, vec![(1, 1), (1, 2), (3, 1), (3, 2)]);
    }

    #[test]
    fn barrier_counts_match_across_ranks() {
        let s = safe(6, 3);
        let counts: Vec<usize> = s
            .programs
            .iter()
            .map(|p| {
                p.iter()
                    .filter(|i| matches!(i, crate::program::Instr::Barrier))
                    .count()
            })
            .collect();
        assert!(counts.iter().all(|&c| c == 3), "{counts:?}");
    }

    #[test]
    #[should_panic(expected = "rank pairs")]
    fn odd_rank_count_rejected() {
        safe(3, 1);
    }
}
