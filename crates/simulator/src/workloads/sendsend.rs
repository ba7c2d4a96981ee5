//! Unordered send/send: two ranks put to the same remote word, with only
//! a one-directional atomic hint between them.
//!
//! Group `g` is ranks `3g` (first sender), `3g + 1` (second sender) and
//! `3g + 2` (owner, passive). Item `i`'s contested word is word `1 + i`
//! of the owner's public segment; word 0 is an atomic flag (atomic/atomic
//! pairs never race, so the flag itself is clean).
//!
//! * [`safe`] — a global barrier between the two senders' put phases
//!   orders every write pair: race-free in every schedule.
//! * [`racy`] — the first sender puts then bumps the flag; the second
//!   sender polls the flag *once* then puts. When the poll observes the
//!   bump, the absorb edge (flag write → the poller's *subsequent*
//!   accesses) orders second put after first; when it fires early,
//!   nothing orders the two writes. Every contested word races in *some*
//!   schedules only — [`ScenarioTruth::sometimes`] (the static analyzer's
//!   `ScheduleDependent`: a may-HB path through the flag, no must-HB
//!   path, and no path at all in the reverse direction).

use dsm::GlobalAddr;

use crate::program::ProgramBuilder;

use super::{ScenarioTruth, Workload};

/// The atomic flag of group `g`: word 0 of the owner's segment.
pub fn flag(group: usize) -> dsm::MemRange {
    GlobalAddr::public(3 * group + 2, 0).range(8)
}

/// Item `i`'s contested word for group `g`: word `1 + i` of the owner's
/// segment.
pub fn word(group: usize, item: usize) -> dsm::MemRange {
    GlobalAddr::public(3 * group + 2, 8 * (1 + item)).range(8)
}

fn build(n: usize, items: usize, barriers: bool) -> Workload {
    assert!(
        n >= 3 && n.is_multiple_of(3),
        "send/send needs rank triples"
    );
    assert!(items >= 1);
    let groups = n / 3;
    let mut programs = Vec::with_capacity(n);
    for g in 0..groups {
        let (first, second, _owner) = (3 * g, 3 * g + 1, 3 * g + 2);
        let f = flag(g);
        let mut b = ProgramBuilder::new(first);
        for item in 0..items {
            b = b
                .put_u64(1 + item as u64, word(g, item))
                .fetch_add(f, 1, None);
            if barriers {
                b = b.barrier();
            }
        }
        programs.push(b.build());
        let scratch = GlobalAddr::private(second, 0).range(8);
        let mut b = ProgramBuilder::new(second);
        for item in 0..items {
            if barriers {
                b = b.barrier();
            } else {
                // As in `handshake`: even items poll before the first
                // sender's bump can land (unordered puts — race), odd items
                // poll late enough to observe it (absorb edge orders the
                // puts — no race), so both outcomes appear in one schedule.
                b = b.compute(200_000 * (item as u64 % 2));
            }
            b = b
                .fetch_add(f, 0, Some(scratch))
                .put_u64(100 + item as u64, word(g, item));
        }
        programs.push(b.build());
        // The owner only hosts the segment; it must still join every
        // global barrier.
        let mut b = ProgramBuilder::new(3 * g + 2);
        if barriers {
            for _ in 0..items {
                b = b.barrier();
            }
        } else {
            b = b.compute(100);
        }
        programs.push(b.build());
    }
    let truth = if barriers {
        ScenarioTruth::race_free()
    } else {
        ScenarioTruth::sometimes(
            (0..groups)
                .flat_map(|g| (0..items).map(move |i| (3 * g + 2, 1 + i)))
                .collect(),
        )
    };
    Workload {
        name: format!(
            "sendsend-{}({n}p,{items}i)",
            if barriers { "safe" } else { "racy" }
        ),
        n,
        programs,
        truth: None,
    }
    .with_truth(truth)
}

/// Barrier-ordered sends (race-free in every schedule).
pub fn safe(n: usize, items: usize) -> Workload {
    build(n, items, true)
}

/// Flag-hinted unordered sends: every contested word races in *some*
/// schedules only (schedule-dependent).
pub fn racy(n: usize, items: usize) -> Workload {
    build(n, items, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::RaceGrade;

    #[test]
    fn shapes_and_truth() {
        let s = safe(3, 2);
        assert_eq!(s.programs.len(), 3);
        let r = racy(6, 2);
        let t = r.truth.unwrap();
        assert_eq!(t.grade, RaceGrade::Sometimes);
        assert_eq!(t.racy_sites, vec![(2, 1), (2, 2), (5, 1), (5, 2)]);
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
    #[should_panic(expected = "rank triples")]
    fn non_triple_rank_count_rejected() {
        safe(4, 1);
    }
}
