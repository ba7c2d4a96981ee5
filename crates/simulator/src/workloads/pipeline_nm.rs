//! N×M software pipeline: `n` stages (one per rank) each hand `m` items to
//! the next stage by reading the upstream rank's buffer words.
//!
//! Stage `s` owns buffer words `0..m` of its public segment; it reads item
//! `i` from stage `s-1`'s word `i` (a one-sided get) and writes its own
//! word `i` for the downstream stage.
//!
//! * [`safe`] — stage `s` starts only after `s` barriers, so every upstream
//!   write happens-before the downstream read: race-free (a wavefront
//!   schedule; every rank passes through the same `n-1` barriers).
//! * [`racy`] — no barriers: each get races with the upstream stage's
//!   write of the same word. A data-flow absorb edge never orders the
//!   reading access itself, so every producer/consumer word pair races in
//!   every schedule ([`ScenarioTruth::always`]) — the Fig 5b chain shape,
//!   scaled to a matrix.

use dsm::GlobalAddr;

use crate::program::ProgramBuilder;

use super::{ScenarioTruth, Workload};

/// Stage `s`'s buffer word for item `i`.
pub fn buf(stage: usize, item: usize) -> dsm::MemRange {
    GlobalAddr::public(stage, item * 8).range(8)
}

fn build(n: usize, m: usize, barriers: bool) -> Workload {
    assert!(n >= 2, "a pipeline needs at least two stages");
    assert!(m >= 1, "a pipeline needs at least one item");
    let mut programs = Vec::with_capacity(n);
    for stage in 0..n {
        let mut b = ProgramBuilder::new(stage);
        if barriers {
            for _ in 0..stage {
                b = b.barrier();
            }
        }
        for item in 0..m {
            if stage > 0 {
                b = b.get(
                    buf(stage - 1, item),
                    GlobalAddr::private(stage, item * 8).range(8),
                );
            }
            b = b
                .local_write_u64(buf(stage, item), (stage * m + item) as u64)
                .compute(500);
        }
        if barriers {
            for _ in stage..n - 1 {
                b = b.barrier();
            }
        }
        programs.push(b.build());
    }
    let truth = if barriers {
        ScenarioTruth::race_free()
    } else {
        // Every stage's buffer except the last is read unsynchronised
        // downstream.
        ScenarioTruth::always(
            (0..n - 1)
                .flat_map(|s| (0..m).map(move |i| (s, i)))
                .collect(),
        )
    };
    Workload {
        name: format!(
            "pipeline-{}({n}s,{m}i)",
            if barriers { "safe" } else { "racy" }
        ),
        n,
        programs,
        truth: None,
    }
    .with_truth(truth)
}

/// Wavefront-scheduled pipeline (race-free).
pub fn safe(n: usize, m: usize) -> Workload {
    build(n, m, true)
}

/// Free-running pipeline: every hand-off word races in every schedule.
pub fn racy(n: usize, m: usize) -> Workload {
    build(n, m, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Instr;

    #[test]
    fn every_rank_reaches_the_same_barrier_count() {
        let w = safe(4, 3);
        let counts: Vec<usize> = w
            .programs
            .iter()
            .map(|p| p.iter().filter(|i| matches!(i, Instr::Barrier)).count())
            .collect();
        assert_eq!(counts, vec![3, 3, 3, 3]);
    }

    #[test]
    fn truth_covers_all_handoff_words() {
        let r = racy(4, 3);
        let t = r.truth.unwrap();
        assert!(t.always_races());
        assert_eq!(t.racy_sites.len(), 3 * 3, "stages 0..2 × items 0..2");
        assert!(t.racy_sites.contains(&(2, 2)));
        assert!(!t.racy_sites.contains(&(3, 0)), "last stage has no reader");
        assert!(safe(4, 3).truth.unwrap().is_race_free());
    }
}
