//! Seeded random access traffic — the sweep workload.
//!
//! `n` processes issue `ops_per_rank` operations against `hot_words` shared
//! words scattered round-robin across all public segments. Each operation
//! is a put with probability `p_write`, otherwise a get. Optional `locked`
//! discipline wraps every access in the word's NIC lock (making the
//! workload race-free and keeping the lockset baseline happy).
//!
//! Used by the precision/recall comparison (SEC4D-fp: how many read-read
//! false positives does each detector emit as `p_write` falls?) and by the
//! overhead sweep (SEC5A).

use dsm::GlobalAddr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::program::ProgramBuilder;

use super::Workload;

/// Parameters for the random workload.
#[derive(Debug, Clone, Copy)]
pub struct RandomSpec {
    /// Number of processes.
    pub n: usize,
    /// Operations issued by each rank.
    pub ops_per_rank: usize,
    /// Number of distinct shared words.
    pub hot_words: usize,
    /// Probability an op is a write (put).
    pub p_write: f64,
    /// Wrap every access in the word's NIC lock.
    pub locked: bool,
    /// Workload-construction seed (independent of the engine seed).
    pub seed: u64,
}

impl Default for RandomSpec {
    fn default() -> Self {
        RandomSpec {
            n: 4,
            ops_per_rank: 32,
            hot_words: 8,
            p_write: 0.5,
            locked: false,
            seed: 0xDA7A,
        }
    }
}

/// The shared word with index `i` (placed round-robin, one word per 64-byte
/// line to keep granularities comparable).
pub fn word(spec: &RandomSpec, i: usize) -> dsm::MemRange {
    let rank = i % spec.n;
    let line = i / spec.n;
    GlobalAddr::public(rank, 64 * line).range(8)
}

/// Build the workload.
pub fn generate(spec: RandomSpec) -> Workload {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut programs = Vec::with_capacity(spec.n);
    for rank in 0..spec.n {
        let mut b = ProgramBuilder::new(rank);
        for op in 0..spec.ops_per_rank {
            let w = word(&spec, rng.gen_range(0..spec.hot_words));
            let is_write = rng.gen_bool(spec.p_write);
            if spec.locked {
                b = b.lock(w);
            }
            if is_write {
                b = b.put_u64((rank * 10_000 + op) as u64, w);
            } else {
                b = b.get(w, GlobalAddr::private(rank, 8 * (op % 64)).range(8));
            }
            if spec.locked {
                b = b.unlock(w);
            }
            b = b.compute(rng.gen_range(100..2_000));
        }
        programs.push(b.build());
    }
    Workload {
        name: format!(
            "random({}p,{}ops,{}w,p={:.2}{})",
            spec.n,
            spec.ops_per_rank,
            spec.hot_words,
            spec.p_write,
            if spec.locked { ",locked" } else { "" }
        ),
        n: spec.n,
        programs,
        truth: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let a = generate(RandomSpec::default());
        let b = generate(RandomSpec::default());
        assert_eq!(a.programs, b.programs);
    }

    #[test]
    fn different_seed_differs() {
        let a = generate(RandomSpec::default());
        let b = generate(RandomSpec {
            seed: 99,
            ..RandomSpec::default()
        });
        assert_ne!(a.programs, b.programs);
    }

    #[test]
    fn p_write_zero_has_no_puts() {
        let w = generate(RandomSpec {
            p_write: 0.0,
            ..RandomSpec::default()
        });
        for p in &w.programs {
            assert!(p
                .iter()
                .all(|i| !matches!(i, crate::program::Instr::Put { .. })));
        }
    }

    #[test]
    fn locked_variant_brackets_every_access() {
        let w = generate(RandomSpec {
            locked: true,
            ops_per_rank: 4,
            ..RandomSpec::default()
        });
        // lock + data + unlock + compute per op.
        assert_eq!(w.programs[0].len(), 4 * 4);
    }

    #[test]
    fn words_spread_across_ranks() {
        let spec = RandomSpec::default();
        let ranks: std::collections::HashSet<_> = (0..spec.hot_words)
            .map(|i| word(&spec, i).addr.rank)
            .collect();
        assert_eq!(ranks.len(), spec.n.min(spec.hot_words));
    }
}
