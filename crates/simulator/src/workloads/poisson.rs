//! Poisson arrivals: clients fire requests at a server with exponentially
//! distributed think time between sends — the open-system arrival process
//! the paper's "typically, about 10 processes" debugging runs see in
//! practice. Inter-arrival gaps are sampled from a seeded RNG, so a
//! `(workload, seed)` pair reproduces the exact program bit-for-bit.
//!
//! * [`safe`] — client `c` posts into its own request slot (word `c` of the
//!   server's segment); a final barrier separates the arrival phase from
//!   the server's read-out: race-free at any arrival intensity.
//! * [`racy`] — all clients post to the shared word 0 with no
//!   synchronisation: with two or more clients the slot sees conflicting
//!   unsynchronised writes in every schedule ([`ScenarioTruth::always`]).

use dsm::GlobalAddr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::program::ProgramBuilder;

use super::{ScenarioTruth, Workload};

/// Request slot `i` on the server's (rank 0's) public segment.
pub fn slot(i: usize) -> dsm::MemRange {
    GlobalAddr::public(0, i * 8).range(8)
}

/// One exponential think-time sample, ns (clamped to at least 1).
fn exp_gap(rng: &mut StdRng, mean_ns: u64) -> u64 {
    let u: f64 = rng.gen_range(0.0f64..1.0);
    ((-(1.0 - u).ln()) * mean_ns as f64).max(1.0) as u64
}

fn build(n: usize, events: usize, mean_gap_ns: u64, seed: u64, shared: bool) -> Workload {
    assert!(n >= 3, "poisson arrivals need a server and two clients");
    assert!(events >= 1 && mean_gap_ns >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut programs = Vec::with_capacity(n);
    let mut server = ProgramBuilder::new(0);
    if shared {
        server = server.compute(mean_gap_ns).local_read(slot(0));
    } else {
        server = server.barrier();
        for c in 1..n {
            server = server.local_read(slot(c));
        }
    }
    programs.push(server.build());
    for c in 1..n {
        let mut b = ProgramBuilder::new(c);
        for e in 0..events {
            let dst = if shared { slot(0) } else { slot(c) };
            b = b
                .compute(exp_gap(&mut rng, mean_gap_ns))
                .put_u64((c * events + e) as u64, dst);
        }
        if !shared {
            b = b.barrier();
        }
        programs.push(b.build());
    }
    let truth = if shared {
        ScenarioTruth::always(vec![(0, 0)])
    } else {
        ScenarioTruth::race_free()
    };
    Workload {
        name: format!(
            "poisson-{}({n}p,{events}e,seed{seed})",
            if shared { "racy" } else { "safe" }
        ),
        n,
        programs,
        truth: None,
    }
    .with_truth(truth)
}

/// Slotted arrivals with a read-out barrier (race-free).
pub fn safe(n: usize, events: usize, mean_gap_ns: u64, seed: u64) -> Workload {
    build(n, events, mean_gap_ns, seed, false)
}

/// All arrivals funnel into one unsynchronised slot (always races).
pub fn racy(n: usize, events: usize, mean_gap_ns: u64, seed: u64) -> Workload {
    build(n, events, mean_gap_ns, seed, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = safe(4, 3, 2_000, 7);
        let b = safe(4, 3, 2_000, 7);
        assert_eq!(a.programs, b.programs, "same seed, same programs");
        let c = safe(4, 3, 2_000, 8);
        assert_ne!(a.programs, c.programs, "different seed perturbs gaps");
    }

    #[test]
    fn truth_annotations() {
        assert!(safe(4, 2, 1_000, 1).truth.unwrap().is_race_free());
        let t = racy(4, 2, 1_000, 1).truth.unwrap();
        assert!(t.always_races());
        assert_eq!(t.racy_sites, vec![(0, 0)]);
    }

    #[test]
    fn gaps_are_positive() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert!(exp_gap(&mut rng, 1_000) >= 1);
        }
    }
}
