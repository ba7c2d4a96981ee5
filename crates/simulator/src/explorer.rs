//! Multi-seed interleaving exploration.
//!
//! Races are schedule-dependent: the put/put conflict of Fig 5a only
//! *manifests* in orders the network happens to produce. The explorer runs
//! the same program under `k` seeds (each seed re-seeds the latency jitter,
//! producing a different interleaving) in parallel OS threads, and
//! aggregates what each run detected — this is how the reproduction turns
//! the paper's qualitative scenarios into detection-rate numbers.

use race_core::{Oracle, Score};

use crate::config::SimConfig;
use crate::engine::Engine;
use crate::program::Program;

/// Result of one explored seed.
#[derive(Debug)]
pub struct SeedOutcome {
    /// The seed.
    pub seed: u64,
    /// Deduplicated reports from the online detector.
    pub reported_pairs: usize,
    /// True races in this schedule per the oracle.
    pub truth_pairs: usize,
    /// Detector score against the oracle.
    pub score: Score,
    /// Virtual completion time, ns.
    pub virtual_ns: u64,
    /// Total messages on the wire.
    pub messages: u64,
}

/// Aggregate over all explored seeds.
#[derive(Debug)]
pub struct ExplorationSummary {
    /// Per-seed outcomes, in seed order.
    pub outcomes: Vec<SeedOutcome>,
}

impl ExplorationSummary {
    /// Seeds in which the detector reported at least one race.
    pub fn seeds_with_reports(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.reported_pairs > 0)
            .count()
    }

    /// Seeds in which the oracle found at least one true race.
    pub fn seeds_with_truth(&self) -> usize {
        self.outcomes.iter().filter(|o| o.truth_pairs > 0).count()
    }

    /// Mean precision across seeds.
    pub fn mean_precision(&self) -> f64 {
        let s: f64 = self.outcomes.iter().map(|o| o.score.precision()).sum();
        s / self.outcomes.len().max(1) as f64
    }

    /// Mean recall across seeds.
    pub fn mean_recall(&self) -> f64 {
        let s: f64 = self.outcomes.iter().map(|o| o.score.recall()).sum();
        s / self.outcomes.len().max(1) as f64
    }

    /// Total false positives across seeds.
    pub fn total_false_positives(&self) -> usize {
        self.outcomes.iter().map(|o| o.score.false_positives).sum()
    }
}

/// Run `programs` under `seeds`, one engine per seed, in parallel threads
/// (std scoped threads; the per-seed engines are fully independent).
pub fn explore(cfg: &SimConfig, programs: &[Program], seeds: &[u64]) -> ExplorationSummary {
    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                let cfg = cfg.clone().with_seed(seed);
                let programs = programs.to_vec();
                scope.spawn(move || run_one(cfg, programs, seed))
            })
            .collect();
        #[expect(
            clippy::expect_used,
            reason = "propagate a worker-thread panic into the exploring test instead of fabricating an outcome."
        )]
        handles
            .into_iter()
            .map(|h| h.join().expect("seed thread panicked"))
            .collect()
    });
    ExplorationSummary { outcomes }
}

fn run_one(cfg: SimConfig, programs: Vec<Program>, seed: u64) -> SeedOutcome {
    let engine = Engine::new(cfg, programs);
    let result = engine.run();
    let oracle = Oracle::analyze(&result.trace);
    let score = oracle.score(result.deduped());
    SeedOutcome {
        seed,
        reported_pairs: result.deduped().len(),
        truth_pairs: oracle.truth().len(),
        score,
        virtual_ns: result.virtual_time.as_ns(),
        messages: result.stats.total_msgs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;
    use dsm::GlobalAddr;

    /// Two processes put to the same word of P1's memory: a race in every
    /// schedule.
    fn racy_programs() -> Vec<Program> {
        let dst = GlobalAddr::public(1, 0).range(8);
        vec![
            ProgramBuilder::new(0).put_u64(1, dst).build(),
            ProgramBuilder::new(1).build(),
            ProgramBuilder::new(2).put_u64(2, dst).build(),
        ]
    }

    #[test]
    fn explorer_runs_all_seeds() {
        let cfg = SimConfig::debugging(3);
        let summary = explore(&cfg, &racy_programs(), &[1, 2, 3, 4]);
        assert_eq!(summary.outcomes.len(), 4);
        assert_eq!(
            summary.seeds_with_truth(),
            4,
            "the WW race exists in every schedule"
        );
        assert_eq!(
            summary.seeds_with_reports(),
            4,
            "dual clock catches it in every schedule"
        );
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let cfg = SimConfig::debugging(3);
        let a = explore(&cfg, &racy_programs(), &[7]);
        let b = explore(&cfg, &racy_programs(), &[7]);
        assert_eq!(a.outcomes[0].virtual_ns, b.outcomes[0].virtual_ns);
        assert_eq!(a.outcomes[0].messages, b.outcomes[0].messages);
        assert_eq!(a.outcomes[0].reported_pairs, b.outcomes[0].reported_pairs);
    }
}
