//! Workload generators.
//!
//! Each generator builds the per-rank programs for one scenario:
//!
//! * [`figures`] — the paper's own examples: Fig 1 (model exercise), Fig 3
//!   (delayed put), Fig 4 (concurrent gets), Fig 5a/5b/5c (detection
//!   scenarios);
//! * [`master_worker`] — the §IV-D motivating pattern ("parallel
//!   master-worker computation patterns induce a race condition between
//!   workers"), in racy and well-placed variants;
//! * [`stencil`] — 1-D halo exchange via one-sided puts, with and without
//!   the separating barrier;
//! * [`reduction`] — the §V-B future-work operation: a one-sided reduction
//!   performed entirely by the root via gets, "without any participation
//!   from the other processes";
//! * [`random_access`] — seeded random put/get/local traffic with a
//!   configurable write ratio and conflict rate (the precision/recall and
//!   overhead sweeps);
//! * [`ring`] — a causally chained ring pipeline (race-free by
//!   construction; any report is a false positive);
//! * [`counters`] — the same shared counter under atomic / locked / racy
//!   disciplines (the §V-B extension study);
//! * [`matvec`] — distributed matrix–vector multiply placed by the
//!   symmetric heap (the allocator's compiler role, §III-A);
//! * the **scenario matrix** (`repro --scenarios`): Suite A/B-style
//!   communication-pattern twins, each carrying a [`ScenarioTruth`]
//!   annotation so the oracle can grade detectors against known ground
//!   truth — [`fanout`], [`fanin`], [`pipeline_nm`], [`poisson`],
//!   [`producer_consumer`], [`lock_contention`], plus the
//!   schedule-dependent pairs [`handshake`] and [`sendsend`] whose racy
//!   twins are graded [`RaceGrade::Sometimes`] (certified by the static
//!   analyzer in `dsm-analysis`, not by one dynamic schedule alone).

pub mod counters;
pub mod fanin;
pub mod fanout;
pub mod figures;
pub mod handshake;
pub mod lock_contention;
pub mod master_worker;
pub mod matvec;
pub mod pipeline_nm;
pub mod poisson;
pub mod producer_consumer;
pub mod random_access;
pub mod reduction;
pub mod ring;
pub mod sendsend;
pub mod stencil;

use crate::program::Program;

/// The three-valued raciness grade of a scenario (or of one race site,
/// in the static analyzer's per-site output).
///
/// The dynamic oracle grades one observed schedule; a scenario's *truth*
/// must quantify over all of them:
///
/// * [`RaceGrade::Never`] — no schedule produces a race (every conflicting
///   pair is ordered by the sync skeleton, or mutually excluded by a lock);
/// * [`RaceGrade::Always`] — at least one conflicting pair carries no
///   synchronisation whatsoever, so *every* schedule races;
/// * [`RaceGrade::Sometimes`] — raciness is schedule-dependent: a dynamic
///   edge (a data-flow absorb, a lock hand-off chain) orders the conflict
///   in some interleavings and not in others.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RaceGrade {
    /// Race-free in every schedule.
    Never,
    /// Races in every schedule.
    Always,
    /// Races in some schedules only.
    Sometimes,
}

impl RaceGrade {
    /// Stable label for matrix output rows.
    pub fn label(self) -> &'static str {
        match self {
            RaceGrade::Never => "never",
            RaceGrade::Always => "always",
            RaceGrade::Sometimes => "sometimes",
        }
    }
}

/// Embedded ground truth for an oracle-validated scenario.
///
/// `racy_sites` is the *complete* catalogue of race sites — `(owner rank,
/// 8-byte word index)` pairs, the same [`race_core::SiteKey`] shape the
/// oracle's site scoring uses — where conflicting unsynchronised accesses
/// exist in the workload. Empty means race-free by construction in every
/// schedule. The harness asserts per run:
///
/// * **soundness of the annotation** — every site the oracle finds racy is
///   in the catalogue;
/// * **completeness of the detector** — when the grade is
///   [`RaceGrade::Always`], every catalogued site must be found by the
///   oracle (and, for site-complete detector kinds, reported);
/// * **schedule dependence** — when the grade is [`RaceGrade::Sometimes`],
///   the sweep as a whole must observe both outcomes: some cell races at a
///   catalogued site, some cell does not.
///
/// `always` is declared only when the racy accesses carry *no*
/// synchronisation whatsoever, so no schedule can order them (a data-flow
/// absorb edge never orders the reading access itself — oracle semantics).
/// `sometimes` is declared when every catalogued site's conflicts are
/// orderable by a dynamic edge in some schedules — the grade the static
/// analyzer (`dsm-analysis`) certifies as `ScheduleDependent`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioTruth {
    /// All `(owner rank, word index)` sites where races can occur; empty =
    /// race-free in every schedule.
    pub racy_sites: Vec<(usize, usize)>,
    /// The scenario's raciness grade over all schedules.
    pub grade: RaceGrade,
}

impl ScenarioTruth {
    /// The race-free annotation.
    pub fn race_free() -> Self {
        ScenarioTruth {
            racy_sites: Vec::new(),
            grade: RaceGrade::Never,
        }
    }

    /// An always-racing annotation over the given sites (sorted, deduped).
    pub fn always(sites: Vec<(usize, usize)>) -> Self {
        assert!(!sites.is_empty(), "an always-racing truth needs sites");
        ScenarioTruth {
            racy_sites: Self::canonical(sites),
            grade: RaceGrade::Always,
        }
    }

    /// A schedule-dependent annotation over the given sites (sorted,
    /// deduped): each site races in some schedules and not in others.
    pub fn sometimes(sites: Vec<(usize, usize)>) -> Self {
        assert!(!sites.is_empty(), "a schedule-dependent truth needs sites");
        ScenarioTruth {
            racy_sites: Self::canonical(sites),
            grade: RaceGrade::Sometimes,
        }
    }

    fn canonical(mut sites: Vec<(usize, usize)>) -> Vec<(usize, usize)> {
        sites.sort_unstable();
        sites.dedup();
        sites
    }

    /// True when the annotation declares race-freedom.
    pub fn is_race_free(&self) -> bool {
        self.racy_sites.is_empty()
    }

    /// True when every catalogued site races in *every* schedule.
    pub fn always_races(&self) -> bool {
        self.grade == RaceGrade::Always
    }
}

/// A named set of per-rank programs.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name for tables.
    pub name: String,
    /// Number of processes.
    pub n: usize,
    /// One program per rank.
    pub programs: Vec<Program>,
    /// Oracle-checkable ground truth, when the workload is a scenario-matrix
    /// fixture. `None` for legacy workloads that predate the matrix.
    pub truth: Option<ScenarioTruth>,
}

impl Workload {
    /// Total data operations across ranks.
    pub fn data_ops(&self) -> usize {
        self.programs.iter().map(|p| p.data_ops()).sum()
    }

    /// Attach a ground-truth annotation.
    pub fn with_truth(mut self, truth: ScenarioTruth) -> Self {
        self.truth = Some(truth);
        self
    }
}
