//! Static analysis for the reproduction: a schedule-free MHP/race
//! analyzer over `simulator` workload programs.
//!
//! The paper's detector (and the offline [`race_core::Oracle`]) grade
//! *one observed schedule*. The [`mhp`] module instead grades the
//! program itself: it rebuilds the same happens-before edge kinds the
//! oracle replays dynamically — barrier epochs, program-lock hand-offs,
//! data-flow absorb edges — but splits them into **must** edges (present
//! in every schedule) and **may** edges (present in some schedules), and
//! classifies every conflicting access pair three ways:
//!
//! * [`mhp::Verdict::NeverRaces`] — must-ordered or mutually excluded in
//!   every schedule;
//! * [`mhp::Verdict::AlwaysRaces`] — no schedule carries any ordering
//!   path, so every run races;
//! * [`mhp::Verdict::ScheduleDependent`] — a may-path exists, so the
//!   outcome depends on the interleaving.
//!
//! This is the second, independent oracle behind `repro --analyze`:
//! static verdicts must agree exactly with [`race_core::Oracle::analyze`]
//! over dynamic runs on every scenario-matrix twin, and it is what lets
//! [`simulator::workloads::ScenarioTruth`] carry the three-valued
//! [`simulator::workloads::RaceGrade`] (the `sometimes` twins cannot be
//! certified by any single dynamic run). See `docs/ANALYSIS.md`.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unreachable,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]
#![warn(missing_docs)]

pub mod mhp;

pub use mhp::{
    analyze, analyze_programs, Analysis, AnalysisError, PairVerdict, SiteVerdict, StaticAccess,
    Verdict,
};
