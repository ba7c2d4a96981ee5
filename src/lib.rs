//! # coherent-dsm
//!
//! A reproduction of *"A Model for Coherent Distributed Memory for Race
//! Condition Detection"* (Franck Butelle & Camille Coti, IPPS 2011,
//! arXiv:1101.4193): a low-level model of distributed shared memory built
//! on one-sided RDMA `put`/`get`, and a race-condition detector that keeps
//! **two vector clocks per shared memory area** — a general-purpose clock
//! `V` and a write clock `W` — and signals a race whenever a conflicting
//! access's clock is concurrent with the area's (Corollary 1 of the paper).
//!
//! The workspace is layered bottom-up:
//!
//! | crate | role |
//! |---|---|
//! | [`vclock`] | Vector / matrix clocks, the paper's Algorithms 3–4, the `epoch` fast-path module, shared (`Arc`) event-clock snapshots |
//! | [`netsim`] | deterministic discrete-event interconnect + RDMA NIC model |
//! | [`dsm`] | global address space, symmetric heap, NIC area locks, Fig 3 put-deferral |
//! | [`race_core`] | the paper's detector (Algorithms 1–2, dual clock) + baselines + oracle + the checkpoint codec, fronted by the `race_core::api` façade (`DetectorConfig` → `Session` → `ReportSink`) |
//! | [`simulator`] | process/program model, DES engine, workloads, interleaving explorer |
//! | [`shmem`] | the same algorithms on real OS threads (§III-B's SHMEM extension) |
//!
//! ## The detection hot path
//!
//! `race_core::HbDetector` runs the paper's per-access check-and-update in
//! O(1) in the common case instead of the naive O(n):
//!
//! * **epoch fast path** (`vclock::AreaClock`): while an area's accesses
//!   are totally ordered, its `V`/`W` joins are FastTrack-style epochs
//!   `(rank, count)` — the Algorithm-3 compare is one integer test, the
//!   Algorithm-5 update two word writes. Genuine concurrency demotes the
//!   clock to the exact dense join (O(n) again); a later dominating access
//!   re-promotes it.
//! * **flat per-rank store** (`race_core::ClockStore`): per-rank dense
//!   slabs indexed by block number — no hashing on the access path.
//! * **event-clock antichains, no clock copy per op**: an access's clock
//!   is the actor's row, borrowed; a recorded access keeps `(rank, count)`
//!   beside a shared copy of that row, so every antichain prune and race
//!   check is one integer test too, an op that reports nothing and learns
//!   nothing allocates nothing, and a full clock is copied only for a
//!   report (`crates/core/tests/alloc_guard.rs` counts it). Reports
//!   stream by value into the caller's `race_core::ReportSink`.
//!
//! Report parity with the unoptimised implementation
//! (`race_core::ReferenceHbDetector`) is enforced by differential property
//! tests across all detector modes and granularities; its cost is measured
//! end to end, layer by layer, by the `benchmark/` crate.
//!
//! ## Quickstart
//!
//! ```
//! use coherent_dsm::prelude::*;
//!
//! // Two processes put to the same word of P1's public memory with no
//! // synchronisation: the Fig 5a write-write race.
//! let dst = GlobalAddr::public(1, 0).range(8);
//! let programs = vec![
//!     ProgramBuilder::new(0).put_u64(1, dst).build(),
//!     ProgramBuilder::new(1).build(),
//!     ProgramBuilder::new(2).put_u64(2, dst).build(),
//! ];
//! let result = Engine::new(SimConfig::debugging(3), programs).run();
//! assert_eq!(result.deduped().len(), 1); // exactly one signalled race
//! assert!(result.stuck.is_empty());    // and the program still completed
//! ```

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

pub use dsm;
pub use dsm_service;
pub use netsim;
pub use race_core;
pub use shmem;
pub use simulator;
pub use vclock;

/// The most commonly used items across the workspace.
pub mod prelude {
    pub use dsm::{GlobalAddr, MemRange, Placement, Segment, SymmetricHeap};
    pub use netsim::{OpClass, SimTime, Topology};
    pub use race_core::{
        CountingSink, DetectorConfig, DetectorKind, Granularity, Oracle, RaceClass, RaceReport,
        RaceSummary, ReportSink, Score, Session, SummarySink, VecSink,
    };
    pub use simulator::{
        explore, Engine, Instr, LatencySpec, Program, ProgramBuilder, RunResult, SimConfig,
    };
    pub use vclock::{ClockRelation, MatrixClock, VectorClock};
}
