//! Discrete-event execution engine for the coherent-DSM model.
//!
//! Ties the substrates together: simulated processes run [`program::Program`]s
//! of one-sided operations over the `dsm` memory/locks/RDMA state machines,
//! messages travel on the `netsim` interconnect, and a
//! `race_core::Session` watches every access exactly where the paper's
//! Algorithms 1–2 put their checks.
//!
//! Everything is deterministic for a given seed. Virtual time (not
//! wall-clock) is what the latency/overhead experiments report, which makes
//! the reproduced "figures" bit-stable. The [`explorer`] runs many seeds in
//! parallel OS threads to explore interleavings — the paper's Fig 5 races
//! exist in some schedules and not others, and the explorer measures how
//! often each detector catches them.

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

pub mod config;
pub mod engine;
pub mod explorer;
pub mod program;
pub mod tracebuild;
pub mod workloads;

pub use config::{LatencySpec, SimConfig};
pub use engine::{Engine, RunResult};
pub use explorer::{explore, ExplorationSummary};
pub use program::{Instr, Program, ProgramBuilder, Src};

/// A process identifier (dense rank).
pub type Rank = usize;
