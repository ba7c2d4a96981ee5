//! Logical time for the coherent-dsm reproduction.
//!
//! This crate implements the clock machinery that the race-detection
//! algorithm of Butelle & Coti (IPPS 2011) is built on:
//!
//! * [`VectorClock`] — the vector clock of Mattern 1988 (paper reference
//!   `[15]`), capturing the *partial* causal order of events. The paper's
//!   race criterion (Corollary 1) is "two clocks that cannot be ordered ⇒
//!   race", which is exactly [`VectorClock::relation`] returning
//!   [`ClockRelation::Concurrent`].
//! * [`MatrixClock`] — the per-process clock matrix `V_{P_i}` of §IV-B: each
//!   process keeps a local view of every other process's vector clock; the
//!   process's own row is the vector clock it ships with its messages.
//! * [`SparseClock`] — a map-based representation used by the §IV-C
//!   storage-overhead experiments (Charron-Bost shows the *worst case* needs
//!   `n` entries; sparse clocks help when few processes touch an area).
//!
//! [`delta`] adds delta-encoded clock updates (a §IV-C traffic
//! optimisation measured by the EXT-delta accounting).
//!
//! [`epoch`] provides the FastTrack-style fast path: an [`Epoch`] names one
//! event as a `(rank, count)` pair, and an [`AreaClock`] adaptively stores a
//! join of event clocks as `Bottom` → `Epoch` → `Vector`, collapsing the
//! happens-before test to one integer compare (and updates to two word
//! writes) while an area's accesses stay totally ordered — O(1) in the
//! common case versus the paper's O(n) compare, with demotion to the exact
//! dense join on genuine concurrency and re-promotion when an access
//! dominates again.
//!
//! The comparison and merge procedures printed in the paper (Algorithms 3
//! and 4) are provided verbatim in [`compare`], including the paper's
//! *literal* strict comparison (which differs from the standard vector-clock
//! partial order — see `compare::literal_less` for the discussion).
//!
//! [`kernels`] holds the chunked, branch-free inner loops (`leq`, `merge`,
//! fused `merge_dominated`, one-pass `dominance`) that every
//! [`VectorClock`] comparison and merge bottoms out in.

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

pub mod compare;
pub mod delta;
pub mod epoch;
pub mod kernels;
pub mod matrix;
pub mod sparse;
pub mod vector;

pub use compare::{compare_clocks, literal_less, max_clock};
pub use delta::{ClockDelta, DeltaDecoder, DeltaEncoder};
pub use epoch::{AreaClock, Epoch};
pub use matrix::MatrixClock;
pub use sparse::SparseClock;
pub use vector::{ClockRelation, VectorClock};

/// A process identifier (rank) in a system of `n` processes.
///
/// Ranks are dense indices `0..n`, matching the paper's `P0, P1, …`.
pub type Rank = usize;
