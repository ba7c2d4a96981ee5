//! Deterministic discrete-event interconnect model.
//!
//! The paper's system model (§III) is "a set of processors and the
//! communication channels that interconnect them", where remote memory is
//! reached through **one-sided** operations executed by RDMA-capable NICs
//! (InfiniBand / Myrinet). We do not have such hardware here, so this crate
//! provides the substitution documented in `DESIGN.md`: a discrete-event
//! network with
//!
//! * reliable, **per-channel FIFO** message delivery (the standard
//!   assumption behind vector-clock protocols),
//! * a configurable [`latency::LatencyModel`] (constant, α+β
//!   latency/bandwidth, seeded jitter) scaled by [`topology::Topology`] hop
//!   counts,
//! * deterministic tie-breaking (same seed ⇒ bit-identical schedules), and
//! * full message/byte accounting per operation class ([`stats::NetStats`]),
//!   which is what lets tests *assert* Fig 2's "put = 1 message, get = 2
//!   messages" property and the §V-A overhead accounting, and
//! * optional seeded fault injection ([`fault::FaultPlan`]: drop /
//!   duplicate / extra delay / FIFO-breaking reorder) for chaos testing the
//!   layers above — every injection is counted in [`stats::NetStats`].
//!
//! The crate is payload-generic: the DSM layer (`dsm` crate) instantiates
//! [`network::Network`] with its own RDMA protocol enum.

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

pub mod fault;
pub mod latency;
pub mod message;
pub mod network;
pub mod stats;
pub mod time;
pub mod topology;

pub use fault::{FaultDecision, FaultPlan, FaultSpec};
pub use latency::{AlphaBeta, Constant, Jittered, LatencyModel};
pub use message::{Classify, Message, MsgId, OpClass};
pub use network::Network;
pub use stats::NetStats;
pub use time::{EventQueue, SimTime};
pub use topology::Topology;

/// A process / NIC identifier (dense rank, matching the paper's `P0, P1…`).
pub type Rank = usize;
