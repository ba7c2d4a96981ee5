//! Distributed shared memory substrate (paper §III).
//!
//! Implements the paper's memory and communication model:
//!
//! * every process maps a **private** and a **public** segment
//!   ([`memory::ProcessMemory`], Fig 1);
//! * the **global address space** is the union of public segments, addressed
//!   by `(processor_name, local_address)` pairs ([`addr::GlobalAddr`]);
//! * data placement — the compiler's job in UPC/Titanium/CAF — is performed
//!   by an explicit [`heap::SymmetricHeap`] with placement policies;
//! * NICs provide **locks on memory areas** ([`lockmgr::LockTable`]):
//!   exclusive, FIFO-fair, queued at the owner;
//! * one-sided **put/get** with the atomicity rule of Fig 3 (a put
//!   overlapping an in-progress get is delayed until the get ends) enforced
//!   by [`rdma::RdmaEngine`];
//! * the wire protocol ([`proto::DsmPayload`]) used on the `netsim`
//!   interconnect, including the clock traffic added by the detection
//!   algorithms (classified separately so overhead is measurable).
//!
//! This crate is *passive*: it owns state machines and memory, while the
//! `simulator` crate drives them from its event loop and the `race-core`
//! crate decides when accesses race.

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

pub mod addr;
pub mod data;
pub mod error;
pub mod heap;
pub mod lockmgr;
pub mod memory;
pub mod proto;
pub mod rdma;

pub use addr::{GlobalAddr, MemRange, Segment};
pub use data::Data;
pub use error::DsmError;
pub use heap::{Placement, SymmetricHeap};
pub use lockmgr::{LockOutcome, LockTable, LockToken};
pub use memory::ProcessMemory;
pub use proto::DsmPayload;
pub use rdma::RdmaEngine;

/// A process identifier (dense rank).
pub type Rank = usize;
