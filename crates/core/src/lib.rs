//! Race-condition detection for coherent distributed memory — the primary
//! contribution of Butelle & Coti (IPPS 2011), §IV.
//!
//! The paper's mechanism: every shared memory **area** carries two vector
//! clocks — a general-purpose clock `V` (updated by every access) and a
//! write clock `W` (updated by writes only). Every one-sided operation
//! (Algorithms 1 and 2) locks the source and destination areas, compares the
//! acting process's clock against the appropriate area clock, and signals a
//! race when the clocks are **concurrent** (Corollary 1). Races are
//! *signalled, never fatal* (§IV-D).
//!
//! This crate provides:
//!
//! * [`api`] — the construction and consumption façade: one declarative
//!   [`api::DetectorConfig`] builder (kind, process count, granularity,
//!   slab layout — JSON-round-trippable), one [`api::Session`]
//!   driving handle, and a pluggable [`api::ReportSink`] streaming output
//!   so long-running deployments keep bounded memory. **Start here**; the
//!   concrete detectors below are the engine room.
//! * [`hb::HbDetector`] — the happens-before detector in three modes:
//!   - [`hb::HbMode::Dual`] — the corrected dual-clock discipline (writes
//!     check `V`, reads check `W`); the reproduction's reference detector;
//!   - [`hb::HbMode::Single`] — one clock per area (no `W`): the baseline
//!     the paper argues against in §IV-D, which flags concurrent *read-read*
//!     accesses as races (false positives);
//!   - [`hb::HbMode::Literal`] — the protocol exactly as printed (puts check
//!     only `W`, gets check `V`): misses write-after-read races and keeps
//!     the read-read false positives. Experiment ABL-lit.
//! * [`lockset::LocksetDetector`] — an Eraser-style lockset baseline adapted
//!   to DSM areas (context: the MARMOT checker the paper cites).
//! * [`vanilla::VanillaDetector`] — no detection; the overhead baseline.
//! * [`oracle::Oracle`] — offline exact happens-before over a full execution
//!   trace: ground truth for precision/recall scoring of the online
//!   detectors.
//! * [`snapshot`] — the versioned checkpoint codec behind
//!   [`api::Session::checkpoint`] / [`api::Session::restore`]: with the
//!   session's bounded event journal, the one crash-recovery mechanism
//!   (see `docs/ROBUSTNESS.md`).
//!
//! All detectors implement [`detector::Detector`] and are driven by the
//! `simulator` engine (discrete-event backend) or by the `shmem` crate
//! (real-thread backend).

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

pub mod api;
pub mod clockstore;
pub mod detector;
pub mod event;
pub mod hb;
mod json;
pub mod lockset;
pub mod oracle;
pub mod reference;
pub mod report;
pub mod snapshot;
pub mod summary;
pub mod vanilla;

pub use api::{
    ChannelSink, CountingSink, DedupSink, DetectorConfig, ReportSink, Session, SummarySink, VecSink,
};
pub use clockstore::{AreaKey, ClockStore, Granularity};
pub use detector::{Detector, DetectorKind};
pub use event::{AccessKind, AccessList, AccessSummary, DsmOp, Event, LockId, OpKind};
pub use hb::{HbDetector, HbMode};
pub use lockset::LocksetDetector;
pub use oracle::{site_of, Oracle, Score, SiteKey, Trace, TraceAccess};
pub use reference::ReferenceHbDetector;
pub use report::{dedup_reports, RaceClass, RaceReport};
pub use snapshot::{SnapshotError, SnapshotHeader, SNAPSHOT_VERSION};
pub use summary::RaceSummary;
pub use vanilla::VanillaDetector;

/// A process identifier (dense rank).
pub type Rank = usize;
