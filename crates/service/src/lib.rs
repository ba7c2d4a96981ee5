//! Detection-as-a-service: a crash-tolerant TCP server that multiplexes
//! many concurrent client event streams onto bounded
//! [`race_core::api::Session`]s.
//!
//! The paper's runtime embeds detection inside the DSM library; this crate
//! is the operational complement for a deployment where instrumented
//! processes *ship* their operation streams to a long-lived detection
//! service instead. The service inherits the paper's §IV-D stance — races
//! (and now infrastructure failures) are signalled, never fatal — and the
//! PR-6 supervision discipline: any single session may degrade (malformed
//! bytes, mid-stream hangup, a panic in its worker), but the server's
//! accept loop and every other session keep running.
//!
//! Layering:
//!
//! - [`frame`] — the length-prefixed wire codec; the trust boundary.
//!   Decoding untrusted bytes returns typed [`frame::FrameError`]s and has
//!   no panicking path. The event it carries is [`race_core::Event`]
//!   itself (re-exported as [`frame::WireEvent`]); [`frame::check_event`]
//!   refuses a decoded event whose ranks or ranges the session cannot
//!   hold, and the worker then drives the session with
//!   [`race_core::Session::apply`], as an in-process caller would.
//! - [`server`] — accept loop, per-session supervision, bounded queues
//!   with an explicit slow-client policy, idle reaping, and a graceful
//!   shutdown that drains every live session's summary.
//! - [`client`] — a blocking client handle whose final
//!   [`client::RemoteSummary`] carries the summary's exact canonical-JSON
//!   bytes, so callers can assert byte-identical parity with an in-process
//!   run.
//!
//! Sessions are **durable** (PR 9): the server checkpoints each session's
//! detector state and parks — rather than ends — sessions whose connection
//! dies mid-stream. A reconnecting client presents the resume token minted
//! at hello time, receives a `ResumeAck` naming the next expected event
//! sequence, and replays only its unacknowledged tail; the final summary is
//! byte-identical to an uninterrupted run. The client side reconnects
//! automatically with jittered exponential backoff (see
//! `docs/SERVICE.md`).
//!
//! ```no_run
//! use dsm_service::client::ServiceClient;
//! use dsm_service::frame::WireEvent;
//! use dsm_service::server::{ServeConfig, Server};
//! use race_core::{DetectorConfig, DetectorKind};
//!
//! let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
//! let config = DetectorConfig::new(DetectorKind::Dual, 4);
//! let mut client = ServiceClient::connect(server.local_addr(), &config).unwrap();
//! client.send(&WireEvent::Barrier).unwrap();
//! let remote = client.finish().unwrap();
//! println!("races: {}", remote.summary.total);
//! let report = server.shutdown();
//! assert_eq!(report.stats.finished, 1);
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
#![warn(missing_docs)]

pub mod client;
pub mod frame;
pub mod server;

pub use client::{
    ClientError, ClientTimeouts, HealthLine, RemoteSummary, RetryPolicy, ServiceClient,
};
pub use frame::{ClientFrame, FrameError, ServerFrame, WireError, WireEvent, MAX_FRAME};
pub use server::{
    ServeConfig, Server, SessionOutcome, SessionRecord, ShutdownReport, SinkFactory, StatsSnapshot,
};
