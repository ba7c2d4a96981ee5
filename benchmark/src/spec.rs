//! Names, units and sizes: the single place the harness's vocabulary is
//! spelled. `BENCHMARK.json` repeats the names for the driver; a test keeps
//! the two in step.

use crate::ladder::Load;
use crate::stream;

/// Seed used when none is given (0xB0).
pub const DEFAULT_SEED: u64 = 176;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    InprocStencil,
    InprocContended,
    TcpStream,
    TcpPingpong,
    SimDebug,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::InprocStencil,
        Workload::InprocContended,
        Workload::TcpStream,
        Workload::TcpPingpong,
        Workload::SimDebug,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::InprocStencil => "inproc_stencil",
            Workload::InprocContended => "inproc_contended",
            Workload::TcpStream => "tcp_stream",
            Workload::TcpPingpong => "tcp_pingpong",
            Workload::SimDebug => "sim_debug",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_tcp(self) -> bool {
        matches!(self, Workload::TcpStream | Workload::TcpPingpong)
    }

    /// The op stream this workload drives (`None` for `sim_debug`, which
    /// runs programs through the engine instead).
    pub fn load(self, seed: u64, scale: Scale) -> Option<Load> {
        // `Mini` keeps rank counts, hot sets and ping cadence and divides
        // only the length, so the miniature takes the same code paths in
        // milliseconds.
        let div = match scale {
            Scale::Full => 1,
            Scale::Mini => 64,
        };
        let (stream, ping_every) = match self {
            Workload::InprocStencil => (stream::stencil(16, 16, 1024 / div, seed), 0),
            Workload::InprocContended => (stream::contended(32, 8192 / div, 1024, seed), 0),
            Workload::TcpStream => (stream::contended(8, 16_384 / div.min(32), 256, seed), 0),
            Workload::TcpPingpong => (stream::stencil(16, 16, 16 / div.min(8), seed), 1),
            Workload::SimDebug => return None,
        };
        Some(Load { stream, ping_every })
    }
}

/// Full-size workloads, or the miniatures `cargo test` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Mini,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher_is_better: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher_is_better: bool) -> Metric {
    e2e(name, unit, higher_is_better, 0.0)
}

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: [Metric; 4] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("events_per_s", "1/s", true, 0.25),
    e2e("cpu_ns_per_event", "ns", false, 0.25),
    e2e("peak_rss_mb", "MiB", false, 0.25),
];

/// What single layers cost, from the traced run. A metric that does not
/// apply to a workload reads 0 there.
pub const PER_LAYER: [Metric; 41] = [
    layer("gen.ns_per_event", "ns", false),
    layer("vclock.leq_ns", "ns", false),
    layer("vclock.merge_ns", "ns", false),
    layer("vclock.dominance_ns", "ns", false),
    layer("hb.ns_per_event", "ns", false),
    layer("hb.reports_per_kevent", "count", false),
    layer("clockstore.epoch_area_share", "ratio", true),
    layer("clockstore.clock_bytes", "B", false),
    layer("api.ns_per_event", "ns", false),
    layer("summary.json_bytes", "B", false),
    layer("snapshot.ns_per_event", "ns", false),
    layer("snapshot.checkpoint_us_p50", "us", false),
    layer("snapshot.restore_us_p50", "us", false),
    layer("snapshot.bytes", "B", false),
    layer("frame.ns_per_event", "ns", false),
    layer("frame.encode_ns", "ns", false),
    layer("frame.decode_ns", "ns", false),
    layer("frame.bytes_per_event", "B", false),
    layer("socket.ns_per_event", "ns", false),
    layer("socket.writes_per_event", "count", false),
    layer("client.send_ns_p50", "ns", false),
    layer("client.finish_ms", "ms", false),
    layer("client.ack_ms_p50", "ms", false),
    layer("client.ack_ms_p99", "ms", false),
    layer("client.ack_ms_p999", "ms", false),
    layer("client.reconnects", "count", false),
    layer("server.ns_per_event", "ns", false),
    layer("server.ctx_switches_per_kevent", "count", false),
    layer("server.threads", "count", false),
    layer("server.sessions_finished", "count", true),
    layer("server.sessions_degraded", "count", false),
    layer("server.frames_rejected", "count", false),
    layer("server.events_shed", "count", false),
    layer("simulator.vanilla_events_per_s", "1/s", true),
    layer("simulator.detect_slowdown", "ratio", false),
    layer("simulator.virtual_slowdown", "ratio", false),
    layer("simulator.msgs_per_event_vanilla", "count", false),
    layer("simulator.msgs_per_event_dual", "count", false),
    layer("netsim.detection_bytes_share", "ratio", false),
    layer("top.ns_per_event", "ns", false),
    layer("trace.overhead_share", "ratio", false),
];

pub fn metrics(trace: bool) -> &'static [Metric] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}
