//! Single-line JSON perf summaries for the detector hot path.
//!
//! `repro --bench` prints one line per measured configuration; the
//! committed `BENCH_0001.json` is exactly that output, seeding the repo's
//! perf trajectory. `repro --bench-sinks` (`BENCH_0004.json`) measures the
//! report paths of the `race_core::api` façade. `repro --bench-check` is
//! the CI perf smoke: it fails when the epoch detector stops beating the
//! full-vector-clock reference. (`BENCH_0002/0003` recorded the sharded
//! pipeline and went with it — see docs/BENCHMARKS.md, "Retired".)
//! Hand-formatted JSON — no serialisation dependency.

use std::time::Instant;

use race_core::api::{CountingSink, DetectorConfig, ReportSink, SummarySink, VecSink};
use race_core::{Detector, DetectorKind, Granularity, HbDetector, HbMode, ReferenceHbDetector};
use simulator::workloads::random_access::RandomSpec;

use crate::opstream::{self, StreamEvent};

/// One measured configuration.
pub struct PerfRow {
    /// Workload label (`stencil` / `random_access`).
    pub workload: &'static str,
    /// Detector label (`epoch` = optimised, `reference` = pre-optimisation).
    pub detector: &'static str,
    /// Process count.
    pub n: usize,
    /// Clocked accesses per run of the stream.
    pub accesses: u64,
    /// Measured throughput, accesses per second.
    pub ops_per_sec: f64,
    /// Inverse throughput, ns per clocked access.
    pub ns_per_access: f64,
    /// Race reports per run (sanity: must match between detectors).
    pub reports: usize,
    /// §IV-D clock storage at the end of a run, bytes.
    pub clock_bytes: usize,
}

impl PerfRow {
    /// The committed JSON shape: one object per line.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"workload\":\"{}\",\"detector\":\"{}\",\"n\":{},",
                "\"accesses\":{},\"ops_per_sec\":{:.0},\"ns_per_access\":{:.1},",
                "\"reports\":{},\"clock_bytes\":{}}}"
            ),
            self.workload,
            self.detector,
            self.n,
            self.accesses,
            self.ops_per_sec,
            self.ns_per_access,
            self.reports,
            self.clock_bytes,
        )
    }
}

fn measure(
    workload: &'static str,
    detector: &'static str,
    n: usize,
    events: &[StreamEvent],
    mut make: impl FnMut() -> Box<dyn Detector>,
) -> PerfRow {
    let accesses = opstream::access_count(events);
    // Calibrate to ~0.2 s of measurement.
    let mut runs = 1u32;
    let (reports, clock_bytes, elapsed) = loop {
        let t = Instant::now();
        let mut reports = 0;
        let mut clock_bytes = 0;
        for _ in 0..runs {
            let mut det = make();
            reports = opstream::drive(&mut *det, events);
            clock_bytes = det.clock_memory_bytes();
        }
        let elapsed = t.elapsed();
        if elapsed.as_millis() >= 200 || runs >= 1 << 20 {
            break (reports, clock_bytes, elapsed);
        }
        runs = (runs * 4).min(1 << 20);
    };
    let total_accesses = accesses * runs as u64;
    let secs = elapsed.as_secs_f64();
    PerfRow {
        workload,
        detector,
        n,
        accesses,
        ops_per_sec: total_accesses as f64 / secs,
        ns_per_access: secs * 1e9 / total_accesses as f64,
        reports,
        clock_bytes,
    }
}

/// The `BENCH_0001` measurement set: optimised vs reference detector on
/// the stencil and random-access patterns at WORD granularity.
pub fn bench_rows() -> Vec<PerfRow> {
    let mut rows = Vec::new();

    let stencil_n = 16;
    let stencil_events = opstream::stencil(stencil_n, 16, 4);
    {
        let (label, events, n) = ("stencil", &stencil_events, stencil_n);
        rows.push(measure(label, "epoch", n, events, || {
            Box::new(HbDetector::new(n, Granularity::WORD, HbMode::Dual))
        }));
        rows.push(measure(label, "reference", n, events, || {
            Box::new(ReferenceHbDetector::new(n, Granularity::WORD, HbMode::Dual))
        }));
    }

    let spec = RandomSpec {
        n: 8,
        ops_per_rank: 128,
        hot_words: 256,
        p_write: 0.25,
        locked: false,
        seed: 0xB0,
    };
    let random_events = opstream::random(spec);
    rows.push(measure(
        "random_access",
        "epoch",
        spec.n,
        &random_events,
        || Box::new(HbDetector::new(spec.n, Granularity::WORD, HbMode::Dual)),
    ));
    rows.push(measure(
        "random_access",
        "reference",
        spec.n,
        &random_events,
        || {
            Box::new(ReferenceHbDetector::new(
                spec.n,
                Granularity::WORD,
                HbMode::Dual,
            ))
        },
    ));

    rows
}

/// One measured report path (the `BENCH_0004` shape): the detector hot
/// loop driven through the `race_core::api` façade with a given sink,
/// against the `legacy-log` direct-append baseline. Embeds the exact
/// [`DetectorConfig`] JSON so the row is reproducible from itself.
pub struct SinkRow {
    /// Workload label (`hotspot` / `stencil`).
    pub workload: &'static str,
    /// Report path: `legacy-log` (PR-3's direct log append, the baseline);
    /// `sink-vec` (the bare `observe_sink` hot loop into a caller-owned
    /// `VecSink` — the apples-to-apples sink-vs-log comparison);
    /// `session-vec` / `session-summary` / `session-counting` (the full
    /// `Session`, which additionally folds every report into the bounded
    /// running summary).
    pub path: &'static str,
    /// The exact detector configuration, as JSON.
    pub config: String,
    /// Process count.
    pub n: usize,
    /// Clocked accesses per run of the stream.
    pub accesses: u64,
    /// Measured throughput, accesses per second.
    pub ops_per_sec: f64,
    /// Inverse throughput, ns per clocked access.
    pub ns_per_access: f64,
    /// Race reports per run (must match across paths).
    pub reports: usize,
}

impl SinkRow {
    /// The committed JSON shape: one object per line, config embedded.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"workload\":\"{}\",\"path\":\"{}\",\"n\":{},",
                "\"accesses\":{},\"ops_per_sec\":{:.0},\"ns_per_access\":{:.1},",
                "\"reports\":{},\"config\":{}}}"
            ),
            self.workload,
            self.path,
            self.n,
            self.accesses,
            self.ops_per_sec,
            self.ns_per_access,
            self.reports,
            self.config,
        )
    }
}

/// How a [`measure_sink_path`] run consumes reports — one variant per
/// BENCH_0004 row label, so a path cannot be mislabelled or dispatched to
/// the wrong measurement body.
enum ReportPath {
    /// PR-3's hot path: `observe()` appending straight to the detector's
    /// internal log.
    LegacyLog,
    /// The bare sink path: `observe_sink()` handing reports by value to a
    /// caller-owned `VecSink` — the apples-to-apples comparison against
    /// [`ReportPath::LegacyLog`] (no session bookkeeping).
    BareSink,
    /// The full `Session` (which additionally folds every report into the
    /// bounded running summary), streaming into the constructed sink.
    Session(fn() -> Box<dyn ReportSink>),
}

impl ReportPath {
    /// The row's `path` label.
    fn label(&self, sink_label: &'static str) -> &'static str {
        match self {
            ReportPath::LegacyLog => "legacy-log",
            ReportPath::BareSink => "sink-vec",
            ReportPath::Session(_) => sink_label,
        }
    }
}

fn measure_sink_path(
    workload: &'static str,
    path: ReportPath,
    sink_label: &'static str,
    events: &[StreamEvent],
    config: &DetectorConfig,
) -> SinkRow {
    let accesses = opstream::access_count(events);
    let mut runs = 1u32;
    let (reports, elapsed) = loop {
        let t = Instant::now();
        let mut reports = 0;
        for _ in 0..runs {
            match &path {
                ReportPath::LegacyLog => {
                    let mut det = config.build();
                    opstream::drive(&mut *det, events);
                    reports = det.reports().len();
                }
                ReportPath::BareSink => {
                    let mut det = config.build();
                    let mut sink = VecSink::new();
                    reports = opstream::drive_sink(&mut *det, &mut sink, events);
                }
                ReportPath::Session(make_sink) => {
                    let mut session = config.session_with(make_sink());
                    reports = opstream::drive_session(&mut session, events);
                }
            }
        }
        let elapsed = t.elapsed();
        if elapsed.as_millis() >= 200 || runs >= 1 << 20 {
            break (reports, elapsed);
        }
        runs = (runs * 4).min(1 << 20);
    };
    let total_accesses = accesses * runs as u64;
    let secs = elapsed.as_secs_f64();
    SinkRow {
        workload,
        path: path.label(sink_label),
        config: config.to_json(),
        n: config.n,
        accesses,
        ops_per_sec: total_accesses as f64 / secs,
        ns_per_access: secs * 1e9 / total_accesses as f64,
        reports,
    }
}

/// The `BENCH_0004` measurement set: the report-path microbench. One
/// dual-clock WORD-granularity configuration driven over the racy
/// `hotspot` stream (dense reports — the worst case for any sink) and the
/// silent `stencil` stream (the no-race path, where the sink must cost
/// nothing because it is never consulted), through each report path.
pub fn bench_rows_sinks() -> Vec<SinkRow> {
    let mut rows = Vec::new();
    let hotspot_n = 8;
    let hotspot_events = opstream::hotspot(hotspot_n, 512, 8);
    let stencil_n = 16;
    let stencil_events = opstream::stencil(stencil_n, 16, 32);
    for (workload, events, n) in [
        ("hotspot", &hotspot_events, hotspot_n),
        ("stencil", &stencil_events, stencil_n),
    ] {
        let config = DetectorConfig::new(DetectorKind::Dual, n);
        rows.push(measure_sink_path(
            workload,
            ReportPath::LegacyLog,
            "",
            events,
            &config,
        ));
        rows.push(measure_sink_path(
            workload,
            ReportPath::BareSink,
            "",
            events,
            &config,
        ));
        type MakeSink = fn() -> Box<dyn ReportSink>;
        let sessions: [(&'static str, MakeSink); 3] = [
            ("session-vec", || Box::new(VecSink::new())),
            ("session-summary", || Box::<SummarySink>::default()),
            ("session-counting", || Box::<CountingSink>::default()),
        ];
        for (label, make_sink) in sessions {
            rows.push(measure_sink_path(
                workload,
                ReportPath::Session(make_sink),
                label,
                events,
                &config,
            ));
        }
    }
    rows
}

/// Overhead table derived from [`bench_rows_sinks`] output: each session
/// path against its workload's `legacy-log` baseline, as
/// `(workload, path, ns_per_access ratio)` (1.0 = free).
pub fn sink_overheads(rows: &[SinkRow]) -> Vec<(String, String, f64)> {
    let mut out = Vec::new();
    for r in rows.iter().filter(|r| r.path != "legacy-log") {
        if let Some(base) = rows
            .iter()
            .find(|b| b.path == "legacy-log" && b.workload == r.workload)
        {
            out.push((
                r.workload.to_string(),
                r.path.to_string(),
                r.ns_per_access / base.ns_per_access,
            ));
        }
    }
    out
}

/// The `repro --config` round-trip smoke: build a session from `config`,
/// drive the hotspot stream, then serialize → reparse → rebuild and drive
/// the identical stream; the two report streams must be byte-identical.
/// Returns `(reports, accesses)` on success.
pub fn config_roundtrip(config: &DetectorConfig) -> Result<(usize, u64), String> {
    if config.n < 2 {
        // Races need two processes; silently bumping `n` would make the
        // echoed config misrepresent what was actually measured.
        return Err(format!(
            "n must be >= 2 to exercise races, got {}",
            config.n
        ));
    }
    let config = config.clone();
    let events = opstream::hotspot(config.n, 128, 8);
    let accesses = opstream::access_count(&events);
    let run = |c: &DetectorConfig| -> Vec<race_core::RaceReport> {
        let mut session = c.session();
        opstream::drive_session(&mut session, &events);
        let (_, sink) = session.finish();
        sink.reports().to_vec()
    };
    let direct = run(&config);
    let reparsed = DetectorConfig::from_json(&config.to_json())?;
    if reparsed != config {
        return Err(format!(
            "config round-trip mismatch: {} vs {}",
            config.to_json(),
            reparsed.to_json()
        ));
    }
    let rebuilt = run(&reparsed);
    if direct != rebuilt {
        return Err(format!(
            "report streams diverge after round-trip: {} vs {} reports",
            direct.len(),
            rebuilt.len()
        ));
    }
    Ok((direct.len(), accesses))
}

/// Outcome of the CI perf smoke: the measured rows (so callers can print
/// them without re-running the measurement), the human-readable verdict
/// lines, and the overall pass/fail.
pub struct BenchCheck {
    /// The `bench_rows` measurements the verdicts were derived from.
    pub rows: Vec<PerfRow>,
    /// One verdict line per seed workload.
    pub lines: Vec<String>,
    /// False when an order inversion was measured.
    pub ok: bool,
}

/// The CI perf smoke (`repro --bench-check`): on each seed workload the
/// epoch detector's measured throughput must not drop below the
/// full-vector-clock reference's — an order-inversion check only, which
/// stays robust on noisy shared runners where absolute thresholds flake.
/// One [`bench_rows`] measurement serves both the verdicts and the row
/// printout, so CI pays the calibrated timing loops once.
pub fn bench_check() -> BenchCheck {
    let rows = bench_rows();
    let mut lines = Vec::new();
    let mut ok = true;
    for workload in ["stencil", "random_access"] {
        let find = |detector: &str| {
            rows.iter()
                .find(|r| r.workload == workload && r.detector == detector)
                .expect("bench_rows emits both detectors per workload")
        };
        let epoch = find("epoch");
        let reference = find("reference");
        let ratio = epoch.ops_per_sec / reference.ops_per_sec;
        let verdict = if epoch.ops_per_sec >= reference.ops_per_sec {
            "ok"
        } else {
            ok = false;
            "REGRESSION"
        };
        lines.push(format!(
            "bench-check {workload}: epoch {:.0} ops/s vs reference {:.0} ops/s ({ratio:.2}x) … {verdict}",
            epoch.ops_per_sec, reference.ops_per_sec,
        ));
    }
    BenchCheck { rows, lines, ok }
}

/// Speedup table derived from [`bench_rows`] output (epoch vs reference
/// per workload).
pub fn speedups(rows: &[PerfRow]) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for r in rows.iter().filter(|r| r.detector == "epoch") {
        if let Some(base) = rows
            .iter()
            .find(|b| b.detector == "reference" && b.workload == r.workload)
        {
            out.push((r.workload.to_string(), base.ns_per_access / r.ns_per_access));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Committed-row schema registry
// ---------------------------------------------------------------------------

/// Every row family a committed `BENCH_*.json` may contain, as `(family,
/// exact ordered top-level key list)`. The single source of truth for
/// schema drift: a `to_json` change that adds, drops or reorders a key
/// fails [`validate_bench_line`] — and with it the test that replays every
/// committed bench file — instead of silently forking the corpus.
pub const ROW_SCHEMAS: &[(&str, &[&str])] = &[
    (
        "perf",
        &[
            "workload",
            "detector",
            "n",
            "accesses",
            "ops_per_sec",
            "ns_per_access",
            "reports",
            "clock_bytes",
        ],
    ),
    (
        "sink",
        &[
            "workload",
            "path",
            "n",
            "accesses",
            "ops_per_sec",
            "ns_per_access",
            "reports",
            "config",
        ],
    ),
    (
        "scenario",
        &[
            "scenario",
            "detector",
            "n",
            "net",
            "seed",
            "accesses",
            "wall_ns_per_run",
            "accesses_per_sec",
            "reports",
            "truth_pairs",
            "truth_sites",
            "pair_precision",
            "pair_recall",
            "site_precision",
            "site_recall",
        ],
    ),
];

/// The top-level keys of a one-line JSON object, in order (nested objects
/// — e.g. the sink rows' embedded `config` — contribute their outer key
/// only).
pub fn row_keys(line: &str) -> Result<Vec<String>, String> {
    let line = line.trim();
    if !line.starts_with('{') || !line.ends_with('}') {
        return Err(format!("not a JSON object line: {line:?}"));
    }
    let mut keys = Vec::new();
    let mut depth = 0usize;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '{' => depth += 1,
            '}' => depth = depth.saturating_sub(1),
            '"' => {
                let mut s = String::new();
                for c in chars.by_ref() {
                    if c == '"' {
                        break;
                    }
                    s.push(c);
                }
                // A string at depth 1 followed by ':' is a top-level key.
                if depth == 1 {
                    while chars.peek().is_some_and(|c| c.is_whitespace()) {
                        chars.next();
                    }
                    if chars.peek() == Some(&':') {
                        keys.push(s);
                    }
                }
            }
            _ => {}
        }
    }
    if keys.is_empty() {
        return Err(format!("no keys found in {line:?}"));
    }
    Ok(keys)
}

/// Validate one committed bench line against the registry; returns the
/// matching row family.
pub fn validate_bench_line(line: &str) -> Result<&'static str, String> {
    let keys = row_keys(line)?;
    for (family, schema) in ROW_SCHEMAS {
        if keys.len() == schema.len() && keys.iter().zip(schema.iter()).all(|(a, b)| a == b) {
            return Ok(family);
        }
    }
    Err(format!("row matches no known schema; keys = {keys:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_keys_handles_nesting_and_rejects_garbage() {
        let keys = row_keys("{\"a\":1,\"b\":{\"inner\":2},\"c\":\"x\"}").unwrap();
        assert_eq!(keys, vec!["a", "b", "c"], "nested keys stay invisible");
        assert!(row_keys("not json").is_err());
        assert!(row_keys("{}").is_err());
    }

    #[test]
    fn every_row_producer_matches_its_registered_schema() {
        let perf = PerfRow {
            workload: "stencil",
            detector: "epoch",
            n: 4,
            accesses: 10,
            ops_per_sec: 1.0,
            ns_per_access: 1.0,
            reports: 0,
            clock_bytes: 0,
        };
        assert_eq!(validate_bench_line(&perf.to_json()), Ok("perf"));
        let scenario = crate::scenarios::ScenarioRow {
            scenario: "fanout-racy(4p,2r)".into(),
            detector: "dual-clock",
            n: 4,
            net: "jittered-ib",
            seed: 1,
            accesses: 18,
            wall_ns_per_run: 100,
            accesses_per_sec: 100,
            reports: 3,
            truth_pairs: 24,
            truth_sites: 3,
            pair_precision: 1.0,
            pair_recall: 0.5,
            site_precision: 1.0,
            site_recall: 1.0,
        };
        assert_eq!(validate_bench_line(&scenario.to_json()), Ok("scenario"));
    }

    #[test]
    fn committed_bench_files_match_known_schemas() {
        // The drift gate: every line of every committed BENCH_*.json must
        // still match a registered row family, bit-for-bit in key order.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..");
        let mut checked_files = 0;
        for entry in std::fs::read_dir(&root).expect("repo root readable") {
            let path = entry.expect("entry").path();
            let name = path.file_name().and_then(|s| s.to_str()).unwrap_or("");
            if !name.starts_with("BENCH_") || !name.ends_with(".json") {
                continue;
            }
            checked_files += 1;
            let body = std::fs::read_to_string(&path).expect("bench file readable");
            for (i, line) in body.lines().filter(|l| !l.trim().is_empty()).enumerate() {
                validate_bench_line(line).unwrap_or_else(|e| {
                    panic!("{name} line {}: {e}", i + 1);
                });
            }
        }
        assert!(checked_files >= 3, "committed bench corpus went missing");
    }

    #[test]
    fn sink_row_json_embeds_the_config() {
        let config = DetectorConfig::new(DetectorKind::Dual, 8);
        let row = SinkRow {
            workload: "hotspot",
            path: "session-vec",
            config: config.to_json(),
            n: 8,
            accesses: 100,
            ops_per_sec: 1e6,
            ns_per_access: 1000.0,
            reports: 5,
        };
        let j = row.to_json();
        assert!(!j.contains('\n'));
        assert!(j.contains("\"path\":\"session-vec\""));
        assert!(j.contains("\"config\":{\"kind\":\"dual-clock\""));
        // The embedded config must itself round-trip.
        let embedded = &j[j.find("\"config\":").unwrap() + "\"config\":".len()..j.len() - 1];
        assert_eq!(DetectorConfig::from_json(embedded).unwrap(), config);
    }

    #[test]
    fn sink_overheads_pair_against_legacy_baseline() {
        let mk = |path: &'static str, ns: f64| SinkRow {
            workload: "hotspot",
            path,
            config: String::from("{}"),
            n: 4,
            accesses: 10,
            ops_per_sec: 1e9 / ns,
            ns_per_access: ns,
            reports: 0,
        };
        let rows = vec![mk("legacy-log", 100.0), mk("session-vec", 110.0)];
        let o = sink_overheads(&rows);
        assert_eq!(o.len(), 1);
        assert_eq!(o[0].1, "session-vec");
        assert!((o[0].2 - 1.1).abs() < 1e-9);
    }

    #[test]
    fn config_roundtrip_smoke_passes_for_every_kind() {
        for kind in DetectorKind::ALL {
            let config = DetectorConfig::new(kind, 4);
            let (reports, accesses) =
                config_roundtrip(&config).unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert!(accesses > 0);
            if kind == DetectorKind::Dual {
                assert!(reports > 0, "hotspot must race under the dual clock");
            }
        }
    }

    #[test]
    fn json_shape_is_single_line_and_parsable_fields() {
        let row = PerfRow {
            workload: "stencil",
            detector: "epoch",
            n: 4,
            accesses: 100,
            ops_per_sec: 1_000_000.0,
            ns_per_access: 1000.0,
            reports: 0,
            clock_bytes: 64,
        };
        let j = row.to_json();
        assert!(!j.contains('\n'));
        assert!(j.starts_with('{') && j.ends_with('}'));
        for key in [
            "\"workload\"",
            "\"detector\"",
            "\"ops_per_sec\"",
            "\"ns_per_access\"",
            "\"clock_bytes\"",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }
}
