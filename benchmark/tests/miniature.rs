//! Miniature versions of all five workloads, run through the same code as
//! the full-size ones: every rung must reproduce the in-process twin's
//! summary bytes and report count (a run is only `correct()` if it did),
//! the seed-determined counts are pinned, and the names the harness emits
//! are the names `BENCHMARK.json` declares.

use std::collections::BTreeSet;
use std::path::PathBuf;

use benchmark::child::{self, Args};
use benchmark::json::{self, Value};
use benchmark::orchestrate::run_child;
use benchmark::report::Report;
use benchmark::spec::{Scale, Workload, DEFAULT_SEED, END_TO_END, PER_LAYER};

fn exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_benchmark"))
}

fn args(workload: Workload, seed: u64, trace: bool) -> Args {
    Args {
        workload,
        seed,
        seconds: 0.02,
        trace,
        scale: Scale::Mini,
        exe: exe(),
    }
}

fn mini(workload: Workload, seed: u64, trace: bool) -> Report {
    let report = child::run(&args(workload, seed, trace));
    assert!(report.correct(), "{}: {:?}", workload.name(), report.errors);
    report
}

fn count(report: &Report, name: &str) -> u64 {
    *report
        .counts
        .get(name)
        .unwrap_or_else(|| panic!("{}: no count {name:?}", report.workload))
}

#[test]
fn every_workload_measures_end_to_end() {
    for workload in Workload::ALL {
        let report = mini(workload, DEFAULT_SEED, false);
        assert!(report.attempted >= 3 * count(&report, "events"));
        for metric in &END_TO_END {
            let value = report.value(metric.name);
            // CPU time comes in 10 ms ticks: a miniature may see none.
            let may_be_zero = metric.name == "cpu_ns_per_event";
            assert!(
                value > 0.0 || may_be_zero,
                "{} {} = {value}",
                workload.name(),
                metric.name
            );
        }
    }
}

/// Seed 176 at miniature scale. `frame_bytes` and `socket_writes` are taken
/// before the finish frame, so the per-event ratios are exact.
#[test]
fn every_rung_agrees_and_counts_are_exact() {
    let stencil = mini(Workload::InprocStencil, DEFAULT_SEED, true);
    assert_eq!(count(&stencil, "events"), 16 * 290);
    assert_eq!(count(&stencil, "clocked_accesses"), 16 * 288);
    assert_eq!(count(&stencil, "reports"), 0);
    assert_eq!(stencil.value("clockstore.epoch_area_share"), 1.0);
    assert_eq!(count(&stencil, "clock_bytes"), PIN_STENCIL_CLOCK_BYTES);

    let contended = mini(Workload::InprocContended, DEFAULT_SEED, true);
    assert_eq!(count(&contended, "events"), 32 * 128);
    assert_eq!(count(&contended, "clocked_accesses"), 32 * 128);
    assert_eq!(count(&contended, "reports"), PIN_CONTENDED_REPORTS);
    assert_eq!(count(&contended, "clock_bytes"), PIN_CONTENDED_CLOCK_BYTES);
    assert!(contended.value("clockstore.epoch_area_share") < 1.0);
    assert!(contended.value("summary.json_bytes") > stencil.value("summary.json_bytes"));

    let streamed = mini(Workload::TcpStream, DEFAULT_SEED, true);
    let events = count(&streamed, "events");
    assert_eq!(events, 8 * 512);
    assert_eq!(count(&streamed, "reports"), PIN_STREAM_REPORTS);
    // Every event of this stream is a put or a get: 4 + 49 bytes, two writes.
    assert_eq!(count(&streamed, "frame_bytes"), 53 * events);
    assert_eq!(streamed.value("frame.bytes_per_event"), 53.0);
    assert_eq!(count(&streamed, "socket_writes"), 2 * events);
    assert_eq!(streamed.value("socket.writes_per_event"), 2.0);
    assert_eq!(count(&streamed, "clock_bytes"), PIN_STREAM_CLOCK_BYTES);
    assert!(count(&streamed, "snapshot_bytes") > 0);
    assert_eq!(streamed.value("server.sessions_degraded"), 0.0);
    assert_eq!(streamed.value("server.events_shed"), 0.0);
    assert!(
        streamed.value("server.sessions_finished") >= 7.0,
        "warm-up + 3 passes x 2"
    );

    let pinged = mini(Workload::TcpPingpong, DEFAULT_SEED, true);
    let events = count(&pinged, "events");
    assert_eq!(events, 2 * 290);
    // One ping frame (4 + 1 bytes, two writes) follows every event.
    assert_eq!(count(&pinged, "socket_writes"), 4 * events);
    assert!(pinged.value("client.ack_ms_p50") > 0.0);
    assert!(pinged.value("client.ack_ms_p999") >= pinged.value("client.ack_ms_p50"));

    let sim = mini(Workload::SimDebug, DEFAULT_SEED, true);
    assert_eq!(count(&sim, "events"), count(&sim, "vanilla_events"));
    assert!(count(&sim, "msgs_dual") > count(&sim, "msgs_vanilla"));
    assert!(sim.value("simulator.virtual_slowdown") > 1.0);
    assert!(sim.value("netsim.detection_bytes_share") > 0.0);
}

const PIN_STENCIL_CLOCK_BYTES: u64 = 65_536;
const PIN_CONTENDED_REPORTS: u64 = 2131;
const PIN_CONTENDED_CLOCK_BYTES: u64 = 516_096;
const PIN_STREAM_REPORTS: u64 = 1592;
const PIN_STREAM_CLOCK_BYTES: u64 = 32_768;

#[test]
fn a_different_seed_moves_reports_but_not_events() {
    let a = mini(Workload::InprocContended, DEFAULT_SEED, false);
    let b = mini(Workload::InprocContended, DEFAULT_SEED + 1, false);
    assert_eq!(count(&a, "events"), count(&b, "events"));
    assert_eq!(count(&a, "clocked_accesses"), count(&b, "clocked_accesses"));
    assert_ne!(count(&a, "reports"), count(&b, "reports"));
}

#[test]
fn the_simulator_counts_repeat_exactly() {
    let a = mini(Workload::SimDebug, DEFAULT_SEED, true);
    let b = mini(Workload::SimDebug, DEFAULT_SEED, true);
    assert_eq!(a.counts, b.counts);
    for exact in [
        "simulator.virtual_slowdown",
        "simulator.msgs_per_event_vanilla",
        "simulator.msgs_per_event_dual",
        "netsim.detection_bytes_share",
    ] {
        assert_eq!(a.value(exact), b.value(exact), "{exact}");
    }
    let other = mini(Workload::SimDebug, DEFAULT_SEED + 1, true);
    assert_ne!(a.counts, other.counts, "the seed reaches the engine");
}

#[test]
fn the_orchestrator_returns_a_report_whatever_the_child_does() {
    let ok = run_child(&exe(), &args(Workload::InprocStencil, DEFAULT_SEED, false));
    assert!(ok.correct(), "{:?}", ok.errors);
    let line = json::parse(&ok.contract_line()).unwrap();
    let keys: Vec<&str> = line.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);

    let lost = run_child(
        &PathBuf::from("/nonexistent/benchmark"),
        &args(Workload::TcpStream, 1, false),
    );
    assert!(!lost.correct());
    assert_eq!((lost.attempted, lost.failed), (1, 1));
    let line = json::parse(&lost.contract_line()).unwrap();
    assert_eq!(line.get("correct"), Some(&Value::Bool(false)));
}

/// `BENCHMARK.json` and the harness name the same workloads and metrics,
/// with the same units, directions and bounds.
#[test]
fn names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let list = |key: &str| doc.get(key).and_then(Value::as_arr).unwrap().to_vec();
    let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();

    let declared: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
    let emitted: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared, emitted);

    for (key, metrics, trace) in [
        ("end_to_end", &END_TO_END[..], false),
        ("per_layer", &PER_LAYER[..], true),
    ] {
        let declared = list(key);
        assert_eq!(declared.len(), metrics.len(), "{key}");
        for (d, m) in declared.iter().zip(metrics) {
            assert_eq!(text(d, "name"), m.name);
            assert_eq!(text(d, "unit"), m.unit, "{}", m.name);
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(text(d, "better"), better, "{}", m.name);
            if !trace {
                assert_eq!(
                    d.get("bound").and_then(Value::as_f64),
                    Some(m.bound),
                    "{}",
                    m.name
                );
            }
        }
        // What a run prints is exactly what is declared, on every workload.
        let declared: BTreeSet<String> = declared.iter().map(|d| text(d, "name")).collect();
        let report = mini(Workload::InprocStencil, DEFAULT_SEED, trace);
        let line = json::parse(&report.contract_line()).unwrap();
        let printed: BTreeSet<String> = line
            .get("metrics")
            .and_then(Value::as_obj)
            .unwrap()
            .keys()
            .cloned()
            .collect();
        assert_eq!(printed, declared, "{key}");
    }
    let command: Vec<String> = list("command")
        .iter()
        .map(|c| c.as_str().unwrap().to_string())
        .collect();
    assert!(command.iter().any(|c| c == "benchmark/Cargo.toml"));
    assert_eq!(list("paths"), [Value::str("benchmark")]);
}
