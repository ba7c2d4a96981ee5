//! Whole-run fingerprints: every observable output of an engine run folded
//! into one FNV-1a `u64`, pinned as a literal per (workload, detector,
//! seed or constant latency, fault plan).
//!
//! A refactor of the engine must leave every row unchanged. A protocol
//! change moves the detected (`Dual`) rows on purpose and says so; the
//! `Vanilla` rows run no detection protocol and must not move.
//!
//! On a mismatch the test prints every row's actual hash in the shape of
//! `EXPECTED`, so a deliberate change is re-pinned by pasting that table.

use dsm::{GlobalAddr, MemRange, Segment};
use netsim::FaultSpec;
use race_core::DetectorKind;
use simulator::workloads::{
    counters, figures, lock_contention, master_worker, random_access, Workload,
};
use simulator::{Engine, ProgramBuilder, RunResult, SimConfig};

/// 64-bit FNV-1a over everything written into it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn fingerprint(r: &RunResult) -> u64 {
    let mut h = Fnv::new();
    h.u64(r.virtual_time.0);
    h.u64(r.stats.total_msgs());
    h.u64(r.stats.total_bytes());
    h.u64(r.stats.detection_bytes());
    h.u64(r.stats.injected_total());
    h.str(&r.summary.to_json());
    h.u64(r.reports.len() as u64);
    for report in &r.reports {
        h.str(&report.signal_line());
    }
    h.u64(r.trace.events.len() as u64);
    h.u64(r.op_latencies.len() as u64);
    for &(class, ns) in &r.op_latencies {
        h.str(class.label());
        h.u64(ns);
    }
    h.u64(r.put_apply_delays.len() as u64);
    for &d in &r.put_apply_delays {
        h.u64(d);
    }
    h.u64(r.errors.len() as u64);
    for e in &r.errors {
        h.str(e);
    }
    h.u64(r.stuck.len() as u64);
    for &rank in &r.stuck {
        h.u64(rank as u64);
    }
    for (rank, mem) in r.memories.iter().enumerate() {
        for (segment, base) in [
            (Segment::Private, GlobalAddr::private(rank, 0)),
            (Segment::Public, GlobalAddr::public(rank, 0)),
        ] {
            let range: MemRange = base.range(mem.segment_len(segment));
            h.bytes(&mem.read(&range, rank).expect("own segment is readable"));
        }
    }
    h.0
}

/// Ops that lock two public areas — a public local source or destination
/// plus a remote area — so explicit detection-lock steps, local and
/// remote, run beside the fused requests.
fn two_area(n: usize) -> Workload {
    let programs = (0..n)
        .map(|rank| {
            let mine = GlobalAddr::public(rank, 64).range(8);
            let theirs = GlobalAddr::public((rank + 1) % n, 0).range(8);
            ProgramBuilder::new(rank)
                .local_write_u64(mine, rank as u64 + 1)
                .put(mine, theirs)
                .get(theirs, GlobalAddr::public(rank, 128).range(8))
                .barrier()
                .build()
        })
        .collect();
    Workload {
        name: "two-area".into(),
        n,
        programs,
        truth: None,
    }
}

fn workloads() -> Vec<(&'static str, Workload)> {
    vec![
        ("fig3", figures::fig3(4096)),
        ("counters-atomic", counters::atomic(4, 6)),
        ("counters-locked", counters::locked(4, 3)),
        ("lock-contention-racy", lock_contention::racy(4, 3, 2)),
        ("master-worker-racy", master_worker::racy(3, 4)),
        (
            "random-access",
            random_access::generate(random_access::RandomSpec::default()),
        ),
        ("two-area", two_area(3)),
    ]
}

/// A lossy plan: drops force the bounded-wait recovery, duplicates the
/// first-arrival guards.
fn lossy() -> FaultSpec {
    FaultSpec {
        drop: 0.05,
        duplicate: 0.2,
        ..Default::default()
    }
}

fn rows() -> Vec<(String, u64)> {
    let mut rows = Vec::new();
    for (name, w) in workloads() {
        let lossy_too = matches!(name, "counters-atomic" | "random-access");
        let lockstep_too = matches!(name, "counters-locked" | "two-area");
        for kind in [DetectorKind::Dual, DetectorKind::Vanilla] {
            let mut cases = Vec::new();
            for seed in [1, 176] {
                let cfg = SimConfig::debugging(w.n)
                    .with_seed(seed)
                    .with_detector(kind);
                cases.push((seed.to_string(), cfg.clone()));
                if lossy_too {
                    cases.push((format!("{seed}/lossy"), cfg.with_faults(lossy())));
                }
            }
            if lockstep_too {
                // Constant latency, no jitter: the timing regime in which
                // wake-ups and arrivals fall on the same instants.
                let cfg = SimConfig::lockstep(w.n, 1_000).with_detector(kind);
                cases.push(("lockstep".to_string(), cfg));
            }
            for (case, cfg) in cases {
                let faulty = cfg.faults.is_some();
                let r = Engine::new(cfg, w.programs.clone()).run();
                if faulty {
                    assert!(
                        r.stats.injected_drops() > 0 && r.stats.injected_duplicates() > 0,
                        "{name}: the lossy plan must both drop and duplicate"
                    );
                }
                rows.push((format!("{name}/{kind:?}/{case}"), fingerprint(&r)));
            }
        }
    }
    rows
}

const EXPECTED: &[(&str, u64)] = &[
    ("fig3/Dual/1", 0x89e696e30e07e10c),
    ("fig3/Dual/176", 0x7e007f33e7397b4b),
    ("fig3/Vanilla/1", 0x8610e516b7605366),
    ("fig3/Vanilla/176", 0x879e23a7b05c7a17),
    ("counters-atomic/Dual/1", 0x9db9bed4aeced699),
    ("counters-atomic/Dual/1/lossy", 0x3e99992944eb4343),
    ("counters-atomic/Dual/176", 0xb76f18f0f1174797),
    ("counters-atomic/Dual/176/lossy", 0xbb0630fea68916a5),
    ("counters-atomic/Vanilla/1", 0x49077b7a9076aad4),
    ("counters-atomic/Vanilla/1/lossy", 0x4fe548e60d17b163),
    ("counters-atomic/Vanilla/176", 0xf16691f60f8ce209),
    ("counters-atomic/Vanilla/176/lossy", 0xa29b9f402e0f877e),
    ("counters-locked/Dual/1", 0xd0e0e1d9354c0a4c),
    ("counters-locked/Dual/176", 0x60e85d826e1727b6),
    ("counters-locked/Dual/lockstep", 0xaf7f303e06c29559),
    ("counters-locked/Vanilla/1", 0x89b2724b02423ce2),
    ("counters-locked/Vanilla/176", 0xbd519baeedcb224c),
    ("counters-locked/Vanilla/lockstep", 0xd0efe440109ffef8),
    ("lock-contention-racy/Dual/1", 0x47ba62175fcb574f),
    ("lock-contention-racy/Dual/176", 0x2ad50e0735c84407),
    ("lock-contention-racy/Vanilla/1", 0xfdf7d07325b4c041),
    ("lock-contention-racy/Vanilla/176", 0x3c7aeaf5db627056),
    ("master-worker-racy/Dual/1", 0xba0ea3504a078c9c),
    ("master-worker-racy/Dual/176", 0x298471737fc438dd),
    ("master-worker-racy/Vanilla/1", 0x03dbf29791c66dc2),
    ("master-worker-racy/Vanilla/176", 0x84502d39c7b0fec3),
    ("random-access/Dual/1", 0x97864f43eb9acbeb),
    ("random-access/Dual/1/lossy", 0x33b6fac5830e1f30),
    ("random-access/Dual/176", 0xf61a81665353b422),
    ("random-access/Dual/176/lossy", 0x2ea17881420483fc),
    ("random-access/Vanilla/1", 0x07df9dfca25cd650),
    ("random-access/Vanilla/1/lossy", 0xe390f0bc0783958e),
    ("random-access/Vanilla/176", 0x4a6f713f323131ae),
    ("random-access/Vanilla/176/lossy", 0x3e1944b87fab3826),
    ("two-area/Dual/1", 0x48ac30f04aaeb848),
    ("two-area/Dual/176", 0x73ddc179d7ade037),
    ("two-area/Dual/lockstep", 0xbe7d815839a3f952),
    ("two-area/Vanilla/1", 0xda1d0c4c885b8ab9),
    ("two-area/Vanilla/176", 0xce7454ab7fe3d8d1),
    ("two-area/Vanilla/lockstep", 0x8c306b7f82696e8b),
];

#[test]
fn whole_runs_are_pinned() {
    let actual = rows();
    let table: String = actual
        .iter()
        .map(|(label, h)| format!("    (\"{label}\", 0x{h:016x}),\n"))
        .collect();
    let expected: Vec<(String, u64)> = EXPECTED
        .iter()
        .map(|&(label, h)| (label.to_string(), h))
        .collect();
    assert!(
        actual == expected,
        "engine fingerprints moved; actual table:\n{table}"
    );
}
