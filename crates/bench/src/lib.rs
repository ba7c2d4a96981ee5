//! Shared helpers for the `repro` binary.
//!
//! Every experiment of the paper (DESIGN.md's index) is a function here
//! returning a printable table; the `repro` binary selects and prints them,
//! and EXPERIMENTS.md records the output. Measurements use *virtual* time
//! and message counts, which are deterministic per seed — the wall-clock
//! cost of the simulator and detector machinery is measured end to end by
//! the separate `benchmark/` crate.

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

use race_core::{DetectorKind, Oracle, RaceClass};
use simulator::workloads::{figures, master_worker, random_access, reduction};
use simulator::{Engine, Program, RunResult, SimConfig};

pub mod analysis;
pub mod chaos;
pub mod opstream;
pub mod perfjson;
pub mod scenarios;
pub mod serve;

/// Run one configuration, asserting the run is healthy.
pub fn run(cfg: SimConfig, programs: Vec<Program>) -> RunResult {
    let r = Engine::new(cfg, programs).run();
    assert!(r.errors.is_empty(), "engine errors: {:?}", r.errors);
    assert!(r.stuck.is_empty(), "stuck: {:?}", r.stuck);
    r
}

/// A printable experiment result.
pub struct Table {
    /// Experiment id from DESIGN.md (e.g. "FIG2").
    pub id: &'static str,
    /// Header line.
    pub title: String,
    /// Pre-formatted rows.
    pub rows: Vec<String>,
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "== {} — {}", self.id, self.title)?;
        for row in &self.rows {
            writeln!(f, "   {row}")?;
        }
        Ok(())
    }
}

/// FIG1 — model exercise: remote put/get across the global address space.
pub fn fig1() -> Table {
    let w = figures::fig1();
    let r = run(SimConfig::debugging(w.n), w.programs);
    Table {
        id: "FIG1",
        title: "memory organisation: private/public segments, remote get/put".into(),
        rows: vec![
            format!(
                "P0 got P1's value into private memory : {:#x}",
                r.read_u64(dsm::GlobalAddr::private(0, 0).range(8))
            ),
            format!(
                "P2's put landed in P1's public memory : {:#x}",
                r.read_u64(dsm::GlobalAddr::public(1, 64).range(8))
            ),
            format!(
                "P2's put landed in its own public mem : {:#x}",
                r.read_u64(dsm::GlobalAddr::public(2, 0).range(8))
            ),
            format!("virtual time: {}", r.virtual_time),
        ],
    }
}

/// FIG2 — put = 1 message, get = 2 messages; latency asymmetry.
pub fn fig2() -> Table {
    let w = figures::fig2();
    let cfg = SimConfig::lockstep(w.n, 1_000).with_detector(DetectorKind::Vanilla);
    let r = run(cfg, w.programs.clone());
    let lat = |label: &str| {
        r.op_latencies
            .iter()
            .find(|(c, _)| c.label() == label)
            .map(|(_, ns)| *ns)
            .unwrap_or(0)
    };
    Table {
        id: "FIG2",
        title: "one-sided operation message counts (paper: put=1, get=2)".into(),
        rows: vec![
            format!(
                "put data messages : {}",
                r.stats.msgs(netsim::OpClass::PutData)
            ),
            format!(
                "get request msgs  : {}",
                r.stats.msgs(netsim::OpClass::GetRequest)
            ),
            format!(
                "get reply msgs    : {}",
                r.stats.msgs(netsim::OpClass::GetReply)
            ),
            format!("put latency (injection, one-sided) : {} ns", lat("put")),
            format!("get latency (round trip)           : {} ns", lat("get")),
        ],
    }
}

/// FIG3 — a put overlapping an in-progress get is delayed until the get
/// ends.
pub fn fig3() -> Table {
    let block = 1 << 20;
    let w = figures::fig3(block);
    let mut cfg = SimConfig::lockstep(w.n, 1_000).with_detector(DetectorKind::Vanilla);
    cfg.latency = simulator::LatencySpec::InfiniBand;
    cfg.public_len = block;
    cfg.private_len = block;
    let with_get = run(cfg.clone(), w.programs.clone()).put_apply_delays[0];
    let without = run(
        cfg,
        vec![w.programs[0].clone(), Program::new(), Program::new()],
    )
    .put_apply_delays[0];
    Table {
        id: "FIG3",
        title: "put deferred behind an in-progress get on the same data".into(),
        rows: vec![
            format!("put send→apply delay, no concurrent get : {without} ns"),
            format!("put send→apply delay, get in progress   : {with_get} ns"),
            format!(
                "deferral factor                         : {:.1}×",
                with_get as f64 / without.max(1) as f64
            ),
        ],
    }
}

/// FIG4 — concurrent gets are not a race; only the single-clock baseline
/// reports them.
pub fn fig4() -> Table {
    let w = figures::fig4();
    let mut rows = Vec::new();
    for kind in [
        DetectorKind::Dual,
        DetectorKind::Single,
        DetectorKind::Literal,
    ] {
        let r = run(
            SimConfig::debugging(w.n).with_detector(kind),
            w.programs.clone(),
        );
        let rr = r
            .deduped()
            .iter()
            .filter(|x| x.class == RaceClass::ReadRead)
            .count();
        rows.push(format!(
            "{:<14} reports {:>2} (read-read false positives: {})",
            kind.label(),
            r.deduped().len(),
            rr
        ));
    }
    Table {
        id: "FIG4",
        title: "two concurrent gets of an initialised variable (no race)".into(),
        rows,
    }
}

/// FIG5a / FIG5b / FIG5c — the three detection scenarios.
pub fn fig5() -> Table {
    let mut rows = Vec::new();
    {
        let w = figures::fig5a();
        let r = run(SimConfig::debugging(w.n), w.programs);
        let clocks = r
            .deduped()
            .first()
            .and_then(|rep| rep.previous.as_ref().map(|prev| (prev, &rep.current)));
        rows.push(match clocks {
            Some((prev, cur)) => format!(
                "5a concurrent puts     : {} race ({} × {})",
                r.deduped().len(),
                prev.clock(),
                cur.clock()
            ),
            None => format!("5a concurrent puts     : {} race", r.deduped().len()),
        });
    }
    {
        let w = figures::fig5b();
        let r = run(SimConfig::debugging(w.n), w.programs);
        rows.push(format!(
            "5b causal get/put chain: {} races (chain value delivered: {})",
            r.deduped().len(),
            r.read_u64(dsm::GlobalAddr::public(0, 0).range(8))
        ));
    }
    {
        let w = figures::fig5c();
        let r = run(SimConfig::debugging(w.n), w.programs);
        let ww_on_a = r
            .deduped()
            .iter()
            .filter(|x| x.class == RaceClass::WriteWrite && x.area == race_core::AreaKey::new(1, 0))
            .count();
        rows.push(format!(
            "5c chained m1→m4       : {ww_on_a} WW race on `a` (paper's X needs the strict Algorithm-3 comparison; see ABL-lit)"
        ));
        let w = figures::fig5c_racy();
        let r = run(SimConfig::debugging(w.n), w.programs);
        let ww_on_a = r
            .deduped()
            .iter()
            .filter(|x| x.class == RaceClass::WriteWrite && x.area == race_core::AreaKey::new(1, 0))
            .count();
        rows.push(format!(
            "5c racy variant        : {ww_on_a} WW race on `a` (independent chain head)"
        ));
    }
    Table {
        id: "FIG5",
        title: "vector-clock race detection scenarios".into(),
        rows,
    }
}

/// SEC4C — clock storage and wire sizes versus n.
pub fn clocksize() -> Table {
    let mut rows = vec![format!(
        "{:>4} {:>12} {:>12} {:>14} {:>16}",
        "n", "vector (B)", "matrix (B)", "clock B / put", "sparse 2-writer"
    )];
    for n in [2usize, 4, 8, 16, 32, 64] {
        let vec_b = vclock::VectorClock::zero(n).dense_wire_size();
        let mat_b = vclock::MatrixClock::zero(0, n).dense_size_bytes();
        // One remote put with detection: measure actual clock bytes — the
        // header and clock piggy-backed on `PutData` plus the whole
        // `PutAck` carrying (V, W) back (8 + 8n and 40 + 16n bytes).
        let dst = dsm::GlobalAddr::public(1, 0).range(8);
        let programs: Vec<Program> = (0..n)
            .map(|r| {
                if r == 0 {
                    simulator::ProgramBuilder::new(0).put_u64(1, dst).build()
                } else {
                    Program::new()
                }
            })
            .collect();
        let r = run(SimConfig::lockstep(n, 100), programs);
        let mut dense = vclock::VectorClock::zero(n);
        dense.set(0, 3);
        dense.set(1.min(n - 1), 5);
        let sparse = vclock::SparseClock::from_dense(&dense).sparse_wire_size();
        rows.push(format!(
            "{:>4} {:>12} {:>12} {:>14} {:>16}",
            n,
            vec_b,
            mat_b,
            r.stats.bytes(netsim::OpClass::Clock),
            sparse
        ));
    }
    Table {
        id: "SEC4C",
        title: "clock sizes must grow with n (Charron-Bost lower bound)".into(),
        rows,
    }
}

/// SEC4D-mem — dual store doubles clock memory; granularity trade-off.
pub fn memory() -> Table {
    let w = random_access::generate(random_access::RandomSpec {
        n: 6,
        ops_per_rank: 24,
        hot_words: 12,
        p_write: 0.5,
        locked: false,
        seed: 42,
    });
    let mut rows = vec![format!(
        "{:<14} {:>12} {:>14} {:>10}",
        "detector", "clock bytes", "touched areas", "reports"
    )];
    for kind in [
        DetectorKind::Dual,
        DetectorKind::Single,
        DetectorKind::Vanilla,
    ] {
        let r = run(
            SimConfig::debugging(w.n).with_detector(kind),
            w.programs.clone(),
        );
        let clocks_per_area = match kind {
            DetectorKind::Single => 1,
            DetectorKind::Vanilla => 0,
            _ => 2,
        };
        let areas = if clocks_per_area == 0 {
            0
        } else {
            r.clock_memory_bytes / (clocks_per_area * w.n * 8)
        };
        rows.push(format!(
            "{:<14} {:>12} {:>14} {:>10}",
            kind.label(),
            r.clock_memory_bytes,
            areas,
            r.deduped().len()
        ));
    }
    rows.push(String::new());
    rows.push(format!(
        "{:<14} {:>12} {:>10}",
        "granularity", "clock bytes", "reports"
    ));
    for (label, gran) in [
        ("word (8B)", race_core::Granularity::WORD),
        ("line (64B)", race_core::Granularity::CACHE_LINE),
        ("page (4KB)", race_core::Granularity::PAGE),
    ] {
        let mut cfg = SimConfig::debugging(w.n);
        cfg.detector.granularity = gran;
        let r = run(cfg, w.programs.clone());
        rows.push(format!(
            "{:<14} {:>12} {:>10}",
            label,
            r.clock_memory_bytes,
            r.deduped().len()
        ));
    }
    Table {
        id: "SEC4D-mem",
        title: "dual clocks double the clock memory (and granularity trades memory for precision)"
            .into(),
        rows,
    }
}

/// SEC4D-fp — false positives / negatives per detector, oracle-scored,
/// across write ratios.
pub fn falsepos() -> Table {
    let mut rows = vec![format!(
        "{:<8} {:<14} {:>8} {:>8} {:>8} {:>10} {:>12}",
        "p_write", "detector", "reports", "pair-FP", "site-FN", "precision", "site-recall"
    )];
    for p_write in [0.0, 0.25, 0.5, 1.0] {
        for kind in [
            DetectorKind::Dual,
            DetectorKind::Single,
            DetectorKind::Literal,
        ] {
            let mut reports = 0usize;
            let mut fp = 0usize;
            let mut site_fn = 0usize;
            let mut prec = 0.0f64;
            let mut srec = 0.0f64;
            let seeds = [1u64, 2, 3];
            for &seed in &seeds {
                let w = random_access::generate(random_access::RandomSpec {
                    n: 4,
                    ops_per_rank: 24,
                    hot_words: 6,
                    p_write,
                    locked: false,
                    seed: 0xF0 + seed,
                });
                let r = run(
                    SimConfig::debugging(w.n)
                        .with_detector(kind)
                        .with_seed(seed),
                    w.programs,
                );
                let oracle = Oracle::analyze(&r.trace);
                let pairs = oracle.score(r.deduped());
                let sites = oracle.site_score(r.deduped());
                reports += r.deduped().len();
                fp += pairs.false_positives;
                site_fn += sites.false_negatives;
                prec += pairs.precision();
                srec += sites.recall();
            }
            rows.push(format!(
                "{:<8.2} {:<14} {:>8} {:>8} {:>8} {:>10.2} {:>12.2}",
                p_write,
                kind.label(),
                reports,
                fp,
                site_fn,
                prec / seeds.len() as f64,
                srec / seeds.len() as f64,
            ));
        }
    }
    Table {
        id: "SEC4D-fp",
        title:
            "detection quality vs oracle (3 seeds each): dual clock eliminates the false positives"
                .into(),
        rows,
    }
}

/// SEC5A — detection overhead versus vanilla at debugging scale, on a
/// contended (all workers → one slot) and an uncontended (one slot per
/// worker) pattern. Contention makes the owner-side Algorithm-1 locks
/// serialise the workers, so the time ratio is pattern-dependent; the
/// message ratio is structural: every added message is a put's ack
/// (`Clock`) or an explicit lock of a two-area op (`Lock`, none here), and
/// the clocks themselves are bytes piggy-backed on the data messages.
pub fn overhead() -> Table {
    let mut rows = vec![format!(
        "{:<22} {:<4} {:>6} {:>9} {:>6} {:>6} {:>6} {:>7} {:>11} {:>10} {:>7}",
        "pattern",
        "n",
        "msgs",
        "msgs+det",
        "+ack",
        "+lock",
        "msg ×",
        "det B %",
        "vtime (µs)",
        "vtime+det",
        "time ×"
    )];
    for workers in [2usize, 4, 8, 15] {
        for (label, w) in [
            ("racy shared slot", master_worker::racy(workers, 2)),
            ("slotted (disjoint)", master_worker::slotted(workers, 2)),
        ] {
            let vanilla = run(
                SimConfig::debugging(w.n).with_detector(DetectorKind::Vanilla),
                w.programs.clone(),
            );
            let dual = run(SimConfig::debugging(w.n), w.programs.clone());
            rows.push(format!(
                "{:<22} {:<4} {:>6} {:>9} {:>6} {:>6} {:>6.2} {:>7.1} {:>11.1} {:>10.1} {:>7.2}",
                label,
                w.n,
                vanilla.stats.total_msgs(),
                dual.stats.total_msgs(),
                dual.stats.msgs(netsim::OpClass::Clock),
                dual.stats.msgs(netsim::OpClass::Lock),
                dual.stats.total_msgs() as f64 / vanilla.stats.total_msgs() as f64,
                dual.stats.detection_overhead_pct(),
                vanilla.virtual_time.as_us_f64(),
                dual.virtual_time.as_us_f64(),
                dual.virtual_time.as_ns() as f64 / vanilla.virtual_time.as_ns().max(1) as f64,
            ));
        }
    }
    Table {
        id: "SEC5A",
        title: "detection overhead at debugging scale (contended vs disjoint result slots)".into(),
        rows,
    }
}

/// SEC5B — one-sided reduction: the owners never send.
pub fn reduction_exp() -> Table {
    let mut rows = vec![format!(
        "{:>4} {:>10} {:>10} {:>10} {:>8}",
        "n", "get-req", "get-reply", "put-msgs", "races"
    )];
    for n in [4usize, 8, 16] {
        let w = reduction::onesided(n);
        let r = run(SimConfig::debugging(n), w.programs);
        rows.push(format!(
            "{:>4} {:>10} {:>10} {:>10} {:>8}",
            n,
            r.stats.msgs(netsim::OpClass::GetRequest),
            r.stats.msgs(netsim::OpClass::GetReply),
            r.stats.msgs(netsim::OpClass::PutData),
            r.deduped().len()
        ));
    }
    Table {
        id: "SEC5B",
        title: "one-sided reduction (future work §V-B): root-only traffic, race-free".into(),
        rows,
    }
}

/// ABL-lit — the literal algorithms versus the corrected dual clock.
pub fn literal() -> Table {
    // Crafted WAR program.
    let word = dsm::GlobalAddr::public(1, 0).range(8);
    let programs = vec![
        simulator::ProgramBuilder::new(0)
            .get(word, dsm::GlobalAddr::private(0, 0).range(8))
            .build(),
        Program::new(),
        simulator::ProgramBuilder::new(2)
            .compute(200_000)
            .put_u64(9, word)
            .build(),
    ];
    let mut rows = vec![format!(
        "{:<14} {:>14} {:>12}",
        "detector", "WAR detected", "fig4 RR-FPs"
    )];
    for kind in [DetectorKind::Dual, DetectorKind::Literal] {
        let r = run(
            SimConfig::debugging(3).with_detector(kind),
            programs.clone(),
        );
        let war = r.deduped().iter().any(|x| x.class == RaceClass::ReadWrite);
        let w4 = figures::fig4();
        let r4 = run(SimConfig::debugging(w4.n).with_detector(kind), w4.programs);
        let rr = r4
            .deduped()
            .iter()
            .filter(|x| x.class == RaceClass::ReadRead)
            .count();
        rows.push(format!(
            "{:<14} {:>14} {:>12}",
            kind.label(),
            if war { "yes" } else { "MISSED" },
            rr
        ));
    }
    rows.push(String::new());
    rows.push("strict Algorithm-3 comparison on Fig 5c's clocks (1000 vs 2022):".into());
    let m1 = vclock::VectorClock::from_components(vec![1, 0, 0, 0]);
    let m4 = vclock::VectorClock::from_components(vec![2, 0, 2, 2]);
    rows.push(format!(
        "  standard ≤ : ordered={}  |  strict < : race={}  (explains the paper's X)",
        m1.leq(&m4),
        !vclock::literal_less(&m1, &m4) && !vclock::literal_less(&m4, &m1)
    ));
    Table {
        id: "ABL-lit",
        title: "printed algorithms vs corrected protocol".into(),
        rows,
    }
}

/// SHMEM — the threaded backend at a glance.
pub fn shmem_exp() -> Table {
    let n = 4;
    let counter = shmem::GlobalAddr::public(0, 0).range(8);
    let buggy = shmem::run(shmem::ShmemConfig::new(n), |pe| {
        for _ in 0..20 {
            let (v, _) = pe.get_u64(counter);
            pe.put_u64(counter, v + 1);
        }
    });
    let fixed = shmem::run(shmem::ShmemConfig::new(n), |pe| {
        for _ in 0..20 {
            let guard = pe.lock(counter);
            let (v, _) = pe.get_u64(counter);
            pe.put_u64(counter, v + 1);
            drop(guard);
        }
    });
    Table {
        id: "SHMEM",
        title: "§III-B on real threads: unsynchronised vs locked counter (4 PEs × 20 increments)"
            .into(),
        rows: vec![
            format!(
                "unsynchronised: value {} (expected 80), race reports {}",
                buggy.read_u64(counter),
                buggy.reports.len()
            ),
            format!(
                "lock-protected: value {} (expected 80), race reports {}",
                fixed.read_u64(counter),
                fixed.reports.len()
            ),
        ],
    }
}

/// EXT-atomic — the same shared counter under atomic / locked / racy
/// disciplines: message bill, final value, detection verdicts.
pub fn atomics() -> Table {
    use simulator::workloads::counters;
    let n = 4;
    let increments = 4;
    let mut rows = vec![format!(
        "{:<10} {:>8} {:>8} {:>9} {:>9} {:>12} {:>8}",
        "discipline", "msgs", "atomic", "lock", "put/get", "final value", "races"
    )];
    for (label, w, expected) in [
        (
            "atomic",
            counters::atomic(n, increments),
            Some((n * increments) as u64),
        ),
        ("locked", counters::locked(n, increments), None),
        ("racy", counters::racy(n, increments), None),
    ] {
        let r = run(SimConfig::debugging(n), w.programs.clone());
        let data = r.stats.msgs(netsim::OpClass::PutData)
            + r.stats.msgs(netsim::OpClass::GetRequest)
            + r.stats.msgs(netsim::OpClass::GetReply);
        let value = r.read_u64(counters::counter());
        if let Some(e) = expected {
            assert_eq!(value, e, "atomics must count exactly");
        }
        rows.push(format!(
            "{:<10} {:>8} {:>8} {:>9} {:>9} {:>12} {:>8}",
            label,
            r.stats.total_msgs(),
            r.stats.msgs(netsim::OpClass::Atomic),
            r.stats.msgs(netsim::OpClass::Lock),
            data,
            value,
            r.deduped().len()
        ));
    }
    Table {
        id: "EXT-atomic",
        title: "NIC atomics (§V-B 'new operations'): 4 ranks × 4 increments of one word".into(),
        rows,
    }
}

/// EXT-matvec — symmetric-heap-placed distributed multiply.
pub fn matvec_exp() -> Table {
    use simulator::workloads::matvec;
    let mut rows = vec![format!(
        "{:>2} {:>4} {:>8} {:>10} {:>8} {:>8}",
        "n", "dim", "msgs", "vtime(µs)", "races", "correct"
    )];
    for (n, dim) in [(2usize, 4usize), (4, 8), (6, 12)] {
        let mv = matvec::build(n, dim);
        let r = run(SimConfig::debugging(n), mv.workload.programs.clone());
        let correct = mv
            .gathered
            .iter()
            .enumerate()
            .all(|(i, g)| r.read_u64(*g) == mv.expected[i]);
        rows.push(format!(
            "{:>2} {:>4} {:>8} {:>10.1} {:>8} {:>8}",
            n,
            dim,
            r.stats.total_msgs(),
            r.virtual_time.as_us_f64(),
            r.deduped().len(),
            correct
        ));
    }
    Table {
        id: "EXT-matvec",
        title: "distributed mat-vec on the symmetric heap: correct, race-free, detection on".into(),
        rows,
    }
}

/// EXT-delta — delta-encoded clock updates vs dense retransmission on a
/// protocol-shaped update stream (each op ticks the writer and occasionally
/// absorbs a peer, exactly the shape Algorithm 5's `put_clock` ships).
pub fn delta() -> Table {
    use vclock::{DeltaDecoder, DeltaEncoder, VectorClock};
    let mut rows = vec![format!(
        "{:>4} {:>8} {:>12} {:>12} {:>8}",
        "n", "updates", "dense (B)", "delta (B)", "saving"
    )];
    for n in [4usize, 16, 64] {
        let updates = 100u64;
        let mut enc = DeltaEncoder::new(n);
        let mut dec = DeltaDecoder::new(n);
        let mut clock = VectorClock::zero(n);
        let (mut dense_b, mut delta_b) = (0usize, 0usize);
        for step in 1..=updates {
            clock.tick(0);
            if step % 5 == 0 {
                let peer = (step as usize) % n;
                let v = clock.get(peer) + 1;
                clock.set(peer, v);
            }
            let d = enc.encode(&clock);
            dense_b += clock.dense_wire_size();
            delta_b += d.wire_size();
            dec.decode(&d);
        }
        rows.push(format!(
            "{:>4} {:>8} {:>12} {:>12} {:>7.1}×",
            n,
            updates,
            dense_b,
            delta_b,
            dense_b as f64 / delta_b.max(1) as f64
        ));
    }
    Table {
        id: "EXT-delta",
        title: "delta-encoded clock updates (the §IV-C width bound limits state, not traffic)"
            .into(),
        rows,
    }
}

/// All experiments, in index order.
pub fn all_tables() -> Vec<Table> {
    vec![
        fig1(),
        fig2(),
        fig3(),
        fig4(),
        fig5(),
        clocksize(),
        memory(),
        falsepos(),
        overhead(),
        reduction_exp(),
        literal(),
        atomics(),
        matvec_exp(),
        delta(),
        shmem_exp(),
    ]
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_table_renders() {
        for t in super::all_tables() {
            let text = t.to_string();
            assert!(text.contains(t.id));
            assert!(!t.rows.is_empty());
        }
    }
}
