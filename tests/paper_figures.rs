//! Workspace-level checks for every figure of the paper (experiment index
//! FIG1–FIG5c in DESIGN.md). The `simulator` crate's own tests cover engine
//! mechanics; these tests assert the *paper-facing* claims through the
//! public `coherent_dsm` API.

use coherent_dsm::prelude::*;
use simulator::workloads::figures;

fn run(cfg: SimConfig, programs: Vec<Program>) -> RunResult {
    let r = Engine::new(cfg, programs).run();
    assert!(r.errors.is_empty(), "{:?}", r.errors);
    assert!(r.stuck.is_empty(), "{:?}", r.stuck);
    r
}

/// FIG1 — the memory organisation of Fig 1: private memory is owner-only,
/// public memory is readable/writable by anyone, and remote puts/gets move
/// data across the global address space.
#[test]
fn fig1_memory_organisation() {
    let w = figures::fig1();
    let r = run(SimConfig::debugging(w.n), w.programs);
    // P2's puts landed in P1's and its own public segments.
    assert_eq!(r.read_u64(GlobalAddr::public(1, 64).range(8)), 0xC2);
    assert_eq!(r.read_u64(GlobalAddr::public(2, 0).range(8)), 0xD2);
    // P0's get copied P1's value into P0's *private* segment.
    assert_eq!(r.read_u64(GlobalAddr::private(0, 0).range(8)), 0xA1);
}

/// FIG1 — the model's access rules: a remote access to private memory is a
/// model violation (surfaced as an error, not silently executed).
#[test]
fn fig1_private_memory_is_owner_only() {
    let programs = vec![
        ProgramBuilder::new(0)
            .get(
                GlobalAddr::private(1, 0).range(8),
                GlobalAddr::private(0, 0).range(8),
            )
            .build(),
        Program::new(),
    ];
    let r = Engine::new(SimConfig::lockstep(2, 100), programs).run();
    assert!(
        r.errors.iter().any(|e| e.contains("private")),
        "remote private access must be rejected: {:?}",
        r.errors
    );
}

/// FIG2 — "Put consists in writing some data … It involves one message.
/// Get consists in reading … It involves two messages."
#[test]
fn fig2_message_counts_and_latency_asymmetry() {
    let w = figures::fig2();
    let cfg = SimConfig::lockstep(w.n, 1_000).with_detector(DetectorKind::Vanilla);
    let r = run(cfg, w.programs);
    assert_eq!(r.stats.msgs(OpClass::PutData), 1);
    assert_eq!(r.stats.msgs(OpClass::GetRequest), 1);
    assert_eq!(r.stats.msgs(OpClass::GetReply), 1);

    // Latency asymmetry: the get (round trip) takes at least twice the
    // one-way wire time; the put completes at injection.
    let put_ns = r
        .op_latencies
        .iter()
        .find(|(c, _)| c.label() == "put")
        .map(|(_, ns)| *ns)
        .expect("one put");
    let get_ns = r
        .op_latencies
        .iter()
        .find(|(c, _)| c.label() == "get")
        .map(|(_, ns)| *ns)
        .expect("one get");
    assert!(
        get_ns >= 2_000 && get_ns > put_ns,
        "get (two messages, {get_ns} ns) must exceed put (one-sided, {put_ns} ns)"
    );
}

/// FIG3 — "A put operation is delayed until the end of the get operation
/// on the same data."
#[test]
fn fig3_delayed_put_semantics() {
    let block = 1 << 20;
    let w = figures::fig3(block);
    let mut cfg = SimConfig::lockstep(w.n, 1_000).with_detector(DetectorKind::Vanilla);
    cfg.latency = LatencySpec::InfiniBand;
    cfg.public_len = block;
    cfg.private_len = block;

    let r = run(cfg.clone(), w.programs.clone());
    let with_get = r.put_apply_delays[0];
    let rb = run(
        cfg,
        vec![w.programs[0].clone(), Program::new(), Program::new()],
    );
    let without_get = rb.put_apply_delays[0];
    assert!(
        with_get > 10 * without_get,
        "put must wait out the get window ({with_get} ns vs {without_get} ns)"
    );
}

/// FIG4 — concurrent read-only accesses are not race conditions (§III-C /
/// Fig 4): dual clock silent, single clock reports.
#[test]
fn fig4_read_read_is_not_a_race() {
    let w = figures::fig4();
    let dual = run(SimConfig::debugging(w.n), w.programs.clone());
    assert!(dual.deduped().is_empty(), "{:?}", dual.deduped());

    let single = run(
        SimConfig::debugging(w.n).with_detector(DetectorKind::Single),
        w.programs,
    );
    assert!(single
        .deduped()
        .iter()
        .any(|r| r.class == RaceClass::ReadRead));
}

/// FIG5a — the clocks printed in the figure: P1's state `110` is concurrent
/// with m2's clock `001`, and the detector reports exactly that pair.
#[test]
fn fig5a_clock_values_match_figure() {
    let w = figures::fig5a();
    let r = run(SimConfig::debugging(w.n), w.programs);
    assert_eq!(r.deduped().len(), 1);
    let rep = &r.deduped()[0];
    let clocks: Vec<String> = [
        rep.previous.as_ref().unwrap().clock().to_string(),
        rep.current.clock().to_string(),
    ]
    .to_vec();
    // One put carries P0's clock 100, the other P2's 001 (order depends on
    // the schedule).
    assert!(clocks.contains(&"100".to_string()) || clocks.contains(&"001".to_string()));
    assert!(rep
        .current
        .clock()
        .concurrent_with(&rep.previous.as_ref().unwrap().clock()));
}

/// FIG5b — the causally chained scenario: silent in every schedule, and
/// the final value proves the chain executed.
#[test]
fn fig5b_chain_is_race_free() {
    let w = figures::fig5b();
    for seed in 1..=6 {
        let r = run(
            SimConfig::debugging(w.n).with_seed(seed),
            w.programs.clone(),
        );
        assert!(r.deduped().is_empty(), "seed {seed}: {:?}", r.deduped());
        assert_eq!(r.read_u64(GlobalAddr::public(0, 0).range(8)), 7);
    }
}

/// FIG5c — the paper marks m1 × m3 as a race, but under standard
/// vector-clock semantics the chain m1 → m2 → m3 → m4 is causally ordered
/// (P0's program order links m1 to the chain). The corrected detector is
/// silent on the `a` word; the paper's X is reproduced only by the printed
/// *strict* comparison of Algorithm 3.
#[test]
fn fig5c_strict_comparison_explains_the_papers_x() {
    use coherent_dsm::vclock::{literal_less, VectorClock};

    let w = figures::fig5c();
    let r = run(SimConfig::debugging(w.n), w.programs);
    let a_area = coherent_dsm::race_core::AreaKey::new(1, 0);
    assert!(
        !r.deduped()
            .iter()
            .any(|x| x.class == RaceClass::WriteWrite && x.area == a_area),
        "corrected semantics: m1 happens-before m4"
    );

    // The figure's clocks: m1 carries 1000; the m4-era state is ~2022.
    // Standard comparison: ordered. Printed strict comparison: "race".
    let m1 = VectorClock::from_components(vec![1, 0, 0, 0]);
    let m4 = VectorClock::from_components(vec![2, 0, 2, 2]);
    assert!(m1.leq(&m4), "standard: causally ordered");
    let strict_race = !literal_less(&m1, &m4) && !literal_less(&m4, &m1);
    assert!(
        strict_race,
        "the strict Algorithm 3 reproduces the figure's X"
    );
}
