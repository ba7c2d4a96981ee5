//! Detector-quality experiments (index SEC4D-fp, ABL-lit, ABL-gran in
//! DESIGN.md): precision/recall of every detector against the oracle, the
//! write-after-read blind spot of the literal algorithms, and the effect of
//! clock granularity.

use coherent_dsm::prelude::*;
use simulator::workloads::{figures, random_access, ring};

fn run_with(
    kind: DetectorKind,
    programs: &[Program],
    n: usize,
    seed: u64,
) -> (RunResult, Score, Score) {
    let cfg = SimConfig::debugging(n).with_detector(kind).with_seed(seed);
    let r = Engine::new(cfg, programs.to_vec()).run();
    assert!(r.stuck.is_empty());
    let oracle = Oracle::analyze(&r.trace);
    let pairs = oracle.score(r.deduped());
    let sites = oracle.site_score(r.deduped());
    (r, pairs, sites)
}

/// SEC4D-fp — on a read-heavy workload the single-clock baseline emits
/// read-read reports; the dual clock emits none (the §IV-D claim).
#[test]
fn dual_clock_eliminates_read_read_false_positives() {
    let w = random_access::generate(random_access::RandomSpec {
        n: 4,
        ops_per_rank: 24,
        hot_words: 4,
        p_write: 0.1, // read-heavy
        locked: false,
        seed: 0xF16,
    });
    let (dual, dual_pairs, _) = run_with(DetectorKind::Dual, &w.programs, w.n, 3);
    let (single, _, _) = run_with(DetectorKind::Single, &w.programs, w.n, 3);

    assert_eq!(dual_pairs.false_positives, 0, "dual clock is sound");
    let dual_rr = dual
        .deduped()
        .iter()
        .filter(|r| r.class == RaceClass::ReadRead)
        .count();
    let single_rr = single
        .deduped()
        .iter()
        .filter(|r| r.class == RaceClass::ReadRead)
        .count();
    assert_eq!(dual_rr, 0);
    assert!(
        single_rr > 0,
        "single clock must produce read-read reports on a read-heavy mix"
    );
}

/// SEC4D-fp — pure read workload after initialisation: zero true races;
/// only the single-clock baseline reports anything.
#[test]
fn pure_read_workload_has_no_true_races() {
    let coeff = GlobalAddr::public(0, 0).range(8);
    let n = 5;
    let mut programs = vec![ProgramBuilder::new(0)
        .local_write_u64(coeff, 1)
        .barrier()
        .build()];
    for rank in 1..n {
        let mut b = ProgramBuilder::new(rank).barrier();
        for i in 0..4 {
            b = b.get(coeff, GlobalAddr::private(rank, 8 * i).range(8));
        }
        programs.push(b.build());
    }
    let (dual, _, _) = run_with(DetectorKind::Dual, &programs, n, 1);
    let (single, _, _) = run_with(DetectorKind::Single, &programs, n, 1);
    let oracle = Oracle::analyze(&dual.trace);
    assert!(oracle.truth().is_empty());
    assert!(dual.deduped().is_empty());
    assert!(!single.deduped().is_empty());
}

/// ABL-lit — the printed Algorithm 1 checks only the write clock on a put,
/// so a put racing with an earlier *read* goes unnoticed.
#[test]
fn literal_mode_misses_write_after_read_races() {
    // P0 gets P1's word; P2 then puts it — a genuine read-write race.
    let word = GlobalAddr::public(1, 0).range(8);
    let programs = vec![
        ProgramBuilder::new(0)
            .get(word, GlobalAddr::private(0, 0).range(8))
            .build(),
        Program::new(),
        ProgramBuilder::new(2)
            .compute(200_000)
            .put_u64(9, word)
            .build(),
    ];
    let (dual, _, dual_sites) = run_with(DetectorKind::Dual, &programs, 3, 1);
    let (literal, _, lit_sites) = run_with(DetectorKind::Literal, &programs, 3, 1);

    assert!(
        dual.deduped()
            .iter()
            .any(|r| r.class == RaceClass::ReadWrite),
        "dual clock catches the WAR race"
    );
    assert_eq!(dual_sites.false_negatives, 0);
    assert!(
        !literal
            .deduped()
            .iter()
            .any(|r| r.class == RaceClass::ReadWrite && r.current.kind.is_write()),
        "literal mode cannot see the read when checking the put"
    );
    assert!(
        lit_sites.false_negatives > 0,
        "the blind spot is a missed true race site"
    );
}

/// ABL-lit — conversely the literal get checks the general-purpose clock,
/// inheriting the single-clock read-read false positives.
#[test]
fn literal_mode_keeps_read_read_false_positives() {
    let w = figures::fig4();
    let (literal, _, _) = run_with(DetectorKind::Literal, &w.programs, w.n, 1);
    assert!(
        literal
            .deduped()
            .iter()
            .any(|r| r.class == RaceClass::ReadRead),
        "literal get compares against V: concurrent reads are flagged"
    );
}

/// Lockset baseline: blind to barrier/causal synchronisation — it reports
/// on the barrier-ordered fig4 program (false positive) while accepting
/// lock-disciplined code.
#[test]
fn lockset_false_positives_on_barrier_synced_code() {
    let w = figures::fig4();
    let (lockset, _, _) = run_with(DetectorKind::Lockset, &w.programs, w.n, 1);
    assert!(
        !lockset.deduped().is_empty(),
        "lockset cannot see the barrier ordering"
    );

    let ringw = ring::pipeline(4, 2);
    let (on_ring, _, _) = run_with(DetectorKind::Lockset, &ringw.programs, ringw.n, 1);
    assert!(
        on_ring.deduped().is_empty(),
        "consistently locked ring satisfies the lockset discipline: {:?}",
        on_ring.deduped()
    );
}

/// Precision/recall table across detectors on a mixed workload — the
/// quantified version of the paper's §IV-D argument.
#[test]
fn detector_quality_ordering_on_mixed_workload() {
    let w = random_access::generate(random_access::RandomSpec {
        n: 4,
        ops_per_rank: 20,
        hot_words: 4,
        p_write: 0.4,
        locked: false,
        seed: 0xCAFE,
    });
    let mut precision = std::collections::HashMap::new();
    let mut site_recall = std::collections::HashMap::new();
    let mut pair_tp = std::collections::HashMap::new();
    for kind in [
        DetectorKind::Dual,
        DetectorKind::Single,
        DetectorKind::Literal,
    ] {
        let (_, pairs, sites) = run_with(kind, &w.programs, w.n, 7);
        precision.insert(kind.label(), pairs.precision());
        site_recall.insert(kind.label(), sites.recall());
        pair_tp.insert(kind.label(), pairs.true_positives);
    }
    // Dual clock: sound and site-complete.
    assert_eq!(precision["dual-clock"], 1.0);
    assert_eq!(site_recall["dual-clock"], 1.0);
    // Single clock: read-read reports hurt precision, never recall.
    assert!(precision["single-clock"] < 1.0);
    assert_eq!(site_recall["single-clock"], 1.0);
    // Literal: read-read FPs hurt precision; the WAR blind spot can only
    // lose true pairs relative to the dual clock (the dedicated WAR test
    // above shows the site-level loss on a crafted program).
    assert!(precision["literal-paper"] < 1.0);
    assert!(pair_tp["literal-paper"] <= pair_tp["dual-clock"]);
}

/// ABL-gran — coarser clock granularity inflates false positives on
/// adjacent-but-disjoint data while shrinking clock memory.
#[test]
fn granularity_tradeoff_false_sharing_vs_memory() {
    // Two processes write adjacent words of the same page: disjoint data,
    // no true race.
    let n = 2;
    let programs = vec![
        ProgramBuilder::new(0)
            .put_u64(1, GlobalAddr::public(0, 0).range(8))
            .build(),
        ProgramBuilder::new(1)
            .put_u64(2, GlobalAddr::public(0, 8).range(8))
            .build(),
    ];
    let mut results = Vec::new();
    for gran in [Granularity::WORD, Granularity::PAGE] {
        let mut cfg = SimConfig::debugging(n);
        cfg.detector.granularity = gran;
        let r = Engine::new(cfg, programs.clone()).run();
        results.push((gran.block_bytes(), r.deduped().len(), r.clock_memory_bytes));
    }
    let (word, page) = (results[0], results[1]);
    assert_eq!(word.1, 0, "word granularity: disjoint words do not race");
    assert!(page.1 > 0, "page granularity: false sharing is flagged");
    assert!(
        page.2 < word.2,
        "…but the page store is smaller ({} vs {} bytes)",
        page.2,
        word.2
    );
}
