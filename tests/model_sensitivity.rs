//! Model-sensitivity checks: detection verdicts are a property of the
//! *program*, not of the interconnect — changing topology or latency model
//! changes timings and traffic, never the set of racy sites. (This is the
//! soundness story behind the paper's claim that the detector can live in
//! the communication library: it needs no timing assumptions.)

use coherent_dsm::prelude::*;
use simulator::workloads::{figures, random_access};

fn run(cfg: SimConfig, programs: Vec<Program>) -> RunResult {
    let r = Engine::new(cfg, programs).run();
    assert!(r.errors.is_empty(), "{:?}", r.errors);
    assert!(r.stuck.is_empty(), "{:?}", r.stuck);
    r
}

fn all_topologies(n: usize) -> Vec<Topology> {
    vec![
        Topology::FullMesh,
        Topology::Ring { nodes: n },
        Topology::Star { hub: 0 },
        Topology::Hypercube { dims: 2 },
    ]
}

#[test]
fn fig5a_detected_on_every_topology() {
    let w = figures::fig5a();
    assert_eq!(w.n, 3);
    for topo in all_topologies(4) {
        // n=3 programs padded to 4 ranks for the hypercube.
        let mut programs = w.programs.clone();
        programs.push(Program::new());
        let mut cfg = SimConfig::debugging(4);
        cfg.topology = topo;
        let r = run(cfg, programs);
        assert_eq!(
            r.deduped().len(),
            1,
            "{topo:?}: the WW race exists regardless of interconnect"
        );
    }
}

#[test]
fn fig5b_silent_on_every_topology() {
    let w = figures::fig5b();
    for topo in all_topologies(4) {
        let mut programs = w.programs.clone();
        // The padding rank must still join the scenario's barrier.
        programs.push(ProgramBuilder::new(3).barrier().build());
        let mut cfg = SimConfig::debugging(4);
        cfg.topology = topo;
        let r = run(cfg, programs);
        assert!(r.deduped().is_empty(), "{topo:?}: {:?}", r.deduped());
    }
}

#[test]
fn latency_model_changes_time_not_verdicts() {
    let w = random_access::generate(random_access::RandomSpec {
        n: 4,
        ops_per_rank: 10,
        hot_words: 3,
        p_write: 0.5,
        locked: false,
        seed: 11,
    });
    let mut times = Vec::new();
    let mut truth_sites = Vec::new();
    for latency in [
        LatencySpec::Constant { ns: 500 },
        LatencySpec::InfiniBand,
        LatencySpec::Ethernet,
    ] {
        let mut cfg = SimConfig::debugging(4);
        cfg.latency = latency;
        let r = run(cfg, w.programs.clone());
        times.push(r.virtual_time.as_ns());
        let oracle = Oracle::analyze(&r.trace);
        // Detector covers every site under every model.
        let sites = oracle.site_score(r.deduped());
        assert_eq!(sites.false_negatives, 0, "{latency:?}");
        assert_eq!(oracle.score(r.deduped()).false_positives, 0, "{latency:?}");
        let mut sites: Vec<_> = oracle.truth_sites().into_iter().collect();
        sites.sort_unstable();
        truth_sites.push(sites);
    }
    // Ethernet is slower than InfiniBand in virtual time.
    assert!(times[2] > times[1], "{times:?}");
    // The *racy sites* (not necessarily the racy pairs — those are
    // schedule-dependent) coincide across models for this workload.
    assert_eq!(truth_sites[0], truth_sites[1]);
    assert_eq!(truth_sites[1], truth_sites[2]);
}

#[test]
fn hop_sensitive_latency_orders_topologies() {
    // One put between the two most distant ranks of a ring vs a mesh: the
    // ring pays more hops, hence more virtual time.
    let dst = GlobalAddr::public(3, 0).range(8);
    let programs = |_: ()| {
        vec![
            ProgramBuilder::new(0).put_u64(1, dst).build(),
            Program::new(),
            Program::new(),
            Program::new(),
            Program::new(),
            Program::new(),
        ]
    };
    let mut cfg_ring = SimConfig::lockstep(6, 1_000).with_detector(DetectorKind::Vanilla);
    cfg_ring.topology = Topology::Ring { nodes: 6 };
    let ring = run(cfg_ring, programs(()));

    let mut cfg_mesh = SimConfig::lockstep(6, 1_000).with_detector(DetectorKind::Vanilla);
    cfg_mesh.topology = Topology::FullMesh;
    let mesh = run(cfg_mesh, programs(()));

    assert!(
        ring.stats.mean_latency_ns() > mesh.stats.mean_latency_ns(),
        "3 ring hops beat 1 mesh hop: {} vs {}",
        ring.stats.mean_latency_ns(),
        mesh.stats.mean_latency_ns()
    );
}

#[test]
fn explorer_summarises_across_seeds_and_detectors() {
    // The schedule-dependent stencil bug: over enough seeds the summary
    // separates the correct program from the buggy one cleanly.
    use simulator::workloads::stencil;
    let seeds: Vec<u64> = (1..=8).collect();
    let cfg = SimConfig::debugging(4);

    let good = explore(&cfg, &stencil::with_barrier(4, 4, 2).programs, &seeds);
    let bad = explore(&cfg, &stencil::missing_barrier(4, 4, 2).programs, &seeds);

    assert_eq!(good.seeds_with_truth(), 0);
    assert_eq!(good.seeds_with_reports(), 0);
    assert_eq!(good.total_false_positives(), 0);
    assert!(bad.seeds_with_truth() > 0);
    assert_eq!(
        bad.seeds_with_reports(),
        bad.seeds_with_truth(),
        "dual clock reports exactly when a race exists in the schedule"
    );
}
