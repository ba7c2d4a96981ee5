//! End-to-end behaviour of the DES engine against the paper's model:
//! data movement, Fig 2 message counts, Fig 3 deferral, Fig 4/5 detection,
//! locking, barriers and determinism.

use dsm::GlobalAddr;
use netsim::OpClass;
use race_core::{DetectorKind, Oracle, RaceClass};
use simulator::workloads::{figures, master_worker, random_access, reduction, ring, stencil};
use simulator::{Engine, Program, ProgramBuilder, SimConfig};

fn run(cfg: SimConfig, programs: Vec<Program>) -> simulator::RunResult {
    let r = Engine::new(cfg, programs).run();
    assert!(r.errors.is_empty(), "engine errors: {:?}", r.errors);
    assert!(r.stuck.is_empty(), "stuck processes: {:?}", r.stuck);
    r
}

#[test]
fn put_moves_data_to_remote_public_memory() {
    let dst = GlobalAddr::public(1, 64).range(8);
    let programs = vec![
        ProgramBuilder::new(0).put_u64(0xBEEF, dst).build(),
        ProgramBuilder::new(1).build(),
    ];
    let r = run(SimConfig::lockstep(2, 100), programs);
    assert_eq!(r.read_u64(dst), 0xBEEF);
}

#[test]
fn get_fetches_remote_data() {
    let src = GlobalAddr::public(0, 0).range(8);
    let dst = GlobalAddr::private(1, 0).range(8);
    let programs = vec![
        ProgramBuilder::new(0)
            .local_write_u64(src, 77)
            .barrier()
            .build(),
        ProgramBuilder::new(1).barrier().get(src, dst).build(),
    ];
    let r = run(SimConfig::lockstep(2, 100), programs);
    assert_eq!(r.read_u64(dst), 77);
}

#[test]
fn fig2_put_is_one_message_get_is_two() {
    // Detection off so only the data plane is on the wire.
    let w = figures::fig2();
    let cfg = SimConfig::lockstep(w.n, 100).with_detector(DetectorKind::Vanilla);
    let r = run(cfg, w.programs);
    assert_eq!(r.stats.msgs(OpClass::PutData), 1, "put = 1 message");
    assert_eq!(r.stats.msgs(OpClass::GetRequest), 1);
    assert_eq!(r.stats.msgs(OpClass::GetReply), 1, "get = 2 messages");
    assert_eq!(r.stats.msgs(OpClass::Clock), 0);
    assert_eq!(r.stats.msgs(OpClass::Lock), 0);
}

#[test]
fn fig2_with_detection_is_two_messages_per_access() {
    // Fig 2's ops (an immediate put, a get into private memory) each touch
    // one remote area, so under detection they are fused: the data message
    // carries the detection header, the owner runs the critical section,
    // and the reply carries the clocks. The put gains its ack; the get
    // gains nothing; nobody sends a lock message.
    let w = figures::fig2();
    let cfg = SimConfig::lockstep(w.n, 100).with_detector(DetectorKind::Dual);
    let r = run(cfg, w.programs);
    assert_eq!(r.stats.msgs(OpClass::PutData), 1, "data plane unchanged");
    assert_eq!(r.stats.msgs(OpClass::GetRequest), 1);
    assert_eq!(r.stats.msgs(OpClass::GetReply), 1);
    assert_eq!(r.stats.msgs(OpClass::Clock), 1, "the put's ack");
    assert_eq!(
        r.stats.msgs(OpClass::Lock),
        0,
        "locks are taken at the owner"
    );
    assert_eq!(r.stats.total_msgs(), 4);
    assert!(r.stats.detection_bytes() > 0, "the clocks still cost bytes");
}

#[test]
fn fig3_put_overlapping_get_is_deferred() {
    // Large block → long get reply occupancy. Detection off so the raw
    // RDMA deferral (not the locks) provides the Fig 3 semantics.
    let block = 1 << 20;
    let w = figures::fig3(block);
    let mut cfg = SimConfig::lockstep(w.n, 1_000).with_detector(DetectorKind::Vanilla);
    cfg.latency = simulator::LatencySpec::InfiniBand;
    cfg.public_len = block;
    cfg.private_len = block;
    let r = run(cfg.clone(), w.programs.clone());
    assert_eq!(r.put_apply_delays.len(), 1);
    let deferred_delay = r.put_apply_delays[0];

    // Baseline: same put with no concurrent get.
    let baseline_programs = vec![w.programs[0].clone(), Program::new(), Program::new()];
    let rb = run(cfg, baseline_programs);
    let base_delay = rb.put_apply_delays[0];
    assert!(
        deferred_delay > base_delay,
        "Fig 3: put delayed behind the get ({deferred_delay} ns vs {base_delay} ns)"
    );
    // Final memory holds the put's value (applied after the get).
    assert_eq!(
        r.memories[1]
            .read(&GlobalAddr::public(1, 0).range(4), 1)
            .unwrap(),
        vec![0xFF; 4]
    );
}

#[test]
fn fig4_dual_clock_is_silent_single_clock_reports_read_read() {
    let w = figures::fig4();
    let dual = run(
        SimConfig::debugging(w.n).with_detector(DetectorKind::Dual),
        w.programs.clone(),
    );
    assert!(
        dual.deduped().is_empty(),
        "concurrent reads must not be flagged by the dual-clock detector: {:?}",
        dual.deduped()
    );

    let single = run(
        SimConfig::debugging(w.n).with_detector(DetectorKind::Single),
        w.programs,
    );
    let rr: Vec<_> = single
        .deduped()
        .iter()
        .filter(|r| r.class == RaceClass::ReadRead)
        .collect();
    assert!(
        !rr.is_empty(),
        "single-clock baseline must flag the concurrent gets (the §IV-D false positive)"
    );
}

#[test]
fn fig5a_write_write_race_detected_in_every_schedule() {
    let w = figures::fig5a();
    for seed in 1..=8 {
        let r = run(
            SimConfig::debugging(w.n).with_seed(seed),
            w.programs.clone(),
        );
        let ww: Vec<_> = r
            .deduped()
            .iter()
            .filter(|x| x.class == RaceClass::WriteWrite)
            .collect();
        assert_eq!(ww.len(), 1, "seed {seed}: exactly one WW race");
        // Corollary 1: the reported clocks are concurrent.
        let rep = ww[0];
        assert!(rep.current.clock().concurrent_with(&rep.previous.clock()));
    }
}

#[test]
fn fig5b_causal_chain_is_silent_and_oracle_agrees() {
    let w = figures::fig5b();
    for seed in 1..=4 {
        let r = run(
            SimConfig::debugging(w.n).with_seed(seed),
            w.programs.clone(),
        );
        assert!(
            r.deduped().is_empty(),
            "seed {seed}: chain is causally ordered, got {:?}",
            r.deduped()
        );
        let oracle = Oracle::analyze(&r.trace);
        assert!(oracle.truth().is_empty(), "oracle agrees: no true races");
        // The token actually flowed: x ends at 7.
        assert_eq!(r.read_u64(GlobalAddr::public(0, 0).range(8)), 7);
    }
}

#[test]
fn fig5c_no_write_write_race_on_a_with_corrected_clocks() {
    // The paper's Fig 5c X only arises under the literal strict comparison;
    // with standard vector-clock semantics m1 happens-before m4.
    let w = figures::fig5c();
    let r = run(SimConfig::debugging(w.n), w.programs);
    let a_block = race_core::AreaKey::new(1, 0);
    let ww_on_a: Vec<_> = r
        .deduped()
        .iter()
        .filter(|x| x.class == RaceClass::WriteWrite && x.area == a_block)
        .collect();
    assert!(
        ww_on_a.is_empty(),
        "m1 → m4 are chained causally; WW report would be a false positive: {ww_on_a:?}"
    );
}

#[test]
fn fig5c_racy_variant_detects_the_ww_race() {
    let w = figures::fig5c_racy();
    let r = run(SimConfig::debugging(w.n), w.programs);
    let a_block = race_core::AreaKey::new(1, 0);
    assert!(
        r.deduped()
            .iter()
            .any(|x| x.class == RaceClass::WriteWrite && x.area == a_block),
        "independent chain head makes m1 × m4 a real WW race"
    );
}

#[test]
fn locks_provide_mutual_exclusion_and_silence_detectors() {
    let w = master_worker::locked(3, 2);
    let r = run(SimConfig::debugging(w.n), w.programs);
    assert!(
        r.deduped().is_empty(),
        "lock-protected slot must not race: {:?}",
        r.deduped()
    );
    let oracle = Oracle::analyze(&r.trace);
    assert!(oracle.truth().is_empty());
}

#[test]
fn racy_master_worker_detected_and_not_fatal() {
    let w = master_worker::racy(4, 2);
    let r = run(SimConfig::debugging(w.n), w.programs);
    assert!(
        !r.deduped().is_empty(),
        "the §IV-D intentional race is signalled"
    );
    // §IV-D: execution completed normally (run() already asserts no stuck
    // processes); the slot holds one of the workers' values.
    let v = r.read_u64(GlobalAddr::public(0, 0).range(8));
    assert!(v >= 1000, "some worker's value landed, got {v}");
}

#[test]
fn slotted_master_worker_is_race_free() {
    let w = master_worker::slotted(4, 2);
    let r = run(SimConfig::debugging(w.n), w.programs);
    assert!(r.deduped().is_empty(), "{:?}", r.deduped());
    assert!(Oracle::analyze(&r.trace).truth().is_empty());
}

#[test]
fn stencil_with_barrier_race_free_without_barrier_racy() {
    let sync = stencil::with_barrier(4, 4, 2);
    let r = run(SimConfig::debugging(sync.n), sync.programs);
    assert!(r.deduped().is_empty(), "{:?}", r.deduped());

    // Without barriers, some seed exhibits races.
    let racy = stencil::missing_barrier(4, 4, 2);
    let mut any = false;
    for seed in 1..=6 {
        let r = run(
            SimConfig::debugging(racy.n).with_seed(seed),
            racy.programs.clone(),
        );
        if !r.deduped().is_empty() {
            any = true;
            break;
        }
    }
    assert!(any, "missing barrier must produce races in some schedule");
}

#[test]
fn ring_pipeline_is_race_free_under_dual_clock() {
    let w = ring::pipeline(4, 2);
    let r = run(SimConfig::debugging(w.n), w.programs);
    assert!(
        r.deduped().is_empty(),
        "dual-clock must not report on the lock-ordered ring: {:?}",
        r.deduped()
    );
}

#[test]
fn onesided_reduction_computes_and_stays_silent() {
    let w = reduction::onesided(5);
    let r = run(SimConfig::debugging(w.n), w.programs);
    assert!(r.deduped().is_empty(), "{:?}", r.deduped());
    // Root fetched contributions 2..=5 into its private scratch.
    for rank in 1..5usize {
        let got = r.read_u64(GlobalAddr::private(0, 8 * rank).range(8));
        assert_eq!(got, (rank + 1) as u64);
    }
}

#[test]
fn random_locked_workload_is_race_free_for_oracle() {
    let w = random_access::generate(random_access::RandomSpec {
        locked: true,
        ops_per_rank: 12,
        ..Default::default()
    });
    let r = run(SimConfig::debugging(w.n), w.programs);
    let oracle = Oracle::analyze(&r.trace);
    assert!(
        oracle.truth().is_empty(),
        "locked discipline orders everything"
    );
    assert!(r.deduped().is_empty(), "{:?}", r.deduped());
}

#[test]
fn dual_detector_sound_and_complete_on_random_workload() {
    // Soundness + completeness vs the oracle on an unlocked random mix.
    for seed in [1u64, 2, 3] {
        let w = random_access::generate(random_access::RandomSpec {
            n: 4,
            ops_per_rank: 16,
            hot_words: 4,
            p_write: 0.5,
            locked: false,
            seed: 0xFEED + seed,
        });
        let r = run(
            SimConfig::debugging(w.n).with_seed(seed),
            w.programs.clone(),
        );
        let oracle = Oracle::analyze(&r.trace);
        let pair_score = oracle.score(r.deduped());
        assert_eq!(
            pair_score.false_positives, 0,
            "seed {seed}: dual-clock must be sound (every report a true race)"
        );
        // Completeness is measured at *site* granularity: the detector's
        // per-process access histories report each racy (process pair,
        // word) at least once, not every historical pair on it.
        let site_score = oracle.site_score(r.deduped());
        assert_eq!(
            site_score.false_negatives, 0,
            "seed {seed}: dual-clock must cover every true race site"
        );
        assert_eq!(site_score.false_positives, 0, "seed {seed}: no bogus sites");
    }
}

#[test]
fn deterministic_runs_for_equal_seeds() {
    let w = figures::fig5a();
    let a = run(SimConfig::debugging(w.n).with_seed(5), w.programs.clone());
    let b = run(SimConfig::debugging(w.n).with_seed(5), w.programs.clone());
    assert_eq!(a.virtual_time, b.virtual_time);
    assert_eq!(a.stats.total_msgs(), b.stats.total_msgs());
    assert_eq!(a.trace.events.len(), b.trace.events.len());
    for (x, y) in a.trace.events.iter().zip(&b.trace.events) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.process, y.process);
    }
}

#[test]
fn unlock_without_lock_is_reported_as_error() {
    let dst = GlobalAddr::public(0, 0).range(8);
    let programs = vec![ProgramBuilder::new(0).unlock(dst).build()];
    let r = Engine::new(SimConfig::lockstep(1, 100), programs).run();
    assert!(!r.errors.is_empty());
    assert!(r.errors[0].contains("not held"));
}

#[test]
fn out_of_bounds_put_reported_not_fatal() {
    let dst = GlobalAddr::public(1, 1 << 20).range(8); // way past public_len
    let programs = vec![
        ProgramBuilder::new(0).put_u64(1, dst).build(),
        Program::new(),
    ];
    let r = Engine::new(SimConfig::lockstep(2, 100), programs).run();
    assert!(r.errors.iter().any(|e| e.contains("out of bounds")));
    assert!(r.stuck.is_empty(), "the error must not wedge the run");
}

#[test]
fn vanilla_detector_never_reports_but_run_is_cheaper() {
    let w = master_worker::racy(4, 2);
    let vanilla = run(
        SimConfig::debugging(w.n).with_detector(DetectorKind::Vanilla),
        w.programs.clone(),
    );
    let dual = run(SimConfig::debugging(w.n), w.programs);
    assert!(vanilla.deduped().is_empty());
    assert!(vanilla.stats.total_msgs() < dual.stats.total_msgs());
    assert_eq!(vanilla.clock_memory_bytes, 0);
    assert!(dual.clock_memory_bytes > 0);
}

#[test]
fn cyclic_lock_wait_is_reported_as_stuck_not_hang() {
    // Classic AB/BA deadlock with program locks: the run terminates (the
    // event queues drain) and the wedged ranks are reported.
    let a = GlobalAddr::public(0, 0).range(8);
    let b = GlobalAddr::public(1, 0).range(8);
    let programs = vec![
        ProgramBuilder::new(0)
            .lock(a)
            .compute(100_000)
            .lock(b)
            .unlock(b)
            .unlock(a)
            .build(),
        ProgramBuilder::new(1)
            .lock(b)
            .compute(100_000)
            .lock(a)
            .unlock(a)
            .unlock(b)
            .build(),
    ];
    let cfg = SimConfig::lockstep(2, 1_000).with_detector(DetectorKind::Vanilla);
    let r = Engine::new(cfg, programs).run();
    assert_eq!(r.stuck, vec![0, 1], "both ranks wedged in the lock cycle");
}

#[test]
fn barrier_joins_all_ranks() {
    // If barriers were broken, the later phases would race or deadlock.
    let n = 6;
    let mut programs = Vec::new();
    for rank in 0..n {
        let own = GlobalAddr::public(rank, 0).range(8);
        programs.push(
            ProgramBuilder::new(rank)
                .local_write_u64(own, rank as u64)
                .barrier()
                .get(
                    GlobalAddr::public((rank + 1) % n, 0).range(8),
                    GlobalAddr::private(rank, 0).range(8),
                )
                .build(),
        );
    }
    let r = run(SimConfig::debugging(n), programs);
    assert!(r.deduped().is_empty(), "{:?}", r.deduped());
    for rank in 0..n {
        assert_eq!(
            r.read_u64(GlobalAddr::private(rank, 0).range(8)),
            ((rank + 1) % n) as u64
        );
    }
}

// ----- fault injection (chaos) ------------------------------------------

#[test]
fn quiet_fault_plan_is_byte_identical_to_no_plan() {
    // Asking for faults with the all-zero spec must not perturb a run:
    // same reports, same virtual time, nothing injected, nothing degraded.
    let w = stencil::with_barrier(4, 64, 2);
    let base = run(SimConfig::debugging(w.n), w.programs.clone());
    let quiet = run(
        SimConfig::debugging(w.n).with_faults(netsim::FaultSpec::default()),
        w.programs,
    );
    assert_eq!(base.reports, quiet.reports);
    assert_eq!(base.virtual_time, quiet.virtual_time);
    assert_eq!(quiet.stats.injected_total(), 0);
    assert!(!quiet.summary.degraded);
}

#[test]
fn injected_delays_degrade_the_summary_but_never_the_run() {
    // Delay-only chaos perturbs timing without losing messages: every rank
    // still finishes, and the summary carries the degraded marker.
    let w = stencil::with_barrier(4, 64, 2);
    let spec = netsim::FaultSpec {
        delay: 1.0,
        extra_delay_ns: 5_000,
        ..Default::default()
    };
    let r = run(SimConfig::debugging(w.n).with_faults(spec), w.programs);
    assert!(r.stats.injected_delays() > 0);
    assert!(r.summary.degraded, "fired injection must mark the run");
}

#[test]
fn dropped_messages_degrade_the_run_without_wedging() {
    // Losing every message would wedge the communicating ranks forever;
    // the bounded-wait degrade path forces them past each lost wait so
    // the run *completes* — degraded, with every skip recorded — instead
    // of reporting them stuck. §IV-D: signalled, never fatal.
    let w = figures::fig2();
    let spec = netsim::FaultSpec {
        drop: 1.0,
        ..Default::default()
    };
    let r = Engine::new(SimConfig::lockstep(w.n, 100).with_faults(spec), w.programs).run();
    assert!(r.stats.injected_drops() > 0);
    assert!(
        r.stuck.is_empty(),
        "lossy plans must not wedge: {:?}",
        r.stuck
    );
    assert!(r.summary.degraded);
    assert!(
        r.errors.iter().any(|e| e.contains("lossy delivery")),
        "forced recovery must be recorded: {:?}",
        r.errors
    );
}

#[test]
fn dropped_barrier_messages_break_the_barrier_not_the_run() {
    // Barriers are the classic lossy-plan wedge: one dropped arrival or
    // release message and every rank blocks forever. The recovery path
    // must force the ranks through and clear the stale arrival set.
    let w = stencil::with_barrier(4, 8, 2);
    let spec = netsim::FaultSpec {
        drop: 0.3,
        ..Default::default()
    };
    let r = Engine::new(
        SimConfig::lockstep(w.n, 500).with_seed(7).with_faults(spec),
        w.programs,
    )
    .run();
    assert!(r.stats.injected_drops() > 0);
    assert!(r.stuck.is_empty(), "barrier wedge survived: {:?}", r.stuck);
    assert!(r.summary.degraded);
}

#[test]
fn healthy_net_deadlocks_still_report_stuck() {
    // The recovery path is gated on injected faults: a genuine program
    // deadlock on a healthy network must still surface via `stuck`, not
    // be silently forced to completion.
    let a = GlobalAddr::public(0, 0).range(8);
    let b = GlobalAddr::public(1, 0).range(8);
    let programs = vec![
        ProgramBuilder::new(0)
            .lock(a)
            .compute(100_000)
            .lock(b)
            .unlock(b)
            .unlock(a)
            .build(),
        ProgramBuilder::new(1)
            .lock(b)
            .compute(100_000)
            .lock(a)
            .unlock(a)
            .unlock(b)
            .build(),
    ];
    let cfg = SimConfig::lockstep(2, 1_000)
        .with_faults(netsim::FaultSpec {
            drop: 0.0,
            ..Default::default()
        })
        .with_detector(DetectorKind::Vanilla);
    let r = Engine::new(cfg, programs).run();
    assert_eq!(r.stuck, vec![0, 1], "quiet plan must not mask the deadlock");
}

#[test]
fn atomic_on_a_range_that_is_not_one_word_is_an_error_not_a_panic() {
    // Atomics operate on 8-byte words. A 4-byte fetch-add, on the
    // initiator's own word and on another rank's, is refused where it
    // would execute (at the owner for the remote one): the error names the
    // rank and the width, nothing is observed or written, and the
    // initiator still gets its reply.
    let own = GlobalAddr::public(0, 0).range(8);
    let other = GlobalAddr::public(1, 0).range(8);
    let narrow = |word: dsm::MemRange| GlobalAddr::public(word.addr.rank, 0).range(4);
    let programs = vec![
        ProgramBuilder::new(0)
            .local_write_u64(own, 5)
            .barrier()
            .fetch_add(narrow(own), 1, None)
            .fetch_add(narrow(other), 1, None)
            .build(),
        ProgramBuilder::new(1)
            .local_write_u64(other, 7)
            .barrier()
            .build(),
    ];
    let r = Engine::new(SimConfig::lockstep(2, 100), programs).run();
    assert!(r.stuck.is_empty(), "stuck processes: {:?}", r.stuck);
    assert_eq!(
        r.errors.len(),
        2,
        "one error per refused atomic: {:?}",
        r.errors
    );
    for (e, owner) in r.errors.iter().zip(["P0", "P1"]) {
        assert!(e.contains(owner) && e.contains("4-byte"), "{e}");
    }
    assert_eq!(r.read_u64(own), 5, "own word unchanged");
    assert_eq!(r.read_u64(other), 7, "remote word unchanged");
    assert!(r.trace.events.iter().all(|a| !a.atomic), "nothing observed");
}

#[test]
fn a_write_whose_data_differs_in_length_from_its_range_is_an_error_not_a_panic() {
    // A put of 3 immediate bytes into an 8-byte word, a put from a 16-byte
    // private source into an 8-byte word (remote, then the initiator's
    // own), a 2-byte local write into an 8-byte word, and a get of an
    // 8-byte word into a 16-byte range: each is refused where it would be
    // applied, with a typed error naming both lengths.
    // Nothing is written, and the initiator completes every instruction —
    // under detection too, where a put waits for its owner.
    let remote = GlobalAddr::public(1, 0).range(8);
    let own = GlobalAddr::public(0, 8).range(8);
    let wide = GlobalAddr::private(0, 0).range(16);
    let after = GlobalAddr::public(1, 16).range(8);
    for kind in [DetectorKind::Vanilla, DetectorKind::Dual] {
        let programs = vec![
            ProgramBuilder::new(0)
                .put_imm(vec![1, 2, 3], remote)
                .put(wide, remote)
                .put(wide, own)
                .local_write(own, vec![9, 9])
                .get(remote, wide)
                .put_u64(0xD0, after)
                .build(),
            Program::new(),
        ];
        let cfg = SimConfig::lockstep(2, 100).with_detector(kind);
        let r = Engine::new(cfg, programs).run();
        assert!(r.stuck.is_empty(), "{kind:?}: stuck {:?}", r.stuck);
        assert_eq!(r.errors.len(), 5, "{kind:?}: {:?}", r.errors);
        // Remote puts are applied when they arrive, after the local ones.
        let with = |len: &str| r.errors.iter().filter(|e| e.contains(len)).count();
        assert_eq!(with("(8 bytes long)"), 4, "{kind:?}: {:?}", r.errors);
        assert_eq!(with("(16 bytes long)"), 1, "{kind:?}: {:?}", r.errors);
        let lens = [
            with(" 3 bytes"),
            with("16 bytes w"),
            with(" 2 bytes"),
            with(" 8 bytes w"),
        ];
        assert_eq!(lens, [1, 2, 1, 1], "{kind:?}: {:?}", r.errors);
        assert_eq!(r.read_u64(remote), 0, "{kind:?}: remote word unchanged");
        assert_eq!(r.read_u64(own), 0, "{kind:?}: own word unchanged");
        assert_eq!(r.read_u64(after), 0xD0, "{kind:?}: the initiator went on");
        assert_eq!(r.op_latencies.len(), 6, "{kind:?}: every instruction ended");
        assert!(
            r.reports.is_empty(),
            "{kind:?}: a refused write is not observed"
        );
    }
}

#[test]
fn an_op_on_a_rank_outside_the_run_is_an_error_not_a_panic() {
    // A put, a get, an atomic, a lock and a local write, each naming rank
    // 5 of a 2-rank run: each is refused when its plan is built, with an
    // error naming the rank and the run's true size. Nothing is sent,
    // observed or written, and the initiator completes every instruction —
    // under detection too.
    let far = GlobalAddr::public(5, 0).range(8);
    let mine = GlobalAddr::private(0, 0).range(8);
    let after = GlobalAddr::public(1, 16).range(8);
    for kind in [DetectorKind::Vanilla, DetectorKind::Dual] {
        let programs = vec![
            ProgramBuilder::new(0)
                .put_u64(1, far)
                .get(far, mine)
                .fetch_add(far, 1, None)
                .lock(far)
                .local_write_u64(far, 2)
                .put_u64(0xD0, after)
                .build(),
            Program::new(),
        ];
        let cfg = SimConfig::lockstep(2, 100).with_detector(kind);
        let r = Engine::new(cfg, programs).run();
        assert!(r.stuck.is_empty(), "{kind:?}: stuck {:?}", r.stuck);
        assert_eq!(
            r.errors,
            vec!["P0: rank 5 out of range (n=2)"; 5],
            "{kind:?}"
        );
        assert_eq!(r.read_u64(after), 0xD0, "{kind:?}: the initiator went on");
        assert_eq!(r.op_latencies.len(), 6, "{kind:?}: every instruction ended");
        assert!(r.reports.is_empty(), "{kind:?}: nothing observed");
    }
}
