//! The detection protocol on the wire (Algorithms 1–2 as messages): a
//! detected access whose footprint is one remote area is **two messages**
//! — the data request carrying the detection header, and the reply
//! carrying the clocks — with the critical section (lock, `get_clock`,
//! access, `update_clock`, unlock) run by the owner's NIC. Ops that lock
//! two public areas keep explicit canonical-order lock messages. Each test
//! pins one property of that protocol.

use dsm::{GlobalAddr, MemRange};
use netsim::{FaultSpec, OpClass};
use race_core::DetectorKind;
use simulator::engine::InstrClass;
use simulator::workloads::{master_worker, random_access};
use simulator::{Engine, Program, ProgramBuilder, RunResult, SimConfig};

fn run(cfg: SimConfig, programs: Vec<Program>) -> RunResult {
    let r = Engine::new(cfg, programs).run();
    assert!(r.errors.is_empty(), "engine errors: {:?}", r.errors);
    assert!(r.stuck.is_empty(), "stuck processes: {:?}", r.stuck);
    r
}

fn public(rank: usize, offset: usize) -> MemRange {
    GlobalAddr::public(rank, offset).range(8)
}

fn private(rank: usize, offset: usize) -> MemRange {
    GlobalAddr::private(rank, offset).range(8)
}

/// Per-class message counts of a one-instruction program run by P0 against
/// P1's memory under the dual-clock detector.
fn budget(program: Program) -> RunResult {
    let cfg = SimConfig::lockstep(2, 100).with_detector(DetectorKind::Dual);
    run(cfg, vec![program, Program::new()])
}

// (i) ----------------------------------------------------------------------

#[test]
fn a_detected_remote_access_is_two_messages_and_no_lock_message() {
    let a = public(1, 0);

    // Put, immediate source: PutData + its ack.
    let r = budget(ProgramBuilder::new(0).put_u64(7, a).build());
    assert_eq!(r.stats.msgs(OpClass::PutData), 1);
    assert_eq!(r.stats.msgs(OpClass::Clock), 1, "the PutAck");
    assert_eq!(r.stats.total_msgs(), 2);
    assert_eq!(r.read_u64(a), 7);

    // Put, private source range: the same two.
    let r = budget(ProgramBuilder::new(0).put(private(0, 0), a).build());
    assert_eq!(r.stats.msgs(OpClass::PutData), 1);
    assert_eq!(r.stats.msgs(OpClass::Clock), 1);
    assert_eq!(r.stats.total_msgs(), 2);

    // Get into private memory: request + reply, nothing else.
    let r = budget(ProgramBuilder::new(0).get(a, private(0, 0)).build());
    assert_eq!(r.stats.msgs(OpClass::GetRequest), 1);
    assert_eq!(r.stats.msgs(OpClass::GetReply), 1);
    assert_eq!(r.stats.msgs(OpClass::Clock), 0);
    assert_eq!(r.stats.total_msgs(), 2);
    assert!(
        r.stats.detection_bytes() > 0,
        "the clocks ride on the get's own two messages"
    );

    // Atomic: request + reply.
    let r = budget(
        ProgramBuilder::new(0)
            .fetch_add(a, 1, Some(private(0, 0)))
            .build(),
    );
    assert_eq!(r.stats.msgs(OpClass::Atomic), 2);
    assert_eq!(r.stats.total_msgs(), 2);
    assert!(r.stats.detection_bytes() > 0);

    // A whole workload of immediate puts: exactly one ack per put and no
    // lock traffic at all.
    let w = master_worker::slotted(6, 3);
    let r = run(SimConfig::debugging(w.n), w.programs);
    assert_eq!(r.stats.msgs(OpClass::Lock), 0);
    assert_eq!(
        r.stats.msgs(OpClass::Clock),
        r.stats.msgs(OpClass::PutData),
        "one ack per put"
    );
}

// (ii) ---------------------------------------------------------------------

#[test]
fn symmetric_public_to_public_puts_keep_canonical_lock_order() {
    // P0 puts from its own public area into P1's while P1 puts from its own
    // into P0's: each op locks two areas, one of them remote. Were these
    // fused, each rank would hold its local lock while its request queued
    // on the other's — a deadlock. They keep explicit locks instead, both
    // ranks taking (rank 0's area, then rank 1's area), and still pay no
    // clock message: request + grant + data + ack + release per op.
    let a0 = public(0, 0);
    let a1 = public(1, 0);
    let rounds = 6u64;
    let program = |rank: usize, head_start: u64, own: MemRange, other: MemRange| {
        let mut b = ProgramBuilder::new(rank)
            .local_write_u64(own, 100 + rank as u64)
            .compute(head_start);
        for _ in 0..rounds {
            b = b.put(own, other);
        }
        b.build()
    };
    for seed in 1..=24u64 {
        // Jittered latencies, and a head start that alternates between the
        // ranks, so either side's requests reach the other's table first.
        let programs = vec![
            program(0, 300 * (seed % 2), a0, a1),
            program(1, 300 * ((seed + 1) % 2), a1, a0),
        ];
        let r = run(SimConfig::debugging(2).with_seed(seed), programs);
        let ops = 2 * rounds;
        assert_eq!(r.stats.msgs(OpClass::PutData), ops, "seed {seed}");
        assert_eq!(r.stats.msgs(OpClass::Clock), ops, "seed {seed}: acks only");
        assert_eq!(
            r.stats.msgs(OpClass::Lock),
            3 * ops,
            "seed {seed}: one remote lock (request, grant, release) per op"
        );
        // Each word ends holding a value its peer's area held.
        for word in [a0, a1] {
            assert!([100, 101].contains(&r.read_u64(word)), "seed {seed}");
        }
    }
}

// (iii) --------------------------------------------------------------------

#[test]
fn a_fused_request_waits_for_a_program_lock_and_draws_no_report() {
    // P0 holds the program lock on P2's word for 50 µs without touching it.
    // P1's fused request arrives ~6 µs in: the owner's NIC queues it on the
    // area lock exactly as it would a LockRequest, and serves it only after
    // P0's unlock. One access to the word, so nothing to report.
    let a = public(2, 0);
    let hold = 50_000;
    let holder = ProgramBuilder::new(0)
        .lock(a)
        .compute(hold)
        .unlock(a)
        .build();
    let requests: [(Program, InstrClass); 3] = [
        (
            ProgramBuilder::new(1).compute(5_000).put_u64(9, a).build(),
            InstrClass::Put,
        ),
        (
            ProgramBuilder::new(1)
                .compute(5_000)
                .get(a, private(1, 0))
                .build(),
            InstrClass::Get,
        ),
        (
            ProgramBuilder::new(1)
                .compute(5_000)
                .fetch_add(a, 1, None)
                .build(),
            InstrClass::Atomic,
        ),
    ];
    for (request, class) in requests {
        let programs = vec![holder.clone(), request, Program::new()];
        let r = run(SimConfig::lockstep(3, 1_000), programs);
        let latency = r
            .op_latencies
            .iter()
            .find(|(c, _)| *c == class)
            .map(|&(_, ns)| ns)
            .expect("the request completed");
        assert!(
            latency >= hold - 10_000,
            "{class:?} served before the unlock: {latency} ns"
        );
        assert!(r.deduped().is_empty(), "{class:?}: {:?}", r.deduped());
        assert_eq!(
            r.stats.msgs(OpClass::Lock),
            3,
            "{class:?}: only P0's program lock is on the wire"
        );
    }
    // The queued put was applied (and acked) after the unlock.
    let programs = vec![
        holder,
        ProgramBuilder::new(1).compute(5_000).put_u64(9, a).build(),
        Program::new(),
    ];
    let r = run(SimConfig::lockstep(3, 1_000), programs);
    assert_eq!(r.read_u64(a), 9);
    assert!(r.put_apply_delays[0] >= hold - 10_000);
}

// (iv) ---------------------------------------------------------------------

#[test]
fn fig3_deferral_holds_under_detection_and_the_lock_is_released_after() {
    // Fig 3 with the detector on. P2's get of a large block is served at
    // once — its lock released when the reply leaves — and the reply then
    // occupies the wire. P0's put reaches the owner inside that window: the
    // NIC takes the area lock for it, RdmaEngine defers it, and the lock
    // stays held until the get ends. Then the put is applied, acked, and
    // its lock released — which P0's *second* put to the same word proves,
    // since it can be issued only after the ack and served only if the
    // lock is free.
    let block = 1 << 20;
    let word = GlobalAddr::public(1, 0).range(8);
    let area = GlobalAddr::public(1, 0).range(block);
    let putter = ProgramBuilder::new(0)
        .compute(2_000)
        .put_imm(vec![0xFF; 8], word)
        .put_imm(vec![0xEE; 8], word)
        .build();
    let getter = ProgramBuilder::new(2)
        .get(area, GlobalAddr::private(2, 0).range(block))
        .build();
    let mut cfg = SimConfig::lockstep(3, 1_000).with_detector(DetectorKind::Dual);
    cfg.latency = simulator::LatencySpec::InfiniBand;
    cfg.public_len = block;
    cfg.private_len = block;

    let r = run(
        cfg.clone(),
        vec![putter.clone(), Program::new(), getter.clone()],
    );
    let alone = run(cfg, vec![putter, Program::new(), Program::new()]);
    assert_eq!(r.put_apply_delays.len(), 2);
    assert!(
        r.put_apply_delays[0] > 10 * alone.put_apply_delays[0],
        "first put deferred behind the get: {} ns vs {} ns alone",
        r.put_apply_delays[0],
        alone.put_apply_delays[0]
    );
    assert!(
        r.put_apply_delays[1] < 2 * alone.put_apply_delays[1],
        "second put found the lock free: {} ns vs {} ns alone",
        r.put_apply_delays[1],
        alone.put_apply_delays[1]
    );
    // The get read the block before either put landed; the word ends at
    // the second put's value.
    assert_eq!(r.memories[2].read(&private(2, 0), 2).unwrap(), vec![0; 8]);
    assert_eq!(r.memories[1].read(&word, 1).unwrap(), vec![0xEE; 8]);
    // Two acks, and the get's two messages: nobody sent a lock message.
    assert_eq!(r.stats.msgs(OpClass::Clock), 2);
    assert_eq!(r.stats.msgs(OpClass::Lock), 0);
    // The put really does race with the get (a true WR race, reported).
    assert!(!r.deduped().is_empty());
}

// (v) ----------------------------------------------------------------------

#[test]
fn a_duplicated_request_is_never_served_twice() {
    // Every message delivered twice. The second copy of a fused request
    // must not take the lock, touch memory or reach the detector again: the
    // trace holds every access exactly once, as in the clean run, and the
    // atomics still count exactly.
    let counter = public(0, 4096);
    let w = random_access::generate(random_access::RandomSpec {
        n: 4,
        ops_per_rank: 24,
        hot_words: 4,
        p_write: 0.5,
        locked: false,
        seed: 11,
    });
    let mut programs = w.programs;
    for (rank, p) in programs.iter_mut().enumerate().skip(1) {
        let mut b = ProgramBuilder::new(rank);
        for instr in p.iter() {
            b = b.push(instr.clone());
        }
        *p = b.fetch_add(counter, 1, None).build();
    }
    let clean = run(SimConfig::debugging(4), programs.clone());
    let spec = FaultSpec {
        duplicate: 1.0,
        ..Default::default()
    };
    let dup = Engine::new(SimConfig::debugging(4).with_faults(spec), programs).run();
    assert!(dup.stats.injected_duplicates() > 0);
    assert!(dup.stuck.is_empty(), "{:?}", dup.stuck);
    let mut ids: Vec<u64> = dup.trace.events.iter().map(|e| e.id).collect();
    let total = ids.len();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), total, "an access was observed twice");
    assert_eq!(total, clean.trace.events.len());
    assert_eq!(dup.read_u64(counter), 3, "each atomic applied once");
    assert!(
        dup.errors.iter().any(|e| e.contains("duplicate request")),
        "the refusals are signalled: {:?}",
        dup.errors
    );
}

#[test]
fn lossy_plans_unwedge_the_waits_of_the_fused_protocol() {
    // Every message lost: P0's put never gets its ack — a wait the old
    // fire-and-forget put did not have — and the get and the atomic never
    // get their replies. The bounded-wait degrade must know all three.
    let a = public(1, 0);
    let spec = FaultSpec {
        drop: 1.0,
        ..Default::default()
    };
    let programs = vec![
        ProgramBuilder::new(0)
            .put_u64(1, a)
            .get(a, private(0, 0))
            .fetch_add(a, 1, None)
            .build(),
        Program::new(),
    ];
    let r = Engine::new(SimConfig::lockstep(2, 100).with_faults(spec), programs).run();
    assert!(r.stuck.is_empty(), "{:?}", r.stuck);
    assert!(r.summary.degraded);
    for wait in ["put data", "get data", "atomic"] {
        assert!(
            r.errors
                .iter()
                .any(|e| e.contains(&format!("wedged at {wait} under lossy delivery"))),
            "no recovery from the {wait} wait: {:?}",
            r.errors
        );
    }

    // Partial loss over whole workloads, many seeds: always completes.
    for seed in 1..=12u64 {
        let w = random_access::generate(random_access::RandomSpec {
            n: 4,
            ops_per_rank: 16,
            hot_words: 4,
            p_write: 0.5,
            locked: seed % 2 == 0,
            seed,
        });
        let spec = FaultSpec {
            drop: 0.15,
            duplicate: 0.15,
            ..Default::default()
        };
        let cfg = SimConfig::debugging(w.n).with_seed(seed).with_faults(spec);
        let r = Engine::new(cfg, w.programs).run();
        assert!(r.stuck.is_empty(), "seed {seed}: {:?}", r.stuck);
        assert!(r.summary.degraded);
    }
}
