//! Overhead experiments (index SEC4C, SEC4D-mem, SEC5A in DESIGN.md): the
//! paper's quantified claims about clock size, memory doubling, and the
//! runtime cost of detection at debugging scale.

use coherent_dsm::prelude::*;
use coherent_dsm::vclock::{MatrixClock, SparseClock, VectorClock};
use simulator::workloads::{master_worker, random_access};

/// SEC4C — "the size of the vector clocks must be at least n": the dense
/// encodings grow linearly (vector) and quadratically (matrix) with n.
#[test]
fn clock_sizes_grow_with_n() {
    let mut prev_vec = 0;
    let mut prev_mat = 0;
    for n in [2usize, 4, 8, 16, 32, 64] {
        let v = VectorClock::zero(n).dense_wire_size();
        let m = MatrixClock::zero(0, n).dense_size_bytes();
        assert_eq!(v, n * 8);
        assert_eq!(m, n * n * 8);
        assert!(v > prev_vec && m > prev_mat);
        prev_vec = v;
        prev_mat = m;
    }
}

/// SEC4C — the lower bound is a worst case: with few active writers a
/// sparse clock undercuts the dense encoding, but as every process touches
/// the data the sparse representation converges to ≥ n entries (Charron-
/// Bost: it cannot stay below n in general).
#[test]
fn sparse_clocks_help_only_when_few_processes_touch_data() {
    let n = 64;
    // 3 active writers out of 64.
    let mut dense = VectorClock::zero(n);
    for rank in [1usize, 7, 30] {
        dense.set(rank, 5);
    }
    let sparse = SparseClock::from_dense(&dense);
    assert!(sparse.sparse_wire_size() < dense.dense_wire_size());

    // All 64 active: sparse is no longer smaller.
    let mut all = VectorClock::zero(n);
    for rank in 0..n {
        all.set(rank, 1);
    }
    let sparse_all = SparseClock::from_dense(&all);
    assert!(sparse_all.sparse_wire_size() >= all.dense_wire_size());
}

/// SEC4C — detection traffic per operation grows with n (the request
/// carries the initiator's n-component clock, the reply the area's 2n).
#[test]
fn clock_traffic_grows_linearly_with_n() {
    let mut bytes_per_op = Vec::new();
    for n in [2usize, 4, 8, 16] {
        let dst = GlobalAddr::public(1, 0).range(8);
        let programs: Vec<Program> = (0..n)
            .map(|r| {
                if r == 0 {
                    ProgramBuilder::new(0).put_u64(1, dst).build()
                } else {
                    Program::new()
                }
            })
            .collect();
        let r = Engine::new(SimConfig::lockstep(n, 100), programs).run();
        bytes_per_op.push((n, r.stats.bytes(OpClass::Clock)));
    }
    for w in bytes_per_op.windows(2) {
        assert!(
            w[1].1 > w[0].1,
            "clock bytes must grow with n: {bytes_per_op:?}"
        );
    }
    // Exactly affine. The one remote access is two messages: `PutData`
    // carrying the detection header (one word of flags + the initiator's
    // clock, n u64 components) and the `PutAck` carrying the area's V and W
    // (2n components) → 3n u64 = 24n bytes of clock payload. The fixed part
    // is the header word (8) plus the ack itself (32-byte network header +
    // 8-byte token), which is detection traffic whole: 48 bytes.
    for &(n, bytes) in &bytes_per_op {
        assert_eq!(
            bytes as usize,
            48 + 24 * n,
            "clock bytes are 48 + 3×8 per component: {bytes_per_op:?}"
        );
    }
    for w in bytes_per_op.windows(2) {
        let ((n0, b0), (n1, b1)) = (w[0], w[1]);
        assert_eq!(
            (b1 - b0) as usize,
            24 * (n1 - n0),
            "clock payload slope is 3×8 bytes per component: {bytes_per_op:?}"
        );
    }
}

/// SEC4D-mem — "the drawback of this approach is that it doubles the
/// necessary amount of memory": dual store = 2 × single store, and the
/// total is proportional to touched areas × n.
#[test]
fn dual_clock_memory_is_double_single() {
    let w = random_access::generate(random_access::RandomSpec {
        n: 6,
        ops_per_rank: 20,
        hot_words: 12,
        p_write: 0.5,
        locked: false,
        seed: 42,
    });
    let dual = Engine::new(
        SimConfig::debugging(w.n).with_detector(DetectorKind::Dual),
        w.programs.clone(),
    )
    .run();
    let single = Engine::new(
        SimConfig::debugging(w.n).with_detector(DetectorKind::Single),
        w.programs.clone(),
    )
    .run();
    assert!(dual.clock_memory_bytes > 0);
    assert_eq!(dual.clock_memory_bytes, 2 * single.clock_memory_bytes);
}

/// SEC5A — detection overhead: messages and bytes versus the vanilla run
/// on the §IV-D master-worker pattern at debugging scale (~10 processes,
/// as the paper suggests). Detection adds one message per put (its
/// `PutAck`, classed `Clock`) and none per get, plus explicit lock
/// messages for the ops that lock two areas — and never changes the data
/// plane.
#[test]
fn detection_overhead_at_debugging_scale() {
    let w = master_worker::racy(9, 2); // 10 processes total
    let vanilla = Engine::new(
        SimConfig::debugging(w.n).with_detector(DetectorKind::Vanilla),
        w.programs.clone(),
    )
    .run();
    let dual = Engine::new(
        SimConfig::debugging(w.n).with_detector(DetectorKind::Dual),
        w.programs.clone(),
    )
    .run();

    // Data plane identical.
    assert_eq!(
        vanilla.stats.msgs(OpClass::PutData),
        dual.stats.msgs(OpClass::PutData)
    );
    // Overhead exists and every added message is attributed by class: the
    // put acks (`Clock`) and the explicit locks (`Lock`).
    assert!(dual.stats.total_msgs() > vanilla.stats.total_msgs());
    let added = dual.stats.total_msgs() - vanilla.stats.total_msgs();
    assert_eq!(
        added,
        dual.stats.msgs(OpClass::Clock) + dual.stats.msgs(OpClass::Lock)
    );
    // Every put of this workload is an immediate into one remote area, so
    // each is fused: one ack per put and no lock message — two messages
    // per detected access, where the initiator-driven protocol paid eight.
    assert_eq!(
        dual.stats.msgs(OpClass::Clock),
        dual.stats.msgs(OpClass::PutData)
    );
    assert_eq!(dual.stats.msgs(OpClass::Lock), 0);
    // The clocks still cost bytes (§V-A), now piggy-backed.
    assert_eq!(vanilla.stats.detection_bytes(), 0);
    assert!(dual.stats.detection_bytes() > 0);
    // Virtual completion time grows but stays within an order of magnitude
    // (debugging-tolerable, per §V-A).
    assert!(dual.virtual_time >= vanilla.virtual_time);
    assert!(
        dual.virtual_time.as_ns() < 50 * vanilla.virtual_time.as_ns().max(1),
        "overhead should not explode: {} vs {}",
        dual.virtual_time,
        vanilla.virtual_time
    );
}

/// SEC5A — overhead grows with n in messages, supporting the paper's
/// "debug small" advice.
#[test]
fn overhead_scales_with_process_count() {
    let mut added_msgs = Vec::new();
    for workers in [2usize, 4, 8] {
        let w = master_worker::racy(workers, 1);
        let vanilla = Engine::new(
            SimConfig::debugging(w.n).with_detector(DetectorKind::Vanilla),
            w.programs.clone(),
        )
        .run();
        let dual = Engine::new(SimConfig::debugging(w.n), w.programs.clone()).run();
        added_msgs.push(dual.stats.total_msgs() - vanilla.stats.total_msgs());
    }
    assert!(
        added_msgs[0] < added_msgs[1] && added_msgs[1] < added_msgs[2],
        "detection traffic grows with scale: {added_msgs:?}"
    );
}

/// §IV-B末 — "since the shared memory area is locked, there cannot exist a
/// race condition between the remote memory accesses induced by the race
/// condition detection mechanism": the detection machinery's own traffic
/// never produces reports (runs on race-free programs stay silent even
/// though detection adds many messages).
#[test]
fn detection_machinery_does_not_race_with_itself() {
    let w = master_worker::slotted(6, 3);
    let r = Engine::new(SimConfig::debugging(w.n), w.programs).run();
    assert!(r.stats.msgs(OpClass::Clock) > 0, "machinery was active");
    assert!(r.deduped().is_empty(), "{:?}", r.deduped());
}
