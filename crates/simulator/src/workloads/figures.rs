//! The paper's own figures as executable scenarios.
//!
//! Offsets are fixed by hand (the scenarios predate the allocator): variable
//! `a` of the figures lives at offset 0 of its owner's public segment,
//! auxiliary variables at offsets 64, 128, … (one cache line apart so
//! word-granularity and line-granularity detection agree on the stories).

use dsm::GlobalAddr;

use crate::program::ProgramBuilder;

use super::Workload;

/// Variable `a` of the figures: 8 bytes at offset `slot * 64` of `owner`'s
/// public segment.
fn var(owner: usize, slot: usize) -> dsm::MemRange {
    GlobalAddr::public(owner, slot * 64).range(8)
}

fn scratch(rank: usize, slot: usize) -> dsm::MemRange {
    GlobalAddr::private(rank, slot * 64).range(8)
}

/// Fig 1: the memory-organisation exercise — three processes, a remote get
/// and two remote puts across the global address space. Not a race story;
/// the test asserts data lands where the figure says.
pub fn fig1() -> Workload {
    let a = var(1, 0); // P1's public word
    let b = var(2, 0); // P2's public word
    Workload {
        name: "fig1-model".into(),
        n: 3,
        programs: vec![
            // P0 gets from P1's public memory into its own private memory
            // (after the value is surely there — simple time separation).
            ProgramBuilder::new(0)
                .compute(100_000)
                .get(a, scratch(0, 0))
                .build(),
            // P1 initialises its public word.
            ProgramBuilder::new(1).local_write_u64(a, 0xA1).build(),
            // P2 puts into P1's neighbour word and its own public word.
            ProgramBuilder::new(2)
                .put_u64(0xC2, var(1, 1))
                .put_u64(0xD2, b)
                .build(),
        ],
        truth: None,
    }
}

/// Fig 2 / FIG2: single put and single get between two fixed processes, for
/// message counting (put = 1 message, get = 2 messages).
pub fn fig2() -> Workload {
    let a = var(1, 0);
    Workload {
        name: "fig2-msgcount".into(),
        n: 3,
        programs: vec![
            ProgramBuilder::new(0).build(),
            ProgramBuilder::new(1).build(),
            ProgramBuilder::new(2)
                .put_u64(7, a)
                .get(a, scratch(2, 0))
                .build(),
        ],
        truth: None,
    }
}

/// Fig 3: P2 gets a large block from P1 while P0 puts into the same block.
/// The put must be applied only after the get completes; the test measures
/// the put's send→apply delay. `block` bytes control how long the get's
/// reply occupies the wire.
pub fn fig3(block: usize) -> Workload {
    let area = GlobalAddr::public(1, 0).range(block);
    Workload {
        name: "fig3-delayed-put".into(),
        n: 3,
        programs: vec![
            // P0 fires a small put while the get is in flight (the compute
            // delay places the PutData arrival inside the get window, which
            // lasts as long as the large reply occupies the wire).
            ProgramBuilder::new(0)
                .compute(2_000)
                .put_imm(vec![0xFF; 8], GlobalAddr::public(1, 0).range(8))
                .build(),
            ProgramBuilder::new(1).build(),
            // P2 gets the whole block into private memory.
            ProgramBuilder::new(2)
                .get(area, GlobalAddr::private(2, 0).range(block))
                .build(),
        ],
        truth: None,
    }
}

/// Fig 4: `a = A` at P1 strictly before (barrier) two concurrent remote
/// gets by P0 and P2. No write is concurrent with anything: **not** a race.
/// The dual-clock detector must stay silent; the single-clock baseline
/// reports the concurrent reads.
pub fn fig4() -> Workload {
    let a = var(1, 0);
    Workload {
        name: "fig4-concurrent-gets".into(),
        n: 3,
        programs: vec![
            ProgramBuilder::new(0)
                .barrier()
                .get(a, scratch(0, 0))
                .build(),
            ProgramBuilder::new(1)
                .local_write_u64(a, 0xAA)
                .barrier()
                .build(),
            ProgramBuilder::new(2)
                .barrier()
                .get(a, scratch(2, 0))
                .build(),
        ],
        truth: None,
    }
}

/// Fig 5a: P0 and P2 put to the same word of P1's memory with no ordering —
/// a write-write race in every schedule (clocks `110 × 001`).
pub fn fig5a() -> Workload {
    let a = var(1, 0);
    Workload {
        name: "fig5a-concurrent-puts".into(),
        n: 3,
        programs: vec![
            ProgramBuilder::new(0).put_u64(1, a).build(),
            ProgramBuilder::new(1).build(),
            ProgramBuilder::new(2).put_u64(2, a).build(),
        ],
        truth: None,
    }
}

/// Fig 5b: a causal chain with no race. P0 writes `x` (ordered before
/// everything by a barrier); P1 gets `x` — absorbing P0's write clock —
/// and forwards into P2's `b` under `b`'s NIC lock; P2 reads `b` under the
/// same lock (lock hand-off = causal order) and finally puts back into `x`.
/// The final put is ordered behind P0's original write purely through the
/// get/put chain (the paper's m1 → m3 ordering), so the detector must stay
/// silent on the `x` area.
pub fn fig5b() -> Workload {
    let x = var(0, 0);
    let b = var(2, 0);
    Workload {
        name: "fig5b-causal-chain".into(),
        n: 3,
        programs: vec![
            ProgramBuilder::new(0)
                .local_write_u64(x, 5)
                .barrier()
                .build(),
            ProgramBuilder::new(1)
                .barrier()
                .get(x, scratch(1, 0))
                .lock(b)
                .put_u64(6, b)
                .unlock(b)
                .build(),
            ProgramBuilder::new(2)
                .barrier()
                .compute(300_000)
                .lock(b)
                .local_read(b)
                .unlock(b)
                .put_u64(7, x)
                .build(),
        ],
        truth: None,
    }
}

/// Fig 5c: four processes. P0 puts `m1` into P1's `a`, then puts `m2` into
/// P2's `b`; P2 (after reading `b`) puts `m3` into P3's `c`; P3 (after
/// reading `c`) puts `m4` into P1's `a`.
///
/// By standard vector-clock semantics m1 happens-before m4 (P0's program
/// order chains through m2/m3), so the corrected detector finds **no
/// write-write race on `a`** — the X in the paper's figure only appears
/// under the printed strict `<` comparison of Algorithm 3 (see
/// `vclock::literal_less` and experiment ABL-lit). The unsynchronised
/// relay reads in the middle of the chain (`b`, `c`) do race with the puts
/// that feed them, so whether the run races depends on the schedule; the
/// FIG5c test asserts the precise property instead: zero WW reports on
/// `a`'s area.
pub fn fig5c() -> Workload {
    let a = var(1, 0);
    let b = var(2, 0);
    let c = var(3, 0);
    Workload {
        name: "fig5c-chain".into(),
        n: 4,
        programs: vec![
            ProgramBuilder::new(0).put_u64(1, a).put_u64(2, b).build(),
            ProgramBuilder::new(1).build(),
            ProgramBuilder::new(2)
                .compute(100_000)
                .local_read(b)
                .put_u64(3, c)
                .build(),
            ProgramBuilder::new(3)
                .compute(300_000)
                .local_read(c)
                .put_u64(4, a)
                .build(),
        ],
        truth: None,
    }
}

/// Variant of Fig 5c where P0's two puts are issued by *different*
/// processes (P0 writes `a`, **P4** starts the chain): now m1 and m4 are
/// genuinely concurrent and every schedule has a WW race on `a`.
pub fn fig5c_racy() -> Workload {
    let a = var(1, 0);
    let b = var(2, 0);
    let c = var(3, 0);
    Workload {
        name: "fig5c-racy-variant".into(),
        n: 5,
        programs: vec![
            ProgramBuilder::new(0).put_u64(1, a).build(),
            ProgramBuilder::new(1).build(),
            ProgramBuilder::new(2)
                .compute(100_000)
                .local_read(b)
                .put_u64(3, c)
                .build(),
            ProgramBuilder::new(3)
                .compute(300_000)
                .local_read(c)
                .put_u64(4, a)
                .build(),
            ProgramBuilder::new(4).put_u64(2, b).build(),
        ],
        truth: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes() {
        assert_eq!(fig1().n, 3);
        assert_eq!(fig2().programs[2].data_ops(), 2);
        assert_eq!(fig4().n, 3);
        assert_eq!(fig5a().data_ops(), 2);
        assert_eq!(fig5c().n, 4);
        assert_eq!(fig5c_racy().n, 5);
        assert!(fig3(4096).programs[2].data_ops() > 0);
    }
}
