//! Distributed matrix–vector multiply — the PGAS "real application" the
//! paper's introduction motivates (UPC-style data-parallel code), built on
//! the `dsm` symmetric heap rather than hand-placed offsets: this is the
//! workload that exercises the allocator's compiler-role (§III-A data
//! placement / address resolution).
//!
//! Layout (all placement decided by [`dsm::SymmetricHeap`]):
//! * the input vector `x` (length `dim`) is **replicated**: a symmetric
//!   allocation at the same offset on every rank;
//! * matrix rows are distributed round-robin; each rank stores its rows in
//!   its own public segment;
//! * each output element `y[i]` lives with the rank that owns row `i`;
//!   after a barrier the root *gets* every `y[i]` (one-sided gather).
//!
//! Values are small integers so the expected result is exact:
//! `A[i][j] = i + j`, `x[j] = j + 1`, `y[i] = Σ_j (i+j)(j+1)`.
//!
//! Because the DSL has no arithmetic, each rank computes its rows' dot
//! products at *generation* time and the program writes the precomputed
//! result — the data movement, placement, synchronisation and detection
//! behaviour are exactly those of the real computation.

use dsm::{GlobalAddr, Placement, SymmetricHeap};

use crate::program::ProgramBuilder;

use super::Workload;

/// The matvec instance: programs plus the addresses the test needs to
/// verify results.
#[derive(Debug, Clone)]
pub struct MatVec {
    /// The workload.
    pub workload: Workload,
    /// Where each `y[i]` lives.
    pub y: Vec<dsm::MemRange>,
    /// Root-private gather slots (one per element).
    pub gathered: Vec<dsm::MemRange>,
    /// The expected `y` values.
    pub expected: Vec<u64>,
}

/// Expected `y[i] = Σ_j A[i][j] * x[j]` with `A[i][j] = i+j`, `x[j] = j+1`.
pub fn expected_y(dim: usize) -> Vec<u64> {
    (0..dim)
        .map(|i| (0..dim).map(|j| ((i + j) as u64) * ((j + 1) as u64)).sum())
        .collect()
}

/// Build the distributed multiply over `n` ranks and a `dim × dim` matrix.
///
/// # Panics
/// Panics if `dim == 0` or `n == 0`.
pub fn build(n: usize, dim: usize) -> MatVec {
    assert!(n > 0 && dim > 0);
    let mut heap = SymmetricHeap::new(n, 1 << 16);

    // Replicated x: same offset on every rank (SHMEM-style symmetric).
    #[expect(
        clippy::expect_used,
        reason = "workload fixture setup: the debugging-sized symmetric heap cannot be exhausted here; failure is a setup bug that should abort."
    )]
    let x = heap.alloc_symmetric(dim * 8, "x").expect("heap");
    // y distributed round-robin, one element per row owner.
    #[expect(
        clippy::expect_used,
        reason = "workload fixture setup (see the `x` allocation note)."
    )]
    let y = heap
        .alloc_array(dim, 8, Placement::RoundRobin, "y")
        .expect("heap");
    let expected = expected_y(dim);

    // Phase 3 targets: the root gathers y one-sidedly into private scratch.
    let gathered: Vec<dsm::MemRange> = (0..dim)
        .map(|i| GlobalAddr::private(0, 4096 + i * 8).range(8))
        .collect();

    let mut programs = Vec::with_capacity(n);
    for rank in 0..n {
        let mut b = ProgramBuilder::new(rank);
        // Phase 1: rank 0 initialises its local copy of x and broadcasts it
        // to every other rank's replica with one-sided puts.
        if rank == 0 {
            for j in 0..dim {
                let val = (j + 1) as u64;
                b = b.local_write_u64(x[0].addr.offset_by(j * 8).range(8), val);
            }
            for x_replica in x.iter().skip(1) {
                for j in 0..dim {
                    b = b.put_u64((j + 1) as u64, x_replica.addr.offset_by(j * 8).range(8));
                }
            }
        }
        b = b.barrier();
        // Phase 2: each rank reads its replica of x (local reads through
        // the race-checked path) and writes its rows' dot products.
        for (i, y_i) in y.iter().enumerate() {
            if y_i.addr.rank == rank {
                for j in 0..dim {
                    b = b.local_read(x[rank].addr.offset_by(j * 8).range(8));
                }
                b = b.compute(1_000).local_write_u64(*y_i, expected[i]);
            }
        }
        b = b.barrier();
        // Phase 3: the root gathers every y[i] one-sidedly (§V-B style —
        // no participation from the row owners).
        if rank == 0 {
            for (i, y_i) in y.iter().enumerate() {
                b = b.get(*y_i, gathered[i]);
            }
        }
        programs.push(b.build());
    }

    MatVec {
        workload: Workload {
            name: format!("matvec({n}p,{dim}d)"),
            n,
            programs,
            truth: None,
        },
        y,
        gathered,
        expected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_values() {
        // dim=2: y0 = 0*1 + 1*2 = 2; y1 = 1*1 + 2*2 = 5.
        assert_eq!(expected_y(2), vec![2, 5]);
    }

    #[test]
    fn shapes() {
        let mv = build(3, 4);
        assert_eq!(mv.workload.n, 3);
        assert_eq!(mv.y.len(), 4);
        // Round-robin placement spreads y across ranks.
        let ranks: std::collections::HashSet<_> = mv.y.iter().map(|r| r.addr.rank).collect();
        assert_eq!(ranks.len(), 3);
    }
}
