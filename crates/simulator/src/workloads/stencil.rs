//! 1-D halo exchange — the PGAS workload the paper's intro motivates
//! (UPC-style data-parallel codes pushing boundary cells to neighbours).
//!
//! Each rank owns a row of `cells` u64 cells in its public segment plus two
//! halo words (left at offset 0, right at offset 8; the row starts at 16).
//! One iteration: every rank **puts** its boundary cells into its
//! neighbours' halo words, then reads its halos and "computes".
//!
//! * [`with_barrier`] — a barrier separates the put phase from the read
//!   phase of the next iteration: race-free.
//! * [`missing_barrier`] — the classic bug: no separation, so a neighbour's
//!   iteration-`k+1` put can land while the rank still reads its
//!   iteration-`k` halo. Schedule-dependent read-write races.

use dsm::GlobalAddr;

use crate::program::ProgramBuilder;

use super::Workload;

fn halo_left(rank: usize) -> dsm::MemRange {
    GlobalAddr::public(rank, 0).range(8)
}

fn halo_right(rank: usize) -> dsm::MemRange {
    GlobalAddr::public(rank, 8).range(8)
}

fn row_word(rank: usize, i: usize) -> dsm::MemRange {
    GlobalAddr::public(rank, 16 + 8 * i).range(8)
}

fn build(n: usize, cells: usize, iters: usize, barrier: bool) -> Workload {
    assert!(n >= 2, "stencil needs at least two ranks");
    assert!(cells >= 1);
    let mut programs = Vec::with_capacity(n);
    for rank in 0..n {
        let left = (rank + n - 1) % n;
        let right = (rank + 1) % n;
        let mut b = ProgramBuilder::new(rank);
        // Initialise own row.
        for i in 0..cells {
            b = b.local_write_u64(row_word(rank, i), (rank * 100 + i) as u64);
        }
        b = b.barrier();
        for it in 0..iters {
            // Push boundary cells into neighbours' halos.
            b = b
                .get(row_word(rank, 0), GlobalAddr::private(rank, 0).range(8))
                .put_u64((rank * 100 + it) as u64, halo_right(left))
                .put_u64((rank * 100 + it + 1) as u64, halo_left(right));
            if barrier {
                b = b.barrier();
            }
            // Read own halos and the boundary of the row; "compute".
            b = b
                .local_read(halo_left(rank))
                .local_read(halo_right(rank))
                .compute(2_000);
            if barrier {
                b = b.barrier();
            }
        }
        programs.push(b.build());
    }
    Workload {
        name: format!(
            "stencil-{}({n}p,{cells}c,{iters}i)",
            if barrier { "sync" } else { "racy" }
        ),
        n,
        programs,
        truth: None,
    }
}

/// Properly synchronised halo exchange (race-free).
pub fn with_barrier(n: usize, cells: usize, iters: usize) -> Workload {
    build(n, cells, iters, true)
}

/// Halo exchange with the barrier omitted (schedule-dependent races).
pub fn missing_barrier(n: usize, cells: usize, iters: usize) -> Workload {
    build(n, cells, iters, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes() {
        let w = with_barrier(4, 4, 2);
        assert_eq!(w.n, 4);
        assert_eq!(w.programs.len(), 4);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn needs_two_ranks() {
        with_barrier(1, 4, 1);
    }
}
