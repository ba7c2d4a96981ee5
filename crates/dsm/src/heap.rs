//! Symmetric-heap allocation and data placement.
//!
//! §III-A: "The compiler is in charge with data locality, i.e., putting
//! shared data in the public memory of processors. … The compiler also makes
//! the address resolution when the programmer asks a processor to access
//! this shared data." We have no compiler, so this allocator plays that
//! role explicitly: it hands out public-segment addresses under a placement
//! policy and records an allocation id per area (which the race detector
//! uses as its default clock granularity).

use crate::addr::{GlobalAddr, MemRange};
use crate::error::DsmError;
use crate::Rank;

/// Data placement policies — the "compiler decides to put it into the
/// memory of a processor P" step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Place everything on a fixed rank.
    Owner(Rank),
    /// Spread consecutive allocations across ranks round-robin.
    RoundRobin,
    /// Distribute an array in contiguous blocks of `block` elements per
    /// rank, cycling (UPC-style block-cyclic layout).
    BlockCyclic {
        /// Elements per block.
        block: usize,
    },
}

/// One named allocation in the global address space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    /// Dense allocation id (the detector's default area id).
    pub id: usize,
    /// The bytes this allocation owns.
    pub range: MemRange,
    /// Optional debug label.
    pub label: String,
}

/// A bump allocator over every rank's public segment.
///
/// "Symmetric" in the SHMEM sense: [`SymmetricHeap::alloc_symmetric`]
/// reserves the *same offset on every rank*, which is how SHMEM programs
/// name remote objects.
#[derive(Debug, Clone)]
pub struct SymmetricHeap {
    n: usize,
    capacity: usize,
    next_free: Vec<usize>,
    rr_cursor: usize,
    allocations: Vec<Allocation>,
}

impl SymmetricHeap {
    /// A heap over `n` ranks, each with `capacity` bytes of public memory.
    pub fn new(n: usize, capacity: usize) -> Self {
        SymmetricHeap {
            n,
            capacity,
            next_free: vec![0; n],
            rr_cursor: 0,
            allocations: Vec::new(),
        }
    }

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bytes still free on `rank`.
    pub fn free_on(&self, rank: Rank) -> usize {
        self.capacity - self.next_free[rank]
    }

    fn bump(&mut self, rank: Rank, len: usize, align: usize) -> Result<usize, DsmError> {
        debug_assert!(align.is_power_of_two());
        let base = (self.next_free[rank] + align - 1) & !(align - 1);
        if base + len > self.capacity {
            return Err(DsmError::HeapExhausted {
                requested: len,
                available: self.capacity.saturating_sub(base),
            });
        }
        self.next_free[rank] = base + len;
        Ok(base)
    }

    /// Allocate `len` bytes on a specific rank, 8-byte aligned.
    pub fn alloc_on(&mut self, rank: Rank, len: usize, label: &str) -> Result<MemRange, DsmError> {
        if rank >= self.n {
            return Err(DsmError::BadRank { rank, n: self.n });
        }
        let offset = self.bump(rank, len, 8)?;
        let range = GlobalAddr::public(rank, offset).range(len);
        self.allocations.push(Allocation {
            id: self.allocations.len(),
            range,
            label: label.to_string(),
        });
        Ok(range)
    }

    /// Allocate under a placement policy; returns the chosen range.
    pub fn alloc(
        &mut self,
        len: usize,
        placement: Placement,
        label: &str,
    ) -> Result<MemRange, DsmError> {
        let rank = match placement {
            Placement::Owner(r) => r,
            Placement::RoundRobin | Placement::BlockCyclic { .. } => {
                let r = self.rr_cursor % self.n;
                self.rr_cursor += 1;
                r
            }
        };
        self.alloc_on(rank, len, label)
    }

    /// Reserve `len` bytes at the *same offset* on every rank (SHMEM-style
    /// symmetric object). Returns the per-rank ranges, index = rank.
    pub fn alloc_symmetric(&mut self, len: usize, label: &str) -> Result<Vec<MemRange>, DsmError> {
        // All ranks must agree on the offset: take the max frontier.
        let base = self.next_free.iter().copied().max().unwrap_or(0);
        let aligned = (base + 7) & !7;
        if aligned + len > self.capacity {
            return Err(DsmError::HeapExhausted {
                requested: len,
                available: self.capacity.saturating_sub(aligned),
            });
        }
        let mut out = Vec::with_capacity(self.n);
        for rank in 0..self.n {
            self.next_free[rank] = aligned + len;
            let range = GlobalAddr::public(rank, aligned).range(len);
            self.allocations.push(Allocation {
                id: self.allocations.len(),
                range,
                label: format!("{label}@P{rank}"),
            });
            out.push(range);
        }
        Ok(out)
    }

    /// Distribute an array of `elems` elements of `elem_size` bytes under a
    /// block-cyclic layout; returns one range per element, index = element.
    pub fn alloc_array(
        &mut self,
        elems: usize,
        elem_size: usize,
        placement: Placement,
        label: &str,
    ) -> Result<Vec<MemRange>, DsmError> {
        let mut out = Vec::with_capacity(elems);
        match placement {
            Placement::Owner(rank) => {
                let whole = self.alloc_on(rank, elems * elem_size, label)?;
                for i in 0..elems {
                    out.push(whole.addr.offset_by(i * elem_size).range(elem_size));
                }
            }
            Placement::RoundRobin => {
                for i in 0..elems {
                    let rank = i % self.n;
                    out.push(self.alloc_on(rank, elem_size, &format!("{label}[{i}]"))?);
                }
            }
            Placement::BlockCyclic { block } => {
                assert!(block > 0, "block size must be positive");
                for i in 0..elems {
                    let rank = (i / block) % self.n;
                    out.push(self.alloc_on(rank, elem_size, &format!("{label}[{i}]"))?);
                }
            }
        }
        Ok(out)
    }

    /// All allocations made so far.
    pub fn allocations(&self) -> &[Allocation] {
        &self.allocations
    }

    /// Find the allocation containing `range`, if any — the address
    /// resolution the paper assigns to the compiler.
    pub fn resolve(&self, range: &MemRange) -> Option<&Allocation> {
        self.allocations.iter().find(|a| a.range.contains(range))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_on_bumps_and_aligns() {
        let mut h = SymmetricHeap::new(2, 1024);
        let a = h.alloc_on(0, 5, "a").unwrap();
        let b = h.alloc_on(0, 8, "b").unwrap();
        assert_eq!(a.addr.offset, 0);
        assert_eq!(b.addr.offset, 8, "8-byte alignment after 5-byte alloc");
        assert_eq!(h.free_on(0), 1024 - 16);
    }

    #[test]
    fn round_robin_spreads() {
        let mut h = SymmetricHeap::new(3, 1024);
        let ranks: Vec<_> = (0..6)
            .map(|i| {
                h.alloc(8, Placement::RoundRobin, &format!("x{i}"))
                    .unwrap()
                    .addr
                    .rank
            })
            .collect();
        assert_eq!(ranks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn symmetric_same_offset_everywhere() {
        let mut h = SymmetricHeap::new(3, 1024);
        h.alloc_on(1, 24, "skew").unwrap(); // make frontiers unequal
        let sym = h.alloc_symmetric(16, "sym").unwrap();
        assert_eq!(sym.len(), 3);
        let off = sym[0].addr.offset;
        assert!(sym.iter().all(|r| r.addr.offset == off));
        assert!(off >= 24);
    }

    #[test]
    fn block_cyclic_layout() {
        let mut h = SymmetricHeap::new(2, 4096);
        let elems = h
            .alloc_array(8, 8, Placement::BlockCyclic { block: 2 }, "arr")
            .unwrap();
        let ranks: Vec<_> = elems.iter().map(|r| r.addr.rank).collect();
        assert_eq!(ranks, vec![0, 0, 1, 1, 0, 0, 1, 1]);
    }

    #[test]
    fn owner_array_is_contiguous() {
        let mut h = SymmetricHeap::new(2, 4096);
        let elems = h.alloc_array(4, 8, Placement::Owner(1), "arr").unwrap();
        assert!(elems.iter().all(|r| r.addr.rank == 1));
        for w in elems.windows(2) {
            assert_eq!(w[0].end(), w[1].addr.offset);
        }
    }

    #[test]
    fn exhaustion_reported() {
        let mut h = SymmetricHeap::new(1, 16);
        assert!(h.alloc_on(0, 16, "all").is_ok());
        assert!(matches!(
            h.alloc_on(0, 1, "more"),
            Err(DsmError::HeapExhausted { .. })
        ));
    }

    #[test]
    fn resolve_finds_enclosing_allocation() {
        let mut h = SymmetricHeap::new(1, 1024);
        let a = h.alloc_on(0, 64, "buf").unwrap();
        let sub = a.addr.offset_by(8).range(8);
        let found = h.resolve(&sub).unwrap();
        assert_eq!(found.label, "buf");
        let elsewhere = GlobalAddr::public(0, 512).range(8);
        assert!(h.resolve(&elsewhere).is_none());
    }

    #[test]
    fn bad_rank_rejected() {
        let mut h = SymmetricHeap::new(2, 64);
        assert!(matches!(
            h.alloc_on(5, 8, "x"),
            Err(DsmError::BadRank { rank: 5, n: 2 })
        ));
    }
}
