//! Global addressing: `(processor_name, local_address)` pairs.
//!
//! §III-A: "Instead of accessing it using its address in the local memory,
//! processors use the processor's name and its address in the memory of this
//! processor. This couple (processor_name, local_address) is the addressing
//! system used in the global address space."

use crate::Rank;

/// Which segment of a process's memory an address refers to.
///
/// §III-A: the private area is accessible only by its owner; the public area
/// is accessible by everyone, with *no distinction* between local and remote
/// accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Segment {
    /// Accessible only by the owning process.
    Private,
    /// Part of the global address space; remotely accessible via RDMA.
    Public,
}

/// An address in the global address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalAddr {
    /// Owning process.
    pub rank: Rank,
    /// Segment within that process.
    pub segment: Segment,
    /// Byte offset within the segment.
    pub offset: usize,
}

impl GlobalAddr {
    /// An address in `rank`'s public segment.
    pub const fn public(rank: Rank, offset: usize) -> Self {
        GlobalAddr {
            rank,
            segment: Segment::Public,
            offset,
        }
    }

    /// An address in `rank`'s private segment.
    pub const fn private(rank: Rank, offset: usize) -> Self {
        GlobalAddr {
            rank,
            segment: Segment::Private,
            offset,
        }
    }

    /// The range `[self, self + len)`.
    pub const fn range(self, len: usize) -> MemRange {
        MemRange { addr: self, len }
    }

    /// Address advanced by `bytes`.
    pub const fn offset_by(self, bytes: usize) -> GlobalAddr {
        GlobalAddr {
            rank: self.rank,
            segment: self.segment,
            offset: self.offset + bytes,
        }
    }

    /// True when this address may be accessed by `accessor`: public
    /// addresses by anyone, private addresses by the owner only.
    pub fn accessible_by(self, accessor: Rank) -> bool {
        match self.segment {
            Segment::Public => true,
            Segment::Private => accessor == self.rank,
        }
    }
}

impl std::fmt::Display for GlobalAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let seg = match self.segment {
            Segment::Private => "priv",
            Segment::Public => "pub",
        };
        write!(f, "P{}:{}+{:#x}", self.rank, seg, self.offset)
    }
}

/// A contiguous byte range in one process's memory — the unit locks and
/// race checks operate on ("areas of memory" in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRange {
    /// First byte.
    pub addr: GlobalAddr,
    /// Length in bytes.
    pub len: usize,
}

impl MemRange {
    /// Construct from rank/segment/offset/len.
    pub const fn new(addr: GlobalAddr, len: usize) -> Self {
        MemRange { addr, len }
    }

    /// One-past-the-end offset.
    pub const fn end(&self) -> usize {
        self.addr.offset + self.len
    }

    /// True when the two ranges share at least one byte (same rank and
    /// segment required).
    pub fn overlaps(&self, other: &MemRange) -> bool {
        self.addr.rank == other.addr.rank
            && self.addr.segment == other.addr.segment
            && self.len > 0
            && other.len > 0
            && self.addr.offset < other.end()
            && other.addr.offset < self.end()
    }

    /// True when `other` lies entirely within `self`.
    pub fn contains(&self, other: &MemRange) -> bool {
        self.addr.rank == other.addr.rank
            && self.addr.segment == other.addr.segment
            && self.addr.offset <= other.addr.offset
            && other.end() <= self.end()
    }

    /// Canonical ordering key used to acquire multiple locks without
    /// deadlock: sort by (rank, segment, offset). The detection algorithms
    /// lock both `src` and `dst`; taking them in canonical order makes the
    /// wait-for graph acyclic.
    pub fn canonical_key(&self) -> (Rank, Segment, usize) {
        (self.addr.rank, self.addr.segment, self.addr.offset)
    }
}

impl std::fmt::Display for MemRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}..{:#x}", self.addr, self.end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessibility_rules() {
        assert!(GlobalAddr::public(1, 0).accessible_by(0));
        assert!(GlobalAddr::public(1, 0).accessible_by(1));
        assert!(!GlobalAddr::private(1, 0).accessible_by(0));
        assert!(GlobalAddr::private(1, 0).accessible_by(1));
    }

    #[test]
    fn overlap_same_rank_segment() {
        let a = GlobalAddr::public(0, 100).range(50);
        let b = GlobalAddr::public(0, 140).range(50);
        let c = GlobalAddr::public(0, 150).range(50);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c), "touching ranges do not overlap");
    }

    #[test]
    fn no_overlap_across_ranks_or_segments() {
        let a = GlobalAddr::public(0, 0).range(100);
        let b = GlobalAddr::public(1, 0).range(100);
        let c = GlobalAddr::private(0, 0).range(100);
        assert!(!a.overlaps(&b));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn zero_length_never_overlaps() {
        let a = GlobalAddr::public(0, 10).range(0);
        let b = GlobalAddr::public(0, 0).range(100);
        assert!(!a.overlaps(&b));
        assert!(!b.overlaps(&a));
    }

    #[test]
    fn containment() {
        let outer = GlobalAddr::public(0, 0).range(100);
        let inner = GlobalAddr::public(0, 10).range(20);
        assert!(outer.contains(&inner));
        assert!(!inner.contains(&outer));
        assert!(outer.contains(&outer));
    }

    #[test]
    fn canonical_key_orders_rank_first() {
        let a = GlobalAddr::public(0, 500).range(8);
        let b = GlobalAddr::public(1, 0).range(8);
        assert!(a.canonical_key() < b.canonical_key());
    }

    #[test]
    fn display_formats() {
        let a = GlobalAddr::public(2, 16).range(8);
        assert_eq!(a.to_string(), "P2:pub+0x10..0x18");
    }

    #[test]
    fn offset_by_advances() {
        let a = GlobalAddr::public(0, 8);
        assert_eq!(a.offset_by(8).offset, 16);
        assert_eq!(a.offset_by(8).rank, 0);
    }
}
