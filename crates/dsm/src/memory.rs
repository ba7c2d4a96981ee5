//! Per-process private and public memory segments (Fig 1).

use crate::addr::{GlobalAddr, MemRange, Segment};
use crate::error::DsmError;
use crate::Rank;

/// The two memory segments one process maps.
///
/// The *public* segment is part of the global address space and may be read
/// and written by any process (through the NIC); the *private* segment is
/// owner-only. The paper stresses that the owner's own accesses to its
/// public segment go through the same rules as remote ones — callers enforce
/// that by routing every public access through the same check/monitor path.
#[derive(Debug, Clone)]
pub struct ProcessMemory {
    rank: Rank,
    private: Vec<u8>,
    public: Vec<u8>,
}

impl ProcessMemory {
    /// Allocate both segments, zero-initialised.
    pub fn new(rank: Rank, private_len: usize, public_len: usize) -> Self {
        ProcessMemory {
            rank,
            private: vec![0; private_len],
            public: vec![0; public_len],
        }
    }

    /// Owning rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Length of a segment.
    pub fn segment_len(&self, segment: Segment) -> usize {
        match segment {
            Segment::Private => self.private.len(),
            Segment::Public => self.public.len(),
        }
    }

    fn segment(&self, segment: Segment) -> &[u8] {
        match segment {
            Segment::Private => &self.private,
            Segment::Public => &self.public,
        }
    }

    fn segment_mut(&mut self, segment: Segment) -> &mut [u8] {
        match segment {
            Segment::Private => &mut self.private,
            Segment::Public => &mut self.public,
        }
    }

    fn check(&self, range: &MemRange, accessor: Rank) -> Result<(), DsmError> {
        if range.addr.rank != self.rank {
            return Err(DsmError::BadRank {
                rank: range.addr.rank,
                n: self.rank + 1,
            });
        }
        if !range.addr.accessible_by(accessor) {
            return Err(DsmError::PrivateViolation {
                accessor,
                addr: range.addr,
            });
        }
        let seg_len = self.segment_len(range.addr.segment);
        if range.end() > seg_len {
            return Err(DsmError::OutOfBounds {
                range: *range,
                segment_len: seg_len,
            });
        }
        Ok(())
    }

    /// Read `range` on behalf of `accessor`.
    pub fn read(&self, range: &MemRange, accessor: Rank) -> Result<Vec<u8>, DsmError> {
        self.check(range, accessor)?;
        let seg = self.segment(range.addr.segment);
        Ok(seg[range.addr.offset..range.end()].to_vec())
    }

    /// Write `data` at `range.addr` on behalf of `accessor`.
    ///
    /// # Panics
    /// Panics if `data.len() != range.len` (caller constructs both).
    pub fn write(&mut self, range: &MemRange, data: &[u8], accessor: Rank) -> Result<(), DsmError> {
        assert_eq!(data.len(), range.len, "data length must match range");
        self.check(range, accessor)?;
        let off = range.addr.offset;
        let seg = self.segment_mut(range.addr.segment);
        seg[off..off + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Convenience: read a little-endian `u64` from `addr`.
    pub fn read_u64(&self, addr: GlobalAddr, accessor: Rank) -> Result<u64, DsmError> {
        let bytes = self.read(&addr.range(8), accessor)?;
        #[expect(
            clippy::expect_used,
            reason = "the read above returned a slice of the requested (checked) length; the width is static."
        )]
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Convenience: write a little-endian `u64` at `addr`.
    pub fn write_u64(
        &mut self,
        addr: GlobalAddr,
        value: u64,
        accessor: Rank,
    ) -> Result<(), DsmError> {
        self.write(&addr.range(8), &value.to_le_bytes(), accessor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> ProcessMemory {
        ProcessMemory::new(1, 64, 128)
    }

    #[test]
    fn zero_initialised() {
        let m = mem();
        let r = GlobalAddr::public(1, 0).range(16);
        assert_eq!(m.read(&r, 0).unwrap(), vec![0; 16]);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut m = mem();
        let r = GlobalAddr::public(1, 8).range(4);
        m.write(&r, &[1, 2, 3, 4], 2).unwrap();
        assert_eq!(m.read(&r, 0).unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn remote_private_access_rejected() {
        let mut m = mem();
        let r = GlobalAddr::private(1, 0).range(4);
        assert!(matches!(
            m.read(&r, 0),
            Err(DsmError::PrivateViolation { accessor: 0, .. })
        ));
        assert!(m.write(&r, &[0; 4], 0).is_err());
        // Owner succeeds.
        assert!(m.write(&r, &[9; 4], 1).is_ok());
        assert_eq!(m.read(&r, 1).unwrap(), vec![9; 4]);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let m = mem();
        let r = GlobalAddr::public(1, 120).range(16);
        assert!(matches!(m.read(&r, 0), Err(DsmError::OutOfBounds { .. })));
    }

    #[test]
    fn exact_end_is_in_bounds() {
        let m = mem();
        let r = GlobalAddr::public(1, 112).range(16);
        assert!(m.read(&r, 0).is_ok());
    }

    #[test]
    fn wrong_rank_rejected() {
        let m = mem();
        let r = GlobalAddr::public(0, 0).range(4);
        assert!(matches!(m.read(&r, 0), Err(DsmError::BadRank { .. })));
    }

    #[test]
    fn u64_helpers() {
        let mut m = mem();
        let a = GlobalAddr::public(1, 16);
        m.write_u64(a, 0xDEADBEEF, 1).unwrap();
        assert_eq!(m.read_u64(a, 0).unwrap(), 0xDEADBEEF);
    }

    #[test]
    #[should_panic(expected = "data length must match")]
    fn mismatched_write_panics() {
        let mut m = mem();
        let r = GlobalAddr::public(1, 0).range(4);
        let _ = m.write(&r, &[1, 2], 1);
    }
}
