//! Per-process private and public memory segments (Fig 1).

use crate::addr::{GlobalAddr, MemRange, Segment};
use crate::data::Data;
use crate::error::DsmError;
use crate::Rank;

/// The two memory segments one process maps.
///
/// The *public* segment is part of the global address space and may be read
/// and written by any process (through the NIC); the *private* segment is
/// owner-only. The paper stresses that the owner's own accesses to its
/// public segment go through the same rules as remote ones — callers enforce
/// that by routing every public access through the same check/monitor path.
///
/// A segment stores only its written prefix: the bytes up to the end of
/// the furthest write so far. Bytes past it read as zero, and
/// [`ProcessMemory::segment_len`] is the configured length, so the
/// representation is not observable — but a fresh memory costs nothing
/// however large its segments are.
#[derive(Debug, Clone)]
pub struct ProcessMemory {
    rank: Rank,
    private: Store,
    public: Store,
}

/// One segment: its configured length and its written prefix.
#[derive(Debug, Clone)]
struct Store {
    len: usize,
    written: Vec<u8>,
}

impl Store {
    fn new(len: usize) -> Self {
        Store {
            len,
            written: Vec::new(),
        }
    }
}

impl ProcessMemory {
    /// Map both segments, zero-initialised.
    pub fn new(rank: Rank, private_len: usize, public_len: usize) -> Self {
        ProcessMemory {
            rank,
            private: Store::new(private_len),
            public: Store::new(public_len),
        }
    }

    /// Owning rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Length of a segment.
    pub fn segment_len(&self, segment: Segment) -> usize {
        self.store(segment).len
    }

    fn store(&self, segment: Segment) -> &Store {
        match segment {
            Segment::Private => &self.private,
            Segment::Public => &self.public,
        }
    }

    fn store_mut(&mut self, segment: Segment) -> &mut Store {
        match segment {
            Segment::Private => &mut self.private,
            Segment::Public => &mut self.public,
        }
    }

    /// Check that `accessor` may access `range`: it lies in this process's
    /// memory, inside its segment, and is public or `accessor`'s own. The
    /// check [`ProcessMemory::read`] and [`ProcessMemory::write`] make,
    /// without touching the bytes.
    pub fn check_access(&self, range: &MemRange, accessor: Rank) -> Result<(), DsmError> {
        if range.addr.rank != self.rank {
            return Err(DsmError::NotOwner {
                rank: range.addr.rank,
                owner: self.rank,
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
    pub fn read(&self, range: &MemRange, accessor: Rank) -> Result<Data, DsmError> {
        self.check_access(range, accessor)?;
        let written = &self.store(range.addr.segment).written;
        let prefix = written.get(range.addr.offset..).unwrap_or_default();
        Ok(Data::zero_extended(prefix, range.len))
    }

    /// Write `data` at `range.addr` on behalf of `accessor`.
    ///
    /// `data` must be exactly `range.len` bytes long; otherwise nothing is
    /// written and the error is [`DsmError::LengthMismatch`].
    pub fn write(&mut self, range: &MemRange, data: &[u8], accessor: Rank) -> Result<(), DsmError> {
        if data.len() != range.len {
            return Err(DsmError::LengthMismatch {
                range: *range,
                data_len: data.len(),
            });
        }
        self.check_access(range, accessor)?;
        let (off, end) = (range.addr.offset, range.end());
        let written = &mut self.store_mut(range.addr.segment).written;
        if written.len() < end {
            written.resize(end, 0);
        }
        written[off..end].copy_from_slice(data);
        Ok(())
    }

    /// Convenience: read a little-endian `u64` from `addr`.
    pub fn read_u64(&self, addr: GlobalAddr, accessor: Rank) -> Result<u64, DsmError> {
        let bytes = self.read(&addr.range(8), accessor)?;
        let mut word = [0; 8];
        word.iter_mut().zip(bytes.iter()).for_each(|(w, b)| *w = *b);
        Ok(u64::from_le_bytes(word))
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
        assert_eq!(m.read(&r, 0), Err(DsmError::NotOwner { rank: 0, owner: 1 }));
    }

    #[test]
    fn u64_helpers() {
        let mut m = mem();
        let a = GlobalAddr::public(1, 16);
        m.write_u64(a, 0xDEADBEEF, 1).unwrap();
        assert_eq!(m.read_u64(a, 0).unwrap(), 0xDEADBEEF);
    }

    #[test]
    fn mismatched_write_is_an_error() {
        let mut m = mem();
        let r = GlobalAddr::public(1, 0).range(4);
        assert_eq!(
            m.write(&r, &[1, 2], 1),
            Err(DsmError::LengthMismatch {
                range: r,
                data_len: 2
            })
        );
        assert_eq!(m.read(&r, 1).unwrap(), vec![0; 4], "nothing written");
    }

    #[test]
    fn bytes_past_the_written_prefix_read_as_zero() {
        let mut m = mem();
        m.write(&GlobalAddr::public(1, 4).range(4), &[1, 2, 3, 4], 1)
            .unwrap();
        let all = GlobalAddr::public(1, 0).range(128);
        let mut want = vec![0; 128];
        want[4..8].copy_from_slice(&[1, 2, 3, 4]);
        assert_eq!(m.read(&all, 1).unwrap(), want);
        assert_eq!(
            m.read(&GlobalAddr::public(1, 6).range(4), 1).unwrap(),
            vec![3, 4, 0, 0]
        );
        assert_eq!(m.segment_len(Segment::Public), 128);
        assert_eq!(m.segment_len(Segment::Private), 64);
    }
}
