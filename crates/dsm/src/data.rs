//! The bytes a put or a get moves.
//!
//! Nearly every access of the model's programs moves one word, so
//! [`Data`] keeps up to [`Data::INLINE`] bytes in place — building,
//! cloning and dropping such a payload touches no allocator — and shares
//! longer data behind one reference count, so a duplicated message (fault
//! injection) or a deferred put never copies it.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable byte string, inline up to [`Data::INLINE`] bytes.
///
/// It dereferences to `[u8]` and compares equal to a `Data` or `Vec<u8>`
/// with the same contents; whether the bytes sit inline or shared is not
/// observable.
#[derive(Clone)]
pub struct Data(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, buf: [u8; Data::INLINE] },
    Shared(Arc<[u8]>),
}

impl Data {
    /// The longest byte string kept in place.
    pub const INLINE: usize = 16;

    /// `prefix` followed by zeros up to `len` bytes (`prefix` is cut to
    /// `len` if longer). One allocation at most, none up to
    /// [`Data::INLINE`] bytes.
    pub fn zero_extended(prefix: &[u8], len: usize) -> Self {
        let prefix = prefix.get(..len).unwrap_or(prefix);
        if len <= Data::INLINE {
            let mut buf = [0; Data::INLINE];
            buf[..prefix.len()].copy_from_slice(prefix);
            Data(Repr::Inline {
                len: len as u8,
                buf,
            })
        } else {
            let zeros = std::iter::repeat_n(0, len - prefix.len());
            Data(Repr::Shared(prefix.iter().copied().chain(zeros).collect()))
        }
    }

    /// The bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..usize::from(*len)],
            Repr::Shared(bytes) => bytes,
        }
    }
}

impl Default for Data {
    /// The empty byte string.
    fn default() -> Self {
        Data::zero_extended(&[], 0)
    }
}

impl Deref for Data {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<&[u8]> for Data {
    fn from(bytes: &[u8]) -> Self {
        Data::zero_extended(bytes, bytes.len())
    }
}

impl fmt::Debug for Data {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl PartialEq for Data {
    fn eq(&self, other: &Data) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Data {}

impl PartialEq<Vec<u8>> for Data {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_data_stays_inline_and_long_data_is_shared() {
        let word = Data::from(&[7u8; 8][..]);
        assert!(matches!(word.0, Repr::Inline { len: 8, .. }));
        assert_eq!(word, vec![7u8; 8]);
        let edge = Data::from(&[1u8; Data::INLINE][..]);
        assert!(matches!(edge.0, Repr::Inline { .. }));
        let long = Data::from(&[2u8; Data::INLINE + 1][..]);
        assert!(matches!(long.0, Repr::Shared(_)));
        assert_eq!(long, vec![2u8; Data::INLINE + 1]);
        assert!(Data::default().is_empty());
    }

    #[test]
    fn zero_extended_pads_and_cuts() {
        assert_eq!(Data::zero_extended(&[1, 2], 4), vec![1, 2, 0, 0]);
        assert_eq!(Data::zero_extended(&[1, 2, 3], 2), vec![1, 2]);
        let long = Data::zero_extended(&[9; 3], 40);
        assert_eq!(long.len(), 40);
        assert_eq!(&long[..4], &[9, 9, 9, 0]);
        assert!(long[3..].iter().all(|&b| b == 0));
    }

    #[test]
    fn equality_is_by_content() {
        let a = Data::from(&[5u8; 30][..]);
        let b = Data::zero_extended(&[5u8; 30], 30);
        assert_eq!(a, b);
        assert_ne!(a, Data::from(&[5u8; 29][..]));
        assert_eq!(format!("{:?}", Data::from(&[1u8, 2][..])), "[1, 2]");
    }
}
