//! Race reports and the non-fatal signalling discipline of §IV-D.
//!
//! "Race conditions must be signaled to the user (e.g., by a message on the
//! standard output of the program), but they must not abort the execution
//! of the program." Reports are therefore values: detectors accumulate
//! them, harnesses print them, nothing panics.

use crate::clockstore::AreaKey;
use crate::event::AccessSummary;

/// What kind of conflicting pair was found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RaceClass {
    /// Two concurrent writes.
    WriteWrite,
    /// A write concurrent with a read (either order of discovery).
    ReadWrite,
    /// Two concurrent reads — **not a race** by the paper's definition
    /// (§III-C requires at least one write). Only the single-clock and
    /// literal baselines emit these; they are the false positives that
    /// §IV-D says the dual-clock design eliminates.
    ReadRead,
}

impl RaceClass {
    /// True when this class is a real race under the paper's definition.
    pub fn is_true_race(self) -> bool {
        !matches!(self, RaceClass::ReadRead)
    }

    /// Label for tables.
    pub fn label(self) -> &'static str {
        match self {
            RaceClass::WriteWrite => "write-write",
            RaceClass::ReadWrite => "read-write",
            RaceClass::ReadRead => "read-read",
        }
    }

    /// Inverse of [`RaceClass::label`] (the wire/JSON decoding).
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "write-write" => Some(RaceClass::WriteWrite),
            "read-write" => Some(RaceClass::ReadWrite),
            "read-read" => Some(RaceClass::ReadRead),
            _ => None,
        }
    }
}

/// One detected race: the access being performed and the recorded access it
/// conflicts with, with both clocks (which are concurrent by construction).
#[derive(Debug, Clone, PartialEq)]
pub struct RaceReport {
    /// Which detector produced the report (a static label — reports are
    /// hot-path values; no allocation per report).
    pub detector: &'static str,
    /// Pair classification.
    pub class: RaceClass,
    /// The access that triggered the detection (the later one).
    pub current: AccessSummary,
    /// The previously recorded conflicting access.
    pub previous: AccessSummary,
    /// The memory area the conflict is on.
    pub area: AreaKey,
}

impl RaceReport {
    /// The unordered access-id pair: the oracle's scoring key and the
    /// deduplication identity. The single source of truth shared by
    /// [`dedup_reports`] and the streaming [`crate::api::DedupSink`], so
    /// the two can never diverge.
    pub fn pair(&self) -> (u64, u64) {
        let (a, b) = (self.previous.id, self.current.id);
        (a.min(b), a.max(b))
    }

    /// §IV-D signalling: the one-line message a runtime would print to
    /// standard output. Never aborts.
    pub fn signal_line(&self) -> String {
        format!(
            "RACE CONDITION ({}): {} × {} on area {} [{}]",
            self.class.label(),
            self.previous,
            self.current,
            self.area,
            self.detector,
        )
    }
}

impl std::fmt::Display for RaceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.signal_line())
    }
}

/// A set of [`RaceReport::pair`]s — the one key-set type behind
/// [`dedup_reports`] and [`crate::api::DedupSink`].
pub(crate) type DedupKeys = std::collections::HashSet<(u64, u64), WordHashState>;

/// An empty [`DedupKeys`] with room for `capacity` keys.
pub(crate) fn dedup_keys(capacity: usize) -> DedupKeys {
    DedupKeys::with_capacity_and_hasher(capacity, WordHashState::default())
}

/// Hash state for maps keyed by a few machine words (access-id pairs, word
/// indices): one folded 64 × 64 → 128-bit multiply per word instead of
/// SipHash's rounds. Every state draws its own secret from
/// [`std::collections::hash_map::RandomState`], because access ids reach
/// [`crate::api::DedupSink`] from outside the program and a fixed
/// multiplicative hash would let a client craft colliding keys. No output
/// ever depends on the iteration order of a map built with it.
#[derive(Debug, Clone)]
pub struct WordHashState {
    secret: u64,
}

impl Default for WordHashState {
    fn default() -> Self {
        use std::hash::{BuildHasher, Hasher};
        let secret = std::collections::hash_map::RandomState::new()
            .build_hasher()
            .finish();
        WordHashState { secret }
    }
}

impl std::hash::BuildHasher for WordHashState {
    type Hasher = WordHasher;

    fn build_hasher(&self) -> WordHasher {
        WordHasher { state: self.secret }
    }
}

/// The hasher of [`WordHashState`].
#[derive(Debug, Clone)]
pub struct WordHasher {
    state: u64,
}

impl WordHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        let wide = u128::from(self.state ^ word) * u128::from(K ^ self.state.rotate_left(32));
        self.state = (wide as u64) ^ ((wide >> 64) as u64);
    }
}

impl std::hash::Hasher for WordHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.fold(x);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.fold(x as u64);
    }
}

/// Deduplicate reports by unordered access pair (keeping first occurrence),
/// so one logical race crossing several clock-granularity blocks counts
/// once in the tables. One pass; only the kept reports are cloned.
pub fn dedup_reports(reports: &[RaceReport]) -> Vec<RaceReport> {
    let mut seen = dedup_keys(reports.len());
    let firsts: Vec<&RaceReport> = reports.iter().filter(|r| seen.insert(r.pair())).collect();
    // An exact-size iterator: the kept reports are cloned into a `Vec` that
    // never regrows.
    firsts.into_iter().cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::AccessKind;
    use dsm::addr::GlobalAddr;
    use vclock::VectorClock;

    fn summary(id: u64, process: usize) -> AccessSummary {
        AccessSummary {
            id,
            process,
            kind: AccessKind::Write,
            range: GlobalAddr::public(1, 0).range(8),
            atomic: false,
            count: 0,
            row: std::sync::Arc::new(VectorClock::zero(3)),
        }
    }

    fn report(cur: u64, prev: u64) -> RaceReport {
        RaceReport {
            detector: "test",
            class: RaceClass::WriteWrite,
            current: summary(cur, 0),
            previous: summary(prev, 2),
            area: AreaKey::new(1, 0),
        }
    }

    #[test]
    fn pair_is_unordered() {
        assert_eq!(report(5, 3).pair(), (3, 5));
        assert_eq!(report(3, 5).pair(), (3, 5));
    }

    #[test]
    fn read_read_is_not_true_race() {
        assert!(!RaceClass::ReadRead.is_true_race());
        assert!(RaceClass::WriteWrite.is_true_race());
        assert!(RaceClass::ReadWrite.is_true_race());
    }

    #[test]
    fn signal_line_contains_parties() {
        let line = report(5, 3).signal_line();
        assert!(line.contains("RACE CONDITION"));
        assert!(line.contains("write-write"));
        assert!(line.contains("#5"));
        assert!(line.contains("#3"));
    }

    #[test]
    fn dedup_by_pair() {
        let reports = vec![report(5, 3), report(3, 5), report(7, 3)];
        let d = dedup_reports(&reports);
        assert_eq!(d.len(), 2);
    }
}
