//! Versioned snapshot codec for durable, resumable sessions.
//!
//! A [`crate::api::Session`] can be checkpointed to a self-contained byte
//! blob ([`crate::api::Session::checkpoint`]) and later rebuilt from it
//! ([`crate::api::Session::restore`]). The blob carries everything the
//! detection stream needs to continue exactly where it left off:
//!
//! - the [`crate::api::DetectorConfig`] (canonical JSON),
//! - the event count (the resume watermark services ack against),
//! - the running [`RaceSummary`] (canonical JSON),
//! - the sink's optional state ([`crate::api::ReportSink::snapshot_state`],
//!   e.g. the dedup window of a [`crate::api::DedupSink`]),
//! - and the detector state itself: the full [`ClockStore`] (every touched
//!   area's `V`/`W` clocks and antichains), the per-process matrix clocks,
//!   and the program-lock clock snapshots — or the lockset / vanilla
//!   baselines' equivalent state.
//!
//! The contract, proptested in `tests/checkpoint.rs`: for every
//! [`DetectorKind`], `restore(checkpoint)` + [`crate::api::Session::apply`]
//! over the session's journal produces a report stream and summary
//! **byte-identical** to the uninterrupted run. Replay cost is O(events
//! since the last checkpoint) because [`crate::api::Session`] truncates its
//! in-memory journal at every checkpoint; the journal itself has no byte
//! form.
//!
//! Like every codec in this workspace the format is hand-rolled (no
//! serialisation dependency), little-endian, length-prefixed, and strict:
//! decoding untrusted bytes returns a typed [`SnapshotError`] — an unknown
//! version byte, truncation, or trailing garbage is an error, never a
//! panic. The leading version byte ([`SNAPSHOT_VERSION`]) is the drift
//! guard; a committed golden blob pins the v1 layout.

#![deny(clippy::indexing_slicing)]

use std::collections::HashMap;
use std::sync::Arc;

use dsm::addr::{GlobalAddr, MemRange, Segment};
use vclock::{AreaClock, Epoch, MatrixClock, VectorClock};

use crate::api::{DetectorConfig, ReportSink};
use crate::clockstore::{AreaKey, ClockStore};
use crate::detector::{Detector, DetectorKind};
use crate::event::{AccessKind, AccessSummary, LockId};
use crate::hb::{HbDetector, HbMode};
use crate::lockset::{AreaState, LocksetDetector};
use crate::summary::RaceSummary;
use crate::vanilla::VanillaDetector;
use crate::Rank;

/// Current snapshot format version (the blob's first byte).
pub const SNAPSHOT_VERSION: u8 = 1;

/// A typed snapshot failure. Decoding never panics: hostile, truncated or
/// future-versioned bytes all come back as one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The version byte names a format this build does not understand.
    UnknownVersion {
        /// The version byte found in the blob.
        got: u8,
    },
    /// The blob ended before the named field was complete.
    Truncated {
        /// Which field ran out of bytes.
        what: &'static str,
    },
    /// A field decoded but its value is structurally impossible.
    Malformed {
        /// Which field was malformed.
        what: &'static str,
    },
    /// The embedded `DetectorConfig` JSON did not parse.
    BadConfig(String),
    /// The embedded `RaceSummary` JSON did not parse.
    BadSummary(String),
    /// Bytes remained after the last field — the blob is not from this
    /// codec (or was concatenated with something else).
    TrailingBytes,
    /// The session's detector has no snapshot representation.
    Unsupported(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::UnknownVersion { got } => {
                write!(
                    f,
                    "unknown snapshot version {got} (this build reads {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::Truncated { what } => write!(f, "snapshot truncated in {what}"),
            SnapshotError::Malformed { what } => write!(f, "malformed snapshot field {what}"),
            SnapshotError::BadConfig(e) => write!(f, "snapshot config: {e}"),
            SnapshotError::BadSummary(e) => write!(f, "snapshot summary: {e}"),
            SnapshotError::TrailingBytes => write!(f, "trailing bytes after snapshot"),
            SnapshotError::Unsupported(what) => write!(f, "snapshot unsupported: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

// ---------------------------------------------------------------------------
// Primitive writers / strict reader
// ---------------------------------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(buf, bytes.len() as u32);
    buf.extend_from_slice(bytes);
}

/// Strict little-endian reader over a snapshot blob. Every read names the
/// field it is reading so a truncation error points at the culprit.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(SnapshotError::Malformed { what })?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or(SnapshotError::Truncated { what })?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, SnapshotError> {
        self.take(1, what)?
            .first()
            .copied()
            .ok_or(SnapshotError::Truncated { what })
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, SnapshotError> {
        let b: [u8; 4] = self
            .take(4, what)?
            .try_into()
            .map_err(|_| SnapshotError::Truncated { what })?;
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, SnapshotError> {
        let b: [u8; 8] = self
            .take(8, what)?
            .try_into()
            .map_err(|_| SnapshotError::Truncated { what })?;
        Ok(u64::from_le_bytes(b))
    }

    fn bytes(&mut self, what: &'static str) -> Result<&'a [u8], SnapshotError> {
        let len = self.u32(what)? as usize;
        self.take(len, what)
    }

    fn utf8(&mut self, what: &'static str) -> Result<&'a str, SnapshotError> {
        std::str::from_utf8(self.bytes(what)?).map_err(|_| SnapshotError::Malformed { what })
    }

    fn finish(&self) -> Result<(), SnapshotError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(SnapshotError::TrailingBytes)
        }
    }
}

// ---------------------------------------------------------------------------
// Shared value codecs
// ---------------------------------------------------------------------------

fn put_vc(buf: &mut Vec<u8>, vc: &VectorClock) {
    let components = vc.components();
    put_u32(buf, components.len() as u32);
    for &c in components {
        put_u64(buf, c);
    }
}

fn take_vc(r: &mut Reader<'_>) -> Result<VectorClock, SnapshotError> {
    let len = r.u32("clock width")?;
    let mut components = Vec::new();
    for _ in 0..len {
        components.push(r.u64("clock component")?);
    }
    Ok(VectorClock::from_components(components))
}

fn put_lock(buf: &mut Vec<u8>, lock: &LockId) {
    put_u32(buf, lock.0 as u32);
    put_u64(buf, lock.1 as u64);
}

fn take_lock(r: &mut Reader<'_>) -> Result<LockId, SnapshotError> {
    let rank = r.u32("lock rank")? as Rank;
    let offset = r.u64("lock offset")? as usize;
    Ok((rank, offset))
}

fn put_range(buf: &mut Vec<u8>, range: &MemRange) {
    put_u32(buf, range.addr.rank as u32);
    put_u8(
        buf,
        match range.addr.segment {
            Segment::Private => 0,
            Segment::Public => 1,
        },
    );
    put_u64(buf, range.addr.offset as u64);
    put_u64(buf, range.len as u64);
}

fn take_range(r: &mut Reader<'_>) -> Result<MemRange, SnapshotError> {
    let rank = r.u32("range rank")? as Rank;
    let addr = match r.u8("range segment")? {
        0 => GlobalAddr::private(rank, 0),
        1 => GlobalAddr::public(rank, 0),
        _ => {
            return Err(SnapshotError::Malformed {
                what: "range segment",
            })
        }
    };
    let offset = r.u64("range offset")? as usize;
    let len = r.u64("range len")? as usize;
    Ok(GlobalAddr { offset, ..addr }.range(len))
}

/// An access, with its full clock written out (its count in the own
/// slot), so the bytes do not show whether the access shared a lagging
/// row. Builds no clock.
fn put_access(buf: &mut Vec<u8>, a: &AccessSummary) {
    put_u64(buf, a.id);
    put_u32(buf, a.process as u32);
    put_u8(buf, if a.kind.is_write() { 1 } else { 0 });
    put_range(buf, &a.range);
    put_u8(buf, a.atomic as u8);
    let components = a.components();
    put_u32(buf, components.len() as u32);
    for component in components {
        put_u64(buf, component);
    }
}

fn take_access(r: &mut Reader<'_>) -> Result<AccessSummary, SnapshotError> {
    let id = r.u64("access id")?;
    let process = r.u32("access process")? as Rank;
    let kind = match r.u8("access kind")? {
        0 => AccessKind::Read,
        1 => AccessKind::Write,
        _ => {
            return Err(SnapshotError::Malformed {
                what: "access kind",
            })
        }
    };
    let range = take_range(r)?;
    let atomic = match r.u8("access atomic")? {
        0 => false,
        1 => true,
        _ => {
            return Err(SnapshotError::Malformed {
                what: "access atomic",
            })
        }
    };
    // Row sharing across accesses is an in-memory optimisation; restoring
    // one exact row per access is semantically identical (clocks are
    // immutable once recorded) and does not change any encoded byte.
    let clock = take_vc(r)?;
    Ok(AccessSummary {
        id,
        process,
        kind,
        range,
        atomic,
        count: clock.components().get(process).copied().unwrap_or(0),
        row: Arc::new(clock),
    })
}

const AREA_BOTTOM: u8 = 0;
const AREA_EPOCH: u8 = 1;
const AREA_VECTOR: u8 = 2;

fn put_area_clock(buf: &mut Vec<u8>, clock: &AreaClock) {
    match clock {
        AreaClock::Bottom => put_u8(buf, AREA_BOTTOM),
        AreaClock::Epoch(e) => {
            put_u8(buf, AREA_EPOCH);
            put_u32(buf, e.rank as u32);
            put_u64(buf, e.count);
        }
        AreaClock::Vector(v) => {
            put_u8(buf, AREA_VECTOR);
            put_vc(buf, v);
        }
    }
}

/// An area clock of an `n`-process store: an epoch's rank and a vector's
/// width are checked here, because the detector indexes with them.
fn take_area_clock(r: &mut Reader<'_>, n: usize) -> Result<AreaClock, SnapshotError> {
    match r.u8("area clock tag")? {
        AREA_BOTTOM => Ok(AreaClock::Bottom),
        AREA_EPOCH => {
            let rank = r.u32("epoch rank")? as Rank;
            if rank >= n {
                return Err(SnapshotError::Malformed { what: "epoch rank" });
            }
            Ok(AreaClock::Epoch(Epoch {
                rank,
                count: r.u64("epoch count")?,
            }))
        }
        AREA_VECTOR => Ok(AreaClock::Vector(take_clock_of_width(
            r,
            n,
            "area clock width",
        )?)),
        _ => Err(SnapshotError::Malformed {
            what: "area clock tag",
        }),
    }
}

/// A vector clock that must have exactly `n` components (`what` names the
/// field in the error).
fn take_clock_of_width(
    r: &mut Reader<'_>,
    n: usize,
    what: &'static str,
) -> Result<VectorClock, SnapshotError> {
    let clock = take_vc(r)?;
    if clock.len() != n {
        return Err(SnapshotError::Malformed { what });
    }
    Ok(clock)
}

/// One antichain of an `n`-process store: every access is by a process
/// below `n` and carries an `n`-wide clock.
fn take_antichain(
    r: &mut Reader<'_>,
    n: usize,
    what: &'static str,
) -> Result<Vec<AccessSummary>, SnapshotError> {
    let len = r.u32(what)?;
    let mut chain = Vec::new();
    for _ in 0..len {
        let access = take_access(r)?;
        if access.process >= n || access.row.len() != n {
            return Err(SnapshotError::Malformed {
                what: "antichain access",
            });
        }
        chain.push(access);
    }
    Ok(chain)
}

/// Whether `clock` is exactly the join of the access clocks in `chains` —
/// the invariant the detector maintains and then relies on: `Bottom` for
/// no accesses, an epoch naming a recorded access whose clock dominates
/// the others (resolved there on demotion and merge), or the dense join.
fn clock_is_join_of(clock: &AreaClock, chains: &[&[AccessSummary]]) -> bool {
    let mut accesses = chains.iter().flat_map(|chain| chain.iter());
    match clock {
        AreaClock::Bottom => accesses.next().is_none(),
        AreaClock::Epoch(e) => {
            let named = accesses
                .clone()
                .find(|a| a.process == e.rank && a.count == e.count);
            named.is_some_and(|named| accesses.all(|a| a.clock().leq(&named.clock())))
        }
        AreaClock::Vector(join) => {
            let mut expected = VectorClock::zero(join.len());
            for access in accesses {
                access.merge_into(&mut expected);
            }
            expected == *join
        }
    }
}

// ---------------------------------------------------------------------------
// Detector payloads
// ---------------------------------------------------------------------------

/// Encode the happens-before detector's full state: matrix clocks,
/// program-lock clocks (sorted), and every touched area of the store (in
/// [`ClockStore::sorted_entries`] order, so identical state always encodes
/// to identical bytes).
pub(crate) fn encode_hb(hb: &HbDetector) -> Vec<u8> {
    let (store, clocks, lock_clocks) = hb.snapshot_parts();
    let mut buf = Vec::new();
    put_u32(&mut buf, store.n() as u32);
    put_u32(&mut buf, clocks.len() as u32);
    for clock in clocks {
        put_u32(&mut buf, clock.owner() as u32);
        put_u32(&mut buf, clock.n() as u32);
        for rank in 0..clock.n() {
            put_vc(&mut buf, clock.row(rank));
        }
    }
    let mut locks: Vec<(&LockId, &VectorClock)> = lock_clocks.iter().collect();
    locks.sort_by_key(|(lock, _)| **lock);
    put_u32(&mut buf, locks.len() as u32);
    for (lock, clock) in locks {
        put_lock(&mut buf, lock);
        put_vc(&mut buf, clock);
    }
    let entries = store.sorted_entries();
    put_u64(&mut buf, entries.len() as u64);
    for (key, history) in entries {
        put_u32(&mut buf, key.rank as u32);
        put_u64(&mut buf, key.block as u64);
        put_area_clock(&mut buf, &history.v);
        put_area_clock(&mut buf, &history.w);
        put_u32(&mut buf, history.writes.len() as u32);
        for entry in &history.writes {
            put_access(&mut buf, entry);
        }
        put_u32(&mut buf, history.reads.len() as u32);
        for entry in &history.reads {
            put_access(&mut buf, entry);
        }
    }
    buf
}

/// Inverse of [`encode_hb`], rebuilding against `config`'s store layout.
pub(crate) fn decode_hb(
    config: &DetectorConfig,
    mode: HbMode,
    bytes: &[u8],
) -> Result<HbDetector, SnapshotError> {
    let mut r = Reader::new(bytes);
    let n = r.u32("store n")? as usize;
    if n != config.n {
        return Err(SnapshotError::Malformed { what: "store n" });
    }
    let clock_count = r.u32("matrix count")? as usize;
    if clock_count != n {
        return Err(SnapshotError::Malformed {
            what: "matrix count",
        });
    }
    let mut clocks = Vec::new();
    for rank in 0..clock_count {
        let owner = r.u32("matrix owner")? as Rank;
        let rows_len = r.u32("matrix rows")? as usize;
        if rows_len != n || owner != rank {
            return Err(SnapshotError::Malformed {
                what: "matrix rows",
            });
        }
        let mut rows = Vec::new();
        for _ in 0..rows_len {
            rows.push(take_clock_of_width(&mut r, n, "matrix row width")?);
        }
        clocks.push(MatrixClock::from_rows(owner, rows));
    }
    // No clock anywhere in the state may know more of a process than the
    // process itself has ticked. Every clock a future access can carry is
    // built from these, so this is the property that keeps a recorded
    // access from ever being causally after a future one — which the
    // detector's antichain pruning assumes.
    let ticks = VectorClock::from_components(
        clocks
            .iter()
            .enumerate()
            .map(|(rank, own)| own.own_row().get(rank))
            .collect(),
    );
    let ticked = |clock: &VectorClock| clock.leq(&ticks);
    if !clocks
        .iter()
        .all(|m| (0..n).all(|rank| ticked(m.row(rank))))
    {
        return Err(SnapshotError::Malformed {
            what: "matrix clock ahead of its process",
        });
    }
    let lock_count = r.u32("lock clock count")?;
    let mut lock_clocks = HashMap::new();
    for _ in 0..lock_count {
        let lock = take_lock(&mut r)?;
        let clock = take_clock_of_width(&mut r, n, "lock clock width")?;
        if !ticked(&clock) {
            return Err(SnapshotError::Malformed {
                what: "lock clock ahead of its process",
            });
        }
        lock_clocks.insert(lock, clock);
    }
    let mut store = ClockStore::new(n, config.granularity, mode != HbMode::Single);
    let entries = r.u64("store entries")?;
    for _ in 0..entries {
        // The key sizes the slab (`history_mut` grows to `rank` slabs and,
        // below the fixed dense bound, to `block` slots), so its rank is
        // checked against the store before it is used.
        let rank = r.u32("area rank")? as Rank;
        if rank >= n {
            return Err(SnapshotError::Malformed { what: "area rank" });
        }
        let block = r.u64("area block")? as usize;
        let v = take_area_clock(&mut r, n)?;
        let w = take_area_clock(&mut r, n)?;
        let writes = take_antichain(&mut r, n, "writes len")?;
        let reads = take_antichain(&mut r, n, "reads len")?;
        if !clock_is_join_of(&w, &[&writes])
            || !clock_is_join_of(&v, &[&writes, &reads])
            || writes.iter().chain(&reads).any(|a| !ticked(&a.clock()))
        {
            return Err(SnapshotError::Malformed {
                what: "area clocks inconsistent with the antichains",
            });
        }
        let history = store.history_mut(AreaKey::new(rank, block));
        history.v = v;
        history.w = w;
        history.writes = writes;
        history.reads = reads;
    }
    r.finish()?;
    Ok(HbDetector::from_parts(mode, store, clocks, lock_clocks))
}

const LOCKSET_VIRGIN: u8 = 0;
const LOCKSET_EXCLUSIVE: u8 = 1;
const LOCKSET_SHARED: u8 = 2;
const LOCKSET_SHARED_MODIFIED: u8 = 3;

/// Encode the lockset baseline's per-area state machine (sorted by key;
/// candidate locksets sorted, so encoding is deterministic).
pub(crate) fn encode_lockset(detector: &LocksetDetector) -> Vec<u8> {
    let mut buf = Vec::new();
    let states = detector.snapshot_states();
    put_u64(&mut buf, states.len() as u64);
    for (key, state) in states {
        put_u32(&mut buf, key.rank as u32);
        put_u64(&mut buf, key.block as u64);
        match state {
            AreaState::Virgin => put_u8(&mut buf, LOCKSET_VIRGIN),
            AreaState::Exclusive { owner, last } => {
                put_u8(&mut buf, LOCKSET_EXCLUSIVE);
                put_u32(&mut buf, *owner as u32);
                put_access(&mut buf, last);
            }
            AreaState::Shared { candidates, last } => {
                put_u8(&mut buf, LOCKSET_SHARED);
                let mut sorted: Vec<&LockId> = candidates.iter().collect();
                sorted.sort();
                put_u32(&mut buf, sorted.len() as u32);
                for lock in sorted {
                    put_lock(&mut buf, lock);
                }
                put_access(&mut buf, last);
            }
            AreaState::SharedModified {
                candidates,
                last,
                reported,
            } => {
                put_u8(&mut buf, LOCKSET_SHARED_MODIFIED);
                let mut sorted: Vec<&LockId> = candidates.iter().collect();
                sorted.sort();
                put_u32(&mut buf, sorted.len() as u32);
                for lock in sorted {
                    put_lock(&mut buf, lock);
                }
                put_access(&mut buf, last);
                put_u8(&mut buf, *reported as u8);
            }
        }
    }
    buf
}

/// Inverse of [`encode_lockset`].
pub(crate) fn decode_lockset(bytes: &[u8]) -> Result<Vec<(AreaKey, AreaState)>, SnapshotError> {
    let mut r = Reader::new(bytes);
    let count = r.u64("lockset states")?;
    let mut out = Vec::new();
    for _ in 0..count {
        let rank = r.u32("lockset rank")? as Rank;
        let block = r.u64("lockset block")? as usize;
        let key = AreaKey::new(rank, block);
        let state = match r.u8("lockset tag")? {
            LOCKSET_VIRGIN => AreaState::Virgin,
            LOCKSET_EXCLUSIVE => AreaState::Exclusive {
                owner: r.u32("lockset owner")? as Rank,
                last: take_access(&mut r)?,
            },
            LOCKSET_SHARED => {
                let lock_count = r.u32("lockset candidates")?;
                let mut candidates = std::collections::HashSet::new();
                for _ in 0..lock_count {
                    candidates.insert(take_lock(&mut r)?);
                }
                AreaState::Shared {
                    candidates,
                    last: take_access(&mut r)?,
                }
            }
            LOCKSET_SHARED_MODIFIED => {
                let lock_count = r.u32("lockset candidates")?;
                let mut candidates = std::collections::HashSet::new();
                for _ in 0..lock_count {
                    candidates.insert(take_lock(&mut r)?);
                }
                let last = take_access(&mut r)?;
                let reported = match r.u8("lockset reported")? {
                    0 => false,
                    1 => true,
                    _ => {
                        return Err(SnapshotError::Malformed {
                            what: "lockset reported",
                        })
                    }
                };
                AreaState::SharedModified {
                    candidates,
                    last,
                    reported,
                }
            }
            _ => {
                return Err(SnapshotError::Malformed {
                    what: "lockset tag",
                })
            }
        };
        out.push((key, state));
    }
    r.finish()?;
    Ok(out)
}

/// Encode the vanilla baseline (just its op counter).
pub(crate) fn encode_vanilla(ops_seen: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, ops_seen);
    buf
}

// ---------------------------------------------------------------------------
// Session blob
// ---------------------------------------------------------------------------

/// The header of a checkpoint blob, decodable without rebuilding the
/// detector — what a service needs to finalise a parked session cheaply
/// (its config, resume watermark, and summary at checkpoint time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// The session's `DetectorConfig`, as canonical JSON.
    pub config_json: String,
    /// Events the session had applied at checkpoint time (the resume
    /// watermark a reconnecting client acks against).
    pub events: u64,
    /// The running `RaceSummary` at checkpoint time, as canonical JSON.
    pub summary_json: String,
}

/// Decode only the header of a checkpoint blob (version check included).
pub fn peek_header(bytes: &[u8]) -> Result<SnapshotHeader, SnapshotError> {
    let mut r = Reader::new(bytes);
    let version = r.u8("version")?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnknownVersion { got: version });
    }
    let config_json = r.utf8("config json")?.to_string();
    let events = r.u64("event count")?;
    let summary_json = r.utf8("summary json")?.to_string();
    Ok(SnapshotHeader {
        config_json,
        events,
        summary_json,
    })
}

#[derive(Debug)]
pub(crate) struct SessionParts {
    pub(crate) config: DetectorConfig,
    pub(crate) events: u64,
    pub(crate) summary: RaceSummary,
    pub(crate) sink_state: Option<Vec<u8>>,
    pub(crate) detector_state: Vec<u8>,
}

pub(crate) fn encode_session(
    config: &DetectorConfig,
    events: u64,
    summary: &RaceSummary,
    sink: &dyn ReportSink,
    detector: &dyn Detector,
) -> Result<Vec<u8>, SnapshotError> {
    let detector_state = detector.snapshot_state().ok_or(SnapshotError::Unsupported(
        "this detector has no snapshot representation",
    ))?;
    let mut buf = Vec::new();
    put_u8(&mut buf, SNAPSHOT_VERSION);
    put_bytes(&mut buf, config.to_json().as_bytes());
    put_u64(&mut buf, events);
    put_bytes(&mut buf, summary.to_json().as_bytes());
    match sink.snapshot_state() {
        Some(state) => {
            put_u8(&mut buf, 1);
            put_bytes(&mut buf, &state);
        }
        None => put_u8(&mut buf, 0),
    }
    put_bytes(&mut buf, &detector_state);
    Ok(buf)
}

pub(crate) fn decode_session(bytes: &[u8]) -> Result<SessionParts, SnapshotError> {
    let mut r = Reader::new(bytes);
    let version = r.u8("version")?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnknownVersion { got: version });
    }
    let config_json = r.utf8("config json")?;
    let config = DetectorConfig::from_json(config_json).map_err(SnapshotError::BadConfig)?;
    let events = r.u64("event count")?;
    let summary_json = r.utf8("summary json")?;
    let summary = RaceSummary::from_json(summary_json).map_err(SnapshotError::BadSummary)?;
    let sink_state = match r.u8("sink flag")? {
        0 => None,
        1 => Some(r.bytes("sink state")?.to_vec()),
        _ => return Err(SnapshotError::Malformed { what: "sink flag" }),
    };
    let detector_state = r.bytes("detector state")?.to_vec();
    r.finish()?;
    Ok(SessionParts {
        config,
        events,
        summary,
        sink_state,
        detector_state,
    })
}

/// Rebuild the configured detector from its snapshot payload.
pub(crate) fn restore_detector(
    config: &DetectorConfig,
    state: &[u8],
) -> Result<Box<dyn Detector>, SnapshotError> {
    match config.kind.hb_mode() {
        Some(mode) => Ok(Box::new(decode_hb(config, mode, state)?)),
        None if config.kind == DetectorKind::Lockset => {
            let mut detector = LocksetDetector::new(config.n, config.granularity);
            detector.restore_states(decode_lockset(state)?);
            Ok(Box::new(detector))
        }
        None => {
            let mut r = Reader::new(state);
            let ops_seen = r.u64("ops seen")?;
            r.finish()?;
            Ok(Box::new(VanillaDetector::from_ops_seen(ops_seen)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_version_is_typed() {
        let blob = vec![SNAPSHOT_VERSION + 41, 0, 0, 0, 0];
        assert_eq!(
            decode_session(&blob).unwrap_err(),
            SnapshotError::UnknownVersion {
                got: SNAPSHOT_VERSION + 41
            }
        );
        assert_eq!(
            peek_header(&blob).unwrap_err(),
            SnapshotError::UnknownVersion {
                got: SNAPSHOT_VERSION + 41
            }
        );
    }

    #[test]
    fn truncation_is_typed_never_panics() {
        let config = DetectorConfig::new(DetectorKind::Dual, 2);
        let mut session = config.session();
        let blob = session.checkpoint().expect("checkpoint");
        for keep in 0..blob.len() {
            assert!(decode_session(&blob[..keep]).is_err());
        }
        // The full blob decodes.
        assert!(decode_session(&blob).is_ok());
    }
}
