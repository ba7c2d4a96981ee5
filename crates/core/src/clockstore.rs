//! Per-area clock storage (§IV, §IV-C/D).
//!
//! "Each process associates two clocks to areas of shared memory: a
//! general-purpose clock `V` and a write clock `W` that keeps track of the
//! latest write operation." (§IV-A)
//!
//! The paper leaves the size of an "area" open ("a clock must be used for
//! each shared piece of data", §V-A); we make it a configurable
//! [`Granularity`] — per 8-byte word, per cache line, per page, or any
//! power-of-two block — and quantify the memory/precision trade-off in the
//! ABL-gran experiment. Beyond the paper's two clocks, each area keeps
//! short *antichains* of the most recent mutually-concurrent writes and
//! reads so that reports can name the exact conflicting access (the paper's
//! `signal_race_condition()` is unspecified about attribution); the §IV-D
//! memory accounting intentionally counts only the `V`/`W` clocks to match
//! the paper's claim.
//!
//! Three hot-path optimisations over the naive layout (see `hb` for the
//! detector that exploits them):
//!
//! * an antichain entry (an [`AccessSummary`]) keeps its clock as the
//!   *event* `(process, count)` it is, beside a copy of the actor's row
//!   that many entries share: pruning an antichain and checking an access
//!   against it cost one integer test per entry (Lemma 1 for an event
//!   clock), a report names the entry by sharing that row, and a full
//!   vector exists only where one is asked for — a demotion, a read
//!   absorbing the area, and printing or encoding a clock.
//! * `V`/`W` are adaptive [`AreaClock`]s: while an area's accesses stay
//!   totally ordered the clocks are FastTrack-style **epochs** and every
//!   compare/update is O(1); they demote to full vectors only on genuine
//!   concurrency (and re-promote once an access dominates again).
//! * the store is a **flat per-rank slab**: per owning rank, a bounded
//!   dense array indexed directly by block number (no hashing on the hot
//!   path) with a spillover map for blocks beyond the dense prefix, so
//!   memory never scales with the highest touched block index.

use dsm::addr::{MemRange, Segment};
use vclock::{AreaClock, Epoch, VectorClock};

use crate::event::{raise, AccessSummary};
use crate::Rank;

/// Clock granularity: one `(V, W)` pair per `block_bytes` block of public
/// memory. Must be a power of two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Granularity {
    block_bytes: usize,
}

impl Granularity {
    /// One clock pair per 8-byte word — the finest practical granularity
    /// ("a clock for each shared piece of data").
    pub const WORD: Granularity = Granularity { block_bytes: 8 };
    /// One clock pair per 64-byte cache line.
    pub const CACHE_LINE: Granularity = Granularity { block_bytes: 64 };
    /// One clock pair per 4 KiB page (coarse, cheap, imprecise).
    pub const PAGE: Granularity = Granularity { block_bytes: 4096 };

    /// Custom power-of-two block size.
    ///
    /// # Panics
    /// Panics unless `block_bytes` is a power of two.
    pub fn block(block_bytes: usize) -> Granularity {
        assert!(
            block_bytes.is_power_of_two(),
            "granularity must be a power of two, got {block_bytes}"
        );
        Granularity { block_bytes }
    }

    /// Block size in bytes.
    pub fn block_bytes(&self) -> usize {
        self.block_bytes
    }

    /// Index of the block containing `offset`.
    #[inline]
    pub fn block_of(&self, offset: usize) -> usize {
        offset / self.block_bytes
    }

    /// Block indices covered by `range`, allocation-free. Empty for
    /// private or zero-length ranges (private memory is single-owner and
    /// cannot race, §IV-A). A range running past the end of the address
    /// space is clocked up to the last block: computed from the last byte,
    /// so `offset + len` is never formed and cannot wrap to an empty —
    /// silently unclocked — range.
    #[inline]
    pub fn blocks_of(&self, range: &MemRange) -> std::ops::RangeInclusive<usize> {
        if range.addr.segment != Segment::Public || range.len == 0 {
            #[expect(
                clippy::reversed_empty_ranges,
                reason = "an inclusive range with start > end iterates zero times"
            )]
            return 1..=0;
        }
        let last_byte = range.addr.offset.saturating_add(range.len - 1);
        self.block_of(range.addr.offset)..=self.block_of(last_byte)
    }
}

/// Identifies one clocked area: a block of one rank's public segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AreaKey {
    /// Owning rank.
    pub rank: Rank,
    /// Block index within the public segment.
    pub block: usize,
}

impl AreaKey {
    /// Construct directly.
    pub fn new(rank: Rank, block: usize) -> Self {
        AreaKey { rank, block }
    }
}

impl std::fmt::Display for AreaKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{}#b{}", self.rank, self.block)
    }
}

/// Clock state and recent-access history for one area.
#[derive(Debug, Clone, Default)]
pub struct AreaHistory {
    /// General-purpose clock: join of every access's clock (adaptive epoch
    /// representation; see [`AreaClock`]).
    pub v: AreaClock,
    /// Write clock: join of every write's clock.
    pub w: AreaClock,
    /// Antichain of recent writes (pairwise concurrent).
    pub writes: Vec<AccessSummary>,
    /// Antichain of recent reads not yet superseded.
    pub reads: Vec<AccessSummary>,
}

/// `dst ∨= C(e)` for the epoch event `e`, looked up in the given antichains.
///
/// Invariant (maintained by `prune_for_*`/`push`): an `AreaClock` in
/// `Epoch` state always names a *live* antichain entry — the event that
/// last dominated the area. Searched newest-first; the entry is typically
/// the last one. An atomic's read and write share `(process, count)` and
/// the clock, so which of the two is found does not matter.
fn merge_event(writes: &[AccessSummary], reads: &[AccessSummary], e: Epoch, dst: &mut VectorClock) {
    let mut live = writes.iter().rev().chain(reads.iter().rev());
    match live.find(|p| p.process == e.rank && p.count == e.count) {
        Some(p) => p.merge_into(dst),
        // Only a restored snapshot whose clocks were forged to break
        // Lemma 1 loses its epoch event; all that is known of it then is
        // the event itself.
        None => raise(dst, e.rank, e.count),
    }
}

/// Drop from `chain` the entries that precede `row` — all of them when the
/// join they belong to does (`join_le`) — showing `concurrent` the rest.
fn prune(
    chain: &mut Vec<AccessSummary>,
    row: &VectorClock,
    join_le: bool,
    concurrent: &mut impl FnMut(&AccessSummary),
) {
    if join_le {
        chain.clear();
    } else {
        chain.retain(|p| {
            let unordered = !p.leq_row(row);
            if unordered {
                concurrent(p);
            }
            unordered
        });
    }
}

impl AreaHistory {
    fn new() -> Self {
        AreaHistory::default()
    }

    /// First half of recording a write whose clock is `row`: drop what it
    /// supersedes, keep what is concurrent with it.
    ///
    /// Fast path: when the area's join precedes the new clock (an O(1)
    /// epoch test while ordered), *every* recorded entry is superseded and
    /// the antichains reset without a single compare. An entry can never
    /// be causally *after* the new access (its clock would need the
    /// actor's fresh tick), so "keep the concurrent ones" and "drop
    /// everything ≤ new" are the same filter — and for the recorded
    /// *event* clocks that filter is [`AccessSummary::leq_row`].
    ///
    /// The guards `v ≤ row` / `w ≤ row` come from the caller, which
    /// computes each exactly once per access and shares it between
    /// check, absorb and record. Crate-private: an inconsistent hint would
    /// corrupt the antichain invariant, and [`AreaHistory::push`] must
    /// follow.
    ///
    /// `concurrent` sees, before anything is updated, every recorded entry
    /// whose clock is concurrent with `row` — the writes in antichain
    /// order, then the reads. Those are exactly the entries the antichains
    /// keep, so the detector's race check (Algorithm 3) rides on the pass
    /// that prunes them instead of walking each antichain twice.
    pub(crate) fn prune_for_write(
        &mut self,
        row: &VectorClock,
        v_le: bool,
        w_le: bool,
        mut concurrent: impl FnMut(&AccessSummary),
    ) {
        debug_assert_eq!(w_le, self.w.leq(row));
        prune(&mut self.writes, row, w_le, &mut concurrent);
        self.prune_for_read(row, v_le, concurrent);
    }

    /// First half of recording a read whose clock is `row`: drop the reads
    /// it supersedes (see [`AreaHistory::prune_for_write`]; a read leaves
    /// the write antichain alone).
    pub(crate) fn prune_for_read(
        &mut self,
        row: &VectorClock,
        v_le: bool,
        mut concurrent: impl FnMut(&AccessSummary),
    ) {
        debug_assert_eq!(v_le, self.v.leq(row));
        prune(&mut self.reads, row, v_le, &mut concurrent);
    }

    /// Second half of recording: join `row` — the full clock of `entry` —
    /// into the area clocks (Algorithm 5) and append the entry.
    pub(crate) fn push(&mut self, entry: AccessSummary, row: &VectorClock) {
        debug_assert_eq!(row.get(entry.process), entry.count);
        debug_assert!(entry.row.get(entry.process) <= entry.count);
        // Demotion resolvers look the epoch event up in the *pre-push*
        // antichains: a concurrent (non-dominated) epoch event is always
        // retained by the prune.
        let (writes, reads) = (&self.writes, &self.reads);
        let resolve = |e| {
            let mut clock = VectorClock::zero(row.len());
            merge_event(writes, reads, e, &mut clock);
            clock
        };
        self.v.record(entry.process, row, resolve);
        if entry.kind.is_write() {
            self.w.record(entry.process, row, resolve);
            self.writes.push(entry);
        } else {
            self.reads.push(entry);
        }
    }

    /// Whether every recorded entry obeys the lemma the integer tests rest
    /// on, against `row`, the clock of a new access: `C(e) ≤ row` exactly
    /// when `row` knows the event, and the two concurrent otherwise.
    /// O(entries × n) and allocation-free: for `debug_assert!`s and tests.
    pub fn obeys_lemma(&self, row: &VectorClock) -> bool {
        self.writes.iter().chain(&self.reads).all(|p| {
            // Full-vector dominance, both directions (Corollary 1).
            let (mut behind, mut ahead) = (false, false);
            for (c, r) in p.components().zip(row.components()) {
                behind |= c < *r;
                ahead |= c > *r;
            }
            // Known ⟺ `C(e) ≤ row`; unknown ⟹ `row` is not below it either.
            let known = p.leq_row(row);
            known != ahead && (known || behind)
        })
    }

    /// Merge the area's write clock into `dst` (the get-reply absorption).
    pub fn merge_w_into(&self, dst: &mut VectorClock) {
        self.w
            .merge_into(dst, |e, dst| merge_event(&self.writes, &[], e, dst));
    }

    /// Merge the area's general clock into `dst` (Single/Literal modes).
    pub fn merge_v_into(&self, dst: &mut VectorClock) {
        self.v
            .merge_into(dst, |e, dst| merge_event(&self.writes, &self.reads, e, dst));
    }
}

/// Blocks held in the direct-indexed dense prefix of each rank's slab:
/// 65536 (offsets up to 512 KiB at WORD granularity). Blocks at or above
/// it fall back to the spillover map, so a rank's slab never exceeds
/// `DENSE_BLOCKS × size_of::<Option<AreaHistory>>()` = 65536 × 96 B =
/// 6 MiB plus one map entry per touched sparse area — never a dense array
/// spanning the highest touched block — and a whole store at most
/// `DetectorConfig::MAX_N` times that. Nothing a config or a stream sends
/// can move the bound.
const DENSE_BLOCKS: usize = 1 << 16;

/// The clock table for the whole global address space, from the omniscient
/// simulator's point of view. (In a real deployment each rank's NIC holds
/// the rows for its own areas; the `simulator` engine charges the
/// corresponding clock messages when an actor touches a remote area.)
///
/// Storage is a flat per-rank slab indexed by block number — no hashing on
/// the access path for the first 65536 blocks of each segment, with a
/// spillover map above that bound, so one word written at the end of a
/// huge public segment costs one map entry, never a dense array spanning
/// the whole segment.
#[derive(Debug)]
pub struct ClockStore {
    n: usize,
    granularity: Granularity,
    dual: bool,
    /// One slab per owning rank.
    slabs: Vec<RankSlab>,
    /// Number of touched areas across all slabs.
    touched: usize,
}

/// Per-rank area storage: dense direct-indexed prefix (the hot path — two
/// array indexings, no hashing) plus a map for pathological high blocks.
#[derive(Debug, Default)]
struct RankSlab {
    dense: Vec<Option<AreaHistory>>,
    sparse: std::collections::HashMap<usize, AreaHistory>,
}

impl RankSlab {
    fn get(&self, block: usize) -> Option<&AreaHistory> {
        if block < DENSE_BLOCKS {
            self.dense.get(block)?.as_ref()
        } else {
            self.sparse.get(&block)
        }
    }

    fn iter(&self) -> impl Iterator<Item = &AreaHistory> {
        self.dense.iter().flatten().chain(self.sparse.values())
    }
}

impl ClockStore {
    /// A store for `n` processes at `granularity`. `dual` selects whether a
    /// separate write clock is kept (§IV-D memory accounting: the dual
    /// store costs exactly twice the single store).
    pub fn new(n: usize, granularity: Granularity, dual: bool) -> Self {
        ClockStore {
            n,
            granularity,
            dual,
            slabs: (0..n).map(|_| RankSlab::default()).collect(),
            touched: 0,
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The configured granularity.
    pub fn granularity(&self) -> Granularity {
        self.granularity
    }

    /// The history for `key`, creating a zeroed one on first touch.
    #[inline]
    pub fn history_mut(&mut self, key: AreaKey) -> &mut AreaHistory {
        if key.rank >= self.slabs.len() {
            self.slabs.resize_with(key.rank + 1, RankSlab::default);
        }
        let slab = &mut self.slabs[key.rank];
        if key.block < DENSE_BLOCKS {
            if key.block >= slab.dense.len() {
                slab.dense.resize_with(key.block + 1, || None);
            }
            let slot = &mut slab.dense[key.block];
            if slot.is_none() {
                *slot = Some(AreaHistory::new());
                self.touched += 1;
            }
            #[expect(
                clippy::expect_used,
                reason = "the slot is written `Some` on the line above; this is a get-or-insert split to satisfy the borrow checker."
            )]
            slot.as_mut().expect("just filled")
        } else {
            // Spillover for blocks beyond the bounded dense prefix.
            match slab.sparse.entry(key.block) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    self.touched += 1;
                    e.insert(AreaHistory::new())
                }
            }
        }
    }

    /// Read-only history access.
    pub fn history(&self, key: &AreaKey) -> Option<&AreaHistory> {
        self.slabs.get(key.rank)?.get(key.block)
    }

    /// Number of areas that have been touched.
    pub fn touched_areas(&self) -> usize {
        self.touched
    }

    /// Bytes of clock storage in the paper's accounting: one `n`-component
    /// clock per touched area, doubled when `dual` (§IV-D: "it doubles the
    /// necessary amount of memory").
    pub fn clock_memory_bytes(&self) -> usize {
        let per_clock = self.n * std::mem::size_of::<u64>();
        self.touched * per_clock * if self.dual { 2 } else { 1 }
    }

    /// Every touched area with its key, in deterministic order (sorted by
    /// [`AreaKey`]): per rank, the dense prefix by block index, then the
    /// spillover map sorted by block. Snapshot codecs rely on this order so
    /// that encoding the same store twice yields identical bytes.
    pub fn sorted_entries(&self) -> Vec<(AreaKey, &AreaHistory)> {
        let mut out = Vec::with_capacity(self.touched);
        for (rank, slab) in self.slabs.iter().enumerate() {
            for (block, slot) in slab.dense.iter().enumerate() {
                if let Some(history) = slot {
                    out.push((AreaKey::new(rank, block), history));
                }
            }
            let mut sparse: Vec<(&usize, &AreaHistory)> = slab.sparse.iter().collect();
            sparse.sort_by_key(|(block, _)| **block);
            for (block, history) in sparse {
                out.push((AreaKey::new(rank, *block), history));
            }
        }
        out
    }

    /// How many touched areas currently hold both clocks in the O(1) epoch
    /// representation (instrumentation for benches and tests).
    pub fn epoch_areas(&self) -> usize {
        self.slabs
            .iter()
            .flat_map(RankSlab::iter)
            .filter(|h| h.v.is_epoch() && h.w.is_epoch())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::AccessKind;
    use dsm::addr::GlobalAddr;
    use std::sync::Arc;

    /// One-call recording and whole-vector views, for the tests alone:
    /// the detector records through `prune_for_*` + `push`.
    impl AreaHistory {
        fn record_write(&mut self, entry: AccessSummary) {
            let row = entry.clock().into_owned();
            let (v_le, w_le) = (self.v.leq(&row), self.w.leq(&row));
            self.prune_for_write(&row, v_le, w_le, |_| {});
            self.push(entry, &row);
        }

        fn record_read(&mut self, entry: AccessSummary) {
            let row = entry.clock().into_owned();
            let v_le = self.v.leq(&row);
            self.prune_for_read(&row, v_le, |_| {});
            self.push(entry, &row);
        }

        fn w_vector(&self, n: usize) -> VectorClock {
            let mut out = VectorClock::zero(n);
            self.merge_w_into(&mut out);
            out
        }

        fn v_vector(&self, n: usize) -> VectorClock {
            let mut out = VectorClock::zero(n);
            self.merge_v_into(&mut out);
            out
        }
    }

    /// The area keys `range` covers at `granularity`.
    fn areas_for(granularity: Granularity, range: &MemRange) -> Vec<AreaKey> {
        granularity
            .blocks_of(range)
            .map(|block| AreaKey::new(range.addr.rank, block))
            .collect()
    }

    /// The entry of a write known by its full clock.
    fn summary(id: u64, process: usize, clock: Vec<u64>) -> AccessSummary {
        AccessSummary {
            id,
            process,
            kind: AccessKind::Write,
            range: GlobalAddr::public(0, 0).range(8),
            atomic: false,
            count: clock[process],
            row: Arc::new(VectorClock::from_components(clock)),
        }
    }

    #[test]
    fn entry_with_a_lagging_row_is_the_event_clock() {
        // P1's 5th tick, recorded against a row copied at its 3rd.
        let row = Arc::new(VectorClock::from_components(vec![2, 3, 0]));
        let e = AccessSummary {
            id: 9,
            process: 1,
            kind: AccessKind::Write,
            range: GlobalAddr::public(0, 0).range(8),
            atomic: false,
            count: 5,
            row: Arc::clone(&row),
        };
        assert_eq!(e.clock().components(), &[2, 5, 0]);
        assert_eq!(e.components().collect::<Vec<_>>(), vec![2, 5, 0]);
        assert!(e.leq_row(&VectorClock::from_components(vec![0, 5, 0])));
        assert!(!e.leq_row(&VectorClock::from_components(vec![9, 4, 9])));
        let mut dst = VectorClock::from_components(vec![0, 7, 1]);
        e.merge_into(&mut dst);
        assert_eq!(dst.components(), &[2, 7, 1]);
        // A lagging row is copied only when the full clock is asked for,
        // and the entry keeps sharing it; an exact row is lent as is.
        assert!(matches!(e.clock(), std::borrow::Cow::Owned(_)));
        assert!(Arc::ptr_eq(&e.clone().row, &row));
        let exact = summary(9, 1, vec![2, 5, 0]);
        assert!(matches!(exact.clock(), std::borrow::Cow::Borrowed(_)));
        // Equality and `Debug` see the full clock, not the row.
        assert_eq!(e, exact);
        assert_eq!(format!("{e:?}"), format!("{exact:?}"));
        assert_eq!(e.to_string(), exact.to_string());
    }

    #[test]
    fn granularity_must_be_power_of_two() {
        Granularity::block(16);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_granularity_panics() {
        Granularity::block(24);
    }

    #[test]
    fn areas_for_spanning_range() {
        // 20 bytes starting at offset 4 touch words 0, 1, 2.
        let r = GlobalAddr::public(1, 4).range(20);
        let areas = areas_for(Granularity::WORD, &r);
        assert_eq!(
            areas,
            vec![AreaKey::new(1, 0), AreaKey::new(1, 1), AreaKey::new(1, 2)]
        );
    }

    #[test]
    fn private_ranges_have_no_areas() {
        let r = GlobalAddr::private(0, 0).range(64);
        assert!(areas_for(Granularity::WORD, &r).is_empty());
    }

    #[test]
    fn zero_len_has_no_areas() {
        assert!(areas_for(Granularity::WORD, &GlobalAddr::public(0, 8).range(0)).is_empty());
    }

    #[test]
    fn a_range_past_the_end_of_the_address_space_keeps_its_areas() {
        // offset + len wraps: the parent computed `end() - 1` and got the
        // empty range in release, an overflow panic in debug.
        let r = GlobalAddr::public(1, usize::MAX - 3).range(8);
        assert_eq!(
            areas_for(Granularity::WORD, &r),
            vec![AreaKey::new(1, usize::MAX / 8)]
        );
        let r = GlobalAddr::public(1, usize::MAX - 11).range(usize::MAX);
        assert_eq!(areas_for(Granularity::WORD, &r).len(), 2);
    }

    #[test]
    fn coarser_granularity_fewer_areas() {
        let r = GlobalAddr::public(0, 0).range(4096);
        assert_eq!(areas_for(Granularity::WORD, &r).len(), 512);
        assert_eq!(areas_for(Granularity::PAGE, &r).len(), 1);
    }

    #[test]
    fn memory_accounting_doubles_for_dual() {
        let mut dual = ClockStore::new(4, Granularity::WORD, true);
        let mut single = ClockStore::new(4, Granularity::WORD, false);
        for s in [&mut dual, &mut single] {
            s.history_mut(AreaKey::new(0, 0));
            s.history_mut(AreaKey::new(0, 1));
        }
        assert_eq!(dual.clock_memory_bytes(), 2 * single.clock_memory_bytes());
        assert_eq!(single.clock_memory_bytes(), 2 * 4 * 8);
    }

    #[test]
    fn slab_indexing_matches_touch_accounting() {
        let mut s = ClockStore::new(2, Granularity::WORD, true);
        assert!(s.history(&AreaKey::new(0, 100)).is_none());
        s.history_mut(AreaKey::new(0, 100));
        s.history_mut(AreaKey::new(0, 100)); // idempotent
        s.history_mut(AreaKey::new(1, 3));
        assert_eq!(s.touched_areas(), 2);
        assert!(s.history(&AreaKey::new(0, 100)).is_some());
        assert!(s.history(&AreaKey::new(0, 99)).is_none());
        assert!(
            s.history(&AreaKey::new(5, 0)).is_none(),
            "out-of-range rank reads as untouched"
        );
    }

    #[test]
    fn write_antichain_supersedes_ordered_entries() {
        let mut h = AreaHistory::new();
        h.record_write(summary(1, 0, vec![1, 0]));
        // A later write by the same process supersedes the first.
        h.record_write(summary(3, 0, vec![2, 0]));
        assert_eq!(h.writes.len(), 1);
        assert_eq!(h.writes[0].id, 3);
        assert!(
            h.w.is_epoch(),
            "totally ordered writes stay on the epoch fast path"
        );
        // A concurrent write from the other process is kept alongside.
        h.record_write(summary(5, 1, vec![0, 1]));
        assert_eq!(h.writes.len(), 2);
        assert!(!h.w.is_epoch(), "concurrent writes demote the write clock");
        assert_eq!(h.w_vector(2).components(), &[2, 1]);
    }

    #[test]
    fn a_forged_history_that_lost_its_epoch_event_joins_the_event_alone() {
        // Two writes by different processes with the *same* clock cannot
        // come from an execution, but pass every structural check of the
        // snapshot decoder: each dominates the other, so `V` may name one
        // and `W` the other. A row that knows only `W`'s event then clears
        // the writes (`w ≤ row`) while `V` still demotes — and its epoch
        // event is gone. All that is left to join is the event itself.
        let mut h = AreaHistory::new();
        h.writes = vec![summary(1, 0, vec![3, 3, 0]), summary(3, 1, vec![3, 3, 0])];
        h.v = AreaClock::Epoch(Epoch { rank: 0, count: 3 });
        h.w = AreaClock::Epoch(Epoch { rank: 1, count: 3 });
        let row = VectorClock::from_components(vec![0, 3, 1]);
        let (v_le, w_le) = (h.v.leq(&row), h.w.leq(&row));
        assert!(w_le && !v_le && !h.obeys_lemma(&row));
        h.prune_for_write(&row, v_le, w_le, |_| {});
        h.push(summary(5, 2, row.components().to_vec()), &row);
        assert_eq!(h.v_vector(3).components(), &[3, 3, 1]);
        assert_eq!(h.writes.len(), 1);
    }

    #[test]
    fn read_recording_updates_v_not_w() {
        let mut h = AreaHistory::new();
        let mut read = summary(1, 0, vec![1, 0]);
        read.kind = AccessKind::Read;
        h.record_read(read);
        assert_eq!(h.v_vector(2).components(), &[1, 0]);
        assert_eq!(h.w_vector(2).components(), &[0, 0]);
        assert_eq!(h.reads.len(), 1);
    }

    #[test]
    fn write_clears_superseded_reads() {
        let mut h = AreaHistory::new();
        let mut read = summary(1, 0, vec![1, 0]);
        read.kind = AccessKind::Read;
        h.record_read(read);
        // Write causally after the read: read entry dropped.
        h.record_write(summary(3, 1, vec![1, 1]));
        assert!(h.reads.is_empty());
        assert_eq!(h.writes.len(), 1);
    }

    #[test]
    fn sparse_high_block_costs_one_chunk_not_a_dense_array() {
        // One word at the far end of a large segment (e.g. 1 GiB at WORD
        // granularity → block ≈ 134M) must allocate a single chunk, not a
        // slab spanning every block below it.
        let mut s = ClockStore::new(2, Granularity::WORD, true);
        let far = AreaKey::new(0, 134_217_727);
        s.history_mut(far);
        assert_eq!(s.touched_areas(), 1);
        assert!(s.history(&far).is_some());
        assert!(s.history(&AreaKey::new(0, 0)).is_none());
        // The dense prefix was never grown; the area lives in the map.
        assert!(s.slabs[0].dense.is_empty());
        assert_eq!(s.slabs[0].sparse.len(), 1);
    }

    #[test]
    fn configurable_dense_boundary_places_areas_correctly() {
        // Blocks 0..DENSE_BLOCKS are dense, the rest spill to the map.
        // Straddle the boundary: the last dense block, the first sparse
        // block, and one beyond.
        let (last, first, next) = (DENSE_BLOCKS - 1, DENSE_BLOCKS, DENSE_BLOCKS + 1);
        let mut s = ClockStore::new(2, Granularity::WORD, true);
        for block in [last, first, next] {
            s.history_mut(AreaKey::new(0, block)).record_write(summary(
                block as u64,
                0,
                vec![1, 0],
            ));
        }
        assert_eq!(s.touched_areas(), 3);
        assert_eq!(s.slabs[0].dense.len(), DENSE_BLOCKS, "dense prefix capped");
        assert_eq!(
            s.slabs[0].sparse.len(),
            2,
            "the two blocks above it spilled"
        );
        // Reads resolve across the boundary identically.
        for block in [last, first, next] {
            let h = s.history(&AreaKey::new(0, block)).expect("touched");
            assert_eq!(h.writes.len(), 1, "block {block}");
        }
        assert!(s.history(&AreaKey::new(0, next + 1)).is_none());
        // Re-touching an area on either side never double-counts.
        s.history_mut(AreaKey::new(0, last));
        s.history_mut(AreaKey::new(0, first));
        assert_eq!(s.touched_areas(), 3);
        // Accounting counts areas, wherever they live: three areas, two
        // clocks of two words each.
        assert_eq!(s.clock_memory_bytes(), 3 * 2 * 2 * 8);
    }

    #[test]
    fn epoch_area_instrumentation() {
        let mut s = ClockStore::new(2, Granularity::WORD, true);
        s.history_mut(AreaKey::new(0, 0))
            .record_write(summary(1, 0, vec![1, 0]));
        assert_eq!(s.epoch_areas(), 1);
        s.history_mut(AreaKey::new(0, 0))
            .record_write(summary(3, 1, vec![0, 1]));
        assert_eq!(s.epoch_areas(), 0);
    }
}
