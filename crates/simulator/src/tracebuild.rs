//! Trace construction for the offline oracle.
//!
//! Records every access in memory-apply order together with the
//! *program-level* happens-before edges: lock hand-offs, barriers, and data
//! flow (a read sees the writes whose bytes it observes — in this model data
//! movement carries causality, because the messages carry the clocks,
//! §IV-B). The locks the detection algorithms take internally are **not**
//! recorded: they serialise physical application but are not program
//! synchronisation, and including them would make every pair ordered and
//! define races out of existence.

use std::collections::hash_map::{Entry, HashMap};

use dsm::addr::{MemRange, Segment};
use race_core::report::WordHashState;
use race_core::{AccessKind, LockId, Trace, TraceAccess};

use crate::Rank;

/// Bytes per word of the write registry's index.
const WORD: usize = 8;

/// Incremental trace builder used by the engine.
#[derive(Debug)]
pub struct TraceBuilder {
    trace: Trace,
    /// Last recorded access id per process (edge sources).
    last_access: Vec<Option<u64>>,
    /// Edge sources waiting to attach to a process's next access.
    pending_edges: Vec<Vec<u64>>,
    /// Per lock id: last access of the most recent releaser.
    lock_last: HashMap<LockId, u64>,
    /// Write registry for data-flow edges: every recorded write in apply
    /// order, as (range, write access id).
    writes: Vec<(MemRange, u64)>,
    /// Index of `writes` by (owner, segment, 8-byte word): per word, the
    /// chain through `links` of the writes holding a byte of it, oldest
    /// first. One link per word a write covers, so the index is as large as
    /// the writes recorded (times their width in words), whatever the
    /// address space.
    by_word: HashMap<(Rank, Segment, usize), Chain, WordHashState>,
    /// The chains' links: (position in `writes`, next link of the word).
    links: Vec<(usize, usize)>,
    /// Scratch: the positions a read gathers from its words' chains.
    gathered: Vec<usize>,
    /// Index entries visited by reads so far.
    visited: u64,
}

/// One word's chain in [`TraceBuilder::links`].
#[derive(Debug, Clone, Copy)]
struct Chain {
    first: usize,
    last: usize,
}

/// "No next link".
const END: usize = usize::MAX;

/// The words of the registry index that `range` holds a byte of.
fn words_of(range: &MemRange) -> std::ops::Range<usize> {
    if range.len == 0 {
        return 0..0;
    }
    range.addr.offset / WORD..(range.end() - 1) / WORD + 1
}

impl TraceBuilder {
    /// A builder for `n` processes.
    pub fn new(n: usize) -> Self {
        TraceBuilder {
            trace: Trace::new(n),
            last_access: vec![None; n],
            pending_edges: vec![Vec::new(); n],
            lock_last: HashMap::new(),
            writes: Vec::new(),
            by_word: HashMap::default(),
            links: Vec::new(),
            gathered: Vec::new(),
            visited: 0,
        }
    }

    /// A builder for `n` processes whose programs hold `instrs`
    /// instructions between them: room for one access per instruction is
    /// reserved up front, so the trace does not regrow on the way there.
    pub fn with_capacity(n: usize, instrs: usize) -> Self {
        let mut builder = TraceBuilder::new(n);
        builder.trace.events.reserve(instrs);
        builder
    }

    /// Record an access applied to memory *now* (apply order = call order).
    pub fn record_access(&mut self, id: u64, process: Rank, kind: AccessKind, range: MemRange) {
        self.record_access_ext(id, process, kind, range, false);
    }

    /// Like [`TraceBuilder::record_access`] with the NIC-atomic flag.
    pub fn record_access_ext(
        &mut self,
        id: u64,
        process: Rank,
        kind: AccessKind,
        range: MemRange,
        atomic: bool,
    ) {
        // Attach deferred edges (lock hand-offs, barrier releases).
        for src in self.pending_edges[process].drain(..) {
            self.trace.push_edge(src, id);
        }

        let key = |word| (range.addr.rank, range.addr.segment, word);
        if kind == AccessKind::Read {
            // Data flow: absorb edges from every prior write overlapping the
            // range, in the order the writes were applied — causality
            // reaches the reader's *later* events only (check-then-absorb,
            // Algorithm 2). All prior writes, not just the live value: the
            // protocol's `W` is the *join* of every writer's clock
            // (update_clock_W merges, never replaces), so a read becomes
            // causally dependent on overwritten writers too. The oracle
            // mirrors that so it measures the paper's happens-before, not a
            // value-precise one.
            //
            // Only writes sharing a word with the read are visited. Sharing
            // a word is not sharing a byte, and a write spanning several of
            // the read's words is gathered once per word: hence `overlaps`,
            // and the sort + dedup that also restores apply order.
            let words = words_of(&range);
            let several = words.len() > 1;
            self.gathered.clear();
            for word in words {
                let mut link = self.by_word.get(&key(word)).map_or(END, |c| c.first);
                while link != END {
                    let (at, next) = self.links[link];
                    self.gathered.push(at);
                    link = next;
                }
            }
            self.visited += self.gathered.len() as u64;
            if several {
                self.gathered.sort_unstable();
                self.gathered.dedup();
            }
            for &at in &self.gathered {
                let (written, wid) = &self.writes[at];
                if written.overlaps(&range) {
                    self.trace.push_absorb_edge(*wid, id);
                }
            }
        }

        self.trace.push_access(TraceAccess {
            id,
            process,
            kind,
            range,
            atomic,
        });
        self.last_access[process] = Some(id);

        if kind == AccessKind::Write {
            // Keep every write (see the absorb-edge note above); bounded by
            // the run length, which is fine at debugging scale.
            let at = self.writes.len();
            self.writes.push((range, id));
            for word in words_of(&range) {
                let link = self.links.len();
                self.links.push((at, END));
                match self.by_word.entry(key(word)) {
                    Entry::Occupied(mut chain) => {
                        let chain = chain.get_mut();
                        self.links[chain.last].1 = link;
                        chain.last = link;
                    }
                    Entry::Vacant(slot) => {
                        slot.insert(Chain {
                            first: link,
                            last: link,
                        });
                    }
                }
            }
        }
    }

    /// Index entries that reads have visited so far: what the data-flow
    /// edges cost, as a count that repeats exactly.
    pub fn registry_visits(&self) -> u64 {
        self.visited
    }

    /// A program-level lock on `lock` was released by `process`.
    pub fn on_unlock(&mut self, lock: LockId, process: Rank) {
        if let Some(id) = self.last_access[process] {
            self.lock_last.insert(lock, id);
        }
    }

    /// A program-level lock on `lock` was granted to `process`.
    pub fn on_lock_granted(&mut self, lock: LockId, process: Rank) {
        if let Some(&src) = self.lock_last.get(&lock) {
            self.pending_edges[process].push(src);
        }
    }

    /// A barrier released: every process's next access is ordered after
    /// every process's last access.
    pub fn on_barrier_release(&mut self) {
        let sources: Vec<u64> = self.last_access.iter().flatten().copied().collect();
        for p in 0..self.pending_edges.len() {
            self.pending_edges[p].extend(sources.iter().copied());
        }
    }

    /// Finish and return the trace.
    pub fn finish(self) -> Trace {
        self.trace
    }

    /// Peek at the trace so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm::addr::GlobalAddr;
    use race_core::Oracle;

    fn w(off: usize) -> MemRange {
        GlobalAddr::public(0, off).range(8)
    }

    #[test]
    fn plain_conflicting_writes_race() {
        let mut b = TraceBuilder::new(2);
        b.record_access(1, 0, AccessKind::Write, w(0));
        b.record_access(3, 1, AccessKind::Write, w(0));
        let o = Oracle::analyze(&b.finish());
        assert_eq!(o.truth().len(), 1);
    }

    #[test]
    fn lock_handoff_orders() {
        let lock: LockId = (0, 0);
        let mut b = TraceBuilder::new(2);
        b.record_access(1, 0, AccessKind::Write, w(0));
        b.on_unlock(lock, 0);
        b.on_lock_granted(lock, 1);
        b.record_access(3, 1, AccessKind::Write, w(0));
        let o = Oracle::analyze(&b.finish());
        assert!(o.truth().is_empty(), "lock hand-off creates HB");
    }

    #[test]
    fn barrier_orders_everything_before_after() {
        let mut b = TraceBuilder::new(2);
        b.record_access(1, 0, AccessKind::Write, w(0));
        b.on_barrier_release();
        b.record_access(3, 1, AccessKind::Write, w(0));
        let o = Oracle::analyze(&b.finish());
        assert!(o.truth().is_empty());
    }

    #[test]
    fn dataflow_orders_later_events_not_the_read() {
        let mut b = TraceBuilder::new(3);
        b.record_access(1, 0, AccessKind::Write, w(0));
        b.record_access(3, 1, AccessKind::Read, w(0));
        // P1's subsequent write is ordered after P0's write through the
        // absorb edge; the unsynchronised read itself still races.
        b.record_access(5, 1, AccessKind::Write, w(0));
        let o = Oracle::analyze(&b.finish());
        assert_eq!(o.truth(), &[(1, 3)]);
    }

    #[test]
    fn reads_absorb_every_prior_write() {
        let mut b = TraceBuilder::new(3);
        b.record_access(1, 0, AccessKind::Write, w(0));
        b.record_access(3, 1, AccessKind::Write, w(0)); // races with 1 (WW)
        b.record_access(5, 2, AccessKind::Read, w(0));
        let o = Oracle::analyze(&b.finish());
        // All three pairs are unsynchronised conflicts: (1,3) WW, and the
        // read races with both writes (absorb edges never order the read
        // itself).
        assert!(o.truth().contains(&(1, 3)));
        assert!(o.truth().contains(&(1, 5)));
        assert!(o.truth().contains(&(3, 5)));
        // But anything P2 does *after* the read is ordered behind BOTH
        // writes — the protocol's W is the join of all writers.
        let mut b = TraceBuilder::new(3);
        b.record_access(1, 0, AccessKind::Write, w(0));
        b.record_access(3, 1, AccessKind::Write, w(0));
        b.record_access(5, 2, AccessKind::Read, w(0));
        b.record_access(7, 2, AccessKind::Write, w(0));
        let o = Oracle::analyze(&b.finish());
        assert!(
            !o.truth().contains(&(1, 7)),
            "post-read write ordered after w1"
        );
        assert!(
            !o.truth().contains(&(3, 7)),
            "post-read write ordered after w3"
        );
    }

    #[test]
    fn unlock_without_prior_access_is_harmless() {
        let mut b = TraceBuilder::new(2);
        b.on_unlock((0, 0), 0);
        b.on_lock_granted((0, 0), 1);
        b.record_access(1, 1, AccessKind::Write, w(0));
        assert_eq!(b.trace().edges.len(), 0);
    }
}
