//! Operations and accesses as the detectors see them.
//!
//! One DSM *operation* (a put, a get, or a local access) induces one or two
//! memory *accesses*: a put reads its local source and writes its remote
//! destination; a get reads its remote source and writes its local
//! destination. The paper's algorithms attach the race checks to these
//! accesses.

use std::borrow::Cow;
use std::sync::Arc;

use dsm::addr::{MemRange, Segment};
use vclock::VectorClock;

use crate::Rank;

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// The access observes data.
    Read,
    /// The access modifies data.
    Write,
}

impl AccessKind {
    /// True for writes.
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

/// Identity of a program lock: the canonical start of the locked range.
pub type LockId = (Rank, usize);

/// The operation shapes of §III-B plus local accesses (which the model
/// routes through the same rules — "no distinction is made between accesses
/// to public memory from a remote process and from the process that
/// actually maps this address space").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// One-sided write: copy `src` (local to the actor) into `dst`.
    Put {
        /// Actor-local source range (private or public).
        src: MemRange,
        /// Remote (or local) public destination.
        dst: MemRange,
    },
    /// One-sided read: copy `src` (anywhere public) into `dst` (local).
    Get {
        /// Source range in some process's public memory.
        src: MemRange,
        /// Actor-local destination (private or public).
        dst: MemRange,
    },
    /// The actor reads a range it maps itself.
    LocalRead {
        /// The range read.
        range: MemRange,
    },
    /// The actor writes a range it maps itself.
    LocalWrite {
        /// The range written.
        range: MemRange,
    },
    /// NIC-executed atomic read-modify-write on a public word (the §V-B
    /// "new operations" extension). Counts as a read *and* a write of the
    /// range, but two atomics on the same word never race with each other:
    /// the NIC serialises them (they are the model's synchronisation
    /// primitive, like `lock`).
    AtomicRmw {
        /// The word operated on.
        range: MemRange,
    },
}

/// One DSM operation presented to a detector.
///
/// `Copy`: an op is three plain words plus a [`OpKind`] of inline ranges,
/// so the session journal and the service's queues store ops by value
/// without heap traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DsmOp {
    /// Engine-assigned operation id; access ids derive from it (see
    /// [`DsmOp::read_access_id`] / [`DsmOp::write_access_id`]) so that
    /// online reports and the offline oracle name the same events.
    pub op_id: u64,
    /// The process performing the operation.
    pub actor: Rank,
    /// What the operation does.
    pub kind: OpKind,
}

impl DsmOp {
    /// The id of the read access this op induces (puts read `src`, gets
    /// read `src`, local reads read `range`).
    pub fn read_access_id(&self) -> u64 {
        2 * self.op_id
    }

    /// The id of the write access this op induces.
    pub fn write_access_id(&self) -> u64 {
        2 * self.op_id + 1
    }

    /// `(kind, range, access_id)` for each access the op performs, in the
    /// order the algorithms check them (read side first, then write side).
    ///
    /// Returns a fixed-capacity, stack-allocated list — the detector calls
    /// this once per observed operation and must not pay a heap allocation
    /// for it.
    pub fn accesses(&self) -> AccessList {
        match self.kind {
            OpKind::Put { src, dst } | OpKind::Get { src, dst } => AccessList::two(
                (AccessKind::Read, src, self.read_access_id()),
                (AccessKind::Write, dst, self.write_access_id()),
            ),
            OpKind::LocalRead { range } => {
                AccessList::one((AccessKind::Read, range, self.read_access_id()))
            }
            OpKind::LocalWrite { range } => {
                AccessList::one((AccessKind::Write, range, self.write_access_id()))
            }
            OpKind::AtomicRmw { range } => AccessList::two(
                (AccessKind::Read, range, self.read_access_id()),
                (AccessKind::Write, range, self.write_access_id()),
            ),
        }
    }

    /// True when this op's accesses are NIC-atomic (atomic-atomic pairs are
    /// serialised by the NIC and therefore never race).
    pub fn is_atomic(&self) -> bool {
        matches!(self.kind, OpKind::AtomicRmw { .. })
    }

    /// Public ranges this op touches on ranks other than the actor —
    /// the areas whose clocks live remotely (each costs clock messages
    /// when detection is enabled).
    pub fn remote_public_ranges(&self) -> Vec<MemRange> {
        self.accesses()
            .into_iter()
            .map(|(_, r, _)| r)
            .filter(|r| r.addr.segment == Segment::Public && r.addr.rank != self.actor)
            .collect()
    }
}

/// One event of a detection stream: a memory operation (Algorithms 1–3) or
/// a synchronisation message that carries a clock (§IV-B). The one
/// vocabulary every driver speaks — in-process sessions, the wire codec,
/// the session journal and the generated streams — so a remote stream and
/// an in-process replay of the same events agree byte-for-byte.
///
/// `Copy`, like [`DsmOp`]: queues and journals hold events by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A DSM operation to observe.
    Op(DsmOp),
    /// A barrier completed among all ranks.
    Barrier,
    /// `rank` acquired program lock `lock` (the grant carries the clock).
    Acquire {
        /// Acquiring process.
        rank: Rank,
        /// The lock.
        lock: LockId,
    },
    /// `rank` released program lock `lock` (the release carries its clock).
    Release {
        /// Releasing process.
        rank: Rank,
        /// The lock.
        lock: LockId,
    },
}

/// One `(kind, range, access_id)` entry of [`DsmOp::accesses`].
pub type Access = (AccessKind, MemRange, u64);

/// The accesses of one operation — at most two, held inline so iterating an
/// op's accesses never allocates.
#[derive(Debug, Clone, Copy)]
pub struct AccessList {
    items: [Access; 2],
    len: u8,
}

impl AccessList {
    fn one(a: Access) -> Self {
        AccessList {
            items: [a, a],
            len: 1,
        }
    }

    fn two(a: Access, b: Access) -> Self {
        AccessList {
            items: [a, b],
            len: 2,
        }
    }

    /// The accesses as a slice (read side first).
    pub fn as_slice(&self) -> &[Access] {
        &self.items[..self.len as usize]
    }
}

impl std::ops::Deref for AccessList {
    type Target = [Access];
    fn deref(&self) -> &[Access] {
        self.as_slice()
    }
}

impl IntoIterator for AccessList {
    type Item = Access;
    type IntoIter = std::iter::Take<std::array::IntoIter<Access, 2>>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter().take(self.len as usize)
    }
}

/// A recorded access: what a race report names and what an area's
/// antichain keeps. Its clock is stored as what it is, the clock of the
/// *event* `(process, count)`.
///
/// For an event clock the paper's Lemma 1 collapses to one integer test,
/// `C(e) ≤ C' ⟺ C'[process] ≥ count` ([`AccessSummary::leq_row`]) — all the
/// antichain prune and the race check need. The full clock `C(e)` is `row`
/// with component `process` raised to `count` ([`AccessSummary::clock`]).
/// `row` is a copy of the actor's row shared by every access the actor
/// records — and by every report naming one — until its knowledge of
/// *other* processes changes, so its own component may lag `count`. A
/// report therefore costs two `Arc` clones, and a full clock is built only
/// where one is printed, encoded or compared.
#[derive(Clone)]
pub struct AccessSummary {
    /// Globally unique access id (derived from the op id).
    pub id: u64,
    /// Performing process.
    pub process: Rank,
    /// Read or write.
    pub kind: AccessKind,
    /// Bytes touched.
    pub range: MemRange,
    /// True for accesses performed by a NIC-atomic operation.
    pub atomic: bool,
    /// The process's own clock component at the access (`C(e)[process]`).
    pub count: u64,
    /// Every other component of `C(e)`; `row[process] ≤ count`.
    pub row: Arc<VectorClock>,
}

impl AccessSummary {
    /// `C(e) ≤ row` for a clock `row` of the same execution — Lemma 1's
    /// event-clock form, one integer compare. `row` not knowing the event
    /// means the two are concurrent whenever `row` is the clock of a later
    /// access (a recorded access is never causally after a new one).
    #[inline]
    pub fn leq_row(&self, row: &VectorClock) -> bool {
        self.count <= row.get(self.process)
    }

    /// `dst ∨= C(e)` (Algorithm 4).
    pub fn merge_into(&self, dst: &mut VectorClock) {
        dst.merge(&self.row);
        raise(dst, self.process, self.count);
    }

    /// The components of the full clock `C(e)`, in rank order, without
    /// building it.
    pub fn components(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        let own = self.process;
        self.row
            .components()
            .iter()
            .enumerate()
            .map(move |(rank, &c)| if rank == own { self.count } else { c })
    }

    /// The full clock `C(e)`: the shared row itself when it is exact, a
    /// fresh copy with `count` in the own slot when the row lags. A row
    /// with no component for `process` is the clock as it is.
    pub fn clock(&self) -> Cow<'_, VectorClock> {
        match self.row.components().get(self.process) {
            Some(&own) if own != self.count => {
                let mut clock = VectorClock::clone(&self.row);
                clock.set(self.process, self.count);
                Cow::Owned(clock)
            }
            _ => Cow::Borrowed(&self.row),
        }
    }
}

/// `dst[rank] = max(dst[rank], count)`: `dst ∨=` the clock of the event
/// `(rank, count)`, as far as that event alone is known.
pub(crate) fn raise(dst: &mut VectorClock, rank: Rank, count: u64) {
    if dst.get(rank) < count {
        dst.set(rank, count);
    }
}

/// Equal accesses have equal full clocks, whether or not their rows lag.
impl PartialEq for AccessSummary {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
            && self.process == other.process
            && self.kind == other.kind
            && self.range == other.range
            && self.atomic == other.atomic
            && self.clock() == other.clock()
    }
}

/// Prints the full clock, as [`PartialEq`] compares it.
impl std::fmt::Debug for AccessSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccessSummary")
            .field("id", &self.id)
            .field("process", &self.process)
            .field("kind", &self.kind)
            .field("range", &self.range)
            .field("clock", &*self.clock())
            .field("atomic", &self.atomic)
            .finish()
    }
}

impl std::fmt::Display for AccessSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let k = match self.kind {
            AccessKind::Read => "R",
            AccessKind::Write => "W",
        };
        write!(
            f,
            "{k}#{} by P{} on {} @{}",
            self.id,
            self.process,
            self.range,
            self.clock()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm::addr::GlobalAddr;

    fn op(actor: Rank, kind: OpKind) -> DsmOp {
        DsmOp {
            op_id: 7,
            actor,
            kind,
        }
    }

    #[test]
    fn put_induces_read_then_write() {
        let src = GlobalAddr::private(0, 0).range(8);
        let dst = GlobalAddr::public(1, 0).range(8);
        let o = op(0, OpKind::Put { src, dst });
        let acc = o.accesses();
        assert_eq!(acc.len(), 2);
        assert_eq!(acc[0], (AccessKind::Read, src, 14));
        assert_eq!(acc[1], (AccessKind::Write, dst, 15));
    }

    #[test]
    fn local_ops_single_access() {
        let r = GlobalAddr::public(0, 0).range(8);
        assert_eq!(op(0, OpKind::LocalRead { range: r }).accesses().len(), 1);
        assert_eq!(op(0, OpKind::LocalWrite { range: r }).accesses().len(), 1);
    }

    #[test]
    fn remote_public_ranges_filters() {
        let src = GlobalAddr::private(0, 0).range(8);
        let dst = GlobalAddr::public(1, 0).range(8);
        let o = op(0, OpKind::Put { src, dst });
        assert_eq!(o.remote_public_ranges(), vec![dst]);

        // Local public destination: no remote clock traffic.
        let dst_local = GlobalAddr::public(0, 0).range(8);
        let o = op(
            0,
            OpKind::Put {
                src,
                dst: dst_local,
            },
        );
        assert!(o.remote_public_ranges().is_empty());
    }

    #[test]
    fn access_ids_unique_per_op() {
        let r = GlobalAddr::public(0, 0).range(8);
        let a = DsmOp {
            op_id: 1,
            actor: 0,
            kind: OpKind::LocalRead { range: r },
        };
        let b = DsmOp {
            op_id: 2,
            actor: 0,
            kind: OpKind::LocalRead { range: r },
        };
        assert_ne!(a.read_access_id(), b.read_access_id());
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn events_and_journal_entries_stay_small() {
        // Burst queues, the session journal (one `Event` per entry) and
        // generated streams hold events by value; a variant that grows them
        // shows up here.
        assert!(std::mem::size_of::<Event>() <= 88);
    }

    #[test]
    fn summary_display() {
        let s = AccessSummary {
            id: 3,
            process: 1,
            kind: AccessKind::Write,
            range: GlobalAddr::public(2, 0).range(8),
            atomic: false,
            count: 1,
            row: Arc::new(VectorClock::from_components(vec![1, 1, 0])),
        };
        let text = s.to_string();
        assert!(text.contains("W#3"));
        assert!(text.contains("110"));
    }
}
