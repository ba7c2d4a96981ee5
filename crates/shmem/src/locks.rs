//! NIC-style area locks for the threaded backend.
//!
//! §III-A: locks live with the memory they protect and guarantee exclusive
//! access to an area. Here the registry hands out one std area lock — a
//! held flag under a `Mutex<bool>` and the `Condvar` its waiters sleep on —
//! per locked area (keyed by the area's canonical start); the guard calls
//! the detector's release hook *before* the area opens so the next
//! acquirer observes the releaser's clock — the hand-off carries causality,
//! as the grant message does in the message-passing backend.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use dsm::addr::MemRange;
use race_core::{LockId, Session};

use crate::{lock, Pe};

/// One area's lock: `true` while held; waiters sleep on the condvar.
type AreaLock = Arc<(Mutex<bool>, Condvar)>;

/// Registry of area locks, created on first use.
pub struct LockRegistry {
    areas: Mutex<HashMap<LockId, AreaLock>>,
}

impl Default for LockRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl LockRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        LockRegistry {
            areas: Mutex::new(HashMap::new()),
        }
    }

    fn area_lock(&self, id: LockId) -> AreaLock {
        Arc::clone(lock(&self.areas).entry(id).or_default())
    }

    /// Acquire the lock on `range` for `pe`, informing the detection
    /// `session` of the hand-off.
    pub fn acquire<'pe>(
        &self,
        pe: &'pe Pe,
        range: MemRange,
        session: &'pe Mutex<Session>,
    ) -> AreaLockGuard<'pe> {
        let id: LockId = (range.addr.rank, range.addr.offset);
        // Blocking acquire outside any detector lock (no deadlock with the
        // observe path, which never takes area locks).
        let held = HeldArea::acquire(self.area_lock(id));
        lock(session).on_acquire(pe.rank(), id);
        AreaLockGuard {
            pe,
            session,
            id,
            _held: held,
        }
    }
}

/// An acquired area; clears the held flag and wakes one waiter on drop,
/// also when its thread unwinds from a panic.
struct HeldArea(AreaLock);

impl HeldArea {
    fn acquire(area: AreaLock) -> Self {
        let (held, freed) = &*area;
        let mut held = freed
            .wait_while(lock(held), |held| *held)
            .unwrap_or_else(PoisonError::into_inner);
        *held = true;
        drop(held);
        HeldArea(area)
    }
}

impl Drop for HeldArea {
    fn drop(&mut self) {
        let (held, freed) = &*self.0;
        *lock(held) = false;
        freed.notify_one();
    }
}

/// A held area lock; releases (and publishes the releaser's clock) on drop.
pub struct AreaLockGuard<'pe> {
    pe: &'pe Pe,
    session: &'pe Mutex<Session>,
    id: LockId,
    _held: HeldArea,
}

impl Drop for AreaLockGuard<'_> {
    fn drop(&mut self) {
        // Snapshot the releaser's clock before the area opens.
        lock(self.session).on_release(self.pe.rank(), self.id);
        // `_held` drops after this body: the area opens last.
    }
}

#[cfg(test)]
mod tests {
    // The registry is exercised end-to-end by the crate-level tests
    // (`lock_protected_counter_is_silent_and_consistent` and friends);
    // here we check identity semantics and the area lock itself.
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn same_area_same_mutex() {
        let reg = LockRegistry::new();
        let a = reg.area_lock((0, 0));
        let b = reg.area_lock((0, 0));
        assert!(Arc::ptr_eq(&a, &b));
        let c = reg.area_lock((0, 8));
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn second_acquirer_blocks_until_the_first_guard_drops() {
        let area = AreaLock::default();
        let first = HeldArea::acquire(Arc::clone(&area));
        assert!(*lock(&area.0));
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _second = HeldArea::acquire(Arc::clone(&area));
                tx.send(()).unwrap();
            });
            assert!(
                rx.recv_timeout(Duration::from_millis(100)).is_err(),
                "acquired a held area"
            );
            drop(first);
            rx.recv().unwrap();
        });
        assert!(!*lock(&area.0), "the second guard released on drop");
    }

    #[test]
    fn exclusion_across_threads() {
        // An unsynchronised load/store increment: a lost update means two
        // threads were inside the area at once.
        let area = AreaLock::default();
        let count = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        let _held = HeldArea::acquire(Arc::clone(&area));
                        let v = count.load(Ordering::Relaxed);
                        count.store(v + 1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(count.into_inner(), 8000);
    }

    #[test]
    fn a_guard_dropped_by_a_panicking_thread_releases_the_area() {
        let area = AreaLock::default();
        let joined = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = HeldArea::acquire(Arc::clone(&area));
                panic!("PE dies holding the area");
            })
            .join()
        });
        assert!(joined.is_err());
        assert!(!*lock(&area.0), "unwinding released the area");
        drop(HeldArea::acquire(area));
    }
}
