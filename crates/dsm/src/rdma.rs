//! RDMA atomicity at the owner's NIC — the Fig 3 rule.
//!
//! §III-B: "The get operation is atomic (and therefore, blocking). If a
//! thread gets some data and writes it in a given place of its public
//! memory, no other thread can write at this place before the get is
//! finished. The second operation is delayed until the end of the first
//! one (figure 3)."
//!
//! The owner's NIC therefore tracks in-progress gets on its memory; a put
//! that arrives for an overlapping range is parked and applied only when
//! the get completes. Gets of disjoint ranges and concurrent gets of the
//! same range (Fig 4 — reads don't conflict) proceed immediately.

use std::collections::VecDeque;

use crate::addr::MemRange;
use crate::data::Data;
use crate::error::DsmError;
use crate::proto::OpToken;
use crate::Rank;

/// A put parked behind an in-progress get.
#[derive(Debug, Clone)]
pub struct DeferredPut {
    /// Destination range.
    pub dst: MemRange,
    /// Data to apply.
    pub data: Data,
    /// Completion token to ack once applied.
    pub token: OpToken,
    /// Initiating rank (for the ack).
    pub initiator: Rank,
}

#[derive(Debug, Clone)]
struct ActiveGet {
    token: OpToken,
    range: MemRange,
}

/// Per-rank NIC state tracking RDMA atomicity.
#[derive(Debug, Default)]
pub struct RdmaEngine {
    active_gets: Vec<ActiveGet>,
    deferred: VecDeque<DeferredPut>,
}

impl RdmaEngine {
    /// Fresh engine.
    pub fn new() -> Self {
        RdmaEngine::default()
    }

    /// Record that a get on `range` has started (request arrived at the
    /// owner; the range stays protected until [`RdmaEngine::end_get`]).
    pub fn begin_get(&mut self, token: OpToken, range: MemRange) {
        self.active_gets.push(ActiveGet { token, range });
    }

    /// True when a put to `dst` must be deferred (Fig 3).
    pub fn must_defer_put(&self, dst: &MemRange) -> bool {
        self.active_gets.iter().any(|g| g.range.overlaps(dst))
    }

    /// Submit a put: either apply it now (caller writes memory) or park it.
    /// Returns `None` when the caller may apply immediately, or `Some(())`
    /// when the put was deferred.
    pub fn submit_put(&mut self, put: DeferredPut) -> Option<DeferredPut> {
        if self.must_defer_put(&put.dst) {
            self.deferred.push_back(put);
            None
        } else {
            Some(put)
        }
    }

    /// A get completed (its reply was delivered); returns every deferred put
    /// that is now applicable, in arrival order.
    pub fn end_get(&mut self, token: OpToken) -> Result<Vec<DeferredPut>, DsmError> {
        let idx = self
            .active_gets
            .iter()
            .position(|g| g.token == token)
            .ok_or(DsmError::UnknownOp { token })?;
        self.active_gets.swap_remove(idx);

        let mut ready = Vec::new();
        let mut still = VecDeque::new();
        let deferred = std::mem::take(&mut self.deferred);
        for put in deferred {
            if self.must_defer_put(&put.dst) {
                still.push_back(put);
            } else {
                ready.push(put);
            }
        }
        self.deferred = still;
        Ok(ready)
    }

    /// Number of gets currently protecting ranges.
    pub fn active_gets(&self) -> usize {
        self.active_gets.len()
    }

    /// Number of parked puts.
    pub fn deferred_puts(&self) -> usize {
        self.deferred.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::GlobalAddr;

    fn r(offset: usize, len: usize) -> MemRange {
        GlobalAddr::public(0, offset).range(len)
    }

    fn put(offset: usize, len: usize, token: OpToken) -> DeferredPut {
        DeferredPut {
            dst: r(offset, len),
            data: Data::from(vec![0xAB; len].as_slice()),
            token,
            initiator: 2,
        }
    }

    #[test]
    fn put_without_get_applies_immediately() {
        let mut e = RdmaEngine::new();
        assert!(e.submit_put(put(0, 8, 1)).is_some());
        assert_eq!(e.deferred_puts(), 0);
    }

    #[test]
    fn fig3_put_deferred_until_get_ends() {
        let mut e = RdmaEngine::new();
        e.begin_get(10, r(0, 16));
        assert!(e.submit_put(put(8, 8, 1)).is_none(), "overlap → deferred");
        assert_eq!(e.deferred_puts(), 1);
        let ready = e.end_get(10).unwrap();
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].token, 1);
        assert_eq!(e.deferred_puts(), 0);
    }

    #[test]
    fn disjoint_put_not_deferred() {
        let mut e = RdmaEngine::new();
        e.begin_get(10, r(0, 8));
        assert!(e.submit_put(put(8, 8, 1)).is_some());
    }

    #[test]
    fn concurrent_gets_do_not_block_each_other() {
        // Fig 4: two gets of the same variable proceed concurrently.
        let mut e = RdmaEngine::new();
        e.begin_get(1, r(0, 8));
        e.begin_get(2, r(0, 8));
        assert_eq!(e.active_gets(), 2);
        // A put is blocked by both; ends only after both complete.
        assert!(e.submit_put(put(0, 8, 9)).is_none());
        assert!(e.end_get(1).unwrap().is_empty(), "still one active get");
        let ready = e.end_get(2).unwrap();
        assert_eq!(ready.len(), 1);
    }

    #[test]
    fn deferred_puts_keep_arrival_order() {
        let mut e = RdmaEngine::new();
        e.begin_get(1, r(0, 16));
        assert!(e.submit_put(put(0, 8, 100)).is_none());
        assert!(e.submit_put(put(8, 8, 101)).is_none());
        let ready = e.end_get(1).unwrap();
        let tokens: Vec<_> = ready.iter().map(|p| p.token).collect();
        assert_eq!(tokens, vec![100, 101]);
    }

    #[test]
    fn put_behind_two_gets_waits_for_both() {
        let mut e = RdmaEngine::new();
        e.begin_get(1, r(0, 8));
        e.begin_get(2, r(4, 8));
        assert!(e.submit_put(put(0, 12, 7)).is_none());
        assert!(e.end_get(2).unwrap().is_empty());
        assert_eq!(e.end_get(1).unwrap().len(), 1);
    }

    #[test]
    fn unknown_get_token_errors() {
        let mut e = RdmaEngine::new();
        assert!(matches!(
            e.end_get(42),
            Err(DsmError::UnknownOp { token: 42 })
        ));
    }
}
