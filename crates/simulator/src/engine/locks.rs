//! Lock steps, the owners' waiter table and grant delivery.

use dsm::addr::{MemRange, Segment};
use dsm::lockmgr::{Grant, LockOutcome};
use dsm::proto::{DetHeader, DsmPayload, OpToken};

use super::nic::Request;
use super::plan::Step;
use super::{Engine, TokenUse, LOCAL_LOCK_NS};
use crate::Rank;

/// A program lock held by a process.
#[derive(Debug, Clone)]
pub(super) struct HeldProgLock {
    pub(super) range: MemRange,
    pub(super) owner: Rank,
    pub(super) lock_token: u64,
}

/// Who gets a lock an owner's table grants to a queued request.
#[derive(Debug)]
pub(super) enum Waiter {
    /// A rank's lock step queued at its own table: resolve this engine
    /// token.
    Local(OpToken),
    /// A `LockRequest` from another rank: answer with a `LockGrant` that
    /// carries `clock_words`.
    Remote {
        requester: Rank,
        token: OpToken,
        clock_words: usize,
    },
    /// A fused request the owner queued on the area lock it takes for it.
    Fused(Request, DetHeader),
}

impl Engine {
    /// The lock step of `rank`: take the detection lock (`program` false)
    /// or the program lock (`program` true) on `range`. Consumes a grant
    /// the grant handler stashed, else takes a local lock inline or queues
    /// for it, else sends a `LockRequest` to the owner and waits.
    pub(super) fn lock_step(&mut self, rank: Rank, range: MemRange, program: bool) {
        let skip = if program {
            // Private locks are no-ops (§IV-A).
            range.addr.segment != Segment::Public
        } else {
            // A held program lock covers the range: the program took the
            // paper's lock itself.
            let held = &self.procs[rank].prog_locks;
            held.iter().any(|l| l.range.overlaps(&range))
        };
        if skip {
            return self.step_done(rank, 0);
        }
        if let Some(grant) = self.procs[rank].last_grant.take() {
            self.took_lock(rank, range, program, grant);
            return self.step_done(rank, 0);
        }
        let owner = range.addr.rank;
        if owner == rank {
            match self.locks[owner].acquire(range, rank) {
                LockOutcome::Granted(lock_token) => {
                    self.took_lock(rank, range, program, (owner, lock_token));
                    self.step_done(rank, LOCAL_LOCK_NS);
                }
                LockOutcome::Queued(lock_token) => {
                    let t = self.token(TokenUse::LockGrant(rank));
                    self.waiters.insert((owner, lock_token), Waiter::Local(t));
                    self.block(rank);
                }
            }
        } else {
            // A detection lock's grant delivers the area's (V, W) — the
            // `get_clock` of Algorithms 1–2 — so no clock message follows.
            let clock_words = if program { 0 } else { self.area_clock_words };
            let token = self.token(TokenUse::LockGrant(rank));
            let request = DsmPayload::LockRequest {
                range,
                token,
                clock_words,
            };
            self.send(rank, owner, request);
            self.block(rank);
        }
    }

    /// Record the lock `grant` (owner, table lock token) `rank` now holds:
    /// a detection lock joins the plan's release list, a program lock
    /// becomes held and synchronises.
    fn took_lock(&mut self, rank: Rank, range: MemRange, program: bool, grant: (Rank, u64)) {
        if program {
            let (owner, lock_token) = grant;
            let held = HeldProgLock {
                range,
                owner,
                lock_token,
            };
            self.procs[rank].prog_locks.push(held);
            let lock_id = (range.addr.rank, range.addr.offset);
            self.trace.on_lock_granted(lock_id, rank);
            self.session.on_acquire(rank, lock_id);
        } else if let Some(plan) = self.procs[rank].plan.as_mut() {
            plan.det_locks.push(grant);
        }
    }

    /// Release a lock (local table call or remote message) and deliver any
    /// resulting grants.
    pub(super) fn release_lock(&mut self, holder: Rank, owner: Rank, lock_token: u64) {
        if owner == holder {
            match self.locks[owner].release(lock_token) {
                Ok(grants) => self.dispatch_grants(owner, grants),
                Err(e) => self.errors.push(format!("P{holder}: release: {e}")),
            }
        } else {
            self.send(holder, owner, DsmPayload::LockRelease { lock_token });
        }
    }

    /// Deliver lock grants produced at `owner`'s table to their waiters.
    pub(super) fn dispatch_grants(&mut self, owner: Rank, grants: Vec<Grant>) {
        for g in grants {
            match self.waiters.remove(&(owner, g.token)) {
                Some(Waiter::Local(engine_token)) => {
                    self.complete_lock_grant(engine_token, owner, g.token);
                }
                Some(Waiter::Remote {
                    requester,
                    token,
                    clock_words,
                }) => {
                    let grant = DsmPayload::LockGrant {
                        token,
                        lock_token: g.token,
                        clock_words,
                    };
                    self.send(owner, requester, grant);
                }
                Some(Waiter::Fused(request, det)) => {
                    self.serve(owner, request, Some(det), Some(g.token))
                }
                None => self
                    .errors
                    .push(format!("grant for unknown waiter at P{owner}")),
            }
        }
    }

    /// Resolve the engine token of a granted lock request (a local grant,
    /// or a `LockGrant` message from `owner`).
    pub(super) fn complete_lock_grant(&mut self, engine_token: OpToken, owner: Rank, lock: u64) {
        match self.tokens.remove(&engine_token) {
            Some(TokenUse::LockGrant(rank)) => self.deliver_grant(rank, owner, lock),
            other => self
                .errors
                .push(format!("lock grant resolved to unexpected use {other:?}")),
        }
    }

    /// Hand a granted lock to `rank`, blocked at the lock step that asked
    /// for it: stash the grant for the step to consume and wake it. A grant
    /// that comes after the rank was forced past that wait (lossy plans)
    /// is released again at once — nobody else would.
    fn deliver_grant(&mut self, rank: Rank, owner: Rank, lock_token: u64) {
        let proc = &mut self.procs[rank];
        match proc.plan.as_mut() {
            Some(plan)
                if plan.blocked
                    && matches!(
                        plan.steps.get(plan.idx),
                        Some(Step::DetLock(_) | Step::ProgLock(_))
                    ) =>
            {
                plan.blocked = false;
                proc.last_grant = Some((owner, lock_token));
                self.wake(rank, self.now);
            }
            _ => {
                self.errors.push(format!(
                    "P{rank}: lock grant from P{owner} came after its wait was abandoned; released"
                ));
                self.release_lock(rank, owner, lock_token);
            }
        }
    }
}
