//! Every message arrival, and the owner side of a data request: admission
//! (with the area lock the owner takes for a fused request), the access
//! itself, and the reply.

use dsm::addr::MemRange;
use dsm::lockmgr::LockOutcome;
use dsm::proto::{AtomicOp, DetHeader, DsmPayload, OpToken};
use dsm::rdma::DeferredPut;
use dsm::Data;
use netsim::{Message, SimTime};
use race_core::{AccessKind, DsmOp};

use super::locks::Waiter;
use super::plan::Step;
use super::{Engine, TokenUse, LOCAL_ACCESS_NS};
use crate::Rank;

/// How a put completes once it is applied at the owner.
#[derive(Debug, Clone, Copy)]
pub(super) enum PutDone {
    /// Fire-and-forget (no detection): the initiator moved on at injection.
    Forget,
    /// Local put under detection: the initiator is blocked on it (it may
    /// have been deferred, Fig 3) and advances now.
    Local,
    /// Remote put under detection: end the owner-side critical section
    /// (release `lock` if the owner took it) and send the `PutAck`.
    Ack {
        lock: Option<u64>,
        clock_words: usize,
    },
}

/// Context needed when a put's data is applied at the owner.
#[derive(Debug)]
pub(super) struct PutCtx {
    pub(super) op: DsmOp,
    pub(super) sent_at: SimTime,
    pub(super) done: PutDone,
    /// The data reached the owner (a duplicate must not be applied).
    pub(super) at_owner: bool,
}

/// A data request at its owner, waiting to be served (possibly queued on
/// the area lock it asked the owner to take).
#[derive(Debug)]
pub(super) enum Request {
    Put(DeferredPut),
    Get {
        src: MemRange,
        token: OpToken,
    },
    Atomic {
        range: MemRange,
        aop: AtomicOp,
        token: OpToken,
    },
}

impl Request {
    /// The public range the request accesses (what its area lock covers).
    fn range(&self) -> MemRange {
        match self {
            Request::Put(put) => put.dst,
            Request::Get { src, .. } => *src,
            Request::Atomic { range, .. } => *range,
        }
    }
}

impl Engine {
    pub(super) fn handle_message(&mut self, msg: Message<DsmPayload>) {
        let Message {
            src, dst, payload, ..
        } = msg;
        match payload {
            DsmPayload::PutData {
                dst: range,
                data,
                token,
                det,
            } => {
                let put = DeferredPut {
                    dst: range,
                    data,
                    token,
                    initiator: src,
                };
                self.admit(dst, src, Request::Put(put), det);
            }
            DsmPayload::PutAck { token, .. } => {
                if let Some(TokenUse::Wake(rank)) = self.tokens.remove(&token) {
                    self.resume(rank, self.now);
                }
            }
            DsmPayload::GetRequest {
                src: range,
                token,
                det,
            } => self.admit(dst, src, Request::Get { src: range, token }, det),
            DsmPayload::GetReply { token, data, .. } => self.finish_get(token, data, self.now),
            DsmPayload::LockRequest {
                range,
                token,
                clock_words,
            } => match self.locks[dst].acquire(range, src) {
                LockOutcome::Granted(lock_token) => {
                    let grant = DsmPayload::LockGrant {
                        token,
                        lock_token,
                        clock_words,
                    };
                    self.send(dst, src, grant);
                }
                LockOutcome::Queued(lock_token) => {
                    let waiter = Waiter::Remote {
                        requester: src,
                        token,
                        clock_words,
                    };
                    self.waiters.insert((dst, lock_token), waiter);
                }
            },
            DsmPayload::LockGrant {
                token, lock_token, ..
            } => self.complete_lock_grant(token, src, lock_token),
            DsmPayload::LockRelease { lock_token } => match self.locks[dst].release(lock_token) {
                Ok(grants) => self.dispatch_grants(dst, grants),
                Err(e) => self.errors.push(format!("remote release: {e}")),
            },
            DsmPayload::AtomicRequest {
                range,
                op: aop,
                token,
                det,
            } => self.admit(dst, src, Request::Atomic { range, aop, token }, det),
            DsmPayload::AtomicReply { token, old, .. } => {
                if let Some(TokenUse::AtomicReply {
                    actor, fetch_into, ..
                }) = self.tokens.remove(&token)
                {
                    self.store_atomic_result(actor, fetch_into, old);
                    self.resume(actor, self.now);
                }
            }
            DsmPayload::BarrierArrive { .. } => {
                // A duplicated arrival (fault injection) must not count as
                // another rank, or the barrier would release early.
                if self.barrier_arrived.contains(&src) {
                    self.errors
                        .push(format!("P{src}: duplicate barrier arrival ignored"));
                    return;
                }
                self.barrier_arrived.push(src);
                if self.barrier_arrived.len() == self.cfg.n {
                    self.barrier_arrived.clear();
                    self.trace.on_barrier_release();
                    self.session.on_barrier();
                    for r in 0..self.cfg.n {
                        self.send(0, r, DsmPayload::BarrierRelease { epoch: 0 });
                    }
                }
            }
            DsmPayload::BarrierRelease { .. } => {
                // Only a process actually blocked at a barrier step may
                // consume a release; a duplicated release would otherwise
                // over-advance the plan into (or past) later steps.
                match self.procs[dst].plan.as_ref() {
                    Some(plan) if matches!(plan.steps.get(plan.idx), Some(Step::Barrier)) => {
                        self.resume(dst, self.now);
                    }
                    _ => self
                        .errors
                        .push(format!("P{dst}: stale barrier release ignored")),
                }
            }
        }
    }

    /// A data request from `requester` arrives at `owner`. Under detection
    /// with the take-lock flag, this opens the owner-side critical section
    /// of Algorithms 1–2: the NIC acquires the area lock on the requester's
    /// behalf — queuing behind a holder exactly as a `LockRequest` does —
    /// and serves the request once it holds it.
    fn admit(&mut self, owner: Rank, requester: Rank, request: Request, det: Option<DetHeader>) {
        if !self.first_arrival(&request) {
            self.errors.push(format!(
                "P{owner}: duplicate request from P{requester} ignored"
            ));
            return;
        }
        match det {
            Some(d) if d.take_lock => match self.locks[owner].acquire(request.range(), requester) {
                LockOutcome::Granted(lock) => self.serve(owner, request, det, Some(lock)),
                LockOutcome::Queued(lock) => {
                    self.waiters
                        .insert((owner, lock), Waiter::Fused(request, d));
                }
            },
            _ => self.serve(owner, request, det, None),
        }
    }

    /// Mark `request` as having reached its owner; false if it already had
    /// (a duplicate injected by the fault plan must not be served — and
    /// observed — twice) or if its op is unknown.
    fn first_arrival(&mut self, request: &Request) -> bool {
        let seen = match request {
            Request::Put(put) => self.put_ctx.get_mut(&put.token).map(|c| &mut c.at_owner),
            Request::Get { token, .. } => match self.tokens.get_mut(token) {
                Some(TokenUse::GetReply { served, .. }) => Some(served),
                _ => None,
            },
            Request::Atomic { token, .. } => match self.tokens.get_mut(token) {
                Some(TokenUse::AtomicReply { served, .. }) => Some(served),
                _ => None,
            },
        };
        match seen {
            Some(seen) => !std::mem::replace(seen, true),
            None => false,
        }
    }

    /// Serve a request at its owner: read `(V, W)`, perform the access
    /// (where the detector observes it and merges the clock — Algorithm 5's
    /// order, data before clock), release `lock` if the owner took one for
    /// it, and answer with the clocks the header asked for. A put does the
    /// last two itself once it is applied (see [`PutDone`]) — now, or after
    /// a Fig 3 deferral, with the lock held across it.
    pub(super) fn serve(
        &mut self,
        owner: Rank,
        request: Request,
        det: Option<DetHeader>,
        lock: Option<u64>,
    ) {
        let reply_words = det.map_or(0, |d| d.reply_words);
        match request {
            Request::Put(put) => {
                if let Some(PutCtx {
                    done: PutDone::Ack { lock: slot, .. },
                    ..
                }) = self.put_ctx.get_mut(&put.token)
                {
                    *slot = lock;
                }
                return self.apply_put_at_owner(owner, put);
            }
            Request::Get { src, token } => {
                self.serve_get_request(owner, src, token, Some(reply_words));
            }
            Request::Atomic { range, aop, token } => {
                if let Some(TokenUse::AtomicReply { actor, op, .. }) = self.tokens.get(&token) {
                    let (actor, op) = (*actor, *op);
                    let old = self.apply_atomic_at_owner(owner, range, aop, &op);
                    let reply = DsmPayload::AtomicReply {
                        token,
                        old,
                        clock_words: reply_words,
                    };
                    self.send(owner, actor, reply);
                }
            }
        }
        if let Some(lock) = lock {
            self.release_lock(owner, owner, lock);
        }
    }

    /// Apply (or defer) a put at the owner.
    pub(super) fn apply_put_at_owner(&mut self, owner: Rank, put: DeferredPut) {
        // `None`: deferred until the get it overlaps ends (Fig 3).
        if let Some(put) = self.rdma[owner].submit_put(put) {
            self.apply_put_now(owner, put);
        }
    }

    fn apply_put_now(&mut self, owner: Rank, put: DeferredPut) {
        let initiator = put.initiator;
        let written = self.memories[owner].write(&put.dst, &put.data, initiator);
        if let Err(e) = &written {
            self.errors.push(format!("put apply at P{owner}: {e}"));
        }
        let Some(ctx) = self.put_ctx.remove(&put.token) else {
            return;
        };
        if written.is_ok() {
            self.observe(&ctx.op);
            self.trace.record_access(
                ctx.op.write_access_id(),
                initiator,
                AccessKind::Write,
                put.dst,
            );
            self.put_apply_delays.push(self.now.since(ctx.sent_at));
        }
        // The put is over (applied, or failed and signalled): end its
        // critical section, whichever side is waiting on it.
        match ctx.done {
            PutDone::Forget => {}
            PutDone::Local => self.resume(initiator, self.now + LOCAL_ACCESS_NS),
            PutDone::Ack { lock, clock_words } => {
                if let Some(lock) = lock {
                    self.release_lock(owner, owner, lock);
                }
                let ack = DsmPayload::PutAck {
                    token: put.token,
                    clock_words,
                };
                self.send(owner, initiator, ack);
            }
        }
    }

    /// Serve a get at the owner: observe, read, then apply locally
    /// (`reply_words` is `None`) or reply with that many clock words.
    pub(super) fn serve_get_request(
        &mut self,
        owner: Rank,
        src: MemRange,
        token: OpToken,
        reply_words: Option<usize>,
    ) {
        // The read happens here. Observe the whole op at the read point.
        let (actor, op) = match self.tokens.get(&token) {
            Some(TokenUse::GetReply { actor, op, .. }) => (*actor, *op),
            _ => {
                self.errors
                    .push(format!("get request with unknown token {token}"));
                return;
            }
        };
        self.rdma[owner].begin_get(token, src);
        let (data, cost) = match self.memories[owner].read(&src, actor) {
            Ok(data) => {
                self.observe(&op);
                self.trace
                    .record_access(op.read_access_id(), actor, AccessKind::Read, src);
                (data, LOCAL_ACCESS_NS)
            }
            Err(e) => {
                self.errors.push(format!("get read at P{owner}: {e}"));
                // Unblock the requester with empty data to avoid deadlock.
                (Data::default(), 0)
            }
        };
        match reply_words {
            None => self.finish_get(token, data, self.now + cost),
            Some(clock_words) => {
                let reply = DsmPayload::GetReply {
                    token,
                    data,
                    clock_words,
                };
                self.send(owner, actor, reply);
            }
        }
    }

    /// Complete a get at the requester: write dst, end the owner-side
    /// protection window, release deferred puts (Fig 3).
    fn finish_get(&mut self, token: OpToken, data: Data, at: SimTime) {
        let Some(TokenUse::GetReply {
            actor,
            dst,
            op,
            src_owner,
            ..
        }) = self.tokens.remove(&token)
        else {
            self.errors
                .push(format!("get reply with unknown token {token}"));
            return;
        };
        if !data.is_empty() {
            if let Err(e) = self.memories[actor].write(&dst, &data, actor) {
                self.errors.push(format!("get apply at P{actor}: {e}"));
            } else {
                self.trace
                    .record_access(op.write_access_id(), actor, AccessKind::Write, dst);
            }
        }
        // The get has ended: lift the Fig 3 protection and apply deferred
        // puts (the simulator's omniscience stands in for the NIC completion
        // notification; the timing is the reply-delivery instant).
        match self.rdma[src_owner].end_get(token) {
            Ok(ready) => {
                for put in ready {
                    self.apply_put_now(src_owner, put);
                }
            }
            Err(e) => self.errors.push(format!("end_get: {e}")),
        }
        self.resume(actor, at);
    }

    /// Execute an atomic RMW at the owner: observe (read+write accesses,
    /// flagged atomic), apply, trace. Returns the previous value; an
    /// atomic that cannot run (not one `u64` word, or unreadable) is
    /// recorded as an error and returns 0 without observing or writing.
    ///
    /// Note: atomics are NIC-serialised and are NOT subject to the Fig 3
    /// put-deferral window — real NICs execute them in the message
    /// processing path regardless of in-flight reads.
    pub(super) fn apply_atomic_at_owner(
        &mut self,
        owner: Rank,
        target: MemRange,
        aop: AtomicOp,
        op: &DsmOp,
    ) -> u64 {
        let initiator = op.actor;
        if target.len != 8 {
            self.errors.push(format!(
                "atomic at P{owner} from P{initiator}: {}-byte target {target}, atomics operate on 8-byte words",
                target.len
            ));
            return 0;
        }
        let old = match self.memories[owner].read_u64(target.addr, initiator) {
            Ok(v) => v,
            Err(e) => {
                self.errors.push(format!("atomic read at P{owner}: {e}"));
                return 0;
            }
        };
        self.observe(op);
        self.trace.record_access_ext(
            op.read_access_id(),
            initiator,
            AccessKind::Read,
            target,
            true,
        );
        let (new, old) = aop.apply(old);
        if let Err(e) = self.memories[owner].write_u64(target.addr, new, initiator) {
            self.errors.push(format!("atomic write at P{owner}: {e}"));
        } else {
            self.trace.record_access_ext(
                op.write_access_id(),
                initiator,
                AccessKind::Write,
                target,
                true,
            );
        }
        old
    }

    pub(super) fn store_atomic_result(&mut self, rank: Rank, dst: Option<MemRange>, old: u64) {
        if let Some(dst) = dst {
            if let Err(e) = self.memories[rank].write(&dst, &old.to_le_bytes(), rank) {
                self.errors
                    .push(format!("atomic fetch store at P{rank}: {e}"));
            }
        }
    }
}
