//! The initiator side: an instruction becomes a plan of steps, and
//! `advance` executes the current step of a process.

use dsm::addr::{MemRange, Segment};
use dsm::proto::{AtomicOp, DetHeader, DsmPayload};
use dsm::rdma::DeferredPut;
use dsm::{Data, DsmError};
use netsim::SimTime;
use race_core::{AccessKind, DsmOp, OpKind};

use super::nic::{PutCtx, PutDone};
use super::{Engine, InstrClass, TokenUse, LOCAL_ACCESS_NS, LOCAL_LOCK_NS};
use crate::program::{Instr, Src};
use crate::Rank;

/// Steps of an in-flight operation plan.
#[derive(Debug, Clone, Copy)]
pub(super) enum Step {
    /// Acquire a detection lock explicitly (skipped if a held program lock
    /// covers it). Only ops that are not fused take these: local accesses
    /// and ops that lock two public areas.
    DetLock(MemRange),
    /// Acquire a program lock (the `Lock` instruction).
    ProgLock(MemRange),
    /// Release a program lock.
    ProgUnlock(MemRange),
    /// Move the put's data (from `src`, else from [`Plan::data`]). Under
    /// detection a remote put waits for its `PutAck`.
    PutData {
        op: DsmOp,
        src: Option<MemRange>,
        dst: MemRange,
    },
    /// Move the get's data.
    GetData {
        op: DsmOp,
        src: MemRange,
        dst: MemRange,
    },
    /// NIC-executed atomic read-modify-write (§V-B extension).
    AtomicData {
        op: DsmOp,
        target: MemRange,
        aop: AtomicOp,
        fetch_into: Option<MemRange>,
    },
    /// Local access (observe + apply); a write takes [`Plan::data`].
    LocalAccess {
        op: DsmOp,
        range: MemRange,
        write: bool,
    },
    /// Local compute.
    Compute(u64),
    /// Enter the barrier.
    Barrier,
    /// Release every detection lock taken by this plan.
    ReleaseDetLocks,
    /// Record latency, advance the pc.
    Finish,
}

/// An operation in progress on one process.
#[derive(Debug)]
pub(super) struct Plan {
    pub(super) steps: Vec<Step>,
    pub(super) idx: usize,
    /// Immediate bytes of a put / value of a local write, moved out by the
    /// step that ships them.
    data: Option<Data>,
    /// The current step sent its request and waits for the reply (a
    /// message or a local lock grant). Only that reply — or the lossy-plan
    /// recovery — unblocks the process; any other wake is ignored, so a
    /// stray one never re-executes a step whose request is in flight.
    pub(super) blocked: bool,
    pub(super) det_locks: Vec<(Rank, u64)>,
    started_at: SimTime,
    class: InstrClass,
}

/// A finished plan's step and lock buffers, emptied, for the process's
/// next plan: a process allocates them once, not once per instruction.
#[derive(Debug, Default)]
pub(super) struct Buffers {
    steps: Vec<Step>,
    det_locks: Vec<(Rank, u64)>,
}

/// The public ranges an op locks, in canonical order: at most two, kept
/// on the stack.
#[derive(Debug, Clone, Copy)]
pub(super) struct LockRanges {
    ranges: [MemRange; 2],
    len: usize,
}

impl LockRanges {
    const NONE: LockRanges = LockRanges {
        ranges: [dsm::GlobalAddr::public(0, 0).range(0); 2],
        len: 0,
    };

    fn push(&mut self, range: MemRange) {
        self.ranges[self.len] = range;
        self.len += 1;
    }

    pub(super) fn as_slice(&self) -> &[MemRange] {
        &self.ranges[..self.len]
    }
}

/// The first rank outside `0..n` that a range of `instr` names.
fn bad_rank(instr: &Instr, n: usize) -> Option<Rank> {
    let ranges = match instr {
        Instr::Put { src, dst } => {
            let src = match src {
                Src::Range(r) => Some(*r),
                Src::Imm(_) => None,
            };
            [src, Some(*dst)]
        }
        Instr::Get { src, dst } => [Some(*src), Some(*dst)],
        Instr::LocalRead { range }
        | Instr::LocalWrite { range, .. }
        | Instr::Lock { range }
        | Instr::Unlock { range } => [Some(*range), None],
        Instr::Atomic {
            target, fetch_into, ..
        } => [Some(*target), *fetch_into],
        Instr::Compute { .. } | Instr::Barrier => [None, None],
    };
    ranges
        .into_iter()
        .flatten()
        .map(|r| r.addr.rank)
        .find(|&r| r >= n)
}

impl Engine {
    /// The detection header of `rank`'s data request on the remote `range`
    /// (`None` without detection). The owner takes the area lock unless the
    /// initiator already holds one over the range — a program lock, or the
    /// explicit detection lock of a two-area op, whose grant also delivered
    /// `(V, W)` already.
    fn det_header(&self, rank: Rank, range: MemRange) -> Option<DetHeader> {
        if !self.detection {
            return None;
        }
        let proc = &self.procs[rank];
        let explicit = proc
            .plan
            .iter()
            .flat_map(|p| &p.det_locks)
            .any(|&(owner, _)| owner == range.addr.rank);
        let covered = proc.prog_locks.iter().any(|l| l.range.overlaps(&range));
        Some(DetHeader {
            clock_words: self.cfg.n,
            reply_words: if explicit { 0 } else { self.area_clock_words },
            take_lock: !explicit && !covered,
        })
    }

    /// Build the plan for the next instruction of `rank`, in the buffers
    /// its last plan left.
    fn build_plan(&mut self, rank: Rank) -> Option<Plan> {
        let proc = &mut self.procs[rank];
        if proc.pc >= proc.program.len() {
            return None;
        }
        let Buffers {
            mut steps,
            det_locks,
        } = std::mem::take(&mut proc.spare);
        let op_id = self.next_op_id;
        self.next_op_id += 1;
        let op = |kind| DsmOp {
            op_id,
            actor: rank,
            kind,
        };

        let proc = &self.procs[rank];
        let instr = proc.program.get(proc.pc)?;
        let bad_rank = bad_rank(instr, self.cfg.n);
        let mut data = None;
        let class = match instr {
            Instr::Put { src, dst } => {
                let dst = *dst;
                let src_range = match src {
                    Src::Range(r) => Some(*r),
                    Src::Imm(v) => {
                        data = Some(Data::from(v.as_slice()));
                        None
                    }
                };
                let kind = OpKind::Put {
                    src: src_range.unwrap_or_else(|| dsm::GlobalAddr::private(rank, 0).range(0)),
                    dst,
                };
                let access = Step::PutData {
                    op: op(kind),
                    src: src_range,
                    dst,
                };
                self.push_access(&mut steps, rank, src_range, Some(dst), access);
                InstrClass::Put
            }
            &Instr::Get { src, dst } => {
                let op = op(OpKind::Get { src, dst });
                let access = Step::GetData { op, src, dst };
                self.push_access(&mut steps, rank, Some(src), Some(dst), access);
                InstrClass::Get
            }
            &Instr::LocalRead { range } => {
                let access = Step::LocalAccess {
                    op: op(OpKind::LocalRead { range }),
                    range,
                    write: false,
                };
                self.push_access(&mut steps, rank, Some(range), None, access);
                InstrClass::Local
            }
            Instr::LocalWrite { range, value } => {
                let range = *range;
                data = Some(Data::from(value.as_slice()));
                let access = Step::LocalAccess {
                    op: op(OpKind::LocalWrite { range }),
                    range,
                    write: true,
                };
                self.push_access(&mut steps, rank, Some(range), None, access);
                InstrClass::Local
            }
            &Instr::Atomic {
                target,
                op: aop,
                fetch_into,
            } => {
                let access = Step::AtomicData {
                    op: op(OpKind::AtomicRmw { range: target }),
                    target,
                    aop,
                    fetch_into,
                };
                self.push_access(&mut steps, rank, Some(target), None, access);
                InstrClass::Atomic
            }
            &Instr::Compute { ns } => {
                steps.push(Step::Compute(ns));
                InstrClass::Local
            }
            &Instr::Lock { range } => {
                steps.push(Step::ProgLock(range));
                InstrClass::Lock
            }
            &Instr::Unlock { range } => {
                steps.push(Step::ProgUnlock(range));
                InstrClass::Lock
            }
            Instr::Barrier => {
                steps.push(Step::Barrier);
                InstrClass::Barrier
            }
        };
        if let Some(bad) = bad_rank {
            // Refused before any step runs: nothing is sent, observed or
            // written, and the initiator completes the instruction.
            steps.clear();
            data = None;
            let e = DsmError::BadRank {
                rank: bad,
                n: self.cfg.n,
            };
            self.errors.push(format!("P{rank}: {e}"));
        }
        steps.push(Step::Finish);
        Some(Plan {
            steps,
            idx: 0,
            data,
            blocked: false,
            det_locks,
            started_at: self.now,
            class,
        })
    }

    /// Push the steps of one data access whose public footprint is `a` and
    /// `b` (Algorithms 1–2). Without detection that is the access alone.
    /// With detection, an access whose whole footprint is one *remote* area
    /// is **fused**: still the access alone — its request carries the
    /// detection header and the owner runs the critical section (see
    /// [`Engine::det_header`]). Anything else — a local access, or an op
    /// that locks two areas — is bracketed by explicit detection locks in
    /// canonical order: a rank that held its local lock while its fused
    /// request queued remotely would deadlock against the symmetric op.
    fn push_access(
        &self,
        steps: &mut Vec<Step>,
        rank: Rank,
        a: Option<MemRange>,
        b: Option<MemRange>,
        access: Step,
    ) {
        let locks = if self.detection {
            Self::lock_ranges(a, b)
        } else {
            LockRanges::NONE
        };
        let locks = locks.as_slice();
        let fused = matches!(locks, [r] if r.addr.rank != rank);
        if fused || locks.is_empty() {
            steps.push(access);
        } else {
            steps.extend(locks.iter().copied().map(Step::DetLock));
            steps.push(access);
            steps.push(Step::ReleaseDetLocks);
        }
    }

    /// Public ranges an op must lock, canonical order (ties keep `a`
    /// first), overlaps merged — so a plan never queues behind its own
    /// lock.
    pub(super) fn lock_ranges(a: Option<MemRange>, b: Option<MemRange>) -> LockRanges {
        let public = |r: &MemRange| r.addr.segment == Segment::Public && r.len > 0;
        let mut out = LockRanges::NONE;
        match (a.filter(public), b.filter(public)) {
            (None, None) => {}
            (Some(r), None) | (None, Some(r)) => out.push(r),
            (Some(a), Some(b)) => {
                let (lo, hi) = if b.canonical_key() < a.canonical_key() {
                    (b, a)
                } else {
                    (a, b)
                };
                if lo.overlaps(&hi) {
                    let start = lo.addr.offset.min(hi.addr.offset);
                    let end = lo.end().max(hi.end());
                    out.push(dsm::GlobalAddr::public(lo.addr.rank, start).range(end - start));
                } else {
                    out.push(lo);
                    out.push(hi);
                }
            }
        }
        out
    }

    /// Advance the process: execute its current step (building a plan from
    /// the next instruction if needed). Steps either complete inline and
    /// schedule the next wake, or send a message and wait.
    pub(super) fn advance(&mut self, rank: Rank) {
        if self.procs[rank].done {
            return;
        }
        if self.procs[rank].plan.is_none() {
            match self.build_plan(rank) {
                Some(plan) => self.procs[rank].plan = Some(plan),
                None => {
                    self.procs[rank].done = true;
                    return;
                }
            }
        }

        if self.procs[rank].plan.as_ref().is_some_and(|p| p.blocked) {
            return; // not the reply this process is waiting for
        }
        #[expect(
            clippy::expect_used,
            reason = "scheduler invariant: ops are only dispatched to ranks holding an active plan."
        )]
        let plan = self.procs[rank].plan.as_ref().expect("plan");
        let step = match plan.steps.get(plan.idx) {
            Some(&s) => s,
            None => {
                // Every plan ends in Step::Finish, which consumes it, so a
                // cursor past the end means a stray control message (a
                // duplicate the guards above didn't recognise)
                // over-advanced the plan. Signalled, never fatal: complete
                // the instruction and move on rather than indexing out of
                // bounds.
                self.errors.push(format!(
                    "P{rank}: plan over-advanced; completing instruction"
                ));
                return self.finish(rank);
            }
        };
        match step {
            Step::DetLock(range) | Step::ProgLock(range) => {
                self.lock_step(rank, range, matches!(step, Step::ProgLock(_)));
            }
            Step::ProgUnlock(range) => {
                let pos = self.procs[rank]
                    .prog_locks
                    .iter()
                    .position(|l| l.range == range);
                match pos {
                    Some(i) => {
                        let held = self.procs[rank].prog_locks.remove(i);
                        let lock_id = (range.addr.rank, range.addr.offset);
                        self.trace.on_unlock(lock_id, rank);
                        self.session.on_release(rank, lock_id);
                        self.release_lock(rank, held.owner, held.lock_token);
                        self.step_done(rank, LOCAL_LOCK_NS);
                    }
                    None => {
                        self.errors
                            .push(format!("P{rank}: unlock of {range} which is not held"));
                        self.step_done(rank, 0);
                    }
                }
            }
            Step::PutData { op, src, dst } => {
                // Materialise the data on the source side.
                let data = match src {
                    Some(r) => match self.memories[rank].read(&r, rank) {
                        Ok(d) => d,
                        Err(e) => {
                            self.errors.push(format!("P{rank}: put source: {e}"));
                            self.step_done(rank, 0);
                            return;
                        }
                    },
                    None => self.take_data(rank),
                };
                // Source-side read access happens now (trace), unless imm.
                if let Some(r) = src {
                    self.trace
                        .record_access(op.read_access_id(), rank, AccessKind::Read, r);
                }
                let owner = dst.addr.rank;
                let det = self.det_header(rank, dst);
                let done = match det {
                    None => PutDone::Forget,
                    Some(_) if owner == rank => PutDone::Local,
                    Some(d) => PutDone::Ack {
                        lock: None,
                        clock_words: d.reply_words,
                    },
                };
                let t = match done {
                    PutDone::Ack { .. } => self.token(TokenUse::Wake(rank)),
                    _ => self.fresh_token(),
                };
                self.put_ctx.insert(
                    t,
                    PutCtx {
                        op,
                        sent_at: self.now,
                        done,
                        at_owner: false,
                    },
                );
                // Without detection puts are one-sided: the initiator
                // injects the single data message (Fig 2) and proceeds.
                // Under detection the put is Algorithm 1's critical
                // section: the initiator resumes when it is over — at the
                // `PutAck`, or for a local put when it is applied (a Fig 3
                // deferral keeps the initiator, and its lock, until then).
                if det.is_some() {
                    self.block(rank);
                }
                if owner == rank {
                    // Local put: apply through the same owner-side path, no
                    // wire messages (NIC loopback).
                    self.apply_put_at_owner(
                        owner,
                        DeferredPut {
                            dst,
                            data,
                            token: t,
                            initiator: rank,
                        },
                    );
                } else {
                    let put = DsmPayload::PutData {
                        dst,
                        data,
                        token: t,
                        det,
                    };
                    self.send(rank, owner, put);
                }
                if det.is_none() {
                    self.step_done(rank, LOCAL_ACCESS_NS);
                }
            }
            Step::GetData { op, src, dst } => {
                let owner = src.addr.rank;
                let t = self.token(TokenUse::GetReply {
                    actor: rank,
                    dst,
                    op,
                    src_owner: owner,
                    served: false,
                });
                self.block(rank);
                if owner == rank {
                    // Local get: read + write locally.
                    self.serve_get_request(rank, src, t, None);
                } else {
                    let det = self.det_header(rank, src);
                    self.send(rank, owner, DsmPayload::GetRequest { src, token: t, det });
                }
            }
            Step::AtomicData {
                op,
                target,
                aop,
                fetch_into,
            } => {
                let owner = target.addr.rank;
                if owner == rank {
                    let old = self.apply_atomic_at_owner(owner, target, aop, &op);
                    self.store_atomic_result(rank, fetch_into, old);
                    self.step_done(rank, LOCAL_ACCESS_NS);
                } else {
                    let t = self.token(TokenUse::AtomicReply {
                        actor: rank,
                        fetch_into,
                        op,
                        served: false,
                    });
                    let request = DsmPayload::AtomicRequest {
                        range: target,
                        op: aop,
                        token: t,
                        det: self.det_header(rank, target),
                    };
                    self.send(rank, owner, request);
                    self.block(rank);
                }
            }
            Step::LocalAccess { op, range, write } => {
                if write {
                    let value = self.take_data(rank);
                    if let Err(e) = self.memories[rank].write(&range, &value, rank) {
                        self.errors.push(format!("P{rank}: local write: {e}"));
                    } else {
                        self.observe(&op);
                        self.trace.record_access(
                            op.write_access_id(),
                            rank,
                            AccessKind::Write,
                            range,
                        );
                    }
                } else {
                    match self.memories[rank].check_access(&range, rank) {
                        Ok(()) => {
                            self.observe(&op);
                            self.trace.record_access(
                                op.read_access_id(),
                                rank,
                                AccessKind::Read,
                                range,
                            );
                        }
                        Err(e) => self.errors.push(format!("P{rank}: local read: {e}")),
                    }
                }
                self.step_done(rank, LOCAL_ACCESS_NS);
            }
            Step::Compute(ns) => self.step_done(rank, ns),
            Step::Barrier => {
                // Arrival is a message to the coordinator (rank 0).
                self.send(rank, 0, DsmPayload::BarrierArrive { epoch: 0 });
                // Process stays blocked until BarrierRelease.
                self.block(rank);
            }
            Step::ReleaseDetLocks => {
                #[expect(
                    clippy::expect_used,
                    reason = "scheduler invariant: detection-lock bookkeeping runs only under an active plan."
                )]
                let plan = self.procs[rank].plan.as_mut().expect("plan");
                let mut locks = std::mem::take(&mut plan.det_locks);
                for &(owner, tok) in &locks {
                    self.release_lock(rank, owner, tok);
                }
                // Hand the emptied buffer back for the next plan.
                locks.clear();
                if let Some(plan) = self.procs[rank].plan.as_mut() {
                    plan.det_locks = locks;
                }
                self.step_done(rank, 0);
            }
            Step::Finish => self.finish(rank),
        }
    }

    /// Complete the current instruction: record its latency, move the pc
    /// on and wake the process for the next one.
    fn finish(&mut self, rank: Rank) {
        if let Some(plan) = self.procs[rank].plan.take() {
            let latency = self.now.since(plan.started_at);
            self.op_latencies.push((plan.class, latency));
            let Plan {
                mut steps,
                mut det_locks,
                ..
            } = plan;
            steps.clear();
            det_locks.clear();
            self.procs[rank].spare = Buffers { steps, det_locks };
        }
        self.procs[rank].pc += 1;
        self.wake(rank, self.now);
    }

    /// Move the plan's data bytes out for the step that ships them.
    fn take_data(&mut self, rank: Rank) -> Data {
        let plan = self.procs[rank].plan.as_mut();
        plan.and_then(|p| p.data.take()).unwrap_or_default()
    }

    /// `rank`'s current step has sent its request: block until the reply.
    pub(super) fn block(&mut self, rank: Rank) {
        if let Some(plan) = self.procs[rank].plan.as_mut() {
            plan.blocked = true;
        }
    }

    /// Mark the current step complete and wake the process after `cost` ns.
    pub(super) fn step_done(&mut self, rank: Rank, cost: u64) {
        #[expect(
            clippy::expect_used,
            reason = "scheduler invariant: plan-step advance runs only under an active plan."
        )]
        let plan = self.procs[rank].plan.as_mut().expect("plan");
        plan.idx += 1;
        let at = self.now + cost;
        self.wake(rank, at);
    }

    /// Advance `rank` past the reply it was blocked on and wake it at `at`.
    pub(super) fn resume(&mut self, rank: Rank, at: SimTime) {
        if let Some(plan) = self.procs[rank].plan.as_mut() {
            plan.idx += 1;
            plan.blocked = false;
        }
        self.wake(rank, at);
    }
}
