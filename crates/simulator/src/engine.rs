//! The discrete-event engine.
//!
//! Drives simulated processes through their programs, moving data through
//! the `netsim` interconnect and the `dsm` state machines, with a
//! `race_core::Detector` observing every access. The protocol follows the
//! paper exactly:
//!
//! * a **put** is one `PutData` message, fire-and-forget (Fig 2);
//! * a **get** is a `GetRequest` / `GetReply` exchange (two messages);
//! * a put overlapping an in-progress get at the owner is **deferred**
//!   until the get ends (Fig 3, via `dsm::RdmaEngine`);
//! * when the detector requires it (Algorithms 1–2), the op's **critical
//!   section runs at the owner** and the clocks are **piggy-backed**, so a
//!   detected remote access is two messages. The data request carries a
//!   [`DetHeader`]: the initiator's clock and a take-the-area-lock flag.
//!   The owner's NIC acquires the area lock in its `LockTable` on the
//!   initiator's behalf (queuing behind a holder like any lock request),
//!   reads `(V, W)`, performs the access through `RdmaEngine` (Fig 3
//!   deferral still applies, with the lock held across it), merges the
//!   clock (Algorithm 5), releases, and answers with `GetReply` /
//!   `AtomicReply` / `PutAck` carrying `(V, W)` for the initiator's
//!   Algorithm 3 comparison. A put therefore blocks for its ack under
//!   detection — the one message detection adds;
//! * an op that locks **two** public areas (a public local source or
//!   destination plus a remote area) keeps explicit NIC lock messages,
//!   acquired in canonical order — holding a local lock while a fused
//!   request queues remotely would deadlock against the symmetric op. It
//!   pays no clock messages either: `(V, W)` rides on the `LockGrant`, the
//!   initiator's clock on the data request, completion on the reply.
//!
//! Detection logic itself is centralised in the detector (the simulator is
//! omniscient); the wire messages carry the clocks as correctly-sized word
//! counts (`Detector::clock_components_per_area`) so the traffic accounting
//! (§V-A) is faithful while the logic stays in one place.

use std::collections::HashMap;
use std::sync::Arc;

use dsm::addr::{MemRange, Segment};
use dsm::lockmgr::{LockOutcome, LockTable};
use dsm::proto::{AtomicOp, DetHeader, DsmPayload, OpToken};
use dsm::rdma::{DeferredPut, RdmaEngine};
use dsm::ProcessMemory;
use netsim::{EventQueue, Message, NetStats, Network, SimTime};
use race_core::{
    dedup_reports, AccessKind, DsmOp, LockId, OpKind, RaceReport, RaceSummary, Session, Trace,
};

use crate::config::SimConfig;
use crate::program::{Instr, Program, Src};
use crate::tracebuild::TraceBuilder;
use crate::Rank;

/// Virtual cost of touching local memory (ns).
const LOCAL_ACCESS_NS: u64 = 50;
/// Virtual cost of a local NIC lock operation (ns).
const LOCAL_LOCK_NS: u64 = 20;
/// Safety cap on processed events (runaway guard).
const MAX_EVENTS: u64 = 50_000_000;
/// Safety cap on wedge-recovery rounds under lossy fault plans. Each round
/// force-advances every wedged rank by at least one plan step, so the
/// rounds a real program can need are bounded by its total step count;
/// this is a backstop against a recovery that stops making progress.
const MAX_RECOVERY_ROUNDS: u64 = 1_000_000;

/// Instruction class for latency reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrClass {
    /// One-sided put.
    Put,
    /// One-sided get.
    Get,
    /// NIC atomic read-modify-write.
    Atomic,
    /// Local read/write.
    Local,
    /// Lock/unlock.
    Lock,
    /// Barrier.
    Barrier,
}

impl InstrClass {
    /// Stable label.
    pub fn label(self) -> &'static str {
        match self {
            InstrClass::Put => "put",
            InstrClass::Get => "get",
            InstrClass::Atomic => "atomic",
            InstrClass::Local => "local",
            InstrClass::Lock => "lock",
            InstrClass::Barrier => "barrier",
        }
    }
}

/// Steps of an in-flight operation plan.
#[derive(Debug, Clone, Copy)]
enum Step {
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
        src: Option<MemRange>,
        dst: MemRange,
    },
    /// Move the get's data.
    GetData { src: MemRange, dst: MemRange },
    /// NIC-executed atomic read-modify-write (§V-B extension).
    AtomicData {
        target: MemRange,
        op: AtomicOp,
        fetch_into: Option<MemRange>,
    },
    /// Local access (observe + apply); a write takes [`Plan::data`].
    LocalAccess { range: MemRange, write: bool },
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
struct Plan {
    steps: Vec<Step>,
    idx: usize,
    op: Option<DsmOp>,
    /// Immediate bytes of a put / value of a local write, moved out by the
    /// step that ships them.
    data: Option<Vec<u8>>,
    /// The current step sent its request and waits for the reply (a
    /// message or a local lock grant). Only that reply — or the lossy-plan
    /// recovery — unblocks the process; any other wake is ignored, so a
    /// stray one never re-executes a step whose request is in flight.
    blocked: bool,
    det_locks: Vec<(Rank, u64)>,
    started_at: SimTime,
    class: InstrClass,
}

/// A program lock held by a process.
#[derive(Debug, Clone)]
struct HeldProgLock {
    range: MemRange,
    owner: Rank,
    lock_token: u64,
}

#[derive(Debug)]
struct Proc {
    program: Program,
    pc: usize,
    plan: Option<Plan>,
    prog_locks: Vec<HeldProgLock>,
    /// Slot filled by a lock-grant handler just before waking the process.
    last_grant: Option<(Rank, u64)>,
    done: bool,
}

impl Proc {
    fn held_lock_ids(&self) -> Vec<LockId> {
        self.prog_locks
            .iter()
            .map(|l| (l.range.addr.rank, l.range.addr.offset))
            .collect()
    }
}

/// What a completion token resolves to.
#[derive(Debug)]
enum TokenUse {
    /// Wake the process (a put's `PutAck` under detection).
    Wake(Rank),
    /// A lock grant (detection or program lock): stash the lock token for
    /// the lock step that asked, wake it.
    LockGrant(Rank),
    /// An atomic reply: store the old value at the requester, wake.
    AtomicReply {
        actor: Rank,
        fetch_into: Option<MemRange>,
        op: DsmOp,
        /// The request reached the owner (a duplicate must not be served).
        served: bool,
    },
    /// A get reply: apply data at the requester, wake, end the get at the
    /// owner.
    GetReply {
        actor: Rank,
        dst: MemRange,
        op: DsmOp,
        src_owner: Rank,
        /// The request reached the owner (a duplicate must not be served).
        served: bool,
    },
}

/// How a put completes once it is applied at the owner.
#[derive(Debug, Clone, Copy)]
enum PutDone {
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
struct PutCtx {
    op: DsmOp,
    held: Vec<LockId>,
    sent_at: SimTime,
    done: PutDone,
    /// The data reached the owner (a duplicate must not be applied).
    at_owner: bool,
}

/// A data request at its owner, waiting to be served (possibly queued on
/// the area lock it asked the owner to take).
#[derive(Debug)]
enum Request {
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

/// Engine events (beyond network arrivals).
#[derive(Debug)]
enum Ev {
    Wake(Rank),
}

/// Result of one simulated run.
#[derive(Debug)]
pub struct RunResult {
    /// Virtual time at quiescence.
    pub virtual_time: SimTime,
    /// Network traffic accounting.
    pub stats: NetStats,
    /// Every race report, in detection order.
    pub reports: Vec<RaceReport>,
    /// Reports deduplicated by access pair.
    pub deduped: Vec<RaceReport>,
    /// The session's bounded running aggregate over the *raw* report
    /// stream (what a long-running service would retain instead of
    /// [`RunResult::reports`]).
    pub summary: RaceSummary,
    /// The execution trace (for the oracle).
    pub trace: Trace,
    /// Detector clock storage, bytes (§IV-D accounting).
    pub clock_memory_bytes: usize,
    /// Per-op `(class, virtual ns)` latencies (put latency is the
    /// initiator-side injection time — a put is one-sided and does not
    /// block on remote application).
    pub op_latencies: Vec<(InstrClass, u64)>,
    /// Per-put `send → owner-apply` delay, ns. Fig 3: a put deferred behind
    /// an in-progress get shows an inflated entry here.
    pub put_apply_delays: Vec<u64>,
    /// Final memory images (for result verification).
    pub memories: Vec<ProcessMemory>,
    /// Ranks that never finished (deadlock / starvation bug in the input
    /// program). A wait lost to a *lossy fault plan* does not land here:
    /// the engine forces the waiter past the dropped step (recorded in
    /// [`RunResult::errors`]) and the run completes degraded.
    pub stuck: Vec<Rank>,
    /// Substrate errors surfaced during the run.
    pub errors: Vec<String>,
}

impl RunResult {
    /// Reports whose class is a true race (filters read-read FPs).
    pub fn true_races(&self) -> Vec<&RaceReport> {
        self.deduped
            .iter()
            .filter(|r| r.class.is_true_race())
            .collect()
    }

    /// Convenience: read a u64 from a final memory image.
    pub fn read_u64(&self, range: MemRange) -> u64 {
        let m = &self.memories[range.addr.rank];
        m.read_u64(range.addr, range.addr.rank).expect("readable")
    }
}

/// The discrete-event engine.
pub struct Engine {
    cfg: SimConfig,
    now: SimTime,
    net: Network<DsmPayload>,
    memories: Vec<ProcessMemory>,
    locks: Vec<LockTable>,
    rdma: Vec<RdmaEngine>,
    session: Session,
    trace: TraceBuilder,
    queue: EventQueue<Ev>,
    procs: Vec<Proc>,
    tokens: HashMap<OpToken, TokenUse>,
    put_ctx: HashMap<OpToken, PutCtx>,
    /// Local lock waiters: (owner, table lock token) → engine token.
    local_waiters: HashMap<(Rank, u64), OpToken>,
    /// Remote lock waiters: (owner, table lock token) → (requester, msg
    /// token, clock words the grant must carry).
    remote_waiters: HashMap<(Rank, u64), (Rank, OpToken, usize)>,
    /// Fused requests queued on the area lock the owner takes for them:
    /// (owner, table lock token) → (request, its detection header).
    fused_waiters: HashMap<(Rank, u64), (Request, DetHeader)>,
    /// Algorithms 1–2 run (the detector requires locking).
    detection: bool,
    /// Components of an area's `(V, W)` on the wire.
    area_clock_words: usize,
    next_token: OpToken,
    next_op_id: u64,
    barrier_arrived: Vec<Rank>,
    op_latencies: Vec<(InstrClass, u64)>,
    put_apply_delays: Vec<u64>,
    errors: Vec<String>,
    recovery_rounds: u64,
}

impl Engine {
    /// Build an engine from a configuration and one program per rank.
    ///
    /// # Panics
    /// Panics if `programs.len() != cfg.n`.
    pub fn new(cfg: SimConfig, programs: Vec<Program>) -> Self {
        assert_eq!(programs.len(), cfg.n, "one program per rank");
        let latency = cfg.latency.build(cfg.seed);
        let net = match cfg.faults {
            Some(spec) => Network::with_faults(
                cfg.n,
                cfg.topology,
                latency,
                netsim::FaultPlan::uniform(spec, cfg.seed),
            ),
            None => Network::new(cfg.n, cfg.topology, latency),
        };
        // One construction path for every knob: the embedded DetectorConfig
        // builds the detection Session. The default VecSink retains the
        // run's reports for RunResult; the session's summary aggregates
        // them bounded.
        let session = cfg.detector.clone().with_n(cfg.n).session();
        let detection = session.requires_locking();
        let area_clock_words = session.clock_components_per_area();
        let memories = (0..cfg.n)
            .map(|r| ProcessMemory::new(r, cfg.private_len, cfg.public_len))
            .collect();
        let procs = programs
            .into_iter()
            .map(|program| Proc {
                program,
                pc: 0,
                plan: None,
                prog_locks: Vec::new(),
                last_grant: None,
                done: false,
            })
            .collect();
        let mut queue = EventQueue::new();
        for r in 0..cfg.n {
            queue.schedule(SimTime::ZERO, Ev::Wake(r));
        }
        Engine {
            trace: TraceBuilder::new(cfg.n),
            locks: (0..cfg.n).map(|_| LockTable::new()).collect(),
            rdma: (0..cfg.n).map(|_| RdmaEngine::new()).collect(),
            net,
            memories,
            session,
            queue,
            procs,
            tokens: HashMap::new(),
            put_ctx: HashMap::new(),
            local_waiters: HashMap::new(),
            remote_waiters: HashMap::new(),
            fused_waiters: HashMap::new(),
            detection,
            area_clock_words,
            next_token: 0,
            next_op_id: 0,
            barrier_arrived: Vec::new(),
            op_latencies: Vec::new(),
            put_apply_delays: Vec::new(),
            errors: Vec::new(),
            recovery_rounds: 0,
            now: SimTime::ZERO,
            cfg,
        }
    }

    fn fresh_token(&mut self) -> OpToken {
        let t = self.next_token;
        self.next_token += 1;
        t
    }

    fn token(&mut self, usage: TokenUse) -> OpToken {
        let t = self.fresh_token();
        self.tokens.insert(t, usage);
        t
    }

    fn wake(&mut self, rank: Rank, at: SimTime) {
        self.queue.schedule(at, Ev::Wake(rank));
    }

    fn send(&mut self, src: Rank, dst: Rank, payload: DsmPayload) {
        let now = self.now;
        self.net.send(now, src, dst, payload);
    }

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

    /// Run to quiescence.
    ///
    /// Every rank executes its program to completion (or wedges, reported
    /// in [`RunResult::stuck`]); races are signalled in
    /// [`RunResult::reports`], never fatal:
    ///
    /// ```
    /// use dsm::GlobalAddr;
    /// use simulator::{Engine, Program, ProgramBuilder, SimConfig};
    ///
    /// // Fig 5a: two unsynchronised puts to the same word of P1's memory.
    /// let a = GlobalAddr::public(1, 0).range(8);
    /// let programs = vec![
    ///     ProgramBuilder::new(0).put_u64(0xAAAA, a).build(),
    ///     Program::new(),
    ///     ProgramBuilder::new(2).put_u64(0xCCCC, a).build(),
    /// ];
    /// let result = Engine::new(SimConfig::debugging(3), programs).run();
    /// assert_eq!(result.deduped.len(), 1); // exactly one write-write race
    /// assert!(result.stuck.is_empty());    // and the program completed
    /// let v = result.read_u64(a);
    /// assert!(v == 0xAAAA || v == 0xCCCC); // one of the racers won
    /// ```
    pub fn run(mut self) -> RunResult {
        let mut events: u64 = 0;
        loop {
            events += 1;
            if events > MAX_EVENTS {
                self.errors.push("event cap exceeded (livelock?)".into());
                break;
            }
            let t_net = self.net.next_arrival_time();
            let t_eng = self.queue.peek_time();
            match (t_net, t_eng) {
                (None, None) => {
                    // Quiescent with unfinished ranks: under a lossy fault
                    // plan a request or reply was dropped and the waiters
                    // would wedge forever. Force them past the lost wait
                    // (bounded-wait degrade) instead of giving up.
                    if self.recover_wedged() {
                        continue;
                    }
                    break;
                }
                (Some(tn), Some(te)) if te <= tn => {
                    let (at, ev) = self.queue.pop().expect("peeked");
                    self.now = at;
                    self.handle_event(ev);
                }
                (Some(_), _) => {
                    let (at, msg) = self.net.deliver_next().expect("peeked");
                    self.now = at;
                    self.handle_message(msg);
                }
                (None, Some(_)) => {
                    let (at, ev) = self.queue.pop().expect("peeked");
                    self.now = at;
                    self.handle_event(ev);
                }
            }
        }

        let stuck: Vec<Rank> = self
            .procs
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.done)
            .map(|(r, _)| r)
            .collect();
        // End the session: fire the sink's end-of-stream hook, and take
        // the retained reports plus the bounded aggregate.
        let clock_memory_bytes = self.session.clock_memory_bytes();
        let (mut summary, mut sink) = self.session.finish();
        // A run that absorbed injected network faults is a degraded run:
        // detection still saw every delivered event, but delivery itself
        // was perturbed, so downstream consumers should know (§IV-D:
        // trouble is signalled, never fatal).
        if self.net.stats().injected_total() > 0 {
            summary.degraded = true;
        }
        let reports = sink.take_reports();
        let deduped = dedup_reports(&reports);
        RunResult {
            virtual_time: self.now,
            stats: self.net.stats().clone(),
            clock_memory_bytes,
            reports,
            deduped,
            summary,
            trace: self.trace.finish(),
            op_latencies: self.op_latencies,
            put_apply_delays: self.put_apply_delays,
            memories: self.memories,
            stuck,
            errors: self.errors,
        }
    }

    /// Bounded-wait degrade for lossy fault plans (§IV-D: signalled,
    /// never fatal).
    ///
    /// Called when both queues drained with unfinished ranks. On a healthy
    /// network that is a program bug (a lock cycle), and the ranks are
    /// reported in [`RunResult::stuck`] — this returns `false` and the run
    /// ends. But when the fault plan injected drops or duplicates, the
    /// wait a rank wedged on may simply never resolve; here each wedged
    /// rank is forced past its blocked step, the skip is recorded in
    /// [`RunResult::errors`], and the loop resumes so the run *completes*
    /// (degraded — the injection already marked the summary). Forcing past
    /// a barrier clears the partial arrival set: those arrivals belong to
    /// the epoch being broken, and keeping them would trip a later barrier
    /// early. Returns `true` when any rank was re-armed.
    fn recover_wedged(&mut self) -> bool {
        if self.net.stats().injected_total() == 0 {
            return false;
        }
        let wedged: Vec<Rank> = (0..self.cfg.n).filter(|&r| !self.procs[r].done).collect();
        if wedged.is_empty() {
            return false;
        }
        self.recovery_rounds += 1;
        if self.recovery_rounds > MAX_RECOVERY_ROUNDS {
            self.errors
                .push("recovery round cap exceeded; reporting remaining ranks stuck".into());
            return false;
        }
        let mut barrier_broken = false;
        for rank in wedged {
            // A rank wedges *blocked*: on a reply message (remote lock,
            // put ack, get, atomic), on a local lock-table grant, or on a
            // barrier release. Skip that step — the reply is gone — and
            // wake the rank so the plan continues. Steps that complete
            // inline cannot be pending at quiescence, but if one is found
            // anyway a plain re-wake re-executes it harmlessly.
            let forced = match self.procs[rank].plan.as_mut() {
                Some(plan) => match plan.steps.get(plan.idx) {
                    Some(step) => {
                        let waits = std::mem::take(&mut plan.blocked);
                        barrier_broken |= matches!(step, Step::Barrier);
                        let label = Self::step_label(step);
                        if waits {
                            plan.idx += 1;
                        }
                        Some((label, waits))
                    }
                    None => None,
                },
                None => None,
            };
            match forced {
                Some((label, true)) => self.errors.push(format!(
                    "P{rank}: wedged at {label} under lossy delivery; step skipped (degraded)"
                )),
                Some((label, false)) => self.errors.push(format!(
                    "P{rank}: re-woken at {label} under lossy delivery (degraded)"
                )),
                None => self.errors.push(format!(
                    "P{rank}: wedged between steps under lossy delivery; re-woken (degraded)"
                )),
            }
            self.wake(rank, self.now);
        }
        if barrier_broken {
            self.barrier_arrived.clear();
        }
        true
    }

    /// Human-readable name of a plan step for recovery error lines.
    fn step_label(step: &Step) -> &'static str {
        match step {
            Step::DetLock(_) => "detection-lock wait",
            Step::ProgLock(_) => "program-lock wait",
            Step::ProgUnlock(_) => "program unlock",
            Step::PutData { .. } => "put data",
            Step::GetData { .. } => "get data",
            Step::AtomicData { .. } => "atomic",
            Step::LocalAccess { .. } => "local access",
            Step::Compute(_) => "compute",
            Step::Barrier => "barrier wait",
            Step::ReleaseDetLocks => "detection-lock release",
            Step::Finish => "finish",
        }
    }

    fn handle_event(&mut self, ev: Ev) {
        match ev {
            Ev::Wake(rank) => self.advance(rank),
        }
    }

    // ----- program advancement -------------------------------------------

    /// Build the plan for the next instruction of `rank`.
    fn build_plan(&mut self, rank: Rank) -> Option<Plan> {
        let instr = self.procs[rank].program.get(self.procs[rank].pc)?.clone();
        let op_id = self.next_op_id;
        self.next_op_id += 1;
        let op = |kind| {
            Some(DsmOp {
                op_id,
                actor: rank,
                kind,
            })
        };

        let mut steps = Vec::new();
        let mut data = None;
        let (op, class) = match instr {
            Instr::Put { src, dst } => {
                let src_range = match src {
                    Src::Range(r) => Some(r),
                    Src::Imm(v) => {
                        data = Some(v);
                        None
                    }
                };
                let kind = OpKind::Put {
                    src: src_range.unwrap_or_else(|| dsm::GlobalAddr::private(rank, 0).range(0)),
                    dst,
                };
                let access = Step::PutData {
                    src: src_range,
                    dst,
                };
                self.push_access(&mut steps, rank, src_range, Some(dst), access);
                (op(kind), InstrClass::Put)
            }
            Instr::Get { src, dst } => {
                let access = Step::GetData { src, dst };
                self.push_access(&mut steps, rank, Some(src), Some(dst), access);
                (op(OpKind::Get { src, dst }), InstrClass::Get)
            }
            Instr::LocalRead { range } => {
                let access = Step::LocalAccess {
                    range,
                    write: false,
                };
                self.push_access(&mut steps, rank, Some(range), None, access);
                (op(OpKind::LocalRead { range }), InstrClass::Local)
            }
            Instr::LocalWrite { range, value } => {
                data = Some(value);
                let access = Step::LocalAccess { range, write: true };
                self.push_access(&mut steps, rank, Some(range), None, access);
                (op(OpKind::LocalWrite { range }), InstrClass::Local)
            }
            Instr::Atomic {
                target,
                op: aop,
                fetch_into,
            } => {
                let access = Step::AtomicData {
                    target,
                    op: aop,
                    fetch_into,
                };
                self.push_access(&mut steps, rank, Some(target), None, access);
                (op(OpKind::AtomicRmw { range: target }), InstrClass::Atomic)
            }
            Instr::Compute { ns } => {
                steps.push(Step::Compute(ns));
                (None, InstrClass::Local)
            }
            Instr::Lock { range } => {
                steps.push(Step::ProgLock(range));
                (None, InstrClass::Lock)
            }
            Instr::Unlock { range } => {
                steps.push(Step::ProgUnlock(range));
                (None, InstrClass::Lock)
            }
            Instr::Barrier => {
                steps.push(Step::Barrier);
                (None, InstrClass::Barrier)
            }
        };
        steps.push(Step::Finish);
        Some(Plan {
            steps,
            idx: 0,
            op,
            data,
            blocked: false,
            det_locks: Vec::new(),
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
            Vec::new()
        };
        let fused = matches!(locks[..], [r] if r.addr.rank != rank);
        if fused || locks.is_empty() {
            steps.push(access);
        } else {
            steps.extend(locks.into_iter().map(Step::DetLock));
            steps.push(access);
            steps.push(Step::ReleaseDetLocks);
        }
    }

    /// Public ranges an op must lock, canonical order, overlaps merged.
    fn lock_ranges(a: Option<MemRange>, b: Option<MemRange>) -> Vec<MemRange> {
        let mut v: Vec<MemRange> = [a, b]
            .into_iter()
            .flatten()
            .filter(|r| r.addr.segment == Segment::Public && r.len > 0)
            .collect();
        v.sort_by_key(|r| r.canonical_key());
        // Merge overlapping ranges (same rank) so a plan never queues
        // behind its own lock.
        let mut out: Vec<MemRange> = Vec::new();
        for r in v {
            if let Some(last) = out.last_mut() {
                if last.overlaps(&r) {
                    let start = last.addr.offset.min(r.addr.offset);
                    let end = last.end().max(r.end());
                    *last = dsm::GlobalAddr::public(last.addr.rank, start).range(end - start);
                    continue;
                }
            }
            out.push(r);
        }
        out
    }

    /// Advance the process: execute its current step (building a plan from
    /// the next instruction if needed). Steps either complete inline and
    /// schedule the next wake, or send a message and wait.
    fn advance(&mut self, rank: Rank) {
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
        let idx = self.procs[rank].plan.as_ref().expect("plan").idx;
        let step = match self.procs[rank].plan.as_ref().expect("plan").steps.get(idx) {
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
                let plan = self.procs[rank].plan.take().expect("plan");
                self.op_latencies
                    .push((plan.class, self.now.since(plan.started_at)));
                self.procs[rank].pc += 1;
                self.wake(rank, self.now);
                return;
            }
        };
        match step {
            Step::DetLock(range) => {
                // Skip when a held program lock already covers the range
                // (the program took the paper's lock itself).
                let covered = self.procs[rank]
                    .prog_locks
                    .iter()
                    .any(|l| l.range.overlaps(&range));
                if covered {
                    self.step_done(rank, 0);
                    return;
                }
                // Consume a grant stashed by the handler, if we were woken
                // by one.
                if let Some(grant) = self.procs[rank].last_grant.take() {
                    self.procs[rank]
                        .plan
                        .as_mut()
                        .expect("plan")
                        .det_locks
                        .push(grant);
                    self.step_done(rank, 0);
                    return;
                }
                let owner = range.addr.rank;
                if owner == rank {
                    match self.locks[owner].acquire(range, rank) {
                        LockOutcome::Granted(tok) => {
                            self.procs[rank]
                                .plan
                                .as_mut()
                                .expect("plan")
                                .det_locks
                                .push((owner, tok));
                            self.step_done(rank, LOCAL_LOCK_NS);
                        }
                        LockOutcome::Queued(tok) => {
                            // Local waiter: resolved when release() grants.
                            let t = self.token(TokenUse::LockGrant(rank));
                            self.local_waiters_insert(owner, tok, t);
                            self.block(rank);
                        }
                    }
                } else {
                    // The grant delivers the area's (V, W) — the `get_clock`
                    // of Algorithms 1–2 — so no clock message follows.
                    let t = self.token(TokenUse::LockGrant(rank));
                    self.send(
                        rank,
                        owner,
                        DsmPayload::LockRequest {
                            range,
                            token: t,
                            clock_words: self.area_clock_words,
                        },
                    );
                    self.block(rank);
                }
            }
            Step::ProgLock(range) => {
                if let Some(grant) = self.procs[rank].last_grant.take() {
                    self.procs[rank].prog_locks.push(HeldProgLock {
                        range,
                        owner: grant.0,
                        lock_token: grant.1,
                    });
                    let lock_id = (range.addr.rank, range.addr.offset);
                    self.trace.on_lock_granted(lock_id, rank);
                    self.session.on_acquire(rank, lock_id);
                    self.step_done(rank, 0);
                    return;
                }
                if range.addr.segment != Segment::Public {
                    // Private locks are no-ops (§IV-A).
                    self.step_done(rank, 0);
                    return;
                }
                let owner = range.addr.rank;
                if owner == rank {
                    match self.locks[owner].acquire(range, rank) {
                        LockOutcome::Granted(tok) => {
                            self.procs[rank].prog_locks.push(HeldProgLock {
                                range,
                                owner,
                                lock_token: tok,
                            });
                            let lock_id = (range.addr.rank, range.addr.offset);
                            self.trace.on_lock_granted(lock_id, rank);
                            self.session.on_acquire(rank, lock_id);
                            self.step_done(rank, LOCAL_LOCK_NS);
                        }
                        LockOutcome::Queued(tok) => {
                            let t = self.token(TokenUse::LockGrant(rank));
                            self.local_waiters_insert(owner, tok, t);
                            self.block(rank);
                        }
                    }
                } else {
                    let t = self.token(TokenUse::LockGrant(rank));
                    self.send(
                        rank,
                        owner,
                        DsmPayload::LockRequest {
                            range,
                            token: t,
                            clock_words: 0,
                        },
                    );
                    self.block(rank);
                }
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
            Step::PutData { src, dst } => {
                let Some((op, imm)) = self.current_op(rank) else {
                    return;
                };
                // Materialise the data on the source side.
                let data: Vec<u8> = match src {
                    Some(r) => match self.memories[rank].read(&r, rank) {
                        Ok(d) => d,
                        Err(e) => {
                            self.errors.push(format!("P{rank}: put source: {e}"));
                            self.step_done(rank, 0);
                            return;
                        }
                    },
                    None => imm.unwrap_or_default(),
                };
                let held = self.procs[rank].held_lock_ids();
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
                        held,
                        sent_at: self.now,
                        done,
                        at_owner: false,
                    },
                );
                let data: Arc<[u8]> = Arc::from(data);
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
            Step::GetData { src, dst } => {
                let Some((op, _)) = self.current_op(rank) else {
                    return;
                };
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
                target,
                op: aop,
                fetch_into,
            } => {
                let Some((op, _)) = self.current_op(rank) else {
                    return;
                };
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
            Step::LocalAccess { range, write } => {
                let Some((op, value)) = self.current_op(rank) else {
                    return;
                };
                let held = self.procs[rank].held_lock_ids();
                if write {
                    let value = value.unwrap_or_default();
                    if let Err(e) = self.memories[rank].write(&range, &value, rank) {
                        self.errors.push(format!("P{rank}: local write: {e}"));
                    } else {
                        self.observe(&op, &held);
                        self.trace.record_access(
                            op.write_access_id(),
                            rank,
                            AccessKind::Write,
                            range,
                        );
                    }
                } else {
                    match self.memories[rank].read(&range, rank) {
                        Ok(_) => {
                            self.observe(&op, &held);
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
            Step::Compute(ns) => {
                self.step_done(rank, ns);
            }
            Step::Barrier => {
                // Arrival is a message to the coordinator (rank 0).
                self.send(rank, 0, DsmPayload::BarrierArrive { epoch: 0 });
                // Process stays blocked until BarrierRelease.
                self.block(rank);
            }
            Step::ReleaseDetLocks => {
                let locks =
                    std::mem::take(&mut self.procs[rank].plan.as_mut().expect("plan").det_locks);
                for (owner, tok) in locks {
                    self.release_lock(rank, owner, tok);
                }
                self.step_done(rank, 0);
            }
            Step::Finish => {
                let plan = self.procs[rank].plan.take().expect("plan");
                let latency = self.now.since(plan.started_at);
                self.op_latencies.push((plan.class, latency));
                self.procs[rank].pc += 1;
                self.wake(rank, self.now);
            }
        }
    }

    /// The op of `rank`'s current plan, with the plan's data bytes moved
    /// out for the step that ships them. `None` (recorded, and the step
    /// skipped) if the plan carries no op — data steps are only built for
    /// instructions that have one.
    fn current_op(&mut self, rank: Rank) -> Option<(DsmOp, Option<Vec<u8>>)> {
        let plan = self.procs[rank].plan.as_mut()?;
        match plan.op {
            Some(op) => Some((op, plan.data.take())),
            None => {
                self.errors
                    .push(format!("P{rank}: data step without an op; skipped"));
                self.step_done(rank, 0);
                None
            }
        }
    }

    /// `rank`'s current step has sent its request: block until the reply.
    fn block(&mut self, rank: Rank) {
        if let Some(plan) = self.procs[rank].plan.as_mut() {
            plan.blocked = true;
        }
    }

    /// Mark the current step complete and wake the process after `cost` ns.
    fn step_done(&mut self, rank: Rank, cost: u64) {
        let plan = self.procs[rank].plan.as_mut().expect("plan");
        plan.idx += 1;
        let at = self.now + cost;
        self.wake(rank, at);
    }

    // ----- lock plumbing ---------------------------------------------------

    /// Map from (owner, table lock token) to the engine completion token of
    /// a *local* waiter (remote waiters are keyed by the message token).
    fn local_waiters_insert(&mut self, owner: Rank, table_token: u64, engine_token: OpToken) {
        self.local_waiters
            .insert((owner, table_token), engine_token);
    }

    /// Release a lock (local table call or remote message) and deliver any
    /// resulting grants.
    fn release_lock(&mut self, holder: Rank, owner: Rank, lock_token: u64) {
        if owner == holder {
            match self.locks[owner].release(lock_token) {
                Ok(grants) => self.dispatch_grants(owner, grants),
                Err(e) => self.errors.push(format!("P{holder}: release: {e}")),
            }
        } else {
            self.send(holder, owner, DsmPayload::LockRelease { lock_token });
        }
    }

    /// Deliver lock grants produced at `owner`'s table: to a local waiter
    /// (engine token), to a remote waiter (`LockGrant` message), or to a
    /// fused request the owner queued on the lock it takes for it.
    fn dispatch_grants(&mut self, owner: Rank, grants: Vec<dsm::lockmgr::Grant>) {
        for g in grants {
            let key = (owner, g.token);
            if let Some(engine_token) = self.local_waiters.remove(&key) {
                self.complete_lock_grant(engine_token, owner, g.token);
            } else if let Some((requester, token, clock_words)) = self.remote_waiters.remove(&key) {
                self.send(
                    owner,
                    requester,
                    DsmPayload::LockGrant {
                        token,
                        lock_token: g.token,
                        clock_words,
                    },
                );
            } else if let Some((request, det)) = self.fused_waiters.remove(&key) {
                self.serve(owner, request, Some(det), Some(g.token));
            } else {
                self.errors
                    .push(format!("grant for unknown waiter at P{owner}"));
            }
        }
    }

    /// Resolve the engine token of a granted lock request (a local grant,
    /// or a `LockGrant` message from `owner`).
    fn complete_lock_grant(&mut self, engine_token: OpToken, owner: Rank, lock_token: u64) {
        match self.tokens.remove(&engine_token) {
            Some(TokenUse::LockGrant(rank)) => {
                self.deliver_grant(rank, owner, lock_token);
            }
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

    // ----- owner-side operations ------------------------------------------

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
                    self.fused_waiters.insert((owner, lock), (request, d));
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
    fn serve(&mut self, owner: Rank, request: Request, det: Option<DetHeader>, lock: Option<u64>) {
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
    fn apply_put_at_owner(&mut self, owner: Rank, put: DeferredPut) {
        match self.rdma[owner].submit_put(put) {
            Some(put) => self.apply_put_now(owner, put),
            None => { /* deferred until end_get (Fig 3) */ }
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
            self.observe(&ctx.op, &ctx.held);
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

    /// Advance `rank` past the reply it was blocked on and wake it at `at`.
    fn resume(&mut self, rank: Rank, at: SimTime) {
        if let Some(plan) = self.procs[rank].plan.as_mut() {
            plan.idx += 1;
            plan.blocked = false;
        }
        self.wake(rank, at);
    }

    /// Serve a get at the owner: observe, read, then apply locally
    /// (`reply_words` is `None`) or reply with that many clock words.
    fn serve_get_request(
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
        let held = self.procs[actor].held_lock_ids();
        self.rdma[owner].begin_get(token, src);
        let (data, cost) = match self.memories[owner].read(&src, actor) {
            Ok(data) => {
                self.observe(&op, &held);
                self.trace
                    .record_access(op.read_access_id(), actor, AccessKind::Read, src);
                (Arc::from(data), LOCAL_ACCESS_NS)
            }
            Err(e) => {
                self.errors.push(format!("get read at P{owner}: {e}"));
                // Unblock the requester with empty data to avoid deadlock.
                (Arc::from([]), 0)
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
    fn finish_get(&mut self, token: OpToken, data: Arc<[u8]>, at: SimTime) {
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
            if data.len() == dst.len {
                if let Err(e) = self.memories[actor].write(&dst, &data, actor) {
                    self.errors.push(format!("get apply at P{actor}: {e}"));
                } else {
                    self.trace
                        .record_access(op.write_access_id(), actor, AccessKind::Write, dst);
                }
            } else {
                self.errors.push(format!(
                    "get reply size {} != dst len {}",
                    data.len(),
                    dst.len
                ));
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
    /// flagged atomic), apply, trace. Returns the previous value.
    ///
    /// Note: atomics are NIC-serialised and are NOT subject to the Fig 3
    /// put-deferral window — real NICs execute them in the message
    /// processing path regardless of in-flight reads.
    fn apply_atomic_at_owner(
        &mut self,
        owner: Rank,
        target: MemRange,
        aop: AtomicOp,
        op: &DsmOp,
    ) -> u64 {
        assert_eq!(target.len, 8, "atomics operate on u64 words");
        let initiator = op.actor;
        // The initiator is blocked on the atomic, so the program locks it
        // holds now are the ones it held at issue.
        let held = self.procs[initiator].held_lock_ids();
        let old = match self.memories[owner].read_u64(target.addr, initiator) {
            Ok(v) => v,
            Err(e) => {
                self.errors.push(format!("atomic read at P{owner}: {e}"));
                return 0;
            }
        };
        self.observe(op, &held);
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

    fn store_atomic_result(&mut self, rank: Rank, fetch_into: Option<MemRange>, old: u64) {
        if let Some(dst) = fetch_into {
            if let Err(e) = self.memories[rank].write(&dst, &old.to_le_bytes(), rank) {
                self.errors
                    .push(format!("atomic fetch store at P{rank}: {e}"));
            }
        }
    }

    fn observe(&mut self, op: &DsmOp, held: &[LockId]) {
        self.session.observe(op, held);
    }

    // ----- message handling -------------------------------------------------

    fn handle_message(&mut self, msg: Message<DsmPayload>) {
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
            } => {
                self.admit(dst, src, Request::Get { src: range, token }, det);
            }
            DsmPayload::GetReply { token, data, .. } => {
                self.finish_get(token, data, self.now);
            }
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
                    self.remote_waiters
                        .insert((dst, lock_token), (src, token, clock_words));
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
            } => {
                self.admit(dst, src, Request::Atomic { range, aop, token }, det);
            }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm::GlobalAddr;

    fn pub_range(rank: Rank, off: usize, len: usize) -> MemRange {
        GlobalAddr::public(rank, off).range(len)
    }

    #[test]
    fn lock_ranges_sorts_canonically() {
        let a = pub_range(1, 0, 8);
        let b = pub_range(0, 64, 8);
        let v = Engine::lock_ranges(Some(a), Some(b));
        assert_eq!(v, vec![b, a], "rank 0 locked before rank 1");
    }

    #[test]
    fn lock_ranges_merges_overlaps() {
        // An op whose source and destination overlap must lock their union
        // once, or it would queue behind its own lock.
        let a = pub_range(0, 0, 16);
        let b = pub_range(0, 8, 16);
        let v = Engine::lock_ranges(Some(a), Some(b));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0], pub_range(0, 0, 24));
    }

    #[test]
    fn lock_ranges_skips_private_and_empty() {
        let priv_r = GlobalAddr::private(0, 0).range(8);
        let empty = pub_range(0, 0, 0);
        let real = pub_range(1, 0, 8);
        assert_eq!(Engine::lock_ranges(Some(priv_r), Some(real)), vec![real]);
        assert!(Engine::lock_ranges(Some(empty), None).is_empty());
    }

    #[test]
    fn identical_ranges_lock_once() {
        let r = pub_range(0, 0, 8);
        assert_eq!(Engine::lock_ranges(Some(r), Some(r)).len(), 1);
    }

    #[test]
    fn instr_class_labels_unique() {
        let labels = [
            InstrClass::Put,
            InstrClass::Get,
            InstrClass::Atomic,
            InstrClass::Local,
            InstrClass::Lock,
            InstrClass::Barrier,
        ]
        .map(InstrClass::label);
        let set: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(set.len(), labels.len());
    }
}
