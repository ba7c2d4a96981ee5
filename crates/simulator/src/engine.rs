//! The discrete-event engine.
//!
//! Drives simulated processes through their programs, moving data through
//! the `netsim` interconnect and the `dsm` state machines, with a
//! `race_core::Detector` observing every access. The protocol follows the
//! paper exactly:
//!
//! * a **put** is one `PutData` message (plus a completion ack — the
//!   paper's operations are atomic/blocking, §III-B);
//! * a **get** is a `GetRequest` / `GetReply` exchange (two messages);
//! * a put overlapping an in-progress get at the owner is **deferred**
//!   until the get ends (Fig 3, via `dsm::RdmaEngine`);
//! * when the detector requires it (Algorithms 1–2), the op is wrapped in
//!   NIC **area locks** on its public source/destination (acquired in
//!   canonical order to avoid deadlock) and **clock traffic** is exchanged
//!   with each *remote* area's owner: one `ClockReadRequest`/`Reply` before
//!   the data (the `get_clock` of Algorithms 1–2) and one
//!   `ClockWrite`/`Ack` after it (Algorithm 5's `update_clock`), sized by
//!   `Detector::clock_components_per_area`.
//!
//! Detection logic itself is centralised in the detector (the simulator is
//! omniscient); the wire messages carry correctly-sized dummy clock payloads
//! so the traffic accounting (§V-A) is faithful while the logic stays in
//! one place.

use std::collections::HashMap;

use bytes::Bytes;
use dsm::addr::{MemRange, Segment};
use dsm::lockmgr::{LockOutcome, LockTable};
use dsm::proto::{AtomicOp, DsmPayload, OpToken};
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
#[derive(Debug, Clone)]
enum Step {
    /// Acquire a detection lock (skipped if a held program lock covers it).
    DetLock(MemRange),
    /// Acquire a program lock (the `Lock` instruction).
    ProgLock(MemRange),
    /// Release a program lock.
    ProgUnlock(MemRange),
    /// Fetch a remote area's clocks (detection traffic).
    ClockFetch(MemRange),
    /// Push merged clocks to a remote area (detection traffic).
    ClockPush(MemRange),
    /// Move the put's data.
    PutData {
        src: Option<MemRange>,
        imm: Option<Vec<u8>>,
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
    /// Local access (observe + apply).
    LocalAccess {
        range: MemRange,
        write: Option<Vec<u8>>,
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
struct Plan {
    steps: Vec<Step>,
    idx: usize,
    op: Option<DsmOp>,
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
    /// Wake the process (simple acks: clock traffic, put ack).
    Wake(Rank),
    /// A detection-lock grant: stash the lock token, wake.
    DetLockGrant(Rank),
    /// A program-lock grant: stash, wake, record the HB hand-off.
    ProgLockGrant(Rank, MemRange),
    /// An atomic reply: store the old value at the requester, wake.
    AtomicReply {
        actor: Rank,
        fetch_into: Option<MemRange>,
    },
    /// A get reply: apply data at the requester, wake, end the get at the
    /// owner.
    GetReply {
        actor: Rank,
        dst: MemRange,
        op: DsmOp,
        src_owner: Rank,
    },
}

/// Context needed when a put's data is applied at the owner.
#[derive(Debug)]
struct PutCtx {
    op: DsmOp,
    held: Vec<LockId>,
    sent_at: SimTime,
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
    /// Pending atomic ops: token → (op, program locks held at issue).
    atomic_ctx: HashMap<OpToken, (DsmOp, Vec<LockId>)>,
    /// Local lock waiters: (owner, table lock token) → engine token.
    local_waiters: HashMap<(Rank, u64), OpToken>,
    /// Remote lock waiters: (owner, table lock token) → (requester, msg token).
    remote_waiters: HashMap<(Rank, u64), (Rank, OpToken)>,
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
            atomic_ctx: HashMap::new(),
            local_waiters: HashMap::new(),
            remote_waiters: HashMap::new(),
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

    fn token(&mut self, usage: TokenUse) -> OpToken {
        let t = self.next_token;
        self.next_token += 1;
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

    /// Dummy clock components sized for the wire (logic is centralised).
    fn clock_payload(&self) -> Vec<u64> {
        vec![0; self.session.clock_components_per_area() / 2]
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
        let (mut summary, sink) = self.session.finish();
        // A run that absorbed injected network faults is a degraded run:
        // detection still saw every delivered event, but delivery itself
        // was perturbed, so downstream consumers should know (§IV-D:
        // trouble is signalled, never fatal).
        if self.net.stats().injected_total() > 0 {
            summary.degraded = true;
        }
        let reports = sink.reports().to_vec();
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
            // A rank wedges *waiting*: on a reply message (remote lock,
            // clock, get, atomic), on a local lock-table grant, or on a
            // barrier release. Skip that step — the reply is gone — and
            // wake the rank so the plan continues. Steps that complete
            // inline cannot be pending at quiescence, but if one is found
            // anyway a plain re-wake re-executes it harmlessly.
            let forced = match self.procs[rank].plan.as_mut() {
                Some(plan) => match plan.steps.get(plan.idx) {
                    Some(step) => {
                        let waits = matches!(
                            step,
                            Step::DetLock(_)
                                | Step::ProgLock(_)
                                | Step::ClockFetch(_)
                                | Step::ClockPush(_)
                                | Step::GetData { .. }
                                | Step::AtomicData { .. }
                                | Step::Barrier
                        );
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
            Step::ClockFetch(_) => "clock fetch",
            Step::ClockPush(_) => "clock push",
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
        let detection = self.session.requires_locking();
        let op_id = self.next_op_id;
        self.next_op_id += 1;

        let mut steps = Vec::new();
        let (op, class) = match instr {
            Instr::Put { src, dst } => {
                let (src_range, imm) = match src {
                    Src::Range(r) => (Some(r), None),
                    Src::Imm(v) => (None, Some(v)),
                };
                let kind = OpKind::Put {
                    src: src_range.unwrap_or_else(|| dsm::GlobalAddr::private(rank, 0).range(0)),
                    dst,
                };
                let op = DsmOp {
                    op_id,
                    actor: rank,
                    kind,
                };
                if detection {
                    for r in Self::lock_ranges(src_range, Some(dst)) {
                        steps.push(Step::DetLock(r));
                    }
                    for r in op.remote_public_ranges() {
                        steps.push(Step::ClockFetch(r));
                    }
                }
                steps.push(Step::PutData {
                    src: src_range,
                    imm,
                    dst,
                });
                if detection {
                    for r in op.remote_public_ranges() {
                        steps.push(Step::ClockPush(r));
                    }
                    steps.push(Step::ReleaseDetLocks);
                }
                (Some(op), InstrClass::Put)
            }
            Instr::Get { src, dst } => {
                let op = DsmOp {
                    op_id,
                    actor: rank,
                    kind: OpKind::Get { src, dst },
                };
                if detection {
                    for r in Self::lock_ranges(Some(src), Some(dst)) {
                        steps.push(Step::DetLock(r));
                    }
                    for r in op.remote_public_ranges() {
                        steps.push(Step::ClockFetch(r));
                    }
                }
                steps.push(Step::GetData { src, dst });
                if detection {
                    for r in op.remote_public_ranges() {
                        steps.push(Step::ClockPush(r));
                    }
                    steps.push(Step::ReleaseDetLocks);
                }
                (Some(op), InstrClass::Get)
            }
            Instr::LocalRead { range } => {
                let op = DsmOp {
                    op_id,
                    actor: rank,
                    kind: OpKind::LocalRead { range },
                };
                if detection && range.addr.segment == Segment::Public {
                    steps.push(Step::DetLock(range));
                }
                steps.push(Step::LocalAccess { range, write: None });
                if detection && range.addr.segment == Segment::Public {
                    steps.push(Step::ReleaseDetLocks);
                }
                (Some(op), InstrClass::Local)
            }
            Instr::LocalWrite { range, value } => {
                let op = DsmOp {
                    op_id,
                    actor: rank,
                    kind: OpKind::LocalWrite { range },
                };
                if detection && range.addr.segment == Segment::Public {
                    steps.push(Step::DetLock(range));
                }
                steps.push(Step::LocalAccess {
                    range,
                    write: Some(value),
                });
                if detection && range.addr.segment == Segment::Public {
                    steps.push(Step::ReleaseDetLocks);
                }
                (Some(op), InstrClass::Local)
            }
            Instr::Atomic {
                target,
                op: aop,
                fetch_into,
            } => {
                let op = DsmOp {
                    op_id,
                    actor: rank,
                    kind: OpKind::AtomicRmw { range: target },
                };
                if detection {
                    steps.push(Step::DetLock(target));
                    for r in op.remote_public_ranges() {
                        steps.push(Step::ClockFetch(r));
                    }
                }
                steps.push(Step::AtomicData {
                    target,
                    op: aop,
                    fetch_into,
                });
                if detection {
                    for r in op.remote_public_ranges() {
                        steps.push(Step::ClockPush(r));
                    }
                    steps.push(Step::ReleaseDetLocks);
                }
                (Some(op), InstrClass::Atomic)
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
            det_locks: Vec::new(),
            started_at: self.now,
            class,
        })
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

        let idx = self.procs[rank].plan.as_ref().expect("plan").idx;
        let step = match self.procs[rank].plan.as_ref().expect("plan").steps.get(idx) {
            Some(s) => s.clone(),
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
                            let t = self.token(TokenUse::DetLockGrant(rank));
                            self.local_waiters_insert(owner, tok, t);
                        }
                    }
                } else {
                    let t = self.token(TokenUse::DetLockGrant(rank));
                    self.send(rank, owner, DsmPayload::LockRequest { range, token: t });
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
                            let t = self.token(TokenUse::ProgLockGrant(rank, range));
                            self.local_waiters_insert(owner, tok, t);
                        }
                    }
                } else {
                    let t = self.token(TokenUse::ProgLockGrant(rank, range));
                    self.send(rank, owner, DsmPayload::LockRequest { range, token: t });
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
            Step::ClockFetch(range) => {
                let owner = range.addr.rank;
                let t = self.token(TokenUse::Wake(rank));
                self.send(
                    rank,
                    owner,
                    DsmPayload::ClockReadRequest { range, token: t },
                );
            }
            Step::ClockPush(range) => {
                let owner = range.addr.rank;
                let t = self.token(TokenUse::Wake(rank));
                let v = self.clock_payload();
                let w = self.clock_payload();
                self.send(
                    rank,
                    owner,
                    DsmPayload::ClockWrite {
                        range,
                        v,
                        w,
                        token: t,
                    },
                );
            }
            Step::PutData { src, imm, dst } => {
                // Materialise the data on the source side.
                let data: Vec<u8> = match (&src, &imm) {
                    (Some(r), _) => match self.memories[rank].read(r, rank) {
                        Ok(d) => d,
                        Err(e) => {
                            self.errors.push(format!("P{rank}: put source: {e}"));
                            self.step_done(rank, 0);
                            return;
                        }
                    },
                    (None, Some(v)) => v.clone(),
                    (None, None) => Vec::new(),
                };
                let op = self.procs[rank]
                    .plan
                    .as_ref()
                    .expect("plan")
                    .op
                    .expect("op");
                let held = self.procs[rank].held_lock_ids();
                // Source-side read access happens now (trace), unless imm.
                if let Some(r) = src {
                    self.trace
                        .record_access(op.read_access_id(), rank, AccessKind::Read, r);
                }
                // Puts are one-sided: the initiator injects the single data
                // message (Fig 2) and proceeds. Ordering guarantees under
                // detection come from the FIFO channel: the subsequent
                // ClockPush ack cannot return before the data was applied.
                let t = self.next_token;
                self.next_token += 1;
                self.put_ctx.insert(
                    t,
                    PutCtx {
                        op,
                        held,
                        sent_at: self.now,
                    },
                );
                let owner = dst.addr.rank;
                if owner == rank {
                    // Local put: apply through the same owner-side path, no
                    // wire messages (NIC loopback).
                    self.apply_put_at_owner(
                        owner,
                        DeferredPut {
                            dst,
                            data: Bytes::from(data),
                            token: t,
                            initiator: rank,
                        },
                    );
                } else {
                    self.send(
                        rank,
                        owner,
                        DsmPayload::PutData {
                            dst,
                            data: Bytes::from(data),
                            token: t,
                        },
                    );
                }
                self.step_done(rank, LOCAL_ACCESS_NS);
            }
            Step::GetData { src, dst } => {
                let op = self.procs[rank]
                    .plan
                    .as_ref()
                    .expect("plan")
                    .op
                    .expect("op");
                let owner = src.addr.rank;
                let t = self.token(TokenUse::GetReply {
                    actor: rank,
                    dst,
                    op,
                    src_owner: owner,
                });
                if owner == rank {
                    // Local get: read + write locally.
                    self.serve_get_request(rank, src, t, true);
                } else {
                    self.send(rank, owner, DsmPayload::GetRequest { src, token: t });
                }
            }
            Step::AtomicData {
                target,
                op: aop,
                fetch_into,
            } => {
                let op = self.procs[rank]
                    .plan
                    .as_ref()
                    .expect("plan")
                    .op
                    .expect("op");
                let held = self.procs[rank].held_lock_ids();
                let owner = target.addr.rank;
                if owner == rank {
                    let old = self.apply_atomic_at_owner(owner, target, aop, &op, &held);
                    self.store_atomic_result(rank, fetch_into, old);
                    self.step_done(rank, LOCAL_ACCESS_NS);
                } else {
                    let t = self.token(TokenUse::AtomicReply {
                        actor: rank,
                        fetch_into,
                    });
                    self.atomic_ctx.insert(t, (op, held));
                    self.send(
                        rank,
                        owner,
                        DsmPayload::AtomicRequest {
                            range: target,
                            op: aop,
                            token: t,
                        },
                    );
                }
            }
            Step::LocalAccess { range, write } => {
                let op = self.procs[rank]
                    .plan
                    .as_ref()
                    .expect("plan")
                    .op
                    .expect("op");
                let held = self.procs[rank].held_lock_ids();
                match &write {
                    Some(value) => {
                        if let Err(e) = self.memories[rank].write(&range, value, rank) {
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
                    }
                    None => match self.memories[rank].read(&range, rank) {
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
                    },
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

    /// Deliver lock grants produced at `owner`'s table.
    fn dispatch_grants(&mut self, owner: Rank, grants: Vec<dsm::lockmgr::Grant>) {
        for g in grants {
            // Local waiters registered an engine token; remote waiters'
            // request token is stored in the table entry? The table only
            // knows requester rank; the engine keyed remote requests by the
            // message token at request time (see handle LockRequest).
            if let Some(engine_token) = self.local_waiters.remove(&(owner, g.token)) {
                self.complete_lock_grant(engine_token, owner, g.token);
            } else if let Some(&(requester, msg_token)) = self.remote_waiters.get(&(owner, g.token))
            {
                self.remote_waiters.remove(&(owner, g.token));
                self.send(
                    owner,
                    requester,
                    DsmPayload::LockGrant {
                        token: msg_token,
                        lock_token: g.token,
                    },
                );
            } else {
                self.errors
                    .push(format!("grant for unknown waiter at P{owner}"));
            }
        }
    }

    /// Resolve an engine token for a granted lock (local grant path).
    fn complete_lock_grant(&mut self, engine_token: OpToken, owner: Rank, lock_token: u64) {
        match self.tokens.remove(&engine_token) {
            Some(TokenUse::DetLockGrant(rank)) => {
                self.procs[rank].last_grant = Some((owner, lock_token));
                self.wake(rank, self.now);
            }
            Some(TokenUse::ProgLockGrant(rank, _range)) => {
                self.procs[rank].last_grant = Some((owner, lock_token));
                self.wake(rank, self.now);
            }
            other => self
                .errors
                .push(format!("lock grant resolved to unexpected use {other:?}")),
        }
    }

    // ----- owner-side operations ------------------------------------------

    /// Apply (or defer) a put at the owner.
    fn apply_put_at_owner(&mut self, owner: Rank, put: DeferredPut) {
        match self.rdma[owner].submit_put(put) {
            Some(put) => self.apply_put_now(owner, put),
            None => { /* deferred until end_get (Fig 3) */ }
        }
    }

    fn apply_put_now(&mut self, owner: Rank, put: DeferredPut) {
        let initiator = put.initiator;
        if let Err(e) = self.memories[owner].write(&put.dst, &put.data, initiator) {
            self.errors.push(format!("put apply at P{owner}: {e}"));
        } else if let Some(ctx) = self.put_ctx.remove(&put.token) {
            self.observe(&ctx.op, &ctx.held);
            self.trace.record_access(
                ctx.op.write_access_id(),
                initiator,
                AccessKind::Write,
                put.dst,
            );
            self.put_apply_delays.push(self.now.since(ctx.sent_at));
        }
    }

    /// Serve a get at the owner: observe, read, reply (or apply locally).
    fn serve_get_request(&mut self, owner: Rank, src: MemRange, token: OpToken, local: bool) {
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
        match self.memories[owner].read(&src, actor) {
            Ok(data) => {
                self.observe(&op, &held);
                self.trace
                    .record_access(op.read_access_id(), actor, AccessKind::Read, src);
                if local {
                    self.finish_get(token, Bytes::from(data), self.now + LOCAL_ACCESS_NS);
                } else {
                    self.send(
                        owner,
                        actor,
                        DsmPayload::GetReply {
                            token,
                            data: Bytes::from(data),
                        },
                    );
                }
            }
            Err(e) => {
                self.errors.push(format!("get read at P{owner}: {e}"));
                // Unblock the requester with empty data to avoid deadlock.
                if local {
                    self.finish_get(token, Bytes::new(), self.now);
                } else {
                    self.send(
                        owner,
                        actor,
                        DsmPayload::GetReply {
                            token,
                            data: Bytes::new(),
                        },
                    );
                }
            }
        }
    }

    /// Complete a get at the requester: write dst, end the owner-side
    /// protection window, release deferred puts (Fig 3).
    fn finish_get(&mut self, token: OpToken, data: Bytes, at: SimTime) {
        let Some(TokenUse::GetReply {
            actor,
            dst,
            op,
            src_owner,
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
        if let Some(plan) = self.procs[actor].plan.as_mut() {
            plan.idx += 1;
        }
        self.wake(actor, at);
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
        held: &[LockId],
    ) -> u64 {
        assert_eq!(target.len, 8, "atomics operate on u64 words");
        let initiator = op.actor;
        let old = match self.memories[owner].read_u64(target.addr, initiator) {
            Ok(v) => v,
            Err(e) => {
                self.errors.push(format!("atomic read at P{owner}: {e}"));
                return 0;
            }
        };
        self.observe(op, held);
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
            } => {
                self.apply_put_at_owner(
                    dst,
                    DeferredPut {
                        dst: range,
                        data,
                        token,
                        initiator: src,
                    },
                );
            }
            DsmPayload::PutAck { .. } => {
                // Not used: puts are fire-and-forget (see Step::PutData).
            }
            DsmPayload::GetRequest { src: range, token } => {
                self.serve_get_request(dst, range, token, false);
            }
            DsmPayload::GetReply { token, data } => {
                self.finish_get(token, data, self.now);
            }
            DsmPayload::LockRequest { range, token } => match self.locks[dst].acquire(range, src) {
                LockOutcome::Granted(lock_token) => {
                    self.send(dst, src, DsmPayload::LockGrant { token, lock_token });
                }
                LockOutcome::Queued(lock_token) => {
                    self.remote_waiters.insert((dst, lock_token), (src, token));
                }
            },
            DsmPayload::LockGrant { token, lock_token } => match self.tokens.remove(&token) {
                Some(TokenUse::DetLockGrant(rank)) => {
                    self.procs[rank].last_grant = Some((src, lock_token));
                    self.wake(rank, self.now);
                }
                Some(TokenUse::ProgLockGrant(rank, _range)) => {
                    self.procs[rank].last_grant = Some((src, lock_token));
                    self.wake(rank, self.now);
                }
                other => self
                    .errors
                    .push(format!("lock grant with unexpected token use {other:?}")),
            },
            DsmPayload::LockRelease { lock_token } => match self.locks[dst].release(lock_token) {
                Ok(grants) => self.dispatch_grants(dst, grants),
                Err(e) => self.errors.push(format!("remote release: {e}")),
            },
            DsmPayload::ClockReadRequest { range, token } => {
                let v = self.clock_payload();
                let w = self.clock_payload();
                let _ = range;
                self.send(dst, src, DsmPayload::ClockReadReply { token, v, w });
            }
            DsmPayload::ClockReadReply { token, .. } => {
                if let Some(TokenUse::Wake(rank)) = self.tokens.remove(&token) {
                    if let Some(plan) = self.procs[rank].plan.as_mut() {
                        plan.idx += 1;
                    }
                    self.wake(rank, self.now);
                }
            }
            DsmPayload::ClockWrite { token, .. } => {
                self.send(dst, src, DsmPayload::ClockWriteAck { token });
            }
            DsmPayload::ClockWriteAck { token } => {
                if let Some(TokenUse::Wake(rank)) = self.tokens.remove(&token) {
                    if let Some(plan) = self.procs[rank].plan.as_mut() {
                        plan.idx += 1;
                    }
                    self.wake(rank, self.now);
                }
            }
            DsmPayload::AtomicRequest {
                range,
                op: aop,
                token,
            } => {
                let Some((op, held)) = self.atomic_ctx.remove(&token) else {
                    self.errors
                        .push(format!("atomic request with unknown token {token}"));
                    return;
                };
                let old = self.apply_atomic_at_owner(dst, range, aop, &op, &held);
                self.send(dst, src, DsmPayload::AtomicReply { token, old });
            }
            DsmPayload::AtomicReply { token, old } => {
                if let Some(TokenUse::AtomicReply { actor, fetch_into }) =
                    self.tokens.remove(&token)
                {
                    self.store_atomic_result(actor, fetch_into, old);
                    if let Some(plan) = self.procs[actor].plan.as_mut() {
                        plan.idx += 1;
                    }
                    self.wake(actor, self.now);
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
                match self.procs[dst].plan.as_mut() {
                    Some(plan) if matches!(plan.steps.get(plan.idx), Some(Step::Barrier)) => {
                        plan.idx += 1;
                        self.wake(dst, self.now);
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
