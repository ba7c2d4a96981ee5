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
//!   `DetHeader`: the initiator's clock and a take-the-area-lock flag.
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
//!
//! Layout: the run loop and lossy-plan recovery here; `plan` builds and
//! executes steps at the initiator; `nic` handles every message arrival
//! and the owner side; `locks` holds the lock step, waiters and grants.

use std::collections::HashMap;
use std::sync::OnceLock;

use dsm::lockmgr::LockTable;
use dsm::proto::{DsmPayload, OpToken};
use dsm::rdma::RdmaEngine;
use dsm::{MemRange, ProcessMemory};
use netsim::{EventQueue, NetStats, Network, SimTime};
use race_core::report::WordHashState;
use race_core::{dedup_reports, DsmOp, LockId, RaceReport, RaceSummary, Session, Trace};

use crate::config::SimConfig;
use crate::program::Program;
use crate::tracebuild::TraceBuilder;
use crate::Rank;

mod locks;
mod nic;
mod plan;

use locks::{HeldProgLock, Waiter};
use nic::PutCtx;
use plan::{Plan, Step};

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

#[derive(Debug)]
struct Proc {
    program: Program,
    pc: usize,
    plan: Option<Plan>,
    /// The buffers of the last finished plan, reused by the next one.
    spare: plan::Buffers,
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

/// Result of one simulated run.
#[derive(Debug)]
pub struct RunResult {
    /// Virtual time at quiescence.
    pub virtual_time: SimTime,
    /// Network traffic accounting.
    pub stats: NetStats,
    /// Every race report, in detection order.
    pub reports: Vec<RaceReport>,
    /// [`RunResult::deduped`], computed on first call.
    deduped: OnceLock<Vec<RaceReport>>,
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
    /// [`RunResult::reports`] deduplicated by unordered access pair, first
    /// occurrence kept, in detection order (`race_core::dedup_reports`).
    ///
    /// Computed on the first call, from the reports as they stand then,
    /// and kept: a caller that never asks — one that reads only
    /// [`RunResult::summary`] — pays nothing for it.
    pub fn deduped(&self) -> &[RaceReport] {
        self.deduped.get_or_init(|| dedup_reports(&self.reports))
    }

    /// Reports whose class is a true race (filters read-read FPs).
    pub fn true_races(&self) -> Vec<&RaceReport> {
        self.deduped()
            .iter()
            .filter(|r| r.class.is_true_race())
            .collect()
    }

    /// Convenience: read a u64 from a final memory image.
    pub fn read_u64(&self, range: MemRange) -> u64 {
        let m = &self.memories[range.addr.rank];
        #[expect(
            clippy::expect_used,
            reason = "the plan validated this range against local memory before scheduling the op; an unreadable range here is an engine bug."
        )]
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
    /// Wake-ups, the only engine event besides network arrivals.
    queue: EventQueue<Rank>,
    procs: Vec<Proc>,
    tokens: HashMap<OpToken, TokenUse, WordHashState>,
    put_ctx: HashMap<OpToken, PutCtx, WordHashState>,
    /// Everyone queued at a lock table: (owner, table lock token) → who
    /// the grant goes to.
    waiters: HashMap<(Rank, u64), Waiter, WordHashState>,
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
        let instrs: usize = programs.iter().map(Program::len).sum();
        let procs = programs
            .into_iter()
            .map(|program| Proc {
                program,
                pc: 0,
                plan: None,
                spare: plan::Buffers::default(),
                prog_locks: Vec::new(),
                last_grant: None,
                done: false,
            })
            .collect();
        let mut queue = EventQueue::new();
        for r in 0..cfg.n {
            queue.schedule(SimTime::ZERO, r);
        }
        Engine {
            trace: TraceBuilder::with_capacity(cfg.n, instrs),
            locks: (0..cfg.n).map(|_| LockTable::new()).collect(),
            rdma: (0..cfg.n).map(|_| RdmaEngine::new()).collect(),
            net,
            memories,
            session,
            queue,
            procs,
            tokens: HashMap::default(),
            put_ctx: HashMap::default(),
            waiters: HashMap::default(),
            detection,
            area_clock_words,
            next_token: 0,
            next_op_id: 0,
            barrier_arrived: Vec::new(),
            op_latencies: Vec::with_capacity(instrs),
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
        self.queue.schedule(at, rank);
    }

    fn send(&mut self, src: Rank, dst: Rank, payload: DsmPayload) {
        let now = self.now;
        self.net.send(now, src, dst, payload);
    }

    fn observe(&mut self, op: &DsmOp, held: &[LockId]) {
        self.session.observe(op, held);
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
    /// assert_eq!(result.deduped().len(), 1); // exactly one write-write race
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
                // A wake-up due no later than the next arrival goes first.
                (_, Some(te)) if t_net.is_none_or(|tn| te <= tn) => {
                    #[expect(
                        clippy::expect_used,
                        reason = "pop follows a peek that proved the queue non-empty in the same match arm."
                    )]
                    let (at, rank) = self.queue.pop().expect("peeked");
                    self.now = at;
                    self.advance(rank);
                }
                _ => {
                    #[expect(
                        clippy::expect_used,
                        reason = "deliver_next follows a peek that proved a message is due in the same match arm."
                    )]
                    let (at, msg) = self.net.deliver_next().expect("peeked");
                    self.now = at;
                    self.handle_message(msg);
                }
            }
        }

        let stuck = self.unfinished();
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
        RunResult {
            virtual_time: self.now,
            stats: self.net.stats().clone(),
            clock_memory_bytes,
            reports,
            deduped: OnceLock::new(),
            summary,
            trace: self.trace.finish(),
            op_latencies: self.op_latencies,
            put_apply_delays: self.put_apply_delays,
            memories: self.memories,
            stuck,
            errors: self.errors,
        }
    }

    fn unfinished(&self) -> Vec<Rank> {
        (0..self.cfg.n).filter(|&r| !self.procs[r].done).collect()
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
        let wedged = self.unfinished();
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
            let forced = self.procs[rank].plan.as_mut().and_then(|plan| {
                let step = plan.steps.get(plan.idx)?;
                let waits = std::mem::take(&mut plan.blocked);
                barrier_broken |= matches!(step, Step::Barrier);
                let label = Self::step_label(step);
                if waits {
                    plan.idx += 1;
                }
                Some((label, waits))
            });
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
        assert_eq!(v.as_slice(), [b, a], "rank 0 locked before rank 1");
    }

    #[test]
    fn lock_ranges_merges_overlaps() {
        // An op whose source and destination overlap must lock their union
        // once, or it would queue behind its own lock.
        let a = pub_range(0, 0, 16);
        let b = pub_range(0, 8, 16);
        let v = Engine::lock_ranges(Some(a), Some(b));
        assert_eq!(v.as_slice(), [pub_range(0, 0, 24)]);
    }

    #[test]
    fn lock_ranges_skips_private_and_empty() {
        let priv_r = GlobalAddr::private(0, 0).range(8);
        let empty = pub_range(0, 0, 0);
        let real = pub_range(1, 0, 8);
        assert_eq!(
            Engine::lock_ranges(Some(priv_r), Some(real)).as_slice(),
            [real]
        );
        assert!(Engine::lock_ranges(Some(empty), None).as_slice().is_empty());
    }

    #[test]
    fn identical_ranges_lock_once() {
        let r = pub_range(0, 0, 8);
        assert_eq!(Engine::lock_ranges(Some(r), Some(r)).as_slice(), [r]);
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
