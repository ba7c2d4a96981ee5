//! The static MHP (may-happen-in-parallel) race analyzer.
//!
//! Consumes the per-rank straight-line [`simulator::program::Program`]s of
//! a [`Workload`] and rebuilds, *statically*, the happens-before structure
//! the dynamic oracle replays from a trace:
//!
//! * **program order** — every rank's accesses form a chain (the engine
//!   records accesses in program order: under a detecting kind, a put's
//!   remote apply is fenced by the FIFO clock-push ack before the
//!   initiator proceeds);
//! * **barrier epochs** — the `k`-th barrier is a global rendezvous, so
//!   everything before any rank's barrier `k` must-happens-before
//!   everything after any rank's barrier `k` (**must** edges: present in
//!   every schedule);
//! * **program-lock hand-offs** — a release of lock `L` followed by an
//!   acquire of `L` on another rank orders the two critical sections, but
//!   *which direction* the hand-off runs is schedule-dependent (**may**
//!   edges) — unless both conflicting accesses hold a common lock, in
//!   which case mutual exclusion orders them in every schedule;
//! * **data-flow absorb** — a read that observes a remote write orders the
//!   reader's *subsequent* accesses after that write (never the read
//!   itself — Algorithm 2 checks before it absorbs). Whether the write
//!   lands before the read is schedule-dependent (**may** edges).
//!
//! Two conflicting accesses (different ranks, overlapping ranges, at
//! least one write, not both NIC-serialised atomics — the same conflict
//! rule as [`race_core::Oracle`]) are then graded:
//!
//! * must-path either way, or a common held lock → [`Verdict::NeverRaces`];
//! * otherwise a may-path either way → [`Verdict::ScheduleDependent`];
//! * otherwise → [`Verdict::AlwaysRaces`] (no schedule orders them).

use std::collections::HashMap;

use dsm::MemRange;
use race_core::{site_of, AccessKind, LockId, SiteKey};
use simulator::program::{Instr, Program, Src};
use simulator::workloads::{RaceGrade, Workload};

/// The three-valued verdict on one conflicting access pair (or one site).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Verdict {
    /// Ordered (or mutually excluded) in every schedule.
    NeverRaces,
    /// Orderable by a dynamic edge in some schedules only.
    ScheduleDependent,
    /// No schedule carries any ordering path: races in every run.
    AlwaysRaces,
}

impl Verdict {
    /// Stable label for report lines.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::NeverRaces => "never",
            Verdict::ScheduleDependent => "schedule-dependent",
            Verdict::AlwaysRaces => "always",
        }
    }
}

/// One statically extracted memory access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticAccess {
    /// Executing rank (the *process* of the access — for puts and gets
    /// this is the initiator, matching the engine's trace attribution).
    pub rank: usize,
    /// Program counter of the originating instruction.
    pub pc: usize,
    /// Read or write.
    pub kind: AccessKind,
    /// The range touched.
    pub range: MemRange,
    /// True for NIC-serialised atomics (atomic/atomic pairs never race).
    pub atomic: bool,
    /// Program locks held while the access executes.
    pub held: Vec<LockId>,
}

/// The verdict on one conflicting access pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairVerdict {
    /// Index of the first access in [`Analysis::accesses`].
    pub a: usize,
    /// Index of the second access in [`Analysis::accesses`].
    pub b: usize,
    /// The conflict's site key (same arithmetic as the oracle's scoring).
    pub site: SiteKey,
    /// The classification.
    pub verdict: Verdict,
}

/// The aggregated verdict on one site: `AlwaysRaces` dominates
/// `ScheduleDependent` dominates `NeverRaces` across the site's pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteVerdict {
    /// The site key.
    pub site: SiteKey,
    /// The strongest pair verdict at this site.
    pub verdict: Verdict,
    /// Number of conflicting pairs aggregated.
    pub pairs: usize,
}

/// Why a workload cannot be analyzed (the program would wedge or is
/// malformed; the engine would surface the same defect dynamically).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisError {
    /// Ranks reach different global-barrier counts: the run would wedge at
    /// the first barrier some rank never joins.
    UnbalancedBarriers {
        /// Barrier count per rank.
        counts: Vec<usize>,
    },
    /// An `Unlock` of a range whose lock the rank does not hold.
    UnmatchedUnlock {
        /// Offending rank.
        rank: usize,
        /// Offending program counter.
        pc: usize,
    },
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisError::UnbalancedBarriers { counts } => {
                write!(f, "unbalanced barrier counts across ranks: {counts:?}")
            }
            AnalysisError::UnmatchedUnlock { rank, pc } => {
                write!(f, "P{rank} pc={pc}: unlock of a lock it does not hold")
            }
        }
    }
}

impl std::error::Error for AnalysisError {}

/// The full static analysis of one workload.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Every extracted access, in (rank, program-order) order.
    pub accesses: Vec<StaticAccess>,
    /// Every conflicting pair's verdict.
    pub pairs: Vec<PairVerdict>,
    /// Per-site aggregation, sorted by site key (sites whose every pair is
    /// `NeverRaces` are included with that verdict).
    pub sites: Vec<SiteVerdict>,
}

impl Analysis {
    /// Sites that can race in at least one schedule, sorted — the static
    /// counterpart of [`simulator::workloads::ScenarioTruth::racy_sites`].
    pub fn racy_sites(&self) -> Vec<SiteKey> {
        self.sites
            .iter()
            .filter(|s| s.verdict != Verdict::NeverRaces)
            .map(|s| s.site)
            .collect()
    }

    /// The aggregated verdict at one site, if any conflict exists there.
    pub fn site_verdict(&self, site: SiteKey) -> Option<Verdict> {
        self.sites
            .iter()
            .find(|s| s.site == site)
            .map(|s| s.verdict)
    }

    /// The workload-level grade: `Never` when no site can race, `Always`
    /// when *every* racy site races in every schedule (the contract of
    /// [`simulator::workloads::ScenarioTruth::always`]), `Sometimes`
    /// otherwise.
    pub fn grade(&self) -> RaceGrade {
        let racy: Vec<&SiteVerdict> = self
            .sites
            .iter()
            .filter(|s| s.verdict != Verdict::NeverRaces)
            .collect();
        if racy.is_empty() {
            RaceGrade::Never
        } else if racy.iter().all(|s| s.verdict == Verdict::AlwaysRaces) {
            RaceGrade::Always
        } else {
            RaceGrade::Sometimes
        }
    }
}

/// A node of the static HB graph.
#[derive(Debug, Clone)]
enum NodeKind {
    /// An access (index into the access table).
    Access(usize),
    /// A program-lock acquire.
    Lock(LockId),
    /// A program-lock release.
    Unlock(LockId),
    /// A global-barrier rendezvous point.
    Barrier,
}

struct Graph {
    accesses: Vec<StaticAccess>,
    nodes: Vec<NodeKind>,
    /// Chain successor within the owning rank (`None` at each rank's end).
    chain_next: Vec<Option<usize>>,
    node_rank: Vec<usize>,
    must: Vec<Vec<usize>>,
    may_extra: Vec<Vec<usize>>,
}

fn lock_id(range: &MemRange) -> LockId {
    // The engine keys program locks by (owner rank, offset) — see its
    // lock grant (`took_lock`) and `Unlock` step.
    (range.addr.rank, range.addr.offset)
}

fn build_graph(programs: &[Program]) -> Result<Graph, AnalysisError> {
    let mut accesses = Vec::new();
    let mut nodes = Vec::new();
    let mut chain_next = Vec::new();
    let mut node_rank = Vec::new();
    let mut barrier_counts = Vec::with_capacity(programs.len());
    // (rank, k) → node id of that rank's k-th barrier.
    let mut barrier_nodes: Vec<Vec<usize>> = Vec::with_capacity(programs.len());

    for (rank, prog) in programs.iter().enumerate() {
        let mut held: Vec<LockId> = Vec::new();
        let mut barriers_here = Vec::new();
        let mut prev: Option<usize> = None;
        let push = |kind: NodeKind,
                    nodes: &mut Vec<NodeKind>,
                    chain_next: &mut Vec<Option<usize>>,
                    node_rank: &mut Vec<usize>,
                    prev: &mut Option<usize>| {
            let id = nodes.len();
            nodes.push(kind);
            chain_next.push(None);
            node_rank.push(rank);
            if let Some(p) = *prev {
                chain_next[p] = Some(id);
            }
            *prev = Some(id);
            id
        };
        let access = |rank: usize,
                      pc: usize,
                      kind: AccessKind,
                      range: MemRange,
                      atomic: bool,
                      held: &[LockId],
                      accesses: &mut Vec<StaticAccess>|
         -> NodeKind {
            accesses.push(StaticAccess {
                rank,
                pc,
                kind,
                range,
                atomic,
                held: held.to_vec(),
            });
            NodeKind::Access(accesses.len() - 1)
        };
        for (pc, instr) in prog.iter().enumerate() {
            match instr {
                Instr::Put { src, dst } => {
                    if let Src::Range(r) = src {
                        let k = access(rank, pc, AccessKind::Read, *r, false, &held, &mut accesses);
                        push(k, &mut nodes, &mut chain_next, &mut node_rank, &mut prev);
                    }
                    let k = access(
                        rank,
                        pc,
                        AccessKind::Write,
                        *dst,
                        false,
                        &held,
                        &mut accesses,
                    );
                    push(k, &mut nodes, &mut chain_next, &mut node_rank, &mut prev);
                }
                Instr::Get { src, dst } => {
                    let k = access(
                        rank,
                        pc,
                        AccessKind::Read,
                        *src,
                        false,
                        &held,
                        &mut accesses,
                    );
                    push(k, &mut nodes, &mut chain_next, &mut node_rank, &mut prev);
                    let k = access(
                        rank,
                        pc,
                        AccessKind::Write,
                        *dst,
                        false,
                        &held,
                        &mut accesses,
                    );
                    push(k, &mut nodes, &mut chain_next, &mut node_rank, &mut prev);
                }
                Instr::LocalRead { range } => {
                    let k = access(
                        rank,
                        pc,
                        AccessKind::Read,
                        *range,
                        false,
                        &held,
                        &mut accesses,
                    );
                    push(k, &mut nodes, &mut chain_next, &mut node_rank, &mut prev);
                }
                Instr::LocalWrite { range, .. } => {
                    let k = access(
                        rank,
                        pc,
                        AccessKind::Write,
                        *range,
                        false,
                        &held,
                        &mut accesses,
                    );
                    push(k, &mut nodes, &mut chain_next, &mut node_rank, &mut prev);
                }
                Instr::Atomic { target, .. } => {
                    // The NIC's RMW records an atomic read then an atomic
                    // write at the target; a `fetch_into` store is not a
                    // traced access.
                    let k = access(
                        rank,
                        pc,
                        AccessKind::Read,
                        *target,
                        true,
                        &held,
                        &mut accesses,
                    );
                    push(k, &mut nodes, &mut chain_next, &mut node_rank, &mut prev);
                    let k = access(
                        rank,
                        pc,
                        AccessKind::Write,
                        *target,
                        true,
                        &held,
                        &mut accesses,
                    );
                    push(k, &mut nodes, &mut chain_next, &mut node_rank, &mut prev);
                }
                Instr::Lock { range } => {
                    let lid = lock_id(range);
                    held.push(lid);
                    push(
                        NodeKind::Lock(lid),
                        &mut nodes,
                        &mut chain_next,
                        &mut node_rank,
                        &mut prev,
                    );
                }
                Instr::Unlock { range } => {
                    let lid = lock_id(range);
                    match held.iter().rposition(|l| *l == lid) {
                        Some(i) => {
                            held.remove(i);
                        }
                        None => return Err(AnalysisError::UnmatchedUnlock { rank, pc }),
                    }
                    push(
                        NodeKind::Unlock(lid),
                        &mut nodes,
                        &mut chain_next,
                        &mut node_rank,
                        &mut prev,
                    );
                }
                Instr::Barrier => {
                    let id = push(
                        NodeKind::Barrier,
                        &mut nodes,
                        &mut chain_next,
                        &mut node_rank,
                        &mut prev,
                    );
                    barriers_here.push(id);
                }
                Instr::Compute { .. } => {}
            }
        }
        barrier_counts.push(barriers_here.len());
        barrier_nodes.push(barriers_here);
    }

    let n_barriers = barrier_counts.first().copied().unwrap_or(0);
    if barrier_counts.iter().any(|&c| c != n_barriers) {
        return Err(AnalysisError::UnbalancedBarriers {
            counts: barrier_counts,
        });
    }

    let program_nodes = nodes.len();
    let mut must = vec![Vec::new(); program_nodes + n_barriers];
    let may_extra = vec![Vec::new(); program_nodes + n_barriers];

    // Program-order chains.
    for (id, next) in chain_next.iter().enumerate() {
        if let Some(nx) = next {
            must[id].push(*nx);
        }
    }
    // Barrier rendezvous: every rank's k-th barrier node meets at a virtual
    // join node, which releases every rank's continuation.
    for k in 0..n_barriers {
        let join = program_nodes + k;
        for per_rank in &barrier_nodes {
            let b = per_rank[k];
            must[b].push(join);
            if let Some(nx) = chain_next[b] {
                must[join].push(nx);
            }
        }
    }
    Ok(Graph {
        accesses,
        nodes,
        chain_next,
        node_rank,
        must,
        may_extra,
    })
}

/// Add the schedule-dependent (may) edges: cross-rank lock hand-offs and
/// data-flow absorb edges.
fn add_may_edges(g: &mut Graph) {
    let n = g.nodes.len();
    for u in 0..n {
        match g.nodes[u].clone() {
            NodeKind::Unlock(lid) => {
                for l in 0..n {
                    if g.node_rank[l] != g.node_rank[u] {
                        if let NodeKind::Lock(other) = g.nodes[l] {
                            if other == lid {
                                g.may_extra[u].push(l);
                            }
                        }
                    }
                }
            }
            NodeKind::Access(wi) if g.accesses[wi].kind == AccessKind::Write => {
                // Absorb: this write, once observed by a cross-rank read,
                // orders the reader's *subsequent* nodes (never the read).
                let (w_rank, w_range) = (g.accesses[wi].rank, g.accesses[wi].range);
                for r in 0..n {
                    if g.node_rank[r] == w_rank {
                        continue;
                    }
                    if let NodeKind::Access(ri) = g.nodes[r] {
                        let rd = &g.accesses[ri];
                        if rd.kind == AccessKind::Read && w_range.overlaps(&rd.range) {
                            if let Some(nx) = g.chain_next[r] {
                                g.may_extra[u].push(nx);
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

/// BFS reachability over `must` edges, optionally unioned with the may
/// extras. Results are memoized per source by the caller.
fn reach_from(g: &Graph, src: usize, with_may: bool) -> Vec<bool> {
    let n = g.must.len();
    let mut seen = vec![false; n];
    let mut stack = vec![src];
    seen[src] = true;
    while let Some(u) = stack.pop() {
        let follow = |vs: &[usize], seen: &mut Vec<bool>, stack: &mut Vec<usize>| {
            for &v in vs {
                if !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        };
        follow(&g.must[u], &mut seen, &mut stack);
        if with_may {
            follow(&g.may_extra[u], &mut seen, &mut stack);
        }
    }
    seen
}

/// Analyze the per-rank programs directly (the [`Workload`]-level entry
/// point is [`analyze`]).
pub fn analyze_programs(programs: &[Program]) -> Result<Analysis, AnalysisError> {
    let mut g = build_graph(programs)?;
    add_may_edges(&mut g);

    // Node id of each access (accesses were pushed in node order).
    let mut access_node = vec![0usize; g.accesses.len()];
    for (id, node) in g.nodes.iter().enumerate() {
        if let NodeKind::Access(i) = node {
            access_node[*i] = id;
        }
    }

    let mut must_reach: HashMap<usize, Vec<bool>> = HashMap::new();
    let mut may_reach: HashMap<usize, Vec<bool>> = HashMap::new();
    let mut pairs = Vec::new();
    for a in 0..g.accesses.len() {
        for b in (a + 1)..g.accesses.len() {
            let (x, y) = (&g.accesses[a], &g.accesses[b]);
            let conflicting = x.rank != y.rank
                && x.range.overlaps(&y.range)
                && (x.kind == AccessKind::Write || y.kind == AccessKind::Write)
                && !(x.atomic && y.atomic);
            if !conflicting {
                continue;
            }
            let (na, nb) = (access_node[a], access_node[b]);
            let must_ab = must_reach
                .entry(na)
                .or_insert_with(|| reach_from(&g, na, false))[nb];
            let must_ba = must_reach
                .entry(nb)
                .or_insert_with(|| reach_from(&g, nb, false))[na];
            let common_lock = x.held.iter().any(|l| y.held.contains(l));
            let verdict = if must_ab || must_ba || common_lock {
                Verdict::NeverRaces
            } else {
                let may_ab = may_reach
                    .entry(na)
                    .or_insert_with(|| reach_from(&g, na, true))[nb];
                let may_ba = may_reach
                    .entry(nb)
                    .or_insert_with(|| reach_from(&g, nb, true))[na];
                if may_ab || may_ba {
                    Verdict::ScheduleDependent
                } else {
                    Verdict::AlwaysRaces
                }
            };
            pairs.push(PairVerdict {
                a,
                b,
                site: site_of(&x.range, &y.range),
                verdict,
            });
        }
    }

    let mut by_site: HashMap<SiteKey, (Verdict, usize)> = HashMap::new();
    for p in &pairs {
        let e = by_site.entry(p.site).or_insert((Verdict::NeverRaces, 0));
        e.0 = e.0.max(p.verdict);
        e.1 += 1;
    }
    let mut sites: Vec<SiteVerdict> = by_site
        .into_iter()
        .map(|(site, (verdict, pairs))| SiteVerdict {
            site,
            verdict,
            pairs,
        })
        .collect();
    sites.sort_by_key(|s| s.site);

    Ok(Analysis {
        accesses: g.accesses,
        pairs,
        sites,
    })
}

/// Statically analyze a workload's programs.
pub fn analyze(w: &Workload) -> Result<Analysis, AnalysisError> {
    analyze_programs(&w.programs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm::GlobalAddr;
    use simulator::program::ProgramBuilder;

    fn word(rank: usize, w: usize) -> MemRange {
        GlobalAddr::public(rank, 8 * w).range(8)
    }

    #[test]
    fn unsynchronised_conflict_always_races() {
        let p0 = ProgramBuilder::new(0).put_u64(1, word(1, 0)).build();
        let p1 = ProgramBuilder::new(1)
            .local_write_u64(word(1, 0), 2)
            .build();
        let a = analyze_programs(&[p0, p1]).unwrap();
        assert_eq!(a.grade(), RaceGrade::Always);
        assert_eq!(a.racy_sites(), vec![(1, 0)]);
    }

    #[test]
    fn barrier_orders_across_ranks() {
        let p0 = ProgramBuilder::new(0)
            .put_u64(1, word(1, 0))
            .barrier()
            .build();
        let p1 = ProgramBuilder::new(1)
            .barrier()
            .local_read(word(1, 0))
            .build();
        let a = analyze_programs(&[p0, p1]).unwrap();
        assert_eq!(a.grade(), RaceGrade::Never);
        assert!(a.racy_sites().is_empty());
    }

    #[test]
    fn common_lock_means_never() {
        let w = word(1, 0);
        let p0 = ProgramBuilder::new(0)
            .lock(w)
            .put_u64(1, w)
            .unlock(w)
            .build();
        let p1 = ProgramBuilder::new(1)
            .lock(w)
            .local_write_u64(w, 2)
            .unlock(w)
            .build();
        let a = analyze_programs(&[p0, p1]).unwrap();
        assert_eq!(a.grade(), RaceGrade::Never);
    }

    #[test]
    fn one_sided_lock_is_schedule_dependent() {
        // Only the writer takes the lock: no mutual exclusion, but the
        // hand-off edge *can* order the reader's access in schedules where
        // the reader acquires after the writer released — wait, the reader
        // takes no lock at all here, so only the absorb path could order
        // anything; a WW pair with a prior read absorbs.
        let w = word(1, 0);
        let p0 = ProgramBuilder::new(0).put_u64(1, w).build();
        let p1 = ProgramBuilder::new(1)
            .local_read(w)
            .local_write_u64(w, 2)
            .build();
        let a = analyze_programs(&[p0, p1]).unwrap();
        // (p0.write, p1.read): nothing can order the read itself → always.
        // (p0.write, p1.write): p1's prior read may absorb p0's write →
        // schedule-dependent. Site aggregates to always.
        assert_eq!(a.grade(), RaceGrade::Always);
        let verdicts: Vec<Verdict> = a.pairs.iter().map(|p| p.verdict).collect();
        assert!(verdicts.contains(&Verdict::AlwaysRaces));
        assert!(verdicts.contains(&Verdict::ScheduleDependent));
    }

    #[test]
    fn atomic_pairs_never_conflict() {
        let w = word(1, 0);
        let p0 = ProgramBuilder::new(0).fetch_add(w, 1, None).build();
        let p1 = ProgramBuilder::new(1).fetch_add(w, 1, None).build();
        let a = analyze_programs(&[p0, p1]).unwrap();
        assert!(a.pairs.is_empty());
        assert_eq!(a.grade(), RaceGrade::Never);
    }

    #[test]
    fn unbalanced_barriers_rejected() {
        let p0 = ProgramBuilder::new(0).barrier().build();
        let p1 = ProgramBuilder::new(1).build();
        let e = analyze_programs(&[p0, p1]).unwrap_err();
        assert!(matches!(e, AnalysisError::UnbalancedBarriers { .. }));
    }

    #[test]
    fn unmatched_unlock_rejected() {
        let w = word(0, 0);
        let p0 = ProgramBuilder::new(0).unlock(w).build();
        let e = analyze_programs(&[p0]).unwrap_err();
        assert_eq!(e, AnalysisError::UnmatchedUnlock { rank: 0, pc: 0 });
    }
}
