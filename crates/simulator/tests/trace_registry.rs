//! The oracle trace's write registry, indexed by word, against the linear
//! scan it replaced.
//!
//! A read draws an absorb edge from every earlier write that shares a byte
//! with it, in the order the writes were applied. `TraceBuilder` finds those
//! writes through an index by (owner, segment, 8-byte word); [`Linear`] is
//! the registry as it was before — every write of the owner, scanned on
//! every read — kept here as the reference: same edges, same order, for
//! sub-word, multi-word, straddling and empty ranges alike. And the index
//! must make a read cost what its edges cost, not what the owner's whole
//! write history costs, which is checked on a count that repeats exactly.

use dsm::addr::{GlobalAddr, MemRange};
use race_core::{AccessKind, DetectorConfig, DetectorKind, LockId, Trace, TraceAccess};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simulator::tracebuild::TraceBuilder;
use simulator::workloads::random_access::{self, RandomSpec};
use simulator::{Engine, SimConfig};

/// `TraceBuilder` with the linear write registry.
struct Linear {
    trace: Trace,
    last_access: Vec<Option<u64>>,
    pending_edges: Vec<Vec<u64>>,
    lock_last: std::collections::HashMap<LockId, u64>,
    /// Per owner: (range, write access id) of every write, in apply order.
    writes: Vec<Vec<(MemRange, u64)>>,
    /// Registry entries looked at by reads.
    visited: u64,
}

impl Linear {
    fn new(n: usize) -> Self {
        Linear {
            trace: Trace::new(n),
            last_access: vec![None; n],
            pending_edges: vec![Vec::new(); n],
            lock_last: std::collections::HashMap::new(),
            writes: vec![Vec::new(); n],
            visited: 0,
        }
    }

    fn record_access_ext(
        &mut self,
        id: u64,
        process: usize,
        kind: AccessKind,
        range: MemRange,
        atomic: bool,
    ) {
        for src in self.pending_edges[process].drain(..) {
            self.trace.push_edge(src, id);
        }
        if kind == AccessKind::Read {
            let owner = range.addr.rank;
            for (wr, wid) in &self.writes[owner] {
                self.visited += 1;
                if wr.overlaps(&range) {
                    self.trace.push_absorb_edge(*wid, id);
                }
            }
        }
        self.trace.push_access(TraceAccess {
            id,
            process,
            kind,
            range,
            atomic,
        });
        self.last_access[process] = Some(id);
        if kind == AccessKind::Write {
            self.writes[range.addr.rank].push((range, id));
        }
    }

    fn on_unlock(&mut self, lock: LockId, process: usize) {
        if let Some(id) = self.last_access[process] {
            self.lock_last.insert(lock, id);
        }
    }

    fn on_lock_granted(&mut self, lock: LockId, process: usize) {
        if let Some(&src) = self.lock_last.get(&lock) {
            self.pending_edges[process].push(src);
        }
    }

    fn on_barrier_release(&mut self) {
        let sources: Vec<u64> = self.last_access.iter().flatten().copied().collect();
        for pending in &mut self.pending_edges {
            pending.extend(sources.iter().copied());
        }
    }
}

const RANKS: usize = 4;

/// A range of one of the shapes the index must get right, inside a region
/// small enough that ranges collide all the time.
fn random_range(rng: &mut StdRng) -> MemRange {
    let owner = rng.gen_range(0..RANKS);
    let word = rng.gen_range(0..6usize);
    let (offset, len) = match rng.gen_range(0..8) {
        // Zero-length: overlaps nothing, even at an offset others cover.
        0 => (8 * word + rng.gen_range(0..8usize), 0),
        // Sub-word: shares a word with its neighbours, not always a byte.
        1 | 2 => {
            let start = rng.gen_range(0..8usize);
            (8 * word + start, rng.gen_range(1..=8 - start))
        }
        // Exactly one word.
        3 | 4 => (8 * word, 8),
        // Several whole words.
        5 => (8 * word, 8 * rng.gen_range(2..5usize)),
        // Straddling: starts and ends inside words.
        _ => (
            8 * word + rng.gen_range(1..8usize),
            rng.gen_range(8..30usize),
        ),
    };
    let addr = if rng.gen_bool(0.7) {
        GlobalAddr::public(owner, offset)
    } else {
        GlobalAddr::private(owner, offset)
    };
    addr.range(len)
}

#[test]
fn the_indexed_registry_draws_the_linear_scans_edges_in_order() {
    const LOCKS: [LockId; 2] = [(0, 0), (1, 8)];
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x7ACE ^ seed);
        let mut indexed = TraceBuilder::new(RANKS);
        let mut linear = Linear::new(RANKS);
        let mut reads = 0u64;
        for id in 0..400u64 {
            let process = rng.gen_range(0..RANKS);
            match rng.gen_range(0..20) {
                0 => {
                    indexed.on_barrier_release();
                    linear.on_barrier_release();
                }
                1 => {
                    let lock = LOCKS[rng.gen_range(0..LOCKS.len())];
                    indexed.on_unlock(lock, process);
                    linear.on_unlock(lock, process);
                }
                2 => {
                    let lock = LOCKS[rng.gen_range(0..LOCKS.len())];
                    indexed.on_lock_granted(lock, process);
                    linear.on_lock_granted(lock, process);
                }
                _ => {
                    let kind = if rng.gen_bool(0.4) {
                        AccessKind::Write
                    } else {
                        reads += 1;
                        AccessKind::Read
                    };
                    let range = random_range(&mut rng);
                    let atomic = rng.gen_bool(0.1);
                    indexed.record_access_ext(id, process, kind, range, atomic);
                    linear.record_access_ext(id, process, kind, range, atomic);
                }
            }
        }
        let visits = indexed.registry_visits();
        let indexed = indexed.finish();
        assert_eq!(indexed.edges, linear.trace.edges, "seed {seed}: sync edges");
        assert_eq!(
            indexed.absorb_edges, linear.trace.absorb_edges,
            "seed {seed}: absorb edges, in order"
        );
        assert_eq!(indexed.events.len(), linear.trace.events.len());
        assert!(
            indexed.absorb_edges.len() as u64 > reads,
            "seed {seed}: the stream must exercise the registry ({} edges, {reads} reads)",
            indexed.absorb_edges.len()
        );
        assert!(
            visits < linear.visited,
            "seed {seed}: the index visits fewer entries ({visits}) than the scan ({})",
            linear.visited
        );
    }
}

/// `random_access` at `ops_per_rank`, run once; its accesses replayed
/// through both registries. Returns (accesses, absorb edges, index entries
/// visited, linear entries visited).
fn replay_random_access(ops_per_rank: usize) -> (u64, u64, u64, u64) {
    const N: usize = 10;
    let workload = random_access::generate(RandomSpec {
        n: N,
        ops_per_rank,
        hot_words: 64,
        p_write: 0.25,
        locked: false,
        seed: 0x5EED,
    });
    let config = SimConfig::debugging(N)
        .with_seed(176)
        .with_detector_config(DetectorConfig::new(DetectorKind::Vanilla, N));
    let ran = Engine::new(config, workload.programs).run();
    assert!(ran.errors.is_empty() && ran.stuck.is_empty());

    let mut indexed = TraceBuilder::new(N);
    let mut linear = Linear::new(N);
    for e in &ran.trace.events {
        indexed.record_access_ext(e.id, e.process, e.kind, e.range, e.atomic);
        linear.record_access_ext(e.id, e.process, e.kind, e.range, e.atomic);
    }
    let visits = indexed.registry_visits();
    let indexed = indexed.finish();
    assert_eq!(
        indexed.absorb_edges, ran.trace.absorb_edges,
        "a replay draws the run's own edges"
    );
    assert_eq!(indexed.absorb_edges, linear.trace.absorb_edges);
    (
        indexed.events.len() as u64,
        indexed.absorb_edges.len() as u64,
        visits,
        linear.visited,
    )
}

#[test]
fn registry_visits_follow_the_edges_not_the_owners_write_history() {
    let (accesses_1x, edges_1x, visits_1x, linear_1x) = replay_random_access(256);
    let (accesses_4x, edges_4x, visits_4x, linear_4x) = replay_random_access(1024);
    // Every access of the workload is one aligned word, so an entry the
    // index visits is an edge it draws: c = 1.
    for (accesses, edges, visits) in [
        (accesses_1x, edges_1x, visits_1x),
        (accesses_4x, edges_4x, visits_4x),
    ] {
        assert!(
            visits <= edges + accesses,
            "{visits} entries visited for {edges} edges over {accesses} accesses"
        );
    }
    // The guard is not vacuous: the scan it replaced looks at every write
    // of the owner, on 64 hot words mostly writes of another word. (The
    // edges themselves grow with the square of the run — a read depends on
    // every earlier write of its word — so both counts do; the index pays
    // for edges only.)
    assert!(linear_1x > 10 * (edges_1x + accesses_1x), "{linear_1x}");
    assert!(linear_4x > 10 * (edges_4x + accesses_4x), "{linear_4x}");
}
