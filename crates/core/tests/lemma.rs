//! The lemma the detector's antichain fast path rests on.
//!
//! An antichain entry keeps its clock as the event `(process, count)` and
//! every prune and race check is `row[process] < count`. That is the
//! paper's Lemma 1 / Corollary 1 in the form it takes for the clock of an
//! *event*: for an entry `p` and the row `r` of any later access,
//!
//! ```text
//!   p.leq_row(r)  ==  C(p) ≤ r          (r knows the event ⟺ it dominates its clock)
//!   !p.leq_row(r) ==  C(p) ∥ r          (and otherwise the two are concurrent)
//! ```
//!
//! where `C(p) = p.clock()` is the full vector clock. Checked here on
//! random programs — barriers, lock hand-offs, reads that absorb, accesses
//! spanning several blocks, ops with two public accesses — for every entry
//! ever recorded (pruned or live) against every later access row, at
//! widths 2…32 in all three modes. Fixed seeds: the run repeats exactly.

use std::collections::HashSet;

use dsm::addr::GlobalAddr;
use race_core::clockstore::AreaKey;
use race_core::{AccessSummary, Detector, DsmOp, Granularity, HbDetector, HbMode, LockId, OpKind};

/// Deterministic generator (same LCG family the chaos layer uses).
struct Lcg(u64);

impl Lcg {
    fn pick(&mut self, bound: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 11) % bound as u64) as usize
    }
}

const LOCKS: [LockId; 2] = [(0, 0), (1, 64)];
const WORDS: usize = 6;

/// One random op on a small shared region: word and multi-word ranges,
/// private and public far sides, atomics.
fn random_op(rng: &mut Lcg, n: usize, op_id: u64) -> DsmOp {
    let actor = rng.pick(n);
    let public = |rng: &mut Lcg| {
        // One to three words, sometimes starting mid-word.
        let offset = 8 * rng.pick(WORDS) + 4 * rng.pick(2);
        GlobalAddr::public(rng.pick(n), offset).range(8 * (1 + rng.pick(3)))
    };
    let near = |rng: &mut Lcg| {
        if rng.pick(3) == 0 {
            GlobalAddr::public(actor, 8 * rng.pick(WORDS)).range(8)
        } else {
            GlobalAddr::private(actor, 0).range(8)
        }
    };
    let kind = match rng.pick(6) {
        0 => OpKind::Put {
            src: near(rng),
            dst: public(rng),
        },
        1 | 2 => OpKind::Get {
            src: public(rng),
            dst: near(rng),
        },
        3 => OpKind::LocalRead { range: public(rng) },
        4 => OpKind::LocalWrite { range: public(rng) },
        _ => OpKind::AtomicRmw {
            range: GlobalAddr::public(rng.pick(n), 8 * rng.pick(WORDS)).range(8),
        },
    };
    DsmOp { op_id, actor, kind }
}

/// Drive one random program and check the lemma at every access.
/// Returns how many (entry, row) pairs were compared, by verdict.
fn check_program(n: usize, mode: HbMode, seed: u64, steps: usize) -> (usize, usize) {
    let mut rng = Lcg(seed);
    let mut det = HbDetector::new(n, Granularity::WORD, mode);
    let mut held: Vec<Option<LockId>> = vec![None; n];
    let mut recorded: Vec<AccessSummary> = Vec::new();
    let mut seen: HashSet<(u64, AreaKey)> = HashSet::new();
    let (mut ordered, mut concurrent) = (0, 0);

    for step in 0..steps {
        match rng.pick(20) {
            0 => det.on_barrier(),
            1 | 2 => {
                // Lock hand-off: release what is held, or acquire.
                let rank = rng.pick(n);
                match held[rank].take() {
                    Some(lock) => det.on_release(rank, lock),
                    None => {
                        let lock = LOCKS[rng.pick(LOCKS.len())];
                        if !held.contains(&Some(lock)) {
                            det.on_acquire(rank, lock);
                            held[rank] = Some(lock);
                        }
                    }
                }
            }
            _ => {
                let op = random_op(&mut rng, n, step as u64);
                // The row of the op's accesses: the actor's row, ticked.
                let mut row = det.process_clock(op.actor).clone();
                row.tick(op.actor);
                for p in &recorded {
                    let clock = p.clock();
                    let known = p.leq_row(&row);
                    assert_eq!(
                        known,
                        clock.leq(&row),
                        "n={n} {mode:?} seed={seed:#x} step={step}: {p:?} vs {row}"
                    );
                    assert_eq!(
                        !known,
                        clock.concurrent_with(&row),
                        "n={n} {mode:?} seed={seed:#x} step={step}: {p:?} vs {row}"
                    );
                    if known {
                        ordered += 1;
                    } else {
                        concurrent += 1;
                    }
                }
                det.observe_collect(&op);
                // Keep every entry the op recorded, live or later pruned.
                for (area, history) in det.store().sorted_entries() {
                    for p in history.writes.iter().chain(&history.reads) {
                        if seen.insert((p.id, area)) {
                            assert_eq!(p.clock().get(p.process), p.count);
                            recorded.push(p.clone());
                        }
                    }
                }
            }
        }
    }
    (ordered, concurrent)
}

#[test]
fn an_entry_precedes_a_row_exactly_when_the_row_knows_its_event() {
    let (mut ordered, mut concurrent) = (0, 0);
    for mode in [HbMode::Dual, HbMode::Single, HbMode::Literal] {
        for n in [2, 3, 4, 7, 16, 32] {
            for seed in 0..6u64 {
                let seed = 0x1E44A ^ (seed << 20) ^ (n as u64) << 8 ^ mode as u64;
                let (o, c) = check_program(n, mode, seed, 160);
                ordered += o;
                concurrent += c;
            }
        }
    }
    // The programs exercise both verdicts, heavily.
    assert!(ordered > 10_000, "{ordered} ordered pairs");
    assert!(concurrent > 10_000, "{concurrent} concurrent pairs");
}
