//! The seeded event streams every op-stream workload drives.
//!
//! The generators live here, not in `dsm_bench::opstream`, so the load is
//! frozen with the benchmark: a later PR can change the repository's own
//! generators without moving what this harness measures. The PRNG is local
//! for the same reason.
//!
//! A stream is stored as one `u32` per event and decoded while it is
//! driven. An expanded `WireEvent` is 88 bytes, so materialising 300 000 of
//! them would put 25 MiB of harness data into the very process whose peak
//! resident set the `inproc_*` workloads report; packed, the stream costs
//! about 1 MiB and decoding a few nanoseconds per event (the `gen` rung).

use dsm::GlobalAddr;
use dsm_service::frame::WireEvent;
use race_core::{DsmOp, OpKind};

/// SplitMix64: small, seedable, and owned by the benchmark.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (the modulo bias is below 2^-40 for the bounds
    /// used here).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    fn shuffle(&mut self, items: &mut [usize]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

const KIND_BARRIER: u32 = 0;
const KIND_LOCAL_WRITE: u32 = 1;
const KIND_GET: u32 = 2;
const KIND_PUT: u32 = 3;

const RANK_BITS: u32 = 8;
const SLOT_BITS: u32 = 14;

fn pack(kind: u32, actor: usize, target: usize, slot: usize) -> u32 {
    debug_assert!(actor < 1 << RANK_BITS && target < 1 << RANK_BITS && slot < 1 << SLOT_BITS);
    kind | (actor as u32) << 2
        | (target as u32) << (2 + RANK_BITS)
        | (slot as u32) << (2 + 2 * RANK_BITS)
}

/// Expand one packed event. `op_id` is the event's index in its stream.
#[inline]
pub fn decode(code: u32, op_id: u64) -> WireEvent {
    let kind = code & 3;
    if kind == KIND_BARRIER {
        return WireEvent::Barrier;
    }
    let actor = (code >> 2) as usize & ((1 << RANK_BITS) - 1);
    let target = (code >> (2 + RANK_BITS)) as usize & ((1 << RANK_BITS) - 1);
    let slot = (code >> (2 + 2 * RANK_BITS)) as usize;
    let word = GlobalAddr::public(target, slot * 8).range(8);
    let scratch = GlobalAddr::private(actor, 0).range(8);
    let kind = match kind {
        KIND_LOCAL_WRITE => OpKind::LocalWrite { range: word },
        KIND_GET => OpKind::Get {
            src: word,
            dst: scratch,
        },
        _ => OpKind::Put {
            src: scratch,
            dst: word,
        },
    };
    WireEvent::Op(DsmOp { op_id, actor, kind })
}

/// One generated stream over `n` ranks.
pub struct Stream {
    pub n: usize,
    codes: Vec<u32>,
}

impl Stream {
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    pub fn events(&self) -> impl Iterator<Item = WireEvent> + '_ {
        self.codes
            .iter()
            .enumerate()
            .map(|(i, &code)| decode(code, i as u64))
    }

    /// Memory accesses that reach the detector's clocks: the public side of
    /// every op (private memory is never clocked, §IV-A). Every op here has
    /// exactly one; barriers have none.
    pub fn clocked_accesses(&self) -> u64 {
        self.codes
            .iter()
            .filter(|&&c| c & 3 != KIND_BARRIER)
            .count() as u64
    }
}

/// Halo exchange: per iteration every rank writes its `words` words, all
/// barrier, every rank gets its two neighbours' boundary words, all barrier.
/// Race-free, so the detector stays on its epoch fast path. The seed
/// permutes the order in which ranks appear within each phase.
pub fn stencil(n: usize, words: usize, iters: usize, seed: u64) -> Stream {
    assert!(n >= 2 && words >= 2);
    let mut rng = Rng::new(seed);
    let mut order: Vec<usize> = (0..n).collect();
    let mut codes = Vec::with_capacity(iters * (n * words + 2 * n + 2));
    for _ in 0..iters {
        rng.shuffle(&mut order);
        for &rank in &order {
            for w in 0..words {
                codes.push(pack(KIND_LOCAL_WRITE, rank, rank, w));
            }
        }
        codes.push(KIND_BARRIER);
        rng.shuffle(&mut order);
        for &rank in &order {
            codes.push(pack(KIND_GET, rank, (rank + n - 1) % n, words - 1));
            codes.push(pack(KIND_GET, rank, (rank + 1) % n, 0));
        }
        codes.push(KIND_BARRIER);
    }
    Stream { n, codes }
}

/// Unsynchronised traffic: ranks take turns issuing puts (one in four) and
/// gets against `hot_words` shared words spread round-robin over the ranks.
/// Nothing orders the accesses, so areas demote to full vectors, every
/// access scans an antichain and the report stream is dense.
pub fn contended(n: usize, ops_per_rank: usize, hot_words: usize, seed: u64) -> Stream {
    assert!(n >= 2 && hot_words >= 1);
    let mut rng = Rng::new(seed);
    let mut codes = Vec::with_capacity(n * ops_per_rank);
    for _ in 0..ops_per_rank {
        for rank in 0..n {
            let word = rng.below(hot_words);
            let kind = if rng.below(4) == 0 {
                KIND_PUT
            } else {
                KIND_GET
            };
            codes.push(pack(kind, rank, word % n, word / n));
        }
    }
    Stream { n, codes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stencil_shape_is_seed_independent() {
        let a = stencil(16, 16, 8, 176);
        let b = stencil(16, 16, 8, 177);
        assert_eq!(a.len(), 8 * 290);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.clocked_accesses(), 8 * 288);
        assert_ne!(a.codes(), b.codes(), "the seed permutes rank order");
        assert_eq!(
            stencil(16, 16, 8, 176).codes(),
            a.codes(),
            "same seed, same stream"
        );
    }

    #[test]
    fn decode_expands_every_kind() {
        let s = stencil(4, 2, 1, 1);
        let evs: Vec<WireEvent> = s.events().collect();
        assert!(matches!(
            evs[0],
            WireEvent::Op(DsmOp {
                op_id: 0,
                kind: OpKind::LocalWrite { .. },
                ..
            })
        ));
        assert_eq!(
            evs.iter()
                .filter(|e| matches!(e, WireEvent::Barrier))
                .count(),
            2
        );
        let c = contended(8, 64, 32, 9);
        assert_eq!(c.len(), 512);
        let mut puts = 0;
        for ev in c.events() {
            match ev {
                WireEvent::Op(DsmOp {
                    actor,
                    kind: OpKind::Put { src, dst },
                    ..
                }) => {
                    puts += 1;
                    assert_eq!(src.addr.rank, actor);
                    assert!(dst.addr.rank < 8 && dst.addr.offset < 8 * 4);
                }
                WireEvent::Op(DsmOp {
                    kind: OpKind::Get { .. },
                    ..
                }) => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(
            (90..170).contains(&puts),
            "about a quarter are writes, got {puts}"
        );
    }
}
