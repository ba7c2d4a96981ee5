//! SHMEM-style PGAS runtime on real OS threads, with live race detection.
//!
//! §III-B of the paper: "The SHMEM library, developed by Cray, also
//! implements one-sided operations on top of shared memory. As a
//! consequence, the model and algorithms presented in this paper can easily
//! be extended to shared memory systems." This crate is that extension:
//!
//! * each *processing element* (PE) is an OS thread owning a public byte
//!   segment; anything on a PE's stack is its private memory;
//! * [`Pe::put`] / [`Pe::get`] are one-sided memcpys into/out of another
//!   PE's segment — the owner is not involved, exactly like the NIC model;
//! * every public access runs the paper's detection step inline: the
//!   segment lock plays the part of the Algorithm 1–2 area locks, and a
//!   shared `race_core` detector keeps the `(V, W)` clock pairs;
//! * area locks ([`Pe::lock`]), barriers ([`Pe::barrier`]) and a §V-B
//!   one-sided reduction ([`Pe::reduce_sum_u64`]) complete the API.
//!
//! Races are *signalled, never fatal* (§IV-D): they accumulate in the
//! [`ShmemReport`] and the program runs to completion.
//!
//! Unlike the `simulator` crate, scheduling here is the real OS scheduler:
//! which interleaving you get is nondeterministic, but the clock-based
//! verdicts are not — two unsynchronised conflicting accesses have
//! concurrent clocks in **every** interleaving, so detection results are
//! stable run to run (the property tests hammer this).

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unreachable,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]
#![warn(missing_docs)]

pub mod locks;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};

use race_core::{DetectorConfig, DetectorKind, DsmOp, OpKind, RaceReport, Session};

pub use dsm::addr::{GlobalAddr, MemRange, Segment};

use locks::LockRegistry;

/// A process (thread) identifier.
pub type Rank = usize;

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct ShmemConfig {
    /// Number of PEs (threads).
    pub n: usize,
    /// Public segment size per PE, bytes.
    pub public_len: usize,
    /// Full detector configuration (kind, granularity, slab layout) — the
    /// `race_core::api` builder, embedded. The runtime builds its
    /// detection `Session` from exactly this value (with `n` forced to
    /// [`ShmemConfig::n`]); [`Pe::put`]/[`Pe::get`] return the exact
    /// reports the access triggered.
    pub detector: DetectorConfig,
}

impl ShmemConfig {
    /// Debugging-scale defaults (§V-A): word-granular dual-clock detection.
    pub fn new(n: usize) -> Self {
        ShmemConfig {
            n,
            public_len: 1 << 16,
            detector: DetectorConfig::new(DetectorKind::Dual, n),
        }
    }

    /// Select a different detector kind (legacy shim over the embedded
    /// [`DetectorConfig`]).
    pub fn with_detector(mut self, d: DetectorKind) -> Self {
        self.detector.kind = d;
        self
    }

    /// Use a full detector configuration. `n` is forced to the runtime's
    /// PE count.
    pub fn with_detector_config(mut self, detector: DetectorConfig) -> Self {
        self.detector = detector.with_n(self.n);
        self
    }
}

/// Lock `m`, ignoring poison: a PE that panicked while holding it does
/// not wedge the others (the panic itself surfaces when [`run`] joins).
pub(crate) fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Shared {
    n: usize,
    segments: Vec<Mutex<Box<[u8]>>>,
    session: Mutex<Session>,
    lock_registry: LockRegistry,
    barrier: Barrier,
    op_ids: AtomicU64,
}

/// The per-thread handle: a PE's view of the global address space.
pub struct Pe {
    rank: Rank,
    shared: Arc<Shared>,
}

impl Pe {
    /// This PE's rank.
    pub fn my_pe(&self) -> Rank {
        self.rank
    }

    /// Number of PEs.
    pub fn n_pes(&self) -> usize {
        self.shared.n
    }

    fn next_op(&self) -> u64 {
        self.shared.op_ids.fetch_add(1, Ordering::Relaxed)
    }

    fn check(&self, range: &MemRange, len: usize) {
        assert_eq!(
            range.addr.segment,
            Segment::Public,
            "shmem ranges are public"
        );
        assert!(range.addr.rank < self.shared.n, "rank out of range");
        assert!(range.len == len, "buffer length must equal range length");
        let seg_len = lock(&self.shared.segments[range.addr.rank]).len();
        assert!(
            range.end() <= seg_len,
            "range {range} out of segment bounds"
        );
    }

    /// One-sided write of `data` into `dst` (any PE's public segment).
    /// The owner does not participate. Returns the race reports this access
    /// triggered (also accumulated in the final [`ShmemReport`]).
    pub fn put(&self, dst: MemRange, data: &[u8]) -> Vec<RaceReport> {
        self.check(&dst, data.len());
        // Algorithm 1 discipline: area (segment) lock, then the detection
        // step, then the data movement, all before unlock.
        let mut seg = lock(&self.shared.segments[dst.addr.rank]);
        let op = DsmOp {
            op_id: self.next_op(),
            actor: self.rank,
            kind: OpKind::LocalWrite { range: dst },
        };
        let reports = {
            let mut session = lock(&self.shared.session);
            session.observe_collect(&op)
        };
        seg[dst.addr.offset..dst.end()].copy_from_slice(data);
        reports
    }

    /// Convenience: put one little-endian u64.
    pub fn put_u64(&self, dst: MemRange, value: u64) -> Vec<RaceReport> {
        self.put(dst, &value.to_le_bytes())
    }

    /// One-sided read of `src` into `buf`.
    pub fn get(&self, src: MemRange, buf: &mut [u8]) -> Vec<RaceReport> {
        self.check(&src, buf.len());
        let seg = lock(&self.shared.segments[src.addr.rank]);
        let op = DsmOp {
            op_id: self.next_op(),
            actor: self.rank,
            kind: OpKind::LocalRead { range: src },
        };
        let reports = {
            let mut session = lock(&self.shared.session);
            session.observe_collect(&op)
        };
        buf.copy_from_slice(&seg[src.addr.offset..src.end()]);
        reports
    }

    /// Convenience: get one little-endian u64.
    pub fn get_u64(&self, src: MemRange) -> (u64, Vec<RaceReport>) {
        let mut buf = [0u8; 8];
        let reports = self.get(src, &mut buf);
        (u64::from_le_bytes(buf), reports)
    }

    /// Acquire the NIC-style area lock on `range`; released when the guard
    /// drops. Lock hand-offs carry causality (the detector merges clocks).
    pub fn lock(&self, range: MemRange) -> locks::AreaLockGuard<'_> {
        self.shared
            .lock_registry
            .acquire(self, range, &self.shared.session)
    }

    pub(crate) fn rank(&self) -> Rank {
        self.rank
    }

    /// Global barrier across all PEs (sense handled by `std::sync::Barrier`;
    /// the leader merges everyone's clocks, then a second wait releases).
    pub fn barrier(&self) {
        let res = self.shared.barrier.wait();
        if res.is_leader() {
            lock(&self.shared.session).on_barrier();
        }
        self.shared.barrier.wait();
    }

    /// NIC-executed atomic fetch-add on a public u64 word (§V-B's "new
    /// operations" extension). Atomic-atomic pairs never race (the NIC
    /// serialises them); an atomic racing with a *plain* access is still
    /// reported. Returns the previous value.
    pub fn fetch_add(&self, target: MemRange, addend: u64) -> (u64, Vec<RaceReport>) {
        self.atomic(target, dsm::proto::AtomicOp::FetchAdd(addend))
    }

    /// NIC-executed atomic compare-and-swap; returns the previous value
    /// (success iff it equals `expected`).
    pub fn compare_swap(
        &self,
        target: MemRange,
        expected: u64,
        new: u64,
    ) -> (u64, Vec<RaceReport>) {
        self.atomic(target, dsm::proto::AtomicOp::CompareSwap { expected, new })
    }

    fn atomic(&self, target: MemRange, aop: dsm::proto::AtomicOp) -> (u64, Vec<RaceReport>) {
        self.check(&target, 8);
        let mut seg = lock(&self.shared.segments[target.addr.rank]);
        let op = DsmOp {
            op_id: self.next_op(),
            actor: self.rank,
            kind: OpKind::AtomicRmw { range: target },
        };
        let reports = {
            let mut session = lock(&self.shared.session);
            session.observe_collect(&op)
        };
        let off = target.addr.offset;
        let old = read_le_u64(&seg, off);
        let (new_val, old) = aop.apply(old);
        seg[off..off + 8].copy_from_slice(&new_val.to_le_bytes());
        (old, reports)
    }

    /// §V-B one-sided reduction: sum the u64s at `parts` by *getting* each
    /// remotely — no participation from the owners.
    pub fn reduce_sum_u64(&self, parts: &[MemRange]) -> (u64, Vec<RaceReport>) {
        let mut total = 0u64;
        let mut reports = Vec::new();
        for p in parts {
            let (v, mut r) = self.get_u64(*p);
            total = total.wrapping_add(v);
            reports.append(&mut r);
        }
        (total, reports)
    }

    /// One-sided broadcast: put `value` into the same offset of every PE.
    pub fn broadcast_u64(&self, offset: usize, value: u64) -> Vec<RaceReport> {
        let mut reports = Vec::new();
        for rank in 0..self.shared.n {
            reports.extend(self.put_u64(GlobalAddr::public(rank, offset).range(8), value));
        }
        reports
    }
}

/// Result of a [`run`].
#[derive(Debug)]
pub struct ShmemReport {
    /// Every race report, deduplicated by access pair.
    pub reports: Vec<RaceReport>,
    /// Final public segment images, index = rank.
    pub segments: Vec<Vec<u8>>,
    /// Detector clock storage at exit (§IV-D accounting).
    pub clock_memory_bytes: usize,
    /// The session's bounded aggregate over the *raw* (pre-dedup) report
    /// stream.
    pub summary: race_core::RaceSummary,
}

impl ShmemReport {
    /// Reports that are true races under the paper's definition.
    pub fn true_races(&self) -> Vec<&RaceReport> {
        self.reports
            .iter()
            .filter(|r| r.class.is_true_race())
            .collect()
    }

    /// Read back a u64 from a final segment image. Bytes past the end of
    /// the segment read as zero (the runtime bounds every access during
    /// the run, so this only matters for out-of-range queries).
    pub fn read_u64(&self, range: MemRange) -> u64 {
        read_le_u64(&self.segments[range.addr.rank], range.addr.offset)
    }
}

/// Read a little-endian u64 at `off`, zero-filling bytes past the end of
/// the buffer. Every public access is bounds-checked (`Pe::check`) before
/// the runtime reads memory, so the fill is unreachable in practice — it
/// exists so a bookkeeping bug would degrade to a wrong value a test
/// catches rather than a panic that takes the whole run down (the §IV-D
/// stance: signalled, never fatal).
fn read_le_u64(buf: &[u8], off: usize) -> u64 {
    let mut bytes = [0u8; 8];
    let avail = buf.len().saturating_sub(off).min(8);
    if let Some(src) = buf.get(off..off + avail) {
        bytes[..avail].copy_from_slice(src);
    }
    u64::from_le_bytes(bytes)
}

/// Launch `cfg.n` PEs, each running `body`, and collect the report.
///
/// `body` gets the PE handle; anything it allocates locally is private
/// memory in the paper's sense.
pub fn run<F>(cfg: ShmemConfig, body: F) -> ShmemReport
where
    F: Fn(&Pe) + Sync,
{
    let shared = Arc::new(Shared {
        n: cfg.n,
        segments: (0..cfg.n)
            .map(|_| Mutex::new(vec![0u8; cfg.public_len].into_boxed_slice()))
            .collect(),
        session: Mutex::new(cfg.detector.clone().with_n(cfg.n).session()),
        lock_registry: LockRegistry::new(),
        barrier: Barrier::new(cfg.n),
        op_ids: AtomicU64::new(0),
    });

    std::thread::scope(|scope| {
        for rank in 0..cfg.n {
            let shared = Arc::clone(&shared);
            let body = &body;
            scope.spawn(move || {
                body(&Pe { rank, shared });
            });
        }
    });

    collect_report(shared)
}

/// Reclaim sole ownership of the shared state and build the final report.
///
/// `run` calls this after its thread scope joined every PE, so the `Arc`
/// is down to one reference and [`Arc::into_inner`] succeeds. If that
/// invariant ever breaks (a leaked clone keeps the state alive), the
/// fallback returns an explicitly degraded *empty* report instead of
/// panicking — detection trouble is signalled, never fatal (§IV-D).
fn collect_report(shared: Arc<Shared>) -> ShmemReport {
    let Some(shared) = Arc::into_inner(shared) else {
        let summary = race_core::RaceSummary {
            degraded: true,
            ..Default::default()
        };
        return ShmemReport {
            reports: Vec::new(),
            segments: Vec::new(),
            clock_memory_bytes: 0,
            summary,
        };
    };
    let session = shared
        .session
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    let clock_memory_bytes = session.clock_memory_bytes();
    let (summary, sink) = session.finish();
    let reports = race_core::dedup_reports(sink.reports());
    ShmemReport {
        clock_memory_bytes,
        reports,
        summary,
        segments: shared
            .segments
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .into_vec()
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use race_core::RaceClass;

    fn word(rank: Rank, offset: usize) -> MemRange {
        GlobalAddr::public(rank, offset).range(8)
    }

    fn bare_shared(n: usize, public_len: usize) -> Arc<Shared> {
        Arc::new(Shared {
            n,
            segments: (0..n)
                .map(|_| Mutex::new(vec![0u8; public_len].into_boxed_slice()))
                .collect(),
            session: Mutex::new(ShmemConfig::new(n).detector.with_n(n).session()),
            lock_registry: LockRegistry::new(),
            barrier: Barrier::new(n),
            op_ids: AtomicU64::new(0),
        })
    }

    #[test]
    fn leaked_shared_reference_degrades_the_report_instead_of_panicking() {
        // The Arc::into_inner fallback: if a clone of the shared state
        // outlives the PE threads, collection cannot reclaim the session.
        // The report must come back empty and explicitly degraded — never
        // a panic (§IV-D).
        let shared = bare_shared(2, 64);
        let leak = Arc::clone(&shared);
        let report = collect_report(shared);
        assert!(report.summary.degraded, "leaked clone must degrade");
        assert!(report.reports.is_empty());
        assert!(report.segments.is_empty());
        assert_eq!(report.clock_memory_bytes, 0);
        assert_eq!(
            report.summary,
            race_core::RaceSummary {
                degraded: true,
                ..Default::default()
            }
        );
        drop(leak);
    }

    #[test]
    fn sole_shared_reference_collects_a_healthy_report() {
        // Control for the fallback test: with the last reference handed
        // over, collection reclaims the session and the report is whole.
        let report = collect_report(bare_shared(2, 64));
        assert!(!report.summary.degraded);
        assert_eq!(report.segments.len(), 2);
        assert_eq!(report.segments[0].len(), 64);
        assert!(report.reports.is_empty());
    }

    #[test]
    fn put_get_roundtrip() {
        let report = run(ShmemConfig::new(2), |pe| {
            if pe.my_pe() == 0 {
                pe.put_u64(word(1, 0), 4242);
            }
            pe.barrier();
            if pe.my_pe() == 1 {
                let (v, _) = pe.get_u64(word(1, 0));
                assert_eq!(v, 4242);
            }
        });
        assert_eq!(report.read_u64(word(1, 0)), 4242);
        assert!(report.reports.is_empty(), "{:?}", report.reports);
    }

    #[test]
    fn unsynchronised_writes_always_detected() {
        // Two PEs hammer the same word: concurrent clocks in every
        // interleaving ⇒ deterministic detection.
        for _ in 0..5 {
            let report = run(ShmemConfig::new(2), |pe| {
                pe.put_u64(word(0, 0), pe.my_pe() as u64 + 1);
            });
            let ww: Vec<_> = report
                .reports
                .iter()
                .filter(|r| r.class == RaceClass::WriteWrite)
                .collect();
            assert_eq!(ww.len(), 1, "exactly one WW pair: {:?}", report.reports);
        }
    }

    #[test]
    fn barrier_separated_phases_are_silent() {
        let report = run(ShmemConfig::new(4), |pe| {
            pe.put_u64(word(pe.my_pe(), 0), pe.my_pe() as u64);
            pe.barrier();
            let next = (pe.my_pe() + 1) % pe.n_pes();
            let (v, _) = pe.get_u64(word(next, 0));
            assert_eq!(v, next as u64);
        });
        assert!(report.reports.is_empty(), "{:?}", report.reports);
    }

    #[test]
    fn lock_protected_counter_is_silent_and_consistent() {
        let n = 4;
        let iters = 25;
        let report = run(ShmemConfig::new(n), |pe| {
            for _ in 0..iters {
                let guard = pe.lock(word(0, 0));
                let (v, _) = pe.get_u64(word(0, 0));
                pe.put_u64(word(0, 0), v + 1);
                drop(guard);
            }
        });
        assert_eq!(
            report.read_u64(word(0, 0)),
            (n * iters) as u64,
            "lock guarantees atomic increments"
        );
        assert!(report.reports.is_empty(), "{:?}", report.reports);
    }

    #[test]
    fn unlocked_counter_is_detected() {
        let report = run(ShmemConfig::new(4), |pe| {
            for _ in 0..10 {
                let (v, _) = pe.get_u64(word(0, 0));
                pe.put_u64(word(0, 0), v + 1);
            }
        });
        assert!(
            !report.true_races().is_empty(),
            "unlocked read-modify-write must race"
        );
    }

    #[test]
    fn onesided_reduction_is_silent_after_barrier() {
        let n = 5;
        let report = run(ShmemConfig::new(n), |pe| {
            pe.put_u64(word(pe.my_pe(), 0), (pe.my_pe() + 1) as u64);
            pe.barrier();
            if pe.my_pe() == 0 {
                let parts: Vec<_> = (0..pe.n_pes()).map(|r| word(r, 0)).collect();
                let (sum, _) = pe.reduce_sum_u64(&parts);
                assert_eq!(sum, (1..=n as u64).sum());
            }
        });
        assert!(report.reports.is_empty(), "{:?}", report.reports);
    }

    #[test]
    fn single_clock_baseline_flags_concurrent_reads_on_threads() {
        let cfg = ShmemConfig::new(3).with_detector(DetectorKind::Single);
        let report = run(cfg, |pe| {
            if pe.my_pe() == 0 {
                pe.put_u64(word(0, 0), 9);
            }
            pe.barrier();
            if pe.my_pe() != 0 {
                let _ = pe.get_u64(word(0, 0));
            }
        });
        assert!(
            report
                .reports
                .iter()
                .any(|r| r.class == RaceClass::ReadRead),
            "single-clock FP expected: {:?}",
            report.reports
        );
    }

    #[test]
    fn dual_clock_silent_on_concurrent_reads_on_threads() {
        let report = run(ShmemConfig::new(3), |pe| {
            if pe.my_pe() == 0 {
                pe.put_u64(word(0, 0), 9);
            }
            pe.barrier();
            if pe.my_pe() != 0 {
                let _ = pe.get_u64(word(0, 0));
            }
        });
        assert!(report.reports.is_empty(), "{:?}", report.reports);
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let report = run(ShmemConfig::new(4), |pe| {
            if pe.my_pe() == 2 {
                pe.broadcast_u64(64, 0x77);
            }
            pe.barrier();
            let (v, _) = pe.get_u64(word(pe.my_pe(), 64));
            assert_eq!(v, 0x77);
        });
        assert!(report.reports.is_empty(), "{:?}", report.reports);
    }

    #[test]
    #[should_panic] // the panic crosses the thread-scope join, losing its message
    fn bounds_are_enforced() {
        run(ShmemConfig::new(1), |pe| {
            pe.put_u64(GlobalAddr::public(0, 1 << 20).range(8), 1);
        });
    }

    #[test]
    fn atomic_counter_is_exact_and_silent() {
        let n = 4;
        let iters = 50;
        let counter = word(0, 0);
        let report = run(ShmemConfig::new(n), |pe| {
            for _ in 0..iters {
                pe.fetch_add(counter, 1);
            }
        });
        assert_eq!(report.read_u64(counter), (n * iters) as u64);
        assert!(
            report.reports.is_empty(),
            "atomic-atomic pairs are NIC-serialised: {:?}",
            report.reports
        );
    }

    #[test]
    fn atomic_vs_plain_write_is_detected() {
        let report = run(ShmemConfig::new(2), |pe| {
            if pe.my_pe() == 0 {
                pe.fetch_add(word(0, 0), 1);
            } else {
                pe.put_u64(word(0, 0), 99);
            }
        });
        assert!(
            !report.true_races().is_empty(),
            "a plain write racing an atomic must be reported"
        );
    }

    #[test]
    fn compare_swap_elects_exactly_one_leader() {
        let report = run(ShmemConfig::new(8), |pe| {
            let (old, _) = pe.compare_swap(word(0, 0), 0, pe.my_pe() as u64 + 1);
            if old == 0 {
                // This PE won the election; record it in its own slot.
                pe.put_u64(word(pe.my_pe(), 64), 1);
            }
        });
        let winners: usize = (0..8)
            .filter(|&r| report.read_u64(word(r, 64)) == 1)
            .count();
        assert_eq!(winners, 1, "CAS from 0 succeeds exactly once");
        let elected = report.read_u64(word(0, 0));
        assert!((1..=8).contains(&elected));
        assert!(report.reports.is_empty(), "{:?}", report.reports);
    }

    #[test]
    fn races_are_not_fatal_and_memory_settles() {
        // §IV-D: the racy program still completes and produces one of the
        // participants' values.
        let report = run(ShmemConfig::new(3), |pe| {
            pe.put_u64(word(0, 0), (pe.my_pe() + 1) as u64);
        });
        let v = report.read_u64(word(0, 0));
        assert!((1..=3).contains(&v));
        assert!(!report.reports.is_empty());
    }
}
