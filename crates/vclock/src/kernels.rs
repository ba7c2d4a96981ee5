//! Chunked, branch-free comparison and merge kernels over raw `u64`
//! component slices — the inner loops every clock operation bottoms out in.
//!
//! The naive per-component loops (`all(a <= b)`, early-exit concurrency
//! scans) are branchy: for the small-to-medium widths the detectors run at
//! (`n` = 4…128 processes) the branch mispredictions and the per-element
//! bounds checks cost more than the comparisons themselves, and the
//! early-exit structure blocks autovectorisation outright. These kernels
//! restructure every operation the same way:
//!
//! * the slice is walked in fixed-width chunks of [`LANES`] components via
//!   `chunks_exact`, which gives the compiler a known trip count (no bounds
//!   checks, unrollable, autovectorisable);
//! * *within* a chunk there are **no data-dependent branches**: comparison
//!   outcomes accumulate into an integer mask (`acc |= (a > b) as u64`),
//!   which lowers to SIMD compare-and-or on any vector ISA;
//! * *between* chunks a single accumulated test may exit early, so
//!   asymptotics for wide clocks are preserved without poisoning the inner
//!   loop.
//!
//! [`crate::VectorClock`] delegates `leq` / `merge` / `merge_dominated` /
//! `relation` / `concurrent_with` here, so the epoch detector and the
//! full-vector-clock reference share one set of hot loops. The scalar-vs-chunked parity property tests in
//! `tests/proptests.rs` pin the semantics across widths 1..128, including
//! the all-equal and single-divergence inputs where masking bugs would hide.

/// Components processed per branch-free inner block. Eight `u64`s fill one
/// 64-byte cache line and map onto two AVX2 (or four NEON) vector compares.
pub const LANES: usize = 8;

/// True iff `a[i] <= b[i]` for every `i` (the standard vector-clock `≤`).
///
/// # Panics
/// Debug-asserts equal lengths; release builds truncate to the shorter
/// slice like `zip` (callers always pass equal widths).
#[inline]
pub fn leq(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut az = a.chunks_exact(LANES);
    let mut bz = b.chunks_exact(LANES);
    for (ca, cb) in az.by_ref().zip(bz.by_ref()) {
        let mut exceeds = 0u64;
        for i in 0..LANES {
            exceeds |= (ca[i] > cb[i]) as u64;
        }
        if exceeds != 0 {
            return false;
        }
    }
    let mut exceeds = 0u64;
    for (x, y) in az.remainder().iter().zip(bz.remainder()) {
        exceeds |= (x > y) as u64;
    }
    exceeds == 0
}

/// Component-wise maximum, in place: `a[i] = max(a[i], b[i])` (Algorithm 4).
#[inline]
pub fn merge(a: &mut [u64], b: &[u64]) {
    debug_assert_eq!(a.len(), b.len());
    let mut az = a.chunks_exact_mut(LANES);
    let mut bz = b.chunks_exact(LANES);
    for (ca, cb) in az.by_ref().zip(bz.by_ref()) {
        for i in 0..LANES {
            ca[i] = if cb[i] > ca[i] { cb[i] } else { ca[i] };
        }
    }
    for (x, y) in az.into_remainder().iter_mut().zip(bz.remainder()) {
        *x = (*x).max(*y);
    }
}

/// Fused merge + domination test: merges `b` into `a` and returns whether
/// `a <= b` held *before* the merge (i.e. the merged result equals `b`).
/// One pass — the area-clock re-promotion test costs nothing beyond the
/// merge itself.
#[inline]
pub fn merge_dominated(a: &mut [u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut exceeded = 0u64;
    let mut az = a.chunks_exact_mut(LANES);
    let mut bz = b.chunks_exact(LANES);
    for (ca, cb) in az.by_ref().zip(bz.by_ref()) {
        for i in 0..LANES {
            exceeded |= (ca[i] > cb[i]) as u64;
            ca[i] = if cb[i] > ca[i] { cb[i] } else { ca[i] };
        }
    }
    for (x, y) in az.into_remainder().iter_mut().zip(bz.remainder()) {
        exceeded |= (*x > *y) as u64;
        *x = (*x).max(*y);
    }
    exceeded == 0
}

/// Both dominance directions in one pass: `(a_exceeds, b_exceeds)` where
/// `a_exceeds` is true iff some `a[i] > b[i]` and `b_exceeds` iff some
/// `b[i] > a[i]`.
///
/// The four `(bool, bool)` outcomes are exactly the four causal relations:
/// `(false, false)` equal, `(false, true)` before, `(true, false)` after,
/// `(true, true)` concurrent. Exits early once both directions are
/// witnessed (the concurrent verdict cannot change after that).
#[inline]
pub fn dominance(a: &[u64], b: &[u64]) -> (bool, bool) {
    debug_assert_eq!(a.len(), b.len());
    let mut a_gt = 0u64;
    let mut b_gt = 0u64;
    let mut az = a.chunks_exact(LANES);
    let mut bz = b.chunks_exact(LANES);
    for (ca, cb) in az.by_ref().zip(bz.by_ref()) {
        for i in 0..LANES {
            a_gt |= (ca[i] > cb[i]) as u64;
            b_gt |= (cb[i] > ca[i]) as u64;
        }
        if a_gt & b_gt != 0 {
            return (true, true);
        }
    }
    for (x, y) in az.remainder().iter().zip(bz.remainder()) {
        a_gt |= (x > y) as u64;
        b_gt |= (y > x) as u64;
    }
    (a_gt != 0, b_gt != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar reference semantics, straight from the definitions.
    fn scalar_leq(a: &[u64], b: &[u64]) -> bool {
        a.iter().zip(b).all(|(x, y)| x <= y)
    }

    fn scalar_merge(a: &[u64], b: &[u64]) -> Vec<u64> {
        a.iter().zip(b).map(|(x, y)| *x.max(y)).collect()
    }

    #[test]
    fn kernels_match_scalar_on_crafted_widths() {
        // Exercise every remainder length 0..LANES and multi-chunk widths.
        for n in (0..=2 * LANES + 3).chain([31, 64, 127, 128]) {
            let a: Vec<u64> = (0..n as u64).map(|i| i * 7 % 13).collect();
            let mut b: Vec<u64> = (0..n as u64).map(|i| i * 5 % 11).collect();
            assert_eq!(leq(&a, &b), scalar_leq(&a, &b), "leq at n={n}");
            assert_eq!(
                dominance(&a, &b),
                (!scalar_leq(&a, &b), !scalar_leq(&b, &a)),
                "dominance at n={n}"
            );
            let expect = scalar_merge(&a, &b);
            let dominated = scalar_leq(&b, &a);
            let was_dominated = merge_dominated(&mut b, &a);
            assert_eq!(b, expect, "merge at n={n}");
            assert_eq!(was_dominated, dominated, "merge_dominated at n={n}");
        }
    }

    #[test]
    fn single_divergence_in_every_lane_position() {
        // A masking slip that drops one lane shows up only when the single
        // differing component lands exactly in that lane.
        for n in [1usize, LANES - 1, LANES, LANES + 1, 3 * LANES] {
            for pos in 0..n {
                let a = vec![4u64; n];
                let mut b = vec![4u64; n];
                b[pos] = 5;
                assert!(leq(&a, &b), "n={n} pos={pos}");
                assert!(!leq(&b, &a), "n={n} pos={pos}");
                assert_eq!(dominance(&a, &b), (false, true), "n={n} pos={pos}");
                assert_eq!(dominance(&b, &a), (true, false), "n={n} pos={pos}");
                let mut m = a.clone();
                assert!(merge_dominated(&mut m, &b), "n={n} pos={pos}");
                assert_eq!(m, b);
            }
        }
    }

    #[test]
    fn all_equal_is_mutually_leq() {
        for n in [0usize, 1, LANES, 2 * LANES + 5] {
            let a = vec![9u64; n];
            assert!(leq(&a, &a));
            assert_eq!(dominance(&a, &a), (false, false));
            let mut m = a.clone();
            assert!(merge_dominated(&mut m, &a));
            assert_eq!(m, a);
        }
    }

    #[test]
    fn merge_in_place_matches_out_of_place() {
        let a: Vec<u64> = (0..37).map(|i| (i * 31) % 17).collect();
        let b: Vec<u64> = (0..37).map(|i| (i * 29) % 19).collect();
        let mut m = a.clone();
        merge(&mut m, &b);
        assert_eq!(m, scalar_merge(&a, &b));
    }
}
