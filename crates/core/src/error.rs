//! Retry policy shared by the layers that wait on something that may be
//! slow or gone.
//!
//! [`RetryPolicy`] is a bounded exponential backoff: the service's `Shed`
//! slow-client policy gives each event that finds the queue full one
//! schedule before dropping it, and the client spaces its reconnect
//! attempts with the jittered variant.

use std::time::Duration;

/// Bounded retry with exponential backoff: attempt `i` waits
/// `base_delay << i`. The policy bounds how long a caller keeps trying,
/// never what it does when the attempts run out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Number of timed attempts.
    pub attempts: u32,
    /// Wait of the first attempt; doubles each attempt.
    pub base_delay: Duration,
}

impl Default for RetryPolicy {
    /// Four attempts starting at 1 ms (1 + 2 + 4 + 8 = 15 ms in total).
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base_delay: Duration::from_millis(1),
        }
    }
}

impl RetryPolicy {
    /// The backoff schedule: `attempts` delays, doubling from
    /// [`RetryPolicy::base_delay`].
    pub fn delays(&self) -> impl Iterator<Item = Duration> + '_ {
        let base = self.base_delay;
        (0..self.attempts).map(move |i| base.saturating_mul(1u32 << i.min(16)))
    }

    /// The backoff schedule with deterministic pseudo-random jitter: each
    /// delay is scaled by a factor in `[0.5, 1.0]` derived from `seed` and
    /// the attempt index, so a fleet of clients reconnecting after the same
    /// outage does not thunder back in lockstep. Same seed ⇒ same schedule
    /// (reconnect tests stay reproducible).
    pub fn jittered_delays(&self, seed: u64) -> impl Iterator<Item = Duration> + '_ {
        self.delays().enumerate().map(move |(i, delay)| {
            // SplitMix64 on (seed, attempt): cheap, dependency-free, and
            // well-distributed even for adjacent seeds.
            let mut z = seed.wrapping_add(i as u64).wrapping_add(0x9E3779B97F4A7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^= z >> 31;
            // Map to [512, 1024] / 1024 — never below half the nominal
            // delay, so backoff keeps its exponential floor.
            let scale = 512 + (z % 513) as u32;
            delay.saturating_mul(scale) / 1024
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_is_bounded() {
        let policy = RetryPolicy::default();
        let delays: Vec<_> = policy.delays().collect();
        assert_eq!(delays.len(), 4);
        assert_eq!(delays[0], Duration::from_millis(1));
        assert_eq!(delays[1], Duration::from_millis(2));
        assert_eq!(delays[3], Duration::from_millis(8));
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_seed_sensitive() {
        let policy = RetryPolicy {
            attempts: 8,
            base_delay: Duration::from_millis(64),
        };
        let a: Vec<_> = policy.jittered_delays(7).collect();
        let b: Vec<_> = policy.jittered_delays(7).collect();
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.len(), 8);
        for (jittered, nominal) in a.iter().zip(policy.delays()) {
            assert!(*jittered >= nominal / 2, "never below half the nominal");
            assert!(*jittered <= nominal, "never above the nominal");
        }
        let c: Vec<_> = policy.jittered_delays(8).collect();
        assert_ne!(a, c, "different seeds decorrelate");
    }
}
