//! Traffic accounting.
//!
//! Everything the reproduction's tables need: message and byte counts per
//! [`OpClass`] and a log₂-bucketed latency histogram. Fig 2's "a put is one
//! message, a get is two" is asserted directly against these counters, and
//! §V-A's overhead table is `detection bytes / data bytes`.

use crate::message::OpClass;

/// Per-class message/byte counters plus latency histogram.
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    /// Messages per class, indexed in [`OpClass::ALL`] order.
    msgs: [u64; OpClass::ALL.len()],
    /// Bytes per class, indexed in [`OpClass::ALL`] order.
    bytes: [u64; OpClass::ALL.len()],
    /// log2 latency histogram: bucket 0 counts the 0 ns deliveries, bucket
    /// `i ≥ 1` those with latency in `[2^(i-1), 2^i)` ns (`i` is the
    /// latency's bit length) — the floors [`NetStats::latency_histogram`]
    /// decodes.
    latency_buckets: Vec<u64>,
    total_msgs: u64,
    total_bytes: u64,
    latency_sum_ns: u128,
    injected_drops: u64,
    injected_duplicates: u64,
    injected_delays: u64,
    injected_reorders: u64,
}

impl NetStats {
    /// Fresh, all-zero statistics.
    pub fn new() -> Self {
        NetStats::default()
    }

    /// Record a delivered message of `class` whose `bytes` include
    /// `detection_bytes` of piggy-backed clocks (see
    /// [`crate::Classify::detection_bytes`]; 0 for most messages): one
    /// message of `class`, with the piggy-backed bytes booked under
    /// [`OpClass::Clock`].
    pub fn record(
        &mut self,
        class: OpClass,
        bytes: usize,
        detection_bytes: usize,
        latency_ns: u64,
    ) {
        let detection = detection_bytes.min(bytes) as u64;
        self.msgs[class.index()] += 1;
        self.bytes[class.index()] += bytes as u64 - detection;
        self.bytes[OpClass::Clock.index()] += detection;
        self.total_msgs += 1;
        self.total_bytes += bytes as u64;
        self.latency_sum_ns += u128::from(latency_ns);
        let bucket = 64 - latency_ns.leading_zeros() as usize;
        if self.latency_buckets.len() <= bucket {
            self.latency_buckets.resize(bucket + 1, 0);
        }
        self.latency_buckets[bucket] += 1;
    }

    /// Messages delivered for `class`.
    pub fn msgs(&self, class: OpClass) -> u64 {
        self.msgs[class.index()]
    }

    /// Bytes delivered for `class`.
    pub fn bytes(&self, class: OpClass) -> u64 {
        self.bytes[class.index()]
    }

    /// All messages delivered.
    pub fn total_msgs(&self) -> u64 {
        self.total_msgs
    }

    /// All bytes delivered.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Mean delivery latency in nanoseconds (0 when nothing delivered).
    pub fn mean_latency_ns(&self) -> u64 {
        if self.total_msgs == 0 {
            0
        } else {
            (self.latency_sum_ns / u128::from(self.total_msgs)) as u64
        }
    }

    /// Messages that exist only because of race detection (clock traffic
    /// that is not piggy-backed on a data message).
    pub fn detection_msgs(&self) -> u64 {
        OpClass::ALL
            .iter()
            .filter(|c| c.is_detection_overhead())
            .map(|&c| self.msgs(c))
            .sum()
    }

    /// Bytes attributable to race detection: detection-only messages plus
    /// the clocks piggy-backed on data messages.
    pub fn detection_bytes(&self) -> u64 {
        OpClass::ALL
            .iter()
            .filter(|c| c.is_detection_overhead())
            .map(|&c| self.bytes(c))
            .sum()
    }

    /// `(detection bytes) / (total bytes)` as a percentage; the §V-A
    /// communication-overhead figure.
    pub fn detection_overhead_pct(&self) -> f64 {
        if self.total_bytes == 0 {
            0.0
        } else {
            100.0 * self.detection_bytes() as f64 / self.total_bytes as f64
        }
    }

    pub(crate) fn record_injected_drop(&mut self) {
        self.injected_drops += 1;
    }

    pub(crate) fn record_injected_duplicate(&mut self) {
        self.injected_duplicates += 1;
    }

    pub(crate) fn record_injected_delay(&mut self) {
        self.injected_delays += 1;
    }

    pub(crate) fn record_injected_reorder(&mut self) {
        self.injected_reorders += 1;
    }

    /// Messages dropped by fault injection (see [`crate::fault`]).
    pub fn injected_drops(&self) -> u64 {
        self.injected_drops
    }

    /// Messages duplicated by fault injection.
    pub fn injected_duplicates(&self) -> u64 {
        self.injected_duplicates
    }

    /// Messages delayed by fault injection.
    pub fn injected_delays(&self) -> u64 {
        self.injected_delays
    }

    /// Messages that overtook earlier same-channel traffic under a
    /// reorder fault.
    pub fn injected_reorders(&self) -> u64 {
        self.injected_reorders
    }

    /// Total injected faults of any kind. Zero means the run was
    /// indistinguishable from a fault-free network — the chaos harness's
    /// byte-parity precondition.
    pub fn injected_total(&self) -> u64 {
        self.injected_drops
            + self.injected_duplicates
            + self.injected_delays
            + self.injected_reorders
    }

    /// Latency histogram as `(bucket_floor_ns, count)` pairs.
    pub fn latency_histogram(&self) -> Vec<(u64, u64)> {
        self.latency_buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (if i == 0 { 0 } else { 1u64 << (i - 1) }, c))
            .collect()
    }

    /// Merge another stats block into this one (used when aggregating
    /// multi-seed exploration runs).
    pub fn merge(&mut self, other: &NetStats) {
        for (mine, theirs) in self.msgs.iter_mut().zip(other.msgs) {
            *mine += theirs;
        }
        for (mine, theirs) in self.bytes.iter_mut().zip(other.bytes) {
            *mine += theirs;
        }
        if self.latency_buckets.len() < other.latency_buckets.len() {
            self.latency_buckets.resize(other.latency_buckets.len(), 0);
        }
        for (i, v) in other.latency_buckets.iter().enumerate() {
            self.latency_buckets[i] += v;
        }
        self.total_msgs += other.total_msgs;
        self.total_bytes += other.total_bytes;
        self.latency_sum_ns += other.latency_sum_ns;
        self.injected_drops += other.injected_drops;
        self.injected_duplicates += other.injected_duplicates;
        self.injected_delays += other.injected_delays;
        self.injected_reorders += other.injected_reorders;
    }
}

impl std::fmt::Display for NetStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{:<10} {:>8} {:>12}", "class", "msgs", "bytes")?;
        for class in OpClass::ALL {
            let m = self.msgs(class);
            if m > 0 {
                writeln!(
                    f,
                    "{:<10} {:>8} {:>12}",
                    class.label(),
                    m,
                    self.bytes(class)
                )?;
            }
        }
        writeln!(
            f,
            "{:<10} {:>8} {:>12}  (detection overhead {:.1}%)",
            "total",
            self.total_msgs,
            self.total_bytes,
            self.detection_overhead_pct()
        )?;
        if self.injected_total() > 0 {
            writeln!(
                f,
                "injected faults: {} drop, {} dup, {} delay, {} reorder",
                self.injected_drops,
                self.injected_duplicates,
                self.injected_delays,
                self.injected_reorders
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut s = NetStats::new();
        s.record(OpClass::PutData, 100, 0, 1_000);
        s.record(OpClass::GetRequest, 32, 0, 1_000);
        s.record(OpClass::GetReply, 132, 0, 1_200);
        assert_eq!(s.msgs(OpClass::PutData), 1);
        assert_eq!(s.total_msgs(), 3);
        assert_eq!(s.total_bytes(), 264);
        assert_eq!(s.msgs(OpClass::Clock), 0);
    }

    #[test]
    fn overhead_percentage() {
        let mut s = NetStats::new();
        s.record(OpClass::PutData, 300, 0, 10);
        s.record(OpClass::Clock, 100, 0, 10);
        assert_eq!(s.detection_bytes(), 100);
        assert!((s.detection_overhead_pct() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn piggy_backed_clock_bytes_are_booked_as_detection() {
        // A 300-byte put-data message of which 100 bytes are a clock: one
        // put-data message, no clock message, 100 detection bytes.
        let mut s = NetStats::new();
        s.record(OpClass::PutData, 300, 100, 10);
        assert_eq!(s.msgs(OpClass::PutData), 1);
        assert_eq!(s.msgs(OpClass::Clock), 0);
        assert_eq!(s.detection_msgs(), 0);
        assert_eq!(s.bytes(OpClass::PutData), 200);
        assert_eq!(s.bytes(OpClass::Clock), 100);
        assert_eq!(s.detection_bytes(), 100);
        assert_eq!(s.total_bytes(), 300);
        let mut t = NetStats::new();
        t.merge(&s);
        assert_eq!(t.detection_bytes(), 100);
    }

    #[test]
    fn empty_overhead_is_zero() {
        assert_eq!(NetStats::new().detection_overhead_pct(), 0.0);
        assert_eq!(NetStats::new().mean_latency_ns(), 0);
    }

    #[test]
    fn mean_latency() {
        let mut s = NetStats::new();
        s.record(OpClass::PutData, 1, 0, 100);
        s.record(OpClass::PutData, 1, 0, 300);
        assert_eq!(s.mean_latency_ns(), 200);
    }

    #[test]
    fn histogram_buckets() {
        let mut s = NetStats::new();
        s.record(OpClass::PutData, 1, 0, 0); // bucket floor 0
        s.record(OpClass::PutData, 1, 0, 1); // floor 1
        s.record(OpClass::PutData, 1, 0, 5); // floor 4
        s.record(OpClass::PutData, 1, 0, 5); // floor 4 again
        let h = s.latency_histogram();
        assert!(h.contains(&(0, 1)));
        assert!(h.contains(&(1, 1)));
        assert!(h.contains(&(4, 2)));
    }

    #[test]
    fn histogram_bucket_edges() {
        // Bucket `i ≥ 1` is `[2^(i-1), 2^i)`: each power of two opens a
        // bucket, the value before it closes the previous one.
        for (latency_ns, floor) in [(1, 1), (2, 2), (3, 2), (4, 4), (7, 4), (8, 8)] {
            let mut s = NetStats::new();
            s.record(OpClass::PutData, 1, 0, latency_ns);
            assert_eq!(
                s.latency_histogram(),
                vec![(floor, 1)],
                "{latency_ns} ns lands in the bucket starting at {floor} ns"
            );
        }
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = NetStats::new();
        a.record(OpClass::PutData, 10, 0, 100);
        let mut b = NetStats::new();
        b.record(OpClass::Clock, 20, 0, 200);
        b.record(OpClass::PutData, 5, 0, 100);
        a.merge(&b);
        assert_eq!(a.total_msgs(), 3);
        assert_eq!(a.total_bytes(), 35);
        assert_eq!(a.msgs(OpClass::PutData), 2);
        assert_eq!(a.msgs(OpClass::Clock), 1);
    }

    #[test]
    fn display_contains_totals() {
        let mut s = NetStats::new();
        s.record(OpClass::PutData, 10, 0, 100);
        let text = s.to_string();
        assert!(text.contains("put-data"));
        assert!(text.contains("total"));
    }
}
