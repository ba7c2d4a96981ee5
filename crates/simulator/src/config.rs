//! Simulation configuration.

use netsim::{AlphaBeta, Constant, FaultSpec, Jittered, LatencyModel, Topology};
use race_core::{DetectorConfig, DetectorKind};

/// Which latency model to instantiate (a plain-data description; the
/// model itself is stateful because of the seeded jitter).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencySpec {
    /// Fixed nanoseconds per hop.
    Constant {
        /// ns per hop.
        ns: u64,
    },
    /// InfiniBand-like α+β (1.5 µs + 3 GB/s).
    InfiniBand,
    /// Gigabit-Ethernet-like α+β.
    Ethernet,
    /// InfiniBand-like with uniform jitter up to `max_ns` (seeded from the
    /// run seed — this is what makes different seeds explore different
    /// interleavings).
    JitteredInfiniBand {
        /// Maximum added jitter, ns.
        max_ns: u64,
    },
}

impl LatencySpec {
    /// Build the model, folding in the run `seed`.
    pub fn build(self, seed: u64) -> Box<dyn LatencyModel> {
        match self {
            LatencySpec::Constant { ns } => Box::new(Constant::new(ns)),
            LatencySpec::InfiniBand => Box::new(AlphaBeta::infiniband()),
            LatencySpec::Ethernet => Box::new(AlphaBeta::ethernet()),
            LatencySpec::JitteredInfiniBand { max_ns } => {
                Box::new(Jittered::new(AlphaBeta::infiniband(), seed, max_ns))
            }
        }
    }
}

/// Full configuration of one simulated run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of processes.
    pub n: usize,
    /// Run seed (drives jitter; different seeds → different interleavings).
    pub seed: u64,
    /// Latency model.
    pub latency: LatencySpec,
    /// Interconnect topology.
    pub topology: Topology,
    /// Private segment bytes per process.
    pub private_len: usize,
    /// Public segment bytes per process.
    pub public_len: usize,
    /// Full detector configuration (kind, granularity, slab layout) — the
    /// `race_core::api` builder, embedded.
    /// The engine builds its detection `Session` from exactly this value
    /// (with `n` forced to [`SimConfig::n`]), so a committed
    /// `DetectorConfig` JSON plus the simulation knobs reproduces a run.
    pub detector: DetectorConfig,
    /// Optional fault injection applied uniformly to every link, seeded
    /// from [`SimConfig::seed`] (see [`netsim::FaultPlan`]). `None` (the
    /// default) delivers every message exactly once in FIFO order. When a
    /// plan actually fires during a run, the engine marks the run's
    /// summary [`race_core::RaceSummary::degraded`].
    pub faults: Option<FaultSpec>,
}

impl SimConfig {
    /// A small debugging-scale default (§V-A: "typically, about 10
    /// processes"): jittered InfiniBand latencies, full mesh, word-granular
    /// dual-clock detection.
    pub fn debugging(n: usize) -> Self {
        SimConfig {
            n,
            seed: 1,
            latency: LatencySpec::JitteredInfiniBand { max_ns: 2_000 },
            topology: Topology::FullMesh,
            private_len: 1 << 16,
            public_len: 1 << 16,
            detector: DetectorConfig::new(DetectorKind::Dual, n),
            faults: None,
        }
    }

    /// Same configuration with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Same configuration with a different detector kind (legacy shim over
    /// the embedded [`DetectorConfig`]).
    pub fn with_detector(mut self, detector: DetectorKind) -> Self {
        self.detector.kind = detector;
        self
    }

    /// Same configuration with a full detector configuration. `n` is
    /// forced to the simulation's process count, so a config built for a
    /// different scale can be reused as-is.
    pub fn with_detector_config(mut self, detector: DetectorConfig) -> Self {
        self.detector = detector.with_n(self.n);
        self
    }

    /// Deterministic constant-latency variant (unit tests that predict
    /// exact arrival times).
    pub fn lockstep(n: usize, ns: u64) -> Self {
        SimConfig {
            n,
            seed: 0,
            latency: LatencySpec::Constant { ns },
            topology: Topology::FullMesh,
            private_len: 1 << 12,
            public_len: 1 << 12,
            detector: DetectorConfig::new(DetectorKind::Dual, n),
            faults: None,
        }
    }

    /// Same configuration with uniform per-link fault injection. The plan
    /// is seeded from [`SimConfig::seed`], so a `(config, seed)` pair
    /// still reproduces the run bit-for-bit, faults included.
    pub fn with_faults(mut self, spec: FaultSpec) -> Self {
        self.faults = Some(spec);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use race_core::Granularity;

    #[test]
    fn defaults_are_debug_scale() {
        let c = SimConfig::debugging(10);
        assert_eq!(c.n, 10);
        assert_eq!(c.detector.kind, DetectorKind::Dual);
        assert_eq!(c.detector.n, 10, "embedded config tracks the run scale");
        assert_eq!(c.detector.granularity, Granularity::WORD);
    }

    #[test]
    fn with_seed_and_detector() {
        let c = SimConfig::debugging(4)
            .with_seed(9)
            .with_detector(DetectorKind::Vanilla);
        assert_eq!(c.seed, 9);
        assert_eq!(c.detector.kind, DetectorKind::Vanilla);
    }

    #[test]
    fn with_detector_config_forces_the_run_scale() {
        let c = SimConfig::debugging(4)
            .with_detector_config(DetectorConfig::new(DetectorKind::Single, 99));
        assert_eq!(c.detector.n, 4, "n is the simulation's, not the config's");
        assert_eq!(c.detector.kind, DetectorKind::Single);
    }

    #[test]
    fn faults_default_off_and_build_on() {
        assert!(SimConfig::debugging(4).faults.is_none());
        assert!(SimConfig::lockstep(4, 100).faults.is_none());
        let spec = FaultSpec {
            drop: 0.1,
            ..FaultSpec::default()
        };
        let c = SimConfig::debugging(4).with_faults(spec);
        assert_eq!(c.faults, Some(spec));
    }

    #[test]
    fn latency_specs_build() {
        for spec in [
            LatencySpec::Constant { ns: 10 },
            LatencySpec::InfiniBand,
            LatencySpec::Ethernet,
            LatencySpec::JitteredInfiniBand { max_ns: 100 },
        ] {
            let mut m = spec.build(1);
            assert!(m.delay_ns(0, 1, 8, 1) > 0);
        }
    }
}
