//! Workspace-level property tests: on randomly generated programs the
//! dual-clock detector is *sound* (pair-level precision 1.0 against the
//! oracle) and *site-complete* (every racy word reported at least once),
//! and the whole simulation is deterministic per seed.

use coherent_dsm::prelude::*;
use proptest::prelude::*;
use simulator::workloads::random_access::{generate, RandomSpec};

fn run(cfg: SimConfig, programs: Vec<Program>) -> RunResult {
    let r = Engine::new(cfg, programs).run();
    assert!(r.errors.is_empty(), "{:?}", r.errors);
    assert!(r.stuck.is_empty(), "{:?}", r.stuck);
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Soundness + site-completeness of the reference detector on random
    /// unlocked workloads, for arbitrary sizes, write ratios and seeds.
    #[test]
    fn dual_clock_sound_and_site_complete(
        n in 2usize..6,
        ops in 4usize..20,
        hot in 1usize..6,
        p_write in 0.0f64..=1.0,
        wseed in 0u64..1000,
        eseed in 0u64..1000,
    ) {
        let w = generate(RandomSpec {
            n,
            ops_per_rank: ops,
            hot_words: hot,
            p_write,
            locked: false,
            seed: wseed,
        });
        let r = run(SimConfig::debugging(n).with_seed(eseed), w.programs);
        let oracle = Oracle::analyze(&r.trace);
        let pairs = oracle.score(r.deduped());
        prop_assert_eq!(pairs.false_positives, 0, "soundness");
        let sites = oracle.site_score(r.deduped());
        prop_assert_eq!(sites.false_negatives, 0, "site completeness");
        prop_assert_eq!(sites.false_positives, 0, "site soundness");
    }

    /// Locked random workloads never race and never report, under any
    /// detector that understands synchronisation.
    #[test]
    fn locked_random_workloads_are_silent(
        n in 2usize..5,
        ops in 2usize..10,
        wseed in 0u64..500,
    ) {
        let w = generate(RandomSpec {
            n,
            ops_per_rank: ops,
            hot_words: 3,
            p_write: 0.6,
            locked: true,
            seed: wseed,
        });
        let r = run(SimConfig::debugging(n), w.programs);
        prop_assert!(r.deduped().is_empty(), "dual-clock reported {:?}", r.deduped());
        let oracle = Oracle::analyze(&r.trace);
        prop_assert!(oracle.truth().is_empty());
    }

    /// The single-clock baseline's non-read-read reports are all real
    /// races (it never invents a write conflict). Note it does NOT inherit
    /// the dual clock's site completeness: with only one merged clock,
    /// readers absorb *other readers'* clocks, and that spurious read-read
    /// causality can causally "order" a later write after an old read and
    /// mask a true race — a false-negative mode the dual clock does not
    /// have (measured in EXPERIMENTS.md as an additional §IV-D argument).
    #[test]
    fn single_clock_only_adds_read_read(
        n in 2usize..5,
        ops in 4usize..14,
        wseed in 0u64..500,
    ) {
        let w = generate(RandomSpec {
            n,
            ops_per_rank: ops,
            hot_words: 3,
            p_write: 0.3,
            locked: false,
            seed: wseed,
        });
        let single = run(
            SimConfig::debugging(n).with_detector(DetectorKind::Single),
            w.programs.clone(),
        );
        // Score against the single run's own trace: operation ids are
        // assigned in scheduling order, which differs between detector
        // configurations.
        let oracle = Oracle::analyze(&single.trace);
        // Every non-read-read report it makes is a true race pair.
        let true_class: Vec<_> = single
            .deduped()
            .iter()
            .filter(|x| x.class.is_true_race())
            .cloned()
            .collect();
        let pairs = oracle.score(&true_class);
        prop_assert_eq!(pairs.false_positives, 0);
    }

    /// Determinism: same config + same programs ⇒ identical traces,
    /// reports, traffic and timing.
    #[test]
    fn simulation_is_deterministic(
        n in 2usize..5,
        ops in 2usize..10,
        wseed in 0u64..500,
        eseed in 0u64..500,
    ) {
        let w = generate(RandomSpec {
            n,
            ops_per_rank: ops,
            hot_words: 2,
            p_write: 0.5,
            locked: false,
            seed: wseed,
        });
        let a = run(SimConfig::debugging(n).with_seed(eseed), w.programs.clone());
        let b = run(SimConfig::debugging(n).with_seed(eseed), w.programs);
        prop_assert_eq!(a.virtual_time, b.virtual_time);
        prop_assert_eq!(a.stats.total_msgs(), b.stats.total_msgs());
        prop_assert_eq!(a.stats.total_bytes(), b.stats.total_bytes());
        prop_assert_eq!(a.deduped().len(), b.deduped().len());
        prop_assert_eq!(a.trace.events.len(), b.trace.events.len());
    }

    /// §IV-D non-fatality: whatever the workload, racy runs complete and
    /// every reported clock pair is concurrent (Corollary 1).
    #[test]
    fn reports_always_carry_concurrent_clocks(
        n in 2usize..5,
        ops in 2usize..12,
        wseed in 0u64..500,
    ) {
        let w = generate(RandomSpec {
            n,
            ops_per_rank: ops,
            hot_words: 2,
            p_write: 0.7,
            locked: false,
            seed: wseed,
        });
        let r = run(SimConfig::debugging(n), w.programs);
        for rep in r.deduped() {
            prop_assert!(rep.current.clock().concurrent_with(&rep.previous.clock()));
        }
    }
}
