//! Property-based cross-crate tests of timed executions.

use counting_networks::timing::executor::TimedExecutor;
use counting_networks::timing::{knowledge, random, LinkTiming, TimingSchedule};
use counting_networks::topology::{constructions, router::SequentialRouter};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Corollary 3.10 for the periodic network: with `c2 <= 2 c1` every
    /// admissible execution is linearizable.
    #[test]
    fn periodic_linearizable_at_ratio_two(
        c1 in 1u64..15,
        tokens in 1usize..80,
        gap in 0u64..10,
        seed in 0u64..500,
    ) {
        let net = constructions::periodic(8).unwrap();
        let timing = LinkTiming::new(c1, 2 * c1).unwrap();
        let s = random::uniform_schedule(&net, timing, tokens, gap, seed).unwrap();
        let exec = TimedExecutor::new(&net).run(&s).unwrap();
        prop_assert_eq!(exec.nonlinearizable_count(), 0);
    }

    /// Whatever the ratio, a timed execution puts out each value
    /// exactly once and ends in a quiescent step state, and the
    /// knowledge lemmas hold.
    #[test]
    fn executions_are_well_formed_at_any_ratio(
        c1 in 1u64..10,
        extra in 0u64..50,
        tokens in 1usize..60,
        seed in 0u64..500,
    ) {
        let net = constructions::bitonic(8).unwrap();
        let timing = LinkTiming::new(c1, c1 + extra).unwrap();
        let s = random::uniform_schedule(&net, timing, tokens, 4, seed).unwrap();
        let exec = TimedExecutor::new(&net).run(&s).unwrap();
        let mut values: Vec<u64> = exec.operations().iter().map(|o| o.value).collect();
        values.sort_unstable();
        prop_assert_eq!(values, (0..tokens as u64).collect::<Vec<u64>>());
        prop_assert!(exec.output_counts().is_step());
        prop_assert!(knowledge::verify_lemma_3_1(&net, &exec).is_ok());
        prop_assert!(knowledge::verify_lemma_3_2(&net, &exec, timing.c1()).is_ok());
    }

    /// A timed execution where tokens proceed strictly one at a time
    /// (no overlap at all) returns values in entry order — agreement
    /// between the timed executor and the sequential router.
    #[test]
    fn disjoint_timed_execution_matches_sequential_routing(
        inputs in proptest::collection::vec(0usize..8, 1..40),
        c in 1u64..20,
    ) {
        let net = constructions::bitonic(8).unwrap();
        let h = net.depth();
        let timing = LinkTiming::exact(c).unwrap();

        let mut schedule = TimingSchedule::new(h);
        let mut t = 0u64;
        for &input in &inputs {
            schedule.push_delays(input, t, &vec![timing.c1(); h]).unwrap();
            t += h as u64 * timing.c1() + 1; // fully after the previous exit
        }
        let exec = TimedExecutor::new(&net).run(&schedule).unwrap();

        let mut router = SequentialRouter::new(&net);
        for (k, &input) in inputs.iter().enumerate() {
            let expected = router.route(input).unwrap();
            let got = &exec.operations()[k];
            prop_assert_eq!(got.value, expected.value);
            prop_assert_eq!(got.counter as usize, expected.counter);
        }
        prop_assert_eq!(exec.nonlinearizable_count(), 0);
    }

    /// Burst schedules (simultaneous waves) still count exactly and are
    /// clean when the ratio is at most 2.
    #[test]
    fn bursts_are_clean_at_ratio_two(
        c1 in 1u64..10,
        waves in 1usize..6,
        wave_size in 1usize..12,
        seed in 0u64..200,
    ) {
        let net = constructions::counting_tree(8).unwrap();
        let timing = LinkTiming::new(c1, 2 * c1).unwrap();
        let s = random::burst_schedule(&net, timing, waves, wave_size, 3, seed).unwrap();
        let exec = TimedExecutor::new(&net).run(&s).unwrap();
        prop_assert_eq!(exec.nonlinearizable_count(), 0);
        prop_assert_eq!(exec.output_counts().total(), (waves * wave_size) as u64);
    }
}
