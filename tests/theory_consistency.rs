//! Cross-crate consistency between the Section 3 theory (`cnet-timing`)
//! and the Section 4 constructions (`cnet_timing::adversary`).

use counting_networks::timing::adversary::{
    bitonic_attack, intro_example, tree_attack, tree_attack_with_gap, wave_attack, Scenario,
};
use counting_networks::timing::executor::TimedExecutor;
use counting_networks::timing::{knowledge, measure, random, LinkTiming, TimingError};
use counting_networks::topology::constructions;
use proptest::prelude::*;

/// Each constructor's result at `(width, timing)` beside the condition
/// its `# Errors` section documents for `Ok`, with `h` the depth of the
/// attacked network.
fn constructors(
    width: usize,
    timing: LinkTiming,
) -> [(&'static str, Result<Scenario, TimingError>, bool); 4] {
    let (c1, c2) = (timing.c1(), timing.c2());
    let slack = |h: usize| h as u64 * c2.saturating_sub(2 * c1);
    let tree_h = constructions::counting_tree(width).unwrap().depth();
    let bitonic_h = constructions::bitonic(width).unwrap().depth();
    let merger_h = width.trailing_zeros() as u64;
    [
        ("intro", intro_example(timing), c2 > 2 * c1 + 2),
        ("tree", tree_attack(width, timing), slack(tree_h) >= 2),
        (
            "bitonic",
            bitonic_attack(width, timing),
            slack(bitonic_h) >= 3,
        ),
        (
            "wave",
            wave_attack(width, timing),
            merger_h * c2 >= (bitonic_h as u64 + merger_h) * c1 + 3,
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every constructor builds exactly when its documented condition
    /// holds, and every scenario it builds is admissible for its own
    /// timing bounds, delivers at least its promised violations, and
    /// keeps the quiescent step property.
    #[test]
    fn scenarios_are_admissible_and_violate(
        log_w in 2u32..=5,
        c1 in 1u64..=20,
        spread in 0u64..1_000_000,
    ) {
        let width = 1usize << log_w;
        let timing = LinkTiming::new(c1, c1 + spread % (5 * c1 + 1)).unwrap();
        for (name, built, documented) in constructors(width, timing) {
            prop_assert_eq!(
                built.is_ok(),
                documented,
                "{}: width {}, {}: {:?}",
                name,
                width,
                timing,
                built.as_ref().err()
            );
            let Ok(s) = built else { continue };
            prop_assert!(s.validate().is_ok(), "{} inadmissible at {}", s.name, timing);
            let exec = s.execute().unwrap();
            prop_assert!(
                exec.nonlinearizable_count() >= s.min_violations,
                "{} at {}: {} < {}",
                s.name,
                timing,
                exec.nonlinearizable_count(),
                s.min_violations
            );
            prop_assert!(exec.output_counts().is_step(), "{} at {}", s.name, timing);
        }
    }

    /// The attack constructors refuse wherever Corollary 3.9 applies.
    #[test]
    fn constructors_refuse_in_the_guaranteed_regime(
        log_w in 2u32..=5,
        c1 in 1u64..=20,
        spread in 0u64..1_000_000,
    ) {
        let tame = LinkTiming::new(c1, c1 + spread % (c1 + 1)).unwrap();
        prop_assert!(tame.guarantees_linearizability());
        for (name, built, _) in constructors(1 << log_w, tame) {
            prop_assert!(
                matches!(built, Err(TimingError::RatioTooSmall { .. })),
                "{} built at {}",
                name,
                tame
            );
        }
    }
}

/// The knowledge lemmas (3.1, 3.2) hold even on the adversarial
/// executions — violations of *linearizability* never violate the
/// paper's information-propagation bounds.
#[test]
fn knowledge_lemmas_hold_on_adversarial_executions() {
    let timing = LinkTiming::new(10, 30).unwrap();
    for s in [
        intro_example(timing).unwrap(),
        tree_attack(16, timing).unwrap(),
        bitonic_attack(16, timing).unwrap(),
    ] {
        let exec = s.execute().unwrap();
        knowledge::verify_lemma_3_1(&s.topology, &exec)
            .unwrap_or_else(|e| panic!("{}: {e}", s.name));
        knowledge::verify_lemma_3_2(&s.topology, &exec, timing.c1())
            .unwrap_or_else(|e| panic!("{}: {e}", s.name));
    }
}

/// Theorem 3.6 tightness: the tree attack violates for every gap below
/// `h(c2 - 2 c1)` and the theory guarantees order at or beyond it.
#[test]
fn finish_start_bound_is_tight_on_trees() {
    let timing = LinkTiming::new(5, 20).unwrap();
    let net = constructions::counting_tree(16).unwrap();
    let h = net.depth();
    let slack = measure::finish_start_separation(h, timing);
    assert!(slack > 0);
    let slack = slack as u64;
    for gap in 1..slack {
        let exec = tree_attack_with_gap(16, timing, gap)
            .unwrap()
            .execute()
            .unwrap();
        assert!(exec.nonlinearizable_count() >= 1, "gap {gap} of {slack}");
    }
    assert!(tree_attack_with_gap(16, timing, slack).is_err());
}

/// Corollary 3.12 end to end: the straggler/wave family violates the
/// bare tree for some seeds, and *never* violates the fully padded
/// network.
#[test]
fn corollary_3_12_padding_eliminates_violations() {
    let timing = LinkTiming::new(10, 30).unwrap(); // k = 4
    let inner = constructions::counting_tree(16).unwrap();
    let h = inner.depth();
    let k = timing.min_integer_k() as usize;
    assert_eq!(k, 4);
    let pad = measure::corollary_3_12_padding(h, k);
    let padded = constructions::linearizing_prefix(&inner, k).unwrap();
    assert_eq!(padded.depth(), measure::corollary_3_12_depth(h, k));

    let mut bare_violations = 0usize;
    for seed in 0..40u64 {
        let bare = random::straggler_burst_schedule(&inner, timing, 1, 2, 15, 0, seed).unwrap();
        bare_violations += TimedExecutor::new(&inner)
            .run(&bare)
            .unwrap()
            .nonlinearizable_count();

        let s = random::straggler_burst_schedule(&padded, timing, 1, 2, 15, pad, seed).unwrap();
        s.validate(&padded, Some(timing)).unwrap();
        let exec = TimedExecutor::new(&padded).run(&s).unwrap();
        assert_eq!(
            exec.nonlinearizable_count(),
            0,
            "padded network violated at seed {seed}"
        );
    }
    assert!(
        bare_violations > 0,
        "the attack family should hurt the unpadded tree"
    );
}

/// Uniform random admissible schedules on the *padded* network are also
/// always clean, whatever the jitter, as long as c2 < k c1.
#[test]
fn padded_network_clean_under_uniform_schedules() {
    let timing = LinkTiming::new(10, 29).unwrap(); // < 3 c1, use k = 3
    let inner = constructions::bitonic(4).unwrap();
    let padded = constructions::linearizing_prefix(&inner, 3).unwrap();
    for seed in 0..10u64 {
        let s = random::uniform_schedule(&padded, timing, 150, 5, seed).unwrap();
        let exec = TimedExecutor::new(&padded).run(&s).unwrap();
        assert_eq!(exec.nonlinearizable_count(), 0, "seed {seed}");
    }
}
