//! Seeded random schedule generators.
//!
//! All generators take an explicit seed and use a local PRNG, so every
//! schedule — and therefore every execution — is exactly reproducible.

use cnet_topology::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::TimingError;
use crate::link::{LinkTiming, Time};
use crate::schedule::TimingSchedule;

/// Generates `tokens` tokens with uniformly random per-link delays in
/// `[c1, c2]`, random entry inputs, and entry times spaced by uniform
/// random gaps in `[0, max_gap]`.
///
/// Token ids are assigned in entry order (the paper's convention).
///
/// # Errors
///
/// Returns [`TimingError::EmptySchedule`] if `tokens == 0`.
pub fn uniform_schedule(
    topology: &Topology,
    timing: LinkTiming,
    tokens: usize,
    max_gap: Time,
    seed: u64,
) -> Result<TimingSchedule, TimingError> {
    if tokens == 0 {
        return Err(TimingError::EmptySchedule);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let h = topology.depth();
    let mut s = TimingSchedule::new(h);
    let mut entry: Time = 0;
    for _ in 0..tokens {
        entry += rng.gen_range(0..=max_gap);
        let input = rng.gen_range(0..topology.input_width());
        let delays: Vec<Time> = (0..h)
            .map(|_| rng.gen_range(timing.c1()..=timing.c2()))
            .collect();
        s.push_delays(input, entry, &delays)?;
    }
    Ok(s)
}

/// The randomized straggler/witness/wave pattern distilled from the
/// paper's Section 4 attacks — the schedule family that actually
/// elicits violations with non-trivial probability:
///
/// * `stragglers` tokens enter near time 0 and crawl (every link takes
///   `c2`);
/// * `witnesses` tokens enter at small random offsets, crawl alongside
///   the stragglers for the first `slow_prefix` links (so that on a
///   padded network the straggler still wins the race into the inner
///   network), then race at `c1`, returning early values;
/// * after the last witness has exited, a wave of `wave` fast tokens
///   enters (one per input, cycling). If the ratio and depth allow, a
///   wave token overtakes a crawling straggler and returns a smaller
///   value than some witness that completely preceded it.
///
/// Pass `slow_prefix = 0` for unpadded networks; for a network built
/// with [`cnet_topology::constructions::pad_inputs`], pass the padding
/// length.
///
/// # Errors
///
/// Returns [`TimingError::EmptySchedule`] if no tokens are requested.
///
/// # Panics
///
/// Panics if `slow_prefix` exceeds the network depth.
pub fn straggler_burst_schedule(
    topology: &Topology,
    timing: LinkTiming,
    stragglers: usize,
    witnesses: usize,
    wave: usize,
    slow_prefix: usize,
    seed: u64,
) -> Result<TimingSchedule, TimingError> {
    if stragglers + witnesses + wave == 0 {
        return Err(TimingError::EmptySchedule);
    }
    let h = topology.depth();
    assert!(slow_prefix <= h, "slow prefix cannot exceed the depth");
    let mut rng = StdRng::seed_from_u64(seed);
    let v = topology.input_width();
    let mut s = TimingSchedule::new(h);
    let mut last_witness_exit: Time = 0;
    for i in 0..stragglers {
        let entry = rng.gen_range(0..=2);
        s.push_delays((i * 7) % v, entry, &vec![timing.c2(); h])?;
    }
    let witness_delays: Vec<Time> = (0..h)
        .map(|link| {
            if link < slow_prefix {
                timing.c2()
            } else {
                timing.c1()
            }
        })
        .collect();
    for i in 0..witnesses {
        let entry = rng.gen_range(0..=((h - slow_prefix) as Time));
        s.push_delays((i * 3 + 1) % v, entry, &witness_delays)?;
        let exit: Time = entry + witness_delays.iter().sum::<Time>();
        last_witness_exit = last_witness_exit.max(exit);
    }
    let wave_entry = last_witness_exit + 1;
    for i in 0..wave {
        s.push_delays(i % v, wave_entry, &vec![timing.c1(); h])?;
    }
    Ok(s)
}

/// Waves of simultaneous tokens: `waves` groups of `wave_size` tokens
/// enter together, consecutive waves separated by `gap`. Delays are
/// uniform in `[c1, c2]`.
///
/// # Errors
///
/// Returns [`TimingError::EmptySchedule`] if `waves * wave_size == 0`.
pub fn burst_schedule(
    topology: &Topology,
    timing: LinkTiming,
    waves: usize,
    wave_size: usize,
    gap: Time,
    seed: u64,
) -> Result<TimingSchedule, TimingError> {
    if waves * wave_size == 0 {
        return Err(TimingError::EmptySchedule);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let h = topology.depth();
    let mut s = TimingSchedule::new(h);
    for wave in 0..waves {
        let entry = wave as Time * gap;
        for i in 0..wave_size {
            let input = (i + wave) % topology.input_width();
            let delays: Vec<Time> = (0..h)
                .map(|_| rng.gen_range(timing.c1()..=timing.c2()))
                .collect();
            s.push_delays(input, entry, &delays)?;
        }
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::TimedExecutor;
    use cnet_topology::constructions;
    use proptest::prelude::*;

    #[test]
    fn uniform_schedule_is_admissible_and_reproducible() {
        let net = constructions::bitonic(8).unwrap();
        let timing = LinkTiming::new(4, 11).unwrap();
        let a = uniform_schedule(&net, timing, 50, 6, 99).unwrap();
        let b = uniform_schedule(&net, timing, 50, 6, 99).unwrap();
        assert_eq!(a, b, "same seed, same schedule");
        a.validate(&net, Some(timing)).unwrap();
        let c = uniform_schedule(&net, timing, 50, 6, 100).unwrap();
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn entry_order_matches_token_ids() {
        let net = constructions::bitonic(4).unwrap();
        let timing = LinkTiming::new(2, 5).unwrap();
        let s = uniform_schedule(&net, timing, 30, 9, 7).unwrap();
        for w in s.tokens().windows(2) {
            assert!(w[0].entry() <= w[1].entry());
        }
    }

    #[test]
    fn burst_schedule_shapes_waves() {
        let net = constructions::bitonic(4).unwrap();
        let timing = LinkTiming::new(3, 6).unwrap();
        let s = burst_schedule(&net, timing, 3, 4, 100, 5).unwrap();
        assert_eq!(s.len(), 12);
        for (k, t) in s.tokens().iter().enumerate() {
            assert_eq!(t.entry(), (k / 4) as u64 * 100);
        }
    }

    #[test]
    fn zero_tokens_rejected() {
        let net = constructions::single_balancer();
        let timing = LinkTiming::new(1, 2).unwrap();
        assert!(matches!(
            uniform_schedule(&net, timing, 0, 1, 0),
            Err(TimingError::EmptySchedule)
        ));
        assert!(matches!(
            burst_schedule(&net, timing, 0, 5, 1, 0),
            Err(TimingError::EmptySchedule)
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Corollary 3.9: with c2 <= 2 c1, *every* admissible schedule
        /// over a uniform counting network is linearizable. This is the
        /// crate's central property test.
        #[test]
        fn corollary_3_9_bitonic(
            c1 in 1u64..20,
            tokens in 1usize..120,
            max_gap in 0u64..12,
            seed in 0u64..1000,
        ) {
            let timing = LinkTiming::new(c1, 2 * c1).unwrap();
            let net = constructions::bitonic(8).unwrap();
            let s = uniform_schedule(&net, timing, tokens, max_gap, seed).unwrap();
            let exec = TimedExecutor::new(&net).run(&s).unwrap();
            prop_assert_eq!(exec.nonlinearizable_count(), 0);
        }

        /// Corollary 3.11: the same for counting (diffracting) trees.
        #[test]
        fn corollary_3_9_tree(
            c1 in 1u64..20,
            tokens in 1usize..120,
            max_gap in 0u64..12,
            seed in 0u64..1000,
        ) {
            let timing = LinkTiming::new(c1, 2 * c1).unwrap();
            let net = constructions::counting_tree(16).unwrap();
            let s = uniform_schedule(&net, timing, tokens, max_gap, seed).unwrap();
            let exec = TimedExecutor::new(&net).run(&s).unwrap();
            prop_assert_eq!(exec.nonlinearizable_count(), 0);
        }

        /// Lemma 3.7: whatever the ratio, tokens whose *starts* are
        /// separated by more than 2 h (c2 - c1) return ordered values.
        #[test]
        fn lemma_3_7_start_start(
            c1 in 1u64..10,
            c2_extra in 0u64..40,
            seed in 0u64..500,
        ) {
            let timing = LinkTiming::new(c1, c1 + c2_extra).unwrap();
            let net = constructions::bitonic(4).unwrap();
            let s = uniform_schedule(&net, timing, 60, 3, seed).unwrap();
            let exec = TimedExecutor::new(&net).run(&s).unwrap();
            let sep = crate::measure::start_start_separation(net.depth(), timing);
            let ops = exec.operations();
            for a in ops {
                for b in ops {
                    if b.start > a.start && b.start - a.start > sep {
                        prop_assert!(b.value > a.value,
                            "token {} (start {}) vs {} (start {})",
                            a.token, a.start, b.token, b.start);
                    }
                }
            }
        }
    }
}
