//! The paper's statements as executable properties over its Section 2
//! model: timing schedules replayed by `TimedExecutor`, graded by
//! Definition 2.4.
//!
//! The closed loop of an engine `Workload` becomes one schedule
//! (`cnet_engine::closed_loop_schedule`): processor `p` on input
//! `p mod w`, each entry at its previous exit, each hop
//! `200 + U[0, 200]` cycles plus `W` on a delayed processor — the
//! per-processor reading of `F`.
//!
//! Seeds are the schedules' inputs. A case runs seeds from `base`,
//! `base` = `CNET_TEST_SEED` or 0, and a failure prints
//! `reproduce with CNET_TEST_SEED=<base>`.

use cnet_concurrent::testcfg;
use cnet_engine::{closed_loop_schedule, Workload};
use cnet_timing::adversary::{search_violations, tree_attack, tree_attack_with_gap, SearchConfig};
use cnet_timing::executor::TimedExecutor;
use cnet_timing::schedule::TokenSchedule;
use cnet_timing::{measure, random, LinkTiming, TimingSchedule};
use cnet_topology::{constructions, Topology};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Seeds per cell; a cell's share is their mean.
const SEEDS: u64 = 3;

/// Operations per run.
const OPS: usize = 5_000;

fn base_seed() -> u64 {
    std::env::var("CNET_TEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The mean Definition 2.4 share over seeds `base..base + SEEDS` of the
/// model's closed loop with `n` processors, `F` = `delayed` %, `W` =
/// `wait`.
fn model_share(net: &Topology, n: usize, delayed: u32, wait: u64, base: u64) -> f64 {
    let workload = Workload {
        total_ops: OPS,
        ..Workload::paper(n, delayed, wait)
    }
    .check()
    .expect("a well-formed closed loop");
    let executor = TimedExecutor::new(net);
    let total: f64 = (base..base + SEEDS)
        .map(|seed| {
            let schedule = closed_loop_schedule(&workload, net, seed).expect("a closed loop");
            let execution = executor
                .run(&schedule)
                .expect("the schedule fits the network");
            execution.nonlinearizable_ratio()
        })
        .sum();
    total / SEEDS as f64
}

/// With a fixed half of the processors delayed for the whole run, the
/// share falls as processors per input wire grow. ROADMAP item 21's
/// probe read 13.28 % at n = w and 0.03 % at n = 8w on bitonic(32);
/// this cell reads 14.17 % and 0.46 % over seeds 0–2.
#[test]
fn the_model_share_falls_from_n_equals_w_to_eight_w() {
    let net = constructions::bitonic(8).expect("valid width");
    let w = net.input_width();
    testcfg::with_seed_report(base_seed(), |base| {
        let few = model_share(&net, w, 50, 10_000, base);
        let many = model_share(&net, 8 * w, 50, 10_000, base);
        assert!(
            many < few,
            "bitonic(8), F = 50 %, W = 10^4: the share at n = 8w ({many}) is not below n = w ({few})"
        );
    });
}

/// Drawn cases per network family.
const CASES: u64 = 160;

/// One drawn case: its description, network, link timing and schedule.
type Case = (String, Topology, LinkTiming, TimingSchedule);

/// Draws case `seed` for Theorem 3.6, described by its first value:
/// width `w ∈ {2, 4, 8, 16}`, `network(w, rng)` padded by 1–4
/// one-in/one-out balancers on half the cases, `c1 ≤ c2 ≤ 2·c1` with
/// `c2 = 2·c1` on a quarter of them, and a uniform or burst schedule
/// from `timing::random`.
fn draw(seed: u64, network: impl Fn(usize, &mut StdRng) -> (String, Topology)) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let (name, net, _) = draw_network(&mut rng, network);
    let c1 = rng.gen_range(1..=20);
    let c2 = if rng.gen_bool(0.25) {
        2 * c1
    } else {
        rng.gen_range(c1..=2 * c1)
    };
    let timing = LinkTiming::new(c1, c2).expect("c1 <= c2");
    let (what, schedule) = draw_schedule(&mut rng, &net, timing, None);
    (
        format!("{name}, c1 {c1}, c2 {c2}, {what}"),
        net,
        timing,
        schedule,
    )
}

/// Draws case `seed` for Lemma 3.7 as [`draw`] does, but with
/// `c1 < c2 ≤ 6·c1` and, on half the cases, a straggler/witness/wave
/// schedule (`random::straggler_burst_schedule`) that crawls over the
/// padding.
fn draw_wide(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let (name, net, pad) = draw_network(&mut rng, counting_network);
    let c1 = rng.gen_range(1..=20);
    let c2 = if rng.gen_bool(0.25) {
        6 * c1
    } else {
        rng.gen_range(c1 + 1..=6 * c1)
    };
    let timing = LinkTiming::new(c1, c2).expect("c1 <= c2");
    let (what, schedule) = draw_schedule(&mut rng, &net, timing, Some(pad));
    (
        format!("{name}, c1 {c1}, c2 {c2}, {what}"),
        net,
        timing,
        schedule,
    )
}

/// A width `w ∈ {2, 4, 8, 16}` network from `network`, padded by 1–4
/// one-in/one-out balancers on half the draws; the padding comes back
/// beside it (0 when unpadded).
fn draw_network(
    rng: &mut StdRng,
    network: impl Fn(usize, &mut StdRng) -> (String, Topology),
) -> (String, Topology, usize) {
    let w = 1 << rng.gen_range(1..=4);
    let (name, net) = network(w, rng);
    if rng.gen_bool(0.5) {
        let pad = rng.gen_range(1..=4);
        let padded = constructions::pad_inputs(&net, pad).expect("a valid network pads");
        (format!("pad_inputs({name}, {pad})"), padded, pad)
    } else {
        (name, net, 0)
    }
}

/// A uniform or burst schedule from `timing::random`, or, when a
/// straggler's `slow_prefix` is given, a straggler/witness/wave one on
/// half the draws.
fn draw_schedule(
    rng: &mut StdRng,
    net: &Topology,
    timing: LinkTiming,
    slow_prefix: Option<usize>,
) -> (String, TimingSchedule) {
    let (c1, c2) = (timing.c1(), timing.c2());
    let (w, h) = (net.input_width(), net.depth() as u64);
    let schedule_seed = rng.next_u64();
    let (what, schedule) = match slow_prefix {
        Some(slow_prefix) if rng.gen_bool(0.5) => {
            let (stragglers, witnesses, wave) = (
                rng.gen_range(1..=4),
                rng.gen_range(1..=2 * w),
                rng.gen_range(1..=4 * w),
            );
            (
                format!(
                    "straggler_burst_schedule(stragglers {stragglers}, witnesses {witnesses}, \
                     wave {wave}, slow_prefix {slow_prefix}, seed {schedule_seed})"
                ),
                random::straggler_burst_schedule(
                    net,
                    timing,
                    stragglers,
                    witnesses,
                    wave,
                    slow_prefix,
                    schedule_seed,
                ),
            )
        }
        _ if rng.gen_bool(0.5) => {
            let (tokens, max_gap) = (rng.gen_range(1..=120), rng.gen_range(0..=3 * c1));
            (
                format!(
                    "uniform_schedule(tokens {tokens}, max_gap {max_gap}, seed {schedule_seed})"
                ),
                random::uniform_schedule(net, timing, tokens, max_gap, schedule_seed),
            )
        }
        _ => {
            let (waves, size, gap) = (
                rng.gen_range(1..=6),
                rng.gen_range(1..=2 * w),
                rng.gen_range(0..=h * c2),
            );
            (
                format!(
                    "burst_schedule(waves {waves}, size {size}, gap {gap}, seed {schedule_seed})"
                ),
                random::burst_schedule(net, timing, waves, size, gap, schedule_seed),
            )
        }
    };
    (what, schedule.expect("a nonempty schedule"))
}

/// A bitonic, periodic or counting-tree network of width `w`.
fn counting_network(w: usize, rng: &mut StdRng) -> (String, Topology) {
    let (name, net) = match rng.gen_range(0..3) {
        0 => ("bitonic", constructions::bitonic(w)),
        1 => ("periodic", constructions::periodic(w)),
        _ => ("counting_tree", constructions::counting_tree(w)),
    };
    (format!("{name}({w})"), net.expect("a power-of-two width"))
}

/// Theorem 3.6 through Corollaries 3.9–3.11: on a uniform counting
/// network, an execution whose every link delay lies in `[c1, c2]` with
/// `c2 ≤ 2·c1` has no Definition 2.4 violation.
///
/// The bound is inclusive. At `c2 = 2·c1` a later token can enter at
/// the very cycle an earlier one exits, and Definition 2.4 orders a
/// pair only on a strict `end < start` (`Operation::precedes`). So a
/// pair that shares that cycle is concurrent, and neither order of its
/// values is a violation.
///
/// The same draw over `topology::random::random_layered` networks,
/// which balance but almost never count, must find a network that
/// fails to count or to linearize, so the property says something.
#[test]
fn theorem_3_6_no_violation_at_ratio_two_on_random_uniform_networks() {
    testcfg::with_seed_report(base_seed(), |base| {
        for seed in base..base + CASES {
            let (case, net, _, schedule) = draw(seed, counting_network);
            let execution = TimedExecutor::new(&net)
                .run(&schedule)
                .expect("the schedule fits its network");
            assert_eq!(
                execution.nonlinearizable_count(),
                0,
                "case {seed}: {case}: {:?}",
                execution.violations()
            );
            assert!(execution.output_counts().is_step(), "case {seed}: {case}");
        }

        let random_layered = |w: usize, rng: &mut StdRng| {
            let log = w.trailing_zeros() as usize;
            let depth = rng.gen_range(1..=log * (log + 1) / 2);
            let seed = rng.next_u64();
            let net = cnet_topology::random::random_layered(w, depth, seed).expect("an even width");
            (format!("random_layered({w}, {depth}, {seed})"), net)
        };
        let failing = (base..base + CASES)
            .filter(|&seed| {
                let (_, net, _, schedule) = draw(seed, random_layered);
                let execution = TimedExecutor::new(&net)
                    .run(&schedule)
                    .expect("the schedule fits its network");
                !execution.output_counts().is_step() || !execution.is_linearizable()
            })
            .count();
        assert!(
            failing > 0,
            "no random layered network of {CASES} failed to count or to linearize"
        );
    });
}

/// Theorem 3.6 and Lemma 3.7 on every violating pair: when `T1`
/// completely precedes `T2` and returns the larger value, `T2` started
/// within `h·c2 - 2·h·c1` of `T1`'s finish and within `2·h·(c2 - c1)`
/// of its start. Neither bound may be crossed at any ratio.
///
/// The cases are [`draw_wide`]'s, `c2` up to `6·c1`, and the Theorem
/// 4.1 attack (`adversary::tree_attack_with_gap`) on counting trees of
/// width 4–16 with `2·c1 < c2 ≤ 6·c1` and a drawn gap below the
/// bound. Uniform and burst draws meet no violation below `6·c1`, so
/// the adversaries make the pairs, and the case fails if it meets
/// none: over seeds 0–159 it meets 176, 16 of them in 11 straggler
/// draws and the rest in the attacks.
#[test]
fn theorem_3_6_and_lemma_3_7_hold_on_every_violating_pair() {
    testcfg::with_seed_report(base_seed(), |base| {
        let mut pairs = 0;
        for seed in base..base + CASES {
            let mut cases = vec![draw_wide(seed)];
            let mut rng = StdRng::seed_from_u64(seed ^ 0x4_1);
            let w: usize = 1 << rng.gen_range(2..=4);
            let c1 = rng.gen_range(1..=20);
            let h = u64::from(w.trailing_zeros());
            // the smallest c2 whose slack h·(c2 - 2·c1) is at least 2
            let c2 = rng.gen_range(2 * c1 + 2_u64.div_ceil(h)..=6 * c1);
            let timing = LinkTiming::new(c1, c2).expect("c1 <= c2");
            let gap = rng.gen_range(1..h * (c2 - 2 * c1));
            let attack = tree_attack_with_gap(w, timing, gap).expect("slack >= 2, gap below it");
            let case = format!("tree_attack_with_gap({w}, c1 {c1}, c2 {c2}, gap {gap})");
            cases.push((case, attack.topology, timing, attack.schedule));

            for (case, net, timing, schedule) in cases {
                let execution = TimedExecutor::new(&net)
                    .run(&schedule)
                    .expect("the schedule fits its network");
                let h = net.depth();
                for (earlier, later) in execution.violations() {
                    assert!(
                        !measure::ordered_by_finish_start(h, timing, earlier.end, later.start),
                        "case {seed}: {case}: Theorem 3.6 orders {earlier:?} before {later:?}"
                    );
                    assert!(
                        !measure::ordered_by_start_start(h, timing, earlier.start, later.start),
                        "case {seed}: {case}: Lemma 3.7 orders {earlier:?} before {later:?}"
                    );
                    pairs += 1;
                }
            }
        }
        assert!(pairs > 0, "no case of {CASES} met a violating pair");
    });
}

/// Corollary 3.12: prefixing every input of a depth-`h` uniform
/// counting network with `h·(k - 2)` one-in/one-out balancers
/// (`constructions::linearizing_prefix`) makes it linearizable for
/// every `c2 < k·c1`.
///
/// Each case draws a bitonic, periodic or counting-tree network of
/// width `w ∈ {2, 4, 8}`, `k ∈ 2..=5` and `c1 ≤ c2 < k·c1`, with
/// `c2 = k·c1 - 1` on a quarter of them. The bound is the corollary's
/// strict one; a pair that shares the cycle one exits and the other
/// enters is concurrent, as in Theorem 3.6's tie rule. Two schedules
/// drawn as uniform, burst or straggler ones (the stragglers crawl
/// over the whole prefix) on the padded network, and on `w ≤ 4` the
/// first [`SEARCH_BUDGET`] assignments of
/// `adversary::search_violations`' extremal box, must meet no
/// Definition 2.4 violation.
///
/// The cases with `c2 > 2·c1` on a counting tree also run the Theorem
/// 4.1 attack (`adversary::tree_attack`) on the unpadded tree, which
/// must violate in at least one case; its tokens, each delayed by the
/// prefix at `c1` a link, meet none on the padded tree. Over seeds
/// 0–159 the attack builds, and violates, in 33 cases.
#[test]
fn corollary_3_12_the_linearizing_prefix_is_clean_below_k() {
    testcfg::with_seed_report(base_seed(), |base| {
        let mut attacked = 0;
        for seed in base..base + CASES {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x3_12);
            let w = 1 << rng.gen_range(1..=3);
            let (name, inner) = counting_network(w, &mut rng);
            let k = rng.gen_range(2..=5_u64);
            let net = constructions::linearizing_prefix(&inner, k as usize)
                .expect("a valid network pads");
            let pad = net.depth() - inner.depth();
            let c1 = rng.gen_range(1..=20);
            let c2 = if rng.gen_bool(0.25) {
                k * c1 - 1
            } else {
                rng.gen_range(c1..k * c1)
            };
            let timing = LinkTiming::new(c1, c2).expect("c1 <= c2");
            let case = format!("linearizing_prefix({name}, {k}), c1 {c1}, c2 {c2}");

            let mut schedules = Vec::new();
            for _ in 0..2 {
                schedules.push(draw_schedule(&mut rng, &net, timing, Some(pad)));
            }
            if w <= 4 {
                let mut config = SearchConfig::for_network(&net, timing, w + 1);
                config.budget = SEARCH_BUDGET;
                let search = search_violations(&net, timing, &config).expect("tokens > 0");
                assert!(
                    !search.found(),
                    "case {seed}: {case}: {} of {} searched assignments violate, first {:?}",
                    search.violating,
                    search.assignments,
                    search.witness
                );
            }
            if name.starts_with("counting_tree") && c2 > 2 * c1 {
                if let Ok(attack) = tree_attack(w, timing) {
                    let execution = attack.execute().expect("a validated scenario");
                    assert!(execution.nonlinearizable_count() > 0, "case {seed}: {case}");
                    attacked += 1;
                    schedules.push((
                        format!("tree_attack({w}) behind the prefix"),
                        behind_prefix(&attack.schedule, pad, c1),
                    ));
                }
            }
            for (what, schedule) in schedules {
                let execution = TimedExecutor::new(&net)
                    .run(&schedule)
                    .expect("the schedule fits its network");
                assert_eq!(
                    execution.nonlinearizable_count(),
                    0,
                    "case {seed}: {case}, {what}: {:?}",
                    execution.violations()
                );
            }
        }
        assert!(attacked > 0, "no case of {CASES} attacked an unpadded tree");
    });
}

/// Assignments of the extremal box searched per case.
const SEARCH_BUDGET: u64 = 512;

/// `schedule` on a network `pad` layers deeper: each token enters when
/// it did and crosses the `pad` extra links at `c1` a link.
fn behind_prefix(schedule: &TimingSchedule, pad: usize, c1: u64) -> TimingSchedule {
    let mut padded = TimingSchedule::new(schedule.depth() + pad);
    for token in schedule.tokens() {
        let entry = token.entry();
        let prefix = (0..pad as u64).map(|i| entry + i * c1);
        let shift = pad as u64 * c1;
        let times = prefix.chain(token.times.iter().map(|t| t + shift));
        padded
            .push(TokenSchedule {
                input: token.input,
                times: times.collect(),
            })
            .expect("a shifted row stays increasing");
    }
    padded
}
