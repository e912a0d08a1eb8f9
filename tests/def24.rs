//! Definition 2.4 is computed in one place,
//! `timing::linearizability`: a whole trace is scanned against a
//! tick-indexed or a sorted table, a feed in time order reads each
//! operation's witness from the start witness when it starts, a set of
//! sequential lanes is merged under one running maximum. This suite
//! holds every form — dense batch, sparse batch, the start-witness
//! sweep with ends before starts at one instant and with starts before
//! ends, the service's evaluator fed one record per bracket, the native
//! run's lane sweep — to the quadratic reference, verdict by verdict,
//! and the count to the permutation-search oracle. The simulator feeds
//! the start witness as it runs; its streamed count is held to the same
//! reference.

use cnet_obs::{SloEvaluator, SloPolicy};
use counting_networks::engine::{ArrivalProcess, WaitMode, Workload};
use counting_networks::proteus::{Fabric, SimConfig, Simulator};
use counting_networks::timing::linearizability::{
    check_exhaustive, count_nonlinearizable, count_nonlinearizable_naive, is_dense_timeline,
    lane_magnitudes, magnitudes, worst_witness, LaneOrderError, StartWitness,
};
use counting_networks::timing::Operation;
use counting_networks::topology::{constructions, Topology};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn op(token: usize, start: u64, end: u64, value: u64) -> Operation {
    Operation {
        token,
        input: 0,
        start,
        end,
        counter: 0,
        value,
    }
}

/// Every operation's magnitude by the letter of Definition 2.4: how
/// far its worst witness lies above it.
fn reference(ops: &[Operation]) -> Vec<u64> {
    ops.iter()
        .map(|o| worst_witness(ops, o).map_or(0, |w| w.value - o.value))
        .collect()
}

/// `ops` with every instant sent through a strictly increasing
/// `relabel`: no verdict moves, only how dense the timeline is.
fn relabelled(ops: &[Operation], relabel: impl Fn(u64) -> u64) -> Vec<Operation> {
    ops.iter()
        .map(|o| Operation {
            start: relabel(o.start),
            end: relabel(o.end),
            ..*o
        })
        .collect()
}

/// Every operation's witness, by operation index, from one sweep of
/// the trace's instants in time order through a [`StartWitness`]: at
/// one instant, the ends before the starts (`ends_first`) or after.
fn witnesses(ops: &[Operation], ends_first: bool) -> Vec<u64> {
    // (instant, rank within it, is a start, operation)
    let mut instants: Vec<(u64, bool, bool, usize)> = ops
        .iter()
        .enumerate()
        .flat_map(|(i, o)| {
            [
                (o.start, ends_first, true, i),
                (o.end, !ends_first, false, i),
            ]
        })
        .collect();
    instants.sort_unstable();
    let mut finished = StartWitness::default();
    let mut out = vec![0; ops.len()];
    for (tick, _, is_start, i) in instants {
        if is_start {
            out[i] = finished.witness(tick);
        } else {
            finished.record(tick, ops[i].value);
        }
    }
    out
}

/// The property: every form of the table returns the reference's
/// magnitudes for `ops`.
fn assert_one_verdict(ops: &[Operation], what: &str) {
    let expected = reference(ops);
    let count = expected.iter().filter(|&&m| m > 0).count();
    assert_eq!(count_nonlinearizable_naive(ops), count, "{what}");

    // batch: as drawn, ranked (tick-indexed table), stretched (sorted)
    let mut instants: Vec<u64> = ops.iter().flat_map(|o| [o.start, o.end]).collect();
    instants.sort_unstable();
    instants.dedup();
    let dense = relabelled(ops, |t| instants.binary_search(&t).unwrap() as u64);
    let sparse = relabelled(ops, |t| (t + 1) << 20);
    assert!(is_dense_timeline(&dense), "{what}");
    assert!(ops.is_empty() || !is_dense_timeline(&sparse), "{what}");
    for (layout, trace) in [("drawn", ops), ("dense", &dense), ("sparse", &sparse)] {
        let got: Vec<u64> = magnitudes(trace).collect();
        assert_eq!(got, expected, "{what}: {layout} batch");
        assert_eq!(count_nonlinearizable(trace), count, "{what}: {layout}");
    }

    // time order, ties either way: what the simulator and the service feed
    for ends_first in [true, false] {
        let got: Vec<u64> = ops
            .iter()
            .zip(witnesses(ops, ends_first))
            .map(|(o, witness)| witness.saturating_sub(o.value))
            .collect();
        assert_eq!(
            got, expected,
            "{what}: start witness, ends_first={ends_first}"
        );
    }
}

#[test]
fn hand_checked_traces_get_one_verdict() {
    // the introduction's example: value 1 finishes, then value 0 starts
    let intro = [op(1, 1, 3, 1), op(2, 4, 6, 0), op(0, 0, 8, 2)];
    assert_eq!(reference(&intro), [0, 1, 0]);
    assert_one_verdict(&intro, "intro");

    // tangled, with an operation that outlasts three others:
    // op2 sees 3 finished (3-0), op3 and op5 see 9 (9-1, 9-4)
    let tangled = [
        op(0, 0, 5, 3),
        op(1, 2, 7, 9),
        op(2, 6, 9, 0),
        op(3, 8, 12, 1),
        op(4, 1, 14, 20),
        op(5, 13, 16, 4),
    ];
    assert_eq!(reference(&tangled), [0, 0, 3, 8, 0, 5]);
    assert_one_verdict(&tangled, "tangled");

    // one bad operation, many witnesses: graded against the worst
    let witnesses = [op(0, 0, 1, 9), op(1, 0, 2, 8), op(2, 5, 6, 3)];
    assert_eq!(reference(&witnesses), [0, 0, 6]);
    assert_one_verdict(&witnesses, "witnesses");

    // end == start is overlap under the strict definition
    assert_one_verdict(&[op(0, 0, 5, 9), op(1, 5, 8, 0)], "touching");
    assert_one_verdict(&[], "empty");
}

#[test]
fn seeded_random_traces_get_one_verdict() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for round in 0..300 {
        let n = rng.gen_range(0..48usize);
        // narrow ranges on purpose: starts, ends and values tie, and
        // zero-length operations occur
        let span = rng.gen_range(1..=60u64);
        let max_len = rng.gen_range(1..=25u64);
        let values = rng.gen_range(1..=40u64);
        let ops: Vec<Operation> = (0..n)
            .map(|i| {
                let start = rng.gen_range(0..span);
                let v = rng.gen_range(0..values);
                let value = if v == 13 { u64::MAX } else { v };
                op(i, start, start + rng.gen_range(0..max_len), value)
            })
            .collect();
        assert_one_verdict(&ops, &format!("round {round}"));
    }
}

/// What `cnet serve` feeds: one `record_batch` per clock bracket, `k`
/// operations on `base..base + k` judged by the bracket's witness. Its
/// totals are the batch sweep's over the same operations written out.
#[test]
fn brackets_fed_as_runs_get_the_verdict_of_their_operations() {
    let mut rng = StdRng::seed_from_u64(0xB47C);
    let mut violating_rounds = 0;
    for round in 0..200 {
        let mut evaluator = SloEvaluator::new(SloPolicy::unbounded(), rng.gen_range(1..=50));
        let mut ops: Vec<Operation> = Vec::new();
        let mut brackets: Vec<(usize, u64, u64)> = Vec::new(); // (token, base, k)
        let (mut end, mut hi) = (0u64, 0u64);
        for _ in 0..rng.gen_range(1..=40) {
            // end-ordered, overlapping; bases around the largest value
            // out so far, so witnesses cut runs short, whole or not at all
            end += rng.gen_range(1..=3u64);
            let start = end.saturating_sub(rng.gen_range(0..=9));
            let k = rng.gen_range(1..=30u64);
            let base = rng.gen_range(hi.saturating_sub(k + 3)..=hi + 3);
            hi = hi.max(base + k - 1);
            let token = ops.len();
            brackets.push((token, base, k));
            ops.extend((0..k).map(|j| op(token + j as usize, start, end, base + j)));
        }
        let witness = witnesses(&ops, true);
        let each: Vec<u64> = magnitudes(&ops).collect();
        for &(token, base, k) in &brackets {
            let worst = evaluator.record_batch(base, k, 0, witness[token], 0);
            assert_eq!(worst, each[token], "round {round}: first sibling");
        }
        let expected: Vec<u64> = each.into_iter().filter(|&m| m > 0).collect();
        assert_eq!(expected.len(), count_nonlinearizable_naive(&ops));
        let total = evaluator.snapshot(0).total;
        assert_eq!(total.ops, ops.len() as u64, "round {round}");
        assert_eq!(total.violations, expected.len() as u64, "round {round}");
        assert_eq!(
            total.magnitude_total,
            expected.iter().sum::<u64>(),
            "round {round}"
        );
        assert_eq!(
            total.magnitude_max,
            expected.iter().copied().max().unwrap_or(0),
            "round {round}"
        );
        violating_rounds += usize::from(!expected.is_empty());
    }
    assert!(violating_rounds > 100, "{violating_rounds} rounds violated");
}

/// One simulated cell, graded: whether it violated, how many times an
/// operation started on the cycle another ended, and how many of those
/// ties were decisive — the one that ended returned more, so only the
/// strict `end < start` of Definition 2.4 spares the other.
fn streamed_cell(net: &Topology, config: SimConfig, wl: &Workload) -> (bool, usize, usize) {
    let what = format!("{config:?} {wl:?}");
    let stats = Simulator::new(net, config).run(wl);
    let ops = &stats.operations;
    assert_eq!(ops.len(), wl.total_ops, "{what}");
    assert_eq!(
        stats.nonlinearizable_count(),
        count_nonlinearizable_naive(ops),
        "{what}"
    );
    let (mut ties, mut decisive) = (0, 0);
    for a in ops {
        for b in ops.iter().filter(|b| b.start == a.end) {
            ties += 1;
            decisive += usize::from(a.value > b.value);
        }
    }
    (stats.nonlinearizable_count() > 0, ties, decisive)
}

/// The count the simulator streamed while it ran — each operation
/// graded at its completion against the witness it recorded when it
/// started — is the one every other form returns: first on one cell of
/// the violating regime the paper measures, verdict by verdict, then by
/// count on 240 seeded random cells and two pinned ones. A quarter of
/// the random cells and both pinned ones have no link jitter, so ends
/// and starts land on the same cycle; the pinned ones have decisive
/// ties, one of them in a cell that does not violate at all.
#[test]
fn a_simulator_trace_gets_the_verdict_the_run_streamed() {
    let net = constructions::counting_tree(16).unwrap();
    let wl = Workload {
        total_ops: 1_500,
        wait_mode: WaitMode::Fixed,
        ..Workload::paper(32, 50, 10_000)
    };
    let stats = Simulator::new(&net, SimConfig::diffracting(21)).run(&wl);
    assert!(
        stats.nonlinearizable_count() > 0,
        "this cell should violate"
    );
    assert_eq!(
        stats.nonlinearizable_count(),
        count_nonlinearizable_naive(&stats.operations)
    );
    assert!(!is_dense_timeline(&stats.operations));
    assert_one_verdict(&stats.operations, "counting_tree(16), W = 10000");

    let without_jitter = |config: SimConfig| SimConfig {
        fabric: Fabric::degenerate(config.fabric.link.delay, 0),
        ..config
    };
    let mut rng = StdRng::seed_from_u64(0x5173);
    let (mut violating, mut ties) = (0, 0);
    for cell in 0..240 {
        let width = [4, 8, 16, 32][rng.gen_range(0..4)];
        let tree = rng.gen_bool(0.5);
        let net = if tree {
            constructions::counting_tree(width).unwrap()
        } else {
            constructions::bitonic(width).unwrap()
        };
        let seed = rng.gen_range(0..1u64 << 40);
        let mut config = if tree && rng.gen_bool(0.7) {
            SimConfig::diffracting(seed)
        } else {
            SimConfig::queue_lock(seed)
        };
        if cell % 4 == 0 {
            config = without_jitter(config);
        }
        let wl = Workload {
            total_ops: rng.gen_range(40..=250),
            wait_mode: if rng.gen_bool(0.75) {
                WaitMode::Fixed
            } else {
                WaitMode::UniformRandom
            },
            arrival: match rng.gen_range(0..4) {
                0 => ArrivalProcess::Open {
                    mean_gap: rng.gen_range(0..400),
                },
                1 => ArrivalProcess::Bursty {
                    burst: rng.gen_range(1..=16),
                    gap: rng.gen_range(0..20_000),
                },
                _ => ArrivalProcess::Closed,
            },
            ..Workload::paper(
                rng.gen_range(1..=64),
                rng.gen_range(0..=100),
                [0, 100, 1_000, 10_000, 100_000][rng.gen_range(0..5)],
            )
        };
        let (violated, cell_ties, _) = streamed_cell(&net, config, &wl);
        violating += usize::from(violated);
        ties += cell_ties;
    }
    assert!(violating >= 20, "{violating} of 240 cells violated");
    assert!(ties > 0, "no end/start tie in 240 cells");

    // found by search over jitter-free paper-style cells of 1 000 ops
    let wl = |f, w| Workload {
        total_ops: 1_000,
        ..Workload::paper(64, f, w)
    };
    let bitonic = constructions::bitonic(16).unwrap();
    let config = without_jitter(SimConfig::queue_lock(1_448));
    assert_eq!(
        streamed_cell(&bitonic, config, &wl(50, 1_000)),
        (false, 257, 1)
    );
    let tree = constructions::counting_tree(16).unwrap();
    let config = without_jitter(SimConfig::diffracting(10_448));
    let (violated, _, decisive) = streamed_cell(&tree, config, &wl(25, 10_000));
    assert!(violated && decisive == 5, "{decisive} decisive ties");
}

/// On traces a correct counter can produce — values a permutation of
/// `0..n` — nothing is non-linearizable exactly when the brute-force
/// search finds a counting order.
#[test]
fn zero_count_iff_the_oracle_finds_a_linearization() {
    let mut rng = StdRng::seed_from_u64(0x0AC1E);
    let (mut clean, mut violating) = (0, 0);
    for round in 0..2_000 {
        let n = rng.gen_range(0..=16usize);
        let mut values: Vec<u64> = (0..n as u64).collect();
        values.shuffle(&mut rng);
        // a wide span for the short lengths, so that many traces are
        // nearly sequential and a fair share comes out clean
        let ops: Vec<Operation> = values
            .iter()
            .enumerate()
            .map(|(i, &value)| {
                let start = if round % 2 == 0 {
                    rng.gen_range(0..40)
                } else {
                    value * 3 + rng.gen_range(0..6)
                };
                op(i, start, start + rng.gen_range(1..=8), value)
            })
            .collect();
        let count = count_nonlinearizable(&ops);
        assert_eq!(
            check_exhaustive(&ops).is_some(),
            count == 0,
            "round {round}: {ops:?}"
        );
        if count == 0 {
            clean += 1;
        } else {
            violating += 1;
        }
    }
    assert!(clean > 100 && violating > 100, "{clean} / {violating}");
}

/// `n` operations dealt to `lanes` sequential clients, their `2n`
/// instants a random interleaving of the ticks `0..2n` — what the
/// native driver's shared clock hands out. Values are the start order,
/// which is a linearization; the caller perturbs them.
fn random_lanes(rng: &mut StdRng, lanes: usize, n: usize) -> Vec<Vec<Operation>> {
    let mut quota = vec![0usize; lanes];
    for _ in 0..n {
        quota[rng.gen_range(0..lanes)] += 1;
    }
    let mut out: Vec<Vec<Operation>> = vec![Vec::new(); lanes];
    let mut open = vec![false; lanes];
    let mut started = 0;
    for tick in 0..2 * n as u64 {
        let live: Vec<usize> = (0..lanes)
            .filter(|&l| open[l] || out[l].len() < quota[l])
            .collect();
        let lane = live[rng.gen_range(0..live.len())];
        if open[lane] {
            out[lane].last_mut().expect("an operation is in flight").end = tick;
        } else {
            out[lane].push(op(0, tick, u64::MAX, started));
            started += 1;
        }
        open[lane] = !open[lane];
    }
    out
}

/// Each lane cut into runs of random length, empty ones among them —
/// how a client thread's claimed chunks of the shared buffer read.
fn random_runs<'a>(rng: &mut StdRng, lanes: &'a [Vec<Operation>]) -> Vec<Vec<&'a [Operation]>> {
    lanes
        .iter()
        .map(|lane| {
            let mut runs = Vec::new();
            let mut rest = &lane[..];
            while !rest.is_empty() {
                let (run, tail) = rest.split_at(rng.gen_range(0..=rest.len().min(8)));
                runs.push(run);
                rest = tail;
            }
            runs
        })
        .collect()
}

fn swept(lanes: &[Vec<&[Operation]>]) -> Result<Vec<u64>, LaneOrderError> {
    let mut seen = Vec::new();
    lane_magnitudes(lanes, |_, magnitude| seen.push(magnitude))?;
    seen.sort_unstable();
    Ok(seen)
}

/// What a native run grades: each client thread's runs of the returned
/// buffer, as one lane. The sweep's magnitudes are the table's over the
/// same operations, its count the quadratic reference's and zero
/// exactly when the oracle finds a counting order; a lane out of order
/// is refused where it breaks, by its place in the lane across runs.
#[test]
fn sequential_lanes_get_the_verdict_of_their_operations() {
    assert_eq!(swept(&[]), Ok(vec![]));
    assert_eq!(swept(&[vec![], vec![&[]], vec![]]), Ok(vec![]));

    let mut rng = StdRng::seed_from_u64(0x1A9E5);
    let (mut clean, mut violating) = (0, 0);
    for round in 0..600 {
        let width = if round % 4 == 3 {
            64
        } else {
            rng.gen_range(1..=8)
        };
        let n = if round % 2 == 0 {
            rng.gen_range(0..=16)
        } else {
            rng.gen_range(17..=300)
        };
        let mut lanes = random_lanes(&mut rng, width, n);
        // values: a permutation of 0..n — the start order, a few
        // transpositions of it, or any
        let mut values: Vec<u64> = (0..n as u64).collect();
        match round % 3 {
            0 => {}
            1 if n > 1 => {
                for _ in 0..rng.gen_range(1..=2) {
                    values.swap(rng.gen_range(0..n), rng.gen_range(0..n));
                }
            }
            _ => values.shuffle(&mut rng),
        }
        for record in lanes.iter_mut().flatten() {
            record.value = values[record.value as usize];
        }

        let ops: Vec<Operation> = lanes.iter().flatten().copied().collect();
        let mut expected: Vec<u64> = magnitudes(&ops).collect();
        expected.sort_unstable();
        let count = expected.iter().filter(|&&m| m > 0).count();
        assert_eq!(count, count_nonlinearizable_naive(&ops), "round {round}");
        if n <= 16 {
            assert_eq!(
                check_exhaustive(&ops).is_some(),
                count == 0,
                "round {round}"
            );
            clean += usize::from(count == 0);
            violating += usize::from(count > 0);
        }

        // as drawn (every tick of 0..2n once) and stretched: a strictly
        // increasing relabelling moves no verdict
        let stretched: Vec<Vec<Operation>> = lanes
            .iter()
            .map(|lane| relabelled(lane, |t| (t + 1) << 20))
            .collect();
        assert_eq!(
            swept(&random_runs(&mut rng, &lanes)).as_ref(),
            Ok(&expected),
            "round {round}: drawn"
        );
        assert_eq!(
            swept(&random_runs(&mut rng, &stretched)),
            Ok(expected),
            "round {round}: stretched"
        );

        // one record out of order: refused by name, whatever the values
        // and wherever the lane's runs are cut
        let Some(lane) = (0..width).filter(|&l| !lanes[l].is_empty()).nth(round % 2) else {
            continue;
        };
        let index = rng.gen_range(0..lanes[lane].len());
        let record = &mut lanes[lane][index];
        match (rng.gen_range(0..3), index) {
            (0, _) => record.end = record.start,
            (1, _) | (_, 0) => (record.start, record.end) = (record.end, record.start),
            _ => lanes[lane][index].start = lanes[lane][index - 1].end,
        }
        assert_eq!(
            swept(&random_runs(&mut rng, &lanes)),
            Err(LaneOrderError { lane, index }),
            "round {round}"
        );
    }
    assert!(clean > 50 && violating > 50, "{clean} / {violating}");
}
