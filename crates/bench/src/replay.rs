//! The timed-executor suites: the paper's adversarial constructions
//! replayed exactly, with no simulator in the loop.

use std::io;

use cnet_harness::{derive_seed, percent, pool, ResultTable};
use cnet_timing::adversary::{
    bitonic_attack, intro_example, tree_attack, tree_attack_with_gap, wave_attack,
};
use cnet_timing::executor::TimedExecutor;
use cnet_timing::{measure, random, threshold as sweep, LinkTiming};
use cnet_topology::constructions;

use crate::Run;

/// The paper's **Section 1 and Section 4 adversarial executions**
/// through the timed executor, with the violations each produces, plus
/// the Theorem 3.6 tightness sweep on trees.
pub(crate) fn section4(run: &mut Run<'_>) -> io::Result<()> {
    writeln!(run.out, "Section 1 & 4 adversarial executions\n")?;

    let timing = LinkTiming::new(10, 30).expect("valid timing"); // ratio 3
    writeln!(run.out, "link timing: {timing}\n")?;

    // Theorem 4.4 needs c2 > ((3 + log w)/2) c1; use ratio 5 for w=32.
    let wave_timing = LinkTiming::new(10, 50).expect("valid timing");
    let wave_note = format!(
        "  [ratio 5, threshold {}]",
        measure::bitonic_mass_violation_threshold(32)
    );
    let scenarios = [
        (intro_example(timing), ""),
        (tree_attack(32, timing), ""),
        (bitonic_attack(32, timing), ""),
        (wave_attack(32, wave_timing), wave_note.as_str()),
    ];
    let mut scenario_table = ResultTable::new(
        "adversarial executions (c2/c1 = 3; wave at ratio 5)",
        &["depth", "tokens", "violations", "ratio"],
    );
    for (scenario, note) in scenarios {
        let s = scenario.expect("ratio sufficient");
        let exec = s.execute().expect("scenario executes");
        writeln!(
            run.out,
            "{:24} depth={:2} tokens={:4}  violations={:3} ({:.2}% of ops){note}",
            s.name,
            s.topology.depth(),
            s.schedule.len(),
            exec.nonlinearizable_count(),
            exec.nonlinearizable_ratio() * 100.0,
        )?;
        scenario_table.push_row(
            s.name,
            vec![
                s.topology.depth().to_string(),
                s.schedule.len().to_string(),
                exec.nonlinearizable_count().to_string(),
                format!("{:.2}%", exec.nonlinearizable_ratio() * 100.0),
            ],
        );
    }
    run.report.push_table(&scenario_table);

    // Tightness sweep: violations persist up to gap = h (c2 - 2 c1) - 1,
    // the edge of Theorem 3.6's guarantee.
    writeln!(
        run.out,
        "\nTheorem 3.6 tightness on the width-32 tree (h = 5):"
    )?;
    let h = 5u64;
    let slack = h * (timing.c2() - 2 * timing.c1());
    writeln!(
        run.out,
        "  finish-start separation bound h(c2 - 2 c1) = {slack} \
         (Theorem 3.6 guarantees order beyond it)"
    )?;
    let mut gap_table = ResultTable::new(
        format!("Theorem 3.6 tightness, width-32 tree (bound {slack})"),
        &["violations"],
    );
    for gap in [1, slack / 4, slack / 2, slack - 1] {
        let exec = tree_attack_with_gap(32, timing, gap)
            .expect("gap below the bound")
            .execute()
            .expect("scenario executes");
        writeln!(
            run.out,
            "  gap {gap:4} cycles after the witness exits -> {} violations",
            exec.nonlinearizable_count()
        )?;
        gap_table.push_row(
            format!("gap={gap}"),
            vec![exec.nonlinearizable_count().to_string()],
        );
    }
    run.report.push_table(&gap_table);
    writeln!(
        run.out,
        "  gap {slack:4} -> refused: Theorem 3.6 guarantees linearization order"
    )
}

/// Empirical Theorem 3.6 tightness across networks and ratios: for
/// each, the largest finish-start gap at which the straggler/wave
/// family still violates, as a fraction of the theoretical bound
/// `h·c2 - 2·h·c1`.
pub(crate) fn threshold(run: &mut Run<'_>) -> io::Result<()> {
    let networks = [
        ("tree16", constructions::counting_tree(16).expect("valid")),
        ("tree32", constructions::counting_tree(32).expect("valid")),
        ("bitonic8", constructions::bitonic(8).expect("valid")),
        ("bitonic16", constructions::bitonic(16).expect("valid")),
    ];
    let ratios = [(10u64, 25u64), (10, 30), (10, 40), (10, 60)];
    let columns = ratios.map(|(c1, c2)| format!("c2/c1={:.1}", c2 as f64 / c1 as f64));
    let mut table = ResultTable::new(
        "largest violating gap / Theorem 3.6 bound (straggler-wave family)",
        &columns,
    );
    let cells = pool::run_indexed(networks.len() * ratios.len(), run.args.threads, |i| {
        let (_, net) = &networks[i / ratios.len()];
        let (c1, c2) = ratios[i % ratios.len()];
        let timing = LinkTiming::new(c1, c2).expect("valid timing");
        let r = sweep::empirical_threshold(net, timing).expect("sweep");
        match (r.max_violating_gap, r.tightness()) {
            (Some(g), Some(t)) => format!("{g}/{} ({:.0}%)", r.theory_bound, t * 100.0),
            _ => format!("none/{}", r.theory_bound),
        }
    });
    for (row, (name, _)) in cells.chunks(ratios.len()).zip(&networks) {
        table.push_row(*name, row.to_vec());
    }
    run.table_csv(&table)
}

/// Ablation: the linearizing prefix of Corollary 3.12.
///
/// With `c2 = 3·c1` (so `k = 4`), pads the width-16 counting tree
/// (depth `h = 4`) with input chains of increasing length and measures
/// how often randomized straggler/wave schedules (the robust violation
/// pattern distilled from Theorem 4.1) still produce violations;
/// `--ops` caps the tokens per trial.
///
/// Corollary 3.12 guarantees zero violations at `pad = h·(k - 2) = 8`.
/// The straggler/wave family itself dies earlier: a fast wave entering
/// right after the witness exits can only beat an all-`c2` straggler to
/// the leaves while `pad < h·(c2 - 2·c1)/c1 = 4`, so the sweep shows a
/// cliff at `pad = 4` — the corollary's bound is conservative for this
/// attack family, and exact families achieving larger pads require the
/// full paper's tightness construction.
pub(crate) fn ablation_prefix(run: &mut Run<'_>) -> io::Result<()> {
    let base = run.seed;
    let tokens = run.args.ops.min(3000);
    let timing = LinkTiming::new(10, 30).expect("valid timing"); // ratio 3 => k = 4
    let inner = constructions::counting_tree(16).expect("valid width");
    let h = inner.depth();
    let k = timing.min_integer_k() as usize;
    let full_pad = measure::corollary_3_12_padding(h, k);
    writeln!(
        run.out,
        "linearizing-prefix ablation: Tree[16], h={h}, c2/c1=3, k={k}, \
         corollary pad = {full_pad}\n"
    )?;

    let trials = (tokens / 20).max(20);
    let mut table = ResultTable::new(
        format!("violating trials vs input padding ({trials} straggler/wave trials per row)"),
        &["depth", "violating trials", "nonlin ops"],
    );
    let pads = [0usize, 1, 2, 3, 4, 5, 6, 7, 8, 10];
    let rows = pool::run_indexed(pads.len(), run.args.threads, |i| {
        let pad = pads[i];
        let net = constructions::pad_inputs(&inner, pad).expect("padding");
        let mut violating_trials = 0usize;
        let mut bad_ops = 0usize;
        let mut total_ops = 0usize;
        for trial in 0..trials as u64 {
            let seed = derive_seed(base, "ablation_prefix", &[pad as u64, trial]);
            let schedule = random::straggler_burst_schedule(&net, timing, 1, 2, 15, pad, seed)
                .expect("schedule");
            let exec = TimedExecutor::new(&net).run(&schedule).expect("execution");
            let bad = exec.nonlinearizable_count();
            violating_trials += usize::from(bad > 0);
            bad_ops += bad;
            total_ops += schedule.len();
        }
        (
            format!("pad={pad}"),
            vec![
                format!("{}", net.depth()),
                format!("{violating_trials}/{trials}"),
                percent(bad_ops as f64 / total_ops as f64),
            ],
        )
    });
    for (label, row) in rows {
        table.push_row(label, row);
    }
    run.table_csv(&table)
}
