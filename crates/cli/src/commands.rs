//! Subcommand implementations: pure functions from arguments to a
//! report string.

use std::fmt::Write as _;

use cnet_engine::{ArrivalProcess, CounterSpec, RunRecord, SpecError, WaitMode, Workload};
use cnet_harness::{BackendSpec, GridReport, ResultTable};
use cnet_proteus::SimConfig;
use cnet_timing::adversary::{
    bitonic_attack, intro_example, search_violations, tree_attack, wave_attack, Scenario,
    SearchConfig,
};
use cnet_timing::executor::TimedExecutor;
use cnet_timing::{interleave, measure, render, threshold as thresh, LinkTiming};
use cnet_topology::{constructions, Topology, TopologyError};
use serde::{Serialize as _, Value};

use crate::{CliError, ParsedArgs};

/// The widest network the CLI builds, from `<kind> <width>`, a
/// scenario file or `attack --width`. The widest any table, example or
/// benchmark workload builds is 32.
pub(crate) const MAX_WIDTH: usize = 4096;

/// The longest `--pad` the CLI builds.
pub(crate) const MAX_PAD: usize = 1024;

/// `value`, or a failed error naming `bound` when it is above it.
fn at_most(what: &str, value: usize, bound: usize) -> Result<usize, CliError> {
    let refused = || CliError::Failed(format!("{what} {value} is above the bound {bound}").into());
    (value <= bound).then_some(value).ok_or_else(refused)
}

/// [`constructions::by_name`] for the CLI: an unknown kind is a usage
/// error, a width above [`MAX_WIDTH`] or one the kind cannot take a
/// failed operation.
pub(crate) fn network_by_name(
    kind: &str,
    width: usize,
    arity: usize,
) -> Result<Topology, CliError> {
    at_most("width", width, MAX_WIDTH)?;
    constructions::by_name(kind, width, arity).map_err(|e| match e {
        TopologyError::UnknownKind { .. } => CliError::usage(e.to_string()),
        _ => CliError::failed(e),
    })
}

/// Builds the network named by the first two positionals (`kind`,
/// `width`), honoring `--pad` and `--arity`.
pub(crate) fn build_network(args: &ParsedArgs) -> Result<Topology, CliError> {
    let kind = args.positional(0, "kind")?;
    let net = if kind == "file" {
        let path = args.positional(1, "topology file")?;
        let text = std::fs::read_to_string(path).map_err(CliError::failed)?;
        cnet_topology::io::from_text(&text).map_err(CliError::failed)?
    } else {
        let width = args
            .positional(1, "width")?
            .parse::<usize>()
            .map_err(|_| CliError::usage("width must be a number"))?;
        network_by_name(kind, width, args.num("arity")?.unwrap_or(2))?
    };
    match args.num("pad")? {
        Some(pad) => constructions::pad_inputs(&net, at_most("--pad", pad, MAX_PAD)?)
            .map_err(CliError::failed),
        None => Ok(net),
    }
}

fn link_timing(args: &ParsedArgs) -> Result<LinkTiming, CliError> {
    LinkTiming::new(args.required("c1")?, args.required("c2")?).map_err(CliError::failed)
}

/// Writes a serde value as pretty JSON when `--json <path>` was given.
pub(crate) fn write_json(args: &ParsedArgs, value: &Value) -> Result<(), CliError> {
    if let Some(path) = args.str_opt("json") {
        std::fs::write(path, serde::json::to_string_pretty(value)).map_err(CliError::failed)?;
    }
    Ok(())
}

/// `cnet measure` — the paper's linearizability measure for a network.
pub fn measure(args: &ParsedArgs) -> Result<String, CliError> {
    let net = build_network(args)?;
    let timing = link_timing(args)?;
    let h = net.depth();
    let mut out = String::new();
    let _ = writeln!(out, "network depth h = {h}, timing {timing}");
    if timing.guarantees_linearizability() {
        let _ = writeln!(
            out,
            "c2 <= 2 c1: linearizable in every execution (Corollary 3.9)"
        );
    } else {
        let _ = writeln!(out, "c2 > 2 c1: violations are possible (Theorems 4.1/4.3)");
        let _ = writeln!(
            out,
            "finish-start guarantee (Thm 3.6):  separation > {}",
            measure::finish_start_separation(h, timing)
        );
        let _ = writeln!(
            out,
            "start-start guarantee (Lemma 3.7): separation > {}",
            measure::start_start_separation(h, timing)
        );
        let k = timing.min_integer_k() as usize;
        let _ = writeln!(
            out,
            "linearizing prefix (Cor 3.12, k = {k}): pad each input with {} unary \
             balancers -> depth {}",
            measure::corollary_3_12_padding(h, k),
            measure::corollary_3_12_depth(h, k)
        );
        let _ = writeln!(
            out,
            "bitonic mass-violation threshold (Thm 4.4) at width {}: ratio > {:.2}",
            net.output_width(),
            measure::bitonic_mass_violation_threshold(
                net.output_width().next_power_of_two().max(2)
            )
        );
    }
    let mut fields = vec![
        ("depth".to_string(), h.to_value()),
        ("c1".to_string(), timing.c1().to_value()),
        ("c2".to_string(), timing.c2().to_value()),
        (
            "guarantees_linearizability".to_string(),
            timing.guarantees_linearizability().to_value(),
        ),
    ];
    if !timing.guarantees_linearizability() {
        let k = timing.min_integer_k() as usize;
        fields.push((
            "finish_start_separation".to_string(),
            measure::finish_start_separation(h, timing).to_value(),
        ));
        fields.push((
            "start_start_separation".to_string(),
            measure::start_start_separation(h, timing).to_value(),
        ));
        fields.push((
            "corollary_3_12_padding".to_string(),
            measure::corollary_3_12_padding(h, k).to_value(),
        ));
        fields.push((
            "corollary_3_12_depth".to_string(),
            measure::corollary_3_12_depth(h, k).to_value(),
        ));
    }
    write_json(args, &Value::Object(fields))?;
    Ok(out)
}

/// Parses the workload arrival knobs: `--open MEAN_GAP` or
/// `--bursty BURST,GAP`, defaulting to the paper's closed loop.
fn parse_arrival(args: &ParsedArgs) -> Result<ArrivalProcess, CliError> {
    match (
        args.num("open")?,
        args.str_opt("bursty"),
        args.str_opt("trace"),
    ) {
        (Some(mean_gap), None, None) => Ok(ArrivalProcess::Open { mean_gap }),
        (None, None, Some(path)) => Ok(ArrivalProcess::Trace {
            path: path.to_string(),
        }),
        (None, Some(spec), None) => {
            let (burst, gap) = spec
                .split_once(',')
                .ok_or_else(|| CliError::usage("--bursty takes BURST,GAP"))?;
            let burst: u32 = burst
                .trim()
                .parse()
                .map_err(|_| CliError::usage("--bursty BURST must be a number"))?;
            let gap: u64 = gap
                .trim()
                .parse()
                .map_err(|_| CliError::usage("--bursty GAP must be a number"))?;
            Ok(ArrivalProcess::Bursty { burst, gap })
        }
        (None, None, None) => Ok(ArrivalProcess::Closed),
        _ => Err(CliError::usage("choose one of --open / --bursty / --trace")),
    }
}

/// `cnet run` — one seeded workload executed through the engine on one
/// or more backends (any flavor of [`BackendSpec`]'s grammar), compared
/// side by side.
///
/// All backends share the workload and seed; the simulator reports in
/// simulated cycles, the native backends in logical-clock ticks, so the
/// per-backend numbers are comparable in shape, not in units. The
/// frontend flavors append a telemetry line (batch occupancy, shard
/// imbalance) under the table.
pub fn run(args: &ParsedArgs) -> Result<String, CliError> {
    let net = build_network(args)?;
    let kind = args.positional(0, "kind")?.to_string();
    let workload = Workload {
        total_ops: args.num("ops")?.unwrap_or(2000),
        wait_mode: WaitMode::Fixed,
        arrival: parse_arrival(args)?,
        ..Workload::paper(
            args.num("n")?.unwrap_or(8),
            args.num("f")?.unwrap_or(0),
            args.num("w")?.unwrap_or(0),
        )
    };
    // checked once, for every backend: a --trace file is read here
    let workload = workload.check().map_err(CliError::failed)?;
    let seed = args.num("seed")?.unwrap_or(1);
    let sim_config = if args.flag("prism") {
        SimConfig::diffracting(seed)
    } else {
        SimConfig::queue_lock(seed)
    };
    let label = format!(
        "n={},F={}%,W={}",
        workload.processors, workload.delayed_percent, workload.wait_cycles
    );
    let mut table = ResultTable::new(
        format!(
            "backend comparison ({kind}, {label}, {} ops)",
            workload.total_ops
        ),
        &["ops", "wall ms", "nonlin %", "avg c2/c1", "counts", "step"],
    );
    let mut records = Vec::new();
    let mut telemetry = Vec::new();
    for name in args
        .str_opt("backend")
        .unwrap_or("sim,shm")
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
    {
        let mut spec: BackendSpec = name
            .parse()
            .map_err(|e: SpecError| CliError::usage(e.to_string()))?;
        // what the flavor string cannot carry comes from the flags
        match &mut spec {
            BackendSpec::Sim(config) => *config = sim_config,
            BackendSpec::Threads(CounterSpec::Batch(_, combining)) => {
                combining.slots = workload.processors.max(1);
            }
            _ => {}
        }
        let backend = spec
            .build(&net, seed)
            .map_err(|e| CliError::usage(format!("`{name}`: {e}")))?;
        let outcome = backend.run_checked(&workload);
        if let Some(m) = &outcome.frontend {
            // each frontend fills its own block of the telemetry
            let name = outcome.backend;
            if m.batch_hist.count() + m.solo_ops > 0 {
                telemetry.push(format!(
                    "{name}: avg batch {:.2}, combiner occupancy {}",
                    m.avg_batch(),
                    cnet_harness::percent(m.combiner_occupancy())
                ));
            }
            if !m.shard_ops.is_empty() {
                telemetry.push(format!(
                    "{name}: shard imbalance {:.3}",
                    m.shard_imbalance()
                ));
            }
        }
        table.push_row(
            outcome.backend.to_string(),
            vec![
                outcome.stats.operations.len().to_string(),
                format!("{:.2}", outcome.wall_ms),
                cnet_harness::percent(outcome.stats.nonlinearizable_ratio()),
                format!("{:.2}", outcome.stats.average_ratio(workload.wait_cycles)),
                if outcome.counts_exactly() {
                    "ok"
                } else {
                    "FAIL"
                }
                .to_string(),
                if outcome.has_step_property() {
                    "ok"
                } else if spec.relaxes_step() {
                    // frontends trade the exact quiescent step for
                    // throughput by design; that is not a failure
                    "relaxed"
                } else {
                    "FAIL"
                }
                .to_string(),
            ],
        );
        records.push(RunRecord::from_outcome(
            label.clone(),
            kind.clone(),
            &workload,
            seed,
            &outcome,
        ));
    }
    if records.is_empty() {
        return Err(CliError::usage("--backend selected no backends"));
    }
    let grid = GridReport {
        title: "cnet run".to_string(),
        base_seed: seed,
        threads: 1,
        wall_ms: records.iter().map(|r| r.wall_ms).sum(),
        records,
    };
    write_json(args, &grid.to_value())?;
    let mut out = table.to_text();
    for line in &telemetry {
        let _ = writeln!(out, "{line}");
    }
    let _ = writeln!(
        out,
        "\ntimes: sim in simulated cycles, shm/async in host wall-clock / logical ticks"
    );
    Ok(out)
}

fn attack_scenario(args: &ParsedArgs) -> Result<Scenario, CliError> {
    let name = args.positional(0, "attack")?;
    let timing = link_timing(args)?;
    let width = at_most("width", args.num("width")?.unwrap_or(8), MAX_WIDTH)?;
    match name {
        "intro" => intro_example(timing),
        "tree" => tree_attack(width, timing),
        "bitonic" => bitonic_attack(width, timing),
        "wave" => wave_attack(width, timing),
        other => {
            return Err(CliError::usage(format!(
                "unknown attack `{other}` (intro|tree|bitonic|wave)"
            )))
        }
    }
    .map_err(CliError::failed)
}

/// `cnet attack` — run a Section 1/4 scenario and render the timeline.
pub fn attack(args: &ParsedArgs) -> Result<String, CliError> {
    let scenario = attack_scenario(args)?;
    let exec = scenario.execute().map_err(CliError::failed)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: {} tokens, {} violations",
        scenario.name,
        scenario.schedule.len(),
        exec.nonlinearizable_count()
    );
    if args.flag("svg") {
        out.push_str(&render::svg_timeline(&exec));
    } else {
        out.push_str(&render::text_timeline(&exec, 72));
    }
    Ok(out)
}

/// `cnet interleave` — exhaustively enumerate every interleaving of a
/// small token population.
pub fn interleave_cmd(args: &ParsedArgs) -> Result<String, CliError> {
    let net = build_network(args)?;
    let tokens = args.num("tokens")?.unwrap_or(3);
    let budget = args.num("budget")?.unwrap_or(2_000_000);
    let inputs: Vec<usize> = (0..tokens).map(|i| i % net.input_width()).collect();
    let r = interleave::enumerate_interleavings(&net, &inputs, budget).map_err(CliError::failed)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} interleavings{}",
        r.executions,
        if r.truncated { " (budget reached)" } else { "" }
    );
    let _ = writeln!(
        out,
        "step-property failures: {} (0 = counting network)",
        r.step_failures
    );
    let _ = writeln!(
        out,
        "executions with order-precedence violations: {} ({:.2}%), worst {} victims",
        r.violating_executions,
        r.violating_fraction() * 100.0,
        r.max_violations
    );
    Ok(out)
}

/// `cnet search` — automated attack search over extremal schedules.
pub fn search(args: &ParsedArgs) -> Result<String, CliError> {
    let net = build_network(args)?;
    let timing = link_timing(args)?;
    let tokens = args.num("tokens")?.unwrap_or(4);
    let mut config = SearchConfig::for_network(&net, timing, tokens);
    if let Some(budget) = args.num("budget")? {
        config.budget = budget;
    }
    let out = search_violations(&net, timing, &config).map_err(CliError::failed)?;
    let mut report = String::new();
    let _ = writeln!(
        report,
        "searched {} extremal schedules{}; {} violating",
        out.assignments,
        if out.truncated {
            " (budget reached)"
        } else {
            ""
        },
        out.violating
    );
    match out.witness {
        Some(schedule) => {
            let exec = TimedExecutor::new(&net)
                .run(&schedule)
                .map_err(CliError::failed)?;
            let _ = writeln!(report, "witness found:");
            report.push_str(&render::text_timeline(&exec, 72));
        }
        None => {
            let _ = writeln!(
                report,
                "no violating schedule in the box{}",
                if timing.guarantees_linearizability() {
                    " (c2 <= 2 c1: Corollary 3.9 guarantees none exist at all)"
                } else {
                    ""
                }
            );
        }
    }
    Ok(report)
}

/// `cnet threshold` — empirical vs theoretical violation threshold.
pub fn threshold(args: &ParsedArgs) -> Result<String, CliError> {
    let net = build_network(args)?;
    let timing = link_timing(args)?;
    let report = thresh::empirical_threshold(&net, timing).map_err(CliError::failed)?;
    let mut out = String::new();
    let _ = writeln!(out, "Theorem 3.6 bound: {}", report.theory_bound);
    match report.max_violating_gap {
        Some(g) => {
            let _ = writeln!(
                out,
                "largest violating finish-start gap found: {g} \
                 (tightness {:.0}%)",
                report.tightness().unwrap_or(0.0) * 100.0
            );
        }
        None => {
            let _ = writeln!(
                out,
                "no violating gap found (the attack family is exhausted)"
            );
        }
    }
    write_json(
        args,
        &Value::Object(vec![
            ("theory_bound".to_string(), report.theory_bound.to_value()),
            (
                "max_violating_gap".to_string(),
                report.max_violating_gap.to_value(),
            ),
            ("tightness".to_string(), report.tightness().to_value()),
        ]),
    )?;
    Ok(out)
}

/// Parses `--slo RATE,MAG,P99NS` into a policy (unbounded when the
/// option is absent).
fn slo_policy(args: &ParsedArgs) -> Result<cnet_obs::SloPolicy, CliError> {
    let Some(spec) = args.str_opt("slo") else {
        return Ok(cnet_obs::SloPolicy::unbounded());
    };
    let parts: Vec<&str> = spec.split(',').collect();
    let [rate, mag, p99] = parts.as_slice() else {
        return Err(CliError::usage(format!(
            "--slo expects RATE,MAG,P99NS (e.g. 0.05,64,5000000), got `{spec}`"
        )));
    };
    let max_violation_rate: f64 = rate
        .parse()
        .map_err(|_| CliError::usage(format!("--slo rate must be a fraction, got `{rate}`")))?;
    if !(0.0..=1.0).contains(&max_violation_rate) {
        return Err(CliError::usage(format!(
            "--slo rate must be in [0, 1], got `{rate}`"
        )));
    }
    let max_magnitude: u64 = mag
        .parse()
        .map_err(|_| CliError::usage(format!("--slo magnitude must be a count, got `{mag}`")))?;
    let p99_latency_ns: u64 = p99
        .parse()
        .map_err(|_| CliError::usage(format!("--slo p99 must be nanoseconds, got `{p99}`")))?;
    Ok(cnet_obs::SloPolicy {
        max_violation_rate,
        max_magnitude,
        p99_latency_ns,
    })
}

/// `cnet serve` — run the counter daemon until `SIGTERM`/`SIGINT` or a
/// client `Shutdown`, then report the final SLO snapshot. Exits 4 (via
/// [`CliError::Gate`]) when the service's lifetime was not breach-free.
pub fn serve(args: &ParsedArgs) -> Result<String, CliError> {
    let net = build_network(args)?;
    let kind = args.positional(0, "kind")?.to_string();
    let socket = args
        .str_opt("socket")
        .ok_or_else(|| CliError::usage("--socket PATH is required"))?;
    let mut config = cnet_serve::ServeConfig::new(socket);
    config.policy = slo_policy(args)?;
    if let Some(w) = args.num("window")? {
        config.window_ops = w;
    }
    if let Some(h) = args.num("history")? {
        config.history_cap = h;
    }
    if let Some(path) = args.str_opt("dump") {
        config.dump_path = Some(path.into());
    }
    if let Some(secs) = args.num::<u64>("dump-every")? {
        config.dump_every = std::time::Duration::from_secs(secs.max(1));
    }
    if let Some(label) = args.str_opt("label") {
        config.label = label.to_string();
    }
    config.seed = args.num("seed")?.unwrap_or(0);
    config.kind = kind;
    config.watch_signals = true;

    cnet_serve::signal::install_termination_handler();
    let handle = cnet_serve::CounterServer::start(&net, config).map_err(CliError::failed)?;
    eprintln!(
        "cnet serve: listening on {}",
        handle.socket_path().display()
    );
    let summary = handle.wait().map_err(CliError::failed)?;

    let mut out = summary.report.to_metrics_text();
    let _ = writeln!(
        out,
        "served {} ops over {} connection(s); history retained {} (dropped {}), {} dump(s) written",
        summary.report.total.ops,
        summary.connections,
        summary.history.len(),
        summary.history_dropped,
        summary.dumps_written,
    );
    if summary.report.breach_free() {
        Ok(out)
    } else {
        let _ = writeln!(
            out,
            "SLO BREACH: {} ok->breach transition(s), onsets at {:?} ms",
            summary.report.breaches, summary.report.breach_timestamps_ms
        );
        Err(CliError::Gate {
            code: 4,
            message: out,
        })
    }
}

/// `cnet drive` — soak a running daemon with open-loop load and judge
/// the trace it saw against `--slo`: exits 3 (via [`CliError::Gate`])
/// when the whole run or any window of it broke the policy.
pub fn drive_cmd(args: &ParsedArgs) -> Result<String, CliError> {
    let socket = args
        .str_opt("socket")
        .ok_or_else(|| CliError::usage("--socket PATH is required"))?;
    let mut config = cnet_serve::DriveConfig::new(socket);
    if let Some(c) = args.num::<usize>("clients")? {
        config.clients = c.max(1);
    }
    if let Some(r) = args.num::<u64>("rate")? {
        config.rate_per_sec = r.max(1);
    }
    if let Some(s) = args.num::<u64>("duration")? {
        config.duration = std::time::Duration::from_secs(s.max(1));
    }
    if let Some(b) = args.num::<u32>("batch")? {
        config.batch = b.max(1);
    }
    if let Some(w) = args.num("window")? {
        config.window_ops = w;
    }
    config.policy = slo_policy(args)?;
    if let Some(seed) = args.num("seed")? {
        config.seed = seed;
    }

    let outcome = cnet_serve::drive(&config).map_err(CliError::failed)?;
    if outcome.requests == 0 {
        return Err(CliError::usage(format!(
            "every request failed ({} failures) — is the server at {} healthy?",
            outcome.failures,
            config.socket.display()
        )));
    }

    let mut out = outcome.report.to_metrics_text();
    let _ = writeln!(
        out,
        "drove {} request(s) / {} value(s) in {:.2}s ({:.0} req/s offered, {} failure(s))",
        outcome.requests,
        outcome.values,
        outcome.elapsed.as_secs_f64(),
        config.rate_per_sec as f64,
        outcome.failures,
    );
    write_json(args, &outcome.report.to_value())?;

    // the verdict: the policy over the whole run, and over every
    // closed window as the evaluator judged it
    let (report, total, policy) = (&outcome.report, &outcome.report.total, &config.policy);
    if total.breaches(policy) || !report.breach_free() {
        let rate = total.violation_rate() > policy.max_violation_rate;
        let magnitude = total.magnitude_max > policy.max_magnitude;
        let p99 = total.p99_latency_ns() > policy.p99_latency_ns;
        let over = [
            ("violation_rate", rate),
            ("magnitude_max", magnitude),
            ("p99_latency_ns", p99),
            ("a window", !report.breach_free()),
        ];
        let over: Vec<&str> = over.iter().filter(|d| d.1).map(|d| d.0).collect();
        let _ = writeln!(out, "SLO BREACH: {} over the --slo policy", over.join(", "));
        return Err(CliError::Gate {
            code: 3,
            message: out,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `v` as the arguments of the first command that reads
    /// every option in it.
    fn parse(v: &[&str]) -> ParsedArgs {
        let raw: Vec<String> = v.iter().map(|s| (*s).to_string()).collect();
        crate::COMMANDS
            .iter()
            .find_map(|command| crate::parse(&raw, command).ok())
            .expect("some command reads these arguments")
    }

    /// Whether a `cnet run` table has a row for this backend family.
    fn has_row(table: &str, backend: &str) -> bool {
        table
            .lines()
            .any(|l| l.split_whitespace().next() == Some(backend))
    }

    #[test]
    fn measure_reports_guarantee() {
        let out = measure(&parse(&["bitonic", "8", "--c1", "10", "--c2", "20"])).unwrap();
        assert!(out.contains("Corollary 3.9"));
    }

    #[test]
    fn measure_reports_bounds_when_skewed() {
        let out = measure(&parse(&["bitonic", "8", "--c1", "10", "--c2", "35"])).unwrap();
        assert!(out.contains("Thm 3.6"));
        assert!(out.contains("k = 4"));
    }

    #[test]
    fn a_network_takes_pad_and_arity_or_comes_from_a_file() {
        let timing = ["--c1", "10", "--c2", "20"];
        let padded = [&["tree", "9", "--arity", "3", "--pad", "2"][..], &timing].concat();
        let out = measure(&parse(&padded)).unwrap();
        assert!(out.contains("depth h = 4"), "{out}");

        let path = std::env::temp_dir().join(format!("cnet-cli-{}.topo", std::process::id()));
        let net = constructions::bitonic(4).unwrap();
        std::fs::write(&path, cnet_topology::io::to_text(&net)).unwrap();
        let from_file = [&["file", path.to_str().unwrap()][..], &timing].concat();
        let out = measure(&parse(&from_file)).unwrap();
        assert!(out.contains("depth h = 3"), "{out}");
        let missing = [&["file", "/nonexistent/net.topo"][..], &timing].concat();
        assert!(measure(&parse(&missing)).is_err());
    }

    #[test]
    fn a_delayed_share_over_100_percent_is_refused_not_run() {
        let cell = ["bitonic", "8", "--n", "8", "--f", "200", "--w", "100"];
        for entry in [crate::cell::simulate, run] {
            let err = entry(&parse(&cell)).unwrap_err();
            assert!(matches!(err, CliError::Failed(_)), "{err:?}");
            assert!(err.to_string().contains("at most 100"), "{err}");
        }
    }

    #[test]
    fn a_workload_without_clients_is_refused_not_run() {
        let cell = [
            "bitonic", "8", "--n", "0", "--f", "0", "--w", "0", "--ops", "10",
        ];
        for entry in [crate::cell::simulate, run] {
            let err = entry(&parse(&cell)).unwrap_err();
            assert!(matches!(err, CliError::Failed(_)), "{err:?}");
            assert!(err.to_string().contains("at least 1"), "{err}");
        }
    }

    #[test]
    fn run_compares_all_backends_by_default() {
        let out = run(&parse(&["bitonic", "4", "--n", "4", "--ops", "200"])).unwrap();
        for backend in ["sim", "shm"] {
            assert!(has_row(&out, backend), "missing {backend} row:\n{out}");
        }
        assert!(!out.contains("FAIL"), "{out}");
    }

    #[test]
    fn run_single_backend_with_open_arrivals() {
        let out = run(&parse(&[
            "bitonic",
            "4",
            "--backend",
            "shm",
            "--n",
            "4",
            "--ops",
            "150",
            "--open",
            "300",
        ]))
        .unwrap();
        assert!(has_row(&out, "shm"), "{out}");
        assert!(!has_row(&out, "sim"), "{out}");
        assert!(!out.contains("FAIL"), "{out}");
    }

    #[test]
    fn run_writes_grid_report_json() {
        let dir = std::env::temp_dir().join("cnet-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.json");
        run(&parse(&[
            "bitonic",
            "4",
            "--backend",
            "sim,async,shm-batch",
            "--n",
            "2",
            "--ops",
            "64",
            "--json",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        use serde::Deserialize as _;
        let grid = GridReport::from_value(&serde::json::from_str(&text).unwrap()).unwrap();
        let backends: Vec<&str> = grid.records.iter().map(|r| r.backend.as_str()).collect();
        assert_eq!(backends, ["sim", "async", "shm-batch"]);
        // a record can be re-run from its own `backend` field
        for name in backends {
            let spec: BackendSpec = name.parse().unwrap();
            assert_eq!(spec.name(), name);
        }
    }

    #[test]
    fn run_accepts_every_registered_flavor() {
        let all = BackendSpec::all().map(|spec| spec.to_string());
        let out = run(&parse(&[
            "bitonic",
            "16",
            "--backend",
            &all.join(","),
            "--n",
            "4",
            "--ops",
            "200",
        ]))
        .unwrap();
        for spec in BackendSpec::all() {
            assert!(has_row(&out, spec.name()), "missing {spec} row:\n{out}");
        }
        assert!(!out.contains("FAIL"), "{out}");
    }

    #[test]
    fn run_frontend_backends_report_telemetry() {
        let out = run(&parse(&[
            "bitonic",
            "16",
            "--backend",
            "shm-batch:4,shm-shard:4",
            "--n",
            "4",
            "--ops",
            "200",
        ]))
        .unwrap();
        assert!(out.contains("shm-batch"), "{out}");
        assert!(out.contains("avg batch"), "{out}");
        assert!(out.contains("shard imbalance"), "{out}");
        // counting stays exact on every frontend; only the step column
        // may read `relaxed`
        assert!(!out.contains("FAIL"), "{out}");
    }

    #[test]
    fn run_async_with_open_arrivals() {
        let out = run(&parse(&[
            "bitonic",
            "4",
            "--backend",
            "async",
            "--n",
            "4",
            "--ops",
            "150",
            "--open",
            "300",
        ]))
        .unwrap();
        assert!(has_row(&out, "async"), "{out}");
        assert!(!out.contains("FAIL"), "{out}");
    }

    #[test]
    fn run_rejects_bad_shm_shard_split() {
        assert!(run(&parse(&["bitonic", "4", "--backend", "shm-shard:4"])).is_err());
    }

    #[test]
    fn run_rejects_bad_frontend_parameters() {
        // non-numeric, zero, and glued-on batch widths
        assert!(run(&parse(&["bitonic", "4", "--backend", "shm-batch:x"])).is_err());
        assert!(run(&parse(&["bitonic", "4", "--backend", "shm-batch:0"])).is_err());
        assert!(run(&parse(&["bitonic", "4", "--backend", "shm-batchx"])).is_err());
        // 3 shards cannot split width 4
        assert!(run(&parse(&["bitonic", "4", "--backend", "shm-shard:3"])).is_err());
        // shard width 1 is not a balancing network
        assert!(run(&parse(&["bitonic", "4", "--backend", "shm-shard:4"])).is_err());
    }

    #[test]
    fn run_rejects_unknown_backend_and_conflicting_arrivals() {
        assert!(run(&parse(&["bitonic", "4", "--backend", "gpu"])).is_err());
        assert!(run(&parse(&[
            "bitonic", "4", "--open", "10", "--bursty", "4,100"
        ]))
        .is_err());
        assert!(run(&parse(&["bitonic", "4", "--bursty", "nonsense"])).is_err());
        assert!(run(&parse(&[
            "bitonic", "4", "--open", "10", "--trace", "x.txt"
        ]))
        .is_err());
    }

    #[test]
    fn run_replays_a_trace_on_every_backend() {
        let trace = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/arrival_trace.txt"
        );
        let out = run(&parse(&[
            "bitonic", "4", "--ops", "30", "--n", "4", "--trace", trace,
        ]))
        .unwrap();
        assert!(out.contains("sim"), "{out}");
        // a missing trace file is a workload validation error, uniformly
        let err = run(&parse(&["bitonic", "4", "--trace", "/nonexistent.txt"])).unwrap_err();
        assert!(err.to_string().contains("Trace"), "{err}");
    }

    #[test]
    fn attack_tree_violates() {
        let out = attack(&parse(&[
            "tree", "--width", "8", "--c1", "10", "--c2", "30",
        ]))
        .unwrap();
        assert!(out.contains("theorem-4.1-tree"));
        assert!(!out.contains(" 0 violations"));
    }

    #[test]
    fn attack_svg_flag() {
        let out = attack(&parse(&["intro", "--c1", "2", "--c2", "10", "--svg"])).unwrap();
        assert!(out.contains("<svg"));
    }

    #[test]
    fn threshold_tree() {
        let out = threshold(&parse(&["tree", "16", "--c1", "10", "--c2", "30"])).unwrap();
        assert!(out.contains("Theorem 3.6 bound: 40"));
        assert!(out.contains("tightness 100%"));
    }

    #[test]
    fn interleave_single_balancer() {
        let out = interleave_cmd(&parse(&["single", "2", "--tokens", "3"])).unwrap();
        assert!(out.contains("90 interleavings"), "{out}");
        assert!(out.contains("step-property failures: 0"));
    }

    #[test]
    fn interleave_budget_truncates() {
        let out =
            interleave_cmd(&parse(&["single", "2", "--tokens", "3", "--budget", "5"])).unwrap();
        assert!(out.contains("budget reached"));
    }

    #[test]
    fn measure_and_threshold_write_json() {
        let dir = std::env::temp_dir().join("cnet-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let mpath = dir.join("measure.json");
        measure(&parse(&[
            "bitonic",
            "8",
            "--c1",
            "10",
            "--c2",
            "35",
            "--json",
            mpath.to_str().unwrap(),
        ]))
        .unwrap();
        let v = serde::json::from_str(&std::fs::read_to_string(&mpath).unwrap()).unwrap();
        assert_eq!(
            v.get("guarantees_linearizability"),
            Some(&Value::Bool(false))
        );
        assert!(v.get("corollary_3_12_padding").is_some());

        let tpath = dir.join("threshold.json");
        threshold(&parse(&[
            "tree",
            "16",
            "--c1",
            "10",
            "--c2",
            "30",
            "--json",
            tpath.to_str().unwrap(),
        ]))
        .unwrap();
        let v = serde::json::from_str(&std::fs::read_to_string(&tpath).unwrap()).unwrap();
        assert_eq!(v.get("theory_bound"), Some(&Value::Uint(40)));
        assert!(v.get("max_violating_gap").is_some());
    }

    #[test]
    fn search_finds_the_intro_witness() {
        let out = search(&parse(&[
            "single", "2", "--c1", "2", "--c2", "8", "--tokens", "3",
        ]))
        .unwrap();
        assert!(out.contains("witness found"), "{out}");
    }

    #[test]
    fn search_reports_guarantee_when_tame() {
        let out = search(&parse(&[
            "tree", "4", "--c1", "10", "--c2", "20", "--tokens", "4",
        ]))
        .unwrap();
        assert!(out.contains("Corollary 3.9"), "{out}");
    }

    fn temp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("cnet-cli-serve-{}-{name}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn slo_policy_parses_and_validates() {
        assert_eq!(
            slo_policy(&parse(&[])).unwrap(),
            cnet_obs::SloPolicy::unbounded()
        );
        let p = slo_policy(&parse(&["--slo", "0.05,64,5000000"])).unwrap();
        assert!((p.max_violation_rate - 0.05).abs() < 1e-12);
        assert_eq!(p.max_magnitude, 64);
        assert_eq!(p.p99_latency_ns, 5_000_000);
        assert!(slo_policy(&parse(&["--slo", "0.05,64"])).is_err());
        assert!(slo_policy(&parse(&["--slo", "1.5,64,1"])).is_err());
        assert!(slo_policy(&parse(&["--slo", "rate,64,1"])).is_err());
    }

    #[test]
    fn serve_requires_a_socket() {
        let e = serve(&parse(&["bitonic", "4"])).unwrap_err();
        assert!(e.to_string().contains("--socket"));
        let e = drive_cmd(&parse(&[])).unwrap_err();
        assert!(e.to_string().contains("--socket"));
    }

    #[test]
    fn drive_against_a_dead_socket_fails_cleanly() {
        let e = drive_cmd(&parse(&[
            "--socket",
            &temp("dead.sock"),
            "--duration",
            "1",
            "--rate",
            "1",
        ]))
        .unwrap_err();
        assert!(matches!(e, CliError::Failed(_)));
    }

    /// The whole loop in-process: `serve` on one thread, `drive`
    /// against it under the CI policy, an unmeetable one and none,
    /// shutdown via the client, and the serve side exiting breach-free.
    #[test]
    fn serve_and_drive_round_trip_with_policy_gate() {
        let socket = temp("loop.sock");
        let json = temp("loop-report.json");
        let serve_args = parse(&[
            "bitonic",
            "8",
            "--socket",
            &socket,
            "--window",
            "64",
            "--slo",
            "1.0,18446744073709551615,18446744073709551615",
        ]);
        let server = std::thread::spawn(move || serve(&serve_args));

        // 1000 requests: the run is judged as a whole, no window closes
        let drive = |extra: &[&str]| {
            let mut argv = vec!["--socket", &socket, "--clients", "2", "--duration", "1"];
            argv.extend_from_slice(extra);
            drive_cmd(&parse(&argv))
        };
        let out = drive(&["--slo", "0.05,64,50000000", "--json", &json]).unwrap();
        assert!(out.contains("cnet_serve_ops_total"), "{out}");
        assert!(!out.contains("SLO BREACH"), "{out}");
        assert!(std::fs::read_to_string(&json)
            .unwrap()
            .contains("\"total\""));

        // no request returns within a nanosecond: the total and every
        // 64-op window break the p99 bound
        let err = drive(&["--slo", "0,0,1", "--window", "64"]).unwrap_err();
        let CliError::Gate { code: 3, message } = &err else {
            panic!("an unmeetable policy must gate with exit 3: {err:?}");
        };
        assert!(
            message.contains("p99_latency_ns, a window over the --slo policy"),
            "{message}"
        );
        assert_eq!(err.exit_code(), 3);

        // without --slo nothing is judged
        assert!(drive(&["--window", "64"]).is_ok());

        let mut client = cnet_serve::ServeClient::connect(&socket).unwrap();
        client.shutdown().unwrap();
        let report = server.join().unwrap().unwrap();
        assert!(report.contains("cnet_serve_breaches_total 0"), "{report}");
        assert!(report.contains("connection(s)"), "{report}");
        for p in [&socket, &json] {
            let _ = std::fs::remove_file(p);
        }
    }
}
