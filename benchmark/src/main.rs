//! `cnet-e2e`: the repository's benchmark. See `README.md` beside this
//! package for the workloads, the metric glossary and how to read a run.
//!
//! ```text
//! cnet-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! cnet-e2e trace <name> [...]            the same with --trace 1
//! cnet-e2e run [--reps <r>] [--out <file>] [--seed <n>] [--seconds <s>] [--quick]
//! cnet-e2e compare <A.json> <B.json>
//! ```
//!
//! One measurement prints its metrics and, as the last line of standard
//! output, one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. A failed output check prints no metrics and
//! exits with code 4.

mod check;
mod compare;
mod host;
mod ledger;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use serde::{Serialize, Value};

use metrics::Metric;
use stats::percentile;
use trace::{totals_by_name, Span, Tracer};
use workloads::{
    Family, LoadStats, Result, SetupSampler, Windows, Workload, DEFAULT_SEED, NATIVE_OPS,
    SIM_PASS_OPS,
};

/// Per-layer numbers by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Cold set-ups per batch; `setup_s` is the median of a run's best batch.
const SETUPS: usize = 21;
/// Share of `--seconds` a traced run gives its workload untraced, and
/// then again traced; the ledger takes the rest.
const TRACED_SHARE: f64 = 0.4;

#[derive(Debug, Clone)]
struct Options {
    seed: u64,
    seconds: f64,
    quick: bool,
}

impl Options {
    /// `--quick` is a smoke test: 1-s windows, three set-ups, short
    /// ledger loops, the same names, never compared.
    fn seconds(&self) -> f64 {
        if self.quick {
            1.0
        } else {
            self.seconds
        }
    }

    fn setups(&self) -> usize {
        if self.quick {
            3
        } else {
            SETUPS
        }
    }
}

/// What one measurement reports: the contract's last line.
struct Measurement {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static Metric, f64)>,
}

impl Measurement {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("correct".to_string(), Value::Bool(true)),
            ("attempted".to_string(), Value::Uint(self.attempted)),
            ("failed".to_string(), Value::Uint(self.failed)),
            (
                "metrics".to_string(),
                Value::Object(
                    self.metrics
                        .iter()
                        .map(|&(metric, value)| {
                            (
                                metric.name.clone(),
                                Value::Object(vec![
                                    ("value".to_string(), Value::Float(value)),
                                    ("unit".to_string(), metric.unit.to_value()),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Changes into the repository root and returns the socket path the
/// serve workloads use, inside `benchmark/out/`.
fn enter_repository() -> Result<PathBuf> {
    // `cargo run` exports the manifest directory; a copied binary falls
    // back to where it was built
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    let root = Path::new(&manifest)
        .parent()
        .ok_or("the benchmark's directory has no parent")?
        .to_path_buf();
    // relative paths from the root keep the socket path under `sun_path`'s
    // 108 bytes wherever the checkout lives
    std::env::set_current_dir(&root).map_err(|e| format!("{}: {e}", root.display()))?;
    std::fs::create_dir_all("benchmark/out").map_err(|e| format!("benchmark/out: {e}"))?;
    Ok(PathBuf::from(format!(
        "benchmark/out/e2e-{}.sock",
        std::process::id()
    )))
}

/// The untraced run: the end-to-end metrics.
fn measure_end_to_end(workload: Workload, opts: &Options, socket: &Path) -> Result<Measurement> {
    let mut setups = SetupSampler::new(workload, socket, opts.seed, opts.setups());
    setups.sample()?;
    let windows = Windows::of(Duration::from_secs_f64(opts.seconds()));
    let run = workloads::run_path(
        workload,
        windows,
        opts.seed,
        socket,
        Some(&mut setups),
        None,
    )?;
    let measured = Layers::from([
        ("setup_s", setups.best_batch().0),
        ("ops_per_s", run.load.ops_per_s),
        ("op_p50_us", run.load.op_p50_us),
        ("peak_rss_mb", host::peak_rss_mb()),
    ]);
    let metrics = metrics::end_to_end()
        .iter()
        .map(|m| {
            let value = measured.get(m.name.as_str());
            value
                .map(|&v| (m, v))
                .ok_or_else(|| format!("end-to-end metric `{}` has no measurement", m.name))
        })
        .collect::<Result<_>>()?;
    Ok(Measurement {
        attempted: run.load.attempted,
        failed: run.load.failed,
        metrics,
    })
}

/// The layer numbers read off the pass-based workloads' spans
/// (`req > 0`; pass 0 is warm-up).
fn span_layers(family: Family, spans: &[Span], layers: &mut Layers) {
    match family {
        Family::Serve => {}
        Family::Native => {
            // the least disturbed pass, as `ops_per_s` reads it: the
            // shortest `engine.run` and the window the backend reported
            let duration = |s: &Span| s.end_ns - s.start_ns;
            let measured =
                |name: &'static str| spans.iter().filter(move |s| s.name == name && s.req > 0);
            if let Some(run) = measured("engine.run").min_by_key(|s| duration(s)) {
                let drive = measured("engine.drive.reported").find(|s| s.req == run.req);
                layers.insert(
                    "engine.run_ns_per_op",
                    duration(run) as f64 / NATIVE_OPS as f64,
                );
                layers.insert(
                    "engine.drive_ns_per_op",
                    drive.map_or(f64::NAN, |s| duration(s) as f64 / NATIVE_OPS as f64),
                );
            }
        }
        Family::Sim => {
            let totals = totals_by_name(spans, |s| s.req > 0);
            let passes = totals["sim.pass"].count as f64;
            layers.insert(
                "harness.grid_self_ms",
                totals["harness.grid_run"].self_ns as f64 / passes / 1e6,
            );
            layers.insert(
                "harness.table_us",
                totals["harness.table"].total_ns as f64 / passes / 1e3,
            );
            layers.insert(
                "harness.json_ms",
                totals["harness.json"].total_ns as f64 / passes / 1e6,
            );
        }
    }
}

/// The remainders: what is left of an end-to-end number once the parts
/// the ledger can name are taken out.
fn derived_layers(workload: Workload, layers: &mut Layers) {
    let l = |name: &str| layers[name];
    match workload.family() {
        Family::Serve => {
            let k = workload.serve_shape().1;
            let codec = if k == 1 {
                l("serve.codec_ns")
            } else {
                l("serve.codec_batch_ns")
            };
            let named_ns = codec
                + l("engine.service_bracket_ns")
                + l("concurrent.next_batch_ns")
                + l("obs.slo_record_ns") * f64::from(k);
            let server_self = l("serve.rtt_us") - l("serve.transport_floor_us") - named_ns / 1e3;
            layers.insert("serve.server_self_us", server_self);
        }
        Family::Native => {
            let driver_self = l("engine.drive_ns_per_op") - l("concurrent.next_ns");
            let post = l("engine.run_ns_per_op") - l("engine.drive_ns_per_op");
            let compile_ns_per_op = l("concurrent.compile_us") * 1e3 / NATIVE_OPS as f64;
            let unattributed = l("engine.run_ns_per_op")
                - l("concurrent.next_ns")
                - driver_self
                - l("timing.sweep_ns_per_op")
                - compile_ns_per_op;
            layers.insert("engine.driver_self_ns", driver_self);
            layers.insert("engine.post_ns_per_op", post);
            layers.insert("engine.unattributed_ns", unattributed);
        }
        Family::Sim => {
            // the replay visits the nodes the pass visited: same cells, same seeds
            let replay_s = l("proteus.run_ns_per_op") * SIM_PASS_OPS as f64 / 1e9;
            layers.insert("proteus.visits_per_s", l("proteus.node_visits") / replay_s);
        }
    }
}

/// What the load generator itself looked like, so that its noise can be
/// told from a change in the program.
fn load_layers(load: &LoadStats, layers: &mut Layers) {
    layers.insert("load.samples", load.samples as f64);
    layers.insert("load.ops_per_s", load.mean_ops_per_s);
    for (name, q) in [
        ("load.window_ops_per_s_p25", 0.25),
        ("load.window_ops_per_s_p50", 0.5),
        ("load.window_ops_per_s_p75", 0.75),
    ] {
        // a sub-second window has no whole 1-s window
        let value = if load.rates.is_empty() {
            load.mean_ops_per_s
        } else {
            percentile(&load.rates, q)
        };
        layers.insert(name, value);
    }
    layers.insert("load.op_p99_us", load.op_tail_us);
    layers.insert("load.cpu_us_per_op", load.cpu_us_per_op);
}

/// The traced run: the per-layer metrics. It measures the workload
/// untraced and then traced, and replays its inputs through the ledger
/// entries of its family. A layer the workload does not run reads 0.
fn measure_per_layer(workload: Workload, opts: &Options, socket: &Path) -> Result<Measurement> {
    let family = workload.family();
    let windows = Windows::of(Duration::from_secs_f64(opts.seconds() * TRACED_SHARE));
    let untraced = workloads::run_path(workload, windows, opts.seed, socket, None, None)?;
    let mut tracer = Tracer::new();
    let traced = workloads::run_path(
        workload,
        windows,
        opts.seed,
        socket,
        None,
        Some(&mut tracer),
    )?;
    let mut layers = traced.layers;

    let inputs = match family {
        Family::Serve => {
            // the median `serve.rtt` span of the best 1-s window
            layers.insert("serve.rtt_us", traced.load.op_p50_us);
            let mut setups = SetupSampler::new(workload, socket, opts.seed, opts.setups());
            setups.sample()?;
            let (_, phases) = setups.best_batch();
            layers.insert("serve.start_us", phases.start_s * 1e6);
            layers.insert("serve.connect_us", phases.connect_s * 1e6);
            ledger::Inputs::Serve {
                shape: workload.serve_shape(),
                seed: opts.seed,
            }
        }
        Family::Native => ledger::Inputs::Native {
            ops: &traced.last_ops,
        },
        Family::Sim => ledger::Inputs::Sim { seed: opts.seed },
    };
    let budget = if opts.quick {
        ledger::Budget::QUICK
    } else {
        ledger::Budget::FULL
    };
    layers.extend(ledger::run(&mut tracer, budget, inputs)?);
    span_layers(family, tracer.spans(), &mut layers);
    derived_layers(workload, &mut layers);
    load_layers(&untraced.load, &mut layers);
    // on the workload's primary number: a round trip, or the time per value
    let (with, without) = match family {
        Family::Serve => (traced.load.op_p50_us, untraced.load.op_p50_us),
        _ => (1.0 / traced.load.ops_per_s, 1.0 / untraced.load.ops_per_s),
    };
    layers.insert("trace.overhead_share", (with - without) / without);

    let path = format!("benchmark/out/trace-{}.jsonl", workload.name());
    std::fs::File::create(&path)
        .and_then(|file| tracer.write_jsonl(std::io::BufWriter::new(file)))
        .map_err(|e| format!("{path}: {e}"))?;
    eprintln!("wrote {} spans to {path}", tracer.spans().len());

    let listed = metrics::per_layer();
    if let Some(name) = layers
        .keys()
        .find(|name| listed.iter().all(|m| m.name != **name))
    {
        return Err(format!("BENCHMARK.json does not list `{name}`"));
    }
    let metrics = listed
        .iter()
        .map(|m| (m, layers.get(m.name.as_str()).copied().unwrap_or(0.0)))
        .collect();
    Ok(Measurement {
        attempted: untraced.load.attempted,
        failed: untraced.load.failed,
        metrics,
    })
}

/// One measurement, printed for a reader and then as the contract's
/// last line; the same result with its host fingerprint goes to
/// `benchmark/out/`.
fn measure(workload: Workload, traced: bool, opts: &Options) -> Result<()> {
    let socket = enter_repository()?;
    let fingerprint = host::fingerprint();
    if host::pin_to_one_cpu().is_none() {
        eprintln!(
            "cnet-e2e: warning: the kernel refused the CPU affinity; threads run where the \
             scheduler puts them, and the numbers depend on that placement run by run"
        );
    }
    let measurement = if traced {
        measure_per_layer(workload, opts, &socket)?
    } else {
        measure_end_to_end(workload, opts, &socket)?
    };
    if let Some((metric, value)) = measurement.metrics.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("metric `{}` is not a number: {value}", metric.name));
    }
    println!(
        "{} seed={:#x} seconds={} trace={} quick={}",
        workload.name(),
        opts.seed,
        opts.seconds(),
        u8::from(traced),
        opts.quick
    );
    for (metric, value) in &measurement.metrics {
        println!(
            "  {:<32} {value:>18.6} {:<6} ({} is better)",
            metric.name,
            metric.unit,
            metric.better.as_str()
        );
    }
    let result = measurement.to_value();
    let stamped = Value::Object(vec![
        ("workload".to_string(), workload.name().to_value()),
        ("trace".to_string(), traced.to_value()),
        ("quick".to_string(), opts.quick.to_value()),
        ("seed".to_string(), opts.seed.to_value()),
        ("seconds".to_string(), opts.seconds().to_value()),
        ("fingerprint".to_string(), fingerprint),
        ("result".to_string(), result.clone()),
    ]);
    let path = format!(
        "benchmark/out/last-{}-trace{}.json",
        workload.name(),
        u8::from(traced)
    );
    std::fs::write(&path, serde::json::to_string_pretty(&stamped))
        .map_err(|e| format!("{path}: {e}"))?;
    println!("{}", serde::json::to_string(&result));
    Ok(())
}

/// Runs this binary again for one measurement and parses its last line.
fn child_measurement(workload: Workload, traced: bool, opts: &Options) -> Result<Value> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if opts.quick {
        command.arg("--quick");
    }
    let output = command.output().map_err(|e| format!("spawn: {e}"))?;
    if !output.status.success() {
        return Err(format!("{} exited with {}", workload.name(), output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    serde::json::from_str(last).map_err(|e| format!("{}: last line: {e}", workload.name()))
}

/// `cnet-e2e run`: every workload `reps` times untraced and once traced,
/// each in a fresh process so that `peak_rss_mb` is the workload's own,
/// gathered into one report that `compare` reads.
fn run_all(opts: &Options, reps: usize, out: Option<PathBuf>) -> Result<()> {
    enter_repository()?;
    let fingerprint = host::fingerprint();
    let mut per_workload = Vec::new();
    for workload in Workload::ALL {
        let mut runs = Vec::new();
        for rep in 0..reps as u64 {
            let rep_opts = Options {
                seed: opts.seed.wrapping_add(rep),
                ..opts.clone()
            };
            eprintln!("{} run {}/{reps}", workload.name(), rep + 1);
            let mut result = child_measurement(workload, false, &rep_opts)?;
            if let Value::Object(fields) = &mut result {
                fields.insert(0, ("seed".to_string(), rep_opts.seed.to_value()));
            }
            runs.push(result);
        }
        eprintln!("{} traced run", workload.name());
        let per_layer = child_measurement(workload, true, opts)?;
        per_workload.push(Value::Object(vec![
            ("name".to_string(), workload.name().to_value()),
            ("runs".to_string(), Value::Array(runs)),
            ("per_layer".to_string(), per_layer),
        ]));
    }
    let report = Value::Object(vec![
        ("schema".to_string(), "cnet-e2e-report/1".to_value()),
        ("quick".to_string(), opts.quick.to_value()),
        ("fingerprint".to_string(), fingerprint),
        ("seed".to_string(), opts.seed.to_value()),
        ("seconds".to_string(), opts.seconds().to_value()),
        ("reps".to_string(), reps.to_value()),
        ("workloads".to_string(), Value::Array(per_workload)),
    ]);
    let out = out.unwrap_or_else(|| PathBuf::from("benchmark/out/report.json"));
    std::fs::write(&out, serde::json::to_string_pretty(&report))
        .map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(())
}

fn usage() -> ! {
    eprintln!(
        "usage: cnet-e2e --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick]\n\
         \x20      cnet-e2e trace <workload> [--seed <n>] [--seconds <s>] [--quick]\n\
         \x20      cnet-e2e run [--reps <r>] [--out <file>] [--seed <n>] [--seconds <s>] [--quick]\n\
         \x20      cnet-e2e compare <A.json> <B.json>",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2)
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options {
        seed: DEFAULT_SEED,
        seconds: 20.0,
        quick: false,
    };
    let (mut workload, mut traced, mut reps, mut out) = (None, false, 5usize, None);
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().map(String::as_str).unwrap_or_else(|| usage());
        match arg.as_str() {
            "--workload" => workload = Some(Workload::parse(value()).unwrap_or_else(|| usage())),
            "--seed" => opts.seed = parse_u64(value()).unwrap_or_else(|| usage()),
            "--seconds" => {
                opts.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage());
            }
            "--trace" => {
                traced = match value() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--reps" => {
                reps = value()
                    .parse()
                    .ok()
                    .filter(|&r| r > 0)
                    .unwrap_or_else(|| usage())
            }
            // resolved now: a measurement changes into the repository root
            "--out" => out = Some(std::path::absolute(value()).unwrap_or_else(|_| usage())),
            "--quick" => opts.quick = true,
            flag if flag.starts_with('-') => usage(),
            word => positional.push(word),
        }
    }
    let outcome = match positional.as_slice() {
        ["compare", a, b] => std::process::exit(compare::run(a, b)),
        ["run"] => run_all(&opts, reps, out),
        ["trace", name] => measure(
            Workload::parse(name).unwrap_or_else(|| usage()),
            true,
            &opts,
        ),
        [] => measure(workload.unwrap_or_else(|| usage()), traced, &opts),
        _ => usage(),
    };
    if let Err(e) = outcome {
        eprintln!("cnet-e2e: FAILED: {e}");
        std::process::exit(4);
    }
}
