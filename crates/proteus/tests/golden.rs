//! Golden-trace regression tests for the simulator.
//!
//! The fixtures in `tests/fixtures/golden_traces.json` were captured
//! from the pre-optimization simulator (BinaryHeap event queue, the
//! vendored `rand::StdRng`). The bucket-wheel event queue and the
//! inlined `SimRng` must be *trace-identical*: same seed ⇒ identical
//! `sim_time`, identical operation records (pinned via an FNV-1a hash
//! over every field of every operation, in completion order), and
//! identical violation counts.
//!
//! Regenerate with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p cnet-proteus --test golden
//! ```
//!
//! but only do so for an *intentional* stream change — regeneration
//! erases the evidence the tests exist to provide.

use cnet_engine::{RunStats, WaitMode, Workload};
use cnet_proteus::{Fabric, LinkSpec, RetryPolicy, SimConfig, Simulator, SwitchSpec};
use cnet_topology::constructions;
use serde::{json, Value};

const FIXTURE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_traces.json"
);

/// One pinned scenario: everything needed to re-run it plus the
/// measurements the run must reproduce.
struct Case {
    name: &'static str,
    run: fn() -> RunStats,
}

fn workload(
    processors: usize,
    delayed_percent: u32,
    wait_cycles: u64,
    total_ops: usize,
    wait_mode: WaitMode,
) -> Workload {
    Workload {
        total_ops,
        wait_mode,
        ..Workload::paper(processors, delayed_percent, wait_cycles)
    }
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "bitonic8_queue_lock",
            run: || {
                let net = constructions::bitonic(8).unwrap();
                Simulator::new(&net, SimConfig::queue_lock(5)).run(&workload(
                    16,
                    25,
                    1_000,
                    400,
                    WaitMode::Fixed,
                ))
            },
        },
        Case {
            name: "bitonic32_queue_lock_highwait",
            run: || {
                let net = constructions::bitonic(32).unwrap();
                Simulator::new(&net, SimConfig::queue_lock(7)).run(&workload(
                    64,
                    50,
                    100_000,
                    600,
                    WaitMode::Fixed,
                ))
            },
        },
        Case {
            name: "tree16_diffracting",
            run: || {
                let net = constructions::counting_tree(16).unwrap();
                Simulator::new(&net, SimConfig::diffracting(11)).run(&workload(
                    32,
                    50,
                    10_000,
                    500,
                    WaitMode::Fixed,
                ))
            },
        },
        Case {
            name: "tree8_uniform_random",
            run: || {
                let net = constructions::counting_tree(8).unwrap();
                Simulator::new(&net, SimConfig::diffracting(3)).run(&workload(
                    16,
                    0,
                    500,
                    300,
                    WaitMode::UniformRandom,
                ))
            },
        },
        Case {
            // One cell of the Figure 5 sweep (width-32 bitonic,
            // F = 25%), pinned on the figure5 suite's base seed so
            // the fabric refactor is provably trace-identical on the
            // published experiment's stream.
            name: "figure5_cell_bitonic32",
            run: || {
                let net = constructions::bitonic(32).unwrap();
                Simulator::new(&net, SimConfig::queue_lock(0xF165)).run(&workload(
                    16,
                    25,
                    1_000,
                    500,
                    WaitMode::Fixed,
                ))
            },
        },
        Case {
            // One cell of the Figure 6 sweep (F = 50%), on the figure6
            // suite's base seed.
            name: "figure6_cell_bitonic32",
            run: || {
                let net = constructions::bitonic(32).unwrap();
                Simulator::new(&net, SimConfig::queue_lock(0xF166)).run(&workload(
                    32,
                    50,
                    10_000,
                    500,
                    WaitMode::Fixed,
                ))
            },
        },
        Case {
            // The committed lossy scenario
            // (`examples/scenario_lossy_fabric.json`): finite link and
            // switch queues, 1% loss, NACK backpressure — the one
            // queued-fabric stream, pinned trace by trace.
            name: "bitonic16_lossy_fabric",
            run: || {
                let net = constructions::bitonic(16).unwrap();
                let config = SimConfig {
                    fabric: Fabric {
                        link: LinkSpec {
                            delay: 20,
                            jitter: 200,
                            service: 8,
                            capacity: 2,
                            loss_per_million: 10_000,
                        },
                        switch: SwitchSpec {
                            service: 4,
                            capacity: 4,
                        },
                        backpressure: true,
                        retry: RetryPolicy {
                            backoff_base: 64,
                            backoff_cap: 2048,
                            max_attempts: 16,
                        },
                    },
                    ..SimConfig::queue_lock(42)
                };
                Simulator::new(&net, config).run(&workload(32, 25, 1_000, 2_000, WaitMode::Fixed))
            },
        },
    ]
}

/// FNV-1a over every field of every operation, in completion order —
/// any reordering, retiming, or revaluing of the trace changes it.
fn trace_hash(stats: &RunStats) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for op in &stats.operations {
        mix(op.token as u64);
        mix(op.input as u64);
        mix(op.start);
        mix(op.end);
        mix(op.counter as u64);
        mix(op.value);
    }
    for p in stats.completed_by.iter() {
        mix(p as u64);
    }
    h
}

fn snapshot(stats: &RunStats) -> Value {
    Value::Object(vec![
        ("sim_time".to_string(), Value::Uint(stats.sim_time)),
        (
            "operations".to_string(),
            Value::Uint(stats.operations.len() as u64),
        ),
        ("trace_hash".to_string(), Value::Uint(trace_hash(stats))),
        (
            "nonlinearizable".to_string(),
            Value::Uint(stats.nonlinearizable_count() as u64),
        ),
        (
            "program_order_violations".to_string(),
            Value::Uint(stats.program_order_violations() as u64),
        ),
        (
            "toggle_count".to_string(),
            Value::Uint(stats.sim.unwrap().toggle_count),
        ),
        (
            "diffraction_pairs".to_string(),
            Value::Uint(stats.sim.unwrap().diffraction_pairs),
        ),
        (
            "first_values".to_string(),
            Value::Array(
                stats
                    .operations
                    .iter()
                    .take(8)
                    .map(|o| Value::Uint(o.value))
                    .collect(),
            ),
        ),
    ])
}

#[test]
fn traces_match_the_committed_fixtures() {
    let regen = std::env::var("GOLDEN_REGEN").is_ok();
    if regen {
        let fields = cases()
            .iter()
            .map(|c| (c.name.to_string(), snapshot(&(c.run)())))
            .collect();
        std::fs::write(
            FIXTURE_PATH,
            json::to_string_pretty(&Value::Object(fields)) + "\n",
        )
        .expect("write fixtures");
        return;
    }
    let text = std::fs::read_to_string(FIXTURE_PATH)
        .expect("fixtures present; regenerate with GOLDEN_REGEN=1");
    let pinned = json::from_str(&text).expect("fixtures parse");
    for case in cases() {
        let expected = pinned
            .get(case.name)
            .unwrap_or_else(|| panic!("fixture for `{}` missing", case.name));
        let actual = snapshot(&(case.run)());
        assert_eq!(
            &actual, expected,
            "`{}` diverged from its pre-swap fixture",
            case.name
        );
    }
}

#[test]
fn fixture_file_is_committed() {
    // the regeneration path must never be the way the test passes in CI
    assert!(
        std::path::Path::new(FIXTURE_PATH).exists(),
        "golden fixtures must be committed"
    );
}
