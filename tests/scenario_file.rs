//! Hostile scenario files: whatever bytes a file holds,
//! `cnet_cli::cell::load_scenario` — the read, the parse, the unread-key
//! check, the network build and the fabric and workload checks, all
//! before anything runs — answers in bounded time with a cell or a
//! typed `CliError`, never a panic or a hang. Named mutations of the
//! committed `examples/scenario_lossy_fabric.json` each come back with
//! their own message and exit code 2, and the file left as it is loads
//! and round-trips.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use cnet_cli::cell::{load_scenario, ScenarioSpec};
use cnet_cli::CliError;
use proptest::prelude::*;
use serde::{Deserialize, Serialize};

const EXAMPLE: &str = include_str!("../examples/scenario_lossy_fabric.json");

/// How long one load may take before it counts as a hang.
const LOAD_BOUND: Duration = Duration::from_secs(10);

/// Writes `bytes` to a scenario file of its own, loads it on a thread
/// of its own, and removes the file: `Err` names a panic or a hang.
fn load_bounded(bytes: &[u8]) -> Result<Result<ScenarioSpec, CliError>, String> {
    static FILES: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "cnet-hostile-scenario-{}-{}",
        std::process::id(),
        FILES.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, bytes).map_err(|e| e.to_string())?;
    let file = path.to_str().expect("utf-8 temp path").to_string();
    let (tx, rx) = mpsc::channel();
    let loader = thread::spawn(move || {
        let _ = tx.send(load_scenario(&file).map(|(spec, ..)| spec));
    });
    let answer = match rx.recv_timeout(LOAD_BOUND) {
        Ok(loaded) => {
            loader.join().expect("the loader sent its result");
            Ok(loaded)
        }
        // the loader is left running; the case fails
        Err(mpsc::RecvTimeoutError::Timeout) => Err(format!("no answer within {LOAD_BOUND:?}")),
        Err(mpsc::RecvTimeoutError::Disconnected) => Err(match loader.join() {
            Err(panic) => format!("the load panicked: {panic:?}"),
            Ok(()) => "the loader sent nothing".to_string(),
        }),
    };
    let _ = std::fs::remove_file(&path);
    answer
}

/// Each mutation of the example: its name, the text it replaces, the
/// text it puts there, and a fragment of the message it must give.
const MUTATIONS: [(&str, &str, &str, &str); 10] = [
    (
        "a dropped key",
        "\"toggle_cost\": 200,",
        "",
        "missing field `toggle_cost`",
    ),
    (
        "an unknown key",
        "\"total_ops\": 2000,",
        "\"total_ops\": 2000, \"window\": 8,",
        "unknown key `workload.window`",
    ),
    (
        "a string where a number goes",
        "\"wait_cycles\": 1000",
        "\"wait_cycles\": \"1000\"",
        "field `wait_cycles`: expected unsigned integer",
    ),
    (
        "loss_per_million above 10^6",
        "\"loss_per_million\": 10000",
        "\"loss_per_million\": 1000001",
        "loss_per_million must be <= 1_000_000",
    ),
    (
        "delayed_percent 101",
        "\"delayed_percent\": 25",
        "\"delayed_percent\": 101",
        "must be at most 100",
    ),
    (
        "processors 0",
        "\"processors\": 32",
        "\"processors\": 0",
        "processors (n) must be at least 1",
    ),
    (
        "an unknown kind",
        "\"kind\": \"bitonic\"",
        "\"kind\": \"moebius\"",
        "unknown network kind `moebius`",
    ),
    (
        "width 3",
        "\"width\": 16",
        "\"width\": 3",
        "width 3 is not a power of two",
    ),
    (
        "width 8192",
        "\"width\": 16",
        "\"width\": 8192",
        "width 8192 is above the bound 4096",
    ),
    (
        "total_ops at usize::MAX",
        "\"total_ops\": 2000",
        "\"total_ops\": 18446744073709551615",
        "more operations than one run can record",
    ),
];

#[test]
fn the_example_loads_and_round_trips() {
    let spec = load_bounded(EXAMPLE.as_bytes())
        .unwrap()
        .expect("the committed example loads");
    assert_eq!(spec.name, "lossy-fabric-bitonic16");
    let written = serde::json::to_string_pretty(&spec.to_value());
    let again = load_bounded(written.as_bytes())
        .unwrap()
        .expect("the written spec loads");
    assert_eq!(again, spec);
    let document = serde::json::from_str(EXAMPLE).unwrap();
    assert_eq!(ScenarioSpec::from_value(&document).unwrap(), spec);
}

#[test]
fn each_named_mutation_gives_its_own_message_and_exit_2() {
    let mut messages = Vec::new();
    for (name, from, to, fragment) in MUTATIONS {
        assert!(EXAMPLE.contains(from), "{name}: the example holds `{from}`");
        let mutated = EXAMPLE.replacen(from, to, 1);
        let e = load_bounded(mutated.as_bytes())
            .unwrap_or_else(|hang| panic!("{name}: {hang}"))
            .expect_err(name);
        assert_eq!(e.exit_code(), 2, "{name}: {e}");
        let message = e.to_string();
        assert!(message.contains(fragment), "{name}: {message}");
        messages.push(message);
    }
    // no two mutations are refused with one message
    for (i, message) in messages.iter().enumerate() {
        assert!(
            !messages[..i].contains(message),
            "{}: {message}",
            MUTATIONS[i].0
        );
    }
}

/// Bytes a scenario file is made of, weighted toward JSON's punctuation
/// and the example's own words.
const ALPHABET: &[u8] = b"{}[]{}[]:,:,\"\"\"\"  \n0123456789-.eEtruefalsnl\\kindwidth";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_load_or_name_their_error(
        raw in proptest::collection::vec(0u8..=255, 0..256),
        picks in proptest::collection::vec(0usize..ALPHABET.len(), 0..256),
        cut in 0usize..EXAMPLE.len(),
    ) {
        let shaped: Vec<u8> = picks.iter().map(|&i| ALPHABET[i]).collect();
        // the example cut short, then the shaped bytes
        let truncated = [&EXAMPLE.as_bytes()[..cut], &shaped[..]].concat();
        for bytes in [raw, shaped, truncated] {
            if let Err(e) = load_bounded(&bytes)? {
                prop_assert_eq!(e.exit_code(), 2, "{}", e);
            }
        }
    }
}
