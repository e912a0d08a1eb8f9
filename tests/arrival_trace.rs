//! Hostile arrival traces: whatever bytes a trace file holds,
//! `Workload::check` — the one place a trace is read — answers in
//! bounded time with a checked workload or a named `WorkloadError`,
//! never a panic or a hang, and a path that is not a regular file is
//! refused unopened. Arbitrary bytes and structured mutations
//! of the committed `examples/arrival_trace.txt` each come back as the
//! error their mutation names, and the file left as it is replays its
//! instants.

use std::path::Path;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use cnet_engine::{arrival_schedule, ArrivalProcess, CheckedWorkload, Workload, WorkloadError};
use proptest::prelude::*;

const EXAMPLE: &str = include_str!("../examples/arrival_trace.txt");

/// The example's instants, as the loader has always read them.
const INSTANTS: [u64; 25] = [
    0, 40, 75, 75, 130, 2000, 2030, 2030, 2095, 2180, 6500, 6505, 6510, 6540, 6700, 9000, 9120,
    9120, 9121, 9350, 15000, 15010, 15095, 15095, 15260,
];

/// How long one check may take before it counts as a hang.
const CHECK_BOUND: Duration = Duration::from_secs(10);

/// What one bounded check answered: `Err` names a panic or a hang.
type Answer = Result<Result<CheckedWorkload, WorkloadError>, String>;

/// Writes `bytes` to a trace file of its own, checks a `total_ops`
/// workload replaying it on a thread of its own, and removes the file.
fn check_bounded(bytes: &[u8], total_ops: usize) -> Answer {
    static FILES: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "cnet-hostile-trace-{}-{}",
        std::process::id(),
        FILES.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, bytes).map_err(|e| e.to_string())?;
    let answer = check_at(&path, total_ops);
    let _ = std::fs::remove_file(&path);
    answer
}

/// Checks a `total_ops` workload replaying the trace at `path` on a
/// thread of its own.
fn check_at(path: &Path, total_ops: usize) -> Answer {
    let workload = Workload {
        total_ops,
        arrival: ArrivalProcess::Trace {
            path: path.to_str().expect("utf-8 temp path").to_string(),
        },
        ..Workload::paper(4, 0, 0)
    };
    let (tx, rx) = mpsc::channel();
    let checker = thread::spawn(move || {
        let _ = tx.send(workload.check());
    });
    match rx.recv_timeout(CHECK_BOUND) {
        Ok(checked) => {
            checker.join().expect("the checker sent its result");
            Ok(checked)
        }
        // the checker is left running; the case fails
        Err(mpsc::RecvTimeoutError::Timeout) => Err(format!("no answer within {CHECK_BOUND:?}")),
        Err(mpsc::RecvTimeoutError::Disconnected) => Err(match checker.join() {
            Err(panic) => format!("the check panicked: {panic:?}"),
            Ok(()) => "the checker sent nothing".to_string(),
        }),
    }
}

/// The error a check of `bytes` gave, or `None` when it passed.
fn check_error(bytes: &[u8], total_ops: usize) -> Result<Option<WorkloadError>, String> {
    Ok(check_bounded(bytes, total_ops)?.err())
}

/// The example's lines, and the indices of those holding an instant.
fn example_lines() -> (Vec<String>, Vec<usize>) {
    let lines: Vec<String> = EXAMPLE.lines().map(str::to_string).collect();
    let data = (0..lines.len())
        .filter(|&i| !lines[i].is_empty() && !lines[i].starts_with('#'))
        .collect();
    (lines, data)
}

fn text(lines: &[String]) -> Vec<u8> {
    (lines.join("\n") + "\n").into_bytes()
}

/// Bytes a trace is made of, and some it is not, weighted toward the
/// shapes a recording has.
const ALPHABET: &[u8] = b"0123456789012345678901234567890123456789\n\n\n\n  \t#+-x.";

#[test]
fn the_example_checks_to_its_recorded_instants() {
    let checked = check_bounded(EXAMPLE.as_bytes(), INSTANTS.len())
        .unwrap()
        .expect("the committed example checks");
    assert_eq!(arrival_schedule(&checked, 1), INSTANTS);
    // cycled: the second lap starts one recording-span after the first
    let checked = check_bounded(EXAMPLE.as_bytes(), 2 * INSTANTS.len() - 1)
        .unwrap()
        .unwrap();
    let lap: Vec<u64> = INSTANTS[1..]
        .iter()
        .map(|t| t + INSTANTS[INSTANTS.len() - 1])
        .collect();
    assert_eq!(arrival_schedule(&checked, 1)[INSTANTS.len()..], lap);
}

/// A path that is not a regular file is refused before it is opened:
/// opening a FIFO that no process writes blocks until one does.
#[test]
fn a_fifo_is_refused_without_being_opened() {
    let path = std::env::temp_dir().join(format!("cnet-fifo-trace-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let made = Command::new("mkfifo")
        .arg(&path)
        .status()
        .expect("mkfifo runs");
    assert!(made.success(), "mkfifo {}", path.display());
    let answer = check_at(&path, 4);
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        answer.map(Result::err),
        Ok(Some(WorkloadError::UnreadableTrace))
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_check_or_name_their_error(
        raw in proptest::collection::vec(0u8..=255, 0..256),
        picks in proptest::collection::vec(0usize..ALPHABET.len(), 0..256),
        ops in 1usize..5000,
    ) {
        let shaped: Vec<u8> = picks.iter().map(|&i| ALPHABET[i]).collect();
        for bytes in [raw, shaped] {
            match check_error(&bytes, ops)? {
                None
                | Some(
                    WorkloadError::UnreadableTrace
                    | WorkloadError::UnsortedTrace
                    | WorkloadError::EmptyTrace
                    | WorkloadError::ArrivalOverflow,
                ) => {}
                Some(e) => prop_assert!(false, "{e:?} from {:?}", String::from_utf8_lossy(&bytes)),
            }
        }
    }

    #[test]
    fn mutated_example_traces_name_their_error(
        mutation in 0usize..6,
        a in 0usize..1 << 16,
        ops in 2usize..5000,
    ) {
        let (mut lines, data) = example_lines();
        let expected = match mutation {
            // a decreasing instant: one below its predecessor
            0 => {
                let at = data[2 + a % (data.len() - 2)];
                let prev = data[data.iter().position(|&i| i == at).unwrap() - 1];
                let before: u64 = lines[prev].trim().parse().unwrap();
                lines[at] = (before - 1).to_string();
                WorkloadError::UnsortedTrace
            }
            // comments and blank lines only
            1 => {
                for &i in &data {
                    lines[i] = if a % 2 == 0 { String::new() } else { format!("# {}", lines[i]) };
                }
                WorkloadError::EmptyTrace
            }
            // a single instant
            2 => {
                let keep = data[a % data.len()];
                for &i in data.iter().filter(|&&i| i != keep) {
                    lines[i].clear();
                }
                WorkloadError::EmptyTrace
            }
            // a token that is not an unsigned integer
            3 => {
                let token = ["12x", "-5", "1.5", "0x10", "40 50", "abc", "\u{663}"][a % 7];
                lines[data[a % data.len()]] = token.to_string();
                WorkloadError::UnreadableTrace
            }
            // an instant past u64
            4 => {
                let past = u128::from(u64::MAX) + 1 + a as u128;
                lines[data[a % data.len()]] = past.to_string();
                WorkloadError::UnreadableTrace
            }
            // an appended instant whose gap makes the recording span
            // `span`: the run replays `laps` whole recordings, one lap
            // more than half the clock's range holds
            _ => {
                let gaps = data.len();
                let laps = 2 + a % 4;
                let span = u64::MAX / 2 / laps as u64 + 1 + a as u64;
                lines.push(span.to_string());
                let trace = text(&lines);
                prop_assert_eq!(check_error(&trace, (laps - 1) * gaps + 1)?, None);
                let overflowing = laps * gaps + 1 + ops % gaps;
                prop_assert_eq!(
                    check_error(&trace, overflowing)?,
                    Some(WorkloadError::ArrivalOverflow)
                );
                return Ok(());
            }
        };
        let mutated = text(&lines);
        prop_assert_eq!(
            check_error(&mutated, ops)?,
            Some(expected),
            "mutation {} of:\n{}",
            mutation,
            String::from_utf8_lossy(&mutated)
        );
    }
}
