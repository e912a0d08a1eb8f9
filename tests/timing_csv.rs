//! Hostile timing CSV: whatever text a schedule or trace file holds,
//! `timing::io::schedule_from_csv` and `operations_from_csv` answer on
//! a thread of their own in bounded time with a value or a
//! `TimingError`, never a panic or a hang. Named mutations of a
//! `schedule_to_csv` and an `operations_to_csv` document each come back
//! as the error their mutation names, a parsed schedule replayed
//! through `TimedExecutor` on a network it does not fit is a typed
//! error, and the documents left as they are round-trip.
//!
//! A non-numeric field is pinned as the loader reports it: a
//! `DepthMismatch` on its row with `got: 0`.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use cnet_timing::executor::TimedExecutor;
use cnet_timing::io::{operations_from_csv, operations_to_csv, schedule_from_csv, schedule_to_csv};
use cnet_timing::{random, LinkTiming, Operation, TimingError, TimingSchedule};
use cnet_topology::{constructions, Topology};
use proptest::prelude::*;

const KINDS: [&str; 3] = ["bitonic", "periodic", "tree"];

/// How long one parse or replay may take before it counts as a hang.
const BOUND: Duration = Duration::from_secs(10);

/// Runs `job` on a thread of its own: `Err` names a panic or a hang.
fn bounded<T: Send + 'static>(job: impl FnOnce() -> T + Send + 'static) -> Result<T, String> {
    let (tx, rx) = mpsc::channel();
    let worker = thread::spawn(move || {
        let _ = tx.send(job());
    });
    match rx.recv_timeout(BOUND) {
        Ok(answer) => {
            worker.join().expect("the worker sent its result");
            Ok(answer)
        }
        // the worker is left running; the case fails
        Err(mpsc::RecvTimeoutError::Timeout) => Err(format!("no answer within {BOUND:?}")),
        Err(mpsc::RecvTimeoutError::Disconnected) => Err(match worker.join() {
            Err(panic) => format!("the worker panicked: {panic:?}"),
            Ok(()) => "the worker sent nothing".to_string(),
        }),
    }
}

fn parse_schedule(text: &str) -> Result<Result<TimingSchedule, TimingError>, String> {
    let text = text.to_string();
    bounded(move || schedule_from_csv(&text))
}

fn parse_trace(text: &str) -> Result<Result<Vec<Operation>, TimingError>, String> {
    let text = text.to_string();
    bounded(move || operations_from_csv(&text))
}

fn replay(net: &Topology, schedule: TimingSchedule) -> Result<Result<(), TimingError>, String> {
    let net = net.clone();
    bounded(move || TimedExecutor::new(&net).run(&schedule).map(drop))
}

/// A network of `KINDS[kind]` and width `2^exp`, and a uniform schedule
/// of `tokens` tokens over it.
fn document(
    shape: (usize, u32),
    c1: u64,
    stretch: u64,
    tokens: usize,
    seed: u64,
) -> (Topology, TimingSchedule) {
    let net =
        constructions::by_name(KINDS[shape.0], 1 << shape.1, 2).expect("a power-of-two width");
    let timing = LinkTiming::new(c1, c1 * stretch).expect("c1 <= c2");
    let schedule =
        random::uniform_schedule(&net, timing, tokens, 2 * c1, seed).expect("tokens > 0");
    (net, schedule)
}

/// A document's lines, split into fields.
fn rows(csv: &str) -> Vec<Vec<String>> {
    csv.lines()
        .map(|l| l.split(',').map(str::to_string).collect())
        .collect()
}

fn join(rows: &[Vec<String>]) -> String {
    rows.iter().map(|r| r.join(",") + "\n").collect()
}

/// Text a field may not hold: no token here parses as a `u64` (a
/// leading `+` or surrounding blanks would).
const NOT_A_NUMBER: [&str; 6] = ["x", "-1", "1.5", "", "0x10", "18446744073709551616"];

/// Bytes a CSV document is made of, and some it is not.
const ALPHABET: &[u8] = b"0123456789012345678901234567890123456789,,,,,,,,\n\n\n\n  \r\t-+x.";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_text_parses_or_names_its_error(
        raw in proptest::collection::vec(0u8..=255, 0..256),
        picks in proptest::collection::vec(0usize..ALPHABET.len(), 0..256),
        edits in proptest::collection::vec((0usize..1 << 16, 0usize..ALPHABET.len()), 1..8),
        shape in (0usize..KINDS.len(), 1u32..=4),
        seed in 0u64..1 << 32,
    ) {
        let (net, schedule) = document(shape, 3, 3, 8, seed);
        let ops = TimedExecutor::new(&net).run(&schedule).expect("a fitting schedule").operations().to_vec();
        let shaped: Vec<u8> = picks.iter().map(|&i| ALPHABET[i]).collect();
        // the two documents, each with a few bytes overwritten
        let edit = |csv: String| {
            let mut bytes = csv.into_bytes();
            for &(at, byte) in &edits {
                let at = at % bytes.len();
                bytes[at] = ALPHABET[byte];
            }
            bytes
        };
        let edited = [edit(schedule_to_csv(&schedule)), edit(operations_to_csv(&ops))];
        for bytes in [raw, shaped].into_iter().chain(edited) {
            let text = String::from_utf8_lossy(&bytes).into_owned();
            match parse_schedule(&text)? {
                // whatever loads replays to a typed answer
                Ok(parsed) => {
                    if let Err(e) = replay(&net, parsed)? {
                        prop_assert!(
                            matches!(
                                e,
                                TimingError::DepthMismatch { .. } | TimingError::InputOutOfRange { .. }
                            ),
                            "replay gave {e:?} for {text:?}"
                        );
                    }
                }
                Err(
                    TimingError::DepthMismatch { .. }
                    | TimingError::NonMonotonicTimes { .. }
                    | TimingError::TokenIdMismatch { .. }
                    | TimingError::EmptySchedule,
                ) => {}
                Err(e) => prop_assert!(false, "schedule_from_csv gave {e:?} for {text:?}"),
            }
            match parse_trace(&text)? {
                Ok(_) | Err(TimingError::DepthMismatch { .. } | TimingError::EmptySchedule) => {}
                Err(e) => prop_assert!(false, "operations_from_csv gave {e:?} for {text:?}"),
            }
        }
    }

    #[test]
    fn mutated_schedule_documents_name_their_error(
        shape in (0usize..KINDS.len(), 1u32..=4),
        timing in (1u64..=10, 1u64..=4),
        tokens in 1usize..40,
        seed in 0u64..1 << 32,
        mutation in 0usize..=8,
        a in 0usize..1 << 16,
        b in 0usize..1 << 16,
    ) {
        let (net, schedule) = document(shape, timing.0, timing.1, tokens, seed);
        let csv = schedule_to_csv(&schedule);
        let (h, n) = (net.depth(), schedule.len());
        let mut lines = rows(&csv);
        // a data row, its 0-based index, and a column of it
        let r = a % n;
        let row = &mut lines[r + 1];
        let expected = match mutation {
            // a dropped column
            0 => {
                row.remove(b % row.len());
                TimingError::DepthMismatch { token: r, got: h, expected: h + 1 }
            }
            // an extra column
            1 => {
                let last = row[row.len() - 1].clone();
                row.push(last);
                TimingError::DepthMismatch { token: r, got: h + 2, expected: h + 1 }
            }
            // a time that is not a number
            2 => {
                row[2 + b % (h + 1)] = NOT_A_NUMBER[a % NOT_A_NUMBER.len()].to_string();
                TimingError::DepthMismatch { token: r, got: 0, expected: h + 1 }
            }
            // a time at or below the one before it
            3 => {
                let link = b % h;
                let before: u64 = row[2 + link].parse().unwrap();
                row[3 + link] = before.saturating_sub((a % 2) as u64).to_string();
                TimingError::NonMonotonicTimes { token: r, link }
            }
            // a token id out of order: two rows' ids exchanged, or one
            // row's replaced on a one-row schedule
            4 => {
                if n == 1 {
                    let id = 1 + (b % 3) as u64;
                    row[0] = id.to_string();
                    TimingError::TokenIdMismatch { row: 0, id }
                } else {
                    let s = (r + 1 + b % (n - 1)) % n;
                    lines[r + 1][0] = s.to_string();
                    lines[s + 1][0] = r.to_string();
                    TimingError::TokenIdMismatch { row: r.min(s), id: r.max(s) as u64 }
                }
            }
            // the header only
            5 => {
                lines.truncate(1);
                TimingError::EmptySchedule
            }
            // nothing, or blank lines only
            6 => {
                lines.truncate(b % 3);
                for line in &mut lines {
                    *line = vec![" ".repeat(a % 3)];
                }
                TimingError::EmptySchedule
            }
            // an input the network does not have: the file loads, the
            // replay refuses it
            7 => {
                let input = net.input_width() + b % 4;
                row[1] = input.to_string();
                let parsed = parse_schedule(&join(&lines))?;
                prop_assert!(parsed.is_ok(), "{parsed:?}");
                prop_assert_eq!(
                    replay(&net, parsed.unwrap())?,
                    Err(TimingError::InputOutOfRange { token: r, input, width: net.input_width() })
                );
                return Ok(());
            }
            // unmutated: the document round-trips, replays as the
            // schedule does, and a network deeper by `pad` refuses it
            _ => {
                let parsed = parse_schedule(&csv)?;
                prop_assert_eq!(parsed.as_ref(), Ok(&schedule));
                let parsed = parsed.unwrap();
                prop_assert_eq!(schedule_to_csv(&parsed), csv);
                let executor = TimedExecutor::new(&net);
                let (again, before) = (executor.run(&parsed).unwrap(), executor.run(&schedule).unwrap());
                prop_assert_eq!(again.operations(), before.operations());
                let pad = 1 + b % 3;
                let deeper = constructions::pad_inputs(&net, pad).unwrap();
                prop_assert_eq!(
                    replay(&deeper, parsed)?,
                    Err(TimingError::DepthMismatch { token: 0, got: h + 1, expected: h + 1 + pad })
                );
                return Ok(());
            }
        };
        let mutated = join(&lines);
        prop_assert_eq!(parse_schedule(&mutated)?.err(), Some(expected), "mutation {} of:\n{}", mutation, mutated);
    }

    #[test]
    fn mutated_trace_documents_name_their_error(
        shape in (0usize..KINDS.len(), 1u32..=4),
        tokens in 1usize..40,
        seed in 0u64..1 << 32,
        mutation in 0usize..=3,
        a in 0usize..1 << 16,
        b in 0usize..1 << 16,
    ) {
        let (net, schedule) = document(shape, 3, 3, tokens, seed);
        let ops = TimedExecutor::new(&net).run(&schedule).unwrap().operations().to_vec();
        let csv = operations_to_csv(&ops);
        let mut lines = rows(&csv);
        let r = a % ops.len();
        let row = &mut lines[r + 1];
        let got = match mutation {
            // five fields
            0 => {
                row.remove(b % 6);
                5
            }
            // an input of 2^32
            1 => {
                row[1] = (1u64 << 32).to_string();
                0
            }
            // a value that is not a number
            2 => {
                row[5] = NOT_A_NUMBER[b % NOT_A_NUMBER.len()].to_string();
                0
            }
            // unmutated: the trace round-trips
            _ => {
                prop_assert_eq!(parse_trace(&csv)?, Ok(ops));
                return Ok(());
            }
        };
        let mutated = join(&lines);
        prop_assert_eq!(
            parse_trace(&mutated)?.err(),
            Some(TimingError::DepthMismatch { token: r, got, expected: 6 }),
            "mutation {} of:\n{}",
            mutation,
            mutated
        );
    }
}
