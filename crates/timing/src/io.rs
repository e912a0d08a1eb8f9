//! Plain-text (CSV) serialization of schedules and executions.
//!
//! Schedules and operation traces are the natural exchange artifacts of
//! this library — a schedule pins down an execution completely, and a
//! trace is what external tooling plots. Both use a simple CSV dialect
//! with a header line, so they can round-trip through spreadsheets and
//! scripts without any extra dependency.
//!
//! Schedule format (one row per token):
//!
//! ```text
//! token,input,t1,t2,...,t{h+1}
//! 0,0,0,30,60
//! ```
//!
//! Trace format (one row per operation):
//!
//! ```text
//! token,input,start,end,counter,value
//! 0,0,0,60,0,0
//! ```

use std::fmt::Write as _;

use crate::error::TimingError;
use crate::execution::Operation;
use crate::link::Time;
use crate::schedule::{TimingSchedule, TokenSchedule};

/// Renders a schedule as CSV (including the header).
#[must_use]
pub fn schedule_to_csv(schedule: &TimingSchedule) -> String {
    let h = schedule.depth();
    let mut out = String::from("token,input");
    for j in 1..=h + 1 {
        let _ = write!(out, ",t{j}");
    }
    out.push('\n');
    for (k, tok) in schedule.tokens().iter().enumerate() {
        let _ = write!(out, "{k},{}", tok.input);
        for t in &tok.times {
            let _ = write!(out, ",{t}");
        }
        out.push('\n');
    }
    out
}

/// Parses a schedule from the CSV produced by [`schedule_to_csv`].
///
/// Tokens must appear with consecutive ids starting at 0 (the id
/// column is validated, not trusted).
///
/// # Errors
///
/// Returns [`TimingError::DepthMismatch`] or
/// [`TimingError::NonMonotonicTimes`] for malformed rows,
/// [`TimingError::TokenIdMismatch`] for a row whose id is not its row
/// index, and [`TimingError::EmptySchedule`] for a header-only file.
/// Any non-numeric field is reported as a `DepthMismatch` on the
/// offending token (the row is unusable either way).
pub fn schedule_from_csv(csv: &str) -> Result<TimingSchedule, TimingError> {
    let mut lines = csv.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or(TimingError::EmptySchedule)?;
    let columns = header.split(',').count();
    if columns < 3 {
        return Err(TimingError::EmptySchedule);
    }
    let depth = columns - 3; // token, input, h+1 times
    let mut schedule = TimingSchedule::new(depth);
    for (row, line) in lines.enumerate() {
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != columns {
            return Err(TimingError::DepthMismatch {
                token: row,
                got: fields.len().saturating_sub(2),
                expected: depth + 1,
            });
        }
        let parse = |s: &str| -> Result<Time, TimingError> {
            s.trim().parse().map_err(|_| TimingError::DepthMismatch {
                token: row,
                got: 0,
                expected: depth + 1,
            })
        };
        let id = parse(fields[0])?;
        if id != row as u64 {
            return Err(TimingError::TokenIdMismatch { row, id });
        }
        let input = parse(fields[1])? as usize;
        let times: Vec<Time> = fields[2..]
            .iter()
            .map(|f| parse(f))
            .collect::<Result<_, _>>()?;
        schedule.push(TokenSchedule { input, times })?;
    }
    if schedule.is_empty() {
        return Err(TimingError::EmptySchedule);
    }
    Ok(schedule)
}

/// Renders an operation trace as CSV (including the header).
#[must_use]
pub fn operations_to_csv(ops: &[Operation]) -> String {
    let mut out = String::from("token,input,start,end,counter,value\n");
    for o in ops {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{}",
            o.token, o.input, o.start, o.end, o.counter, o.value
        );
    }
    out
}

/// Parses an operation trace from the CSV produced by
/// [`operations_to_csv`].
///
/// # Errors
///
/// Returns [`TimingError::EmptySchedule`] for an empty file and
/// `DepthMismatch` (with the row index as the token) for malformed
/// rows, including a field out of its type's range (an `input` or
/// `counter` of 2³² or more).
pub fn operations_from_csv(csv: &str) -> Result<Vec<Operation>, TimingError> {
    let mut lines = csv.lines().filter(|l| !l.trim().is_empty());
    let _header = lines.next().ok_or(TimingError::EmptySchedule)?;
    let mut ops = Vec::new();
    for (row, line) in lines.enumerate() {
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 6 {
            return Err(TimingError::DepthMismatch {
                token: row,
                got: fields.len(),
                expected: 6,
            });
        }
        let malformed = || TimingError::DepthMismatch {
            token: row,
            got: 0,
            expected: 6,
        };
        let int = |s: &str| s.trim().parse::<u64>().map_err(|_| malformed());
        let wire = |s: &str| s.trim().parse::<u32>().map_err(|_| malformed());
        ops.push(Operation {
            token: usize::try_from(int(fields[0])?).map_err(|_| malformed())?,
            input: wire(fields[1])?,
            start: int(fields[2])?,
            end: int(fields[3])?,
            counter: wire(fields[4])?,
            value: int(fields[5])?,
        });
    }
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random;
    use crate::LinkTiming;
    use cnet_topology::constructions;

    #[test]
    fn schedule_round_trips() {
        let net = constructions::bitonic(8).unwrap();
        let timing = LinkTiming::new(3, 7).unwrap();
        let s = random::uniform_schedule(&net, timing, 40, 5, 9).unwrap();
        let csv = schedule_to_csv(&s);
        let back = schedule_from_csv(&csv).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn trace_round_trips() {
        let ops = vec![
            Operation {
                token: 0,
                input: 2,
                start: 0,
                end: 9,
                counter: 1,
                value: 1,
            },
            Operation {
                token: 1,
                input: 0,
                start: 4,
                end: 12,
                counter: 0,
                value: 0,
            },
        ];
        let csv = operations_to_csv(&ops);
        let back = operations_from_csv(&csv).unwrap();
        assert_eq!(ops, back);
    }

    #[test]
    fn trace_rows_out_of_range_are_refused_not_truncated() {
        let header = "token,input,start,end,counter,value\n";
        // 2^32 would wrap to wire 0 under an `as` cast
        for row in ["0,4294967296,0,9,1,1", "0,2,0,9,4294967296,1"] {
            assert!(
                matches!(
                    operations_from_csv(&format!("{header}{row}\n")),
                    Err(TimingError::DepthMismatch { token: 0, .. })
                ),
                "{row}"
            );
        }
        let widest = operations_from_csv(&format!("{header}0,4294967295,0,9,4294967295,1\n"));
        assert_eq!(widest.unwrap()[0].counter, u32::MAX);
        assert!(operations_from_csv(&format!("{header}18446744073709551616,0,0,9,0,1\n")).is_err());
    }

    #[test]
    fn header_only_is_empty() {
        assert!(matches!(
            schedule_from_csv("token,input,t1,t2\n"),
            Err(TimingError::EmptySchedule)
        ));
        assert!(matches!(
            schedule_from_csv(""),
            Err(TimingError::EmptySchedule)
        ));
    }

    #[test]
    fn malformed_rows_rejected() {
        let csv = "token,input,t1,t2\n0,0,5\n";
        assert!(schedule_from_csv(csv).is_err());
        let csv = "token,input,t1,t2\n0,0,abc,9\n";
        assert!(schedule_from_csv(csv).is_err());
        let csv = "token,input,t1,t2\n0,0,9,5\n"; // non-monotonic
        assert!(matches!(
            schedule_from_csv(csv),
            Err(TimingError::NonMonotonicTimes { .. })
        ));
    }

    #[test]
    fn a_row_whose_id_is_not_its_index_is_refused() {
        let header = "token,input,t1,t2\n";
        // rows 0 and 1 swapped
        let swapped = format!("{header}1,0,5,9\n0,1,6,10\n");
        assert_eq!(
            schedule_from_csv(&swapped),
            Err(TimingError::TokenIdMismatch { row: 0, id: 1 })
        );
        // row 1 repeats id 0
        let repeated = format!("{header}0,0,5,9\n0,1,6,10\n");
        assert_eq!(
            schedule_from_csv(&repeated),
            Err(TimingError::TokenIdMismatch { row: 1, id: 0 })
        );
        assert!(schedule_from_csv(&format!("{header}0,0,5,9\n1,1,6,10\n")).is_ok());
    }

    #[test]
    fn parsed_schedule_replays_identically() {
        use crate::executor::TimedExecutor;
        let net = constructions::counting_tree(8).unwrap();
        let timing = LinkTiming::new(5, 25).unwrap();
        let s = random::uniform_schedule(&net, timing, 30, 4, 3).unwrap();
        let replayed = schedule_from_csv(&schedule_to_csv(&s)).unwrap();
        let a = TimedExecutor::new(&net).run(&s).unwrap();
        let b = TimedExecutor::new(&net).run(&replayed).unwrap();
        assert_eq!(a.operations(), b.operations());
    }
}
