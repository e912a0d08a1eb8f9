//! In-memory spans around the calls the benchmark makes into the
//! program, kept until the run ends and then written as JSON lines.
//!
//! Every span is recorded from the benchmark's side of a public
//! function; spans inside the program are a later change.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Identifier of a recorded span; 0 means "no parent".
pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    /// Request or pass the span belongs to; spans of one request share it.
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans on one thread. Worker threads time their own calls
/// against [`Tracer::epoch`] and hand the intervals over afterwards.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Records a finished span and returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let id = SpanId::try_from(self.spans.len() + 1).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, mut out: impl Write) -> io::Result<()> {
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Count, total time and self time of the spans sharing a name.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// A span's self time is its duration minus the part of that interval
/// its child spans cover; children that overlap each other, or stick
/// out of the parent, are not counted twice or beyond it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len() + 1];
    for s in spans {
        children[s.parent as usize].push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let kids = &mut children[s.id as usize];
            kids.sort_unstable();
            let mut covered = 0;
            let mut frontier = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(frontier);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    frontier = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// [`self_times`] summed by span name over the spans `counted` admits
/// (a span left out still covers its parent's time).
pub fn totals_by_name(
    spans: &[Span],
    counted: impl Fn(&Span) -> bool,
) -> BTreeMap<&'static str, NameTotals> {
    let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        if !counted(s) {
            continue;
        }
        let t = by_name.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        let root = t.push("root", 0, 1, 0, 100);
        // two children overlapping on 30..40, one sticking out past the
        // parent's end, one nested grandchild that must not count twice
        let a = t.push("child", root, 1, 10, 40);
        t.push("child", root, 1, 30, 60);
        t.push("child", root, 1, 90, 130);
        t.push("grandchild", a, 1, 15, 20);
        let selfs = self_times(t.spans());
        // covered: 10..60 and 90..100 = 60
        assert_eq!(selfs[0], 40);
        assert_eq!(selfs[1], 25);
        assert_eq!(selfs[4], 5);
        let totals = totals_by_name(t.spans(), |_| true);
        assert_eq!(
            totals["child"],
            NameTotals {
                count: 3,
                total_ns: 30 + 30 + 40,
                self_ns: 25 + 30 + 40
            }
        );
        assert_eq!(totals["root"].self_ns, 40);
        assert!(!totals_by_name(t.spans(), |s| s.name != "root").contains_key("root"));
    }

    #[test]
    fn a_span_without_children_is_all_self_time() {
        let mut t = Tracer::new();
        t.push("leaf", 0, 7, 5, 25);
        assert_eq!(self_times(t.spans()), vec![20]);
    }

    #[test]
    fn spans_round_trip_as_json_lines() {
        let mut t = Tracer::new();
        let root = t.push("pass", 0, 3, 0, 50);
        t.push("work", root, 3, 10, 20);
        let mut text = Vec::new();
        t.write_jsonl(&mut text).unwrap();
        let text = String::from_utf8(text).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = serde::json::from_str(lines[0]).unwrap();
        assert_eq!(first.get("name"), Some(&serde::Value::Str("pass".into())));
        assert_eq!(first.get("req"), Some(&serde::Value::Uint(3)));
        let second = serde::json::from_str(lines[1]).unwrap();
        assert_eq!(second.get("parent"), Some(&serde::Value::Uint(1)));
    }
}
