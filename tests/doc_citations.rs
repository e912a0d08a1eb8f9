//! The documents point at things that exist. A section of
//! EXPERIMENTS.md cited by its quoted title, in a document or in a
//! source comment, is a heading of EXPERIMENTS.md that starts with that
//! title; and a committed result that README.md, DESIGN.md or
//! EXPERIMENTS.md names is in `results/`. CHANGES.md and CHANGELOG.md
//! are history: what they name may be gone, and they are not read.

use std::fs;
use std::path::{Path, PathBuf};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// The document whose sections are cited.
const CITED: &str = "EXPERIMENTS.md";

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every heading of EXPERIMENTS.md, without its `#` marks; a `#` line
/// inside a code block is not one.
fn headings() -> Vec<String> {
    let mut fenced = false;
    let mut out = Vec::new();
    for line in read(&Path::new(ROOT).join(CITED)).lines() {
        if line.starts_with("```") {
            fenced = !fenced;
        } else if !fenced && line.starts_with('#') {
            out.push(line.trim_start_matches('#').trim().to_string());
        }
    }
    out
}

/// `text` as one line: comment markers dropped from the start of each
/// line and every run of whitespace one space, so a title that wraps
/// reads whole.
fn flatten(text: &str) -> String {
    let lines = text.lines().map(|line| {
        let line = line.trim_start();
        ["//!", "///", "//"]
            .iter()
            .find_map(|marker| line.strip_prefix(marker))
            .unwrap_or(line)
    });
    lines
        .flat_map(str::split_whitespace)
        .collect::<Vec<_>>()
        .join(" ")
}

/// The titles `text` cites: a quoted title right after the document's
/// name (with or without a comma), and each further one chained on
/// with ` / ` or ` and `.
fn citations(text: &str) -> Vec<String> {
    let flat = flatten(text);
    let mut out = Vec::new();
    for (at, _) in flat.match_indices(CITED) {
        let after = &flat[at + CITED.len()..];
        let Some(mut rest) = after
            .strip_prefix(" \"")
            .or_else(|| after.strip_prefix(", \""))
        else {
            continue;
        };
        while let Some(end) = rest.find('"') {
            out.push(rest[..end].to_string());
            match [" / \"", " and \""]
                .iter()
                .find_map(|chain| rest[end + 1..].strip_prefix(chain))
            {
                Some(next) => rest = next,
                None => break,
            }
        }
    }
    out
}

/// The `.rs` files under `dir`, at any depth.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|name| name != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The documents and sources that may cite a section.
fn citing_files() -> Vec<PathBuf> {
    let root = Path::new(ROOT);
    let mut files: Vec<PathBuf> = ["README.md", "DESIGN.md", "PAPER.md", "ROADMAP.md"]
        .iter()
        .map(|name| root.join(name))
        .collect();
    for entry in fs::read_dir(root.join("docs")).expect("docs/") {
        let path = entry.expect("a directory entry").path();
        if path.extension().is_some_and(|ext| ext == "md") {
            files.push(path);
        }
    }
    rust_files(&root.join("crates"), &mut files);
    for entry in fs::read_dir(root.join("tests")).expect("tests/") {
        let path = entry.expect("a directory entry").path();
        if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(path);
        }
    }
    files
}

#[test]
fn every_cited_section_is_a_heading() {
    let headings = headings();
    let mut cited = 0;
    let mut dangling = Vec::new();
    for file in citing_files() {
        for title in citations(&read(&file)) {
            cited += 1;
            if !headings.iter().any(|heading| heading.starts_with(&title)) {
                let file = file.strip_prefix(ROOT).unwrap_or(&file);
                dangling.push(format!("{}: \"{title}\"", file.display()));
            }
        }
    }
    assert!(
        dangling.is_empty(),
        "no such heading:\n{}",
        dangling.join("\n")
    );
    // the scan reads what it is meant to: DESIGN.md, README.md and the
    // simulator's sources cite sections today
    assert!(cited >= 10, "only {cited} citations found");
}

/// The `results/` files `text` names: a template (`<suite>`, `$s`, a
/// `*` glob) names none, and a `{a,b}` brace names each alternative.
fn results_named(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (at, _) in text.match_indices("results/") {
        let name: String = text[at + "results/".len()..]
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || "_.-{},<>$*".contains(*c))
            .collect();
        let name = name.trim_end_matches(['.', ',']);
        if name.is_empty() || name.contains(['<', '$', '*']) {
            continue;
        }
        match (name.find('{'), name.find('}')) {
            (Some(open), Some(close)) if open < close => {
                for alternative in name[open + 1..close].split(',') {
                    out.push(format!(
                        "{}{alternative}{}",
                        &name[..open],
                        &name[close + 1..]
                    ));
                }
            }
            _ => out.push(name.to_string()),
        }
    }
    out
}

#[test]
fn every_named_result_is_committed() {
    let root = Path::new(ROOT);
    let mut missing = Vec::new();
    let mut named = 0;
    for doc in ["README.md", "DESIGN.md", CITED] {
        for name in results_named(&read(&root.join(doc))) {
            named += 1;
            if !root.join("results").join(&name).is_file() {
                missing.push(format!("{doc}: results/{name}"));
            }
        }
    }
    assert!(missing.is_empty(), "not committed:\n{}", missing.join("\n"));
    assert!(named >= 20, "only {named} results named");
}

#[test]
fn citations_are_read_across_lines_and_comment_markers() {
    let source = format!(
        "/// measured faster ({CITED}, \"Simulator handlers, second\n    /// pass\"). And\n//! {CITED}\n//! \"Native hot path\" / \"Perf sweep\" and \"Observability\"; {CITED}'s note"
    );
    assert_eq!(
        citations(&source),
        [
            "Simulator handlers, second pass",
            "Native hot path",
            "Perf sweep",
            "Observability"
        ]
    );
    assert_eq!(
        results_named(
            "`results/BENCH_figure{5,6}.json`, results/<suite>.txt and results/perf.txt."
        ),
        ["BENCH_figure5.json", "BENCH_figure6.json", "perf.txt"]
    );
}
