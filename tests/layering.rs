//! The crates are layered around the run, not around the simulator:
//! `cnet-engine` owns the vocabulary of a run (workload, statistics,
//! record) and every substrate is a backend of it. The discrete-event
//! simulator (`cnet-proteus`) depends on the engine, and neither the
//! engine nor the counter service (`cnet-serve`) reaches the simulator
//! or the experiment harness.
//!
//! Read from each `crates/*/Cargo.toml`'s `[dependencies]` table as
//! text, so the check needs no `cargo` and sees exactly the normal
//! edges a build links (dev-dependencies are not followed).

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Every workspace crate's package name and the names in its
/// `[dependencies]` table.
fn dependency_graph() -> BTreeMap<String, Vec<String>> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut graph = BTreeMap::new();
    for entry in std::fs::read_dir(&crates).expect("crates/ is listable") {
        let manifest = entry.expect("a directory entry").path().join("Cargo.toml");
        let Ok(text) = std::fs::read_to_string(&manifest) else {
            continue;
        };
        let (mut table, mut name, mut deps) = (String::new(), None, Vec::new());
        for line in text.lines() {
            let line = line.split('#').next().unwrap_or("").trim();
            if let Some(header) = line.strip_prefix('[') {
                table = header.trim_end_matches(']').to_string();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            let key = key.trim();
            match table.as_str() {
                "package" if key == "name" => {
                    name = Some(value.trim().trim_matches('"').to_string());
                }
                "dependencies" => {
                    // `dep.workspace = true` or `dep = { … }`
                    let dep = key.split('.').next().unwrap_or(key).trim();
                    deps.push(dep.to_string());
                }
                _ => {}
            }
        }
        let name = name.unwrap_or_else(|| panic!("{} names no package", manifest.display()));
        graph.insert(name, deps);
    }
    graph
}

/// Every crate `root` links, directly or through another crate.
fn reaches(graph: &BTreeMap<String, Vec<String>>, root: &str) -> BTreeSet<String> {
    assert!(graph.contains_key(root), "no workspace crate `{root}`");
    let mut seen = BTreeSet::new();
    let mut stack = vec![root.to_string()];
    while let Some(krate) = stack.pop() {
        for dep in graph.get(&krate).into_iter().flatten() {
            if seen.insert(dep.clone()) {
                stack.push(dep.clone());
            }
        }
    }
    seen
}

#[test]
fn the_engine_and_the_service_reach_neither_the_simulator_nor_the_harness() {
    let graph = dependency_graph();
    for root in ["cnet-engine", "cnet-serve"] {
        let linked = reaches(&graph, root);
        for banned in ["cnet-proteus", "cnet-harness"] {
            assert!(
                !linked.contains(banned),
                "`{root}` reaches `{banned}` (links {linked:?})"
            );
        }
    }
}

#[test]
fn the_simulator_is_a_backend_of_the_engine() {
    let graph = dependency_graph();
    assert!(reaches(&graph, "cnet-proteus").contains("cnet-engine"));
}

#[test]
fn the_parser_sees_the_edges_it_must() {
    // a parser that read no table would pass the two tests above
    let graph = dependency_graph();
    assert!(graph.len() >= 10, "{graph:?}");
    let harness = reaches(&graph, "cnet-harness");
    assert!(harness.contains("cnet-proteus") && harness.contains("cnet-engine"));
    assert!(reaches(&graph, "cnet-cli").contains("cnet-serve"));
}
