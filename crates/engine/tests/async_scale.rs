//! The million-client scale smoke: one process, `CNET_STRESS_CLIENTS`
//! logical clients through the cooperative async executor, exact tally.
//!
//! CI runs this at the default 10^4 clients so the suite stays fast;
//! the full-size run documented in EXPERIMENTS.md sets
//! `CNET_STRESS_CLIENTS=1000000` (and takes on the order of seconds in
//! release). The thread-per-client backends cannot even *spawn* that
//! — this test is the existence proof for the ROADMAP's
//! "millions of users" regime.

use cnet_concurrent::testcfg;
use cnet_engine::{AsyncBackend, AsyncConfig, Backend, Workload};
use cnet_topology::constructions;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

#[test]
fn many_clients_one_process_exact_tally() {
    // 10^4 clients in CI; CNET_STRESS_CLIENTS=1000000 for the real thing
    let clients = env_usize("CNET_STRESS_CLIENTS", 10_000);
    let net = constructions::bitonic(16).expect("valid width");
    testcfg::with_seed_report(testcfg::seed(), |seed| {
        let workload = Workload {
            // one op per client: the op count is what bounds memory,
            // and "every client really ran" is the claim under test
            total_ops: clients,
            ..Workload::paper(clients, 0, 0)
        };
        let outcome = AsyncBackend::new(&net, AsyncConfig::default(), seed).run(&workload);
        assert_eq!(outcome.stats.operations.len(), clients);
        assert!(
            outcome.counts_exactly(),
            "{clients} clients did not draw values exactly 0..{clients}"
        );
        assert!(outcome.has_step_property());
        assert_eq!(outcome.stats.output_counts.total() as usize, clients);
        // static assignment at one op per client: client i performed op i
        for (i, client) in outcome.stats.completed_by.iter().enumerate() {
            assert_eq!(client as usize, i);
        }
    });
}
