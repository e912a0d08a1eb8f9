//! Property tests for the fabric layer's conservation laws.
//!
//! The fabric may delay, refuse, and retransmit tokens, but three
//! invariants must survive *any* valid parameterization:
//!
//! * **conservation** — no token vanishes: however many attempts the
//!   loss draws and full queues kill, every injected token eventually
//!   lands on exactly one output counter;
//! * **no duplication** — a retransmission never delivers twice, so
//!   the quiescent counter totals equal the injected token count
//!   exactly (not merely at-least);
//! * **accounting** — `attempts`, refusals, retries, and forced
//!   deliveries balance: every refused attempt is either retried or
//!   the final straw of a force-delivered token, and a quiescent
//!   counting network's outputs still have the step property
//!   (Definition 2.1 — the gap-free shape), loss and backpressure
//!   notwithstanding.

use cnet_engine::{ArrivalProcess, FabricStats, RunStats, WaitMode, Workload};
use cnet_proteus::{Fabric, LinkSpec, RetryPolicy, SimConfig, Simulator, SwitchSpec};
use cnet_topology::constructions;
use proptest::prelude::*;

/// Builds a fabric from raw scalars such that every emitted value
/// passes `Fabric::validate`: bounded queues get a nonzero service
/// time, and the backoff cap stays above the base. (The vendored proptest shim has no `prop_map`, so the
/// assembly happens in the test body via this helper.)
#[allow(clippy::too_many_arguments)]
fn fabric_from(
    link_service: u64,
    link_cap: u32,
    loss: u32,
    switch_service: u64,
    switch_cap: u32,
    backpressure: u32,
    max_attempts: u32,
) -> Fabric {
    Fabric {
        link: LinkSpec {
            delay: 20,
            jitter: 40,
            service: if link_cap > 0 {
                link_service.max(1)
            } else {
                link_service
            },
            capacity: link_cap,
            loss_per_million: loss,
        },
        switch: SwitchSpec {
            service: if switch_cap > 0 {
                switch_service.max(1)
            } else {
                switch_service
            },
            capacity: switch_cap,
        },
        backpressure: backpressure == 1,
        retry: RetryPolicy {
            backoff_base: 16,
            backoff_cap: 256,
            max_attempts,
        },
    }
}

fn run(fabric: Fabric, procs: usize, ops: usize, arrival: ArrivalProcess, seed: u64) -> RunStats {
    let net = constructions::bitonic(4).expect("valid width");
    let config = SimConfig {
        fabric,
        ..SimConfig::queue_lock(seed)
    };
    let workload = Workload {
        total_ops: ops,
        wait_mode: WaitMode::Fixed,
        arrival,
        ..Workload::paper(procs, 25, 100)
    };
    Simulator::new(&net, config).run(&workload)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conservation + no duplication: any valid fabric delivers every
    /// injected token exactly once, and the quiescent output counts
    /// keep the step property.
    #[test]
    fn no_token_is_lost_or_duplicated(
        link_service in 0u64..12,
        link_cap in 0u32..6,
        loss in 0u32..100_000,
        switch_service in 0u64..10,
        switch_cap in 0u32..8,
        backpressure in 0u32..2,
        max_attempts in 1u32..5,
        procs in 1usize..24,
        ops in 1usize..250,
        seed in 0u64..u64::MAX,
    ) {
        let fabric = fabric_from(
            link_service, link_cap, loss,
            switch_service, switch_cap, backpressure, max_attempts,
        );
        prop_assert!(fabric.validate().is_ok(), "{:?}", fabric);
        let stats = run(fabric, procs, ops, ArrivalProcess::Closed, seed);
        prop_assert_eq!(stats.output_counts.total(), ops as u64);
        prop_assert_eq!(stats.operations.len(), ops);
        prop_assert!(
            stats.output_counts.is_step(),
            "quiescent counts must be gap-free under {:?}: {}",
            fabric,
            stats.output_counts
        );
    }

    /// Refusal accounting balances: every attempt that was refused
    /// (lost, tail-dropped, or NACKed) is accounted as either a retry
    /// or the final refusal of a force-delivered token — and the
    /// degenerate fabric records no fabric activity at all.
    #[test]
    fn drops_and_retries_balance(
        link_service in 0u64..12,
        link_cap in 0u32..6,
        loss in 0u32..100_000,
        switch_service in 0u64..10,
        switch_cap in 0u32..8,
        backpressure in 0u32..2,
        max_attempts in 1u32..5,
        procs in 1usize..16,
        ops in 1usize..200,
        open in 0u32..2,
        seed in 0u64..u64::MAX,
    ) {
        let fabric = fabric_from(
            link_service, link_cap, loss,
            switch_service, switch_cap, backpressure, max_attempts,
        );
        let arrival = if open == 1 {
            ArrivalProcess::Open { mean_gap: 60 }
        } else {
            ArrivalProcess::Closed
        };
        let stats = run(fabric, procs, ops, arrival, seed);
        let f = stats.sim.unwrap().fabric;
        prop_assert_eq!(
            f.refusals(),
            f.loss_drops + f.full_drops + f.nack_retries
        );
        prop_assert_eq!(f.retries(), f.refusals() - f.forced_deliveries,
            "every refusal retries except a forced token's last: {:?}", f);
        prop_assert!(f.forced_deliveries <= f.refusals());
        // attempts = first transmissions + retransmissions; each hop
        // transmits at least once, so retries never exceed attempts
        prop_assert!(f.attempts >= f.retries(), "{:?}", f);
        if fabric.is_degenerate() {
            prop_assert_eq!(f, FabricStats::default());
        }
        // regardless of the refusal history, delivery is exact
        prop_assert_eq!(stats.output_counts.total(), ops as u64);
    }

    /// Backpressure really is lossless at the queue: with NACKs on and
    /// zero random loss, nothing is ever tail-dropped, and every
    /// refusal is a NACK.
    #[test]
    fn backpressure_never_tail_drops(
        cap in 1u32..4,
        service in 1u64..20,
        procs in 2usize..24,
        ops in 50usize..250,
        seed in 0u64..u64::MAX,
    ) {
        let fabric = Fabric {
            link: LinkSpec {
                delay: 20,
                jitter: 0,
                service,
                capacity: cap,
                loss_per_million: 0,
            },
            switch: SwitchSpec { service, capacity: cap },
            backpressure: true,
            retry: RetryPolicy::default(),
        };
        let stats = run(fabric, procs, ops, ArrivalProcess::Closed, seed);
        let f = stats.sim.unwrap().fabric;
        prop_assert_eq!(f.loss_drops, 0);
        prop_assert_eq!(f.full_drops, 0, "NACKs must preempt tail drops: {:?}", f);
        prop_assert_eq!(f.refusals(), f.nack_retries);
        prop_assert_eq!(stats.output_counts.total(), ops as u64);
        prop_assert!(stats.output_counts.is_step(), "{}", stats.output_counts);
    }
}
