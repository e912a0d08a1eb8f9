//! Schedule-exploration regression tests: the structures of this crate
//! under the `cnet-modelcheck` virtual scheduler.
//!
//! Compiled only with `RUSTFLAGS="--cfg modelcheck"` (the CI
//! `modelcheck` job), which routes `cnet_concurrent::sync` through the
//! vendored loom-style runtime: every atomic operation becomes a
//! scheduler yield point, so bounded exhaustive DFS enumerates *every*
//! sequentially-consistent interleaving and seeded PCT samples deep
//! ones. Failures print a `(seed, schedule)` pair; feed the schedule to
//! `cnet_modelcheck::replay` to reproduce deterministically.
#![cfg(modelcheck)]

use std::sync::atomic::{AtomicUsize, Ordering as StdOrdering};
use std::sync::{Arc, Mutex};

use cnet_concurrent::frontend::{CombiningConfig, CombiningCounter};
use cnet_concurrent::lock::TicketLock;
use cnet_concurrent::network::{BalancerKind, NetworkCounter};
use cnet_concurrent::tree::{ExchangeOutcome, Exchanger};
use cnet_modelcheck::sync::{spawn, spin_loop, AtomicU64, Ordering};
use cnet_modelcheck::trace::Recorder;
use cnet_modelcheck::{explore_dfs, explore_pct, replay, Config, PctConfig};
use cnet_timing::linearizability;
use cnet_topology::{constructions, OutputCounts, Topology, TopologyBuilder};

/// The fixed PCT seed CI runs with: failures in CI reproduce locally.
const CI_PCT_SEED: u64 = 0x00C0_FFEE;

#[test]
fn ticket_lock_grants_in_ticket_order() {
    let report = explore_dfs(&Config::default(), || {
        let lock = Arc::new(TicketLock::new());
        // grant order observed from inside the critical section; a std
        // Mutex is invisible to the scheduler but the TicketLock
        // already serializes the pushes
        let order = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (l, o) = (Arc::clone(&lock), Arc::clone(&order));
                spawn(move || {
                    let g = l.lock();
                    o.lock().unwrap().push(g.ticket());
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        let seen = order.lock().unwrap().clone();
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(seen, sorted, "FIFO violated: grant order {seen:?}");
        assert_eq!(seen.len(), 2);
    });
    let report = report.expect_ok();
    assert!(report.exhausted);
    println!(
        "ticket-lock FIFO: {} schedules explored exhaustively",
        report.schedules_explored
    );
}

/// The wide plan's step property: one 3-in/3-out wait-free balancer
/// (`fetch_add` over the fan-out, the one plan for fan-out > 2, its
/// third port resolved through the overflow table) feeding three
/// counters. Two threads × 3 tokens exit exactly 2 per output in every
/// interleaving. The space is 158 739 schedules, past the default
/// budget, so this case sets its own.
#[test]
fn wide_toggle_step_property_in_every_interleaving() {
    let budget = Config {
        max_schedules: 200_000,
        ..Config::default()
    };
    let report = explore_dfs(&budget, || {
        let mut b = TopologyBuilder::new();
        let n = b.add_node(3, 3);
        for port in 0..3 {
            b.add_input(n, port).unwrap();
            b.connect_counter(n, port, port).unwrap();
        }
        let net = b.finalize().unwrap();
        let c = Arc::new(NetworkCounter::new(&net));
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let c = Arc::clone(&c);
                spawn(move || {
                    for i in 0..3 {
                        c.next_on((t + i) % 3);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(c.output_counts(), vec![2, 2, 2], "step property violated");
    });
    let report = report.expect_ok();
    assert!(report.exhausted);
    println!(
        "wide toggle step property (2 threads, 3 ops each): {} schedules explored exhaustively",
        report.schedules_explored
    );
}

#[test]
fn exchanger_collisions_always_pair_one_first_one_second() {
    let collisions = AtomicUsize::new(0);
    let report = explore_dfs(&Config::default(), || {
        let ex = Arc::new(Exchanger::new());
        let e2 = Arc::clone(&ex);
        let h = spawn(move || e2.visit(2));
        let mine = ex.visit(2);
        let theirs = h.join();
        let outcomes = [mine, theirs];
        let firsts = outcomes
            .iter()
            .filter(|&&o| o == ExchangeOutcome::DiffractedFirst)
            .count();
        let seconds = outcomes
            .iter()
            .filter(|&&o| o == ExchangeOutcome::DiffractedSecond)
            .count();
        // a diffraction is exactly one token per output — never two
        // Firsts (double-count on wire 0) or an unmatched Second
        assert_eq!(
            firsts, seconds,
            "unpaired diffraction outcomes: {outcomes:?}"
        );
        if firsts == 1 {
            collisions.fetch_add(1, StdOrdering::Relaxed);
        }
    });
    let report = report.expect_ok();
    assert!(report.exhausted);
    let hit = collisions.load(StdOrdering::Relaxed);
    assert!(hit > 0, "DFS must reach at least one collision");
    println!(
        "exchanger pairing: {} schedules, {} with a collision",
        report.schedules_explored, hit
    );
}

/// The first tentpole acceptance test: bounded exhaustive DFS over a
/// width-2 bitonic network with lock-based balancers (the paper's
/// Section 5 implementation), one operation per virtual thread. Every
/// explored execution is traced and fed to *both* linearizability
/// deciders; the DFS must enumerate the whole space and report how big
/// it was.
#[test]
fn locked_width2_network_exhaustive_dfs_with_oracle() {
    let report = explore_dfs(&Config::default(), || {
        let net = constructions::bitonic(2).expect("width 2 is valid");
        let c = Arc::new(NetworkCounter::with_kind(&net, BalancerKind::Locked));
        let rec = Arc::new(Recorder::new());
        let (c2, r2) = (Arc::clone(&c), Arc::clone(&rec));
        let h = spawn(move || {
            r2.measure(|| c2.next_on(1));
        });
        rec.measure(|| c.next_on(0));
        h.join();
        let ops = rec.operations(2);
        // the counting property holds in EVERY interleaving
        let mut vals: Vec<u64> = ops.iter().map(|o| o.value).collect();
        vals.sort_unstable();
        assert_eq!(vals, vec![0, 1], "counting violated");
        // differential check: on permutation-valued traces the
        // brute-force oracle and the Definition 2.4 sweep must agree
        let sweep = linearizability::count_nonlinearizable(&ops);
        let linearizable = linearizability::check_exhaustive(&ops).is_some();
        assert_eq!(
            linearizable,
            sweep == 0,
            "oracle/sweep disagreement on {ops:?}"
        );
    });
    let report = report.expect_ok();
    assert!(report.exhausted, "the DFS must enumerate the whole space");
    println!(
        "width-2 locked bitonic (2 threads, 1 op each): {} schedules explored exhaustively",
        report.schedules_explored
    );
}

/// The second tentpole acceptance test, and the paper's Theorem 3.6 in
/// miniature: on the wait-free width-2 network, with thread 1 issuing
/// two *sequential* operations while thread 0 issues one, exhaustive
/// DFS reaches executions where thread 1's second operation returns a
/// smaller value than its completed first one — not linearizable —
/// while the counting property holds in every single schedule. Each
/// explored execution is checked with both deciders.
#[test]
fn waitfree_width2_network_dfs_reaches_nonlinearizable_execution() {
    let nonlinearizable = AtomicUsize::new(0);
    let report = explore_dfs(&Config::default(), || {
        let net = constructions::bitonic(2).expect("width 2 is valid");
        let c = Arc::new(NetworkCounter::new(&net));
        let rec = Arc::new(Recorder::new());
        let (c2, r2) = (Arc::clone(&c), Arc::clone(&rec));
        let h = spawn(move || {
            // sequential pair: the second completely follows the
            // first, which is what makes reordering observable
            r2.measure(|| c2.next_on(1));
            r2.measure(|| c2.next_on(1));
        });
        rec.measure(|| c.next_on(0));
        h.join();
        let ops = rec.operations(2);
        let mut vals: Vec<u64> = ops.iter().map(|o| o.value).collect();
        vals.sort_unstable();
        assert_eq!(vals, vec![0, 1, 2], "counting violated");
        let sweep = linearizability::count_nonlinearizable(&ops);
        let linearizable = linearizability::check_exhaustive(&ops).is_some();
        assert_eq!(
            linearizable,
            sweep == 0,
            "oracle/sweep disagreement on {ops:?}"
        );
        if !linearizable {
            nonlinearizable.fetch_add(1, StdOrdering::Relaxed);
        }
    });
    let report = report.expect_ok();
    assert!(report.exhausted, "the DFS must enumerate the whole space");
    let bad = nonlinearizable.load(StdOrdering::Relaxed);
    println!(
        "width-2 wait-free bitonic (2 threads, 3 ops): {} schedules explored, \
         {} executions nonlinearizable (counting exact in all)",
        report.schedules_explored, bad
    );
    assert!(
        bad > 0,
        "the nonlinearizable interleaving the paper describes must be reachable"
    );
}

/// Seeded PCT over the width-4 plans whose space is beyond DFS: the
/// wait-free and diffracting bitonic networks, and the diffracting
/// *tree* — `counting_tree` on the same compiled `Diffracting` plan,
/// root prism of 2 slots halving to 1 at layer 2 — whose four tokens
/// all enter on the single input and so meet in the root prism.
#[test]
fn pct_width4_networks_and_the_diffracting_tree_count_exactly() {
    let bitonic = || constructions::bitonic(4).expect("width 4 is valid");
    let tree = || constructions::counting_tree(4).expect("width 4 is valid");
    let cases: [(&str, fn() -> Topology, BalancerKind); 3] = [
        ("bitonic", bitonic, BalancerKind::WaitFree),
        (
            "bitonic",
            bitonic,
            BalancerKind::Diffracting { slots: 1, spin: 2 },
        ),
        (
            "tree",
            tree,
            BalancerKind::Diffracting { slots: 2, spin: 2 },
        ),
    ];
    for (name, build, kind) in cases {
        let pct = PctConfig {
            seed: CI_PCT_SEED,
            schedules: 120,
            depth: 3,
            horizon: 96,
        };
        let report = explore_pct(&Config::default(), &pct, move || {
            let net = build();
            let v = net.input_width();
            let c = Arc::new(NetworkCounter::with_kind(&net, kind));
            let handles: Vec<_> = (0..2)
                .map(|t| {
                    let c = Arc::clone(&c);
                    spawn(move || vec![c.next_on(t % v), c.next_on((t + 2) % v)])
                })
                .collect();
            let mut vals: Vec<u64> = handles.into_iter().flat_map(|h| h.join()).collect();
            vals.sort_unstable();
            assert_eq!(vals, vec![0, 1, 2, 3], "duplicate or gap ({name} {kind:?})");
            let counts = OutputCounts::from(c.output_counts());
            assert!(counts.is_step(), "{name} {kind:?}: {counts}");
        });
        let report = report.expect_ok();
        assert!(
            report.exhausted,
            "all PCT schedules must run ({name} {kind:?})"
        );
    }
}

/// Regression for the compiled hot path's demotion of binary balancers
/// to `fetch_xor(1, Relaxed)`: the virtual `fetch_xor` added for it
/// must behave as one atomic transition. Two concurrent flips of one
/// bit must observe previous values `{0, 1}` — never `{0, 0}` (a lost
/// flip) — in every interleaving.
#[test]
fn virtual_fetch_xor_is_one_atomic_transition() {
    let report = explore_dfs(&Config::default(), || {
        let bit = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let b = Arc::clone(&bit);
                spawn(move || b.fetch_xor(1, Ordering::Relaxed) & 1)
            })
            .collect();
        let mut prevs: Vec<u64> = handles.into_iter().map(|h| h.join()).collect();
        prevs.sort_unstable();
        assert_eq!(prevs, vec![0, 1], "xor toggle must alternate");
        assert_eq!(bit.load(Ordering::Relaxed) & 1, 0, "two flips cancel");
    });
    let report = report.expect_ok();
    assert!(report.exhausted);
    println!(
        "virtual fetch_xor atomicity: {} schedules explored exhaustively",
        report.schedules_explored
    );
}

/// The compiled binary balancer's step property: 4 tokens through one
/// `fetch_xor(1, Relaxed)` toggle bit (a `single_balancer` topology on
/// the compiled arena) exit exactly 2 per output in every
/// interleaving. This is the load-bearing claim behind the Relaxed
/// demotion — the step property needs the RMW's atomicity, not its
/// ordering, and in the model's sequentially-consistent interleavings
/// that atomicity is all that is exercised (see DESIGN.md for why a
/// weaker-than-SC reordering is out of scope here).
#[test]
fn compiled_relaxed_xor_toggle_step_property_in_every_interleaving() {
    let report = explore_dfs(&Config::default(), || {
        let net = constructions::single_balancer();
        let c = Arc::new(NetworkCounter::new(&net));
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let c = Arc::clone(&c);
                spawn(move || {
                    c.next_on(t);
                    c.next_on(t);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(c.output_counts(), vec![2, 2], "step property violated");
    });
    let report = report.expect_ok();
    assert!(report.exhausted);
    println!(
        "compiled xor toggle step property: {} schedules explored exhaustively",
        report.schedules_explored
    );
}

/// The combiner-handoff regression the frontend module docs promise:
/// two threads racing a [`CombiningCounter`] whose config forces every
/// protocol edge within reach — 2 slots (distinct homes, so claiming is
/// possible), `max_batch = 2` (the combiner may claim the peer), and
/// `spin = 1` (the withdraw path and the claimed-so-the-combiner-owes-
/// us wait are both reachable). Every shared location in the handoff —
/// publication CAS, claim CAS, mailbox store, DONE flag, combiner
/// lock — goes through `crate::sync`, so the DFS interleaves the whole
/// publish/claim/deliver/withdraw state machine, not a model of it.
///
/// The full space is beyond exhaustion (measured > 2 million schedules
/// even with `spin = 0`), so this regression is *bounded*: a 50k-
/// schedule DFS budget, which reaches both resolutions of the race —
/// tens of thousands of schedules where the combiner claims and
/// delivers the peer's request, and thousands where the peer withdraws
/// solo or is served before claiming matters. In every explored
/// schedule: no value is lost, none is delivered twice, the tallies
/// account for both operations, and the slots are reusable at
/// quiescence (a follow-up operation gets the next value).
#[test]
fn combining_handoff_never_loses_or_double_delivers() {
    let combined = AtomicUsize::new(0);
    let budget = Config {
        max_schedules: 50_000,
        ..Config::default()
    };
    let report = explore_dfs(&budget, || {
        let net = constructions::single_balancer();
        let cfg = CombiningConfig {
            slots: 2,
            max_batch: 2,
            spin: 0,
        };
        let c = Arc::new(CombiningCounter::with_kind(
            &net,
            BalancerKind::WaitFree,
            cfg,
        ));
        let c2 = Arc::clone(&c);
        let h = spawn(move || c2.next_for(1, 0));
        let mine = c.next_for(0, 0);
        let theirs = h.join();
        let mut vals = [mine, theirs];
        vals.sort_unstable();
        assert_eq!(vals, [0, 1], "handoff lost or double-delivered a value");
        // tallies account for both operations; a 2-batch is one
        // traversal that tallies twice on one counter ([2, 0]/[0, 2]),
        // two solos toggle once each ([1, 1]) — anything else is a
        // lost or doubled tally
        let counts = c.output_counts();
        assert_eq!(
            counts.iter().sum::<u64>(),
            2,
            "tallies disagree with the values handed out: {counts:?}"
        );
        if counts.contains(&2) {
            combined.fetch_add(1, StdOrdering::Relaxed);
        }
        // quiescence: both slots must be EMPTY again — a follow-up
        // operation publishes on a reused slot and gets the next value
        assert_eq!(c.next_for(0, 0), 2, "slot not reusable after the race");
    });
    let report = report.expect_ok();
    let hit = combined.load(StdOrdering::Relaxed);
    assert!(hit > 0, "the bounded DFS must reach a combined handoff");
    assert!(
        hit < report.schedules_explored,
        "the bounded DFS must also reach solo resolutions of the race"
    );
    println!(
        "combining handoff (2 threads, 2 slots, max_batch 2): {} bounded schedules, \
         {} with a combined batch",
        report.schedules_explored, hit
    );
}

/// A ticket lock with a deliberately injected atomicity bug: the
/// ticket draw is a load-then-store instead of one `fetch_add`, so two
/// threads can draw the same ticket and both enter the critical
/// section. (The scheduler's interleavings are sequentially
/// consistent, so the injected bug is an atomicity bug — a weakened
/// memory *ordering* would be invisible here; see DESIGN.md.)
#[derive(Debug, Default)]
struct BuggyTicketLock {
    next_ticket: AtomicU64,
    now_serving: AtomicU64,
}

impl BuggyTicketLock {
    fn lock(&self) -> u64 {
        // BUG: not atomic
        let t = self.next_ticket.load(Ordering::Acquire);
        self.next_ticket.store(t + 1, Ordering::Release);
        // `<` rather than `!=` so a duplicate ticket cannot also strand
        // a waiter forever: the only observable symptom is the broken
        // mutual exclusion, which keeps the failure message specific
        while self.now_serving.load(Ordering::Acquire) < t {
            spin_loop();
        }
        t
    }

    fn unlock(&self) {
        self.now_serving.fetch_add(1, Ordering::Release);
    }
}

fn buggy_lock_body() {
    let lock = Arc::new(BuggyTicketLock::default());
    let shared = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let (l, s) = (Arc::clone(&lock), Arc::clone(&shared));
            spawn(move || {
                l.lock();
                // non-atomic read-modify-write "protected" by the lock
                let v = s.load(Ordering::Acquire);
                s.store(v + 1, Ordering::Release);
                l.unlock();
            })
        })
        .collect();
    for h in handles {
        h.join();
    }
    assert_eq!(
        shared.load(Ordering::Acquire),
        2,
        "mutual exclusion violated: lost update"
    );
}

#[test]
fn injected_atomicity_bug_is_caught_by_dfs_and_replayable() {
    let report = explore_dfs(&Config::default(), buggy_lock_body);
    let failure = report.failure.expect("DFS must catch the injected bug");
    assert!(failure.message.contains("lost update"), "{failure}");
    assert!(!failure.schedule.is_empty());
    // the recorded schedule alone reproduces the failure
    let replayed = replay(&failure.schedule, buggy_lock_body)
        .expect("replaying the failing schedule must fail again");
    assert!(replayed.contains("lost update"));
    println!("injected bug caught by DFS: {failure}");
}

#[test]
fn injected_atomicity_bug_is_caught_by_seeded_pct() {
    let pct = PctConfig {
        seed: CI_PCT_SEED,
        schedules: 500,
        depth: 3,
        horizon: 32,
    };
    let report = explore_pct(&Config::default(), &pct, buggy_lock_body);
    let failure = report.failure.expect("PCT must catch the injected bug");
    let seed = failure.seed.expect("PCT failures carry their seed");
    assert!(failure.message.contains("lost update"));
    // deterministic: the same base seed finds the same failure
    let again = explore_pct(&Config::default(), &pct, buggy_lock_body)
        .failure
        .expect("same seed, same bug");
    assert_eq!(again.seed, Some(seed));
    assert_eq!(again.schedule, failure.schedule);
    // and the schedule replays without PCT at all
    assert!(replay(&failure.schedule, buggy_lock_body).is_some());
    println!("injected bug caught by PCT: {failure}");
}
