//! The worst-case executions of Sections 1 and 4, replayed token by
//! token through the deterministic timed executor.
//!
//! Run with: `cargo run --example adversarial_schedules`

use counting_networks::timing::adversary::{
    bitonic_attack, intro_example, tree_attack, wave_attack, Scenario,
};
use counting_networks::timing::LinkTiming;

fn show(scenario: &Scenario) -> Result<(), Box<dyn std::error::Error>> {
    let exec = scenario.execute()?;
    println!(
        "== {} (depth {}, {} tokens, timing {}) ==",
        scenario.name,
        scenario.topology.depth(),
        scenario.schedule.len(),
        scenario.timing,
    );
    // Print the small scenarios in full; summarize the big ones.
    if scenario.schedule.len() <= 8 {
        for op in exec.operations() {
            println!(
                "  token {:2}: [{:4}, {:4}] -> value {:3} on Y{}",
                op.token, op.start, op.end, op.value, op.counter
            );
        }
    }
    let violations = exec.violations();
    println!(
        "  {} non-linearizable operation(s); first witness:",
        exec.nonlinearizable_count()
    );
    if let Some((earlier, later)) = violations.first() {
        println!(
            "    token {} ended at {} with value {}, yet token {} started at {} and got {}",
            earlier.token, earlier.end, earlier.value, later.token, later.start, later.value
        );
    }
    println!();
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ratio 3 > 2: enough for the Section 1 example and Theorems 4.1/4.3
    let timing = LinkTiming::new(10, 30)?;
    show(&intro_example(timing)?)?;
    show(&tree_attack(16, timing)?)?;
    show(&bitonic_attack(8, timing)?)?;
    // Theorem 4.4 needs c2 > ((3 + log w)/2) c1 = 3 c1 for width 8
    let wave_timing = LinkTiming::new(10, 40)?;
    show(&wave_attack(8, wave_timing)?)?;

    println!(
        "With c2 <= 2 c1 none of these scenarios can be built: every constructor\n\
         refuses, matching Corollary 3.9."
    );
    let tame = LinkTiming::new(10, 20)?;
    assert!(intro_example(tame).is_err());
    assert!(tree_attack(16, tame).is_err());
    assert!(bitonic_attack(8, tame).is_err());
    assert!(wave_attack(8, tame).is_err());
    println!("(verified)");
    Ok(())
}
