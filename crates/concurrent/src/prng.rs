//! Crate-private per-thread xorshift streams for prism slot picks.
//!
//! [`begin`]/[`step`]/[`commit`]: load the thread-local cache once per
//! operation, step it locally per hop, store it back at the end — one
//! TLS access pair per operation instead of one per hop.
//!
//! Under the model checker the cache must not be used: it would carry
//! state across explored executions (the main virtual thread keeps its
//! OS thread) and break schedule replay, so [`begin`] re-derives from
//! [`crate::sync::thread_rng_seed`] instead.

use std::cell::Cell;

thread_local! {
    static RNG: Cell<u64> = const { Cell::new(0) };
}

/// One xorshift64 step.
pub(crate) fn step(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Loads this thread's stream state (seeding it on first use). Inside
/// a model execution, derives a fresh deterministic seed instead.
pub(crate) fn begin() -> u64 {
    if crate::sync::in_model() {
        return crate::sync::thread_rng_seed();
    }
    let cached = RNG.with(Cell::get);
    if cached == 0 {
        crate::sync::thread_rng_seed()
    } else {
        cached
    }
}

/// Stores the stepped state back into the thread-local cache (a no-op
/// inside a model execution, where the cache stays untouched).
pub(crate) fn commit(state: u64) {
    if !crate::sync::in_model() {
        RNG.with(|c| c.set(state));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_is_deterministic_and_nonzero() {
        let mut a = 0x1234_5678_9ABC_DEF1;
        let mut b = 0x1234_5678_9ABC_DEF1;
        assert_eq!(step(&mut a), step(&mut b));
        assert_ne!(a, 0);
    }

    #[test]
    fn committed_state_is_what_the_next_operation_begins_with() {
        let mut state = begin();
        let first = step(&mut state);
        commit(state);
        let mut resumed = begin();
        assert_eq!(resumed, state, "the cache carries the stepped state");
        assert_ne!(step(&mut resumed), first, "the stream advances");
    }
}
