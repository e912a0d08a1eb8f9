//! The prism slot of a diffracting balancer, per Shavit and Zemach.
//!
//! A diffracting balancer is fronted by a *prism*: an array of
//! [`Exchanger`]s in which two concurrent tokens can *collide* and
//! diffract — one token takes output 0 and the other output 1 without
//! anybody touching the toggle bit. Since a diffracted pair contributes
//! one token to each output, the balancer's step property is preserved
//! while the toggle (the contention hot-spot) is bypassed.
//!
//! The balancer itself is the [`BalancerKind::Diffracting`] plan of
//! [`crate::compiled`]; a diffracting *tree* is that plan over
//! [`cnet_topology::constructions::counting_tree`], whose prisms halve
//! per layer.
//!
//! [`BalancerKind::Diffracting`]: crate::network::BalancerKind::Diffracting

use crate::sync::{spin_loop, AtomicU64, Ordering};

const EMPTY: u64 = 0;
const WAITING: u64 = 1;
const PAIRED: u64 = 2;

/// A single elimination slot: two tokens that meet here pair up.
///
/// The protocol is the classic three-state exchanger:
///
/// 1. A token CASes `EMPTY -> WAITING` and spins for a partner.
/// 2. A second token CASes `WAITING -> PAIRED`; it is the *partner*
///    and diffracts to output 1.
/// 3. The waiter observes `PAIRED`, resets the slot to `EMPTY`, and
///    diffracts to output 0.
/// 4. A waiter that times out CASes `WAITING -> EMPTY` and withdraws;
///    if that CAS fails, a partner arrived at the last instant and the
///    collision proceeds as in (3).
#[derive(Debug, Default)]
pub struct Exchanger {
    state: AtomicU64,
}

/// The outcome of visiting an [`Exchanger`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeOutcome {
    /// Collided as the earlier party: take output 0.
    DiffractedFirst,
    /// Collided as the later party: take output 1.
    DiffractedSecond,
    /// No partner showed up (or the slot was busy): use the toggle.
    Timeout,
}

impl Exchanger {
    /// Creates an empty exchanger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Attempts to pair with another token, spinning for at most
    /// `spin` iterations when waiting.
    pub fn visit(&self, spin: u32) -> ExchangeOutcome {
        match self
            .state
            .compare_exchange(EMPTY, WAITING, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => {
                // we are the waiter
                for _ in 0..spin {
                    if self.state.load(Ordering::Acquire) == PAIRED {
                        self.state.store(EMPTY, Ordering::Release);
                        return ExchangeOutcome::DiffractedFirst;
                    }
                    spin_loop();
                }
                // withdraw — unless a partner sneaks in right now
                match self.state.compare_exchange(
                    WAITING,
                    EMPTY,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => ExchangeOutcome::Timeout,
                    Err(_) => {
                        // partner arrived: state is PAIRED
                        self.state.store(EMPTY, Ordering::Release);
                        ExchangeOutcome::DiffractedFirst
                    }
                }
            }
            Err(WAITING) => {
                // someone is waiting: try to be their partner
                match self.state.compare_exchange(
                    WAITING,
                    PAIRED,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => ExchangeOutcome::DiffractedSecond,
                    Err(_) => ExchangeOutcome::Timeout,
                }
            }
            Err(_) => ExchangeOutcome::Timeout, // slot mid-handshake
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn exchanger_pairs_exactly_two() {
        // deterministic handshake, no sleeps: the main thread keeps
        // offering to pair until a collision happens. Whichever thread
        // reaches the slot first becomes the waiter, so the roles can
        // land either way — but a collision always produces exactly one
        // First and one Second.
        let ex = Arc::new(Exchanger::new());
        let a = Arc::clone(&ex);
        let peer = std::thread::spawn(move || a.visit(u32::MAX));
        let mine = loop {
            match ex.visit(1) {
                ExchangeOutcome::Timeout => std::thread::yield_now(),
                hit => break hit,
            }
        };
        let theirs = peer.join().expect("no panic");
        let mut pair = [mine, theirs];
        pair.sort_by_key(|o| *o as u8);
        assert_eq!(
            pair,
            [
                ExchangeOutcome::DiffractedFirst,
                ExchangeOutcome::DiffractedSecond
            ]
        );
    }

    #[test]
    fn exchanger_timeout_when_alone() {
        let ex = Exchanger::new();
        assert_eq!(ex.visit(10), ExchangeOutcome::Timeout);
        // slot is reusable afterwards
        assert_eq!(ex.visit(10), ExchangeOutcome::Timeout);
    }
}
