//! The counting check for the serve workloads: the intervals clients
//! drew must tile `0..N` exactly.

use std::fmt;

/// Why a set of drawn intervals is not exactly `0..N`.
#[derive(Debug, PartialEq, Eq)]
pub enum CoverageError {
    /// An interval of another length than the workload asked for, or
    /// one that does not start on a multiple of it.
    Misaligned { base: u64, k: u64 },
    /// The interval starting at `base` was drawn twice.
    Duplicate { base: u64 },
    /// Nothing drew the interval starting at `base`, though a later
    /// one was drawn.
    Gap { base: u64 },
}

impl fmt::Display for CoverageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoverageError::Misaligned { base, k } => {
                write!(
                    f,
                    "interval [{base}, {base}+{k}) is not one of the workload's"
                )
            }
            CoverageError::Duplicate { base } => write!(f, "value {base} was drawn twice"),
            CoverageError::Gap { base } => write!(f, "value {base} was never drawn"),
        }
    }
}

/// One bit per length-`k` interval, so checking millions of draws costs
/// the generator kilobytes and `peak_rss_mb` stays the program's.
pub struct Coverage {
    k: u64,
    bits: Vec<u64>,
    drawn: u64,
}

impl Coverage {
    /// A checker for draws of exactly `k` values each.
    pub fn new(k: u64) -> Self {
        Coverage {
            k,
            bits: Vec::new(),
            drawn: 0,
        }
    }

    /// Marks `[base, base + k)` as drawn.
    pub fn record(&mut self, base: u64, k: u64) -> Result<(), CoverageError> {
        if k != self.k || !base.is_multiple_of(k) {
            return Err(CoverageError::Misaligned { base, k });
        }
        let slot = (base / k) as usize;
        if self.bits.len() <= slot / 64 {
            self.bits.resize(slot / 64 + 1, 0);
        }
        let bit = 1u64 << (slot % 64);
        if self.bits[slot / 64] & bit != 0 {
            return Err(CoverageError::Duplicate { base });
        }
        self.bits[slot / 64] |= bit;
        self.drawn += 1;
        Ok(())
    }

    /// Folds another client's draws into this one.
    pub fn merge(&mut self, other: &Coverage) -> Result<(), CoverageError> {
        if self.bits.len() < other.bits.len() {
            self.bits.resize(other.bits.len(), 0);
        }
        for (word, (mine, theirs)) in self.bits.iter_mut().zip(&other.bits).enumerate() {
            let both = *mine & *theirs;
            if both != 0 {
                let slot = word as u64 * 64 + u64::from(both.trailing_zeros());
                return Err(CoverageError::Duplicate {
                    base: slot * self.k,
                });
            }
            *mine |= *theirs;
        }
        self.drawn += other.drawn;
        Ok(())
    }

    /// The number of values drawn, `N`, once the draws are known to be
    /// exactly `0..N`.
    pub fn finish(&self) -> Result<u64, CoverageError> {
        // `drawn` distinct bits are set, so they are slots 0..drawn
        // exactly when the first unset slot is `drawn`
        let first_unset = self
            .bits
            .iter()
            .enumerate()
            .find(|(_, &bits)| bits != u64::MAX)
            .map_or(self.bits.len() as u64 * 64, |(word, &bits)| {
                word as u64 * 64 + u64::from(bits.trailing_ones())
            });
        if first_unset < self.drawn {
            return Err(CoverageError::Gap {
                base: first_unset * self.k,
            });
        }
        Ok(self.drawn * self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn covered(bases: &[u64], k: u64) -> Result<u64, CoverageError> {
        let mut c = Coverage::new(k);
        for &base in bases {
            c.record(base, k)?;
        }
        c.finish()
    }

    #[test]
    fn exact_tilings_pass_in_any_order() {
        assert_eq!(covered(&[], 1), Ok(0));
        assert_eq!(covered(&[2, 0, 1, 3], 1), Ok(4));
        let bases: Vec<u64> = (0..200).rev().map(|i| i * 256).collect();
        assert_eq!(covered(&bases, 256), Ok(200 * 256));
    }

    #[test]
    fn an_injected_duplicate_is_caught() {
        assert_eq!(
            covered(&[0, 1, 2, 1], 1),
            Err(CoverageError::Duplicate { base: 1 })
        );
        // and across two clients
        let (mut a, mut b) = (Coverage::new(256), Coverage::new(256));
        for i in 0..100 {
            a.record(i * 512, 256).unwrap();
            b.record(i * 512 + 256, 256).unwrap();
        }
        b.record(70 * 512, 256).unwrap();
        assert_eq!(
            a.merge(&b),
            Err(CoverageError::Duplicate { base: 70 * 512 })
        );
    }

    #[test]
    fn an_injected_gap_is_caught() {
        assert_eq!(covered(&[0, 1, 3], 1), Err(CoverageError::Gap { base: 2 }));
        let bases: Vec<u64> = (0..200).filter(|&i| i != 130).map(|i| i * 256).collect();
        assert_eq!(
            covered(&bases, 256),
            Err(CoverageError::Gap { base: 130 * 256 })
        );
        // two clients that together leave a hole
        let (mut a, mut b) = (Coverage::new(1), Coverage::new(1));
        a.record(0, 1).unwrap();
        b.record(2, 1).unwrap();
        a.merge(&b).unwrap();
        assert_eq!(a.finish(), Err(CoverageError::Gap { base: 1 }));
    }

    #[test]
    fn a_foreign_interval_is_caught() {
        assert_eq!(
            covered(&[0, 100], 256),
            Err(CoverageError::Misaligned { base: 100, k: 256 })
        );
        let mut c = Coverage::new(256);
        assert_eq!(
            c.record(0, 1),
            Err(CoverageError::Misaligned { base: 0, k: 1 })
        );
    }
}
