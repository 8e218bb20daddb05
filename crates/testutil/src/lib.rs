//! # ipd-testutil — deterministic randomness for offline test suites
//!
//! The workspace builds and tests with **zero network access**, so the
//! test suites cannot depend on crates.io (`rand`, `proptest`). This
//! crate supplies the two things those dependencies were used for:
//!
//! - [`XorShift64`] — a tiny, fast, deterministic pseudo-random number
//!   generator (Marsaglia xorshift64*), good enough for randomized
//!   structural tests and stimulus sweeps.
//! - [`check`] / [`check_n`] — a minimal property-test loop: run a
//!   closure over `n` seeded cases and report the failing seed so a
//!   failure reproduces exactly.
//!
//! Determinism is a feature: every test derives its stream from a fixed
//! seed, so CI failures replay locally bit-for-bit.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

/// Default number of cases run by [`check`].
pub const DEFAULT_CASES: u32 = 64;

/// A xorshift64* pseudo-random number generator.
///
/// Not cryptographic — a deterministic stimulus source for tests and
/// benchmark workloads.
///
/// # Examples
///
/// ```
/// use ipd_testutil::XorShift64;
///
/// let mut rng = XorShift64::new(42);
/// let a = rng.next_u64();
/// let b = rng.next_u64();
/// assert_ne!(a, b);
/// assert_eq!(XorShift64::new(42).next_u64(), a, "deterministic");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a generator from a seed (0 is remapped internally).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            // xorshift has a fixed point at 0; nudge it off.
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        }
    }

    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniform value in `0..bound` (`bound` of 0 returns 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        self.next_u64() % bound
    }

    /// A uniform `usize` in `0..bound` (`bound` of 0 returns 0).
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// A uniform value in the inclusive range `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let span = (hi as i128 - lo as i128 + 1) as u128;
        let offset = (u128::from(self.next_u64()) % span) as i128;
        (i128::from(lo) + offset) as i64
    }

    /// A pseudo-random boolean.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A vector of `len` pseudo-random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| (self.next_u64() & 0xFF) as u8).collect()
    }
}

/// Runs `case` for [`DEFAULT_CASES`] seeded cases.
///
/// # Panics
///
/// Panics (with the failing case number) when `case` panics; the case
/// number seeds the RNG, so failures replay deterministically.
pub fn check(name: &str, case: impl Fn(&mut XorShift64)) {
    check_n(name, DEFAULT_CASES, case);
}

/// Runs `case` over `cases` deterministic seeds.
///
/// Each case receives an RNG seeded from the case index, so any
/// failure names the exact case to replay.
///
/// # Panics
///
/// Propagates the first failing case's panic, prefixed with its seed.
pub fn check_n(name: &str, cases: u32, case: impl Fn(&mut XorShift64)) {
    for i in 0..cases {
        let seed = 0xA5A5_0000 + u64::from(i);
        let mut rng = XorShift64::new(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            case(&mut rng);
        }));
        if let Err(payload) = result {
            eprintln!("property `{name}` failed on case {i} (seed {seed:#x})");
            std::panic::resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = XorShift64::new(7);
        let mut b = XorShift64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn zero_seed_is_not_degenerate() {
        let mut rng = XorShift64::new(0);
        let values: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert!(values.iter().any(|&v| v != 0));
        assert_ne!(values[0], values[1]);
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = XorShift64::new(1);
        for bound in [1u64, 2, 3, 16, 1000] {
            for _ in 0..50 {
                assert!(rng.below(bound) < bound);
            }
        }
        assert_eq!(rng.below(0), 0);
    }

    #[test]
    fn range_covers_endpoints() {
        let mut rng = XorShift64::new(2);
        let (mut saw_lo, mut saw_hi) = (false, false);
        for _ in 0..500 {
            let v = rng.range_i64(-2, 2);
            assert!((-2..=2).contains(&v));
            saw_lo |= v == -2;
            saw_hi |= v == 2;
        }
        assert!(saw_lo && saw_hi, "endpoints reached");
    }

    #[test]
    fn check_reports_failures() {
        let result = std::panic::catch_unwind(|| {
            check_n("always_fails", 3, |_| panic!("boom"));
        });
        assert!(result.is_err());
    }

    #[test]
    fn check_passes_quiet() {
        check_n("trivial", 8, |rng| {
            let v = rng.below(10);
            assert!(v < 10);
        });
    }
}
