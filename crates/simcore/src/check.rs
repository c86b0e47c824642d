//! A small deterministic property-test harness.
//!
//! The repro must build and test in sandboxed environments with no registry
//! access, so the test suites cannot depend on `proptest`. This module is
//! the in-repo replacement: a value generator ([`Gen`]) driven by the
//! crate's own xoshiro RNG ([`SimRng`]) and a case runner
//! ([`run_cases`]) that derives every case's seed from the property name,
//! so failures reproduce exactly and independently of test ordering.
//!
//! ```
//! use coarse_simcore::check::{run_cases, Gen};
//!
//! run_cases("addition_commutes", 64, |g: &mut Gen| {
//!     let a = g.u64_in(0..1_000);
//!     let b = g.u64_in(0..1_000);
//!     assert_eq!(a + b, b + a);
//! });
//! ```

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crate::rng::SimRng;

/// A deterministic generator of arbitrary-ish values for one test case.
#[derive(Debug)]
pub struct Gen {
    rng: SimRng,
}

impl Gen {
    /// A generator over the given RNG stream.
    pub fn new(rng: SimRng) -> Self {
        Gen { rng }
    }

    /// Direct access to the underlying RNG.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// A uniformly random `u64`.
    pub fn any_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// A uniform `u64` in the half-open range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn u64_in(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range {range:?}");
        range.start + self.rng.next_below(range.end - range.start)
    }

    /// A uniform `usize` in the half-open range.
    pub fn usize_in(&mut self, range: std::ops::Range<usize>) -> usize {
        self.u64_in(range.start as u64..range.end as u64) as usize
    }

    /// A uniform `f64` in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        self.rng.range_f64(lo, hi)
    }

    /// A uniform `f32` in `[lo, hi)`.
    pub fn f32_in(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.rng.next_f32()
    }

    /// A fair coin flip.
    pub fn bool(&mut self) -> bool {
        self.rng.next_u64() & 1 == 1
    }

    /// One element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.usize_in(0..items.len())]
    }

    /// A vector whose length is drawn from `len` and whose elements come
    /// from `f`.
    pub fn vec_of<T>(
        &mut self,
        len: std::ops::Range<usize>,
        mut f: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let n = self.usize_in(len);
        (0..n).map(|_| f(self)).collect()
    }
}

/// FNV-1a, used to turn a property name into a seed base.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The seed for `case` of property `name`. Public so a failing case can be
/// replayed in isolation with [`Gen::new`] + [`SimRng::seed_from_u64`].
pub fn case_seed(name: &str, case: u64) -> u64 {
    fnv1a(name) ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Runs `prop` against `cases` deterministically generated inputs.
///
/// Each case gets a fresh [`Gen`] seeded from `(name, case index)`. On
/// panic, the failing case index and seed are printed before the panic is
/// propagated, so the case can be replayed directly.
pub fn run_cases(name: &str, cases: u64, mut prop: impl FnMut(&mut Gen)) {
    for case in 0..cases {
        let seed = case_seed(name, case);
        let mut g = Gen::new(SimRng::seed_from_u64(seed));
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| prop(&mut g))) {
            eprintln!("property '{name}' failed at case {case}/{cases} (seed {seed:#018x})");
            resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_respect_ranges() {
        run_cases("generators_respect_ranges", 128, |g| {
            let x = g.u64_in(10..20);
            assert!((10..20).contains(&x));
            let y = g.usize_in(0..3);
            assert!(y < 3);
            let f = g.f64_in(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&f));
            let h = g.f32_in(2.0, 4.0);
            assert!((2.0..4.0).contains(&h));
            let v = g.vec_of(1..5, |g| g.bool());
            assert!((1..5).contains(&v.len()));
            let pick = *g.choose(&[1, 2, 3]);
            assert!((1..=3).contains(&pick));
        });
    }

    #[test]
    fn cases_are_deterministic() {
        let mut first = Vec::new();
        run_cases("cases_are_deterministic", 16, |g| first.push(g.any_u64()));
        let mut second = Vec::new();
        run_cases("cases_are_deterministic", 16, |g| second.push(g.any_u64()));
        assert_eq!(first, second);
        // Different properties draw different streams.
        let mut other = Vec::new();
        run_cases("a_different_name", 16, |g| other.push(g.any_u64()));
        assert_ne!(first, other);
    }

    #[test]
    fn failing_case_reports_and_propagates() {
        let outcome = std::panic::catch_unwind(|| {
            run_cases("always_fails", 4, |_| panic!("boom"));
        });
        assert!(outcome.is_err());
    }
}
