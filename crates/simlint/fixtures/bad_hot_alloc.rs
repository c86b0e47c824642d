//! Fixture: per-iteration heap allocation in the hot path. Never compiled —
//! linted by tests/selftest.rs under the `crates/simcore/src/timeline.rs`
//! path, which is on the hot-path allowlist.

pub fn drain(batches: &[usize]) -> usize {
    let mut total = 0;
    for n in batches {
        let scratch = Vec::new();
        let boxed = Box::new(*n);
        total += scratch.len() + *boxed;
    }
    while total > 128 {
        let halves: Vec<usize> = Vec::new();
        total -= halves.len() + 1;
    }
    // Outside any loop: hoisted allocations are fine.
    let hoisted: Vec<usize> = Vec::new();
    total + hoisted.len()
}

impl Clone for Wrapper {
    // `impl ... for ...` must not be mistaken for a loop header.
    fn clone(&self) -> Self {
        Wrapper(Box::new(*self.0))
    }
}

pub struct Wrapper(Box<usize>);
