//! Fixture: a dispatch call passing a label missing from the profiler's
//! DISPATCH_LABELS alphabet. Never compiled — linted by tests/selftest.rs
//! under a synthetic `crates/trainsim/src/` path.

fn run(profiler: &Profiler, ghost: bool) {
    profiler.dispatch("known.label");
    if ghost {
        profiler.dispatch("ghost.label");
    }
}
