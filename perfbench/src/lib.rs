//! # perfbench
//!
//! Seeded end-to-end and per-layer host-performance benchmark of the COARSE
//! simulator. It drives the simulator only through its public entry points;
//! see `README.md` for the workloads, the metrics and how to run it.

pub mod alloc;
pub mod gate;
pub mod host;
pub mod report;
pub mod stats;
pub mod timed;
pub mod trace;
pub mod workloads;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Runs `f`, turning a panic into an `Err` carrying its message.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(format!("panicked: {msg}"))
    })
}
