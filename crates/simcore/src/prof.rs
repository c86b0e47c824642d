//! Self-profiling of the simulator itself: where does *simulation* time go?
//!
//! The tracing layer ([`crate::trace`]) records what the simulated system
//! did; the metric registry ([`crate::metrics`]) counts what it cost in
//! simulated resources. Neither answers the question that gates every
//! optimization: which subsystem burns the *host's* cycles. This
//! module is that instrument — a zero-dependency profiler for the
//! simulator's own hot loops, attached the same way tracers and metric
//! registries are (an `Option<Profiler>` that defaults to `None` and is
//! pure observation when absent).
//!
//! The profile splits into two strictly separated sections:
//!
//! - **Deterministic**: per-event-type dispatch counters, named queue-depth
//!   histograms, per-region enter and event counts, and (with the
//!   `prof-alloc` feature) allocation counts attributed to regions.
//!   These depend only on the simulated program, never on the host, so two
//!   runs of the same scenario render byte-identical JSON — CI diffs them
//!   exactly.
//! - **Wall-clock** (feature `prof-wallclock`, on by default): elapsed
//!   nanoseconds, events per second, and per-region self/total time from
//!   scoped [`Profiler::enter`] regions. Machine-dependent by nature;
//!   consumers treat drift here as advisory.
//!
//! Reports render as the versioned [`PROFILE_SCHEMA`] JSON document plus a
//! collapsed-stack file ([`Profiler::folded`]) consumable by standard
//! flamegraph tooling (`flamegraph.pl`, `inferno-flamegraph`, speedscope).
//!
//! ```
//! use coarse_simcore::prof::{region, Profiler};
//!
//! let prof = Profiler::new();
//! {
//!     let _g = prof.enter(region::FABRIC_LINK);
//!     prof.count(region::FABRIC_LINK, 3); // three link legs scheduled
//! }
//! let det = prof.deterministic_json().render();
//! assert!(det.contains("\"fabric.link\""));
//! ```

// simlint: allow(parallel-ready, reason = "RefCell backs the Rc-shared profiler handle below; Rc is !Send, so the type system pins it to one thread")
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::json::JsonValue;

/// Schema identifier of the profile-report JSON document.
pub const PROFILE_SCHEMA: &str = "coarse.profile-report/v1";

/// Profiling regions: the fixed subsystem taxonomy time and allocations are
/// attributed to. The set is a closed table ([`region::ALL`]) so the
/// `prof-alloc` counting allocator can index regions with a plain atomic
/// slot number and reports always cover every region (zeros included),
/// keeping the deterministic section's shape run-independent.
pub mod region {
    /// Fabric link scheduling (`TransferEngine` leg computation).
    pub const FABRIC_LINK: &str = "fabric.link";
    /// CCI coherence-directory message processing.
    pub const CCI_COHERENCE: &str = "cci.coherence";
    /// Sync-core ring collective steps (timed collectives and sync groups).
    pub const CCI_SYNC_RING: &str = "cci.sync_ring";
    /// Proxy-core service scheduling (queues, launches, sync cores).
    pub const CORE_PROXY: &str = "core.proxy";
    /// Training forward/backward compute bookkeeping.
    pub const TRAIN_COMPUTE: &str = "train.compute";
    /// Input-pipeline prefetch transfers.
    pub const TRAIN_PREFETCH: &str = "train.prefetch";
    /// Gradient push (worker → proxy shard streams).
    pub const TRAIN_PUSH: &str = "train.push";
    /// Proxy-tier collective of one gradient bucket.
    pub const TRAIN_COLLECTIVE: &str = "train.collective";
    /// Parameter pull (proxy → worker shard streams).
    pub const TRAIN_PULL: &str = "train.pull";
    /// GPU dual-sync ring of the shallow layers.
    pub const TRAIN_GPU_SYNC: &str = "train.gpu_sync";
    /// Anything not inside a scoped region.
    pub const OTHER: &str = "other";

    /// Every region, in report order. Slot indices into this table are the
    /// allocator's attribution key.
    pub const ALL: [&str; 11] = [
        FABRIC_LINK,
        CCI_COHERENCE,
        CCI_SYNC_RING,
        CORE_PROXY,
        TRAIN_COMPUTE,
        TRAIN_PREFETCH,
        TRAIN_PUSH,
        TRAIN_COLLECTIVE,
        TRAIN_PULL,
        TRAIN_GPU_SYNC,
        OTHER,
    ];

    /// Number of regions in [`ALL`].
    pub const COUNT: usize = ALL.len();

    /// The slot index of `name` in [`ALL`]; unknown names map to
    /// [`OTHER`]'s slot.
    pub fn slot(name: &str) -> usize {
        ALL.iter().position(|&r| r == name).unwrap_or(COUNT - 1)
    }
}

/// The closed alphabet of per-event-type dispatch labels: every string
/// library code passes to [`Profiler::dispatch`]. The profiler itself
/// accepts any label (its map is a `BTreeMap`), but keeping the alphabet
/// closed here means profile reports can be diffed across runs and models
/// without label drift; `simlint`'s `label-registered` rule enforces the
/// table in both directions.
pub const DISPATCH_LABELS: &[&str] = &[
    "core.service.done",
    "core.service.kick",
    "straggler.compute_done",
];

/// A power-of-two bucketed histogram of `u64` observations.
///
/// Bucket 0 holds the value 0; bucket `k ≥ 1` holds values `v` with
/// `2^(k-1) ≤ v < 2^k`. Exact bucket membership depends only on the
/// observed values, so the rendered histogram is deterministic whenever the
/// observations are.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pow2Histogram {
    buckets: [u64; 65],
    count: u64,
    max: u64,
}

impl Default for Pow2Histogram {
    fn default() -> Self {
        Pow2Histogram {
            buckets: [0; 65],
            count: 0,
            max: 0,
        }
    }
}

impl Pow2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        let k = (64 - v.leading_zeros()) as usize;
        self.buckets[k] += 1;
        self.count += 1;
        self.max = self.max.max(v);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest observation recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// An upper bound on the `q`-quantile (`0.0 ≤ q ≤ 1.0`) of the recorded
    /// observations, or `None` when the histogram is empty.
    ///
    /// The walk finds the first bucket at which the cumulative count reaches
    /// `ceil(q * count)` (at least one observation, so `q = 0.0` lands on
    /// the smallest non-empty bucket) and returns that bucket's inclusive
    /// upper edge: 0 for bucket 0, `2^k − 1` for bucket `k ≥ 1`, clamped to
    /// the recorded maximum so the returned bound is always attainable.
    pub fn approx_quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (k, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let edge = if k == 0 {
                    0
                } else if k == 64 {
                    u64::MAX
                } else {
                    (1u64 << k) - 1
                };
                return Some(edge.min(self.max));
            }
        }
        Some(self.max)
    }

    /// Renders the non-empty buckets as a deterministic JSON array of
    /// `{"pow2": k, "count": n}` rows plus the observation count and max.
    pub fn to_json(&self) -> JsonValue {
        let rows: Vec<JsonValue> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(k, &n)| {
                JsonValue::object()
                    .with("pow2", JsonValue::int(k as u64))
                    .with("count", JsonValue::int(n))
            })
            .collect();
        JsonValue::object()
            .with("count", JsonValue::int(self.count))
            .with("max", JsonValue::int(self.max))
            .with("buckets", JsonValue::Array(rows))
    }
}

/// One open region on the profiling stack.
struct Frame {
    slot: usize,
    #[cfg(feature = "prof-wallclock")]
    started: std::time::Instant,
    /// Wall time attributed to child regions, subtracted for self-time.
    #[cfg(feature = "prof-wallclock")]
    child_ns: u64,
}

struct ProfState {
    dispatch: BTreeMap<&'static str, u64>,
    enters: [u64; region::COUNT],
    events: [u64; region::COUNT],
    depths: BTreeMap<&'static str, Pow2Histogram>,
    stack: Vec<Frame>,
    /// Folded stack paths (`sim;a;b`) → (deterministic enter count, wall
    /// self-nanoseconds; the latter stays 0 without `prof-wallclock`).
    folded: BTreeMap<String, (u64, u64)>,
    #[cfg(feature = "prof-wallclock")]
    self_ns: [u64; region::COUNT],
    #[cfg(feature = "prof-wallclock")]
    total_ns: [u64; region::COUNT],
    #[cfg(feature = "prof-wallclock")]
    born: std::time::Instant,
    /// Elapsed nanoseconds frozen by [`Profiler::seal`].
    #[cfg(feature = "prof-wallclock")]
    sealed_elapsed_ns: Option<u64>,
    #[cfg(feature = "prof-alloc")]
    alloc_base: alloc_counter::Snapshot,
    /// Allocation counters frozen by [`Profiler::seal`].
    #[cfg(feature = "prof-alloc")]
    alloc_end: Option<alloc_counter::Snapshot>,
}

impl ProfState {
    fn new() -> Self {
        ProfState {
            dispatch: BTreeMap::new(),
            enters: [0; region::COUNT],
            events: [0; region::COUNT],
            depths: BTreeMap::new(),
            stack: Vec::new(),
            folded: BTreeMap::new(),
            #[cfg(feature = "prof-wallclock")]
            self_ns: [0; region::COUNT],
            #[cfg(feature = "prof-wallclock")]
            total_ns: [0; region::COUNT],
            #[cfg(feature = "prof-wallclock")]
            born: std::time::Instant::now(),
            #[cfg(feature = "prof-wallclock")]
            sealed_elapsed_ns: None,
            #[cfg(feature = "prof-alloc")]
            alloc_base: alloc_counter::snapshot(),
            #[cfg(feature = "prof-alloc")]
            alloc_end: None,
        }
    }

    fn stack_path(&self) -> String {
        let mut path = String::from("sim");
        for f in &self.stack {
            path.push(';');
            path.push_str(region::ALL[f.slot]);
        }
        path
    }

    fn exit_top(&mut self) {
        // simlint: allow(panic-in-library, reason = "RegionGuard::drop is the only caller and every guard pushed a frame")
        let frame = self.stack.pop().expect("region stack underflow");
        let path = {
            let mut p = self.stack_path();
            p.push(';');
            p.push_str(region::ALL[frame.slot]);
            p
        };
        let entry = self.folded.entry(path).or_insert((0, 0));
        entry.0 += 1;
        #[cfg(feature = "prof-wallclock")]
        {
            let elapsed = frame.started.elapsed().as_nanos() as u64;
            let self_ns = elapsed.saturating_sub(frame.child_ns);
            self.self_ns[frame.slot] += self_ns;
            self.total_ns[frame.slot] += elapsed;
            entry.1 += self_ns;
            if let Some(parent) = self.stack.last_mut() {
                parent.child_ns += elapsed;
            }
        }
    }
}

/// A cheap-clone handle to one profiling session, mirroring
/// [`crate::metrics::MetricRegistry`]'s shape: every clone shares the same
/// state, and subsystems hold an `Option<Profiler>` that defaults to `None`.
///
/// Profiling is observation-only by contract: attaching a profiler never
/// changes simulated timings, schedules, or results — the zero-perturbation
/// tests in `coarse-trainsim` enforce this the same way the PR 1 trace
/// tests do.
#[derive(Clone)]
pub struct Profiler {
    // simlint: allow(parallel-ready, reason = "cheap-clone profiler handle; self-profiling stays per-thread under a parallel kernel")
    state: Rc<RefCell<ProfState>>,
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.borrow();
        f.debug_struct("Profiler")
            .field("dispatched", &s.dispatch.values().sum::<u64>())
            .field("open_regions", &s.stack.len())
            .finish()
    }
}

impl Profiler {
    /// A fresh profiling session. With `prof-alloc` enabled this snapshots
    /// the allocator counters so the report carries only this session's
    /// allocations.
    pub fn new() -> Self {
        Profiler {
            // simlint: allow(parallel-ready, reason = "constructor of the waived profiler handle; same single-thread discipline")
            state: Rc::new(RefCell::new(ProfState::new())),
        }
    }

    /// Opens a scoped region; time (and, under `prof-alloc`, allocations)
    /// until the returned guard drops is attributed to `name`. Regions
    /// nest: a child's elapsed time is subtracted from the parent's
    /// self-time, and the full stack path feeds the folded flamegraph
    /// output.
    pub fn enter(&self, name: &'static str) -> RegionGuard {
        let slot = region::slot(name);
        {
            let mut s = self.state.borrow_mut();
            s.enters[slot] += 1;
            s.stack.push(Frame {
                slot,
                #[cfg(feature = "prof-wallclock")]
                started: std::time::Instant::now(),
                #[cfg(feature = "prof-wallclock")]
                child_ns: 0,
            });
        }
        #[cfg(feature = "prof-alloc")]
        let prev_slot = alloc_counter::set_current(slot);
        RegionGuard {
            state: Rc::clone(&self.state),
            #[cfg(feature = "prof-alloc")]
            prev_slot,
        }
    }

    /// Adds `n` deterministic work events to `name`'s region counter
    /// (shards pushed, ring steps run, coherence messages processed, ...).
    pub fn count(&self, name: &'static str, n: u64) {
        self.state.borrow_mut().events[region::slot(name)] += n;
    }

    /// Records one per-event-type dispatch: an event-driven loop calls it
    /// once per event it handles, with a label from [`DISPATCH_LABELS`].
    pub fn dispatch(&self, label: &'static str) {
        *self.state.borrow_mut().dispatch.entry(label).or_insert(0) += 1;
    }

    /// Observes a named queue depth (proxy parked shards, service queues).
    pub fn observe_depth(&self, name: &'static str, depth: u64) {
        self.state
            .borrow_mut()
            .depths
            .entry(name)
            .or_default()
            .record(depth);
    }

    /// Seals the session: elapsed wall time and (under `prof-alloc`) the
    /// global allocation counters are frozen at this instant, so later
    /// activity in the same process — another profiled run, report
    /// rendering — cannot leak into this session's report. Region and
    /// event counters keep recording; sealing only pins the *ambient*
    /// measurements that read process-wide state. Idempotent: the first
    /// seal wins.
    pub fn seal(&self) {
        #[cfg(any(feature = "prof-wallclock", feature = "prof-alloc"))]
        {
            let mut s = self.state.borrow_mut();
            #[cfg(feature = "prof-wallclock")]
            if s.sealed_elapsed_ns.is_none() {
                s.sealed_elapsed_ns = Some(s.born.elapsed().as_nanos() as u64);
            }
            #[cfg(feature = "prof-alloc")]
            if s.alloc_end.is_none() {
                s.alloc_end = Some(alloc_counter::snapshot());
            }
        }
    }

    /// Total events dispatched so far, over every label.
    pub fn events_dispatched(&self) -> u64 {
        self.state.borrow().dispatch.values().sum()
    }

    /// The deterministic work-event count of one region.
    pub fn region_events(&self, name: &str) -> u64 {
        self.state.borrow().events[region::slot(name)]
    }

    /// The deterministic section: dispatch counters, per-region enter and
    /// event counts, named depth histograms, and (under `prof-alloc`)
    /// allocation counts. Byte-identical across runs of the
    /// same simulated program.
    pub fn deterministic_json(&self) -> JsonValue {
        let s = self.state.borrow();
        let mut dispatch = JsonValue::object();
        for (&label, &n) in &s.dispatch {
            dispatch = dispatch.with(label, JsonValue::int(n));
        }
        let mut regions = JsonValue::object();
        for (i, &name) in region::ALL.iter().enumerate() {
            regions = regions.with(
                name,
                JsonValue::object()
                    .with("enters", JsonValue::int(s.enters[i]))
                    .with("events", JsonValue::int(s.events[i])),
            );
        }
        let mut depths = JsonValue::object();
        for (&name, hist) in &s.depths {
            depths = depths.with(name, hist.to_json());
        }
        JsonValue::object()
            .with("dispatch", dispatch)
            .with("regions", regions)
            .with("depths", depths)
            .with("alloc", Self::alloc_json(&s))
    }

    #[cfg(feature = "prof-alloc")]
    fn alloc_json(s: &ProfState) -> JsonValue {
        let now = s.alloc_end.unwrap_or_else(alloc_counter::snapshot);
        let mut regions = JsonValue::object();
        for (i, &name) in region::ALL.iter().enumerate() {
            regions = regions.with(
                name,
                JsonValue::object()
                    .with(
                        "allocs",
                        JsonValue::int(now.counts[i].saturating_sub(s.alloc_base.counts[i])),
                    )
                    .with(
                        "bytes",
                        JsonValue::int(now.bytes[i].saturating_sub(s.alloc_base.bytes[i])),
                    ),
            );
        }
        JsonValue::object()
            .with("enabled", JsonValue::Bool(true))
            .with("regions", regions)
    }

    #[cfg(not(feature = "prof-alloc"))]
    fn alloc_json(_s: &ProfState) -> JsonValue {
        JsonValue::object().with("enabled", JsonValue::Bool(false))
    }

    /// The wall-clock section: elapsed time, events/sec, ns/event, and
    /// per-region self/total host time. Machine-dependent; `{"enabled":
    /// false}` when simcore is built without `prof-wallclock`.
    pub fn wallclock_json(&self) -> JsonValue {
        let s = self.state.borrow();
        #[cfg(feature = "prof-wallclock")]
        {
            let elapsed_ns = s
                .sealed_elapsed_ns
                .unwrap_or_else(|| s.born.elapsed().as_nanos() as u64);
            let dispatched: u64 = s.dispatch.values().sum();
            let (events_per_sec, ns_per_event) = if dispatched > 0 && elapsed_ns > 0 {
                (
                    JsonValue::num(dispatched as f64 / (elapsed_ns as f64 / 1e9)),
                    JsonValue::num(elapsed_ns as f64 / dispatched as f64),
                )
            } else {
                (JsonValue::Null, JsonValue::Null)
            };
            let mut regions = JsonValue::object();
            for (i, &name) in region::ALL.iter().enumerate() {
                regions = regions.with(
                    name,
                    JsonValue::object()
                        .with("self_ns", JsonValue::int(s.self_ns[i]))
                        .with("total_ns", JsonValue::int(s.total_ns[i])),
                );
            }
            JsonValue::object()
                .with("enabled", JsonValue::Bool(true))
                .with("elapsed_ns", JsonValue::int(elapsed_ns))
                .with("events_per_sec", events_per_sec)
                .with("ns_per_event", ns_per_event)
                .with("regions", regions)
        }
        #[cfg(not(feature = "prof-wallclock"))]
        {
            let _ = &s;
            JsonValue::object().with("enabled", JsonValue::Bool(false))
        }
    }

    /// The full [`PROFILE_SCHEMA`] document for `scenario`.
    pub fn report_json(&self, scenario: &str) -> JsonValue {
        JsonValue::object()
            .with("schema", JsonValue::str(PROFILE_SCHEMA))
            .with("scenario", JsonValue::str(scenario))
            .with("deterministic", self.deterministic_json())
            .with("wallclock", self.wallclock_json())
    }

    /// Collapsed-stack ("folded") output for flamegraph tooling: one
    /// `path;to;region weight` line per observed stack. With
    /// `prof-wallclock` the weight is wall self-nanoseconds; without it,
    /// the deterministic region enter count.
    pub fn folded(&self) -> String {
        let s = self.state.borrow();
        let mut out = String::new();
        for (path, &(enters, self_ns)) in &s.folded {
            let weight = if cfg!(feature = "prof-wallclock") {
                self_ns
            } else {
                enters
            };
            out.push_str(path);
            out.push(' ');
            out.push_str(&weight.to_string());
            out.push('\n');
        }
        out
    }
}

/// Guard of one open [`Profiler::enter`] region; closes it on drop.
pub struct RegionGuard {
    // simlint: allow(parallel-ready, reason = "guard shares the waived profiler handle; closes its region on the same thread that opened it")
    state: Rc<RefCell<ProfState>>,
    #[cfg(feature = "prof-alloc")]
    prev_slot: usize,
}

impl Drop for RegionGuard {
    fn drop(&mut self) {
        self.state.borrow_mut().exit_top();
        #[cfg(feature = "prof-alloc")]
        alloc_counter::set_current(self.prev_slot);
    }
}

/// True if a profiler is attached — the guard callers use to skip
/// profiling-only bookkeeping entirely when unprofiled, mirroring
/// [`crate::trace::active`] and [`crate::metrics::metered`].
pub fn profiled(p: &Option<Profiler>) -> bool {
    p.is_some()
}

/// The counting global allocator (feature `prof-alloc`): wraps the system
/// allocator and attributes every allocation to the profiling region open
/// at the time. Binaries opt in by declaring it:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: coarse_simcore::prof::alloc_counter::CountingAlloc =
///     coarse_simcore::prof::alloc_counter::CountingAlloc;
/// ```
///
/// Attribution uses plain atomics indexed by the closed [`region::ALL`]
/// slot table (no thread-locals: a lazily initialized TLS key could itself
/// allocate and recurse into the allocator). Allocations outside any
/// region land on the [`region::OTHER`] slot.
#[cfg(feature = "prof-alloc")]
pub mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    // simlint: allow(parallel-ready, reason = "allocator counters must be atomics; a mutex inside the global allocator would deadlock")
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    use super::region;

    #[allow(clippy::declare_interior_mutable_const)]
    // simlint: allow(parallel-ready, reason = "array-initializer constant for the counter tables below")
    const ZERO: AtomicU64 = AtomicU64::new(0);
    // simlint: allow(parallel-ready, reason = "monotonic per-slot tally; reordered increments sum to the same total")
    static COUNTS: [AtomicU64; region::COUNT] = [ZERO; region::COUNT];
    // simlint: allow(parallel-ready, reason = "monotonic per-slot tally; reordered increments sum to the same total")
    static BYTES: [AtomicU64; region::COUNT] = [ZERO; region::COUNT];
    // simlint: allow(parallel-ready, reason = "attribution slot is advisory; a stale read misattributes a sample, never corrupts state")
    static CURRENT: AtomicUsize = AtomicUsize::new(region::COUNT - 1);

    /// A point-in-time copy of the per-region allocation counters.
    #[derive(Debug, Clone, Copy)]
    pub struct Snapshot {
        /// Allocation counts per region slot.
        pub counts: [u64; region::COUNT],
        /// Allocated bytes per region slot.
        pub bytes: [u64; region::COUNT],
    }

    /// Reads the current counter values.
    pub fn snapshot() -> Snapshot {
        let mut counts = [0; region::COUNT];
        let mut bytes = [0; region::COUNT];
        for i in 0..region::COUNT {
            // simlint: allow(parallel-ready, reason = "counters are independent monotonic cells; no cross-counter ordering to preserve")
            counts[i] = COUNTS[i].load(Ordering::Relaxed);
            // simlint: allow(parallel-ready, reason = "counters are independent monotonic cells; no cross-counter ordering to preserve")
            bytes[i] = BYTES[i].load(Ordering::Relaxed);
        }
        Snapshot { counts, bytes }
    }

    /// Sets the attribution slot, returning the previous one (used by
    /// region guards to restore their parent's slot).
    pub fn set_current(slot: usize) -> usize {
        // simlint: allow(parallel-ready, reason = "slot swap orders nothing else; misattribution under races is tolerated by design")
        CURRENT.swap(slot.min(region::COUNT - 1), Ordering::Relaxed)
    }

    /// The counting allocator; see the module docs for how to install it.
    pub struct CountingAlloc;

    // SAFETY: delegates entirely to `System`; the counter updates are
    // lock-free atomics that themselves never allocate.
    // simlint: allow(parallel-ready, reason = "GlobalAlloc is an unsafe trait; the impl only forwards to System plus lock-free tallies")
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc(layout);
            if !p.is_null() {
                let slot = CURRENT.load(Ordering::Relaxed).min(region::COUNT - 1);
                COUNTS[slot].fetch_add(1, Ordering::Relaxed);
                BYTES[slot].fetch_add(layout.size() as u64, Ordering::Relaxed);
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let p = System.realloc(ptr, layout, new_size);
            if !p.is_null() {
                let slot = CURRENT.load(Ordering::Relaxed).min(region::COUNT - 1);
                COUNTS[slot].fetch_add(1, Ordering::Relaxed);
                BYTES[slot].fetch_add(new_size as u64, Ordering::Relaxed);
            }
            p
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_buckets_partition_the_range() {
        let mut h = Pow2Histogram::new();
        h.record(0); // bucket 0
        h.record(1); // bucket 1
        h.record(2); // bucket 2
        h.record(3); // bucket 2
        h.record(4); // bucket 3
        h.record(u64::MAX); // bucket 64
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), u64::MAX);
        let doc = h.to_json().render();
        assert!(doc.contains("\"pow2\":0,\"count\":1"));
        assert!(doc.contains("\"pow2\":2,\"count\":2"));
        assert!(doc.contains("\"pow2\":64,\"count\":1"));
    }

    #[test]
    fn pow2_boundary_values_land_in_their_documented_buckets() {
        // Bucket 0 holds only 0; bucket k >= 1 holds [2^(k-1), 2^k); the
        // all-ones value saturates the last bucket.
        for (v, bucket) in [
            (0u64, 0usize),
            (1, 1),
            (2, 2),
            (3, 2),
            (4, 3),
            (1 << 32, 33),
            (u64::MAX, 64),
        ] {
            let mut h = Pow2Histogram::new();
            h.record(v);
            let doc = h.to_json().render();
            assert!(
                doc.contains(&format!("\"pow2\":{bucket},\"count\":1")),
                "value {v} should land in bucket {bucket}: {doc}"
            );
            assert_eq!(h.max(), v);
        }
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Pow2Histogram::new();
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.approx_quantile(q), None);
        }
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn quantiles_bound_the_recorded_values() {
        let mut h = Pow2Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 100, 1000] {
            h.record(v);
        }
        // q=0 lands on the smallest non-empty bucket (the recorded zero).
        assert_eq!(h.approx_quantile(0.0), Some(0));
        // Median of 7 values is the 4th (value 3, bucket 2, edge 3).
        assert_eq!(h.approx_quantile(0.5), Some(3));
        // The top quantile is clamped to the recorded max, not the bucket
        // edge 1023.
        assert_eq!(h.approx_quantile(1.0), Some(1000));
        // Out-of-range q clamps rather than panicking.
        assert_eq!(h.approx_quantile(2.0), Some(1000));
        assert_eq!(h.approx_quantile(-1.0), Some(0));
    }

    #[test]
    fn quantile_of_the_max_bucket_is_attainable() {
        let mut h = Pow2Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.approx_quantile(0.5), Some(u64::MAX));
        let mut single = Pow2Histogram::new();
        single.record(1);
        assert_eq!(single.approx_quantile(1.0), Some(1));
        let mut zero = Pow2Histogram::new();
        zero.record(0);
        assert_eq!(zero.approx_quantile(1.0), Some(0));
    }

    #[test]
    fn regions_nest_and_fold() {
        let p = Profiler::new();
        {
            let _a = p.enter(region::TRAIN_PUSH);
            {
                let _b = p.enter(region::FABRIC_LINK);
                p.count(region::FABRIC_LINK, 2);
            }
            {
                let _b = p.enter(region::FABRIC_LINK);
            }
        }
        assert_eq!(p.region_events(region::FABRIC_LINK), 2);
        let folded = p.folded();
        assert!(folded.contains("sim;train.push;fabric.link "));
        assert!(folded.contains("sim;train.push "));
        let det = p.deterministic_json().render();
        assert!(det.contains("\"fabric.link\":{\"enters\":2,\"events\":2}"));
        assert!(det.contains("\"train.push\":{\"enters\":1,\"events\":0}"));
    }

    #[test]
    fn deterministic_section_is_byte_stable() {
        let run = || {
            let p = Profiler::new();
            let _g = p.enter(region::CORE_PROXY);
            p.dispatch("tick");
            p.dispatch("tick");
            p.dispatch("tock");
            p.observe_depth("test.queue", 3);
            drop(_g);
            p.deterministic_json().render()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn dispatch_and_queue_counters_accumulate() {
        let p = Profiler::new();
        p.observe_depth("test.queue", 1);
        p.observe_depth("test.queue", 2);
        p.dispatch("ev");
        p.dispatch("ev");
        p.dispatch("other");
        assert_eq!(p.events_dispatched(), 3);
        let det = p.deterministic_json().render();
        assert!(det.contains("\"dispatch\":{\"ev\":2,\"other\":1}"), "{det}");
        assert!(
            det.contains("\"test.queue\":{\"count\":2,\"max\":2"),
            "{det}"
        );
    }

    #[test]
    fn report_carries_schema_and_sections() {
        let p = Profiler::new();
        let doc = p.report_json("unit").render();
        assert!(doc.contains("\"schema\":\"coarse.profile-report/v1\""));
        assert!(doc.contains("\"scenario\":\"unit\""));
        assert!(doc.contains("\"deterministic\":{"));
        assert!(doc.contains("\"wallclock\":{"));
    }

    #[test]
    fn unknown_region_lands_on_other() {
        assert_eq!(region::slot("no.such.region"), region::COUNT - 1);
        assert_eq!(region::slot(region::OTHER), region::COUNT - 1);
        assert_eq!(region::slot(region::FABRIC_LINK), 0);
    }

    #[cfg(feature = "prof-wallclock")]
    #[test]
    fn sealed_wallclock_is_stable() {
        let p = Profiler::new();
        {
            let _g = p.enter(region::CORE_PROXY);
        }
        p.seal();
        let a = p.wallclock_json().render();
        std::hint::black_box((0..100_000u64).sum::<u64>());
        let b = p.wallclock_json().render();
        assert_eq!(a, b, "sealed elapsed time must not keep advancing");
    }

    #[cfg(feature = "prof-wallclock")]
    #[test]
    fn wallclock_section_reports_elapsed() {
        let p = Profiler::new();
        {
            let _g = p.enter(region::CORE_PROXY);
            std::hint::black_box((0..1000u64).sum::<u64>());
        }
        let doc = p.wallclock_json().render();
        assert!(doc.contains("\"enabled\":true"));
        assert!(doc.contains("\"elapsed_ns\":"));
    }
}
