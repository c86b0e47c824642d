//! # coarse-simcore
//!
//! The deterministic simulation foundations underpinning the COARSE
//! reproduction. It provides:
//!
//! - exact integer-nanosecond [`time`] (instants and durations),
//! - FIFO resource bookkeeping in [`timeline`],
//! - reproducible randomness ([`rng::SimRng`]),
//! - data-size and bandwidth [`units`] whose transfer times are exact durations,
//! - measurement collectors in [`stats`],
//! - structured tracing (spans/instants/counters) in [`trace`],
//! - a typed metric registry (counters/gauges/histograms) in [`metrics`],
//! - self-profiling of the simulator's own hot loops in [`prof`],
//! - critical-path recording and simulated-time attribution in [`critpath`],
//! - deterministic zero-dep JSON construction and parsing in [`json`],
//! - seeded, schedule-driven fault injection in [`faults`],
//! - runtime invariant oracles for chaos search in [`oracle`], and
//! - an offline deterministic property-test harness in [`check`].
//!
//! Everything is deterministic: the same program and seed produce the same
//! timings on every run and platform.
//!
//! ```
//! use coarse_simcore::prelude::*;
//!
//! // A link that serves 1 KiB transfers at 1 GiB/s, in arrival order.
//! let mut link = ResourceTimeline::new();
//! let cost = Bandwidth::gib_per_sec(1.0).transfer_time(ByteSize::kib(1));
//! let a = link.reserve(SimTime::ZERO, cost);
//! let b = link.reserve(SimTime::ZERO, cost);
//! assert_eq!(b.start, a.end); // the second transfer queues behind the first
//! assert_eq!(b.end - SimTime::ZERO, cost * 2);
//! ```

#![warn(missing_docs)]

pub mod check;
pub mod critpath;
pub mod faults;
pub mod json;
pub mod metrics;
pub mod oracle;
pub mod prof;
pub mod rng;
pub mod stats;
pub mod time;
pub mod timeline;
pub mod trace;
pub mod units;

/// Convenient glob-import of the crate's common types.
pub mod prelude {
    pub use crate::critpath::{CritPath, Explanation, NodeId};
    pub use crate::faults::{
        shrink_plan, FaultPlan, FaultPlanGen, FaultSpec, FaultUniverse, ShrinkOutcome,
    };
    pub use crate::json::{JsonParseError, JsonValue};
    pub use crate::metrics::{HistogramSummary, MetricRegistry, MetricsSnapshot};
    pub use crate::oracle::{Oracle, OracleEvent, OracleHub, Violation};
    pub use crate::prof::{Pow2Histogram, Profiler, RegionGuard};
    pub use crate::rng::SimRng;
    pub use crate::stats::{BusyTracker, Histogram, OnlineStats, QuantileEstimator, Series};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::timeline::{Grant, ResourceTimeline};
    pub use crate::trace::{
        null_tracer, NullTracer, RecordingTracer, SharedTracer, Trace, TraceEvent, TraceEventKind,
        Tracer, TrackId,
    };
    pub use crate::units::{Bandwidth, ByteSize};
}
