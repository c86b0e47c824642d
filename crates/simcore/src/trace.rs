//! Structured tracing for simulation runs.
//!
//! Every load-bearing layer of the reproduction (fabric transfers, sync-core
//! ring steps, proxy queues, dual-sync decisions, training phases) can emit
//! **spans**, **instants**, and **counters** through the [`Tracer`] trait.
//! Events are stamped with the simulated clock ([`SimTime`]), a static
//! category string, and a *track* — one row per device, link, or logical
//! lane in the rendered timeline, mirroring the per-stage attribution that
//! drives communication-layer tuning in the paper's figures.
//!
//! Tracing is observation-only and zero-overhead when disabled:
//!
//! - instrumented structs hold an `Option<SharedTracer>` that defaults to
//!   `None`, so the hot path pays one branch;
//! - call sites must check [`Tracer::is_enabled`] before formatting names,
//!   so no allocation happens on untraced runs;
//! - the recording implementation appends to a plain `Vec` behind an
//!   `Rc<RefCell<..>>`, preserving exact emission order so exported traces
//!   are byte-identical across runs with the same seed.
//!
//! [`NullTracer`] is the explicit no-op implementation; [`RecordingTracer`]
//! captures everything into a [`Trace`] that exporters (Chrome trace-event
//! JSON, text summaries) consume.

// simlint: allow(parallel-ready, reason = "RefCell backs the Rc-shared tracer handle below; Rc is !Send, so the type system pins it to one thread")
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Debug;
use std::rc::Rc;

use crate::time::{SimDuration, SimTime};

/// Well-known event categories used by the instrumented layers.
///
/// Keeping them in one place gives exporters and tests a stable vocabulary;
/// new layers should add a constant here rather than inventing ad-hoc
/// strings.
pub mod category {
    /// Link occupancy and flow delivery in `coarse-fabric`.
    pub const FABRIC: &str = "fabric";
    /// Sync-core ring steps (functional and timed collectives).
    pub const SYNC: &str = "cci.sync";
    /// Coherence-directory protocol traffic.
    pub const COHERENCE: &str = "cci.coherence";
    /// Parameter-client push/pull/partition activity.
    pub const CLIENT: &str = "core.client";
    /// Parameter-proxy queueing and service.
    pub const PROXY: &str = "core.proxy";
    /// Dual-sync split decisions (candidate `m`, pilots, chosen `m*`).
    pub const DUALSYNC: &str = "core.dualsync";
    /// Per-iteration training phases (FP/BP/push/collective/pull/blocked).
    pub const TRAIN: &str = "train";
    /// Injected faults (from a `faults::FaultPlan`) and resilience actions.
    pub const FAULT: &str = "fault";
}

/// Identifies one track (timeline row) in a trace. Interned by name via
/// [`Tracer::track`]; `TrackId(0)` is returned by the no-op tracer and is
/// never dereferenced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TrackId(pub u32);

/// What kind of event was recorded.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEventKind {
    /// A closed interval starting at the event's `time`.
    Span {
        /// How long the span lasted.
        duration: SimDuration,
    },
    /// A zero-duration point event.
    Instant,
    /// A sampled gauge/counter value at the event's `time`.
    Counter {
        /// The sampled value.
        value: f64,
    },
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulated time of the event (span start for spans).
    pub time: SimTime,
    /// Category from [`category`].
    pub category: &'static str,
    /// Track (timeline row) the event belongs to.
    pub track: TrackId,
    /// Human-readable event name.
    pub name: String,
    /// Span / instant / counter payload.
    pub kind: TraceEventKind,
}

/// The sink instrumented code emits events into.
///
/// All methods take `&self`: implementations use interior mutability so a
/// single tracer handle can be shared (`Rc`) across the many structs that
/// make up one simulation. `Debug` is a supertrait so instrumented structs
/// can keep deriving `Debug`.
pub trait Tracer: Debug {
    /// Whether events are being recorded. Call sites must check this before
    /// doing any formatting work, so disabled tracing costs nothing.
    fn is_enabled(&self) -> bool;

    /// Interns a track by name, returning its id. Repeated calls with the
    /// same name return the same id.
    fn track(&self, name: &str) -> TrackId;

    /// Opens a span on `track` at `time`. Spans on one track nest as a
    /// stack: the matching [`Tracer::end_span`] closes the innermost one.
    fn begin_span(&self, time: SimTime, category: &'static str, track: TrackId, name: &str);

    /// Closes the innermost open span on `track` at `time`.
    fn end_span(&self, time: SimTime, track: TrackId);

    /// Records a complete span in one call.
    fn span(
        &self,
        start: SimTime,
        end: SimTime,
        category: &'static str,
        track: TrackId,
        name: &str,
    );

    /// Records a point event.
    fn instant(&self, time: SimTime, category: &'static str, track: TrackId, name: &str);

    /// Samples a gauge/counter value.
    fn counter(
        &self,
        time: SimTime,
        category: &'static str,
        track: TrackId,
        name: &str,
        value: f64,
    );
}

/// A shareable tracer handle. `Rc` (not `Arc`): the simulator is
/// single-threaded by design, and `Rc` keeps instrumented structs `Clone`.
pub type SharedTracer = Rc<dyn Tracer>;

/// The explicit no-op tracer: every method is empty and
/// [`Tracer::is_enabled`] is `false`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullTracer;

impl Tracer for NullTracer {
    fn is_enabled(&self) -> bool {
        false
    }

    fn track(&self, _name: &str) -> TrackId {
        TrackId(0)
    }

    fn begin_span(&self, _time: SimTime, _category: &'static str, _track: TrackId, _name: &str) {}

    fn end_span(&self, _time: SimTime, _track: TrackId) {}

    fn span(
        &self,
        _start: SimTime,
        _end: SimTime,
        _category: &'static str,
        _track: TrackId,
        _name: &str,
    ) {
    }

    fn instant(&self, _time: SimTime, _category: &'static str, _track: TrackId, _name: &str) {}

    fn counter(
        &self,
        _time: SimTime,
        _category: &'static str,
        _track: TrackId,
        _name: &str,
        _value: f64,
    ) {
    }
}

/// A no-op [`SharedTracer`].
pub fn null_tracer() -> SharedTracer {
    Rc::new(NullTracer)
}

#[derive(Debug, Default)]
struct TraceState {
    tracks: Vec<String>,
    by_name: HashMap<String, TrackId>,
    /// Innermost-last stack of open spans per track: (start, category, name).
    open: HashMap<TrackId, Vec<(SimTime, &'static str, String)>>,
    events: Vec<TraceEvent>,
}

impl TraceState {
    fn intern(&mut self, name: &str) -> TrackId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        // simlint: allow(panic-in-library, reason = "more than u32::MAX distinct trace tracks is out of scope by design")
        let id = TrackId(u32::try_from(self.tracks.len()).expect("too many trace tracks"));
        self.tracks.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        id
    }
}

/// A tracer that records every event in emission order.
///
/// Cloning is cheap and shares the underlying buffer, so one recording can
/// be fed by the fabric engine, the collectives layer, and the training
/// loop simultaneously.
#[derive(Debug, Clone, Default)]
pub struct RecordingTracer {
    // simlint: allow(parallel-ready, reason = "cheap-clone tracer handle; per-worker traces stitched by timestamp replace this under parallel dispatch")
    state: Rc<RefCell<TraceState>>,
}

impl RecordingTracer {
    /// An empty recording tracer.
    pub fn new() -> Self {
        RecordingTracer::default()
    }

    /// This tracer as a [`SharedTracer`] handle feeding the same buffer.
    pub fn handle(&self) -> SharedTracer {
        Rc::new(self.clone())
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.state.borrow().events.len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes the finished trace, leaving this tracer empty.
    ///
    /// # Panics
    ///
    /// Panics if any span is still open — an unbalanced
    /// [`Tracer::begin_span`] is an instrumentation bug.
    pub fn take(&self) -> Trace {
        let mut state = self.state.borrow_mut();
        for (track, stack) in &state.open {
            assert!(
                stack.is_empty(),
                "trace track {track:?} still has {} open span(s): {:?}",
                stack.len(),
                stack.last().map(|(_, _, name)| name.as_str())
            );
        }
        Trace {
            tracks: std::mem::take(&mut state.tracks),
            events: std::mem::take(&mut state.events),
        }
    }
}

impl Tracer for RecordingTracer {
    fn is_enabled(&self) -> bool {
        true
    }

    fn track(&self, name: &str) -> TrackId {
        self.state.borrow_mut().intern(name)
    }

    fn begin_span(&self, time: SimTime, category: &'static str, track: TrackId, name: &str) {
        self.state
            .borrow_mut()
            .open
            .entry(track)
            .or_default()
            .push((time, category, name.to_string()));
    }

    fn end_span(&self, time: SimTime, track: TrackId) {
        let mut state = self.state.borrow_mut();
        let (start, category, name) = state
            .open
            .get_mut(&track)
            .and_then(Vec::pop)
            // simlint: allow(panic-in-library, reason = "documented # Panics contract: end_span pairs with begin_span on the same track")
            .unwrap_or_else(|| panic!("end_span on track {track:?} with no open span"));
        state.events.push(TraceEvent {
            time: start,
            category,
            track,
            name,
            kind: TraceEventKind::Span {
                duration: time.duration_since(start),
            },
        });
    }

    fn span(
        &self,
        start: SimTime,
        end: SimTime,
        category: &'static str,
        track: TrackId,
        name: &str,
    ) {
        self.state.borrow_mut().events.push(TraceEvent {
            time: start,
            category,
            track,
            name: name.to_string(),
            kind: TraceEventKind::Span {
                duration: end.duration_since(start),
            },
        });
    }

    fn instant(&self, time: SimTime, category: &'static str, track: TrackId, name: &str) {
        self.state.borrow_mut().events.push(TraceEvent {
            time,
            category,
            track,
            name: name.to_string(),
            kind: TraceEventKind::Instant,
        });
    }

    fn counter(
        &self,
        time: SimTime,
        category: &'static str,
        track: TrackId,
        name: &str,
        value: f64,
    ) {
        self.state.borrow_mut().events.push(TraceEvent {
            time,
            category,
            track,
            name: name.to_string(),
            kind: TraceEventKind::Counter { value },
        });
    }
}

/// A finished recording: interned track names plus events in emission order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Track names, indexed by [`TrackId`].
    pub tracks: Vec<String>,
    /// All recorded events in emission order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// The name of `track`.
    pub fn track_name(&self, track: TrackId) -> &str {
        &self.tracks[track.0 as usize]
    }

    /// The id of the track named `name`, if any event was recorded on it.
    pub fn find_track(&self, name: &str) -> Option<TrackId> {
        self.tracks
            .iter()
            .position(|t| t == name)
            .map(|i| TrackId(i as u32))
    }

    /// Events with the given category.
    pub fn events_in<'a>(&'a self, category: &'static str) -> impl Iterator<Item = &'a TraceEvent> {
        self.events.iter().filter(move |e| e.category == category)
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The latest instant covered by any event (span end, instant, or
    /// counter sample); `SimTime::ZERO` for an empty trace.
    pub fn horizon(&self) -> SimTime {
        self.events
            .iter()
            .map(|e| match e.kind {
                TraceEventKind::Span { duration } => e.time + duration,
                _ => e.time,
            })
            .fold(SimTime::ZERO, SimTime::max)
    }
}

/// Returns `tracer` only when present *and* enabled — the standard guard
/// instrumented code uses before formatting event names.
pub fn active(tracer: &Option<SharedTracer>) -> Option<&SharedTracer> {
    tracer.as_ref().filter(|t| t.is_enabled())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_tracer_is_disabled_and_inert() {
        let t = null_tracer();
        assert!(!t.is_enabled());
        let track = t.track("anything");
        t.begin_span(SimTime::ZERO, category::FABRIC, track, "s");
        t.end_span(SimTime::from_nanos(5), track);
        t.instant(SimTime::ZERO, category::TRAIN, track, "i");
        t.counter(SimTime::ZERO, category::PROXY, track, "c", 1.0);
        // Nothing observable: the null tracer has no state at all.
        assert_eq!(track, TrackId(0));
    }

    #[test]
    fn recording_tracer_interns_tracks() {
        let t = RecordingTracer::new();
        let a = t.track("link a");
        let b = t.track("link b");
        assert_ne!(a, b);
        assert_eq!(t.track("link a"), a);
        let trace = t.take();
        assert_eq!(trace.track_name(a), "link a");
        assert_eq!(trace.find_track("link b"), Some(b));
        assert_eq!(trace.find_track("missing"), None);
    }

    #[test]
    fn spans_nest_per_track() {
        let t = RecordingTracer::new();
        let tr = t.track("lane");
        t.begin_span(SimTime::from_nanos(10), category::TRAIN, tr, "outer");
        t.begin_span(SimTime::from_nanos(20), category::TRAIN, tr, "inner");
        t.end_span(SimTime::from_nanos(30), tr);
        t.end_span(SimTime::from_nanos(50), tr);
        let trace = t.take();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.events[0].name, "inner");
        assert_eq!(
            trace.events[0].kind,
            TraceEventKind::Span {
                duration: SimDuration::from_nanos(10)
            }
        );
        assert_eq!(trace.events[1].name, "outer");
        assert_eq!(
            trace.events[1].kind,
            TraceEventKind::Span {
                duration: SimDuration::from_nanos(40)
            }
        );
        assert_eq!(trace.horizon(), SimTime::from_nanos(50));
    }

    #[test]
    #[should_panic(expected = "no open span")]
    fn unbalanced_end_span_panics() {
        let t = RecordingTracer::new();
        let tr = t.track("lane");
        t.end_span(SimTime::ZERO, tr);
    }

    #[test]
    #[should_panic(expected = "open span")]
    fn take_with_open_span_panics() {
        let t = RecordingTracer::new();
        let tr = t.track("lane");
        t.begin_span(SimTime::ZERO, category::TRAIN, tr, "dangling");
        let _ = t.take();
    }

    #[test]
    fn clones_share_one_buffer() {
        let t = RecordingTracer::new();
        let other = t.clone();
        let handle = t.handle();
        let tr = t.track("shared");
        other.instant(SimTime::ZERO, category::SYNC, tr, "from clone");
        handle.counter(SimTime::from_nanos(1), category::PROXY, tr, "depth", 3.0);
        assert_eq!(t.len(), 2);
        let trace = t.take();
        assert_eq!(trace.events_in(category::SYNC).count(), 1);
        assert_eq!(trace.events_in(category::PROXY).count(), 1);
        assert_eq!(trace.events[1].kind, TraceEventKind::Counter { value: 3.0 });
    }

    #[test]
    fn active_guard_filters_disabled() {
        assert!(active(&None).is_none());
        assert!(active(&Some(null_tracer())).is_none());
        let rec: SharedTracer = Rc::new(RecordingTracer::new());
        assert!(active(&Some(rec)).is_some());
    }
}
