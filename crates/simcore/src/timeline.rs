//! Serially-reusable resource bookkeeping.
//!
//! A [`ResourceTimeline`] models a resource that serves one request at a time
//! in arrival order (a link direction, a DMA engine, a compute stream). A
//! request arriving at `t` begins service at `max(t, busy_until)` and occupies
//! the resource for its duration. This is the store-and-forward approximation
//! used throughout the fabric model; requests must be offered in nondecreasing
//! arrival order, which every caller guarantees.

use crate::time::{SimDuration, SimTime};

/// A FIFO-served, serially-reusable resource.
///
/// ```
/// use coarse_simcore::timeline::ResourceTimeline;
/// use coarse_simcore::time::{SimDuration, SimTime};
///
/// let mut r = ResourceTimeline::new();
/// let a = r.reserve(SimTime::ZERO, SimDuration::from_nanos(10));
/// let b = r.reserve(SimTime::from_nanos(3), SimDuration::from_nanos(5));
/// assert_eq!(a.end.as_nanos(), 10);
/// assert_eq!(b.start.as_nanos(), 10); // queued behind `a`
/// assert_eq!(b.end.as_nanos(), 15);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ResourceTimeline {
    busy_until: SimTime,
    busy: SimDuration,
    served: u64,
}

/// The interval granted for one reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When service begins.
    pub start: SimTime,
    /// When service completes.
    pub end: SimTime,
}

impl Grant {
    /// Time spent waiting before service, given the arrival instant.
    pub fn queueing_delay(&self, arrival: SimTime) -> SimDuration {
        self.start.saturating_duration_since(arrival)
    }
}

impl ResourceTimeline {
    /// An idle resource.
    pub fn new() -> Self {
        ResourceTimeline::default()
    }

    /// The instant the resource next becomes free.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Number of reservations served.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Reserves the resource for `duration` starting no earlier than
    /// `arrival`; returns the granted interval.
    pub fn reserve(&mut self, arrival: SimTime, duration: SimDuration) -> Grant {
        let start = arrival.max(self.busy_until);
        let end = start + duration;
        self.busy_until = end;
        // Granted intervals are disjoint and in nondecreasing order, so a
        // running sum equals the merged busy time without interval storage.
        self.busy += duration;
        self.served += 1;
        Grant { start, end }
    }

    /// Reserves a train of `count` back-to-back requests of `duration`, the
    /// `j`-th arriving at `first + j·stride`. Leaves exactly the state of
    /// `count` calls to [`reserve`](Self::reserve) at those arrivals: with
    /// the resource free at `first` and `stride >= duration`, every request
    /// starts on arrival, so the train is closed-form arithmetic.
    pub fn reserve_train(
        &mut self,
        first: SimTime,
        duration: SimDuration,
        stride: SimDuration,
        count: u64,
    ) {
        if count == 0 {
            return;
        }
        debug_assert!(first >= self.busy_until, "train queues behind the resource");
        debug_assert!(stride >= duration, "train requests overlap");
        self.busy_until = first + stride * (count - 1) + duration;
        self.busy += duration * count;
        self.served += count;
    }

    /// Checks availability without reserving: when would a request arriving
    /// at `arrival` start service?
    pub fn earliest_start(&self, arrival: SimTime) -> SimTime {
        arrival.max(self.busy_until)
    }

    /// Total busy time accumulated so far.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Busy fraction over `[0, horizon)`.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        assert!(horizon > SimTime::ZERO, "horizon must be positive");
        self.busy.as_secs_f64() / horizon.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_starts_immediately() {
        let mut r = ResourceTimeline::new();
        let g = r.reserve(SimTime::from_nanos(7), SimDuration::from_nanos(3));
        assert_eq!(g.start, SimTime::from_nanos(7));
        assert_eq!(g.end, SimTime::from_nanos(10));
        assert_eq!(g.queueing_delay(SimTime::from_nanos(7)), SimDuration::ZERO);
    }

    #[test]
    fn queued_request_waits() {
        let mut r = ResourceTimeline::new();
        r.reserve(SimTime::ZERO, SimDuration::from_nanos(100));
        let g = r.reserve(SimTime::from_nanos(10), SimDuration::from_nanos(5));
        assert_eq!(g.start, SimTime::from_nanos(100));
        assert_eq!(
            g.queueing_delay(SimTime::from_nanos(10)),
            SimDuration::from_nanos(90)
        );
    }

    #[test]
    fn gap_leaves_idle_time() {
        let mut r = ResourceTimeline::new();
        r.reserve(SimTime::ZERO, SimDuration::from_nanos(10));
        r.reserve(SimTime::from_nanos(50), SimDuration::from_nanos(10));
        assert_eq!(r.busy_time(), SimDuration::from_nanos(20));
        assert!((r.utilization(SimTime::from_nanos(100)) - 0.2).abs() < 1e-12);
        assert_eq!(r.served(), 2);
    }

    #[test]
    fn reserve_train_matches_repeated_reserve() {
        let (duration, stride) = (SimDuration::from_nanos(7), SimDuration::from_nanos(11));
        for preload in [0u64, 5, 40] {
            for count in 0..6u64 {
                let first = SimTime::from_nanos(40);
                let mut looped = ResourceTimeline::new();
                let mut train = ResourceTimeline::new();
                if preload > 0 {
                    looped.reserve(SimTime::ZERO, SimDuration::from_nanos(preload));
                    train.reserve(SimTime::ZERO, SimDuration::from_nanos(preload));
                }
                for j in 0..count {
                    let g = looped.reserve(first + stride * j, duration);
                    assert_eq!(g.start, first + stride * j, "train request queued");
                }
                train.reserve_train(first, duration, stride, count);
                assert_eq!(train.busy_until(), looped.busy_until(), "count {count}");
                assert_eq!(train.busy_time(), looped.busy_time(), "count {count}");
                assert_eq!(train.served(), looped.served(), "count {count}");
            }
        }
    }

    #[test]
    fn earliest_start_does_not_reserve() {
        let mut r = ResourceTimeline::new();
        r.reserve(SimTime::ZERO, SimDuration::from_nanos(10));
        assert_eq!(
            r.earliest_start(SimTime::from_nanos(2)),
            SimTime::from_nanos(10)
        );
        assert_eq!(r.busy_until(), SimTime::from_nanos(10));
    }
}
