//! Communication micro-benchmarks ("the profiler's measurement kernels").
//!
//! COARSE builds its routing tables from measured point-to-point latency and
//! bandwidth (§III-E). These probes run transfers on an idle
//! [`TransferEngine`] and report achieved figures; they also regenerate the
//! paper's Fig. 8 bandwidth matrices and the Fig. 13/14/15 size sweeps. A
//! [`Prober`] runs a sequence of probes on one engine; each free function
//! is one probe on a fresh one.

use coarse_simcore::time::{SimDuration, SimTime};
use coarse_simcore::units::ByteSize;

use crate::device::DeviceId;
use crate::engine::TransferEngine;
use crate::topology::{LinkMask, Topology};

/// Number of back-to-back transfers per measurement; enough to amortize the
/// first transfer's latency.
const PROBE_REPEATS: u64 = 8;

/// One point-to-point measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeResult {
    /// Achieved one-direction bandwidth, bytes/sec.
    pub unidirectional: f64,
    /// Achieved two-direction aggregate bandwidth, bytes/sec.
    pub bidirectional: f64,
    /// Delivery latency of a minimal (4 KiB) transfer.
    pub latency: SimDuration,
}

impl ProbeResult {
    /// Unidirectional bandwidth in GiB/s.
    pub fn uni_gib(&self) -> f64 {
        self.unidirectional / (1u64 << 30) as f64
    }

    /// Bidirectional bandwidth in GiB/s.
    pub fn bidir_gib(&self) -> f64 {
        self.bidirectional / (1u64 << 30) as f64
    }
}

/// A measurement session on one fabric: one engine, returned to idle
/// before every measurement, so each result equals the same probe on a
/// fresh [`TransferEngine`] while the routes it looks up stay memoized
/// across the session.
#[derive(Debug)]
pub struct Prober {
    engine: TransferEngine,
}

impl Prober {
    /// A session on `topo`.
    pub fn new(topo: &Topology) -> Self {
        Prober {
            engine: TransferEngine::new(topo.clone()),
        }
    }

    /// An idle engine for the next measurement.
    fn idle(&mut self) -> &mut TransferEngine {
        self.engine.reset_idle();
        &mut self.engine
    }

    /// Achieved one-direction bandwidth `a → b` at `size`, in bytes/sec,
    /// over link classes in `mask`.
    ///
    /// # Panics
    ///
    /// Panics if no allowed route exists between the endpoints.
    pub fn unidirectional(
        &mut self,
        a: DeviceId,
        b: DeviceId,
        size: ByteSize,
        mask: LinkMask,
    ) -> f64 {
        let eng = self.idle();
        let mut first_start = None;
        let mut last_end = SimTime::ZERO;
        for _ in 0..PROBE_REPEATS {
            let rec = eng
                .transfer_masked(a, b, size, last_end, mask)
                // simlint: allow(panic-in-library, reason = "probe endpoints are chosen from the probed machine's connected topology")
                .expect("probe endpoints must be connected");
            first_start.get_or_insert(rec.start);
            last_end = rec.end;
        }
        // simlint: allow(panic-in-library, reason = "the probe scheduled at least one transfer in the loop above")
        let elapsed = last_end - first_start.expect("at least one transfer ran");
        (size.as_f64() * PROBE_REPEATS as f64) / elapsed.as_secs_f64()
    }

    /// Achieved aggregate bandwidth with both directions saturated (`a → b`
    /// and `b → a` concurrently), in bytes/sec.
    ///
    /// # Panics
    ///
    /// Panics if no allowed route exists between the endpoints.
    pub fn bidirectional(
        &mut self,
        a: DeviceId,
        b: DeviceId,
        size: ByteSize,
        mask: LinkMask,
    ) -> f64 {
        let eng = self.idle();
        let mut fwd_end = SimTime::ZERO;
        let mut rev_end = SimTime::ZERO;
        for _ in 0..PROBE_REPEATS {
            fwd_end = eng
                .transfer_masked(a, b, size, fwd_end, mask)
                // simlint: allow(panic-in-library, reason = "probe endpoints are chosen from the probed machine's connected topology")
                .expect("probe endpoints must be connected")
                .end;
            rev_end = eng
                .transfer_masked(b, a, size, rev_end, mask)
                // simlint: allow(panic-in-library, reason = "probe endpoints are chosen from the probed machine's connected topology")
                .expect("probe endpoints must be connected")
                .end;
        }
        let makespan = fwd_end.max(rev_end);
        (size.as_f64() * 2.0 * PROBE_REPEATS as f64) / makespan.as_secs_f64()
    }

    /// End-to-end time of one transfer of `size` from `a` to `b` on the
    /// idle fabric.
    ///
    /// # Panics
    ///
    /// Panics if no allowed route exists between the endpoints.
    pub fn transfer_time(
        &mut self,
        a: DeviceId,
        b: DeviceId,
        size: ByteSize,
        mask: LinkMask,
    ) -> SimDuration {
        self.idle()
            .transfer_masked(a, b, size, SimTime::ZERO, mask)
            // simlint: allow(panic-in-library, reason = "probe endpoints are chosen from the probed machine's connected topology")
            .expect("probe endpoints must be connected")
            .elapsed()
    }

    /// Delivery latency of a minimal (4 KiB) transfer `a → b`.
    ///
    /// # Panics
    ///
    /// Panics if no allowed route exists between the endpoints.
    pub fn latency(&mut self, a: DeviceId, b: DeviceId, mask: LinkMask) -> SimDuration {
        self.transfer_time(a, b, ByteSize::kib(4), mask)
    }

    /// Unidirectional bandwidth `a → b` at each of `sizes`, as
    /// `(size, bytes_per_sec)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if no allowed route exists between the endpoints.
    pub fn sweep(
        &mut self,
        a: DeviceId,
        b: DeviceId,
        sizes: &[ByteSize],
        mask: LinkMask,
    ) -> Vec<(ByteSize, f64)> {
        sizes
            .iter()
            .map(|&s| (s, self.unidirectional(a, b, s, mask)))
            .collect()
    }
}

/// Measures achieved one-direction bandwidth `a → b` at `size`, in
/// bytes/sec, over link classes in `mask`.
///
/// # Panics
///
/// Panics if no allowed route exists between the endpoints.
pub fn measure_unidirectional(
    topo: &Topology,
    a: DeviceId,
    b: DeviceId,
    size: ByteSize,
    mask: LinkMask,
) -> f64 {
    Prober::new(topo).unidirectional(a, b, size, mask)
}

/// Measures achieved aggregate bandwidth with both directions saturated
/// (`a → b` and `b → a` concurrently), in bytes/sec.
///
/// # Panics
///
/// Panics if no allowed route exists between the endpoints.
pub fn measure_bidirectional(
    topo: &Topology,
    a: DeviceId,
    b: DeviceId,
    size: ByteSize,
    mask: LinkMask,
) -> f64 {
    Prober::new(topo).bidirectional(a, b, size, mask)
}

/// Measures delivery latency of a minimal transfer `a → b`.
///
/// # Panics
///
/// Panics if no allowed route exists between the endpoints.
pub fn measure_latency(topo: &Topology, a: DeviceId, b: DeviceId, mask: LinkMask) -> SimDuration {
    Prober::new(topo).latency(a, b, mask)
}

/// Full point-to-point probe between `a` and `b` at `size`.
pub fn probe_pair(
    topo: &Topology,
    a: DeviceId,
    b: DeviceId,
    size: ByteSize,
    mask: LinkMask,
) -> ProbeResult {
    let mut prober = Prober::new(topo);
    ProbeResult {
        unidirectional: prober.unidirectional(a, b, size, mask),
        bidirectional: prober.bidirectional(a, b, size, mask),
        latency: prober.latency(a, b, mask),
    }
}

/// The all-pairs bidirectional bandwidth matrix of Fig. 8, in GiB/s.
/// `matrix[i][j]` is the aggregate bidirectional bandwidth between
/// `devices[i]` and `devices[j]`; the diagonal is 0.
pub fn bidirectional_matrix(
    topo: &Topology,
    devices: &[DeviceId],
    size: ByteSize,
    mask: LinkMask,
) -> Vec<Vec<f64>> {
    let mut prober = Prober::new(topo);
    let n = devices.len();
    let mut m = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in 0..n {
            if i != j {
                m[i][j] =
                    prober.bidirectional(devices[i], devices[j], size, mask) / (1u64 << 30) as f64;
            }
        }
    }
    m
}

/// Bandwidth-vs-size sweep between two endpoints: the Fig. 13/14/15 curve
/// shape. Returns `(size, bytes_per_sec)` pairs.
pub fn bandwidth_sweep(
    topo: &Topology,
    a: DeviceId,
    b: DeviceId,
    sizes: &[ByteSize],
    mask: LinkMask,
) -> Vec<(ByteSize, f64)> {
    Prober::new(topo).sweep(a, b, sizes, mask)
}

/// Standard probe sizes: powers of two from 4 KiB to 64 MiB.
pub fn standard_sizes() -> Vec<ByteSize> {
    (12..=26).map(|p| ByteSize::bytes(1u64 << p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines::{aws_v100, sdsc_p100};
    use crate::topology::LinkClass;

    const NO_NVLINK: LinkMask = LinkMask::ALL.without(LinkClass::NvLink);

    #[test]
    fn bidirectional_roughly_doubles_unidirectional() {
        let m = sdsc_p100();
        let gpus = m.gpus().to_vec();
        let r = probe_pair(m.topology(), gpus[0], gpus[1], ByteSize::mib(64), NO_NVLINK);
        // §III-E: 13 GiB/s unidirectional, ~25 GiB/s bidirectional.
        assert!((r.uni_gib() - 13.0).abs() < 1.0, "uni {}", r.uni_gib());
        assert!(
            r.bidir_gib() > 1.8 * r.uni_gib(),
            "bidir {} should be near 2x uni {}",
            r.bidir_gib(),
            r.uni_gib()
        );
    }

    #[test]
    fn latency_positive_and_small() {
        let m = sdsc_p100();
        let gpus = m.gpus().to_vec();
        let lat = measure_latency(m.topology(), gpus[0], gpus[1], NO_NVLINK);
        assert!(lat > SimDuration::ZERO);
        assert!(lat < SimDuration::from_millis(1));
    }

    #[test]
    fn matrix_symmetric_and_zero_diagonal() {
        let m = sdsc_p100();
        let gpus = m.gpus().to_vec();
        let mat = bidirectional_matrix(m.topology(), &gpus, ByteSize::mib(16), NO_NVLINK);
        for (i, row) in mat.iter().enumerate() {
            assert_eq!(row[i], 0.0);
            for (j, &v) in row.iter().enumerate() {
                assert!((v - mat[j][i]).abs() < 0.2);
            }
        }
    }

    #[test]
    fn v100_matrix_shows_anti_locality() {
        let m = aws_v100();
        let gpus = m.gpus().to_vec();
        let mat = bidirectional_matrix(m.topology(), &gpus[..4], ByteSize::mib(16), NO_NVLINK);
        // gpus 0,1 share a switch; 0,2 do not.
        assert!(
            mat[0][2] > mat[0][1] * 1.3,
            "remote {} must exceed local {}",
            mat[0][2],
            mat[0][1]
        );
    }

    #[test]
    fn sweep_is_monotonic() {
        let m = sdsc_p100();
        let gpus = m.gpus().to_vec();
        let pts = bandwidth_sweep(m.topology(), gpus[0], gpus[1], &standard_sizes(), NO_NVLINK);
        assert_eq!(pts.len(), 15);
        for w in pts.windows(2) {
            assert!(
                w[1].1 >= w[0].1 * 0.999,
                "bandwidth must not drop with size"
            );
        }
    }
}
