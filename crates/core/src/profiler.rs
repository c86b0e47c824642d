//! The communication profiler that builds routing tables (§III-E).
//!
//! Ahead of training, COARSE measures each client's latency and bandwidth
//! to every proxy, picks `LatProxy` (lowest latency) and `BwProxy` (highest
//! bandwidth), finds the crossover size `S` where both take equal time, and
//! finds the partition size `S'` — the smallest transfer achieving full
//! bandwidth to `BwProxy`. Training re-runs the profiler periodically
//! (dynamic profiling).

use coarse_fabric::device::DeviceId;
use coarse_fabric::probe::{self, Prober};
use coarse_fabric::topology::{LinkClass, LinkMask, Topology};
use coarse_simcore::time::{SimDuration, SimTime};
use coarse_simcore::units::ByteSize;

use crate::routing::RoutingTable;

/// A profiled client→proxy path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProxyProfile {
    /// The measured proxy.
    pub proxy: DeviceId,
    /// Small-transfer delivery latency.
    pub latency: SimDuration,
    /// Large-transfer achieved bandwidth, bytes/sec.
    pub bandwidth: f64,
}

/// The profiler's link mask: COARSE measures the serial-bus path (plus
/// the inter-node network on clusters), disabling NVLink when present
/// (§IV-B), and never rides the dedicated proxy-to-proxy CCI fabric.
pub const PROFILER_LINKS: LinkMask = LinkMask::only(LinkClass::Pcie).with(LinkClass::Network);

/// Measures every proxy from `client` (Fig. 15's data).
pub fn profile_proxies(
    topo: &Topology,
    client: DeviceId,
    proxies: &[DeviceId],
) -> Vec<ProxyProfile> {
    measure_proxies(&mut Prober::new(topo), client, proxies)
}

/// [`profile_proxies`] on `prober`'s session.
fn measure_proxies(
    prober: &mut Prober,
    client: DeviceId,
    proxies: &[DeviceId],
) -> Vec<ProxyProfile> {
    proxies
        .iter()
        .map(|&p| ProxyProfile {
            proxy: p,
            latency: prober.latency(client, p, PROFILER_LINKS),
            bandwidth: prober.unidirectional(client, p, ByteSize::mib(64), PROFILER_LINKS),
        })
        .collect()
}

/// Fraction of peak bandwidth that counts as "full" when choosing `S'`.
pub const FULL_BANDWIDTH_FRACTION: f64 = 0.95;

/// Builds a client's routing table by measurement.
///
/// # Panics
///
/// Panics if `proxies` is empty or a proxy is unreachable.
pub fn build_routing_table(
    topo: &Topology,
    client: DeviceId,
    proxies: &[DeviceId],
    now: SimTime,
) -> RoutingTable {
    build_routing_table_for(topo, client, proxies, 0, now)
}

/// Like [`build_routing_table`], with the client's worker ordinal used to
/// spread bandwidth ties: when several proxies measure equally fast (within
/// 2%), clients rotate across them instead of all funneling into one — the
/// load-aware assignment implied by "routes a GPU's tensor to a
/// bandwidth-friendly memory device" (§I).
///
/// # Panics
///
/// Panics if `proxies` is empty or a proxy is unreachable.
pub fn build_routing_table_for(
    topo: &Topology,
    client: DeviceId,
    proxies: &[DeviceId],
    ordinal: usize,
    now: SimTime,
) -> RoutingTable {
    table_for(&mut Prober::new(topo), client, proxies, ordinal, now)
}

/// Every worker's routing table, measured on one probing session: worker
/// `w` gets [`build_routing_table_for`]'s table with ordinal `w`.
///
/// # Panics
///
/// Panics if `proxies` is empty or a proxy is unreachable.
pub fn build_routing_tables(
    prober: &mut Prober,
    workers: &[DeviceId],
    proxies: &[DeviceId],
    now: SimTime,
) -> Vec<RoutingTable> {
    workers
        .iter()
        .enumerate()
        .map(|(w, &worker)| table_for(prober, worker, proxies, w, now))
        .collect()
}

/// [`build_routing_table_for`] on `prober`'s session.
fn table_for(
    prober: &mut Prober,
    client: DeviceId,
    proxies: &[DeviceId],
    ordinal: usize,
    now: SimTime,
) -> RoutingTable {
    assert!(!proxies.is_empty(), "need at least one proxy to profile");
    let profiles = measure_proxies(prober, client, proxies);

    let best_latency = profiles
        .iter()
        .map(|p| p.latency)
        .min()
        // simlint: allow(panic-in-library, reason = "the shard-size grid iterated above is statically non-empty")
        .expect("non-empty profiles");
    let lat_ties: Vec<&ProxyProfile> = profiles
        .iter()
        .filter(|p| p.latency <= best_latency.mul_f64(1.02))
        .collect();
    let lat = lat_ties[ordinal % lat_ties.len()];
    let best_bw = profiles.iter().map(|p| p.bandwidth).fold(0.0f64, f64::max);
    let ties: Vec<&ProxyProfile> = profiles
        .iter()
        .filter(|p| p.bandwidth >= best_bw * 0.98)
        .collect();
    let bw = ties[ordinal % ties.len()];

    // S': smallest probe size reaching FULL_BANDWIDTH_FRACTION of the
    // BwProxy's large-transfer bandwidth.
    let sweep = prober.sweep(client, bw.proxy, &probe::standard_sizes(), PROFILER_LINKS);
    let shard_size = sweep
        .iter()
        .find(|(_, rate)| *rate >= bw.bandwidth * FULL_BANDWIDTH_FRACTION)
        .map(|&(s, _)| s)
        .unwrap_or_else(|| ByteSize::mib(2));

    if lat.proxy == bw.proxy {
        return RoutingTable::single(lat.proxy, shard_size, now);
    }

    // Crossover S: smallest probe size at which the BwProxy path is at
    // least as fast end-to-end as the LatProxy path.
    let threshold = probe::standard_sizes()
        .into_iter()
        .find(|&s| {
            prober.transfer_time(client, bw.proxy, s, PROFILER_LINKS)
                <= prober.transfer_time(client, lat.proxy, s, PROFILER_LINKS)
        })
        .unwrap_or_else(|| ByteSize::mib(2));

    RoutingTable {
        lat_proxy: lat.proxy,
        bw_proxy: bw.proxy,
        threshold,
        shard_size,
        built_at: now,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coarse_fabric::machines::{aws_t4, aws_v100, sdsc_p100, PartitionScheme};

    #[test]
    fn v100_routes_large_tensors_remotely() {
        // Anti-locality: the bandwidth proxy is NOT the same-switch one.
        let m = aws_v100();
        let part = m.partition(PartitionScheme::OneToOne);
        let client = part.workers[0];
        let local_proxy = part.proxy_for(0);
        let table = build_routing_table(m.topology(), client, &part.mem_devices, SimTime::ZERO);
        assert!(table.is_split(), "V100 must split lat/bw proxies");
        assert_eq!(table.lat_proxy, local_proxy, "local proxy wins latency");
        assert_ne!(table.bw_proxy, local_proxy, "a remote proxy wins bandwidth");
        // Small tensors stay local, large go remote.
        assert_eq!(table.route_for(ByteSize::kib(4)), local_proxy);
        assert_eq!(table.route_for(ByteSize::mib(64)), table.bw_proxy);
    }

    #[test]
    fn p100_keeps_everything_local() {
        // Normal locality: the same-switch proxy wins both metrics.
        let m = sdsc_p100();
        let part = m.partition(PartitionScheme::OneToOne);
        let client = part.workers[0];
        let table = build_routing_table(m.topology(), client, &part.mem_devices, SimTime::ZERO);
        assert!(!table.is_split());
        assert_eq!(table.lat_proxy, part.proxy_for(0));
    }

    #[test]
    fn t4_uniform_bandwidth_single_proxy() {
        let m = aws_t4();
        let part = m.partition(PartitionScheme::OneToOne);
        let table = build_routing_table(
            m.topology(),
            part.workers[0],
            &part.mem_devices,
            SimTime::ZERO,
        );
        // All paths stage through the CPU: no bandwidth diversity to exploit.
        assert!(!table.is_split());
    }

    #[test]
    fn shard_size_is_full_bandwidth_point() {
        let m = sdsc_p100();
        let part = m.partition(PartitionScheme::OneToOne);
        let client = part.workers[0];
        let table = build_routing_table(m.topology(), client, &part.mem_devices, SimTime::ZERO);
        // The P100 BwProxy is the same-switch hairpin (half-size 8KiB); the
        // first probe size achieving ≥95% of its measured large-transfer
        // bandwidth is 512KiB.
        assert_eq!(table.shard_size, ByteSize::kib(512));
        // And on V100, whose BwProxy is reached through the CPU path
        // (half-size 64KiB), full bandwidth needs the 2MiB probe point —
        // the paper's Fig. 14 value.
        let v = coarse_fabric::machines::aws_v100();
        let vp = v.partition(PartitionScheme::OneToOne);
        let vt = build_routing_table(v.topology(), vp.workers[0], &vp.mem_devices, SimTime::ZERO);
        assert_eq!(vt.shard_size, ByteSize::mib(2));
    }

    #[test]
    fn profiles_cover_all_proxies() {
        let m = sdsc_p100();
        let part = m.partition(PartitionScheme::OneToOne);
        let profiles = profile_proxies(m.topology(), part.workers[0], &part.mem_devices);
        assert_eq!(profiles.len(), part.mem_devices.len());
        assert!(profiles.iter().all(|p| p.bandwidth > 0.0));
        // Local proxy has strictly lower latency than the remote one.
        assert!(profiles[0].latency < profiles[1].latency);
    }

    #[test]
    fn threshold_separates_regimes_on_v100() {
        let m = aws_v100();
        let part = m.partition(PartitionScheme::OneToOne);
        let client = part.workers[0];
        let table = build_routing_table(m.topology(), client, &part.mem_devices, SimTime::ZERO);
        let mut prober = Prober::new(m.topology());
        let mut transfer_time =
            |proxy, size| prober.transfer_time(client, proxy, size, PROFILER_LINKS);
        // At the threshold, the remote path must indeed be no slower.
        let t_bw = transfer_time(table.bw_proxy, table.threshold);
        let t_lat = transfer_time(table.lat_proxy, table.threshold);
        assert!(t_bw <= t_lat);
        // Just below the smallest probe size, the local path wins.
        let tiny = ByteSize::kib(4);
        assert!(transfer_time(table.lat_proxy, tiny) < transfer_time(table.bw_proxy, tiny));
    }
}
