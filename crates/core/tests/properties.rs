//! Property tests for the COARSE core: client partitioning/reassembly
//! against arbitrary routing tables, and system-level synchronization,
//! driven by the in-repo deterministic harness.

use coarse_cci::tensor::{Tensor, TensorId};
use coarse_core::client::ParameterClient;
use coarse_core::routing::RoutingTable;
use coarse_core::system::CoarseSystem;
use coarse_fabric::device::DeviceId;
use coarse_fabric::machines::{sdsc_p100, PartitionScheme};
use coarse_simcore::check::{run_cases, Gen};
use coarse_simcore::time::SimTime;
use coarse_simcore::units::ByteSize;

fn scratch() -> (DeviceId, DeviceId, DeviceId) {
    let mut t = coarse_fabric::topology::Topology::new();
    let w = t.add_device(coarse_fabric::device::DeviceKind::Gpu, "w", 0);
    let a = t.add_device(coarse_fabric::device::DeviceKind::MemoryDevice, "a", 0);
    let b = t.add_device(coarse_fabric::device::DeviceKind::MemoryDevice, "b", 0);
    (w, a, b)
}

/// For any routing table and tensor, the client's push requests tile the
/// tensor exactly, all target a single proxy consistent with the table,
/// and reassembly reproduces the tensor bit-for-bit.
#[test]
fn client_requests_tile_and_route() {
    run_cases("client_requests_tile_and_route", 64, |g: &mut Gen| {
        let len = g.usize_in(1..50_000);
        let threshold_kib = g.u64_in(0..64);
        let shard_kib = g.u64_in(1..64);
        let (w, lat, bw) = scratch();
        let table = RoutingTable {
            lat_proxy: lat,
            bw_proxy: bw,
            threshold: ByteSize::kib(threshold_kib),
            shard_size: ByteSize::kib(shard_kib),
            built_at: SimTime::ZERO,
        };
        let mut client = ParameterClient::new(w, table);
        let tensor = Tensor::new(TensorId(1), (0..len).map(|_| g.rng().next_f32()).collect());
        client.push(&tensor);
        let reqs: Vec<_> = std::iter::from_fn(|| client.dequeue()).collect();
        // All requests go to exactly one proxy.
        assert!(reqs.iter().all(|r| r.proxy == reqs[0].proxy));
        // That proxy is consistent with the table: below threshold and
        // unpartitioned → route_for decides; partitioned → BwProxy.
        if reqs.len() > 1 {
            assert_eq!(reqs[0].proxy, bw);
            // Every shard except the last is at least the shard size.
            let shard_elems = (table.shard_size.as_u64() / 4).max(1) as usize;
            for r in &reqs[..reqs.len() - 1] {
                assert!(r.shard.data.len() >= shard_elems);
            }
        }
        // Tiling: offsets cover [0, len) without overlap.
        let mut covered = vec![false; len];
        for r in &reqs {
            for (i, slot) in covered
                .iter_mut()
                .enumerate()
                .skip(r.shard.offset)
                .take(r.shard.data.len())
            {
                assert!(!*slot, "overlap at {i}");
                *slot = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
        // Reassembly is the identity.
        let mut rebuilt = None;
        for r in reqs {
            rebuilt = client.deliver(r.shard);
        }
        assert_eq!(rebuilt.unwrap(), tensor);
    });
}

/// End-to-end synchronization equals the elementwise mean within
/// floating-point tolerance, for arbitrary tensor sizes and values.
#[test]
fn system_synchronize_is_mean() {
    run_cases("system_synchronize_is_mean", 24, |g: &mut Gen| {
        let sizes = g.vec_of(1..4, |g| g.usize_in(1..30_000));
        let machine = sdsc_p100();
        let part = machine.partition(PartitionScheme::OneToOne);
        let mut sys = CoarseSystem::new(machine.topology(), &part.workers, &part.mem_devices);
        let workers = part.workers.len();
        let grads: Vec<Vec<Tensor>> = (0..workers)
            .map(|_| {
                sizes
                    .iter()
                    .enumerate()
                    .map(|(i, &len)| {
                        Tensor::new(
                            TensorId(i as u64),
                            (0..len).map(|_| g.f32_in(-10.0, 10.0)).collect(),
                        )
                    })
                    .collect()
            })
            .collect();
        let results = sys.synchronize(&grads);
        for (i, &len) in sizes.iter().enumerate() {
            for j in 0..len {
                let mean: f32 =
                    grads.iter().map(|gr| gr[i].data()[j]).sum::<f32>() / workers as f32;
                for r in &results {
                    let got = r[i].data()[j];
                    assert!(
                        (got - mean).abs() <= 1e-4 * mean.abs().max(1.0),
                        "tensor {i}[{j}]: {got} vs {mean}"
                    );
                }
            }
        }
    });
}

/// A client's routing table as the profiler measures it, worker by worker,
/// with every probe on a fresh engine: the reference for probing sessions.
fn reference_table(
    topo: &coarse_fabric::topology::Topology,
    client: DeviceId,
    proxies: &[DeviceId],
    ordinal: usize,
) -> RoutingTable {
    use coarse_core::profiler::{FULL_BANDWIDTH_FRACTION, PROFILER_LINKS};
    use coarse_fabric::engine::TransferEngine;
    use coarse_fabric::probe;

    let profiles: Vec<_> = proxies
        .iter()
        .map(|&p| {
            let latency = probe::measure_latency(topo, client, p, PROFILER_LINKS);
            let bw =
                probe::measure_unidirectional(topo, client, p, ByteSize::mib(64), PROFILER_LINKS);
            (p, latency, bw)
        })
        .collect();
    let best_latency = profiles.iter().map(|p| p.1).min().unwrap();
    let lat_ties: Vec<_> = profiles
        .iter()
        .filter(|p| p.1 <= best_latency.mul_f64(1.02))
        .collect();
    let lat = lat_ties[ordinal % lat_ties.len()];
    let best_bw = profiles.iter().map(|p| p.2).fold(0.0f64, f64::max);
    let bw_ties: Vec<_> = profiles.iter().filter(|p| p.2 >= best_bw * 0.98).collect();
    let bw = bw_ties[ordinal % bw_ties.len()];
    let shard_size =
        probe::bandwidth_sweep(topo, client, bw.0, &probe::standard_sizes(), PROFILER_LINKS)
            .into_iter()
            .find(|&(_, rate)| rate >= bw.2 * FULL_BANDWIDTH_FRACTION)
            .map_or(ByteSize::mib(2), |(s, _)| s);
    if lat.0 == bw.0 {
        return RoutingTable::single(lat.0, shard_size, SimTime::ZERO);
    }
    let transfer_time = |proxy, size| {
        TransferEngine::new(topo.clone())
            .transfer_masked(client, proxy, size, SimTime::ZERO, PROFILER_LINKS)
            .unwrap()
            .elapsed()
    };
    let threshold = probe::standard_sizes()
        .into_iter()
        .find(|&s| transfer_time(bw.0, s) <= transfer_time(lat.0, s))
        .unwrap_or(ByteSize::mib(2));
    RoutingTable {
        lat_proxy: lat.0,
        bw_proxy: bw.0,
        threshold,
        shard_size,
        built_at: SimTime::ZERO,
    }
}

/// `build_routing_tables` on one probing session equals the per-worker
/// reference, every probe on a fresh engine, on the fabrics COARSE deploys:
/// the three Table I machines and the 2-node V100 cluster, with the CCI
/// ring between each node's memory devices where the machine has GPU
/// peer-to-peer, × one-to-one and two-to-one partitions × ±10% jittered
/// switch uplinks. The survivors of one random eviction are profiled again
/// on the same session. `build_routing_table_for` agrees too.
#[test]
fn routing_tables_match_per_worker_fresh_engine_tables() {
    use coarse_core::profiler::{build_routing_table_for, build_routing_tables};
    use coarse_fabric::machines::MachineBuilder;
    use coarse_fabric::probe::Prober;

    // (preset, its uplink GiB/s, nodes)
    let shapes = [
        ("aws_t4", 12.0, 1),
        ("sdsc_p100", 10.0, 1),
        ("aws_v100", 9.0, 1),
        ("aws_v100", 9.0, 2),
    ];
    let schemes = [PartitionScheme::OneToOne, PartitionScheme::TwoToOne];
    run_cases(
        "routing_tables_match_per_worker_fresh_engine_tables",
        24,
        |g: &mut Gen| {
            let &(preset, uplink, nodes) = g.choose(&shapes);
            let builder = MachineBuilder::preset(preset).uplink_gib(uplink * g.f64_in(0.9, 1.1));
            let mut machine = if nodes > 1 {
                builder.cluster(nodes).build()
            } else {
                builder.build()
            };
            let part = machine.partition(*g.choose(&schemes));
            if machine.topology().p2p_enabled() {
                for n in 0..nodes {
                    let on_node: Vec<DeviceId> = part
                        .mem_devices
                        .iter()
                        .copied()
                        .filter(|&d| machine.topology().device(d).node() == n)
                        .collect();
                    if on_node.len() >= 2 {
                        machine.augment_cci_ring(&on_node);
                    }
                }
            }
            let topo = machine.topology();
            let reference = |proxies: &[DeviceId]| -> Vec<RoutingTable> {
                part.workers
                    .iter()
                    .enumerate()
                    .map(|(w, &worker)| reference_table(topo, worker, proxies, w))
                    .collect()
            };

            let mut prober = Prober::new(topo);
            let mut proxies = part.mem_devices.clone();
            let tables = build_routing_tables(&mut prober, &part.workers, &proxies, SimTime::ZERO);
            assert_eq!(tables, reference(&proxies), "{} {preset}", machine.name());
            let w = g.usize_in(0..part.workers.len());
            assert_eq!(
                build_routing_table_for(topo, part.workers[w], &proxies, w, SimTime::ZERO),
                tables[w]
            );

            if proxies.len() > 2 {
                proxies.remove(g.usize_in(0..proxies.len()));
                let survivors =
                    build_routing_tables(&mut prober, &part.workers, &proxies, SimTime::ZERO);
                assert_eq!(
                    survivors,
                    reference(&proxies),
                    "{} survivors",
                    machine.name()
                );
            }
        },
    );
}
