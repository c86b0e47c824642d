//! Micro-benchmarks for the fabric: routing, single transfers, and the
//! all-pairs probe matrix.
//!
//! Run with `cargo bench -p coarse-bench --features bench-deps`.

use coarse_bench::harness::{black_box, Bench};
use coarse_fabric::engine::TransferEngine;
use coarse_fabric::machines::{aws_v100, sdsc_p100};
use coarse_fabric::probe;
use coarse_fabric::topology::{LinkClass, LinkMask};
use coarse_simcore::prelude::*;

fn bench_routing() {
    let b = Bench::group("routing");
    let machine = aws_v100();
    let gpus = machine.gpus().to_vec();
    let topo = machine.into_topology();
    b.run("route_remote_pair", || {
        black_box(topo.route(black_box(gpus[0]), black_box(gpus[7])))
    });
}

fn bench_transfer() {
    let b = Bench::group("transfer");
    let machine = aws_v100();
    let gpus = machine.gpus().to_vec();
    let topo = machine.into_topology();
    for &mib in &[1u64, 64] {
        let mut engine = TransferEngine::new(topo.clone());
        let mut t = SimTime::ZERO;
        b.run(&format!("{mib}_mib"), || {
            let rec = engine
                .transfer(gpus[0], gpus[2], ByteSize::mib(mib), t)
                .unwrap();
            t = rec.end;
            black_box(rec)
        });
    }
}

fn bench_probe_matrix() {
    let b = Bench::group("probe_matrix");
    let machine = sdsc_p100();
    let gpus = machine.gpus().to_vec();
    let topo = machine.into_topology();
    b.run("fig8_matrix_p100", || {
        black_box(probe::bidirectional_matrix(
            &topo,
            &gpus,
            ByteSize::mib(16),
            LinkMask::only(LinkClass::Pcie),
        ))
    });
}

fn main() {
    bench_routing();
    bench_transfer();
    bench_probe_matrix();
}
