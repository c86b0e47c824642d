//! Property-based fault-injection and resilience invariants, exercised
//! through the facade crate with the in-repo deterministic harness
//! (`coarse_repro::simcore::check`).
//!
//! The three guarantees under test (Issue 3):
//! 1. a zero-fault plan perturbs nothing, byte-for-byte — both at the
//!    timing layer and at the data-plane synchronization layer;
//! 2. any single proxy dropout still converges to the exact synchronized
//!    parameters via failover and routing-table repair;
//! 3. retry-with-backoff never reorders a client's per-proxy tensor queue
//!    (the §III-F deadlock-avoidance invariant).

use coarse_repro::cci::integrity::SealedShard;
use coarse_repro::cci::tensor::{Tensor, TensorId, TensorShard};
use coarse_repro::core::proxy::ParameterProxy;
use coarse_repro::core::resilience::ResiliencePolicy;
use coarse_repro::core::system::CoarseSystem;
use coarse_repro::fabric::machines::{aws_v100, sdsc_p100, Machine, PartitionScheme};
use coarse_repro::models::zoo::{bert_base, resnet50};
use coarse_repro::simcore::check::{run_cases, Gen};
use coarse_repro::simcore::faults::FaultPlan;
use coarse_repro::simcore::time::{SimDuration, SimTime};
use coarse_repro::trainsim::{simulate_coarse, Scenario};

/// A dyadic value in [-2, 2): sums and means over power-of-two worker
/// counts are exact in f32, so elementwise oracles can use `assert_eq`.
fn dyadic(g: &mut Gen) -> f32 {
    g.usize_in(0..64) as f32 / 16.0 - 2.0
}

/// Random dyadic gradient sets: every worker pushes the same tensor
/// shapes (ids 0..tensors) with independently drawn values.
fn dyadic_grads(g: &mut Gen, workers: usize) -> Vec<Vec<Tensor>> {
    let tensors = g.usize_in(1..3);
    let lens: Vec<usize> = (0..tensors).map(|_| g.usize_in(1..600)).collect();
    (0..workers)
        .map(|_| {
            lens.iter()
                .enumerate()
                .map(|(t, &len)| {
                    let data: Vec<f32> = (0..len).map(|_| dyadic(g)).collect();
                    Tensor::new(TensorId(t as u64), data)
                })
                .collect()
        })
        .collect()
}

/// Elementwise mean across workers, summed in worker order (exact for
/// dyadic values and power-of-two worker counts).
fn oracle_mean(grads: &[Vec<Tensor>]) -> Vec<Tensor> {
    let workers = grads.len() as f32;
    (0..grads[0].len())
        .map(|t| {
            let len = grads[0][t].len();
            let mut acc = vec![0.0f32; len];
            for set in grads {
                for (a, x) in acc.iter_mut().zip(set[t].data()) {
                    *a += x;
                }
            }
            for a in &mut acc {
                *a /= workers;
            }
            Tensor::new(grads[0][t].id(), acc)
        })
        .collect()
}

fn pick_machine(g: &mut Gen) -> Machine {
    if g.bool() {
        sdsc_p100()
    } else {
        aws_v100()
    }
}

/// Invariant 1a (timing layer): an empty fault plan leaves the COARSE
/// simulation byte-identical to the fault-free path, with clean
/// resilience accounting, for any machine/model/batch/iteration draw.
#[test]
fn zero_fault_plan_is_byte_identical_in_simulation() {
    run_cases("zero_fault_plan_is_byte_identical_in_simulation", 4, |g| {
        let machine = pick_machine(g);
        let model = if g.bool() { resnet50() } else { bert_base() };
        let batch = 1 + g.u64_in(0..2) as u32;
        let iterations = 2 + g.u64_in(0..2) as u32;
        let partition = machine.partition(PartitionScheme::OneToOne);
        let clean = simulate_coarse(&machine, &partition, &model, batch, iterations);
        let faulty = Scenario::new("zero-fault", machine, model)
            .batch_per_gpu(batch)
            .iterations(iterations)
            .faults(FaultPlan::empty())
            .resilience(ResiliencePolicy::default())
            .run_faulty()
            .expect("the draw fits in memory");
        assert!(faulty.is_clean(), "empty plan must report a clean run");
        assert_eq!(clean, faulty.result, "empty plan must not perturb timing");
    });
}

/// Invariant 1b (data plane): `synchronize_resilient` with an empty plan
/// returns bitwise the same tensors as plain `synchronize`.
#[test]
fn zero_fault_plan_is_byte_identical_in_synchronization() {
    run_cases(
        "zero_fault_plan_is_byte_identical_in_synchronization",
        24,
        |g| {
            let machine = pick_machine(g);
            let p = machine.partition(PartitionScheme::OneToOne);
            let mut plain = CoarseSystem::new(machine.topology(), &p.workers, &p.mem_devices);
            let mut resilient = CoarseSystem::new(machine.topology(), &p.workers, &p.mem_devices);
            let len = g.usize_in(1..900);
            let grads: Vec<Vec<Tensor>> = (0..p.worker_count())
                .map(|_| {
                    vec![Tensor::new(
                        TensorId(0),
                        (0..len).map(|_| g.rng().next_f32()).collect(),
                    )]
                })
                .collect();
            let want = plain.synchronize(&grads);
            let (got, report) = resilient.synchronize_resilient(
                &grads,
                machine.topology(),
                &FaultPlan::empty(),
                SimTime::ZERO,
                &ResiliencePolicy::default(),
            );
            assert!(report.is_clean(), "empty plan must leave a clean report");
            assert_eq!(got, want, "empty plan must be bitwise inert");
        },
    );
}

/// Invariant 2: dropping any single proxy still converges to the exact
/// elementwise gradient mean — failover removes the victim, routing
/// tables are repaired over the survivors, and the round completes.
#[test]
fn single_proxy_dropout_still_converges_exactly() {
    run_cases("single_proxy_dropout_still_converges_exactly", 16, |g| {
        let machine = pick_machine(g);
        let p = machine.partition(PartitionScheme::OneToOne);
        let mut sys = CoarseSystem::new(machine.topology(), &p.workers, &p.mem_devices);
        let victim = *g.choose(&sys.proxy_devices());
        let plan = FaultPlan::new(g.any_u64()).drop_device(victim.index() as u32, SimTime::ZERO);
        let grads = dyadic_grads(g, p.worker_count());
        let now = SimTime::ZERO + SimDuration::from_millis(1);
        let (got, report) = sys.synchronize_resilient(
            &grads,
            machine.topology(),
            &plan,
            now,
            &ResiliencePolicy::default(),
        );
        assert_eq!(report.failovers, 1, "exactly one proxy fails over");
        assert!(!report.degraded_to_gpu, "survivors keep the proxy tier up");
        assert!(report.recovery_time > SimDuration::ZERO);
        assert!(
            !sys.proxy_devices().contains(&victim),
            "the victim must leave the deployment"
        );
        let want = oracle_mean(&grads);
        for (w, set) in got.iter().enumerate() {
            assert_eq!(set, &want, "worker {w} must still receive the exact mean");
        }
    });
}

/// Invariant 3: transient corruption plus retry-with-backoff delivers
/// every shard exactly once and never reorders a client's FIFO queue —
/// the arrival order at the proxy equals the push order, regardless of
/// how many attempts each shard needed.
#[test]
fn retries_never_reorder_per_client_queues() {
    run_cases("retries_never_reorder_per_client_queues", 32, |g| {
        let machine = sdsc_p100();
        let p = machine.partition(PartitionScheme::OneToOne);
        let device = p.mem_devices[0];
        let rate = 100_000 + g.u64_in(0..700_000) as u32;
        let plan = FaultPlan::new(g.any_u64()).corrupt_transfers(
            device.index() as u32,
            SimTime::ZERO,
            SimTime::MAX,
            rate,
        );
        let policy = ResiliencePolicy::default();
        let now = SimTime::ZERO + SimDuration::from_millis(1);
        let mut proxy = ParameterProxy::new(device);
        let clients = g.usize_in(1..4);
        let mut transfer_seq = 0u64;
        let mut retries = 0u64;
        let mut backoff = SimDuration::ZERO;
        let mut expected: Vec<Vec<(TensorId, u32)>> = vec![Vec::new(); clients];
        for (c, order) in expected.iter_mut().enumerate() {
            for t in 0..g.usize_in(1..4) {
                let shard_len = g.usize_in(1..9);
                let shards = g.usize_in(1..5) as u32;
                for i in 0..shards {
                    let shard = TensorShard {
                        tensor: TensorId(t as u64),
                        index: i,
                        offset: i as usize * shard_len,
                        data: (0..shard_len).map(|_| dyadic(g)).collect(),
                    };
                    order.push((shard.tensor, shard.index));
                    // The client-side retry loop: reseal and resend until
                    // the CRC32 check passes, backing off each attempt.
                    let mut attempt = 0u32;
                    loop {
                        transfer_seq += 1;
                        let mut sealed = SealedShard::seal(shard.clone());
                        if plan.corrupts(device.index() as u32, now, transfer_seq) {
                            if let Some(x) = sealed.shard_mut().data.first_mut() {
                                *x = f32::from_bits(x.to_bits() ^ 1);
                            }
                        }
                        match proxy.enqueue_sealed(c, sealed, shards, shards as usize * shard_len) {
                            Ok(()) => break,
                            Err(_) => {
                                retries += 1;
                                backoff += policy.backoff_after(attempt);
                                attempt += 1;
                            }
                        }
                    }
                }
            }
        }
        for (c, order) in expected.iter().enumerate() {
            assert_eq!(
                &proxy.queue_order(c),
                order,
                "client {c}'s queue must arrive in push order (after {retries} retries)"
            );
        }
        // Backoff only ever delays — it cannot go negative or be skipped.
        if retries > 0 {
            assert!(backoff > SimDuration::ZERO, "every retry must back off");
        }
    });
}

/// A plan that drops a worker GPU (device 2 of fig16d) is refused with a
/// typed error by every COARSE entry point, a chaos repro replay included,
/// instead of panicking in the proxy-tier eviction mid-run.
#[test]
fn worker_dropout_is_a_typed_error() {
    use coarse_repro::core::resilience::RecoveryPolicy;
    use coarse_repro::trainsim::chaos::{replay, ChaosRepro};
    use coarse_repro::trainsim::{RunReport, Sabotage, TrainError};

    let plan = FaultPlan::new(1).drop_device(2, SimTime::ZERO + SimDuration::from_millis(5));
    let scenario = Scenario::preset("fig16d")
        .iterations(3)
        .faults(plan.clone());
    let is_worker_2 =
        |e: TrainError| matches!(e, TrainError::WorkerDropout { device } if device.index() == 2);
    assert!(is_worker_2(scenario.run().unwrap_err()));
    assert!(is_worker_2(scenario.run_faulty().unwrap_err()));
    assert!(is_worker_2(
        scenario
            .run_recovering(&RecoveryPolicy::default())
            .unwrap_err()
    ));
    assert!(is_worker_2(
        RunReport::try_collect_scenario(&scenario).unwrap_err()
    ));
    let repro = ChaosRepro {
        preset: "fig16d".to_string(),
        iterations: 3,
        batch_per_gpu: 2,
        plan,
        sabotage: Sabotage::None,
        violations: Vec::new(),
    };
    assert!(is_worker_2(replay(&repro.render()).unwrap_err()));
}
