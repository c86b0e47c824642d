//! The DENSE baseline (Fig. 5): a single CCI memory device hosts the global
//! parameters; every worker updates them coherently and pulls the published
//! values back. All parameter traffic funnels through that one device.
//!
//! Rate derivation follows §V-B: "we assume the GPU Direct method achieves
//! full serial bus bandwidth, and use correlated speedup/slowdown to derive
//! CCI and GPU Indirect bandwidth in the DENSE system". Concretely, the
//! coherent CCI access path runs at the prototype's measured ratio of the
//! machine's own bus bandwidth (the ~4× slowdown of CCI writes vs. direct
//! DMA, Figs. 3/13b), further inflated by the coherence cost of `p` sharers
//! on one region (§III-D). On the no-p2p T4 machine the probe measures the
//! staged GPU→CPU→device path, which halves the base rate automatically.

use coarse_cci::coherence::sharing_overhead_factor;
use coarse_core::resilience::ResiliencePolicy;
use coarse_fabric::machines::{Machine, Partition};
use coarse_fabric::probe::Prober;
use coarse_fabric::topology::{LinkClass, LinkMask};
use coarse_models::profile::ModelProfile;
use coarse_models::training::IterationPlan;
use coarse_simcore::critpath::{class as crit_class, CritPath, NodeId};
use coarse_simcore::faults::FaultPlan;
use coarse_simcore::time::{SimDuration, SimTime};
use coarse_simcore::timeline::ResourceTimeline;
use coarse_simcore::units::ByteSize;

use crate::config::TrainResult;
use crate::gpu_for;

/// The prototype's measured slowdown of coherent CCI access relative to
/// direct DMA at large transfers (Fig. 3: 4× on writes).
pub const CCI_COHERENT_SLOWDOWN: f64 = 4.0;

const PCIE_ONLY: LinkMask = LinkMask::only(LinkClass::Pcie);

/// Simulates DENSE training. Pushes stream out as the backward pass emits
/// gradients (they still serialize on the device's single ingress path);
/// pulls follow once a tensor has every worker's contribution; the next
/// iteration starts when the slowest pull lands.
pub fn simulate_dense(
    machine: &Machine,
    partition: &Partition,
    model: &ModelProfile,
    batch_per_gpu: u32,
    iterations: u32,
) -> TrainResult {
    dense_inner(machine, partition, model, batch_per_gpu, iterations, None)
}

/// [`simulate_dense`] with a critical-path recorder attached: each iteration
/// registers a `compute` node, every push/pull on the parameter device a
/// `sync` node FIFO-ordered on the `dense ingress` / `dense egress`
/// resources, and the iteration boundary is marked as a sink — so
/// [`CritPath::analyze`] attributes DENSE's funnel serialization.
/// Observation-only — the result is identical with or without the recorder.
///
/// # Panics
///
/// Panics under the same conditions as [`simulate_dense`].
pub fn simulate_dense_explained(
    machine: &Machine,
    partition: &Partition,
    model: &ModelProfile,
    batch_per_gpu: u32,
    iterations: u32,
    critpath: &CritPath,
) -> TrainResult {
    dense_inner(
        machine,
        partition,
        model,
        batch_per_gpu,
        iterations,
        Some(critpath),
    )
}

fn dense_inner(
    machine: &Machine,
    partition: &Partition,
    model: &ModelProfile,
    batch_per_gpu: u32,
    iterations: u32,
    critpath: Option<&CritPath>,
) -> TrainResult {
    assert!(
        iterations >= 2,
        "need ≥2 iterations for a steady-state period"
    );
    let gpu = gpu_for(machine.sku());
    let plan = IterationPlan::new(model, &gpu, batch_per_gpu);
    let workers = partition.workers.len();
    // The single global parameter device of the DENSE design.
    let device = partition.mem_devices[0];

    // Base rates: what the bus actually delivers from each worker to the
    // device (staged through the CPU on non-p2p machines; the local worker
    // may sit on a slower hairpin path than remote ones).
    let coherence = sharing_overhead_factor(workers + 1);
    let mut prober = Prober::new(machine.topology());
    let rates: Vec<f64> = partition
        .workers
        .iter()
        .map(|&w| {
            let bus = prober.unidirectional(w, device, ByteSize::mib(64), PCIE_ONLY);
            // Coherent-access rate, per the prototype's correlated slowdown
            // plus sharer-dependent coherence traffic.
            bus / CCI_COHERENT_SLOWDOWN / coherence
        })
        .collect();
    let access_time =
        |size: ByteSize, w: usize| SimDuration::from_secs_f64(size.as_f64() / rates[w]);

    // The device's serial-bus interface: one timeline per direction.
    let mut ingress = ResourceTimeline::new();
    let mut egress = ResourceTimeline::new();

    let mut start = SimTime::ZERO;
    let mut first_period_end = SimTime::ZERO;
    let mut prev_sink: Option<NodeId> = None;
    for k in 0..iterations {
        let forward_end = start + plan.forward_time();
        let mut iter_end = start + plan.compute_time();
        // The iteration's forward+backward pass; gradients are emitted
        // part-way through, so pushes depend on it.
        let compute = critpath.map(|cp| {
            let deps: Vec<NodeId> = prev_sink.into_iter().collect();
            cp.span(
                crit_class::COMPUTE,
                format!("fwd+bwd iter {k}"),
                start,
                start + plan.compute_time(),
                &deps,
            )
        });
        let mut last_egress: Option<NodeId> = None;
        for ev in plan.gradients() {
            let tensor = &model.tensors()[ev.tensor];
            // Each worker pushes this tensor when its backward pass emits it.
            let emitted = forward_end + ev.ready;
            let mut all_pushed = emitted;
            let mut last_ingress: Option<NodeId> = None;
            for w in 0..workers {
                let grant = ingress.reserve(emitted, access_time(tensor.byte_size(), w));
                all_pushed = all_pushed.max(grant.end);
                if let Some(cp) = critpath {
                    let deps: Vec<NodeId> = compute.into_iter().collect();
                    last_ingress = Some(cp.span_on(
                        crit_class::SYNC,
                        format!("push t{} w{w}", ev.tensor),
                        "dense ingress",
                        grant.start,
                        grant.end,
                        &deps,
                    ));
                }
            }
            // Publication, then every worker pulls the averaged value.
            for w in 0..workers {
                let grant = egress.reserve(all_pushed, access_time(tensor.byte_size(), w));
                iter_end = iter_end.max(grant.end);
                if let Some(cp) = critpath {
                    // The pull waits for every worker's push (the ingress
                    // timeline is FIFO, so the tensor's last push carries
                    // the publication time).
                    let deps: Vec<NodeId> = last_ingress.into_iter().collect();
                    last_egress = Some(cp.span_on(
                        crit_class::SYNC,
                        format!("pull t{} w{w}", ev.tensor),
                        "dense egress",
                        grant.start,
                        grant.end,
                        &deps,
                    ));
                }
            }
        }
        if let Some(cp) = critpath {
            let deps: Vec<NodeId> = compute.into_iter().chain(last_egress).collect();
            let sink = cp.instant(
                crit_class::SYNC,
                format!("iteration {k} boundary"),
                iter_end,
                &deps,
            );
            cp.mark_iteration(k as u64, sink);
            prev_sink = Some(sink);
        }
        if k == 0 {
            first_period_end = iter_end;
        }
        start = iter_end;
    }
    let period = (start - first_period_end) / (iterations as u64 - 1).max(1);
    let global_batch = batch_per_gpu * workers as u32;
    TrainResult::new(period, plan.compute_time(), global_batch)
}

/// Simulates DENSE training under an injected [`FaultPlan`].
///
/// DENSE has a single parameter device and no decentralized fallback, so
/// its resilience story is thinner than COARSE's: worker↔device accesses
/// are stretched by active link degradations and stalled by proxy stalls,
/// and a dropout of the parameter device fails the service over to the
/// next memory device of the partition (one detection timeout each). An
/// **empty plan takes the fast path** and is byte-identical to
/// [`simulate_dense`].
///
/// # Panics
///
/// Same conditions as [`simulate_dense`], plus running out of surviving
/// memory devices (DENSE cannot degrade to GPU-only synchronization).
pub fn simulate_dense_faulty(
    machine: &Machine,
    partition: &Partition,
    model: &ModelProfile,
    batch_per_gpu: u32,
    iterations: u32,
    plan: &FaultPlan,
    policy: &ResiliencePolicy,
) -> TrainResult {
    if plan.is_empty() {
        return simulate_dense(machine, partition, model, batch_per_gpu, iterations);
    }
    assert!(
        iterations >= 2,
        "need ≥2 iterations for a steady-state period"
    );
    let gpu = gpu_for(machine.sku());
    let iter_plan = IterationPlan::new(model, &gpu, batch_per_gpu);
    let workers = partition.workers.len();
    let coherence = sharing_overhead_factor(workers + 1);
    // Rates are re-probed (on the healthy fabric) whenever the service
    // fails over to a different device.
    let mut prober = Prober::new(machine.topology());
    let mut rates_for = |device| -> Vec<f64> {
        partition
            .workers
            .iter()
            .map(|&w| {
                let bus = prober.unidirectional(w, device, ByteSize::mib(64), PCIE_ONLY);
                bus / CCI_COHERENT_SLOWDOWN / coherence
            })
            .collect()
    };
    let mut device_slot = 0usize;
    let mut device = partition.mem_devices[device_slot];
    let mut rates = rates_for(device);

    let mut ingress = ResourceTimeline::new();
    let mut egress = ResourceTimeline::new();
    let mut start = SimTime::ZERO;
    let mut first_period_end = SimTime::ZERO;
    for k in 0..iterations {
        // Detect a dropped parameter device at the round boundary and fail
        // over to the next memory device of the partition.
        while plan.device_down(device.index() as u32, start) {
            device_slot += 1;
            assert!(
                device_slot < partition.mem_devices.len(),
                "DENSE ran out of surviving parameter devices"
            );
            device = partition.mem_devices[device_slot];
            rates = rates_for(device);
            start += policy.detect_timeout;
        }
        let access_time = |size: ByteSize, w: usize, at: SimTime, workers_dev: u32| {
            let base = size.as_f64() / rates[w];
            let factor = plan.degradation(workers_dev, device.index() as u32, at);
            let mut d = SimDuration::from_secs_f64(base);
            if factor != 1.0 {
                d = d.mul_f64(factor);
            }
            d + plan.stall(device.index() as u32, at)
        };
        let forward_end = start + iter_plan.forward_time();
        let mut iter_end = start + iter_plan.compute_time();
        for ev in iter_plan.gradients() {
            let tensor = &model.tensors()[ev.tensor];
            let emitted = forward_end + ev.ready;
            let mut all_pushed = emitted;
            for (w, &worker) in partition.workers.iter().enumerate() {
                let grant = ingress.reserve(
                    emitted,
                    access_time(tensor.byte_size(), w, emitted, worker.index() as u32),
                );
                all_pushed = all_pushed.max(grant.end);
            }
            for (w, &worker) in partition.workers.iter().enumerate() {
                let grant = egress.reserve(
                    all_pushed,
                    access_time(tensor.byte_size(), w, all_pushed, worker.index() as u32),
                );
                iter_end = iter_end.max(grant.end);
            }
        }
        if k == 0 {
            first_period_end = iter_end;
        }
        start = iter_end;
    }
    let period = (start - first_period_end) / (iterations as u64 - 1).max(1);
    let global_batch = batch_per_gpu * workers as u32;
    TrainResult::new(period, iter_plan.compute_time(), global_batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coarse_fabric::machines::{aws_t4, aws_v100, PartitionScheme};
    use coarse_models::zoo::{bert_large, resnet50};

    #[test]
    fn dense_is_communication_bound_for_bert() {
        let m = aws_v100();
        let p = m.partition(PartitionScheme::OneToOne);
        let r = simulate_dense(&m, &p, &bert_large(), 2, 3);
        // 4 workers × 2 × 1.25 GiB through a ~2.7 GiB/s coherent path:
        // seconds of blocked communication vs ~0.25 s compute.
        assert!(
            r.comm_fraction() > 0.8,
            "comm fraction {}",
            r.comm_fraction()
        );
        assert!(r.blocked_comm.as_secs_f64() > 2.0);
    }

    #[test]
    fn indirect_path_hurts_t4() {
        let t4 = aws_t4();
        let pt = t4.partition(PartitionScheme::OneToOne);
        let v100 = aws_v100();
        let pv = v100.partition(PartitionScheme::OneToOne);
        let model = resnet50();
        let t = simulate_dense(&t4, &pt, &model, 64, 3);
        let v = simulate_dense(&v100, &pv, &model, 64, 3);
        assert!(
            t.blocked_comm > v.blocked_comm,
            "staged T4 pushes must cost more: {:?} vs {:?}",
            t.blocked_comm,
            v.blocked_comm
        );
    }

    #[test]
    fn blocked_comm_scales_with_payload() {
        let m = aws_v100();
        let p = m.partition(PartitionScheme::OneToOne);
        let small = simulate_dense(&m, &p, &resnet50(), 64, 3);
        let large = simulate_dense(&m, &p, &bert_large(), 2, 3);
        let ratio = large.blocked_comm.as_secs_f64() / small.blocked_comm.as_secs_f64();
        // BERT-Large's payload is ~13x ResNet-50's.
        assert!(
            ratio > 8.0,
            "expected payload-proportional comm, got {ratio}"
        );
    }

    #[test]
    fn dense_faulty_empty_plan_is_byte_identical() {
        let m = aws_v100();
        let p = m.partition(PartitionScheme::OneToOne);
        let model = resnet50();
        let clean = simulate_dense(&m, &p, &model, 64, 3);
        let faulty = simulate_dense_faulty(
            &m,
            &p,
            &model,
            64,
            3,
            &FaultPlan::empty(),
            &ResiliencePolicy::default(),
        );
        assert_eq!(clean, faulty, "empty plan must perturb nothing");
    }

    #[test]
    fn dense_degradation_slows_and_dropout_fails_over() {
        let m = aws_v100();
        let p = m.partition(PartitionScheme::OneToOne);
        let model = resnet50();
        let clean = simulate_dense(&m, &p, &model, 64, 3);
        // Degrade every worker->device pair for the whole run.
        let dev = p.mem_devices[0].index() as u32;
        let mut plan = FaultPlan::new(5);
        for &w in &p.workers {
            plan = plan.degrade_link(w.index() as u32, dev, SimTime::ZERO, SimTime::MAX, 3.0);
        }
        let slow =
            simulate_dense_faulty(&m, &p, &model, 64, 3, &plan, &ResiliencePolicy::default());
        assert!(
            slow.iteration_time > clean.iteration_time,
            "degraded run must be slower: {:?} vs {:?}",
            slow.iteration_time,
            clean.iteration_time
        );
        // Dropping the parameter device forces failover to the next one;
        // the run still completes and is deterministic.
        let drop = FaultPlan::new(6).drop_device(dev, SimTime::ZERO);
        let a = simulate_dense_faulty(&m, &p, &model, 64, 3, &drop, &ResiliencePolicy::default());
        let b = simulate_dense_faulty(&m, &p, &model, 64, 3, &drop, &ResiliencePolicy::default());
        assert_eq!(a, b, "faulty runs must be deterministic");
        assert!(a.iteration_time > SimDuration::ZERO);
    }

    #[test]
    fn explained_dense_is_sync_dominated_and_unperturbed() {
        let m = aws_v100();
        let p = m.partition(PartitionScheme::OneToOne);
        let model = bert_large();
        let bare = simulate_dense(&m, &p, &model, 2, 3);
        let cp = CritPath::new();
        let wired = simulate_dense_explained(&m, &p, &model, 2, 3, &cp);
        assert_eq!(bare, wired, "recording must not perturb the result");
        let ex = cp.analyze();
        assert_eq!(ex.iterations.len(), 3);
        assert_eq!(
            ex.dominant(),
            Some(crit_class::SYNC),
            "DENSE funnels all parameter traffic through one device: {:?}",
            ex.blame
        );
        let sum: f64 = crit_class::ALL.iter().map(|c| ex.fraction(c)).sum();
        assert!((sum - 1.0).abs() < 1e-12, "fractions sum to {sum}");
        assert!(ex.fraction(crit_class::COMPUTE) > 0.0);
    }

    #[test]
    fn steady_state_periods_equal() {
        let m = aws_v100();
        let p = m.partition(PartitionScheme::OneToOne);
        let a = simulate_dense(&m, &p, &resnet50(), 64, 2);
        let b = simulate_dense(&m, &p, &resnet50(), 64, 5);
        let rel = (a.iteration_time.as_secs_f64() - b.iteration_time.as_secs_f64()).abs()
            / b.iteration_time.as_secs_f64();
        assert!(rel < 0.05, "periods should be stable, got {rel}");
    }
}
