//! The assembled COARSE system: clients, proxies, storage, routing, and the
//! cross-device reduction, wired together functionally.
//!
//! [`CoarseSystem::synchronize`] runs one full parameter-synchronization
//! round on real data: every worker pushes its gradient tensors (partitioned
//! and routed per its profiled table), proxies scatter-add local
//! contributions, the sync-core ring reduces across memory devices, storage
//! is updated copy-on-write, and every worker pulls back and reconstructs
//! the averaged tensors. Tests assert the result equals the elementwise
//! mean — the same guarantee AllReduce gives.

use std::collections::BTreeMap;

use coarse_cci::integrity::SealedShard;
use coarse_cci::storage::Snapshot;
use coarse_cci::synccore::{RingDirection, SyncGroup};
use coarse_cci::tensor::{Tensor, TensorId};
use coarse_fabric::device::DeviceId;
use coarse_fabric::probe::Prober;
use coarse_fabric::topology::Topology;
use coarse_simcore::faults::FaultPlan;
use coarse_simcore::oracle::{BiteKind, OracleEvent, OracleHub};
use coarse_simcore::time::SimTime;

use crate::client::ParameterClient;
use crate::optim::Optimizer;
use crate::profiler::build_routing_tables;
use crate::proxy::ParameterProxy;
use crate::resilience::{ResiliencePolicy, SyncFaultReport};

/// Elements per sync-core chunk in the cross-device reduction.
const SYNC_CHUNK_ELEMS: usize = 4096;

/// Retransmission bound: after this many integrity rejections of one shard
/// the fabric is assumed to have re-trained the link and the transfer goes
/// through clean (keeps even a 100%-corruption plan terminating).
const MAX_PUSH_ATTEMPTS: u32 = 32;

/// Malformed input to a [`CoarseSystem`] entry point — the typed
/// counterpart of the assertions the panicking APIs enforce, so callers
/// reachable from a CLI can report instead of crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SystemError {
    /// The deployment has no workers.
    NoWorkers,
    /// The deployment has no memory devices.
    NoMemDevices,
    /// `gradients.len()` differs from the worker count.
    WorkerCountMismatch {
        /// Workers in the deployment.
        expected: usize,
        /// Gradient sets supplied.
        got: usize,
    },
    /// A worker pushed a different tensor set than worker 0.
    TensorSetMismatch {
        /// The offending worker.
        worker: usize,
    },
}

impl std::fmt::Display for SystemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemError::NoWorkers => write!(f, "need at least one worker"),
            SystemError::NoMemDevices => write!(f, "need at least one memory device"),
            SystemError::WorkerCountMismatch { expected, got } => write!(
                f,
                "one gradient set per worker: deployment has {expected} workers, got {got} sets"
            ),
            SystemError::TensorSetMismatch { worker } => write!(
                f,
                "workers must push identical tensor sets; worker {worker} differs from worker 0"
            ),
        }
    }
}

impl std::error::Error for SystemError {}

/// A fully wired COARSE deployment over one machine.
#[derive(Debug)]
pub struct CoarseSystem {
    clients: Vec<ParameterClient>,
    proxies: Vec<ParameterProxy>,
    proxy_index: BTreeMap<DeviceId, usize>,
    /// When set, the memory devices run this update rule on the master
    /// weights instead of publishing raw gradient means (§II-A).
    optimizer: Option<Box<dyn Optimizer>>,
    /// Oracle battery threaded through proxies and sync groups, when armed.
    oracles: Option<OracleHub>,
    /// Clock for oracle stamps: the functional system is untimed, so the
    /// resilient path pins this to its round instant.
    clock: SimTime,
}

impl CoarseSystem {
    /// Builds the system: profiles each worker against every memory device
    /// and installs the resulting routing tables (§III-E).
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `mem_devices` is empty. Use
    /// [`try_new`](Self::try_new) for a fallible variant.
    pub fn new(topo: &Topology, workers: &[DeviceId], mem_devices: &[DeviceId]) -> Self {
        match Self::try_new(topo, workers, mem_devices) {
            Ok(sys) => sys,
            // simlint: allow(panic-in-library, reason = "documented panicking wrapper; try_new is the fallible variant")
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible constructor: like [`new`](Self::new) but empty worker or
    /// memory-device lists surface as a [`SystemError`].
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::NoWorkers`] or [`SystemError::NoMemDevices`].
    pub fn try_new(
        topo: &Topology,
        workers: &[DeviceId],
        mem_devices: &[DeviceId],
    ) -> Result<Self, SystemError> {
        if workers.is_empty() {
            return Err(SystemError::NoWorkers);
        }
        if mem_devices.is_empty() {
            return Err(SystemError::NoMemDevices);
        }
        let tables =
            build_routing_tables(&mut Prober::new(topo), workers, mem_devices, SimTime::ZERO);
        let clients = workers
            .iter()
            .zip(tables)
            .map(|(&w, table)| ParameterClient::new(w, table))
            .collect();
        let proxies: Vec<ParameterProxy> = mem_devices
            .iter()
            .map(|&d| ParameterProxy::new(d))
            .collect();
        let proxy_index = mem_devices
            .iter()
            .enumerate()
            .map(|(i, &d)| (d, i))
            .collect();
        Ok(CoarseSystem {
            clients,
            proxies,
            proxy_index,
            optimizer: None,
            oracles: None,
            clock: SimTime::ZERO,
        })
    }

    /// Arms an oracle battery: proxies emit enqueue/reset observations,
    /// cross-device reductions emit ring audits, and the resilient
    /// synchronization path emits shard attempts, stream resets, fault
    /// bites, and progress heartbeats. Observation-only.
    pub fn set_oracles(&mut self, oracles: OracleHub) {
        for p in &mut self.proxies {
            p.set_oracles(oracles.clone());
        }
        self.oracles = Some(oracles);
    }

    /// Installs an optimizer: synchronization rounds now apply the update
    /// rule to registered master weights and publish the *new weights*
    /// rather than the gradient mean. Optimizer state lives with the
    /// parameter storage on the memory devices — the residency that frees
    /// GPU memory in Fig. 16e.
    pub fn set_optimizer(&mut self, optimizer: Box<dyn Optimizer>) {
        self.optimizer = Some(optimizer);
    }

    /// Registers initial master weights on every memory device's storage
    /// (required before optimizer-mode synchronization).
    pub fn register_parameters(&mut self, params: &[Tensor]) {
        for p in &mut self.proxies {
            for t in params {
                p.store_reduced(t.id(), t.data().to_vec());
            }
        }
    }

    /// Number of workers.
    pub fn worker_count(&self) -> usize {
        self.clients.len()
    }

    /// Number of memory devices.
    pub fn proxy_count(&self) -> usize {
        self.proxies.len()
    }

    /// The routing table of worker `w`.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    pub fn routing_table(&self, w: usize) -> &crate::routing::RoutingTable {
        self.clients[w].table()
    }

    /// Re-runs the profiler against `topo` (which may reflect changed
    /// conditions — congestion, degraded links) and installs fresh routing
    /// tables — the dynamic profiling of §III-E. Returns how many workers'
    /// tables changed.
    pub fn reprofile(&mut self, topo: &Topology, now: SimTime) -> usize {
        let mem_devices: Vec<DeviceId> = {
            let mut pairs: Vec<(usize, DeviceId)> =
                self.proxy_index.iter().map(|(&d, &i)| (i, d)).collect();
            pairs.sort_unstable();
            pairs.into_iter().map(|(_, d)| d).collect()
        };
        let workers: Vec<DeviceId> = self.clients.iter().map(|c| c.worker()).collect();
        let tables = build_routing_tables(&mut Prober::new(topo), &workers, &mem_devices, now);
        let mut changed = 0;
        for (client, fresh) in self.clients.iter_mut().zip(tables) {
            let old = *client.table();
            if fresh.lat_proxy != old.lat_proxy
                || fresh.bw_proxy != old.bw_proxy
                || fresh.threshold != old.threshold
                || fresh.shard_size != old.shard_size
            {
                changed += 1;
            }
            client.set_table(fresh);
        }
        changed
    }

    /// Re-profiles only if every table is older than `interval` at `now`.
    /// Returns `Some(changed)` when a re-profile ran.
    pub fn maybe_reprofile(
        &mut self,
        topo: &Topology,
        now: SimTime,
        interval: coarse_simcore::time::SimDuration,
    ) -> Option<usize> {
        if self
            .clients
            .iter()
            .all(|c| c.table().is_stale(now, interval))
        {
            Some(self.reprofile(topo, now))
        } else {
            None
        }
    }

    /// Synchronizes one round of gradients: `gradients[w]` is worker `w`'s
    /// tensor list (all workers push the same tensor ids). Returns, per
    /// worker, the averaged tensors pulled back, in push order.
    ///
    /// # Panics
    ///
    /// Panics if worker counts mismatch or tensor sets differ. Use
    /// [`try_synchronize`](Self::try_synchronize) for a fallible variant.
    pub fn synchronize(&mut self, gradients: &[Vec<Tensor>]) -> Vec<Vec<Tensor>> {
        match self.try_synchronize(gradients) {
            Ok(r) => r,
            // simlint: allow(panic-in-library, reason = "documented panicking wrapper; try_synchronize is the fallible variant")
            Err(e) => panic!("{e}"),
        }
    }

    /// Validates one round's gradient sets against the deployment.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::WorkerCountMismatch`] or
    /// [`SystemError::TensorSetMismatch`].
    fn validate_gradients(
        &self,
        gradients: &[Vec<Tensor>],
    ) -> Result<Vec<(TensorId, usize)>, SystemError> {
        if gradients.len() != self.clients.len() {
            return Err(SystemError::WorkerCountMismatch {
                expected: self.clients.len(),
                got: gradients.len(),
            });
        }
        let tensor_meta: Vec<(TensorId, usize)> =
            gradients[0].iter().map(|t| (t.id(), t.len())).collect();
        for (w, set) in gradients.iter().enumerate() {
            let meta: Vec<(TensorId, usize)> = set.iter().map(|t| (t.id(), t.len())).collect();
            if meta != tensor_meta {
                return Err(SystemError::TensorSetMismatch { worker: w });
            }
        }
        Ok(tensor_meta)
    }

    /// Fallible synchronization: like [`synchronize`](Self::synchronize) but
    /// malformed gradient sets surface as a [`SystemError`].
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::WorkerCountMismatch`] when `gradients.len()`
    /// differs from the worker count and [`SystemError::TensorSetMismatch`]
    /// when a worker's tensor set differs from worker 0's.
    pub fn try_synchronize(
        &mut self,
        gradients: &[Vec<Tensor>],
    ) -> Result<Vec<Vec<Tensor>>, SystemError> {
        let tensor_meta = self.validate_gradients(gradients)?;

        // Phase 1: push. Clients partition/route; requests land in the
        // per-client queues of the destination proxies.
        for (w, set) in gradients.iter().enumerate() {
            for tensor in set {
                self.clients[w].push(tensor);
            }
            while let Some(req) = self.clients[w].dequeue() {
                let pi = self.proxy_index[&req.proxy];
                self.proxies[pi].enqueue(w, req);
            }
        }

        Ok(self.reduce_and_pull(&tensor_meta))
    }

    /// Phases 2–4 of a synchronization round: proxies absorb their queues,
    /// the sync-core ring reduces across memory devices (optimizer step if
    /// installed), and every client pulls its shards back.
    fn reduce_and_pull(&mut self, tensor_meta: &[(TensorId, usize)]) -> Vec<Vec<Tensor>> {
        // Phase 2: proxies absorb their queues (scatter-add per tensor).
        for p in &mut self.proxies {
            p.absorb();
        }

        // Phase 3: cross-device reduction per tensor. With one device the
        // local accumulation already is the global sum. In optimizer mode
        // the devices then run the update rule on the master weights and
        // publish the new values (§II-A).
        let workers = self.clients.len() as f32;
        for (round, &(id, len)) in tensor_meta.iter().enumerate() {
            let mut reduced = if self.proxies.len() == 1 {
                self.proxies[0].take_contribution(id, len)
            } else {
                let inputs: Vec<Vec<f32>> = self
                    .proxies
                    .iter_mut()
                    .map(|p| p.take_contribution(id, len))
                    .collect();
                // Alternate ring direction per tensor (Fig. 11b).
                let mut group = SyncGroup::new(
                    self.proxies.len(),
                    SYNC_CHUNK_ELEMS,
                    RingDirection::for_group(round),
                );
                if let Some(hub) = &self.oracles {
                    group.set_oracles(hub.clone());
                }
                group
                    .try_allreduce_sum(&inputs)
                    // simlint: allow(panic-in-library, reason = "failover repair keeps exactly one contribution per surviving proxy per window")
                    .expect("one contribution per surviving proxy")
                    .0
            };
            // Each completed cross-device reduction is serviceable work
            // finishing — the liveness oracle's heartbeat.
            if let Some(hub) = &self.oracles {
                hub.emit(OracleEvent::Progress { at: self.clock });
            }
            for x in &mut reduced {
                *x /= workers;
            }
            let publish = match &mut self.optimizer {
                Some(opt) => {
                    let mut master = self.proxies[0]
                        .store()
                        .get(id)
                        .unwrap_or_else(|| {
                            // simlint: allow(panic-in-library, reason = "documented # Panics contract: optimizer mode requires register_parameters() before training")
                            panic!("optimizer mode requires registered parameters for {id}")
                        })
                        .into_data();
                    opt.step(id, &mut master, &reduced);
                    master
                }
                None => reduced,
            };
            for p in &mut self.proxies {
                p.store_reduced(id, publish.clone());
            }
        }

        // Phase 4: pull. Each client collects its shards back from the
        // proxies it pushed to and reconstructs full tensors.
        let mut results = Vec::with_capacity(self.clients.len());
        for w in 0..self.clients.len() {
            let mut done: BTreeMap<TensorId, Tensor> = BTreeMap::new();
            for &(id, _) in tensor_meta {
                for pi in 0..self.proxies.len() {
                    for shard in self.proxies[pi].serve_pull(w, id) {
                        if let Some(t) = self.clients[w].deliver(shard) {
                            done.insert(t.id(), t);
                        }
                    }
                }
            }
            results.push(
                tensor_meta
                    .iter()
                    // simlint: allow(panic-in-library, reason = "the loop above inserts one entry per partition before this read")
                    .map(|&(id, _)| done.remove(&id).expect("every tensor reconstructs"))
                    .collect(),
            );
        }
        results
    }

    /// The memory devices currently hosting proxies, in deployment order
    /// (shrinks after [`fail_proxy`](Self::fail_proxy)).
    pub fn proxy_devices(&self) -> Vec<DeviceId> {
        self.proxies.iter().map(|p| p.device()).collect()
    }

    /// Fails `device`'s proxy over: removes it from the deployment and
    /// re-indexes the survivors. Returns false if no such proxy exists.
    /// Callers should follow up with [`reprofile`](Self::reprofile) so the
    /// routing tables stop addressing the dead device.
    pub fn fail_proxy(&mut self, device: DeviceId) -> bool {
        let Some(pos) = self.proxies.iter().position(|p| p.device() == device) else {
            return false;
        };
        self.proxies.remove(pos);
        self.proxy_index = self
            .proxies
            .iter()
            .enumerate()
            .map(|(i, p)| (p.device(), i))
            .collect();
        true
    }

    /// Synchronizes one round under an injected fault plan, exercising the
    /// full resilience story: pushes travel under CRC32 seals and transient
    /// corruption (per the plan) is retried with exponential backoff; a push
    /// toward a dropped device times out and triggers proxy failover with
    /// routing-table repair over the survivors; if the whole proxy tier is
    /// lost, synchronization degrades gracefully to GPU-only allreduce.
    ///
    /// `now` is the simulated instant of the round (fault windows are
    /// evaluated against it); `topo` is the fabric used for routing repair.
    /// Returns the averaged tensors (exact elementwise mean, same guarantee
    /// as [`synchronize`](Self::synchronize)) plus the fault report. With an
    /// empty plan this is exactly `synchronize` plus a clean report.
    ///
    /// # Panics
    ///
    /// Panics if worker counts mismatch or tensor sets differ. Use
    /// [`try_synchronize_resilient`](Self::try_synchronize_resilient) for a
    /// fallible variant.
    pub fn synchronize_resilient(
        &mut self,
        gradients: &[Vec<Tensor>],
        topo: &Topology,
        plan: &FaultPlan,
        now: SimTime,
        policy: &ResiliencePolicy,
    ) -> (Vec<Vec<Tensor>>, SyncFaultReport) {
        match self.try_synchronize_resilient(gradients, topo, plan, now, policy) {
            Ok(r) => r,
            // simlint: allow(panic-in-library, reason = "documented panicking wrapper; try_synchronize_resilient is the fallible variant")
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible resilient synchronization: like
    /// [`synchronize_resilient`](Self::synchronize_resilient) but malformed
    /// gradient sets surface as a [`SystemError`].
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::WorkerCountMismatch`] or
    /// [`SystemError::TensorSetMismatch`].
    pub fn try_synchronize_resilient(
        &mut self,
        gradients: &[Vec<Tensor>],
        topo: &Topology,
        plan: &FaultPlan,
        now: SimTime,
        policy: &ResiliencePolicy,
    ) -> Result<(Vec<Vec<Tensor>>, SyncFaultReport), SystemError> {
        let mut report = SyncFaultReport::default();
        if plan.is_empty() {
            return Ok((self.try_synchronize(gradients)?, report));
        }
        let tensor_meta = self.validate_gradients(gradients)?;
        self.clock = now;
        for p in &mut self.proxies {
            p.set_time(now);
        }
        // A new round: every worker's shard streams start over at shard 0.
        self.emit_stream_resets(&tensor_meta, now);

        // Deterministic per-transfer sequence number: keys the plan's
        // corruption hash so each retransmission draws a fresh outcome.
        let mut transfer_seq: u64 = 0;
        'round: loop {
            // Detect proxies that dropped before this round (timeout each).
            let downs: Vec<DeviceId> = self
                .proxies
                .iter()
                .map(|p| p.device())
                .filter(|d| plan.device_down(d.index() as u32, now))
                .collect();
            if !downs.is_empty() {
                for d in downs {
                    if let Some(hub) = &self.oracles {
                        hub.emit(OracleEvent::FaultBite {
                            kind: BiteKind::Dropout,
                            at: now,
                        });
                    }
                    self.fail_proxy(d);
                    report.failovers += 1;
                    report.recovery_time += policy.detect_timeout;
                }
                if !self.proxies.is_empty() {
                    self.reprofile(topo, now);
                }
            }
            if self.proxies.is_empty() {
                // Proxy tier lost: degrade to GPU-only synchronization.
                report.degraded_to_gpu = true;
                for c in &mut self.clients {
                    c.reset_pending();
                }
                self.emit_stream_resets(&tensor_meta, now);
                if let Some(hub) = &self.oracles {
                    hub.emit(OracleEvent::Progress { at: now });
                }
                return Ok((gpu_only_mean(gradients), report));
            }

            // Push phase, resilient: every shard travels sealed; transient
            // corruption is retried with backoff; a dead destination aborts
            // and restarts the round after failover.
            for (w, set) in gradients.iter().enumerate() {
                for tensor in set {
                    self.clients[w].push(tensor);
                }
                while let Some(req) = self.clients[w].dequeue() {
                    if plan.device_down(req.proxy.index() as u32, now) {
                        // Push timed out: fail the proxy over, repair the
                        // routing tables, and restart the round cleanly.
                        report.failovers += 1;
                        report.recovery_time += policy.detect_timeout;
                        if let Some(hub) = &self.oracles {
                            hub.emit(OracleEvent::FaultBite {
                                kind: BiteKind::Dropout,
                                at: now,
                            });
                        }
                        self.fail_proxy(req.proxy);
                        if !self.proxies.is_empty() {
                            self.reprofile(topo, now);
                        }
                        for p in &mut self.proxies {
                            p.discard_pending();
                        }
                        for c in &mut self.clients {
                            c.reset_pending();
                        }
                        self.emit_stream_resets(&tensor_meta, now);
                        continue 'round;
                    }
                    let pi = self.proxy_index[&req.proxy];
                    let mut attempt = 0u32;
                    loop {
                        transfer_seq += 1;
                        if let Some(hub) = &self.oracles {
                            hub.emit(OracleEvent::ShardAttempt {
                                worker: w as u32,
                                stream: req.shard.tensor.0,
                                shard: req.shard.index,
                                attempt,
                                at: now,
                            });
                        }
                        let mut sealed = SealedShard::seal(req.shard.clone());
                        if attempt < MAX_PUSH_ATTEMPTS
                            && plan.corrupts(req.proxy.index() as u32, now, transfer_seq)
                        {
                            // Model in-flight corruption: flip a mantissa bit
                            // after sealing so the CRC32 check fails.
                            if let Some(x) = sealed.shard_mut().data.first_mut() {
                                *x = f32::from_bits(x.to_bits() ^ 1);
                            }
                            if let Some(hub) = &self.oracles {
                                hub.emit(OracleEvent::FaultBite {
                                    kind: BiteKind::Corrupt,
                                    at: now,
                                });
                            }
                        }
                        match self.proxies[pi].enqueue_sealed(
                            w,
                            sealed,
                            req.shard_count,
                            req.tensor_len,
                        ) {
                            Ok(()) => break,
                            Err(_) => {
                                report.retries += 1;
                                report.rejected_shards += 1;
                                report.recovery_time += policy.backoff_after(attempt);
                                attempt += 1;
                            }
                        }
                    }
                }
            }
            break;
        }
        Ok((self.reduce_and_pull(&tensor_meta), report))
    }

    /// Announces to the oracle battery that every worker's per-tensor shard
    /// stream legitimately restarts (round restart after failover or
    /// degradation) — without this the retry-FIFO oracle would flag the
    /// restarted streams as regressions.
    fn emit_stream_resets(&self, tensor_meta: &[(TensorId, usize)], now: SimTime) {
        if let Some(hub) = &self.oracles {
            for w in 0..self.clients.len() {
                for &(id, _) in tensor_meta {
                    hub.emit(OracleEvent::StreamReset {
                        worker: w as u32,
                        stream: id.0,
                        at: now,
                    });
                }
            }
        }
    }

    /// The stored value of a tensor on the first memory device's storage,
    /// if it has been synchronized.
    pub fn stored(&self, id: TensorId) -> Option<Tensor> {
        self.proxies[0].store().get(id)
    }

    /// Takes a coordinated checkpoint: snapshots every proxy's storage
    /// (§IV-A fault tolerance).
    pub fn checkpoint(&mut self) -> Vec<Snapshot> {
        self.proxies
            .iter_mut()
            .map(|p| p.store_mut().snapshot())
            .collect()
    }

    /// Restores every proxy's storage from a coordinated checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot count differs from the proxy count.
    pub fn restore(&mut self, snapshots: &[Snapshot]) {
        assert_eq!(snapshots.len(), self.proxies.len(), "snapshot per proxy");
        for (p, s) in self.proxies.iter_mut().zip(snapshots) {
            p.store_mut().restore(s);
        }
    }
}

/// The elementwise mean of every worker's gradients, computed GPU-side —
/// the graceful-degradation fallback when the proxy tier is lost. Every
/// worker receives the same (exact) mean, matching the proxy path's
/// guarantee.
fn gpu_only_mean(gradients: &[Vec<Tensor>]) -> Vec<Vec<Tensor>> {
    let workers = gradients.len() as f32;
    let means: Vec<Tensor> = gradients[0]
        .iter()
        .enumerate()
        .map(|(i, t0)| {
            let mut acc = vec![0.0f32; t0.len()];
            for set in gradients {
                for (a, b) in acc.iter_mut().zip(set[i].data()) {
                    *a += *b;
                }
            }
            for x in &mut acc {
                *x /= workers;
            }
            Tensor::new(t0.id(), acc)
        })
        .collect();
    gradients.iter().map(|_| means.clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use coarse_fabric::machines::{aws_t4, aws_v100, sdsc_p100, PartitionScheme};

    /// Integer-valued gradients so ring-order summation is exact.
    fn gradient_sets(workers: usize, sizes: &[usize]) -> Vec<Vec<Tensor>> {
        (0..workers)
            .map(|w| {
                sizes
                    .iter()
                    .enumerate()
                    .map(|(i, &len)| {
                        Tensor::new(
                            TensorId(i as u64),
                            (0..len).map(|j| ((w * 3 + i + j) % 16) as f32).collect(),
                        )
                    })
                    .collect()
            })
            .collect()
    }

    fn expected_mean(gradients: &[Vec<Tensor>]) -> Vec<Tensor> {
        let workers = gradients.len() as f32;
        gradients[0]
            .iter()
            .enumerate()
            .map(|(i, t0)| {
                let mut acc = vec![0.0f32; t0.len()];
                for set in gradients {
                    for (a, b) in acc.iter_mut().zip(set[i].data()) {
                        *a += *b;
                    }
                }
                for x in &mut acc {
                    *x /= workers;
                }
                Tensor::new(t0.id(), acc)
            })
            .collect()
    }

    fn check_machine(machine: coarse_fabric::machines::Machine, scheme: PartitionScheme) {
        let part = machine.partition(scheme);
        let mut sys = CoarseSystem::new(machine.topology(), &part.workers, &part.mem_devices);
        // Mixed sizes: tiny (lat-routed), medium, large (partitioned).
        let grads = gradient_sets(part.workers.len(), &[64, 5_000, 1_000_000]);
        let results = sys.synchronize(&grads);
        let expect = expected_mean(&grads);
        for per_worker in &results {
            assert_eq!(per_worker.len(), expect.len());
            for (got, want) in per_worker.iter().zip(&expect) {
                assert_eq!(got.id(), want.id());
                for (a, b) in got.data().iter().zip(want.data()) {
                    assert!((a - b).abs() < 1e-4, "mismatch: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn synchronize_equals_mean_on_v100() {
        check_machine(aws_v100(), PartitionScheme::OneToOne);
    }

    #[test]
    fn synchronize_equals_mean_on_p100() {
        check_machine(sdsc_p100(), PartitionScheme::OneToOne);
    }

    #[test]
    fn synchronize_equals_mean_on_t4() {
        check_machine(aws_t4(), PartitionScheme::OneToOne);
    }

    #[test]
    fn synchronize_equals_mean_with_shared_devices() {
        check_machine(aws_v100(), PartitionScheme::TwoToOne);
    }

    #[test]
    fn repeated_rounds_accumulate_versions() {
        let machine = sdsc_p100();
        let part = machine.partition(PartitionScheme::OneToOne);
        let mut sys = CoarseSystem::new(machine.topology(), &part.workers, &part.mem_devices);
        let g1 = gradient_sets(part.workers.len(), &[1000]);
        sys.synchronize(&g1);
        let mut g2 = gradient_sets(part.workers.len(), &[1000]);
        for set in &mut g2 {
            set[0].scale(2.0);
        }
        let r2 = sys.synchronize(&g2);
        let expect = expected_mean(&g2);
        assert_eq!(r2[0][0].data(), expect[0].data());
    }

    #[test]
    fn checkpoint_restore_round_trip() {
        let machine = sdsc_p100();
        let part = machine.partition(PartitionScheme::OneToOne);
        let mut sys = CoarseSystem::new(machine.topology(), &part.workers, &part.mem_devices);
        let g1 = gradient_sets(part.workers.len(), &[2048]);
        let r1 = sys.synchronize(&g1);
        let ckpt = sys.checkpoint();
        // Another round perturbs storage.
        let mut g2 = gradient_sets(part.workers.len(), &[2048]);
        for set in &mut g2 {
            set[0].scale(5.0);
        }
        sys.synchronize(&g2);
        // Restore: storage holds the first round's values again.
        sys.restore(&ckpt);
        let stored = sys.proxies[0].store().get(TensorId(0)).unwrap();
        assert_eq!(stored.data(), r1[0][0].data());
    }

    #[test]
    fn dynamic_reprofiling_follows_fabric_changes() {
        use coarse_fabric::machines::aws_v100_custom;
        // Start on the anti-local fabric: large tensors route remotely.
        let machine = aws_v100_custom(5.0, 9.0);
        let part = machine.partition(PartitionScheme::OneToOne);
        let mut sys = CoarseSystem::new(machine.topology(), &part.workers, &part.mem_devices);
        assert!(sys.routing_table(0).is_split());
        // The uplinks degrade below the hairpin (congestion): the local
        // proxy now wins bandwidth too.
        let congested = aws_v100_custom(5.0, 2.0);
        let changed = sys.reprofile(congested.topology(), SimTime::from_nanos(1));
        assert!(changed >= 1, "tables must change under congestion");
        assert!(!sys.routing_table(0).is_split());
        assert_eq!(sys.routing_table(0).lat_proxy, part.proxy_for(0));
        // Synchronization still produces exact means on the new tables.
        let grads = gradient_sets(part.workers.len(), &[1000, 800_000]);
        let results = sys.synchronize(&grads);
        let expect = expected_mean(&grads);
        for (got, want) in results[0].iter().zip(&expect) {
            for (a, b) in got.data().iter().zip(want.data()) {
                assert!((a - b).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn maybe_reprofile_respects_interval() {
        use coarse_simcore::time::SimDuration;
        let machine = aws_v100();
        let part = machine.partition(PartitionScheme::OneToOne);
        let mut sys = CoarseSystem::new(machine.topology(), &part.workers, &part.mem_devices);
        let interval = SimDuration::from_millis(100);
        // Too early: tables were built at t=0.
        assert_eq!(
            sys.maybe_reprofile(machine.topology(), SimTime::from_nanos(10), interval),
            None
        );
        // Past the interval: runs (and finds nothing changed on the same
        // fabric).
        assert_eq!(
            sys.maybe_reprofile(
                machine.topology(),
                SimTime::ZERO + SimDuration::from_millis(150),
                interval
            ),
            Some(0)
        );
    }

    #[test]
    fn resilient_sync_with_empty_plan_matches_plain() {
        let machine = sdsc_p100();
        let part = machine.partition(PartitionScheme::OneToOne);
        let grads = gradient_sets(part.workers.len(), &[64, 5_000]);
        let mut plain = CoarseSystem::new(machine.topology(), &part.workers, &part.mem_devices);
        let want = plain.synchronize(&grads);
        let mut sys = CoarseSystem::new(machine.topology(), &part.workers, &part.mem_devices);
        let (got, report) = sys.synchronize_resilient(
            &grads,
            machine.topology(),
            &coarse_simcore::faults::FaultPlan::empty(),
            SimTime::ZERO,
            &ResiliencePolicy::default(),
        );
        assert_eq!(got, want, "empty plan must be bit-identical");
        assert!(report.is_clean());
        assert_eq!(
            report.recovery_time,
            coarse_simcore::time::SimDuration::ZERO
        );
    }

    #[test]
    fn proxy_dropout_fails_over_and_still_produces_exact_mean() {
        let machine = aws_v100();
        let part = machine.partition(PartitionScheme::OneToOne);
        let mut sys = CoarseSystem::new(machine.topology(), &part.workers, &part.mem_devices);
        let victim = part.mem_devices[1];
        let plan = coarse_simcore::faults::FaultPlan::new(3)
            .drop_device(victim.index() as u32, SimTime::from_nanos(10));
        let grads = gradient_sets(part.workers.len(), &[64, 5_000, 1_000_000]);
        let (results, report) = sys.synchronize_resilient(
            &grads,
            machine.topology(),
            &plan,
            SimTime::from_nanos(100),
            &ResiliencePolicy::default(),
        );
        assert_eq!(report.failovers, 1);
        assert!(!report.degraded_to_gpu);
        assert!(report.recovery_time > coarse_simcore::time::SimDuration::ZERO);
        assert_eq!(sys.proxy_count(), part.mem_devices.len() - 1);
        assert!(!sys.proxy_devices().contains(&victim));
        let expect = expected_mean(&grads);
        for per_worker in &results {
            for (got, want) in per_worker.iter().zip(&expect) {
                for (a, b) in got.data().iter().zip(want.data()) {
                    assert!((a - b).abs() < 1e-4, "mismatch after failover: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn losing_every_proxy_degrades_to_gpu_only() {
        let machine = sdsc_p100();
        let part = machine.partition(PartitionScheme::OneToOne);
        let mut sys = CoarseSystem::new(machine.topology(), &part.workers, &part.mem_devices);
        let mut plan = coarse_simcore::faults::FaultPlan::new(4);
        for d in &part.mem_devices {
            plan = plan.drop_device(d.index() as u32, SimTime::ZERO);
        }
        let grads = gradient_sets(part.workers.len(), &[2048]);
        let (results, report) = sys.synchronize_resilient(
            &grads,
            machine.topology(),
            &plan,
            SimTime::from_nanos(5),
            &ResiliencePolicy::default(),
        );
        assert!(report.degraded_to_gpu);
        assert_eq!(report.failovers as usize, part.mem_devices.len());
        assert_eq!(sys.proxy_count(), 0);
        let expect = expected_mean(&grads);
        for per_worker in &results {
            assert_eq!(per_worker[0].data(), expect[0].data());
        }
    }

    #[test]
    fn transient_corruption_retries_until_clean_and_preserves_mean() {
        let machine = sdsc_p100();
        let part = machine.partition(PartitionScheme::OneToOne);
        let mut sys = CoarseSystem::new(machine.topology(), &part.workers, &part.mem_devices);
        let mut plan = coarse_simcore::faults::FaultPlan::new(11);
        for d in &part.mem_devices {
            plan = plan.corrupt_transfers(d.index() as u32, SimTime::ZERO, SimTime::MAX, 400_000);
        }
        let grads = gradient_sets(part.workers.len(), &[64, 900_000]);
        let (results, report) = sys.synchronize_resilient(
            &grads,
            machine.topology(),
            &plan,
            SimTime::from_nanos(50),
            &ResiliencePolicy::default(),
        );
        assert!(report.retries > 0, "40% corruption must force retries");
        assert_eq!(report.retries, report.rejected_shards);
        assert!(report.recovery_time > coarse_simcore::time::SimDuration::ZERO);
        assert_eq!(report.failovers, 0);
        let expect = expected_mean(&grads);
        for per_worker in &results {
            for (got, want) in per_worker.iter().zip(&expect) {
                for (a, b) in got.data().iter().zip(want.data()) {
                    assert!((a - b).abs() < 1e-4);
                }
            }
        }
        // Same seed, fresh system: byte-identical fault report.
        let mut sys2 = CoarseSystem::new(machine.topology(), &part.workers, &part.mem_devices);
        let (_, report2) = sys2.synchronize_resilient(
            &grads,
            machine.topology(),
            &plan,
            SimTime::from_nanos(50),
            &ResiliencePolicy::default(),
        );
        assert_eq!(report, report2, "faulty runs must be deterministic");
    }

    #[test]
    fn try_new_rejects_empty_tiers() {
        let machine = sdsc_p100();
        let part = machine.partition(PartitionScheme::OneToOne);
        assert_eq!(
            CoarseSystem::try_new(machine.topology(), &[], &part.mem_devices).err(),
            Some(SystemError::NoWorkers)
        );
        assert_eq!(
            CoarseSystem::try_new(machine.topology(), &part.workers, &[]).err(),
            Some(SystemError::NoMemDevices)
        );
    }

    #[test]
    fn try_synchronize_surfaces_typed_errors() {
        let machine = sdsc_p100();
        let part = machine.partition(PartitionScheme::OneToOne);
        let mut sys = CoarseSystem::new(machine.topology(), &part.workers, &part.mem_devices);
        let short = gradient_sets(part.workers.len() - 1, &[100]);
        assert_eq!(
            sys.try_synchronize(&short).err(),
            Some(SystemError::WorkerCountMismatch {
                expected: part.workers.len(),
                got: part.workers.len() - 1,
            })
        );
        let mut bad = gradient_sets(part.workers.len(), &[100]);
        bad[1][0] = Tensor::new(TensorId(42), vec![0.0; 100]);
        assert_eq!(
            sys.try_synchronize(&bad).err(),
            Some(SystemError::TensorSetMismatch { worker: 1 })
        );
    }

    #[test]
    fn oracles_stay_quiet_across_resilient_rounds() {
        use coarse_simcore::oracle::OracleHub;
        use coarse_simcore::time::SimDuration;
        let machine = sdsc_p100();
        let part = machine.partition(PartitionScheme::OneToOne);
        let mut sys = CoarseSystem::new(machine.topology(), &part.workers, &part.mem_devices);
        let hub = OracleHub::with_builtins(SimDuration::from_millis(50));
        sys.set_oracles(hub.clone());
        let mut plan = coarse_simcore::faults::FaultPlan::new(11);
        for d in &part.mem_devices {
            plan = plan.corrupt_transfers(d.index() as u32, SimTime::ZERO, SimTime::MAX, 400_000);
        }
        let grads = gradient_sets(part.workers.len(), &[64, 900_000]);
        // Two consecutive rounds: retries fire, streams restart per round.
        for round in 0..2u64 {
            let now = SimTime::from_nanos(50 + round * 10);
            let (_, report) = sys.synchronize_resilient(
                &grads,
                machine.topology(),
                &plan,
                now,
                &ResiliencePolicy::default(),
            );
            assert!(report.retries > 0);
        }
        hub.emit(OracleEvent::RunEnd {
            at: SimTime::from_nanos(60),
        });
        assert!(
            hub.violations().is_empty(),
            "healthy resilient rounds flagged: {:?}",
            hub.violations()
        );
        assert!(hub.events_seen() > 0);
    }

    #[test]
    #[should_panic(expected = "identical tensor sets")]
    fn mismatched_tensor_sets_rejected() {
        let machine = sdsc_p100();
        let part = machine.partition(PartitionScheme::OneToOne);
        let mut sys = CoarseSystem::new(machine.topology(), &part.workers, &part.mem_devices);
        let mut grads = gradient_sets(part.workers.len(), &[100]);
        grads[1][0] = Tensor::new(TensorId(42), vec![0.0; 100]);
        sys.synchronize(&grads);
    }
}
