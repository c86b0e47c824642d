//! Timed proxy service: how fast proxies drain their tensor queues under
//! each scheduling policy (§III-F).
//!
//! The static [`deadlock`](crate::deadlock) scheduler answers *whether*
//! a workload completes; this model answers *how fast*. Each proxy owns a
//! set of **sync cores** (§IV-A); a tensor's collective occupies one core
//! on every participating proxy for the tensor's service time. Under FCFS a
//! proxy only offers the head of its single arrival queue — one stalled
//! collective idles every core. Under COARSE's per-client queues, each
//! client stream can be serviced concurrently, so cores stay busy and
//! throughput scales with the core count.

use std::collections::BTreeMap;

use coarse_cci::tensor::TensorId;
use coarse_simcore::critpath::class as crit_class;
use coarse_simcore::prelude::*;
use coarse_simcore::prof::region as prof_region;

use crate::deadlock::SchedulingPolicy;

/// One client's contribution to a tensor, parked at a proxy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Parked {
    client: usize,
    tensor: TensorId,
}

/// A tensor service job: which proxies hold contributions and how long the
/// collective takes.
#[derive(Debug, Clone)]
pub struct ServiceJob {
    /// The tensor to synchronize.
    pub tensor: TensorId,
    /// `(client, proxy)` pairs, in each client's push order.
    pub contributions: Vec<(usize, usize)>,
    /// Duration of the collective once it starts.
    pub service: SimDuration,
}

/// Results of a timed service run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceOutcome {
    /// When the last collective finished (`SimTime::MAX`-free; zero jobs ⇒
    /// zero).
    pub makespan: SimDuration,
    /// Collectives completed.
    pub completed: usize,
    /// Jobs left stuck (deadlock) when the simulation quiesced.
    pub stuck: usize,
}

#[derive(Debug)]
struct ProxyState {
    /// Arrival-ordered queue (FCFS view).
    fifo: Vec<Parked>,
    /// Per-client queues (COARSE view).
    per_client: BTreeMap<usize, Vec<Parked>>,
    /// Free sync cores.
    free_cores: usize,
}

impl ProxyState {
    fn willing(&self, p: Parked, policy: SchedulingPolicy) -> bool {
        if self.free_cores == 0 {
            return false;
        }
        match policy {
            SchedulingPolicy::Fcfs => self.fifo.first() == Some(&p),
            SchedulingPolicy::PerClientQueues => {
                self.per_client.get(&p.client).and_then(|q| q.first()) == Some(&p)
            }
        }
    }

    fn remove(&mut self, p: Parked) {
        self.fifo.retain(|&x| x != p);
        if let Some(q) = self.per_client.get_mut(&p.client) {
            q.retain(|&x| x != p);
        }
    }
}

struct ServiceModel {
    policy: SchedulingPolicy,
    proxies: Vec<ProxyState>,
    /// Jobs not launched yet.
    jobs: BTreeMap<TensorId, ServiceJob>,
    /// Running collectives and the proxies whose cores they hold, keyed by
    /// `(completion time, launch sequence)` so completions at one instant
    /// are taken in launch order.
    pending: BTreeMap<(SimTime, u64), (TensorId, Vec<usize>)>,
    launches: u64,
    completed: usize,
    finished_at: SimTime,
    /// Self-profiler, when profiling is on: launches count under the
    /// `core.proxy` region and per-proxy queue depths feed its histograms.
    profiler: Option<Profiler>,
    /// Critical-path recorder, when attached: each collective registers a
    /// sync node, and delayed launches a proxy-stall node chained on the
    /// completions that freed their cores.
    critpath: Option<CritPath>,
    /// Critical-path node of each running collective.
    crit_nodes: BTreeMap<TensorId, NodeId>,
    /// The latest-finishing collective node so far (the run's sink).
    crit_sink: Option<(SimTime, NodeId)>,
}

impl ServiceModel {
    fn launchable(&self, job: &ServiceJob) -> bool {
        // Every contribution must be at a serviceable position AND every
        // distinct participating proxy must have a free core.
        let mut proxies: Vec<usize> = job.contributions.iter().map(|&(_, p)| p).collect();
        proxies.sort_unstable();
        proxies.dedup();
        job.contributions.iter().all(|&(client, proxy)| {
            self.proxies[proxy].willing(
                Parked {
                    client,
                    tensor: job.tensor,
                },
                self.policy,
            )
        }) && proxies.iter().all(|&p| self.proxies[p].free_cores > 0)
    }

    /// Runs the service: one launch round at the start, then one after
    /// every completion, until no collective is running.
    fn run(&mut self) {
        self.dispatch("core.service.kick");
        self.launch_round(SimTime::ZERO, &[]);
        while let Some(((now, _), (tensor, proxies))) = self.pending.pop_first() {
            self.dispatch("core.service.done");
            for p in proxies {
                self.proxies[p].free_cores += 1;
            }
            self.completed += 1;
            self.finished_at = now;
            let freed = self.crit_nodes.remove(&tensor);
            self.launch_round(now, freed.as_slice());
        }
    }

    fn dispatch(&self, label: &'static str) {
        if let Some(p) = &self.profiler {
            p.dispatch(label);
        }
    }

    /// Launches everything now launchable, re-checking before each launch
    /// (an earlier launch in this round may have consumed the cores a
    /// later candidate needed). `freed` holds the critical-path node of
    /// the completion that opened this round.
    fn launch_round(&mut self, now: SimTime, freed: &[NodeId]) {
        let _prof = self
            .profiler
            .clone()
            .map(|p| p.enter(prof_region::CORE_PROXY));
        let mut launched = 0u64;
        let candidates: Vec<TensorId> = self.jobs.keys().copied().collect();
        for t in candidates {
            let job = &self.jobs[&t];
            if !self.launchable(job) {
                continue;
            }
            let mut proxies: Vec<usize> = job.contributions.iter().map(|&(_, p)| p).collect();
            proxies.sort_unstable();
            proxies.dedup();
            let service = job.service;
            let contributions = job.contributions.clone();
            for &p in &proxies {
                self.proxies[p].free_cores -= 1;
            }
            for (client, proxy) in contributions {
                self.proxies[proxy].remove(Parked { client, tensor: t });
            }
            self.jobs.remove(&t);
            self.pending
                .insert((now + service, self.launches), (t, proxies));
            self.launches += 1;
            launched += 1;
            if let Some(cp) = &self.critpath {
                // A launch after t=0 waited in the proxy queues (all
                // contributions arrive at t=0); the stall chains on the
                // completions that freed the cores it needed.
                let deps = if now > SimTime::ZERO {
                    vec![cp.span(
                        crit_class::PROXY_STALL,
                        format!("tensor {} queued at proxies", t.0),
                        SimTime::ZERO,
                        now,
                        freed,
                    )]
                } else {
                    Vec::new()
                };
                let end = now + service;
                let n = cp.span(
                    crit_class::SYNC,
                    format!("tensor {} collective", t.0),
                    now,
                    end,
                    &deps,
                );
                self.crit_nodes.insert(t, n);
                if self.crit_sink.is_none_or(|(e, _)| end >= e) {
                    self.crit_sink = Some((end, n));
                }
            }
        }
        if let Some(p) = &self.profiler {
            p.count(prof_region::CORE_PROXY, launched);
            for st in &self.proxies {
                p.observe_depth("core.proxy_fifo", st.fifo.len() as u64);
            }
        }
    }
}

/// Runs the timed service simulation.
///
/// # Panics
///
/// Panics if `proxies` or `cores_per_proxy` is zero, or a job references an
/// out-of-range proxy.
pub fn run_service(
    proxies: usize,
    cores_per_proxy: usize,
    policy: SchedulingPolicy,
    jobs: Vec<ServiceJob>,
) -> ServiceOutcome {
    run_service_profiled(proxies, cores_per_proxy, policy, jobs, None)
}

/// [`run_service`] with an optional self-profiler: the start counts one
/// `core.service.kick` dispatch and every completion one `core.service.done`,
/// collective launches count under the `core.proxy` region, and per-proxy
/// FIFO depths feed the `core.proxy_fifo` histogram. Observation-only — the
/// outcome is identical with or without the profiler.
///
/// # Panics
///
/// Panics under the same conditions as [`run_service`].
pub fn run_service_profiled(
    proxies: usize,
    cores_per_proxy: usize,
    policy: SchedulingPolicy,
    jobs: Vec<ServiceJob>,
    profiler: Option<Profiler>,
) -> ServiceOutcome {
    run_service_inner(proxies, cores_per_proxy, policy, jobs, profiler, None)
}

/// [`run_service`] with an optional critical-path recorder attached: every
/// collective registers a `sync` node and every delayed launch a
/// `proxy_stall` node chained on the completions that freed its cores, and
/// the run's sink (the last-finishing collective) is marked as iteration 0.
/// Observation-only — the outcome is identical with or without the recorder.
///
/// # Panics
///
/// Panics under the same conditions as [`run_service`].
pub fn run_service_explained(
    proxies: usize,
    cores_per_proxy: usize,
    policy: SchedulingPolicy,
    jobs: Vec<ServiceJob>,
    critpath: Option<CritPath>,
) -> ServiceOutcome {
    run_service_inner(proxies, cores_per_proxy, policy, jobs, None, critpath)
}

fn run_service_inner(
    proxies: usize,
    cores_per_proxy: usize,
    policy: SchedulingPolicy,
    jobs: Vec<ServiceJob>,
    profiler: Option<Profiler>,
    critpath: Option<CritPath>,
) -> ServiceOutcome {
    assert!(proxies > 0, "need at least one proxy");
    assert!(cores_per_proxy > 0, "need at least one sync core");
    let mut states: Vec<ProxyState> = (0..proxies)
        .map(|_| ProxyState {
            fifo: Vec::new(),
            per_client: BTreeMap::new(),
            free_cores: cores_per_proxy,
        })
        .collect();
    // Arrivals interleave across clients (they push concurrently): the
    // k-th contribution of every job lands before any job's (k+1)-th.
    // Each client's own stream stays in job order, as the backward pass
    // guarantees.
    let max_contribs = jobs
        .iter()
        .map(|j| j.contributions.len())
        .max()
        .unwrap_or(0);
    for k in 0..max_contribs {
        for job in &jobs {
            if let Some(&(client, proxy)) = job.contributions.get(k) {
                assert!(proxy < proxies, "job references unknown proxy {proxy}");
                let parked = Parked {
                    client,
                    tensor: job.tensor,
                };
                states[proxy].fifo.push(parked);
                states[proxy]
                    .per_client
                    .entry(client)
                    .or_default()
                    .push(parked);
            }
        }
    }
    let mut job_map = BTreeMap::new();
    for job in jobs {
        job_map.insert(job.tensor, job);
    }
    let total = job_map.len();
    let mut m = ServiceModel {
        policy,
        proxies: states,
        jobs: job_map,
        pending: BTreeMap::new(),
        launches: 0,
        completed: 0,
        finished_at: SimTime::ZERO,
        profiler,
        critpath: critpath.clone(),
        crit_nodes: BTreeMap::new(),
        crit_sink: None,
    };
    m.run();
    if let (Some(cp), Some((_, sink))) = (&critpath, m.crit_sink) {
        cp.mark_iteration(0, sink);
    }
    ServiceOutcome {
        makespan: m.finished_at - SimTime::ZERO,
        completed: m.completed,
        stuck: total - m.completed,
    }
}

/// A realistic workload: `tensors` tensors pushed by `clients` clients in a
/// common backward order, routed round-robin across `proxies`, each
/// collective costing `service`.
pub fn round_robin_jobs(
    tensors: u64,
    clients: usize,
    proxies: usize,
    service: SimDuration,
) -> Vec<ServiceJob> {
    (0..tensors)
        .map(|t| ServiceJob {
            tensor: TensorId(t),
            contributions: (0..clients)
                .map(|c| (c, ((t as usize) + c) % proxies))
                .collect(),
            service,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: SimDuration = SimDuration::from_millis(1);

    #[test]
    fn empty_workload_trivially_done() {
        let out = run_service(2, 1, SchedulingPolicy::PerClientQueues, vec![]);
        assert_eq!(out.completed, 0);
        assert_eq!(out.stuck, 0);
        assert_eq!(out.makespan, SimDuration::ZERO);
    }

    #[test]
    fn single_tensor_takes_one_service_time() {
        let jobs = round_robin_jobs(1, 2, 2, MS);
        let out = run_service(2, 1, SchedulingPolicy::PerClientQueues, jobs);
        assert_eq!(out.completed, 1);
        assert_eq!(out.makespan, MS);
    }

    #[test]
    fn queue_based_drains_everything() {
        let jobs = round_robin_jobs(40, 4, 4, MS);
        let out = run_service(4, 4, SchedulingPolicy::PerClientQueues, jobs);
        assert_eq!(out.stuck, 0);
        assert_eq!(out.completed, 40);
    }

    #[test]
    fn more_sync_cores_raise_throughput() {
        let jobs = round_robin_jobs(64, 2, 4, MS);
        let one = run_service(4, 1, SchedulingPolicy::PerClientQueues, jobs.clone());
        let four = run_service(4, 4, SchedulingPolicy::PerClientQueues, jobs);
        assert_eq!(one.stuck, 0);
        assert_eq!(four.stuck, 0);
        assert!(
            four.makespan < one.makespan,
            "4 cores ({:?}) must beat 1 ({:?})",
            four.makespan,
            one.makespan
        );
    }

    #[test]
    fn fcfs_stalls_on_crossed_heads() {
        // The Fig. 10 shape, timed: FCFS leaves both tensors stuck.
        let jobs = vec![
            ServiceJob {
                tensor: TensorId(1),
                contributions: vec![(0, 0), (1, 1)],
                service: MS,
            },
            ServiceJob {
                tensor: TensorId(2),
                contributions: vec![(0, 1), (1, 0)],
                service: MS,
            },
        ];
        // Client-interleaved arrival gives proxy 0 the fifo [t1(c0), t2(c1)]
        // and proxy 1 [t2(c0), t1(c1)]: crossed heads.
        let fcfs = run_service(2, 1, SchedulingPolicy::Fcfs, jobs.clone());
        assert!(fcfs.stuck > 0, "FCFS should wedge: {fcfs:?}");
        let queued = run_service(2, 1, SchedulingPolicy::PerClientQueues, jobs);
        assert_eq!(queued.stuck, 0);
        assert_eq!(queued.completed, 2);
    }

    #[test]
    fn queue_based_beats_fcfs_throughput() {
        // Heads agree (no deadlock), but FCFS still serializes on the single
        // arrival queue while per-client queues exploit all cores.
        let jobs = round_robin_jobs(32, 4, 2, MS);
        let fcfs = run_service(2, 4, SchedulingPolicy::Fcfs, jobs.clone());
        let queued = run_service(2, 4, SchedulingPolicy::PerClientQueues, jobs);
        assert_eq!(queued.stuck, 0);
        if fcfs.stuck == 0 {
            assert!(
                queued.makespan <= fcfs.makespan,
                "queue-based {:?} must not lose to FCFS {:?}",
                queued.makespan,
                fcfs.makespan
            );
        }
    }

    #[test]
    fn deterministic() {
        let jobs = round_robin_jobs(20, 3, 3, MS);
        let a = run_service(3, 2, SchedulingPolicy::PerClientQueues, jobs.clone());
        let b = run_service(3, 2, SchedulingPolicy::PerClientQueues, jobs);
        assert_eq!(a, b);
    }

    #[test]
    fn critpath_blames_sync_and_reaches_makespan() {
        // One core per proxy serializes the collectives: the path is a sync
        // chain covering the whole makespan, with zero-residual stalls.
        let jobs = round_robin_jobs(8, 2, 2, MS);
        let cp = CritPath::new();
        let out = run_service_explained(
            2,
            1,
            SchedulingPolicy::PerClientQueues,
            jobs,
            Some(cp.clone()),
        );
        assert_eq!(out.stuck, 0);
        let ex = cp.analyze();
        assert_eq!(ex.iterations.len(), 1);
        assert_eq!(ex.total, out.makespan);
        assert!(ex.fraction(crit_class::SYNC) > 0.5, "{:?}", ex.blame);
        let sum: f64 = crit_class::ALL.iter().map(|c| ex.fraction(c)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn critpath_recording_does_not_perturb_outcome() {
        let jobs = round_robin_jobs(12, 3, 3, MS);
        let bare = run_service(3, 2, SchedulingPolicy::PerClientQueues, jobs.clone());
        let wired = run_service_explained(
            3,
            2,
            SchedulingPolicy::PerClientQueues,
            jobs,
            Some(CritPath::new()),
        );
        assert_eq!(bare, wired);
    }
}
