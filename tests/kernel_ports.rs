//! Golden pin of the §II-B straggler study and the §III-F timed proxy
//! service: the exact results, critical-path blame and deterministic
//! profile sections over a seeded grid of configurations, byte for byte
//! against `tests/goldens/kernel-ports.txt`. The golden was captured when
//! both ran on a discrete-event calendar (less the calendar's own profile
//! members); their loop ports reproduce it unedited.
//!
//! To regenerate after an *intentional* semantic change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test kernel_ports
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use coarse_cci::tensor::TensorId;
use coarse_core::deadlock::SchedulingPolicy;
use coarse_core::service::{
    round_robin_jobs, run_service, run_service_explained, run_service_profiled, ServiceJob,
};
use coarse_simcore::critpath::CritPath;
use coarse_simcore::prof::Profiler;
use coarse_simcore::rng::SimRng;
use coarse_simcore::time::SimDuration;
use coarse_trainsim::straggler::{
    run_straggler, run_straggler_profiled, StragglerConfig, SyncModel,
};

const MS: SimDuration = SimDuration::from_millis(1);
const COMPUTE: SimDuration = SimDuration::from_millis(245);
const TAIL: SimDuration = SimDuration::from_millis(20);

fn straggler_lines(out: &mut String) {
    // Slack 0 gates every worker on the slowest; a slack above the compute
    // time (but within compute + tail) lets workers run fully decoupled.
    let syncs = [
        SyncModel::Barrier {
            sync: SimDuration::from_millis(85),
        },
        SyncModel::Overlapped {
            tail: TAIL,
            slack: SimDuration::ZERO,
        },
        SyncModel::Overlapped {
            tail: TAIL,
            slack: SimDuration::from_millis(260),
        },
    ];
    for workers in [1, 2, 4, 8, 16] {
        for sigma in [0.0, 0.1, 0.2, 0.4] {
            for sync in syncs {
                for iterations in [1, 2, 50] {
                    for seed in [1, 7, 0x00C0_A25E] {
                        let cfg = StragglerConfig {
                            workers,
                            iterations,
                            compute: COMPUTE,
                            jitter_sigma: sigma,
                            sync,
                            seed,
                        };
                        let r = run_straggler(cfg.clone());
                        let p = Profiler::new();
                        assert_eq!(run_straggler_profiled(cfg, Some(p.clone())), r);
                        assert_eq!(
                            p.events_dispatched(),
                            (workers as u64) * u64::from(iterations)
                        );
                        writeln!(
                            out,
                            "straggler w={workers} sigma={sigma} {sync:?} iters={iterations} \
                             seed={seed}: {r:?}"
                        )
                        .unwrap();
                    }
                }
            }
        }
    }
}

/// The Fig. 10 crossed heads: FCFS offers each proxy's head, and the heads
/// belong to different tensors, so nothing ever launches.
fn crossed_heads() -> Vec<ServiceJob> {
    vec![
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
    ]
}

/// Round-robin placement with 1 ms and 2 ms collectives: a 2 ms job and
/// two back-to-back 1 ms jobs finish at the same instant.
fn mixed_ties(proxies: usize) -> Vec<ServiceJob> {
    (0..10u64)
        .map(|t| ServiceJob {
            tensor: TensorId(t),
            contributions: (0..2).map(|c| (c, (t as usize + c) % proxies)).collect(),
            service: MS * (1 + t % 2),
        })
        .collect()
}

/// Random placement of 1–3 clients per tensor and 1–3 ms services.
fn seeded(proxies: usize, seed: u64) -> Vec<ServiceJob> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..14u64)
        .map(|t| {
            let clients = rng.range_inclusive(1, 3) as usize;
            ServiceJob {
                tensor: TensorId(t),
                contributions: (0..clients)
                    .map(|c| (c, rng.next_below(proxies as u64) as usize))
                    .collect(),
                service: MS * rng.range_inclusive(1, 3),
            }
        })
        .collect()
}

fn service_lines(out: &mut String) {
    for proxies in [1, 2, 4] {
        for cores in [1, 2] {
            for policy in [SchedulingPolicy::Fcfs, SchedulingPolicy::PerClientQueues] {
                let mut sets: Vec<(&str, Vec<ServiceJob>)> = vec![
                    ("empty", Vec::new()),
                    ("round-robin", round_robin_jobs(12, 3, proxies, MS)),
                    ("mixed-ties", mixed_ties(proxies)),
                    ("seeded", seeded(proxies, 0x5E41 + proxies as u64)),
                ];
                if proxies >= 2 {
                    sets.push(("crossed-heads", crossed_heads()));
                }
                for (name, jobs) in sets {
                    let outcome = run_service(proxies, cores, policy, jobs.clone());
                    let cp = CritPath::new();
                    let explained = run_service_explained(
                        proxies,
                        cores,
                        policy,
                        jobs.clone(),
                        Some(cp.clone()),
                    );
                    let p = Profiler::new();
                    let profiled =
                        run_service_profiled(proxies, cores, policy, jobs, Some(p.clone()));
                    assert_eq!(explained, outcome);
                    assert_eq!(profiled, outcome);
                    let ex = cp.analyze();
                    writeln!(
                        out,
                        "service proxies={proxies} cores={cores} {policy:?} {name}: {outcome:?}\n  \
                         nodes={} classes={:?}\n  blame {}\n  path {}\n  profile {}",
                        ex.node_count,
                        ex.class_events,
                        ex.blame_json().render(),
                        ex.iterations_json(6).render(),
                        p.deterministic_json().render(),
                    )
                    .unwrap();
                }
            }
        }
    }
}

#[test]
fn straggler_and_service_match_golden() {
    let mut got = String::new();
    straggler_lines(&mut got);
    service_lines(&mut got);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/kernel-ports.txt");
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}; run UPDATE_GOLDENS=1",
            path.display()
        )
    });
    if let Some((line, (g, w))) = got
        .lines()
        .zip(want.lines())
        .enumerate()
        .find(|(_, (g, w))| g != w)
    {
        panic!("kernel-ports.txt line {}: got\n{g}\nwant\n{w}", line + 1);
    }
    assert_eq!(got.len(), want.len(), "kernel-ports.txt length drifted");
}
