//! The recovery harness: goodput accounting under sustained faults.
//!
//! Where [`chaos`](crate::chaos) *searches* for invariant violations under
//! randomized schedules, this module *measures* how well the recovery
//! engine holds training throughput up under a known, reproducible
//! multi-fault schedule. One [`RecoveryReport`] compares three runs of the
//! same scenario:
//!
//! - **baseline** — no faults, no checkpoints: the ideal wall time and the
//!   goodput denominator;
//! - **checkpointed** — no faults, the policy's checkpoint cadence: what
//!   the pool checkpoints cost when nothing goes wrong (the overhead the
//!   paper claims is near-free next to a disk checkpoint);
//! - **faulty** — the [`reference_schedule`] plus the full recovery
//!   engine: MTTR, detection latency, lost iterations, and goodput (the
//!   useful-work fraction `baseline_wall / faulty_wall`).
//!
//! The faulty run carries the full oracle battery plus the two
//! recovery-specific oracles — membership-epoch monotonicity and
//! re-convergence after the last fault clears — and the report embeds any
//! violations. Everything is simulated and seeded, so a report renders to
//! byte-identical JSON on every run ([`RECOVERY_SCHEMA`]).
//!
//! [`interval_sweep`] repeats the measurement across checkpoint intervals,
//! exposing the cost/recovery tradeoff as a matrix: tighter intervals pay
//! more overhead and lose fewer iterations per restore.

use coarse_cci::checkpoint::DiskModel;
use coarse_core::resilience::RecoveryPolicy;
use coarse_simcore::faults::{FaultPlan, FaultSpec};
use coarse_simcore::json::JsonValue;
use coarse_simcore::oracle::{MembershipMonotonicity, OracleHub, Reconvergence};
use coarse_simcore::time::{SimDuration, SimTime};
use coarse_simcore::units::ByteSize;

use crate::chaos::spec_to_json;
use crate::coarse::{result_fingerprint, Prepared, Sabotage};
use crate::config::{TrainError, TrainResult};
use crate::scenario::Scenario;

/// Schema tag of rendered recovery reports.
pub const RECOVERY_SCHEMA: &str = "coarse.recovery-report/v1";

/// Oracle liveness watchdog and re-convergence bound for recovery runs.
/// Detection timeouts, backoff, and restore reads are all far below a
/// simulated minute, so a gap this long is unambiguously a wedge.
const WATCHDOG: SimDuration = SimDuration::from_secs(60);

/// Seed of the reference schedule (the schedule itself is hand-placed; the
/// seed only keys the corruption hash).
const SCHEDULE_SEED: u64 = 0x5EC0_4E4F_5EC0_4E4F;

/// The reference multi-fault schedule for one scenario, scaled to its
/// fault-free horizon so every preset sees the same *shape* of trouble:
///
/// - a transient-corruption window over the first proxy early in the run;
/// - a stall window over the same proxy mid-run;
/// - a hard dropout of the second proxy at ~35% of the horizon;
/// - a second dropout at ~70% when the tier is wide enough to keep two
///   survivors afterwards (restores need a distinct mirror).
///
/// Deterministic: the schedule is a pure function of the scenario.
///
/// # Errors
///
/// Returns a [`TrainError`] if the scenario cannot run fault-free (the
/// horizon comes from that run).
pub fn reference_schedule(scenario: &Scenario) -> Result<FaultPlan, TrainError> {
    let baseline = scenario.clone().faults(FaultPlan::empty()).run()?;
    Ok(schedule_for(scenario, &baseline))
}

/// [`reference_schedule`] scaled to an already-run fault-free `baseline`.
fn schedule_for(scenario: &Scenario, baseline: &TrainResult) -> FaultPlan {
    let span = baseline.iteration_time * u64::from(scenario.iters());
    let t = |f: f64| SimTime::ZERO + SimDuration::from_secs_f64(span.as_secs_f64() * f);
    let part = scenario
        .machine_ref()
        .partition(scenario.partition_scheme());
    let mems: Vec<u32> = part.mem_devices.iter().map(|d| d.index() as u32).collect();
    let mut plan = FaultPlan::new(SCHEDULE_SEED)
        .corrupt_transfers(mems[0], t(0.05), t(0.30), 120_000)
        .stall_device(mems[0], t(0.45), t(0.60), SimDuration::from_micros(200));
    if mems.len() >= 3 {
        plan = plan.drop_device(mems[1], t(0.35));
    }
    if mems.len() >= 4 {
        plan = plan.drop_device(mems[2], t(0.70));
    }
    plan
}

/// The instant a plan's last fault clears: the latest window end or
/// dropout instant ([`SimTime::ZERO`] for an empty plan). After this the
/// re-convergence oracle expects the run to commit an iteration within its
/// bound.
pub fn plan_clear_instant(plan: &FaultPlan) -> SimTime {
    plan.specs()
        .iter()
        .map(|s| match *s {
            FaultSpec::Degrade(d) => d.until,
            FaultSpec::Flap(f) => f.until,
            FaultSpec::Dropout(d) => d.at,
            FaultSpec::Stall(s) => s.until,
            FaultSpec::Transient(t) => t.until,
        })
        .max()
        .unwrap_or(SimTime::ZERO)
}

/// Goodput and overhead accounting of one scenario under the recovery
/// engine. Collected by [`recovery_report`]; renders to byte-deterministic
/// JSON under [`RECOVERY_SCHEMA`].
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Preset the report measures.
    pub preset: String,
    /// Iterations per run.
    pub iterations: u32,
    /// The policy under test.
    pub policy: RecoveryPolicy,
    /// The injected reference schedule.
    pub schedule: FaultPlan,
    /// Parameter-image size (what every checkpoint and restore moves).
    pub image_bytes: ByteSize,
    /// Fault-free, checkpoint-free wall time (goodput denominator).
    pub baseline_wall: SimDuration,
    /// Fault-free wall time under the policy's checkpoint cadence.
    pub checkpointed_wall: SimDuration,
    /// Checkpoints committed by the fault-free cadenced run.
    pub checkpoints: u64,
    /// Time the fault-free cadenced run stalled on checkpoint pushes.
    pub checkpoint_time: SimDuration,
    /// The faulty run's full accounting.
    pub faulty: crate::coarse::RecoveringTrainResult,
    /// Disk-cost baseline model the pool checkpoints are compared to.
    pub disk: DiskModel,
    /// Oracle violations of the faulty run (empty means every invariant
    /// held, including membership monotonicity and re-convergence).
    pub violations: Vec<String>,
}

impl RecoveryReport {
    /// Fraction of wall time the fault-free run spends on checkpoints:
    /// `(checkpointed_wall - baseline_wall) / baseline_wall`.
    pub fn checkpoint_overhead(&self) -> f64 {
        (self.checkpointed_wall.as_secs_f64() - self.baseline_wall.as_secs_f64())
            / self.baseline_wall.as_secs_f64()
    }

    /// Useful-work fraction of the faulty run:
    /// `baseline_wall / faulty_wall`. 1.0 means faults cost nothing.
    pub fn goodput(&self) -> f64 {
        self.baseline_wall.as_secs_f64() / self.faulty.wall.as_secs_f64()
    }

    /// Mean time of one committed pool checkpoint
    /// ([`SimDuration::ZERO`] when the cadence never fired).
    pub fn pool_checkpoint_mean(&self) -> SimDuration {
        if self.checkpoints == 0 {
            SimDuration::ZERO
        } else {
            self.checkpoint_time / self.checkpoints
        }
    }

    /// Time the disk baseline would take per checkpoint of the same image.
    pub fn disk_checkpoint(&self) -> SimDuration {
        self.disk.checkpoint_time(self.image_bytes)
    }

    /// Pool-checkpoint cost as a fraction of the disk baseline's — the
    /// paper's "near-free vs disk" claim wants this well below 1.0.
    pub fn pool_vs_disk(&self) -> f64 {
        self.pool_checkpoint_mean().as_secs_f64() / self.disk_checkpoint().as_secs_f64()
    }

    /// The report as a [`JsonValue`] under [`RECOVERY_SCHEMA`].
    pub fn to_json(&self) -> JsonValue {
        let specs: Vec<JsonValue> = self.schedule.specs().iter().map(spec_to_json).collect();
        let violations: Vec<JsonValue> = self.violations.iter().map(JsonValue::str).collect();
        JsonValue::object()
            .with("schema", JsonValue::str(RECOVERY_SCHEMA))
            .with("mode", JsonValue::str("single"))
            .with("preset", JsonValue::str(&self.preset))
            .with("iterations", JsonValue::int(u64::from(self.iterations)))
            .with("policy", policy_to_json(&self.policy))
            .with(
                "schedule",
                JsonValue::object()
                    .with(
                        "seed",
                        JsonValue::str(format!("{:#018x}", self.schedule.seed())),
                    )
                    .with("faults", JsonValue::Array(specs)),
            )
            .with("image_bytes", JsonValue::int(self.image_bytes.as_u64()))
            .with(
                "baseline",
                JsonValue::object().with("wall_ns", JsonValue::int(self.baseline_wall.as_nanos())),
            )
            .with(
                "checkpointed",
                JsonValue::object()
                    .with("wall_ns", JsonValue::int(self.checkpointed_wall.as_nanos()))
                    .with("checkpoints", JsonValue::int(self.checkpoints))
                    .with(
                        "checkpoint_time_ns",
                        JsonValue::int(self.checkpoint_time.as_nanos()),
                    )
                    .with("overhead", JsonValue::num(self.checkpoint_overhead()))
                    .with(
                        "pool_checkpoint_mean_ns",
                        JsonValue::int(self.pool_checkpoint_mean().as_nanos()),
                    )
                    .with(
                        "disk_checkpoint_ns",
                        JsonValue::int(self.disk_checkpoint().as_nanos()),
                    )
                    .with("pool_vs_disk", JsonValue::num(self.pool_vs_disk())),
            )
            .with("faulty", faulty_to_json(&self.faulty))
            .with("goodput", JsonValue::num(self.goodput()))
            .with("violations", JsonValue::Array(violations))
    }

    /// Renders the report as pretty JSON (the on-disk artifact format).
    pub fn render(&self) -> String {
        self.to_json().render_pretty()
    }
}

fn policy_to_json(p: &RecoveryPolicy) -> JsonValue {
    JsonValue::object()
        .with(
            "checkpoint_interval",
            JsonValue::int(u64::from(p.checkpoint_interval)),
        )
        .with(
            "max_shard_retries",
            JsonValue::int(u64::from(p.max_shard_retries)),
        )
        .with(
            "max_route_waits",
            JsonValue::int(u64::from(p.max_route_waits)),
        )
        .with(
            "detect_timeout_ns",
            JsonValue::int(p.resilience.detect_timeout.as_nanos()),
        )
        .with(
            "base_backoff_ns",
            JsonValue::int(p.resilience.base_backoff.as_nanos()),
        )
        .with(
            "max_backoff_doublings",
            JsonValue::int(u64::from(p.resilience.max_backoff_doublings)),
        )
}

fn faulty_to_json(f: &crate::coarse::RecoveringTrainResult) -> JsonValue {
    JsonValue::object()
        .with("wall_ns", JsonValue::int(f.wall.as_nanos()))
        .with(
            "iteration_ns",
            JsonValue::int(f.result.iteration_time.as_nanos()),
        )
        .with("injected_faults", JsonValue::int(f.injected_faults as u64))
        .with("retries", JsonValue::int(f.retries))
        .with("repairs", JsonValue::int(f.repairs))
        .with("restores", JsonValue::int(f.restores))
        .with("membership_epochs", JsonValue::int(f.membership_epoch))
        .with("checkpoints", JsonValue::int(f.checkpoints))
        .with(
            "checkpoint_time_ns",
            JsonValue::int(f.checkpoint_time.as_nanos()),
        )
        .with("restore_time_ns", JsonValue::int(f.restore_time.as_nanos()))
        .with("restore_bytes", JsonValue::int(f.restore_bytes.as_u64()))
        .with("lost_iterations", JsonValue::int(f.lost_iterations))
        .with(
            "detection_time_ns",
            JsonValue::int(f.detection_time.as_nanos()),
        )
        .with("backoff_time_ns", JsonValue::int(f.backoff_time.as_nanos()))
        .with("mttr_ns", JsonValue::int(f.mttr.as_nanos()))
        .with("degraded_to_gpu", JsonValue::Bool(f.degraded_to_gpu))
}

/// Collects a [`RecoveryReport`] for `preset`: the fault-free baseline,
/// the fault-free checkpoint-cadenced run, and the oracle-observed faulty
/// run under the [`reference_schedule`]. The deployment decision is made
/// once; the schedule's fault-free horizon and all three runs share it.
///
/// # Errors
///
/// Returns a [`TrainError`] if the preset is unknown or a run fails
/// validation.
pub fn recovery_report(
    preset: &str,
    iterations: u32,
    policy: &RecoveryPolicy,
) -> Result<RecoveryReport, TrainError> {
    let base = Scenario::try_preset(preset)?.iterations(iterations);
    let mut prepared = base.prepare_coarse()?;
    let schedule = schedule_for(&base, &prepared.clean(iterations));
    Ok(collect(&base, &mut prepared, schedule, policy))
}

fn collect(
    base: &Scenario,
    prepared: &mut Prepared<'_>,
    schedule: FaultPlan,
    policy: &RecoveryPolicy,
) -> RecoveryReport {
    let free = RecoveryPolicy {
        checkpoint_interval: 0,
        ..*policy
    };
    let iterations = base.iters();
    let baseline = prepared.recovering(iterations, &FaultPlan::empty(), &free);
    let checkpointed = prepared.recovering(iterations, &FaultPlan::empty(), policy);

    let hub = OracleHub::with_builtins(WATCHDOG);
    hub.register(Box::new(MembershipMonotonicity::new()));
    hub.register(Box::new(Reconvergence::new(
        plan_clear_instant(&schedule),
        WATCHDOG,
    )));
    let reference = result_fingerprint(&baseline.result);
    let faulty = prepared.observed(&hub, Sabotage::None, Some(reference), |p| {
        p.recovering(iterations, &schedule, policy)
    });
    let violations = hub.violations().iter().map(|v| v.to_string()).collect();
    RecoveryReport {
        preset: base.name().to_string(),
        iterations,
        policy: *policy,
        schedule,
        image_bytes: base.model_ref().total_bytes(),
        baseline_wall: baseline.wall,
        checkpointed_wall: checkpointed.wall,
        checkpoints: checkpointed.checkpoints,
        checkpoint_time: checkpointed.checkpoint_time,
        faulty,
        disk: DiskModel::default(),
        violations,
    }
}

/// One checkpoint-interval sweep: [`RecoveryReport`]s for the same preset
/// and schedule across `intervals`, exposing the cost/recovery tradeoff.
#[derive(Debug, Clone)]
pub struct RecoverySweep {
    /// Preset the sweep measures.
    pub preset: String,
    /// Iterations per run.
    pub iterations: u32,
    /// One report per swept interval, in input order.
    pub reports: Vec<RecoveryReport>,
}

impl RecoverySweep {
    /// The sweep as a [`JsonValue`] under [`RECOVERY_SCHEMA`]: per-interval
    /// rows of the tradeoff plus the shared schedule.
    pub fn to_json(&self) -> JsonValue {
        let rows: Vec<JsonValue> = self
            .reports
            .iter()
            .map(|r| {
                JsonValue::object()
                    .with(
                        "interval",
                        JsonValue::int(u64::from(r.policy.checkpoint_interval)),
                    )
                    .with("overhead", JsonValue::num(r.checkpoint_overhead()))
                    .with("goodput", JsonValue::num(r.goodput()))
                    .with("lost_iterations", JsonValue::int(r.faulty.lost_iterations))
                    .with("restores", JsonValue::int(r.faulty.restores))
                    .with("mttr_ns", JsonValue::int(r.faulty.mttr.as_nanos()))
                    .with("faulty_wall_ns", JsonValue::int(r.faulty.wall.as_nanos()))
                    .with("violations", JsonValue::int(r.violations.len() as u64))
            })
            .collect();
        let first = &self.reports[0];
        let specs: Vec<JsonValue> = first.schedule.specs().iter().map(spec_to_json).collect();
        JsonValue::object()
            .with("schema", JsonValue::str(RECOVERY_SCHEMA))
            .with("mode", JsonValue::str("interval-sweep"))
            .with("preset", JsonValue::str(&self.preset))
            .with("iterations", JsonValue::int(u64::from(self.iterations)))
            .with(
                "schedule",
                JsonValue::object()
                    .with(
                        "seed",
                        JsonValue::str(format!("{:#018x}", first.schedule.seed())),
                    )
                    .with("faults", JsonValue::Array(specs)),
            )
            .with(
                "baseline_wall_ns",
                JsonValue::int(first.baseline_wall.as_nanos()),
            )
            .with("sweep", JsonValue::Array(rows))
    }

    /// Renders the sweep as pretty JSON.
    pub fn render(&self) -> String {
        self.to_json().render_pretty()
    }
}

/// Sweeps the checkpoint interval for `preset` over `intervals`, holding
/// the schedule and every other policy knob fixed. Every interval runs on
/// one deployment decision.
///
/// # Errors
///
/// Returns a [`TrainError`] if the preset is unknown or a run fails.
///
/// # Panics
///
/// Panics if `intervals` is empty.
pub fn interval_sweep(
    preset: &str,
    iterations: u32,
    intervals: &[u32],
    policy: &RecoveryPolicy,
) -> Result<RecoverySweep, TrainError> {
    assert!(!intervals.is_empty(), "sweep needs at least one interval");
    let base = Scenario::try_preset(preset)?.iterations(iterations);
    let mut prepared = base.prepare_coarse()?;
    let schedule = schedule_for(&base, &prepared.clean(iterations));
    let reports = intervals
        .iter()
        .map(|&interval| {
            let p = RecoveryPolicy {
                checkpoint_interval: interval,
                ..*policy
            };
            collect(&base, &mut prepared, schedule.clone(), &p)
        })
        .collect();
    Ok(RecoverySweep {
        preset: preset.to_string(),
        iterations,
        reports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_schedule_is_deterministic_and_survivable() {
        let s = Scenario::preset("fig16d").iterations(6);
        let a = reference_schedule(&s).unwrap();
        let b = reference_schedule(&s).unwrap();
        assert_eq!(a.specs(), b.specs());
        assert_eq!(a.seed(), b.seed());
        // Two dropouts on the four-proxy tier: two survivors remain.
        let drops = a
            .specs()
            .iter()
            .filter(|sp| matches!(sp, FaultSpec::Dropout(_)))
            .count();
        assert_eq!(drops, 2);
        assert!(plan_clear_instant(&a) > SimTime::ZERO);
    }

    #[test]
    fn report_is_byte_deterministic_and_green() {
        let policy = RecoveryPolicy {
            checkpoint_interval: 2,
            ..RecoveryPolicy::default()
        };
        let a = recovery_report("fig16d", 6, &policy).unwrap();
        let b = recovery_report("fig16d", 6, &policy).unwrap();
        assert_eq!(a.render(), b.render(), "double-run byte determinism");
        assert_eq!(a.violations, Vec::<String>::new(), "oracles stay green");
        assert!(a.faulty.restores >= 1, "the schedule forces a restore");
        assert!(a.goodput() > 0.0 && a.goodput() < 1.0, "{}", a.goodput());
        assert!(a.checkpoint_overhead() > 0.0);
    }

    #[test]
    fn one_prepare_serves_every_run_of_a_report() {
        use crate::coarse::prepare_count;
        let policy = RecoveryPolicy {
            checkpoint_interval: 2,
            ..RecoveryPolicy::default()
        };
        let before = prepare_count::get();
        let r = recovery_report("fig16d", 4, &policy).unwrap();
        assert_eq!(prepare_count::get() - before, 1, "one prepare per report");
        let before = prepare_count::get();
        interval_sweep("fig16d", 4, &[0, 2], &policy).unwrap();
        assert_eq!(prepare_count::get() - before, 1, "one prepare per sweep");
        // Runs on the shared deployment equal freshly prepared ones.
        let base = Scenario::preset("fig16d").iterations(4);
        let free = RecoveryPolicy {
            checkpoint_interval: 0,
            ..policy
        };
        assert_eq!(r.baseline_wall, base.run_recovering(&free).unwrap().wall);
        assert_eq!(
            r.checkpointed_wall,
            base.run_recovering(&policy).unwrap().wall
        );
        assert_eq!(
            r.faulty,
            base.faults(r.schedule.clone())
                .run_recovering(&policy)
                .unwrap()
        );
    }

    #[test]
    fn pool_checkpoints_beat_the_disk_baseline() {
        let policy = RecoveryPolicy {
            checkpoint_interval: 2,
            ..RecoveryPolicy::default()
        };
        let r = recovery_report("fig16d", 6, &policy).unwrap();
        assert!(r.checkpoints >= 1);
        assert!(
            r.pool_vs_disk() < 0.5,
            "pool checkpoints must be far cheaper than disk: {}",
            r.pool_vs_disk()
        );
    }

    #[test]
    fn sweep_exposes_the_interval_tradeoff() {
        let policy = RecoveryPolicy::default();
        let sweep = interval_sweep("fig16d", 6, &[0, 1, 3], &policy).unwrap();
        assert_eq!(sweep.reports.len(), 3);
        let rendered = sweep.render();
        assert_eq!(
            rendered,
            interval_sweep("fig16d", 6, &[0, 1, 3], &policy)
                .unwrap()
                .render(),
            "sweep is byte-deterministic"
        );
        // Interval 0 never checkpoints, so a restore loses every committed
        // iteration; interval 1 checkpoints every iteration and loses none
        // of the committed work a restore rolls over.
        let lost0 = sweep.reports[0].faulty.lost_iterations;
        let lost1 = sweep.reports[1].faulty.lost_iterations;
        assert!(
            lost1 < lost0,
            "tighter interval must lose less work ({lost1} vs {lost0})"
        );
        // And interval 1 pays more overhead than interval 3.
        assert!(
            sweep.reports[1].checkpoint_overhead() > sweep.reports[2].checkpoint_overhead(),
            "tighter interval must cost more"
        );
    }
}
