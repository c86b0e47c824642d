//! Machine-readable run reports.
//!
//! A [`RunReport`] captures one training scenario — machine, partition,
//! model, batch — across all three synchronization schemes, together with
//! the COARSE run's [`MetricsSnapshot`] and the derived figures the paper
//! plots (speedups over DENSE, blocked-communication fractions, GPU
//! utilization). It renders to a versioned, hand-rolled JSON document
//! ([`SCHEMA`]) that is **byte-deterministic**: the same scenario always
//! produces the same bytes, so reports can be diffed in CI.

use coarse_fabric::machines::{Machine, PartitionScheme};
use coarse_models::profile::ModelProfile;
use coarse_simcore::json::JsonValue;
use coarse_simcore::metrics::MetricsSnapshot;
use coarse_simcore::time::SimDuration;

use crate::config::{Scheme, TrainError, TrainResult};
use crate::scenario::Scenario;

/// Schema identifier stamped into every report. Bump the `/vN` suffix on
/// any field addition, removal, or rename so consumers can dispatch.
pub const SCHEMA: &str = "coarse.run-report/v1";

/// Outcome of one scheme within a report: either a steady-state result or
/// an out-of-memory rejection (the scheme's residency does not fit).
#[derive(Debug, Clone, PartialEq)]
pub enum SchemeOutcome {
    /// The run completed; steady-state results.
    Completed(TrainResult),
    /// The batch does not fit under this scheme's residency.
    OutOfMemory {
        /// Largest per-GPU batch that would fit (0 = none).
        max_batch: u32,
    },
}

/// One scheme's entry in a report.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeRun {
    /// The scheme simulated.
    pub scheme: Scheme,
    /// Completed result or OOM.
    pub outcome: SchemeOutcome,
}

impl SchemeRun {
    /// The completed result, if the scheme fit in memory.
    pub fn result(&self) -> Option<&TrainResult> {
        match &self.outcome {
            SchemeOutcome::Completed(r) => Some(r),
            SchemeOutcome::OutOfMemory { .. } => None,
        }
    }
}

/// Resilience accounting from a fault-injected COARSE run: how the run
/// survived its [`coarse_simcore::faults::FaultPlan`]. Only present on
/// reports collected from a scenario with a non-empty plan, so fault-free
/// reports render byte-identically to schema v1 documents.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRunSummary {
    /// Seed of the injected plan.
    pub seed: u64,
    /// Number of scheduled fault entries in the plan.
    pub injected: usize,
    /// Transfer retries forced by transient corruption.
    pub retries: u64,
    /// Proxy failovers (routing-table repairs) performed.
    pub failovers: u64,
    /// Whether the proxy tier was lost entirely and the run fell back to
    /// GPU-only synchronization.
    pub degraded_to_gpu: bool,
    /// Total simulated time charged to detection, backoff, and repair.
    pub recovery_time: SimDuration,
    /// Steady-state result of the fault-injected COARSE run.
    pub coarse: TrainResult,
}

/// A full per-scenario report: config, per-scheme results, COARSE metrics,
/// and derived figures.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Scenario label (e.g. `"fig16d"`).
    pub scenario: String,
    /// Machine name.
    pub machine: String,
    /// Worker / memory-device split.
    pub partition: PartitionScheme,
    /// Model name.
    pub model: String,
    /// Per-GPU batch size.
    pub batch_per_gpu: u32,
    /// Simulated iterations per scheme.
    pub iterations: u32,
    /// One entry per scheme, in `DENSE, AllReduce, COARSE` order.
    pub schemes: Vec<SchemeRun>,
    /// Metric snapshot from the (metered) COARSE run, when it fit.
    pub coarse_metrics: Option<MetricsSnapshot>,
    /// Resilience accounting when the scenario injected faults.
    pub faults: Option<FaultRunSummary>,
}

impl RunReport {
    /// Runs the scenario under all three schemes and collects the report.
    /// OOM schemes are recorded, not skipped, so the report always has
    /// three entries. The COARSE row, when feasible, comes from one metered
    /// run; metering is observation-only, so it equals the unmetered run
    /// exactly.
    pub fn collect(
        scenario: &str,
        machine: &Machine,
        partition: PartitionScheme,
        model: &ModelProfile,
        batch_per_gpu: u32,
        iterations: u32,
    ) -> RunReport {
        RunReport::collect_scenario(
            &Scenario::new(scenario, machine.clone(), model.clone())
                .partition(partition)
                .batch_per_gpu(batch_per_gpu)
                .iterations(iterations),
        )
    }

    /// Collects the report for a built [`Scenario`]. The three scheme
    /// entries are always the *clean* (fault-free) runs — they stay
    /// byte-identical whether or not a plan is attached; a non-empty plan
    /// additionally runs COARSE fault-aware and records the resilience
    /// accounting under [`RunReport::faults`].
    ///
    /// # Panics
    ///
    /// Panics if the scenario fails [`Scenario::validate`]. Use
    /// [`RunReport::try_collect_scenario`] for a recoverable variant.
    pub fn collect_scenario(scenario: &Scenario) -> RunReport {
        RunReport::try_collect_scenario(scenario)
            // simlint: allow(panic-in-library, reason = "documented panicking wrapper; try_collect_scenario is the fallible variant")
            .unwrap_or_else(|e| panic!("invalid scenario: {e}"))
    }

    /// [`RunReport::collect_scenario`] without the panic: an invalid
    /// scenario comes back as the [`TrainError`] describing what is wrong.
    ///
    /// # Errors
    ///
    /// Returns the scenario's first violated precondition.
    pub fn try_collect_scenario(scenario: &Scenario) -> Result<RunReport, TrainError> {
        let machine = scenario.machine_ref();
        let model = scenario.model_ref();
        let partition = scenario.partition_scheme();
        let (batch_per_gpu, iterations) = (scenario.batch(), scenario.iters());
        let clean = Scenario::new(scenario.name(), machine.clone(), model.clone())
            .partition(partition)
            .batch_per_gpu(batch_per_gpu)
            .iterations(iterations);
        // The clean scenario defaults to COARSE — the strictest scheme — so
        // one validation covers all three runs below; any later run error
        // can only be a per-scheme memory rejection.
        clean.validate()?;
        let run = |scheme: Scheme| {
            let outcome = match clean.clone().scheme(scheme).run() {
                Ok(r) => SchemeOutcome::Completed(r),
                Err(TrainError::OutOfMemory { max_batch, .. }) => {
                    SchemeOutcome::OutOfMemory { max_batch }
                }
                // simlint: allow(panic-in-library, reason = "the scenario was validated above; only per-scheme memory errors are reachable and handled")
                Err(e) => unreachable!("scenario was validated: {e}"),
            };
            SchemeRun { scheme, outcome }
        };
        let mut schemes: Vec<SchemeRun> = [Scheme::Dense, Scheme::AllReduce]
            .into_iter()
            .map(run)
            .collect();
        // COARSE decides its deployment once: the metered run is the COARSE
        // row (metering is observation-only, so it equals `run()` exactly)
        // and supplies the metrics; a fault plan then runs on the same
        // deployment with the registry already detached.
        let (coarse, coarse_metrics, faults) = match clean.prepare_coarse() {
            Ok(mut prepared) => {
                let (result, snapshot) = prepared.metered(|p| p.clean(iterations));
                let plan = scenario.fault_plan();
                let faults = (!plan.is_empty()).then(|| {
                    let f = prepared.faulty(iterations, plan, scenario.policy_ref());
                    FaultRunSummary {
                        seed: plan.seed(),
                        injected: plan.len(),
                        retries: f.retries,
                        failovers: f.failovers,
                        degraded_to_gpu: f.degraded_to_gpu,
                        recovery_time: f.recovery_time,
                        coarse: f.result,
                    }
                });
                (SchemeOutcome::Completed(result), Some(snapshot), faults)
            }
            Err(TrainError::OutOfMemory { max_batch, .. }) => {
                (SchemeOutcome::OutOfMemory { max_batch }, None, None)
            }
            Err(e) => return Err(e),
        };
        schemes.push(SchemeRun {
            scheme: Scheme::Coarse,
            outcome: coarse,
        });
        Ok(RunReport {
            scenario: scenario.name().to_string(),
            machine: machine.name().to_string(),
            partition,
            model: model.name().to_string(),
            batch_per_gpu,
            iterations,
            schemes,
            coarse_metrics,
            faults,
        })
    }

    /// The entry for `scheme`.
    pub fn scheme(&self, scheme: Scheme) -> &SchemeRun {
        self.schemes
            .iter()
            .find(|s| s.scheme == scheme)
            // simlint: allow(panic-in-library, reason = "the scheme sweep in try_collect_scenario records all three schemes")
            .expect("all three schemes present")
    }

    /// Renders the report as a [`JsonValue`] under [`SCHEMA`]. Key order is
    /// fixed, so the rendered bytes are deterministic.
    pub fn to_json(&self) -> JsonValue {
        let partition = match self.partition {
            PartitionScheme::OneToOne => "1:1",
            PartitionScheme::TwoToOne => "2:1",
        };
        let config = JsonValue::object()
            .with("machine", JsonValue::str(&self.machine))
            .with("partition", JsonValue::str(partition))
            .with("model", JsonValue::str(&self.model))
            .with("batch_per_gpu", JsonValue::int(self.batch_per_gpu as u64))
            .with("iterations", JsonValue::int(self.iterations as u64));
        let mut schemes = JsonValue::object();
        for s in &self.schemes {
            schemes = schemes.with(s.scheme.label(), scheme_json(&s.outcome));
        }
        let mut report = JsonValue::object()
            .with("schema", JsonValue::str(SCHEMA))
            .with("scenario", JsonValue::str(&self.scenario))
            .with("config", config)
            .with("schemes", schemes)
            .with("derived", self.derived_json());
        if let Some(m) = &self.coarse_metrics {
            report = report.with("coarse_metrics", m.to_json());
        }
        if let Some(f) = &self.faults {
            report = report.with(
                "faults",
                JsonValue::object()
                    .with("seed", JsonValue::int(f.seed))
                    .with("injected", JsonValue::int(f.injected as u64))
                    .with("retries", JsonValue::int(f.retries))
                    .with("failovers", JsonValue::int(f.failovers))
                    .with("degraded_to_gpu", JsonValue::Bool(f.degraded_to_gpu))
                    .with(
                        "recovery_time_ns",
                        JsonValue::int(f.recovery_time.as_nanos()),
                    )
                    .with("coarse", scheme_json(&SchemeOutcome::Completed(f.coarse))),
            );
        }
        report
    }

    /// Pretty-rendered JSON document (stable bytes; ends with a newline).
    pub fn render(&self) -> String {
        let mut s = self.to_json().render_pretty();
        s.push('\n');
        s
    }

    /// Derived figures: per-scheme speedup over DENSE and blocked time
    /// normalized to DENSE (Figs. 16 and 17), where computable.
    fn derived_json(&self) -> JsonValue {
        let dense = self.scheme(Scheme::Dense).result();
        let mut derived = JsonValue::object();
        for scheme in [Scheme::AllReduce, Scheme::Coarse] {
            let (speedup, blocked) = match (dense, self.scheme(scheme).result()) {
                (Some(d), Some(r)) => (
                    JsonValue::num(r.speedup_over(d)),
                    JsonValue::num(r.blocked_comm.as_secs_f64() / d.blocked_comm.as_secs_f64()),
                ),
                _ => (JsonValue::Null, JsonValue::Null),
            };
            derived = derived.with(
                scheme.label(),
                JsonValue::object()
                    .with("speedup_over_dense", speedup)
                    .with("blocked_normalized_to_dense", blocked),
            );
        }
        derived
    }
}

fn scheme_json(outcome: &SchemeOutcome) -> JsonValue {
    match outcome {
        SchemeOutcome::Completed(r) => JsonValue::object()
            .with("fits", JsonValue::Bool(true))
            .with(
                "iteration_time_ns",
                JsonValue::int(r.iteration_time.as_nanos()),
            )
            .with("compute_time_ns", JsonValue::int(r.compute_time.as_nanos()))
            .with("blocked_comm_ns", JsonValue::int(r.blocked_comm.as_nanos()))
            .with("throughput_samples_per_sec", JsonValue::num(r.throughput))
            .with("gpu_utilization", JsonValue::num(r.gpu_utilization()))
            .with("comm_fraction", JsonValue::num(r.comm_fraction())),
        SchemeOutcome::OutOfMemory { max_batch } => JsonValue::object()
            .with("fits", JsonValue::Bool(false))
            .with("max_batch", JsonValue::int(*max_batch as u64)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coarse_fabric::machines::aws_v100;
    use coarse_models::zoo::bert_large;

    fn sample() -> RunReport {
        RunReport::collect(
            "fig16d",
            &aws_v100(),
            PartitionScheme::OneToOne,
            &bert_large(),
            2,
            3,
        )
    }

    #[test]
    fn report_covers_all_schemes_with_metrics() {
        let r = sample();
        assert_eq!(r.schemes.len(), 3);
        assert!(r.schemes.iter().all(|s| s.result().is_some()));
        let metrics = r.coarse_metrics.as_ref().expect("COARSE fits");
        assert!(!metrics.is_empty());
        let json = r.render();
        assert!(json.contains("\"schema\": \"coarse.run-report/v1\""));
        assert!(json.contains("\"COARSE\""));
        assert!(json.contains("speedup_over_dense"));
    }

    #[test]
    fn oom_scheme_recorded_not_skipped() {
        let r = RunReport::collect(
            // simlint: allow(preset-exists, reason = "panel label for a custom Scenario, not a preset lookup")
            "fig16e-b4",
            &aws_v100(),
            PartitionScheme::OneToOne,
            &bert_large(),
            4,
            3,
        );
        let ar = r.scheme(Scheme::AllReduce);
        assert!(matches!(
            ar.outcome,
            SchemeOutcome::OutOfMemory { max_batch: 3 }
        ));
        assert!(r.scheme(Scheme::Coarse).result().is_some());
        let json = r.render();
        assert!(json.contains("\"fits\": false"));
        assert!(json.contains("\"speedup_over_dense\": null"));
    }

    #[test]
    fn fault_scenario_report_carries_faults_key() {
        use coarse_simcore::faults::FaultPlan;
        use coarse_simcore::time::SimTime;
        let m = aws_v100();
        let p = m.partition(PartitionScheme::OneToOne);
        let victim = p.mem_devices[0].index() as u32;
        let plan =
            FaultPlan::new(5).drop_device(victim, SimTime::ZERO + SimDuration::from_millis(1));
        let before = crate::coarse::prepare_count::get();
        let r = Scenario::preset("fig16d").faults(plan).report();
        assert_eq!(
            crate::coarse::prepare_count::get() - before,
            1,
            "the metered row and the faulty run share one deployment"
        );
        let f = r.faults.as_ref().expect("fault summary present");
        assert_eq!(f.failovers, 1);
        assert!(f.recovery_time > SimDuration::ZERO);
        assert!(r.render().contains("\"faults\""));
        // A clean report must not carry the key, and the fault run must
        // leave the clean scheme rows untouched.
        let clean = Scenario::preset("fig16d").report();
        assert!(clean.faults.is_none());
        assert!(!clean.render().contains("\"faults\""));
        assert_eq!(clean.schemes, r.schemes);
    }

    #[test]
    fn coarse_row_is_one_metered_run_equal_to_scenario_run() {
        use crate::coarse::{prepare_count, result_fingerprint};
        for name in Scenario::presets() {
            let s = Scenario::preset(name);
            let before = prepare_count::get();
            let r = s.report();
            assert_eq!(prepare_count::get() - before, 1, "{name}: one prepare");
            let row = r.scheme(Scheme::Coarse).result().expect("COARSE fits");
            let run = s.run().expect("COARSE fits");
            assert_eq!(
                result_fingerprint(row),
                result_fingerprint(&run),
                "{name}: the report's COARSE row must equal Scenario::run bit for bit"
            );
        }
    }

    #[test]
    fn report_json_is_byte_deterministic() {
        let a = sample().render();
        let b = sample().render();
        assert_eq!(a, b, "same scenario must render identical bytes");
        assert!(a.ends_with('\n'));
    }
}
