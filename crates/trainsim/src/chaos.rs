//! Chaos search: randomized fault schedules, runtime oracles, and shrinking.
//!
//! The chaos runner closes the loop the other fault layers leave open:
//! [`coarse_simcore::faults::FaultPlanGen`] samples randomized fault
//! schedules, each schedule drives one COARSE training run with the full
//! [`coarse_simcore::oracle`] battery armed, and any oracle violation is
//! delta-debugged down to a minimal still-failing plan
//! ([`coarse_simcore::faults::shrink_plan`]) and serialized as a replayable
//! repro document. The whole pipeline is seeded: the same
//! [`SoakConfig`] always explores the same schedules, finds the same
//! failures, and shrinks them to the same minimal repros, byte for byte.
//!
//! Three entry points:
//!
//! - [`run_case`] — one scenario, oracles armed, verdicts back.
//! - [`soak`] — N seeded cases across the Fig. 16 presets; failures come
//!   back shrunk, each carrying a [`ChaosRepro`].
//! - [`replay`] — re-run a serialized repro and return its fresh verdicts.
//!
//! Repros are plain JSON under the [`REPRO_SCHEMA`] schema tag, written by
//! the same zero-dependency [`coarse_simcore::json`] layer as every other
//! artifact in this workspace, and re-parsed by
//! [`Scenario::from_repro`](crate::scenario::Scenario::from_repro).
//! Replays always use [`ResiliencePolicy::default`] — the repro format
//! deliberately does not carry a policy, so a repro is a *fault schedule*,
//! not a full configuration snapshot.

use std::collections::BTreeMap;

use coarse_core::resilience::ResiliencePolicy;
use coarse_simcore::faults::{
    shrink_plan, DeviceDropout, FaultPlan, FaultPlanGen, FaultSpec, FaultUniverse, LinkDegrade,
    LinkFlap, ProxyStall, TransientFaults,
};
use coarse_simcore::json::JsonValue;
use coarse_simcore::oracle::{MembershipMonotonicity, OracleHub, Reconvergence, Violation};
use coarse_simcore::time::{SimDuration, SimTime};

use crate::coarse::{result_fingerprint, FaultyTrainResult, Prepared, Sabotage};
use crate::config::TrainError;
use crate::scenario::Scenario;

/// Schema tag of serialized chaos repros.
pub const REPRO_SCHEMA: &str = "coarse.chaos-repro/v1";

/// The oracle liveness watchdog used for chaos runs. Progress heartbeats
/// arrive once per training iteration (milliseconds of simulated time even
/// under heavy degradation), so a one-minute gap is unambiguously a hang.
const WATCHDOG: SimDuration = SimDuration::from_secs(60);

/// FNV-1a over a byte string; used to derive stable repro file names.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer; derives per-case seeds from `(base_seed, index)`.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The fault surface of one scenario: its memory-device tier (the devices
/// resilience can survive losing) and every fabric link, with windows
/// sampled inside the first 200 simulated milliseconds — early enough to
/// intersect a short run's traffic, late enough that some windows miss it
/// (which is exactly what the clean-run-equivalence oracle wants to see).
pub fn universe_for(scenario: &Scenario) -> FaultUniverse {
    let machine = scenario.machine_ref();
    let part = machine.partition(scenario.partition_scheme());
    let devices: Vec<u32> = part.mem_devices.iter().map(|d| d.index() as u32).collect();
    let mut links: Vec<(u32, u32)> = machine
        .topology()
        .links()
        .map(|l| {
            let (a, b) = (l.src().index() as u32, l.dst().index() as u32);
            (a.min(b), a.max(b))
        })
        .collect();
    links.sort_unstable();
    links.dedup();
    FaultUniverse {
        devices,
        links,
        horizon: SimDuration::from_millis(200),
    }
}

/// Verdicts of one oracle-observed chaos case.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// The faulty run's timing and resilience accounting.
    pub faulty: FaultyTrainResult,
    /// Fingerprint of the fault-free reference run.
    pub reference: u64,
    /// Fingerprint of the faulty run.
    pub fingerprint: u64,
    /// Oracle violations, in registration order. Empty means the run
    /// upheld every invariant.
    pub violations: Vec<Violation>,
}

impl CaseReport {
    /// The violations rendered as stable `[oracle] detail` strings.
    pub fn rendered_violations(&self) -> Vec<String> {
        self.violations.iter().map(|v| v.to_string()).collect()
    }
}

/// Runs one COARSE scenario with the built-in oracle battery armed and
/// returns the verdicts. The deployment decision is made once: a clean run
/// on it yields the clean-run-equivalence reference fingerprint, then the
/// oracle-armed faulty run travels the same deployment.
///
/// # Errors
///
/// Returns a [`TrainError`] if the scenario fails validation or its batch
/// does not fit in memory.
///
/// # Panics
///
/// Panics if the scenario's scheme is not COARSE (chaos targets the proxy
/// tier; the other schemes have no resilience protocol to violate).
pub fn run_case(scenario: &Scenario, sabotage: Sabotage) -> Result<CaseReport, TrainError> {
    let prepared = prepare_case(scenario)?;
    let reference = result_fingerprint(&prepared.clean(scenario.iters()));
    Ok(observe_case(scenario, prepared, sabotage, reference))
}

/// [`run_case`] with a precomputed reference fingerprint, so soak loops can
/// amortize the fault-free run across every case sharing a preset.
fn run_case_with_reference(
    scenario: &Scenario,
    sabotage: Sabotage,
    reference: u64,
) -> Result<CaseReport, TrainError> {
    let prepared = prepare_case(scenario)?;
    Ok(observe_case(scenario, prepared, sabotage, reference))
}

fn prepare_case(scenario: &Scenario) -> Result<Prepared<'_>, TrainError> {
    assert_eq!(
        scenario.scheme_ref(),
        crate::config::Scheme::Coarse,
        "chaos cases exercise the COARSE proxy tier"
    );
    scenario.prepare_coarse()
}

/// The oracle-armed faulty run of one case on its prepared deployment.
fn observe_case(
    scenario: &Scenario,
    mut prepared: Prepared<'_>,
    sabotage: Sabotage,
    reference: u64,
) -> CaseReport {
    let hub = OracleHub::with_builtins(WATCHDOG);
    hub.register(Box::new(MembershipMonotonicity::new()));
    hub.register(Box::new(Reconvergence::new(
        crate::recovery::plan_clear_instant(scenario.fault_plan()),
        WATCHDOG,
    )));
    let faulty = prepared.observed(&hub, sabotage, Some(reference), |p| {
        p.faulty(
            scenario.iters(),
            scenario.fault_plan(),
            scenario.policy_ref(),
        )
    });
    let fingerprint = result_fingerprint(&faulty.result);
    CaseReport {
        faulty,
        reference,
        fingerprint,
        violations: hub.violations(),
    }
}

/// One shrunk, replayable oracle failure found by [`soak`].
#[derive(Debug, Clone)]
pub struct ChaosFailure {
    /// Soak case index the failure was found at.
    pub case: u32,
    /// Violations of the *shrunk* plan (what the repro replays to).
    pub violations: Vec<String>,
    /// Fault events in the originally sampled plan.
    pub original_events: usize,
    /// Fault events after delta-debugging.
    pub shrunk_events: usize,
    /// Candidate plans the shrinker evaluated (each one a full run).
    pub shrink_tested: u32,
    /// The serializable minimal repro.
    pub repro: ChaosRepro,
}

/// Configuration of one seeded chaos soak.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Presets to rotate through, one case at a time.
    pub presets: Vec<String>,
    /// Total cases to run.
    pub cases: u32,
    /// Iterations per case (chaos keeps runs short; ≥ 2).
    pub iterations: u32,
    /// Base seed; case `i` runs the plan sampled from
    /// `mix64(base_seed ^ i)`.
    pub base_seed: u64,
    /// Cap on fault events per sampled plan.
    pub max_events: usize,
    /// Protocol sabotage to arm (test-only; [`Sabotage::None`] for real
    /// hunts).
    pub sabotage: Sabotage,
}

impl Default for SoakConfig {
    fn default() -> SoakConfig {
        SoakConfig {
            presets: Scenario::presets().iter().map(|s| s.to_string()).collect(),
            cases: 500,
            iterations: 2,
            base_seed: 0xC0A5_5EED,
            max_events: 4,
            sabotage: Sabotage::None,
        }
    }
}

/// Outcome of one [`soak`] sweep.
#[derive(Debug, Clone)]
pub struct SoakOutcome {
    /// Cases actually run.
    pub cases: u32,
    /// Cases with no oracle violation.
    pub clean: u32,
    /// Per-preset case counts, sorted by preset name.
    pub per_preset: BTreeMap<String, u32>,
    /// Total shard retries observed across all cases.
    pub retries: u64,
    /// Total proxy failovers observed across all cases.
    pub failovers: u64,
    /// Every oracle failure, shrunk and serialized.
    pub failures: Vec<ChaosFailure>,
}

impl SoakOutcome {
    /// Renders a deterministic text summary: same soak, same bytes.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "chaos soak: {} cases, {} clean, {} failing\n",
            self.cases,
            self.clean,
            self.failures.len()
        ));
        for (preset, n) in &self.per_preset {
            out.push_str(&format!("  {preset}: {n} cases\n"));
        }
        out.push_str(&format!(
            "  resilience exercised: {} retries, {} failovers\n",
            self.retries, self.failovers
        ));
        for f in &self.failures {
            out.push_str(&format!(
                "  FAIL case {} [{}] {} -> {} events ({} shrink runs) -> {}\n",
                f.case,
                f.repro.preset,
                f.original_events,
                f.shrunk_events,
                f.shrink_tested,
                f.repro.file_name()
            ));
            for v in &f.violations {
                out.push_str(&format!("    {v}\n"));
            }
        }
        out
    }
}

/// Runs `cfg.cases` seeded chaos cases, shrinking every oracle failure to a
/// minimal replayable repro. Deterministic end to end: the same config
/// yields the same [`SoakOutcome`], including byte-identical
/// [`SoakOutcome::render_summary`] output.
///
/// # Errors
///
/// Returns a [`TrainError`] if a preset name is unknown or a scenario fails
/// validation (the fault plan itself cannot make a scenario invalid).
pub fn soak(cfg: &SoakConfig) -> Result<SoakOutcome, TrainError> {
    assert!(!cfg.presets.is_empty(), "soak needs at least one preset");
    let mut outcome = SoakOutcome {
        cases: 0,
        clean: 0,
        per_preset: BTreeMap::new(),
        retries: 0,
        failovers: 0,
        failures: Vec::new(),
    };
    // The fault-free reference depends only on (preset, iterations), so it
    // is computed once per preset, not once per case.
    let mut references: BTreeMap<String, u64> = BTreeMap::new();
    let mut generators: BTreeMap<String, FaultPlanGen> = BTreeMap::new();
    for case in 0..cfg.cases {
        let preset = &cfg.presets[case as usize % cfg.presets.len()];
        let base = Scenario::try_preset(preset)?.iterations(cfg.iterations);
        let reference = match references.get(preset) {
            Some(&r) => r,
            None => {
                let r = result_fingerprint(&base.run()?);
                references.insert(preset.clone(), r);
                r
            }
        };
        let gen = generators
            .entry(preset.clone())
            .or_insert_with(|| FaultPlanGen::new(universe_for(&base)).max_events(cfg.max_events));
        let seed = mix64(cfg.base_seed ^ case as u64);
        let plan = gen.sample(seed);
        let scenario = base.clone().faults(plan.clone());
        let report = run_case_with_reference(&scenario, cfg.sabotage, reference)?;
        outcome.cases += 1;
        *outcome.per_preset.entry(preset.clone()).or_insert(0) += 1;
        outcome.retries += report.faulty.retries;
        outcome.failovers += report.faulty.failovers;
        if report.violations.is_empty() {
            outcome.clean += 1;
            continue;
        }
        outcome
            .failures
            .push(shrink_failure(&base, &plan, cfg.sabotage, reference, case));
    }
    Ok(outcome)
}

/// Delta-debugs a failing plan to a minimal still-failing one and packages
/// it as a [`ChaosFailure`]. Every shrink candidate is evaluated by a full
/// oracle-observed run.
fn shrink_failure(
    base: &Scenario,
    plan: &FaultPlan,
    sabotage: Sabotage,
    reference: u64,
    case: u32,
) -> ChaosFailure {
    let fails = |candidate: &FaultPlan| -> bool {
        let scenario = base.clone().faults(candidate.clone());
        match run_case_with_reference(&scenario, sabotage, reference) {
            Ok(report) => !report.violations.is_empty(),
            Err(_) => false,
        }
    };
    let shrunk = shrink_plan(plan, fails);
    let final_scenario = base.clone().faults(shrunk.plan.clone());
    let violations = run_case_with_reference(&final_scenario, sabotage, reference)
        .map(|r| r.rendered_violations())
        .unwrap_or_default();
    ChaosFailure {
        case,
        violations: violations.clone(),
        original_events: shrunk.original_events,
        shrunk_events: shrunk.shrunk_events,
        shrink_tested: shrunk.tested,
        repro: ChaosRepro {
            preset: base.name().to_string(),
            iterations: base.iters(),
            batch_per_gpu: base.batch(),
            plan: shrunk.plan,
            sabotage,
            violations,
        },
    }
}

/// Parses a serialized repro and re-runs it with oracles armed.
///
/// # Errors
///
/// Returns [`TrainError::BadRepro`] on a malformed document, or any
/// validation error of the reconstructed scenario.
pub fn replay(input: &str) -> Result<CaseReport, TrainError> {
    let repro = ChaosRepro::parse(input)?;
    let sabotage = repro.sabotage;
    run_case(&repro.scenario()?, sabotage)
}

/// A serialized minimal failure: preset, run shape, the shrunk fault plan,
/// the sabotage armed when it was found, and the violations it replays to.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosRepro {
    /// Fig. 16 preset the failure was found on.
    pub preset: String,
    /// Iterations of the failing run.
    pub iterations: u32,
    /// Per-GPU batch of the failing run.
    pub batch_per_gpu: u32,
    /// The minimal still-failing plan.
    pub plan: FaultPlan,
    /// Sabotage armed when the failure was found.
    pub sabotage: Sabotage,
    /// Violations the plan replays to (informational; replays recompute).
    pub violations: Vec<String>,
}

impl ChaosRepro {
    /// The repro as a [`JsonValue`] under [`REPRO_SCHEMA`].
    pub fn to_json(&self) -> JsonValue {
        let specs: Vec<JsonValue> = self.plan.specs().iter().map(spec_to_json).collect();
        let violations: Vec<JsonValue> = self.violations.iter().map(JsonValue::str).collect();
        JsonValue::object()
            .with("schema", JsonValue::str(REPRO_SCHEMA))
            .with("preset", JsonValue::str(&self.preset))
            .with("iterations", JsonValue::int(self.iterations as u64))
            .with("batch_per_gpu", JsonValue::int(self.batch_per_gpu as u64))
            // Seeds are full u64s; JSON numbers are f64-backed, so hex
            // strings keep them exact.
            .with(
                "seed",
                JsonValue::str(format!("{:#018x}", self.plan.seed())),
            )
            .with("sabotage", JsonValue::str(sabotage_label(self.sabotage)))
            .with("faults", JsonValue::Array(specs))
            .with("violations", JsonValue::Array(violations))
    }

    /// Renders the repro as pretty JSON (the on-disk artifact format).
    pub fn render(&self) -> String {
        self.to_json().render_pretty()
    }

    /// The stable artifact file name: `chaos-repro-<hash>.json`, hashed
    /// over the rendered bytes.
    pub fn file_name(&self) -> String {
        format!("chaos-repro-{:016x}.json", fnv1a(self.render().as_bytes()))
    }

    /// Parses a repro document.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::BadRepro`] describing the first problem found.
    pub fn parse(input: &str) -> Result<ChaosRepro, TrainError> {
        let bad = |reason: String| TrainError::BadRepro { reason };
        let doc = JsonValue::parse(input).map_err(|e| bad(e.to_string()))?;
        let schema = doc
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| bad("missing schema".to_string()))?;
        if schema != REPRO_SCHEMA {
            return Err(bad(format!("schema {schema:?}, expected {REPRO_SCHEMA:?}")));
        }
        let preset = doc
            .get("preset")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| bad("missing preset".to_string()))?
            .to_string();
        let u32_field = |key: &str| -> Result<u32, TrainError> {
            doc.get(key)
                .and_then(JsonValue::as_u64)
                .and_then(|v| u32::try_from(v).ok())
                .ok_or_else(|| bad(format!("missing or non-u32 {key:?}")))
        };
        let iterations = u32_field("iterations")?;
        let batch_per_gpu = u32_field("batch_per_gpu")?;
        let seed_text = doc
            .get("seed")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| bad("missing seed".to_string()))?;
        let seed = seed_text
            .strip_prefix("0x")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| bad(format!("seed {seed_text:?} is not 0x-prefixed hex")))?;
        let sabotage = match doc.get("sabotage").and_then(JsonValue::as_str) {
            Some("none") => Sabotage::None,
            Some("invert-retry-order") => Sabotage::InvertRetryOrder,
            Some(other) => return Err(bad(format!("unknown sabotage {other:?}"))),
            None => return Err(bad("missing sabotage".to_string())),
        };
        let fault_items = doc
            .get("faults")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| bad("missing faults array".to_string()))?;
        let mut specs = Vec::with_capacity(fault_items.len());
        for (i, item) in fault_items.iter().enumerate() {
            specs.push(
                spec_from_json(item).map_err(|reason| bad(format!("faults[{i}]: {reason}")))?,
            );
        }
        let violations = doc
            .get("violations")
            .and_then(JsonValue::as_array)
            .map(|items| {
                items
                    .iter()
                    .filter_map(JsonValue::as_str)
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default();
        Ok(ChaosRepro {
            preset,
            iterations,
            batch_per_gpu,
            plan: FaultPlan::from_specs(seed, &specs),
            sabotage,
            violations,
        })
    }

    /// Reconstructs the runnable scenario: preset, run shape, and the
    /// shrunk plan, under [`ResiliencePolicy::default`].
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::UnknownPreset`] if the preset no longer
    /// exists.
    pub fn scenario(&self) -> Result<Scenario, TrainError> {
        Ok(Scenario::try_preset(&self.preset)?
            .iterations(self.iterations)
            .batch_per_gpu(self.batch_per_gpu)
            .faults(self.plan.clone())
            .resilience(ResiliencePolicy::default()))
    }
}

fn sabotage_label(s: Sabotage) -> &'static str {
    match s {
        Sabotage::None => "none",
        Sabotage::InvertRetryOrder => "invert-retry-order",
    }
}

pub(crate) fn spec_to_json(spec: &FaultSpec) -> JsonValue {
    match *spec {
        FaultSpec::Degrade(d) => JsonValue::object()
            .with("kind", JsonValue::str("degrade"))
            .with("a", JsonValue::int(d.a as u64))
            .with("b", JsonValue::int(d.b as u64))
            .with("from_ns", JsonValue::int(d.from.as_nanos()))
            .with("until_ns", JsonValue::int(d.until.as_nanos()))
            .with("factor", JsonValue::num(d.factor)),
        FaultSpec::Flap(f) => JsonValue::object()
            .with("kind", JsonValue::str("flap"))
            .with("a", JsonValue::int(f.a as u64))
            .with("b", JsonValue::int(f.b as u64))
            .with("from_ns", JsonValue::int(f.from.as_nanos()))
            .with("until_ns", JsonValue::int(f.until.as_nanos())),
        FaultSpec::Dropout(d) => JsonValue::object()
            .with("kind", JsonValue::str("dropout"))
            .with("device", JsonValue::int(d.device as u64))
            .with("at_ns", JsonValue::int(d.at.as_nanos())),
        FaultSpec::Stall(s) => JsonValue::object()
            .with("kind", JsonValue::str("stall"))
            .with("device", JsonValue::int(s.device as u64))
            .with("from_ns", JsonValue::int(s.from.as_nanos()))
            .with("until_ns", JsonValue::int(s.until.as_nanos()))
            .with("extra_ns", JsonValue::int(s.extra.as_nanos())),
        FaultSpec::Transient(t) => JsonValue::object()
            .with("kind", JsonValue::str("transient"))
            .with("device", JsonValue::int(t.device as u64))
            .with("from_ns", JsonValue::int(t.from.as_nanos()))
            .with("until_ns", JsonValue::int(t.until.as_nanos()))
            .with("rate_ppm", JsonValue::int(t.rate_ppm as u64)),
    }
}

/// Parses one fault spec, validating everything `FaultPlan::from_specs`
/// would otherwise `assert!` on, so malformed documents surface as errors
/// rather than panics.
fn spec_from_json(v: &JsonValue) -> Result<FaultSpec, String> {
    let node = |key: &str| -> Result<u32, String> {
        v.get(key)
            .and_then(JsonValue::as_u64)
            .and_then(|x| u32::try_from(x).ok())
            .ok_or_else(|| format!("missing or non-u32 {key:?}"))
    };
    let time = |key: &str| -> Result<SimTime, String> {
        v.get(key)
            .and_then(JsonValue::as_u64)
            .map(SimTime::from_nanos)
            .ok_or_else(|| format!("missing or non-integer {key:?}"))
    };
    let window = || -> Result<(SimTime, SimTime), String> {
        let (from, until) = (time("from_ns")?, time("until_ns")?);
        if from >= until {
            return Err(format!(
                "empty window [{}, {})",
                from.as_nanos(),
                until.as_nanos()
            ));
        }
        Ok((from, until))
    };
    match v.get("kind").and_then(JsonValue::as_str) {
        Some("degrade") => {
            let (from, until) = window()?;
            let factor = v
                .get("factor")
                .and_then(JsonValue::as_f64)
                .ok_or("missing factor")?;
            if factor < 1.0 {
                return Err(format!("degrade factor {factor} < 1.0"));
            }
            Ok(FaultSpec::Degrade(LinkDegrade {
                a: node("a")?,
                b: node("b")?,
                from,
                until,
                factor,
            }))
        }
        Some("flap") => {
            let (from, until) = window()?;
            Ok(FaultSpec::Flap(LinkFlap {
                a: node("a")?,
                b: node("b")?,
                from,
                until,
            }))
        }
        Some("dropout") => Ok(FaultSpec::Dropout(DeviceDropout {
            device: node("device")?,
            at: time("at_ns")?,
        })),
        Some("stall") => {
            let (from, until) = window()?;
            let extra = v
                .get("extra_ns")
                .and_then(JsonValue::as_u64)
                .map(SimDuration::from_nanos)
                .ok_or("missing extra_ns")?;
            Ok(FaultSpec::Stall(ProxyStall {
                device: node("device")?,
                from,
                until,
                extra,
            }))
        }
        Some("transient") => {
            let (from, until) = window()?;
            let rate = v
                .get("rate_ppm")
                .and_then(JsonValue::as_u64)
                .ok_or("missing rate_ppm")?;
            if rate > 1_000_000 {
                return Err(format!("rate_ppm {rate} > 1000000"));
            }
            Ok(FaultSpec::Transient(TransientFaults {
                device: node("device")?,
                from,
                until,
                rate_ppm: rate as u32,
            }))
        }
        Some(other) => Err(format!("unknown fault kind {other:?}")),
        None => Err("missing fault kind".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn sample_repro() -> ChaosRepro {
        let plan = FaultPlan::new(0xDEAD_BEEF_DEAD_BEEF)
            .degrade_link(0, 4, t(1), t(20), 3.25)
            .flap_link(1, 5, t(2), t(10))
            .drop_device(6, t(5))
            .stall_device(7, t(3), t(9), SimDuration::from_micros(50))
            .corrupt_transfers(5, t(0), t(30), 200_000);
        ChaosRepro {
            preset: "fig16d".to_string(),
            iterations: 2,
            batch_per_gpu: 2,
            plan,
            sabotage: Sabotage::InvertRetryOrder,
            violations: vec!["[retry-fifo] example".to_string()],
        }
    }

    #[test]
    fn repro_round_trips_byte_for_byte() {
        let repro = sample_repro();
        let rendered = repro.render();
        let parsed = ChaosRepro::parse(&rendered).expect("own output parses");
        assert_eq!(parsed, repro);
        assert_eq!(parsed.render(), rendered, "render→parse→render is stable");
        assert_eq!(parsed.file_name(), repro.file_name());
        assert!(repro.file_name().starts_with("chaos-repro-"));
        assert!(repro.file_name().ends_with(".json"));
    }

    #[test]
    fn repro_preserves_full_u64_seeds() {
        let mut repro = sample_repro();
        // Larger than 2^53: would silently lose precision as a JSON number.
        repro.plan = FaultPlan::new(u64::MAX - 12345).drop_device(4, t(1));
        let parsed = ChaosRepro::parse(&repro.render()).unwrap();
        assert_eq!(parsed.plan.seed(), u64::MAX - 12345);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        let cases: Vec<(String, &str)> = vec![
            ("not json".to_string(), "unparseable"),
            ("{}".to_string(), "no schema"),
            (
                sample_repro().render().replace(REPRO_SCHEMA, "other/v9"),
                "wrong schema",
            ),
            (
                sample_repro().render().replace("invert-retry-order", "xyz"),
                "unknown sabotage",
            ),
            (
                sample_repro().render().replace("\"degrade\"", "\"melt\""),
                "unknown fault kind",
            ),
            (
                sample_repro()
                    .render()
                    .replace("\"factor\": 3.25", "\"factor\": 0.5"),
                "factor below 1.0",
            ),
        ];
        for (doc, why) in cases {
            let err = ChaosRepro::parse(&doc);
            assert!(
                matches!(err, Err(TrainError::BadRepro { .. })),
                "{why}: expected BadRepro, got {err:?}"
            );
        }
    }

    /// Seeded adversarial repros: truncations and bit flips of a valid
    /// document parse to a repro or a typed `BadRepro`, and replaying one
    /// that parses returns a report or a typed error; neither panics.
    #[test]
    fn parse_and_replay_survive_truncation_and_bit_flips() {
        use coarse_simcore::check::run_cases;
        // Compact, so fewer flips land in whitespace.
        let rendered = sample_repro().to_json().render().into_bytes();
        let mut replayed = 0;
        run_cases("repro_truncation_and_bit_flips", 192, |g| {
            let mut doc = rendered.clone();
            if g.bool() {
                doc.truncate(g.usize_in(0..doc.len() + 1));
            } else {
                for _ in 0..g.usize_in(1..3) {
                    let bit = g.usize_in(0..doc.len() * 8);
                    doc[bit / 8] ^= 1 << (bit % 8);
                }
            }
            let doc = String::from_utf8_lossy(&doc);
            match ChaosRepro::parse(&doc) {
                Ok(_) => {
                    replayed += 1;
                    let _report_or_typed_error = replay(&doc);
                }
                Err(e) => assert!(matches!(e, TrainError::BadRepro { .. }), "got {e:?}"),
            }
        });
        assert!(replayed > 0, "some mutants parse and replay");
    }

    #[test]
    fn parse_rejects_empty_windows_instead_of_panicking() {
        // from == until would trip FaultPlan's assert; the parser must turn
        // it into a typed error first. The degrade window is [1ms, 20ms).
        let rendered = sample_repro().render();
        assert!(rendered.contains("\"until_ns\": 20000000"), "{rendered}");
        let doc = rendered.replace("\"until_ns\": 20000000", "\"until_ns\": 1000000");
        let err = ChaosRepro::parse(&doc).unwrap_err();
        assert!(matches!(err, TrainError::BadRepro { .. }), "got {err:?}");
    }

    #[test]
    fn scenario_reconstruction_carries_the_plan() {
        let repro = sample_repro();
        let s = repro.scenario().expect("fig16d exists");
        assert_eq!(s.fault_plan(), &repro.plan);
        assert_eq!(s.name(), "fig16d");
    }

    #[test]
    fn universe_covers_the_proxy_tier() {
        let s = Scenario::preset("fig16d");
        let u = universe_for(&s);
        let part = s.machine_ref().partition(s.partition_scheme());
        assert_eq!(u.devices.len(), part.mem_devices.len());
        assert!(!u.links.is_empty());
        assert!(u.links.iter().all(|&(a, b)| a < b), "links normalized");
        assert!(u.horizon > SimDuration::ZERO);
        // The generator accepts it directly.
        let plan = FaultPlanGen::new(u).sample(7);
        assert!(!plan.is_empty());
    }

    #[test]
    fn run_case_prepares_once_and_references_the_clean_run() {
        use crate::coarse::prepare_count;
        for name in Scenario::presets() {
            let base = Scenario::preset(name).iterations(2);
            let plan = FaultPlanGen::new(universe_for(&base))
                .max_events(4)
                .sample(7);
            let before = prepare_count::get();
            let case = run_case(&base.clone().faults(plan), Sabotage::None).expect("fits");
            assert_eq!(prepare_count::get() - before, 1, "{name}: one prepare");
            assert_eq!(
                case.reference,
                result_fingerprint(&base.run().expect("fits")),
                "{name}: the reference must be the clean run's fingerprint"
            );
            assert!(case.violations.is_empty(), "{name}: {:?}", case.violations);
        }
    }

    #[test]
    fn case_seeds_are_spread() {
        let base = 1u64;
        let a = mix64(base);
        let b = mix64(base ^ 1);
        assert_ne!(a, b);
        assert_ne!(a & 0xFFFF_FFFF, b & 0xFFFF_FFFF, "low bits differ too");
    }
}
