//! The unified scenario builder: the single front door to the simulator.
//!
//! A [`Scenario`] bundles everything one training run needs — machine,
//! partition, model, batch, scheme, and (optionally) a deterministic
//! [`FaultPlan`] with its [`ResiliencePolicy`] — behind a chained builder:
//!
//! ```
//! use coarse_trainsim::scenario::Scenario;
//!
//! let result = Scenario::preset("fig16d").iterations(3).run().unwrap();
//! assert!(result.iteration_time.as_nanos() > 0);
//! ```
//!
//! Presets mirror the paper's Fig. 16 panels; every knob can be overridden
//! after `preset`. Fault-injected runs flow through the same entry point:
//! attach a plan with [`Scenario::faults`] and either [`Scenario::run`]
//! (timing only) or [`Scenario::run_faulty`] (timing plus resilience
//! accounting) — an **empty plan is guaranteed byte-identical** to the
//! fault-free path.

use coarse_core::resilience::{RecoveryPolicy, ResiliencePolicy};
use coarse_fabric::device::DeviceId;
use coarse_fabric::machines::{aws_t4, aws_v100, sdsc_p100, Machine, PartitionScheme};
use coarse_models::memory::{MemoryModel, Residency};
use coarse_models::profile::ModelProfile;
use coarse_models::zoo::{bert_base, bert_large, resnet50};
use coarse_simcore::faults::FaultPlan;

use crate::allreduce::simulate_allreduce;
use crate::coarse::{prepare, FaultyTrainResult, Prepared, RecoveringTrainResult};
use crate::config::{Scheme, TrainError, TrainResult};
use crate::dense::simulate_dense_faulty;
use crate::report::RunReport;

/// Builder for one training run: machine, model, scheme, and faults in a
/// single chain ending in [`Scenario::run`].
#[derive(Debug, Clone)]
pub struct Scenario {
    name: String,
    machine: Machine,
    partition: PartitionScheme,
    model: ModelProfile,
    batch_per_gpu: u32,
    iterations: u32,
    scheme: Scheme,
    faults: FaultPlan,
    policy: ResiliencePolicy,
}

impl Scenario {
    /// A scenario from scratch. Defaults: 1:1 partition, batch 2 per GPU,
    /// 3 iterations, COARSE scheme, no faults.
    pub fn new(name: &str, machine: Machine, model: ModelProfile) -> Scenario {
        Scenario {
            name: name.to_string(),
            machine,
            partition: PartitionScheme::OneToOne,
            model,
            batch_per_gpu: 2,
            iterations: 3,
            scheme: Scheme::Coarse,
            faults: FaultPlan::empty(),
            policy: ResiliencePolicy::default(),
        }
    }

    /// One of the paper's named Fig. 16 panels (see [`Scenario::presets`]).
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a known preset. Use [`Scenario::try_preset`]
    /// for a recoverable variant.
    pub fn preset(name: &str) -> Scenario {
        Scenario::try_preset(name).unwrap_or_else(|_| {
            // simlint: allow(panic-in-library, reason = "documented panicking wrapper; try_preset is the fallible variant")
            panic!(
                "unknown scenario preset {name:?}; known presets: {}",
                Scenario::presets().join(", ")
            )
        })
    }

    /// [`Scenario::preset`] without the panic: unknown names come back as
    /// [`TrainError::UnknownPreset`].
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::UnknownPreset`] if `name` is not a known
    /// preset.
    pub fn try_preset(name: &str) -> Result<Scenario, TrainError> {
        Ok(match name {
            "fig16a" => Scenario::new(name, aws_t4(), resnet50()).batch_per_gpu(64),
            "fig16b" => Scenario::new(name, aws_t4(), bert_base()),
            "fig16c" => Scenario::new(name, sdsc_p100(), bert_large()),
            "fig16d" => Scenario::new(name, aws_v100(), bert_large()),
            "fig16d-2to1" => {
                Scenario::new(name, aws_v100(), bert_large()).partition(PartitionScheme::TwoToOne)
            }
            other => {
                return Err(TrainError::UnknownPreset {
                    name: other.to_string(),
                })
            }
        })
    }

    /// Names accepted by [`Scenario::preset`].
    pub fn presets() -> Vec<&'static str> {
        vec!["fig16a", "fig16b", "fig16c", "fig16d", "fig16d-2to1"]
    }

    /// Replaces the machine.
    pub fn machine(mut self, machine: Machine) -> Scenario {
        self.machine = machine;
        self
    }

    /// Replaces the model.
    pub fn model(mut self, model: ModelProfile) -> Scenario {
        self.model = model;
        self
    }

    /// Sets the worker / memory-device split.
    pub fn partition(mut self, partition: PartitionScheme) -> Scenario {
        self.partition = partition;
        self
    }

    /// Sets the per-GPU batch size.
    pub fn batch_per_gpu(mut self, batch: u32) -> Scenario {
        self.batch_per_gpu = batch;
        self
    }

    /// Sets the number of simulated iterations.
    pub fn iterations(mut self, iterations: u32) -> Scenario {
        self.iterations = iterations;
        self
    }

    /// Sets the synchronization scheme (default COARSE).
    pub fn scheme(mut self, scheme: Scheme) -> Scenario {
        self.scheme = scheme;
        self
    }

    /// Attaches a deterministic fault plan. An empty plan is byte-identical
    /// to never calling this.
    pub fn faults(mut self, plan: FaultPlan) -> Scenario {
        self.faults = plan;
        self
    }

    /// Overrides the resilience policy (retry backoff, failure-detection
    /// timeout) used when a fault plan is attached.
    pub fn resilience(mut self, policy: ResiliencePolicy) -> Scenario {
        self.policy = policy;
        self
    }

    /// The scenario label.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The attached fault plan (empty when none was set).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// Validates the scenario's shape before running it: a non-empty model,
    /// a sane batch and iteration count, and a partition with workers (and,
    /// for COARSE, a proxy tier and a fault plan that drops no worker GPU).
    /// The simulators `assert!` the same invariants; this surfaces them as
    /// typed errors instead of panics.
    ///
    /// # Errors
    ///
    /// Returns the first violated precondition as a [`TrainError`].
    pub fn validate(&self) -> Result<(), TrainError> {
        if self.batch_per_gpu == 0 {
            return Err(TrainError::ZeroBatch);
        }
        if self.iterations < 2 {
            return Err(TrainError::TooFewIterations {
                iterations: self.iterations,
            });
        }
        if self.model.total_bytes().is_zero() {
            return Err(TrainError::EmptyModel);
        }
        let part = self.machine.partition(self.partition);
        if part.workers.is_empty() {
            return Err(TrainError::NoWorkers);
        }
        if self.scheme == Scheme::Coarse {
            if part.mem_devices.len() < 2 {
                return Err(TrainError::NoProxyTier {
                    mem_devices: part.mem_devices.len(),
                });
            }
            self.check_worker_dropouts(&part.workers)?;
        }
        Ok(())
    }

    /// Rejects a fault plan that drops one of `workers`: COARSE fails over
    /// only within the proxy tier.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::WorkerDropout`] naming the first such worker.
    pub(crate) fn check_worker_dropouts(&self, workers: &[DeviceId]) -> Result<(), TrainError> {
        match workers
            .iter()
            .find(|w| self.faults.dropout_at(w.index() as u32).is_some())
        {
            Some(&device) => Err(TrainError::WorkerDropout { device }),
            None => Ok(()),
        }
    }

    /// Checks GPU-memory feasibility for the configured scheme: AllReduce
    /// and DENSE keep parameters and optimizer state on the GPU; COARSE
    /// offloads them to the memory devices (§V-D, Fig. 16e).
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::OutOfMemory`] if the batch does not fit.
    pub fn check_memory(&self) -> Result<(), TrainError> {
        let residency = match self.scheme {
            Scheme::Coarse => Residency::OffloadedToCci,
            Scheme::Dense | Scheme::AllReduce => Residency::AllOnGpu,
        };
        let mm = MemoryModel::new(&self.model, self.machine.sku().memory_gib());
        if !mm.fits(self.batch_per_gpu, residency) {
            return Err(TrainError::OutOfMemory {
                batch: self.batch_per_gpu,
                max_batch: mm.max_batch(residency),
            });
        }
        Ok(())
    }

    /// Runs the scenario and returns the steady-state result. With a fault
    /// plan attached, COARSE and DENSE run fault-aware (AllReduce has no
    /// fault path: its collective never touches the proxy tier, so the plan
    /// is ignored).
    ///
    /// # Errors
    ///
    /// Returns a [`TrainError`] if validation fails or the batch does not
    /// fit.
    pub fn run(&self) -> Result<TrainResult, TrainError> {
        self.validate()?;
        self.check_memory()?;
        let part = self.machine.partition(self.partition);
        Ok(match self.scheme {
            Scheme::Dense => simulate_dense_faulty(
                &self.machine,
                &part,
                &self.model,
                self.batch_per_gpu,
                self.iterations,
                &self.faults,
                &self.policy,
            ),
            Scheme::AllReduce => simulate_allreduce(
                &self.machine,
                &part,
                &self.model,
                self.batch_per_gpu,
                self.iterations,
            ),
            Scheme::Coarse => {
                prepare(&self.machine, &part, &self.model, self.batch_per_gpu)
                    .faulty(self.iterations, &self.faults, &self.policy)
                    .result
            }
        })
    }

    /// Runs COARSE fault-aware and returns the full resilience accounting
    /// (retries, failovers, recovery time) alongside the timing result.
    /// Works with an empty plan too — the result is then byte-identical to
    /// [`Scenario::run`] with zeroed accounting.
    ///
    /// # Errors
    ///
    /// Returns a [`TrainError`] if validation fails or the batch does not
    /// fit.
    ///
    /// # Panics
    ///
    /// Panics if the scheme is not [`Scheme::Coarse`].
    pub fn run_faulty(&self) -> Result<FaultyTrainResult, TrainError> {
        assert_eq!(
            self.scheme,
            Scheme::Coarse,
            "run_faulty reports proxy-tier resilience; only COARSE has one"
        );
        Ok(self
            .prepare_coarse()?
            .faulty(self.iterations, &self.faults, &self.policy))
    }

    /// Runs COARSE under the full recovery engine — elastic membership
    /// repair, pool checkpoints as real traffic, restore-from-checkpoint on
    /// hard failures — and returns the goodput accounting. The scenario's
    /// fault plan drives the failures; `policy` sets the checkpoint
    /// interval and escalation budgets (its embedded resilience settings
    /// override the scenario's).
    ///
    /// # Errors
    ///
    /// Returns a [`TrainError`] if validation fails or the batch does not
    /// fit.
    ///
    /// # Panics
    ///
    /// Panics if the scheme is not [`Scheme::Coarse`].
    pub fn run_recovering(
        &self,
        policy: &RecoveryPolicy,
    ) -> Result<RecoveringTrainResult, TrainError> {
        assert_eq!(
            self.scheme,
            Scheme::Coarse,
            "run_recovering restores the proxy pool; only COARSE has one"
        );
        Ok(self
            .prepare_coarse()?
            .recovering(self.iterations, &self.faults, policy))
    }

    /// Validates the scenario, checks its memory feasibility, and makes the
    /// COARSE deployment decision once. Harnesses that need several runs of
    /// the same scenario (a clean reference next to an observed run) run
    /// them all on the returned handle.
    ///
    /// # Errors
    ///
    /// Returns a [`TrainError`] if validation fails (a plan that drops a
    /// worker GPU is [`TrainError::WorkerDropout`]) or the batch does not
    /// fit.
    pub(crate) fn prepare_coarse(&self) -> Result<Prepared<'_>, TrainError> {
        self.validate()?;
        self.check_memory()?;
        let part = self.machine.partition(self.partition);
        Ok(prepare(
            &self.machine,
            &part,
            &self.model,
            self.batch_per_gpu,
        ))
    }

    /// Collects the full three-scheme [`RunReport`] for this scenario.
    /// With a fault plan attached the report additionally carries the
    /// fault-injected COARSE run's resilience accounting.
    pub fn report(&self) -> RunReport {
        RunReport::collect_scenario(self)
    }

    pub(crate) fn machine_ref(&self) -> &Machine {
        &self.machine
    }

    pub(crate) fn model_ref(&self) -> &ModelProfile {
        &self.model
    }

    pub(crate) fn partition_scheme(&self) -> PartitionScheme {
        self.partition
    }

    pub(crate) fn batch(&self) -> u32 {
        self.batch_per_gpu
    }

    pub(crate) fn iters(&self) -> u32 {
        self.iterations
    }

    pub(crate) fn policy_ref(&self) -> &ResiliencePolicy {
        &self.policy
    }

    pub(crate) fn scheme_ref(&self) -> Scheme {
        self.scheme
    }

    /// Reconstructs a scenario from a serialized chaos repro (see
    /// [`crate::chaos::ChaosRepro`]): the named preset with the repro's run
    /// shape and minimal fault plan attached, ready for
    /// [`Scenario::run_faulty`] or [`crate::chaos::replay`].
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::BadRepro`] on a malformed document, or
    /// [`TrainError::UnknownPreset`] if the repro names a preset that no
    /// longer exists.
    pub fn from_repro(input: &str) -> Result<Scenario, TrainError> {
        crate::chaos::ChaosRepro::parse(input)?.scenario()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coarse_simcore::time::{SimDuration, SimTime};

    use crate::coarse::simulate_coarse;

    #[test]
    fn scenario_matches_direct_simulation() {
        let s = Scenario::preset("fig16d");
        let got = s.run().expect("fig16d fits");
        let m = aws_v100();
        let p = m.partition(PartitionScheme::OneToOne);
        let want = simulate_coarse(&m, &p, &bert_large(), 2, 3);
        assert_eq!(got, want, "builder must not perturb the run");
    }

    #[test]
    fn single_run_entry_points_prepare_once() {
        let s = Scenario::preset("fig16b").iterations(2);
        let once = |what: &str, run: &dyn Fn()| {
            let before = crate::coarse::prepare_count::get();
            run();
            assert_eq!(crate::coarse::prepare_count::get() - before, 1, "{what}");
        };
        once("run", &|| {
            s.run().unwrap();
        });
        once("run_faulty", &|| {
            s.run_faulty().unwrap();
        });
        once("run_recovering", &|| {
            s.run_recovering(&RecoveryPolicy::default()).unwrap();
        });
        once("reference_schedule", &|| {
            crate::recovery::reference_schedule(&s).unwrap();
        });
    }

    #[test]
    fn every_preset_runs() {
        for name in Scenario::presets() {
            let r = Scenario::preset(name).run();
            assert!(r.is_ok(), "preset {name} failed: {r:?}");
        }
    }

    #[test]
    fn scheme_override_and_oom_detection() {
        let s = Scenario::preset("fig16d")
            .scheme(Scheme::AllReduce)
            .batch_per_gpu(4);
        let err = s.run().unwrap_err();
        assert!(matches!(err, TrainError::OutOfMemory { max_batch: 3, .. }));
        assert!(Scenario::preset("fig16d").batch_per_gpu(4).run().is_ok());
    }

    #[test]
    fn faulty_scenario_reports_recovery() {
        let m = aws_v100();
        let p = m.partition(PartitionScheme::OneToOne);
        let victim = p.mem_devices[0].index() as u32;
        let plan =
            FaultPlan::new(5).drop_device(victim, SimTime::ZERO + SimDuration::from_millis(1));
        let r = Scenario::preset("fig16d")
            .faults(plan)
            .run_faulty()
            .expect("fits");
        assert_eq!(r.failovers, 1);
        assert!(r.recovery_time > SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "unknown scenario preset")]
    fn unknown_preset_panics() {
        let _ = Scenario::preset("fig99");
    }

    #[test]
    fn try_preset_surfaces_unknown_names_as_errors() {
        let err = Scenario::try_preset("fig99").unwrap_err();
        assert_eq!(
            err,
            TrainError::UnknownPreset {
                name: "fig99".to_string()
            }
        );
        for name in Scenario::presets() {
            assert!(Scenario::try_preset(name).is_ok(), "{name} must resolve");
        }
    }

    #[test]
    fn validation_rejects_zero_batch() {
        let err = Scenario::preset("fig16d")
            .batch_per_gpu(0)
            .run()
            .unwrap_err();
        assert_eq!(err, TrainError::ZeroBatch);
    }

    #[test]
    fn validation_rejects_too_few_iterations() {
        let err = Scenario::preset("fig16d").iterations(1).run().unwrap_err();
        assert_eq!(err, TrainError::TooFewIterations { iterations: 1 });
        let err = Scenario::preset("fig16d")
            .iterations(0)
            .run_faulty()
            .unwrap_err();
        assert_eq!(err, TrainError::TooFewIterations { iterations: 0 });
    }

    #[test]
    fn validation_rejects_zero_sized_models() {
        use coarse_models::profile::{ModelProfile, TensorSpec};
        // ModelProfile requires a non-empty tensor list, but nothing stops a
        // caller handing over tensors with zero elements — zero bytes to
        // synchronize is still a nonsensical run.
        let hollow = ModelProfile::new(
            "hollow",
            vec![TensorSpec {
                name: "w".to_string(),
                elems: 0,
                layer: 0,
            }],
            1.0,
        );
        let err = Scenario::preset("fig16d").model(hollow).run().unwrap_err();
        assert_eq!(err, TrainError::EmptyModel);
    }

    #[test]
    fn validation_errors_render_distinct_messages() {
        let errors = [
            TrainError::ZeroBatch,
            TrainError::TooFewIterations { iterations: 1 },
            TrainError::EmptyModel,
            TrainError::NoWorkers,
            TrainError::NoProxyTier { mem_devices: 1 },
            TrainError::UnknownPreset {
                name: "x".to_string(),
            },
        ];
        let rendered: Vec<String> = errors.iter().map(|e| e.to_string()).collect();
        for (i, a) in rendered.iter().enumerate() {
            assert!(!a.is_empty());
            for b in &rendered[i + 1..] {
                assert_ne!(a, b, "error messages must be distinguishable");
            }
        }
    }
}
