//! The four seeded workloads: input generation and the op each input runs.
//!
//! Inputs are generated in two steps. [`Workload::specs`] draws plain-data
//! [`Spec`]s from the seed; [`Workload::inputs`] materializes them into
//! runnable [`Input`]s (machine build, scenario construction, fault-plan
//! sampling), which is the benchmark's timed set-up.
//!
//! The designs are balanced: every combination of the discrete knobs (panel,
//! batch, iteration count, checkpoint interval, whether a fault plan drops a
//! device) appears equally often, and the seed sets the order, the
//! continuous uplink jitter and the fault plans. Two seeds therefore ask for
//! the same amount of simulated work while still feeding the program
//! different inputs, which keeps the end-to-end numbers comparable across
//! seeds.

use coarse_core::resilience::RecoveryPolicy;
use coarse_fabric::machines::PartitionScheme::{OneToOne, TwoToOne};
use coarse_fabric::machines::{Machine, MachineBuilder, PartitionScheme};
use coarse_models::profile::ModelProfile;
use coarse_models::zoo::{bert_base, bert_large, resnet50};
use coarse_simcore::faults::{FaultPlan, FaultPlanGen, FaultSpec};
use coarse_simcore::rng::SimRng;
use coarse_trainsim::{
    chaos_run_case, reference_schedule, result_fingerprint, universe_for, RecoveringTrainResult,
    Sabotage, Scenario,
};

/// Seed used when `--seed` is not given. The correctness gate's recorded
/// digests are computed under it.
pub const DEFAULT_SEED: u64 = 1;

/// One machine-and-model shape: a Fig. 16 panel, mirroring
/// `Scenario::preset` for the single-node panels.
#[derive(Debug)]
pub struct Panel {
    /// Panel label; the `Scenario` preset name for single-node panels.
    pub name: &'static str,
    machine: &'static str,
    /// Switch uplink bandwidth of the machine preset (GiB/s per direction).
    pub uplink_gib: f64,
    nodes: u32,
    model: fn() -> ModelProfile,
    partition: PartitionScheme,
    /// The preset's default per-GPU batch.
    batch: u32,
}

const fn panel(
    name: &'static str,
    machine: &'static str,
    uplink_gib: f64,
    nodes: u32,
    model: fn() -> ModelProfile,
    partition: PartitionScheme,
    batch: u32,
) -> Panel {
    Panel {
        name,
        machine,
        uplink_gib,
        nodes,
        model,
        partition,
        batch,
    }
}

/// The five `Scenario` presets followed by the 2-node V100 cluster of
/// Fig. 16f, the only shape with network links and hierarchical
/// collectives. The uplink values mirror `MachineBuilder::preset`.
const PANELS: [Panel; 6] = [
    panel("fig16a", "aws_t4", 12.0, 1, resnet50, OneToOne, 64),
    panel("fig16b", "aws_t4", 12.0, 1, bert_base, OneToOne, 2),
    panel("fig16c", "sdsc_p100", 10.0, 1, bert_large, OneToOne, 2),
    panel("fig16d", "aws_v100", 9.0, 1, bert_large, OneToOne, 2),
    panel("fig16d-2to1", "aws_v100", 9.0, 1, bert_large, TwoToOne, 2),
    panel("fig16f", "aws_v100", 9.0, 2, bert_large, OneToOne, 2),
];

/// Number of single-node panels (the `Scenario` presets).
const PRESETS: usize = 5;

/// One generated input, as plain data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Index of the panel (see [`Spec::panel`]).
    pub panel: usize,
    /// Per-GPU batch.
    pub batch: u32,
    /// Simulated training iterations.
    pub iterations: u32,
    /// Jittered switch uplink bandwidth (GiB/s per direction).
    pub uplink_gib: f64,
    /// Pool-checkpoint interval (`recovery` only; 0 elsewhere).
    pub checkpoint_interval: u32,
    /// The fault plan to sample (`chaos` only).
    pub plan: Option<PlanDraw>,
}

/// A fault plan to draw from `FaultPlanGen`: the first plan, over seeds
/// derived from `seed`, that drops a device if and only if `dropout`.
///
/// Whether a plan drops a device changes a `chaos` op's allocations up to
/// 14× (on the presets with two memory devices a dropout leaves no proxy
/// ring), so every preset gets the same share of dropout plans in every
/// pass rather than a binomial one that moves the per-op means from seed
/// to seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanDraw {
    /// Base sampling seed.
    pub seed: u64,
    /// Whether the plan drops a device.
    pub dropout: bool,
}

impl PlanDraw {
    /// Samples the plan for `scenario`'s fault universe.
    ///
    /// # Panics
    ///
    /// Panics if 64 consecutive samples all miss the requested kind, which
    /// happens only if the generator stopped producing plans of that kind.
    fn sample(self, scenario: &Scenario) -> FaultPlan {
        let gen = FaultPlanGen::new(universe_for(scenario)).max_events(4);
        (0..64)
            .map(|k| gen.sample(mix(self.seed, k)))
            .find(|plan| {
                let drops = plan
                    .specs()
                    .iter()
                    .any(|s| matches!(s, FaultSpec::Dropout(_)));
                drops == self.dropout
            })
            .expect("FaultPlanGen samples plans with and without dropouts")
    }
}

impl Spec {
    /// The panel this input runs on.
    pub fn panel(&self) -> &'static Panel {
        &PANELS[self.panel]
    }

    /// Builds the input's machine.
    pub fn machine(&self) -> Machine {
        let p = self.panel();
        let builder = MachineBuilder::preset(p.machine).uplink_gib(self.uplink_gib);
        if p.nodes > 1 {
            builder.cluster(p.nodes).build()
        } else {
            builder.build()
        }
    }

    /// The input's model.
    pub fn model(&self) -> ModelProfile {
        (self.panel().model)()
    }

    /// The input's worker / memory-device split.
    pub fn partition(&self) -> PartitionScheme {
        self.panel().partition
    }

    /// The fault-free scenario: machine, model, partition, batch and
    /// iteration count.
    pub fn scenario(&self) -> Scenario {
        Scenario::new(self.panel().name, self.machine(), self.model())
            .partition(self.partition())
            .batch_per_gpu(self.batch)
            .iterations(self.iterations)
    }
}

/// A materialized input, ready to run.
#[derive(Debug, Clone)]
pub struct Input {
    /// What the input was generated from.
    pub spec: Spec,
    /// The scenario, with the fault plan attached for `chaos`.
    pub scenario: Scenario,
    /// Recovery policy (`recovery` only).
    pub policy: RecoveryPolicy,
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper regeneration: the full three-scheme report of one panel.
    Paper,
    /// Long steady-state COARSE training.
    Steady,
    /// Oracle-armed fault-injected runs.
    Chaos,
    /// Runs under the recovery engine with pool checkpoints.
    Recovery,
}

impl Workload {
    /// Every workload, in the order a round runs them.
    pub const ALL: [Workload; 4] = [
        Workload::Paper,
        Workload::Steady,
        Workload::Chaos,
        Workload::Recovery,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Steady => "steady",
            Workload::Chaos => "chaos",
            Workload::Recovery => "recovery",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Inputs per pass. Each is at least 100, so the p90 has at least ten
    /// samples beyond it, and each is a multiple of its design's
    /// combination count, so every combination appears equally often.
    pub fn size(self) -> usize {
        match self {
            Workload::Paper => 120,
            Workload::Steady => 102,
            Workload::Chaos => 250,
            Workload::Recovery => 135,
        }
    }

    /// The `i`-th point of the balanced design, before shuffling and
    /// jitter.
    fn design_point(self, i: usize, n: usize) -> Spec {
        let panel = match self {
            Workload::Steady => i % PANELS.len(),
            _ => i % PRESETS,
        };
        let mut spec = Spec {
            panel,
            batch: PANELS[panel].batch,
            iterations: 2,
            uplink_gib: PANELS[panel].uplink_gib,
            checkpoint_interval: 0,
            plan: None,
        };
        match self {
            Workload::Paper => {
                if (i / PRESETS).is_multiple_of(2) {
                    spec.batch /= 2;
                }
                spec.iterations = 2 + ((i / (2 * PRESETS)) % 4) as u32;
            }
            Workload::Steady => {
                let levels = n.div_ceil(PANELS.len()).max(2);
                let level = i / PANELS.len();
                spec.iterations = 60 + (60 * level / (levels - 1)) as u32;
            }
            Workload::Chaos => {}
            Workload::Recovery => {
                spec.iterations = [6, 8, 10][(i / PRESETS) % 3];
                spec.checkpoint_interval = [1, 2, 4][(i / (3 * PRESETS)) % 3];
            }
        }
        spec
    }

    /// The `n` input specs of a pass under `seed`.
    pub fn specs(self, seed: u64, n: usize) -> Vec<Spec> {
        let mut specs: Vec<Spec> = (0..n).map(|i| self.design_point(i, n)).collect();
        let mut rng = SimRng::seed_from_u64(mix(seed, self as u64));
        if self == Workload::Chaos {
            // Presets stay in rotation; the sampled fault plans carry the
            // variety.
            for (i, spec) in specs.iter_mut().enumerate() {
                spec.plan = Some(PlanDraw {
                    seed: mix(seed, 1 << 32 | i as u64),
                    dropout: (i / PRESETS).is_multiple_of(2),
                });
            }
        } else {
            rng.shuffle(&mut specs);
            for spec in &mut specs {
                spec.uplink_gib *= rng.range_f64(0.9, 1.1);
            }
        }
        specs
    }

    /// Materializes specs into runnable inputs.
    pub fn materialize(self, specs: &[Spec]) -> Vec<Input> {
        specs
            .iter()
            .map(|&spec| {
                let mut scenario = spec.scenario();
                if let Some(draw) = spec.plan {
                    let plan = draw.sample(&scenario);
                    scenario = scenario.faults(plan);
                }
                Input {
                    spec,
                    scenario,
                    policy: RecoveryPolicy {
                        checkpoint_interval: spec.checkpoint_interval,
                        ..RecoveryPolicy::default()
                    },
                }
            })
            .collect()
    }

    /// Generates and materializes the `n` inputs of a pass: the set-up.
    pub fn inputs(self, seed: u64, n: usize) -> Vec<Input> {
        self.materialize(&self.specs(seed, n))
    }

    /// How many COARSE deployments (prepare plus pilot grid) one op builds.
    pub fn coarse_runs_per_op(self) -> u32 {
        match self {
            Workload::Steady => 1,
            // paper: the COARSE row and its metered re-run; chaos: reference
            // and faulty run; recovery: reference schedule and recovering run.
            Workload::Paper | Workload::Chaos | Workload::Recovery => 2,
        }
    }

    /// Runs one op and returns its output fingerprint. An error, or an
    /// oracle violation, comes back as `Err`.
    pub fn run_op(self, input: &Input) -> Result<u64, String> {
        let s = &input.scenario;
        match self {
            Workload::Paper => Ok(fnv1a(s.report().render().as_bytes())),
            Workload::Steady => s
                .run()
                .map(|r| result_fingerprint(&r))
                .map_err(|e| e.to_string()),
            Workload::Chaos => {
                let case = chaos_run_case(s, Sabotage::None).map_err(|e| e.to_string())?;
                chaos_fingerprint(&case)
            }
            Workload::Recovery => {
                let plan = reference_schedule(s).map_err(|e| e.to_string())?;
                let r = s
                    .clone()
                    .faults(plan)
                    .run_recovering(&input.policy)
                    .map_err(|e| e.to_string())?;
                Ok(recovering_fingerprint(&r))
            }
        }
    }
}

/// Fingerprint of a chaos case; a case with oracle violations is an error.
pub(crate) fn chaos_fingerprint(case: &coarse_trainsim::CaseReport) -> Result<u64, String> {
    if !case.violations.is_empty() {
        return Err(format!(
            "oracle violations: {}",
            case.rendered_violations().join("; ")
        ));
    }
    let f = &case.faulty;
    Ok(Fnv::new()
        .u64(case.reference)
        .u64(case.fingerprint)
        .u64(f.injected_faults as u64)
        .u64(f.retries)
        .u64(f.failovers)
        .u64(u64::from(f.degraded_to_gpu))
        .u64(f.recovery_time.as_nanos())
        .finish())
}

/// Fingerprint of every field of a recovering run's accounting.
pub(crate) fn recovering_fingerprint(r: &RecoveringTrainResult) -> u64 {
    Fnv::new()
        .u64(result_fingerprint(&r.result))
        .u64(r.wall.as_nanos())
        .u64(r.injected_faults as u64)
        .u64(r.retries)
        .u64(r.repairs)
        .u64(r.restores)
        .u64(r.membership_epoch)
        .u64(r.checkpoints)
        .u64(r.checkpoint_time.as_nanos())
        .u64(r.checkpoint_bytes.as_u64())
        .u64(r.restore_time.as_nanos())
        .u64(r.restore_bytes.as_u64())
        .u64(r.lost_iterations)
        .u64(r.detection_time.as_nanos())
        .u64(r.backoff_time.as_nanos())
        .u64(r.mttr.as_nanos())
        .u64(u64::from(r.degraded_to_gpu))
        .finish()
}

/// Incremental FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes in raw bytes.
    pub fn bytes(mut self, bytes: &[u8]) -> Fnv {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Mixes in a `u64`, little-endian.
    pub fn u64(self, v: u64) -> Fnv {
        self.bytes(&v.to_le_bytes())
    }

    /// The hash.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

/// FNV-1a of a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    Fnv::new().bytes(bytes).finish()
}

/// A workload's output digest: FNV-1a over its per-op fingerprints, in
/// input order.
pub fn digest(fingerprints: &[u64]) -> u64 {
    fingerprints
        .iter()
        .fold(Fnv::new(), |h, &fp| h.u64(fp))
        .finish()
}

/// Derives an independent 64-bit seed from `(seed, stream)` (SplitMix64).
fn mix(seed: u64, stream: u64) -> u64 {
    let mut x = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}
