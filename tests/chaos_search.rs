//! End-to-end chaos-search invariants, exercised through the facade crate:
//!
//! 1. a bounded seeded soak across the Fig. 16 presets runs clean (no
//!    oracle violations) and is byte-deterministic across invocations;
//! 2. a deliberately broken resilience path (`Sabotage::InvertRetryOrder`)
//!    is caught by the retry-FIFO oracle, shrunk to a minimal fault plan,
//!    and the serialized repro replays to the same failure;
//! 3. repro documents round-trip byte-for-byte and reconstruct scenarios
//!    that re-run deterministically;
//! 4. sampled plans on the 2-node cluster, whose proxy tier spans nodes,
//!    survive dropouts that leave the per-node proxy rings unequal.

use coarse_repro::fabric::machines::MachineBuilder;
use coarse_repro::models::zoo::bert_large;
use coarse_repro::simcore::faults::{FaultPlanGen, FaultSpec};
use coarse_repro::trainsim::chaos::{replay, soak, ChaosRepro, SoakConfig};
use coarse_repro::trainsim::{chaos_run_case, universe_for, Sabotage, Scenario};

fn bounded_config() -> SoakConfig {
    SoakConfig {
        cases: 25,
        ..SoakConfig::default()
    }
}

#[test]
fn bounded_soak_is_clean_and_byte_deterministic() {
    let cfg = bounded_config();
    let first = soak(&cfg).expect("soak runs");
    assert_eq!(first.cases, cfg.cases);
    assert!(
        first.failures.is_empty(),
        "oracle violations on a healthy build:\n{}",
        first.render_summary()
    );
    assert_eq!(first.clean, first.cases);
    // Every preset participated.
    assert_eq!(first.per_preset.len(), cfg.presets.len());
    // The fleet actually exercised the resilience machinery: across 25
    // seeded schedules at least one retry or failover must have happened,
    // otherwise the fault windows never intersected traffic and the soak
    // is vacuous.
    assert!(
        first.retries + first.failovers > 0,
        "soak never bit: {}",
        first.render_summary()
    );
    let second = soak(&cfg).expect("soak runs again");
    assert_eq!(
        first.render_summary(),
        second.render_summary(),
        "same config must reproduce the same soak, byte for byte"
    );
}

#[test]
fn sabotage_is_caught_shrunk_and_replays_to_the_same_failure() {
    let cfg = SoakConfig {
        presets: vec!["fig16a".to_string()],
        cases: 1,
        sabotage: Sabotage::InvertRetryOrder,
        ..SoakConfig::default()
    };
    let outcome = soak(&cfg).expect("soak runs");
    assert_eq!(
        outcome.failures.len(),
        1,
        "inverted retry order must violate the §III-F FIFO contract:\n{}",
        outcome.render_summary()
    );
    let failure = &outcome.failures[0];
    assert!(
        failure.violations.iter().any(|v| v.contains("retry-fifo")),
        "expected a retry-fifo verdict, got {:?}",
        failure.violations
    );
    assert!(
        failure.shrunk_events <= 3,
        "shrinker left {} events (from {})",
        failure.shrunk_events,
        failure.original_events
    );
    assert!(failure.shrunk_events <= failure.original_events);

    // The serialized repro replays to the same violations.
    let rendered = failure.repro.render();
    let replayed = replay(&rendered).expect("repro replays");
    assert_eq!(
        replayed.rendered_violations(),
        failure.violations,
        "replay must reproduce the shrunk failure exactly"
    );
}

#[test]
fn repro_documents_round_trip_and_rerun_deterministically() {
    let cfg = SoakConfig {
        presets: vec!["fig16b".to_string()],
        cases: 1,
        sabotage: Sabotage::InvertRetryOrder,
        ..SoakConfig::default()
    };
    let outcome = soak(&cfg).expect("soak runs");
    let repro = &outcome.failures[0].repro;

    // Byte-for-byte round trip through the JSON layer.
    let rendered = repro.render();
    let parsed = ChaosRepro::parse(&rendered).expect("own output parses");
    assert_eq!(&parsed, repro);
    assert_eq!(parsed.render(), rendered);

    // The reconstructed scenario re-runs byte-identically.
    let a = Scenario::from_repro(&rendered)
        .expect("repro reconstructs")
        .run_faulty()
        .expect("fits");
    let b = Scenario::from_repro(&rendered)
        .expect("repro reconstructs")
        .run_faulty()
        .expect("fits");
    assert_eq!(a, b, "replayed runs must be deterministic");
}

/// Runs the sampled chaos plans `seeds` on the 2-node V100 cluster (the
/// Fig. 16f shape: proxies on both nodes, hierarchical proxy collectives
/// over the network) and asserts none panics or violates an oracle.
/// Returns how many of the plans dropped a device.
fn run_cluster_plans(seeds: std::ops::Range<u64>) -> usize {
    let machine = MachineBuilder::preset("aws_v100").cluster(2).build();
    let base = Scenario::new("v100-2node", machine, bert_large()).iterations(2);
    let gen = FaultPlanGen::new(universe_for(&base)).max_events(4);
    let mut dropouts = 0;
    for seed in seeds {
        let plan = gen.sample(seed);
        if plan
            .specs()
            .iter()
            .any(|s| matches!(s, FaultSpec::Dropout(_)))
        {
            dropouts += 1;
        }
        let case = chaos_run_case(&base.clone().faults(plan), Sabotage::None)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(
            case.violations.is_empty(),
            "seed {seed}: {:?}",
            case.rendered_violations()
        );
    }
    dropouts
}

// Sixty plans in two halves so the test harness runs them side by side.
// Dropouts are what leave the per-node proxy rings unequal, so each half
// must contain some.

#[test]
fn two_node_cluster_plans_0_to_30_survive_uneven_proxy_rings() {
    assert!(
        run_cluster_plans(0..30) > 0,
        "no sampled plan dropped a proxy"
    );
}

#[test]
fn two_node_cluster_plans_30_to_60_survive_uneven_proxy_rings() {
    assert!(
        run_cluster_plans(30..60) > 0,
        "no sampled plan dropped a proxy"
    );
}
