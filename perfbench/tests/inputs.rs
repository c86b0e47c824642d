//! Input generation: seeded, reproducible and balanced.

use std::collections::BTreeMap;

use coarse_trainsim::Scenario;
use perfbench::workloads::{Workload, DEFAULT_SEED};

#[test]
fn the_same_seed_gives_the_same_inputs() {
    for w in Workload::ALL {
        assert_eq!(
            w.specs(7, w.size()),
            w.specs(7, w.size()),
            "{} specs must be a pure function of the seed",
            w.name()
        );
        let a: Vec<_> = w.inputs(7, 4).into_iter().map(|i| i.scenario).collect();
        let b: Vec<_> = w.inputs(7, 4).into_iter().map(|i| i.scenario).collect();
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{}", w.name());
    }
}

#[test]
fn different_seeds_give_different_inputs() {
    for w in Workload::ALL {
        let a = w.specs(DEFAULT_SEED, w.size());
        let b = w.specs(DEFAULT_SEED + 1, w.size());
        let same = a.iter().zip(&b).filter(|(x, y)| x == y).count();
        assert_eq!(same, 0, "{}: {same} inputs survive a seed change", w.name());
    }
}

#[test]
fn inputs_are_distinct_within_a_pass() {
    for w in Workload::ALL {
        let specs = w.specs(DEFAULT_SEED, w.size());
        for (i, a) in specs.iter().enumerate() {
            assert!(
                specs[i + 1..].iter().all(|b| a != b),
                "{}: input {i} repeats",
                w.name()
            );
        }
    }
}

#[test]
fn every_design_point_appears_equally_often() {
    for w in Workload::ALL {
        assert!(
            w.size() >= 100,
            "{}: p90 needs ten samples beyond it",
            w.name()
        );
        let mut counts: BTreeMap<_, usize> = BTreeMap::new();
        for s in w.specs(DEFAULT_SEED, w.size()) {
            let dropout = s.plan.map(|p| p.dropout);
            *counts
                .entry((
                    s.panel,
                    s.batch,
                    s.iterations,
                    s.checkpoint_interval,
                    dropout,
                ))
                .or_default() += 1;
        }
        let first = *counts.values().next().expect("non-empty");
        assert!(
            counts.values().all(|&c| c == first),
            "{}: unbalanced design {counts:?}",
            w.name()
        );
    }
}

#[test]
fn unjittered_panels_reproduce_the_presets() {
    // chaos inputs carry the panels' nominal uplinks and default batches.
    for spec in Workload::Chaos.specs(DEFAULT_SEED, 5) {
        let name = spec.panel().name;
        assert_eq!(
            spec.scenario().report().render(),
            Scenario::preset(name).iterations(2).report().render(),
            "{name}"
        );
    }
}

#[test]
fn uplink_jitter_stays_within_ten_percent() {
    for w in [Workload::Paper, Workload::Steady, Workload::Recovery] {
        for s in w.specs(3, w.size()) {
            let ratio = s.uplink_gib / s.panel().uplink_gib;
            assert!((0.9..=1.1).contains(&ratio), "{} jitter {ratio}", w.name());
        }
    }
}
