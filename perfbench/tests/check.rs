//! The correctness check catches a single flipped output bit, counter
//! drift, a dropped output and broken invariants, and the committed
//! reference covers every workload and input variant.

use perfbench::check::{Outputs, Reference, VARIANTS};
use perfbench::WORKLOADS;

/// Outputs shaped like one pipeline iteration: an allocation, predicted
/// and virtual runtimes, a work counter and a traced-only counter.
fn outputs(runtimes: &[f64]) -> Outputs {
    let mut out = Outputs::default();
    out.digest("base.alloc", |d| {
        d.usizes(&[331, 331, 4253]).f64s(&[1.5, 2.5]);
    });
    out.digest("base.run", |d| {
        d.f64s(runtimes);
    });
    out.put("count.graph.nodes", 870_890);
    out.put("traced.count.sim.ops", 1_670_000);
    out
}

fn reference_for(out: &Outputs) -> Reference {
    let mut r = Reference::default();
    r.record("engine40k", 0, out);
    // Through the file format, as the benchmark reads it.
    Reference::parse(&r.to_json().write_pretty()).expect("reference round-trips")
}

#[test]
fn identical_outputs_pass() {
    let runtimes = [812.25, 790.5, 1203.125];
    let r = reference_for(&outputs(&runtimes));
    assert!(r
        .mismatches("engine40k", 0, &outputs(&runtimes), true)
        .is_empty());
}

#[test]
fn every_single_flipped_bit_is_caught() {
    let runtimes = [812.25, 790.5, 1203.125];
    let r = reference_for(&outputs(&runtimes));
    for i in 0..runtimes.len() {
        for bit in 0..64 {
            let mut flipped = runtimes;
            flipped[i] = f64::from_bits(flipped[i].to_bits() ^ (1 << bit));
            let errors = r.mismatches("engine40k", 0, &outputs(&flipped), true);
            assert_eq!(errors.len(), 1, "value {i} bit {bit}: {errors:?}");
            assert!(errors[0].starts_with("base.run"), "{errors:?}");
        }
    }
}

#[test]
fn counter_drift_is_caught() {
    let runtimes = [1.0, 2.0];
    let r = reference_for(&outputs(&runtimes));
    let mut drifted = outputs(&runtimes);
    drifted.put("count.graph.nodes", 870_891);
    let errors = r.mismatches("engine40k", 0, &drifted, true);
    assert_eq!(errors.len(), 1);
    assert!(errors[0].starts_with("count.graph.nodes"), "{errors:?}");
}

#[test]
fn a_dropped_output_is_caught() {
    let runtimes = [1.0, 2.0];
    let r = reference_for(&outputs(&runtimes));
    for name in ["base.alloc", "base.run", "count.graph.nodes"] {
        let mut dropped = outputs(&runtimes);
        dropped.entries.remove(name);
        for traced in [false, true] {
            let errors = r.mismatches("engine40k", 0, &dropped, traced);
            assert_eq!(errors.len(), 1, "{name} traced={traced}: {errors:?}");
            assert!(errors[0].starts_with(name), "{errors:?}");
        }
    }
}

#[test]
fn traced_only_entries_are_required_in_traced_iterations_only() {
    let runtimes = [1.0, 2.0];
    let r = reference_for(&outputs(&runtimes));
    let mut untraced = outputs(&runtimes);
    untraced.entries.remove("traced.count.sim.ops");
    assert!(r.mismatches("engine40k", 0, &untraced, false).is_empty());
    let errors = r.mismatches("engine40k", 0, &untraced, true);
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(errors[0].starts_with("traced.count.sim.ops"), "{errors:?}");
    // Produced, a traced-only entry is checked either way.
    let mut drifted = outputs(&runtimes);
    drifted.put("traced.count.sim.ops", 1);
    assert_eq!(r.mismatches("engine40k", 0, &drifted, false).len(), 1);
}

#[test]
fn broken_invariants_and_unknown_entries_fail() {
    let runtimes = [1.0, 2.0];
    let r = reference_for(&outputs(&runtimes));
    let mut out = outputs(&runtimes);
    out.invariant(false, || "graph makespan != DES makespan".to_string());
    out.put("count.critical.whatifs", 33);
    let errors = r.mismatches("engine40k", 0, &out, true);
    assert_eq!(errors.len(), 2, "{errors:?}");
    assert!(!r
        .mismatches("engine40k", 1, &outputs(&runtimes), true)
        .is_empty());
    assert!(!r
        .mismatches("miniapp_steps", 0, &outputs(&runtimes), true)
        .is_empty());
}

#[test]
fn committed_reference_covers_every_workload_and_variant() {
    let r = Reference::parse(include_str!("../reference.json")).expect("reference parses");
    for workload in WORKLOADS {
        let variants = r
            .table
            .get(workload)
            .unwrap_or_else(|| panic!("{workload} missing"));
        for v in 0..VARIANTS {
            let entries = variants
                .get(&v)
                .unwrap_or_else(|| panic!("{workload}/{v} missing"));
            assert!(entries.len() >= 4, "{workload}/{v}: {entries:?}");
        }
    }
}
