//! Integration tests pinning the paper's headline claims on the virtual
//! testbed — the executable form of EXPERIMENTS.md. Each test names the
//! figure it guards.

use cpx_machine::Machine;
use cpx_pressure::{PressureConfig, PressurePhase, PressureTraceModel};
use cpx_simpic::{SimpicConfig, SimpicTraceModel};

fn machine() -> Machine {
    Machine::archer2()
}

fn pe(points: &[(usize, f64)], i: usize) -> f64 {
    let (p0, t0) = points[0];
    let (p, t) = points[i];
    (t0 * p0 as f64) / (t * p as f64)
}

/// Fig 4b: the 28M-cell pressure solver and its SIMPIC proxy both fall
/// below 50% parallel efficiency in the ~3,000–5,000 core region, and
/// the proxy tracks the solver within the paper's error band.
#[test]
fn fig4_proxy_tracks_pressure_solver() {
    let m = machine();
    let press = PressureTraceModel::new(PressureConfig::swirl_28m());
    let simp = SimpicTraceModel::new(SimpicConfig::base_28m());
    let sweep = [128usize, 512, 2048, 4096];
    let pp: Vec<(usize, f64)> = sweep
        .iter()
        .map(|&p| (p, press.per_step_runtime(p, &m)))
        .collect();
    let sp: Vec<(usize, f64)> = sweep
        .iter()
        .map(|&p| (p, simp.per_pressure_step_runtime(p, &m)))
        .collect();
    // Knee location.
    assert!(pe(&pp, 2) > 0.5, "pressure PE at 2048 = {}", pe(&pp, 2));
    assert!(pe(&pp, 3) < 0.5, "pressure PE at 4096 = {}", pe(&pp, 3));
    // Tracking error.
    let max_err = pp
        .iter()
        .zip(&sp)
        .map(|(&(_, a), &(_, b))| (a - b).abs() / a)
        .fold(0.0, f64::max);
    assert!(max_err < 0.25, "proxy max error {max_err}");
}

/// Fig 4c: the 380M-equivalent base case speeds up ~6× from 1,000 to
/// 10,000 cores (paper: "maximum speedup of about 6x").
#[test]
fn fig4c_large_case_speedup() {
    let m = machine();
    let simp = SimpicTraceModel::new(SimpicConfig::base_380m());
    let s = simp.per_pressure_step_runtime(1000, &m) / simp.per_pressure_step_runtime(10_000, &m);
    assert!((4.5..8.5).contains(&s), "1k→10k speedup {s}");
}

/// Fig 5a at 2048 cores: pressure field ≈46% of runtime (~25% compute +
/// ~21% comm); spray next-biggest with >90% of its time in
/// communication.
#[test]
fn fig5a_profile_shares() {
    let m = machine();
    let model = PressureTraceModel::new(PressureConfig::swirl_28m());
    let (step, _, ph) = model.profile(2048, &m, 2);
    let total = step * 2.0;
    let share = |phase: PressurePhase| {
        let id = phase.id() as usize;
        (
            ph.compute[id].iter().sum::<f64>() / 2048.0 / total,
            ph.comm[id].iter().sum::<f64>() / 2048.0 / total,
        )
    };
    let (pf_c, pf_m) = share(PressurePhase::PressureField);
    assert!((0.40..0.52).contains(&(pf_c + pf_m)), "pf {}", pf_c + pf_m);
    let (sp_c, sp_m) = share(PressurePhase::Spray);
    assert!(sp_m / (sp_c + sp_m) > 0.9, "spray comm frac");
    // Ordering: pressure field > spray > each transport phase.
    let (v_c, v_m) = share(PressurePhase::Velocity);
    assert!(pf_c + pf_m > sp_c + sp_m);
    assert!(sp_c + sp_m > v_c + v_m);
}

/// Fig 6a: the §IV-optimized solver holds markedly higher efficiency
/// than the base at 4,096 cores.
#[test]
fn fig6a_optimizations_lift_efficiency() {
    let m = machine();
    let sweep = [128usize, 4096];
    let run = |cfg: PressureConfig| -> Vec<(usize, f64)> {
        let model = PressureTraceModel::new(cfg);
        sweep
            .iter()
            .map(|&p| (p, model.per_step_runtime(p, &m)))
            .collect()
    };
    let base = run(PressureConfig::swirl_28m());
    let opt = run(PressureConfig::swirl_28m().optimized());
    assert!(
        pe(&opt, 1) > pe(&base, 1) + 0.2,
        "opt {} base {}",
        pe(&opt, 1),
        pe(&base, 1)
    );
    // And the optimized code is actually faster in absolute terms.
    assert!(opt[1].1 < base[1].1 / 2.0);
}

/// Fig 6b/c: the Optimized-STC matches the theoretically-optimized
/// pressure solver across the production rank range.
#[test]
fn fig6bc_optimized_stc_equivalence() {
    let m = machine();
    let press = PressureTraceModel::new(PressureConfig::full_380m().optimized());
    let simp = SimpicTraceModel::new(SimpicConfig::optimized_stc());
    let mut max_err: f64 = 0.0;
    for p in [2000usize, 8000, 32_201] {
        let a = press.per_step_runtime(p, &m);
        let b = simp.per_pressure_step_runtime(p, &m);
        max_err = max_err.max((a - b).abs() / a);
    }
    assert!(max_err < 0.15, "Optimized-STC error {max_err}");
}

/// Fig 9b structure: Algorithm 1 on the large engine gives the Base-STC
/// SIMPIC its scaling sweet spot (paper: 13,428) and pins the small
/// compressor rows at the 100-rank floor; the Optimized-STC absorbs the
/// large majority of the 40,000-core budget (paper: 32,201).
#[test]
fn fig9b_allocation_structure() {
    use cpx_core::prelude::*;
    let m = machine();
    let grid = [100usize, 400, 1600, 6400, 25_600, 40_000];
    // Base-STC.
    let scenario = testcases::large_engine(StcVariant::Base);
    let models = model::build_models_with_grid(&scenario, &m, 1000.0, &grid);
    let alloc = model::allocate_scenario(&models, 40_000);
    let simpic = alloc.app_ranks[13];
    assert!(
        (9_000..22_000).contains(&simpic),
        "Base-STC SIMPIC ranks {simpic} (paper: 13,428)"
    );
    for i in 1..=11 {
        assert_eq!(alloc.app_ranks[i], 100, "24M row {} pinned at floor", i + 1);
    }
    // The unallocated remainder is parked (the paper's "impact would be
    // negligible" situation).
    assert!(alloc.total_ranks() < 40_000);

    // Optimized-STC.
    let scenario = testcases::large_engine(StcVariant::Optimized);
    let models = model::build_models_with_grid(&scenario, &m, 1000.0, &grid);
    let alloc = model::allocate_scenario(&models, 40_000);
    let simpic = alloc.app_ranks[13];
    assert!(
        (26_000..39_000).contains(&simpic),
        "Optimized-STC SIMPIC ranks {simpic} (paper: 32,201)"
    );
    // The turbine rows now receive serious allocations too.
    assert!(
        alloc.app_ranks[15] > 500,
        "300M row got {}",
        alloc.app_ranks[15]
    );
}

/// Fig 9c: the optimized pipeline is predicted several times faster for
/// one revolution, with coupling overhead below 0.5%.
#[test]
fn fig9c_revolution_speedup() {
    use cpx_core::prelude::*;
    let m = machine();
    let grid = [100usize, 400, 1600, 6400, 25_600, 40_000];
    let mut runtimes = Vec::new();
    for variant in [StcVariant::Base, StcVariant::Optimized] {
        let scenario = testcases::large_engine(variant);
        let models = model::build_models_with_grid(&scenario, &m, 1000.0, &grid);
        let alloc = model::allocate_scenario(&models, 40_000);
        let run = sim::run_coupled_with(&scenario, &alloc, &m, 20, None);
        assert!(
            run.coupling_overhead < 0.005,
            "coupling overhead {}",
            run.coupling_overhead
        );
        runtimes.push((alloc.predicted_runtime(), run.total_runtime));
    }
    let predicted = runtimes[0].0 / runtimes[1].0;
    let measured = runtimes[0].1 / runtimes[1].1;
    assert!(
        (3.5..9.5).contains(&predicted),
        "predicted revolution speedup {predicted} (paper: ~6x, ideal 7.5x)"
    );
    assert!(
        (3.5..9.5).contains(&measured),
        "measured revolution speedup {measured} (paper: ~4x)"
    );
    // Model within the paper's 25% validation band.
    for (pred, meas) in &runtimes {
        assert!((pred - meas).abs() / meas < 0.25);
    }
}
