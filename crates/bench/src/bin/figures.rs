//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p cpx-bench --release --bin figures -- <id>
//! ```
//! where `<id>` is one of `fig3 fig4a fig4b fig4c fig5a fig5b fig6a
//! fig6bc fig8a fig8b fig9a fig9b fig9c sensitivity ablation machines`,
//! or `all`.

use cpx_bench::{comparison_table, pressure_series, simpic_series, SWEEP_LARGE, SWEEP_SMALL};
use cpx_core::prelude::*;
use cpx_machine::Machine;
use cpx_pressure::{PressureConfig, PressurePhase, PressureTraceModel};
use cpx_simpic::{SimpicConfig, SimpicTraceModel};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let machine = Machine::archer2();
    let all = which == "all";
    let run = |id: &str| all || which == id;

    if run("fig3") {
        fig3(&machine);
    }
    if run("fig4a") || run("fig4b") {
        fig4ab(&machine);
    }
    if run("fig4c") {
        fig4c(&machine);
    }
    if run("fig5a") {
        fig5a(&machine);
    }
    if run("fig5b") {
        fig5b(&machine);
    }
    if run("fig6a") {
        fig6a(&machine);
    }
    if run("fig6bc") {
        fig6bc(&machine);
    }
    if run("fig8a") {
        fig8a(&machine);
    }
    if run("fig8b") {
        fig8b();
    }
    if run("fig9a") {
        fig9a(&machine);
    }
    if run("fig9b") || run("fig9c") {
        fig9bc(&machine, run("fig9b"), run("fig9c"));
    }
    if run("sensitivity") {
        sensitivity(&machine);
    }
    if run("ablation") {
        ablation(&machine);
    }
    if run("machines") {
        machines();
    }
}

/// §II-B aside: the production pressure solver was benchmarked on a
/// 32-core-per-node machine while the density solver ran on ARCHER2's
/// 128-core nodes, complicating direct comparison. Rerun the 28M case
/// on both machine models and watch the knee move.
fn machines() {
    header("Machine sensitivity: pressure solver 28M on 32c/node vs 128c/node");
    let archer = Machine::archer2();
    let legacy = Machine::legacy32();
    let model = PressureTraceModel::new(PressureConfig::swirl_28m());
    println!(
        "{:>8} {:>16} {:>16}",
        "ranks", "ARCHER2 t/step", "legacy32 t/step"
    );
    for p in [128usize, 512, 2048] {
        println!(
            "{p:>8} {:>15.2}s {:>15.2}s",
            model.per_step_runtime(p, &archer),
            model.per_step_runtime(p, &legacy)
        );
    }
    println!("(the knee is machine-relative; cross-machine PE comparisons mislead — §II-B)");
}

/// Ablation: the coupler-search story. The prior work's model predicted
/// coupling as a significant bottleneck; the tree-based search with
/// next-iteration prefetch (since adopted by the production coupler)
/// brought it under 0.5% (§V-B). Re-run the small coupled case with each
/// search algorithm and watch Algorithm 1's CU allocations and the
/// coupling overhead respond.
fn ablation(machine: &Machine) {
    use cpx_coupler::trace::{CouplerKind, SearchAlgo};
    header("Ablation: donor-search algorithm vs coupling cost (small case)");
    println!(
        "{:>14} {:>10} {:>14} {:>14} {:>10}",
        "search", "CU ranks", "CU time (s)", "runtime (s)", "overhead"
    );
    for (name, algo) in [
        ("brute", SearchAlgo::Brute),
        ("tree", SearchAlgo::Tree),
        ("tree+prefetch", SearchAlgo::TreePrefetch),
    ] {
        let mut scenario = testcases::small_150m_28m(StcVariant::Base);
        for cu in &mut scenario.cus {
            if let CouplerKind::Sliding { search } = &mut cu.kind {
                *search = algo;
            }
        }
        let models = model::build_models_with_grid(&scenario, machine, 100.0, &small_grid());
        let alloc = model::allocate_scenario(&models, 5000);
        let run = sim::run_coupled_with(&scenario, &alloc, machine, 20, None);
        let cu_ranks: usize = alloc.cu_ranks.iter().sum();
        let cu_time = alloc.cu_times.iter().copied().fold(0.0, f64::max);
        println!(
            "{name:>14} {cu_ranks:>10} {cu_time:>14.2} {:>14.1} {:>9.2}%",
            run.total_runtime,
            run.coupling_overhead * 100.0
        );
    }
    println!("paper lineage: coupling fell from a predicted bottleneck to <0.5% of runtime");
}

fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// §V-C sensitivity: the one-revolution speedup if the optimizations
/// land at their quoted best (ideal, ~7.5× in the paper), as modelled
/// (§IV's 5× field + perfect spray), or at the pessimistic floor
/// (spray fixed, field only 30% faster — paper: 2.3×). The combustor
/// instance is modelled directly with the pressure-solver cost model.
fn sensitivity(machine: &Machine) {
    use cpx_perfmodel::{InstanceModel, RuntimeCurve};
    header("§V-C sensitivity: revolution speedup vs optimization outcome");
    let grid = large_grid();
    let scenario = testcases::large_engine(StcVariant::Base);
    let base_models = model::build_models_with_grid(&scenario, machine, 1000.0, &grid);

    let engine_runtime = |variant: cpx_pressure::PressureVariant| -> f64 {
        let mut models = base_models.clone();
        // Replace the combustor's model with the pressure solver's own
        // cost model in the requested variant.
        let cfg = cpx_pressure::PressureConfig {
            variant,
            ..cpx_pressure::PressureConfig::full_380m()
        };
        let pm = PressureTraceModel::new(cfg);
        let samples: Vec<(usize, f64)> = grid
            .iter()
            .map(|&p| (p, 2.0 * pm.per_step_runtime(p, machine)))
            .collect();
        models.apps[13] = InstanceModel::new(
            "pressure-380m",
            RuntimeCurve::fit(&samples),
            380.0e6,
            1.0,
            380.0e6,
            1000.0,
            model::APP_MIN_RANKS,
        );
        model::allocate_scenario(&models, 40_000).predicted_runtime()
    };

    let base = engine_runtime(cpx_pressure::PressureVariant::Base);
    println!("combustor modelled directly with the pressure-solver cost model:");
    for (name, v, paper) in [
        (
            "worst case (spray only, field -30%)",
            cpx_pressure::PressureVariant::WorstCase,
            "2.3x",
        ),
        (
            "as modelled (5x field + spray)",
            cpx_pressure::PressureVariant::Optimized,
            "6-7.5x",
        ),
    ] {
        let t = engine_runtime(v);
        println!("  {name:<38} speedup {:.2}x (paper: {paper})", base / t);
    }
}

/// Fig 3: the pressure-solver ↔ SIMPIC calibration table.
fn fig3(machine: &Machine) {
    header("Fig 3: pressure-solver test cases and their SIMPIC proxies");
    println!(
        "{:>16} {:>14} {:>16} {:>12} {:>22}",
        "pressure mesh", "SIMPIC cells", "particles/cell", "timesteps", "serial err (1 step)"
    );
    for (press, simp) in [
        (PressureConfig::swirl_28m(), SimpicConfig::base_28m()),
        (PressureConfig::swirl_84m(), SimpicConfig::base_84m()),
        (PressureConfig::full_380m(), SimpicConfig::base_380m()),
    ] {
        let tp = PressureTraceModel::new(press.clone()).per_step_runtime(1, machine);
        let ts = SimpicTraceModel::new(simp.clone()).per_pressure_step_runtime(1, machine);
        println!(
            "{:>15}M {:>14} {:>16} {:>12} {:>21.1}%",
            press.cells / 1.0e6,
            simp.cells,
            simp.particles_per_cell,
            simp.timesteps,
            (tp - ts).abs() / tp * 100.0
        );
    }
}

/// Fig 4a/4b: speedup and parallel efficiency, pressure solver vs
/// SIMPIC, 28M and 84M.
fn fig4ab(machine: &Machine) {
    header("Fig 4a/4b: pressure solver vs SIMPIC (28M and 84M), 128→4096 cores");
    for (press, simp) in [
        (PressureConfig::swirl_28m(), SimpicConfig::base_28m()),
        (PressureConfig::swirl_84m(), SimpicConfig::base_84m()),
    ] {
        let a = pressure_series(press, &SWEEP_SMALL, machine);
        let b = simpic_series(simp, &SWEEP_SMALL, machine);
        println!("\nruntime per pressure-solver timestep:");
        print!("{}", comparison_table(&a, &b));
        println!(
            "{:>8} {:>10} {:>10} {:>10} {:>10}",
            "ranks", "spdup A", "spdup B", "PE A", "PE B"
        );
        for i in 0..a.points.len() {
            println!(
                "{:>8} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
                a.points[i].0,
                a.speedup()[i].1,
                b.speedup()[i].1,
                a.parallel_efficiency()[i].1,
                b.parallel_efficiency()[i].1
            );
        }
    }
    println!("\npaper: PE drops below 50% at ~3000 cores; SIMPIC max error ~22%, mean <9%");
}

/// Fig 4c: SIMPIC large base case, 1,000→10,000 cores.
fn fig4c(machine: &Machine) {
    header("Fig 4c: SIMPIC 380M-equivalent base case, 1,000→10,000 cores");
    let s = simpic_series(SimpicConfig::base_380m(), &SWEEP_LARGE, machine);
    println!(
        "{:>8} {:>12} {:>10} {:>10}",
        "ranks", "t/step (s)", "speedup", "PE"
    );
    for i in 0..s.points.len() {
        println!(
            "{:>8} {:>12.3} {:>10.2} {:>10.2}",
            s.points[i].0,
            s.points[i].1,
            s.speedup()[i].1,
            s.parallel_efficiency()[i].1
        );
    }
    println!("paper: PE approaches 50% at 10,000 cores; max speedup ≈ 6x");
}

/// Fig 5a: function breakdown at 2048 cores, 28M cells.
fn fig5a(machine: &Machine) {
    header("Fig 5a: pressure solver (28M) function breakdown at 2048 cores");
    let model = PressureTraceModel::new(PressureConfig::swirl_28m());
    let (step, _, ph) = model.profile(2048, machine, 4);
    let total = step * 4.0;
    println!(
        "{:>18} {:>10} {:>10} {:>10} {:>12}",
        "function", "total", "compute", "comm", "comm frac"
    );
    for phase in PressurePhase::ALL {
        if phase == PressurePhase::Setup {
            continue;
        }
        let id = phase.id() as usize;
        let comp = ph.compute[id].iter().sum::<f64>() / 2048.0 / total;
        let comm = ph.comm[id].iter().sum::<f64>() / 2048.0 / total;
        println!(
            "{:>18} {:>9.1}% {:>9.1}% {:>9.1}% {:>11.1}%",
            phase.name(),
            (comp + comm) * 100.0,
            comp * 100.0,
            comm * 100.0,
            comm / (comp + comm).max(1e-12) * 100.0
        );
    }
    println!("paper: pressure field 46% (25% compute + 21% comm); spray next, 96% comm");
}

/// Fig 5b: per-function parallel efficiency, 128→2048 cores.
fn fig5b(machine: &Machine) {
    header("Fig 5b: per-function parallel efficiency (28M), 128→2048 cores");
    let model = PressureTraceModel::new(PressureConfig::swirl_28m());
    let sweep = [128usize, 256, 512, 1024, 2048];
    let mut elapsed: Vec<Vec<f64>> = vec![Vec::new(); 5];
    let mut overall = Vec::new();
    for &p in &sweep {
        let (step, _, ph) = model.profile(p, machine, 2);
        overall.push(step * 2.0);
        for phase in PressurePhase::ALL.iter().take(5) {
            elapsed[phase.id() as usize].push(ph.elapsed(phase.id() as usize));
        }
    }
    print!("{:>8}", "ranks");
    for phase in PressurePhase::ALL.iter().take(5) {
        print!(" {:>16}", phase.name());
    }
    println!(" {:>10}", "overall");
    for (i, &p) in sweep.iter().enumerate() {
        print!("{p:>8}");
        for e in &elapsed {
            let pe = (e[0] * sweep[0] as f64) / (e[i] * p as f64);
            print!(" {pe:>16.2}");
        }
        let pe = (overall[0] * sweep[0] as f64) / (overall[i] * p as f64);
        println!(" {pe:>10.2}");
    }
    println!("paper: spray drops below 50% PE at ~256 cores (2 nodes)");
}

/// Fig 6a: predicted pressure-solver PE before and after optimizations.
fn fig6a(machine: &Machine) {
    header("Fig 6a: pressure solver PE before/after §IV optimizations (28M)");
    let base = pressure_series(PressureConfig::swirl_28m(), &SWEEP_SMALL, machine);
    let opt = pressure_series(
        PressureConfig::swirl_28m().optimized(),
        &SWEEP_SMALL,
        machine,
    );
    println!("{:>8} {:>12} {:>12}", "ranks", "PE base", "PE optimized");
    for i in 0..base.points.len() {
        println!(
            "{:>8} {:>12.2} {:>12.2}",
            base.points[i].0,
            base.parallel_efficiency()[i].1,
            opt.parallel_efficiency()[i].1
        );
    }
    println!("paper: even with perfect spray, base code ~60% PE at 2048; optimized holds higher");
}

/// Fig 6b/6c: optimized pressure solver vs Optimized-STC.
fn fig6bc(machine: &Machine) {
    header("Fig 6b/6c: optimized pressure solver vs Optimized-STC (380M)");
    let sweep = [1000usize, 2000, 4000, 8000, 16_000, 32_201];
    let a = pressure_series(PressureConfig::full_380m().optimized(), &sweep, machine);
    let b = simpic_series(SimpicConfig::optimized_stc(), &sweep, machine);
    print!("{}", comparison_table(&a, &b));
    println!(
        "{:>8} {:>10} {:>10} {:>8} {:>8}",
        "ranks", "spdup A", "spdup B", "PE A", "PE B"
    );
    for i in 0..a.points.len() {
        println!(
            "{:>8} {:>10.2} {:>10.2} {:>8.2} {:>8.2}",
            a.points[i].0,
            a.speedup()[i].1,
            b.speedup()[i].1,
            a.parallel_efficiency()[i].1,
            b.parallel_efficiency()[i].1
        );
    }
    println!("paper: Optimized-STC matches the optimized solver within ~7%");
}

fn small_grid() -> Vec<usize> {
    vec![100, 200, 400, 800, 1600, 3200, 5000]
}

/// Fig 8a: small 150M/28M validation on 5,000 cores.
fn fig8a(machine: &Machine) {
    header("Fig 8a: small coupled test (2×MG-CFD Rotor37 150M + SIMPIC 28M), 5,000 cores");
    let scenario = testcases::small_150m_28m(StcVariant::Base);
    let models = model::build_models_with_grid(&scenario, machine, 100.0, &small_grid());
    let alloc = model::allocate_scenario(&models, 5000);
    let run = sim::run_coupled_with(&scenario, &alloc, machine, 20, Some((0.04, 17)));
    println!(
        "{:>20} {:>8} {:>14} {:>14} {:>8}",
        "instance", "ranks", "predicted (s)", "measured (s)", "err"
    );
    let mut worst: f64 = 0.0;
    for (i, app) in scenario.apps.iter().enumerate() {
        // "Measured" = the instance's runtime inside the coupled run
        // (includes coupling waits), as in the paper's validation.
        let measured = run.app_runtimes[i];
        let err = (alloc.app_times[i] - measured).abs() / measured;
        worst = worst.max(err);
        println!(
            "{:>20} {:>8} {:>14.1} {:>14.1} {:>7.1}%",
            app.name,
            alloc.app_ranks[i],
            alloc.app_times[i],
            measured,
            err * 100.0
        );
    }
    for (i, cu) in scenario.cus.iter().enumerate() {
        println!(
            "{:>20} {:>8} {:>14.2}",
            cu.name, alloc.cu_ranks[i], alloc.cu_times[i]
        );
    }
    println!(
        "coupled runtime: predicted {:.1}s, measured {:.1}s; worst instance error {:.0}%",
        alloc.predicted_runtime(),
        run.total_runtime,
        worst * 100.0
    );
    println!("paper: 331+331 ranks MG-CFD, 4,253 SIMPIC, 63+22 CU; max error 18%");
}

/// Fig 8b: mesh sizes of the large test case.
fn fig8b() {
    header("Fig 8b: HPC-Combustor-HPT component mesh sizes");
    let s = testcases::large_engine(StcVariant::Base);
    println!("{:>4} {:>20} {:>12}", "#", "instance", "cells");
    for (i, app) in s.apps.iter().enumerate() {
        println!("{:>4} {:>20} {:>11.0}M", i + 1, app.name, app.cells / 1.0e6);
    }
    println!(
        "effective total: {:.2}Bn cells (paper: 1.25Bn)",
        s.total_cells() / 1.0e9
    );
}

fn large_grid() -> Vec<usize> {
    vec![100, 200, 400, 800, 1600, 3200, 6400, 12_800, 25_600, 40_000]
}

/// Fig 9a: per-instance prediction error at 40,000 cores.
fn fig9a(machine: &Machine) {
    header("Fig 9a: per-instance % error, predicted vs measured, 40,000 cores");
    for variant in [StcVariant::Base, StcVariant::Optimized] {
        let mut scenario = testcases::large_engine(variant);
        scenario.density_iters = 10; // "equivalent of 20 pressure-solver steps"
        let models = model::build_models_with_grid(&scenario, machine, 10.0, &large_grid());
        let alloc = model::allocate_scenario(&models, 40_000);
        let run = sim::run_coupled_with(&scenario, &alloc, machine, 10, Some((0.04, 29)));
        let mut errs = Vec::new();
        println!("\n{}:", scenario.name);
        println!(
            "{:>20} {:>8} {:>13} {:>13} {:>8}",
            "instance", "ranks", "predicted", "measured", "err"
        );
        for (i, app) in scenario.apps.iter().enumerate() {
            let measured = run.app_runtimes[i];
            let err = (alloc.app_times[i] - measured).abs() / measured;
            errs.push(err);
            println!(
                "{:>20} {:>8} {:>12.1}s {:>12.1}s {:>7.1}%",
                app.name,
                alloc.app_ranks[i],
                alloc.app_times[i],
                measured,
                err * 100.0
            );
        }
        let max = errs.iter().copied().fold(0.0, f64::max);
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        println!("worst error {:.0}%, mean {:.0}%", max * 100.0, mean * 100.0);
    }
    println!("\npaper: worst case 25%, mean 12%");
}

/// Fig 9b (allocation table) and Fig 9c (speedup of Optimized-STC over
/// Base-STC for one revolution).
fn fig9bc(machine: &Machine, show_alloc: bool, show_speedup: bool) {
    let mut results = Vec::new();
    for variant in [StcVariant::Base, StcVariant::Optimized] {
        let scenario = testcases::large_engine(variant); // 1,000 density steps
        let models = model::build_models_with_grid(&scenario, machine, 1000.0, &large_grid());
        let alloc = model::allocate_scenario(&models, 40_000);
        let run = sim::run_coupled_with(&scenario, &alloc, machine, 20, Some((0.04, 43)));
        results.push((scenario, alloc, run));
    }

    if show_alloc {
        header("Fig 9b: rank allocation per instance (40,000-core budget)");
        println!(
            "{:>4} {:>20} {:>10} {:>12} {:>16}",
            "#", "instance", "mesh", "Base-STC", "Optimized-STC"
        );
        let (s, a_base, _) = &results[0];
        let (_, a_opt, _) = &results[1];
        for (i, app) in s.apps.iter().enumerate() {
            println!(
                "{:>4} {:>20} {:>9.0}M {:>12} {:>16}",
                i + 1,
                app.name,
                app.cells / 1.0e6,
                a_base.app_ranks[i],
                a_opt.app_ranks[i]
            );
        }
        let cu_total_base: usize = a_base.cu_ranks.iter().sum();
        let cu_total_opt: usize = a_opt.cu_ranks.iter().sum();
        println!(
            "{:>4} {:>20} {:>10} {:>12} {:>16}",
            "-", "coupler units", "-", cu_total_base, cu_total_opt
        );
        println!("paper: SIMPIC 13,428 (Base) / 32,201 (Optimized) of 40,000");
    }

    if show_speedup {
        header("Fig 9c: one-revolution speedup, Optimized-STC over Base-STC");
        let (_, a_base, r_base) = &results[0];
        let (_, a_opt, r_opt) = &results[1];
        let pred = a_base.predicted_runtime() / a_opt.predicted_runtime();
        let meas = r_base.total_runtime / r_opt.total_runtime;
        println!(
            "predicted: base {:.0}s, optimized {:.0}s -> speedup {pred:.2}x",
            a_base.predicted_runtime(),
            a_opt.predicted_runtime()
        );
        println!(
            "measured:  base {:.0}s, optimized {:.0}s -> speedup {meas:.2}x",
            r_base.total_runtime, r_opt.total_runtime
        );
        println!(
            "model error: base {:.0}%, optimized {:.0}%",
            (a_base.predicted_runtime() - r_base.total_runtime).abs() / r_base.total_runtime
                * 100.0,
            (a_opt.predicted_runtime() - r_opt.total_runtime).abs() / r_opt.total_runtime * 100.0
        );
        println!(
            "coupling overhead: base {:.2}%, optimized {:.2}%",
            r_base.coupling_overhead * 100.0,
            r_opt.coupling_overhead * 100.0
        );
        println!("paper: predicted ~6x, measured ~4x, model error <25%, coupling <0.5%");
    }
}
