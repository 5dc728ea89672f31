//! The full HPC–Combustor–HPT engine simulation (§V-B): sixteen solver
//! instances (1.25Bn effective cells), fifteen coupler units, a
//! 40,000-core budget — the paper's production-representative case.
//!
//! ```text
//! cargo run --release --example coupled_engine [budget]
//! ```

use cpx_core::prelude::*;

fn main() {
    let budget: usize = match std::env::args().nth(1) {
        None => 40_000,
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("usage: coupled_engine [budget]");
            std::process::exit(2)
        }),
    };
    let machine = Machine::archer2();
    let grid = [
        100usize, 200, 400, 800, 1600, 3200, 6400, 12_800, 25_600, 40_000,
    ];

    for variant in [StcVariant::Base, StcVariant::Optimized] {
        let scenario = testcases::large_engine(variant);
        println!(
            "\n=== {} | one revolution (1,000 density steps) ===",
            scenario.name
        );
        let models = model::build_models_with_grid(&scenario, &machine, 1000.0, &grid);
        let alloc = model::allocate_scenario(&models, budget);

        println!(
            "{:>4} {:>20} {:>9} {:>8} {:>14}",
            "#", "instance", "mesh", "ranks", "predicted"
        );
        for (i, app) in scenario.apps.iter().enumerate() {
            println!(
                "{:>4} {:>20} {:>8.0}M {:>8} {:>13.0}s",
                i + 1,
                app.name,
                app.cells / 1e6,
                alloc.app_ranks[i],
                alloc.app_times[i]
            );
        }
        println!(
            "allocated {} of {budget} ranks ({} to coupler units)",
            alloc.total_ranks(),
            alloc.cu_ranks.iter().sum::<usize>()
        );

        let run = sim::run_coupled_with(&scenario, &alloc, &machine, 20, None);
        println!(
            "predicted {:.0}s | measured {:.0}s | error {:.1}% | coupling overhead {:.2}%",
            alloc.predicted_runtime(),
            run.total_runtime,
            (alloc.predicted_runtime() - run.total_runtime).abs() / run.total_runtime * 100.0,
            run.coupling_overhead * 100.0
        );
        println!("bottleneck: {}", scenario.apps[alloc.bottleneck_app()].name);

        // Resilience: lose one rank of the bottleneck instance halfway
        // through the revolution, checkpointing every 100 iterations.
        let crash_app = alloc.bottleneck_app();
        let faulty = scenario.clone().with_fault(
            FaultScenario::crash(crash_app, run.total_runtime * 0.5).with_checkpoint_interval(100),
        );
        let res = sim::run_coupled_with(&faulty, &alloc, &machine, 20, None);
        println!(
            "with a rank lost in {}: +{:.0}s recovery overhead ({:.1}%), \
             {:.0}s in checkpoints, {} fault(s) survived",
            scenario.apps[crash_app].name,
            res.recovery_overhead,
            res.recovery_overhead / res.total_runtime * 100.0,
            res.checkpoint_cost,
            res.faults_survived
        );
    }
}
