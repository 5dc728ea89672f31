//! Quickstart: build the coupled scenario, fit the empirical model, run
//! Algorithm 1, and validate the prediction against a coupled virtual
//! run — the paper's whole workflow in ~30 lines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cpx_core::prelude::*;

fn main() {
    // The small validation case: two MG-CFD Rotor 37 instances and a
    // SIMPIC pressure proxy (Fig 8a), on an ARCHER2-class machine.
    let scenario = testcases::small_150m_28m(StcVariant::Base);
    let machine = Machine::archer2();
    println!(
        "scenario: {} ({:.0}M cells effective)",
        scenario.name,
        scenario.total_cells() / 1e6
    );

    // 1. Benchmark the mini-apps standalone and fit runtime curves
    //    (Fig 7 workflow). The grid is the rank counts benchmarked.
    let models = model::build_models_with_grid(
        &scenario,
        &machine,
        scenario.density_iters as f64,
        &[100, 200, 400, 800, 1600, 3200, 5000],
    );

    // 2. Algorithm 1: distribute a 5,000-core budget.
    let alloc = model::allocate_scenario(&models, 5000);
    for (app, (&ranks, &time)) in scenario
        .apps
        .iter()
        .zip(alloc.app_ranks.iter().zip(&alloc.app_times))
    {
        println!(
            "  {:<20} {:>5} ranks, predicted {:>8.1}s",
            app.name, ranks, time
        );
    }
    println!(
        "predicted coupled runtime: {:.1}s",
        alloc.predicted_runtime()
    );

    // 3. Run the coupled simulation on the virtual testbed and compare.
    let run = sim::run_coupled_with(&scenario, &alloc, &machine, 20, None);
    println!(
        "measured coupled runtime:  {:.1}s (coupling overhead {:.2}%)",
        run.total_runtime,
        run.coupling_overhead * 100.0
    );
    let err = (alloc.predicted_runtime() - run.total_runtime).abs() / run.total_runtime;
    println!("prediction error: {:.1}%", err * 100.0);
}
