//! Run a coupled study and archive it as a Markdown report — the
//! artifact you would keep next to the job logs of a real campaign.
//!
//! ```text
//! cargo run --release --example report_study [budget] [out.md]
//! ```

use cpx_core::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let budget: usize = match args.next() {
        None => 5000,
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("usage: report_study [budget] [out.md]");
            std::process::exit(2)
        }),
    };
    let out_path = args.next().unwrap_or_else(|| "study_report.md".to_string());

    let machine = Machine::archer2();
    let scenario = testcases::small_150m_28m(StcVariant::Base);
    let models = model::build_models_with_grid(
        &scenario,
        &machine,
        scenario.density_iters as f64,
        &[100, 200, 400, 800, 1600, 3200, budget.max(3200)],
    );
    let alloc = model::allocate_scenario(&models, budget);
    let run = sim::run_coupled_with(&scenario, &alloc, &machine, 20, None);

    let report = markdown_report(&scenario, &alloc, &run);
    if let Some(dir) = std::path::Path::new(&out_path)
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
    {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    std::fs::write(&out_path, &report).expect("write report");
    println!("{report}");
    println!("(written to {out_path})");
}
