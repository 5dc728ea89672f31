//! Predicted-vs-measured validation study.
//!
//! ```text
//! cargo run -p cpx-bench --release --bin validation_study -- \
//!     [out.json] [--trace dual_trace.json]
//! ```
//!
//! Closes the paper's loop (Fig 9a) end to end:
//!
//! 1. times a representative kernel from each hot crate (`spmv`,
//!    `hybrid_gs_sweep`, `particle_push`, `spray_update`) across thread
//!    counts, fits the four-term strong-scaling model and scores its
//!    predictions against the measurements (in-sample MAPE + signed
//!    bias, plus a widest-thread-count holdout);
//! 2. compares the Algorithm-1 allocation's predicted per-app and total
//!    runtimes against a measured coupled testbed run;
//! 3. writes `BENCH_validation.json` (default) and prints the
//!    human-readable report;
//! 4. gates on regressions: if the output path already holds a
//!    *committed baseline*, any kernel whose MAPE exceeds its baseline
//!    by more than [`TOLERANCE_PP`] percentage points fails the run.
//!
//! With `--trace PATH` it also writes a dual-lane Chrome trace of the
//! same AMG V-cycles seen by the virtual work-model clock and the wall
//! clock side by side. Wall numbers are hardware truth: never
//! byte-compare this binary's outputs.

use std::time::Instant;

use cpx_bench::{median, write_text};
use cpx_core::prelude::*;
use cpx_obs::{dual_chrome_trace_json, Json, TraceSession, WallRecorder};
use cpx_par::ParPool;
use cpx_perfmodel::{KernelValidation, MeasuredScaling, PredictionPair, ValidationReport};
use cpx_pressure::spray::SprayCloud;
use cpx_simpic::config::SimpicConfig;
use cpx_simpic::pic::Pic1D;
use cpx_sparse::Csr;

/// Version of the `BENCH_validation.json` schema (see EXPERIMENTS.md).
const SCHEMA_VERSION: u32 = 1;

/// Thread counts swept for the kernel lane.
const THREADS: &[usize] = &[1, 2, 4, 8];

/// Fixed chunk count (determinism contract keys results to chunks).
const CHUNKS: usize = 8;

/// MAPE regression (percentage points over the committed baseline)
/// that fails the run.
const TOLERANCE_PP: f64 = 30.0;

/// Median wall time of `run` at every thread count.
fn measure(name: &str, reps: usize, mut run: impl FnMut(&ParPool)) -> MeasuredScaling {
    let mut samples = Vec::new();
    for &t in THREADS {
        let pool = ParPool::with_threads(t);
        run(&pool); // warm-up
        let times: Vec<f64> = (0..reps)
            .map(|_| {
                let start = Instant::now();
                run(&pool);
                start.elapsed().as_secs_f64()
            })
            .collect();
        samples.push((t, median(times)));
    }
    MeasuredScaling::new(name, samples)
}

fn pair_json(p: &PredictionPair) -> Json {
    Json::obj(vec![
        ("label", Json::Str(p.label.clone())),
        ("threads", Json::Num(p.threads as f64)),
        ("predicted_s", Json::Num(p.predicted)),
        ("measured_s", Json::Num(p.measured)),
        ("signed_pe_pct", Json::Num(p.signed_pe())),
    ])
}

/// Extract `(kernel, mape_pct)` entries from a previously written
/// validation document, tolerating schema drift (missing fields are
/// simply skipped — a malformed baseline must not brick the gate).
fn baseline_mapes(text: &str) -> Vec<(String, f64)> {
    let Ok(doc) = Json::parse(text) else {
        return Vec::new();
    };
    let Some(kernels) = doc.get("kernels").and_then(Json::as_arr) else {
        return Vec::new();
    };
    kernels
        .iter()
        .filter_map(|k| {
            let name = k.get("name")?.as_str()?;
            let mape = k.get("mape_pct")?.as_f64()?;
            Some((name.to_string(), mape))
        })
        .collect()
}

fn main() {
    let mut out_path = "BENCH_validation.json".to_string();
    let mut trace_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--trace" {
            trace_path = Some(args.next().expect("--trace needs a path"));
        } else {
            out_path = arg;
        }
    }
    let reps = 3;

    // --- Kernel lane ----------------------------------------------------
    let mut kernels = Vec::new();
    {
        let a = Csr::poisson3d(24, 24, 24);
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64).sin()).collect();
        let mut y = vec![0.0; a.nrows()];
        kernels.push(measure("spmv", reps, |pool| {
            a.spmv_with(pool, CHUNKS, &x, &mut y);
        }));
    }
    {
        let a = Csr::poisson2d(128, 128);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let smoother = cpx_amg::Smoother::HybridGaussSeidel { blocks: 16 };
        let mut x = vec![0.0; n];
        kernels.push(measure("hybrid_gs_sweep", reps, |pool| {
            smoother.sweep_with(pool, &a, &b, &mut x);
        }));
    }
    {
        let cfg = SimpicConfig::base_28m().functional(512, 10);
        let mut pic = Pic1D::quiet_start(&cfg, 0.02, 7);
        pic.solve_field();
        kernels.push(measure("particle_push", reps, |pool| {
            pic.push_with(pool, CHUNKS);
        }));
    }
    {
        let mut cloud = SprayCloud::inject(50_000, 11);
        let fluid = |x: [f64; 3]| [1.0 - x[1], 0.1 * x[0], 0.0];
        kernels.push(measure("spray_update", reps, |pool| {
            cloud.update_with(pool, CHUNKS, 0.01, fluid);
        }));
    }
    let kernel_validations: Vec<KernelValidation> =
        kernels.iter().map(KernelValidation::from_scaling).collect();

    // --- Coupled lane (Alg 1 prediction vs measured testbed run) --------
    let machine = Machine::archer2();
    let scenario = testcases::small_150m_28m(StcVariant::Base);
    let models = model::build_models_with_grid(
        &scenario,
        &machine,
        scenario.density_iters as f64,
        &[100, 400, 1600],
    );
    let alloc = model::allocate_scenario(&models, 1200);
    let run = sim::run_coupled_with(&scenario, &alloc, &machine, 20, None);
    let mut coupled = Vec::new();
    for (i, app) in scenario.apps.iter().enumerate() {
        coupled.push(PredictionPair::new(
            &app.name,
            alloc.app_ranks[i],
            alloc.app_times[i],
            run.app_runtimes[i],
        ));
    }
    coupled.push(PredictionPair::new(
        "coupled total",
        alloc.total_ranks(),
        alloc.predicted_runtime(),
        run.total_runtime,
    ));

    let report = ValidationReport {
        kernels: kernel_validations,
        coupled,
    };

    // --- Optional dual-lane trace (virtual vs wall, same V-cycles) ------
    if let Some(path) = &trace_path {
        let a = Csr::poisson2d(96, 96);
        let n = a.nrows();
        let rhs: Vec<f64> = (0..n).map(|i| ((i % 11) as f64) - 5.0).collect();
        let h = cpx_amg::Hierarchy::build(a, cpx_amg::HierarchyConfig::default());
        let cycles = 5;
        let (_, virt) = cpx_amg::profile_vcycles(&h, &rhs, cycles);
        let mut wall = WallRecorder::on();
        let mut x = vec![0.0; n];
        for c in 0..cycles {
            wall.span(format!("vcycle {c}"), || {
                cpx_amg::vcycle(&h, 0, &rhs, &mut x)
            });
        }
        let wall_session = TraceSession::new(vec![wall.into_timeline(0)]);
        let dual = dual_chrome_trace_json(&virt, &wall_session);
        write_text(path, &dual);
        println!("(dual-lane trace written to {path})");
    }

    // --- Regression gate against the committed baseline -----------------
    let regressions = match std::fs::read_to_string(&out_path) {
        Ok(text) => report.regressions(&baseline_mapes(&text), TOLERANCE_PP),
        Err(_) => Vec::new(), // no baseline: first run seeds it
    };

    // --- Artifact --------------------------------------------------------
    let kernels_json: Vec<Json> = report
        .kernels
        .iter()
        .map(|k| {
            Json::obj(vec![
                ("name", Json::Str(k.name.clone())),
                ("mape_pct", Json::Num(k.mape())),
                ("signed_bias_pct", Json::Num(k.signed_bias())),
                ("holdout", k.holdout.as_ref().map_or(Json::Null, pair_json)),
                ("pairs", Json::Arr(k.pairs.iter().map(pair_json).collect())),
            ])
        })
        .collect();
    let doc = Json::obj(vec![
        ("schema_version", Json::Num(SCHEMA_VERSION as f64)),
        ("tolerance_pp", Json::Num(TOLERANCE_PP)),
        (
            "overall_kernel_mape_pct",
            Json::Num(report.overall_kernel_mape()),
        ),
        ("coupled_mape_pct", Json::Num(report.coupled_mape())),
        ("kernels", Json::Arr(kernels_json)),
        (
            "coupled",
            Json::Arr(report.coupled.iter().map(pair_json).collect()),
        ),
    ]);
    write_text(&out_path, &doc.write_pretty());

    println!("{}", cpx_core::report::validation_markdown(&report));
    println!("(written to {out_path})");

    if !regressions.is_empty() {
        for r in &regressions {
            eprintln!("MAPE regression: {r}");
        }
        std::process::exit(1);
    }
}
