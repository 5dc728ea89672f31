//! Observability study: deterministic virtual-time traces, a
//! flamegraph, a metrics snapshot and Fig-5-style phase profiles.
//!
//! ```text
//! cargo run --release --example profile_study [outdir]
//! ```
//!
//! Writes five artifacts to `outdir` (default `target/profile_study`):
//!
//! * `pressure_trace.json` — Chrome trace-event JSON of a detailed
//!   pressure-solver replay, one lane per rank, AMG sub-phases visible
//!   (load in Perfetto or `chrome://tracing`);
//! * `comm_trace.json` — Chrome trace of a 16-rank halo + allreduce
//!   program under a lossy fault plan (drop-triggered retries and CRC
//!   checks show up as spans and counters);
//! * `flamegraph.folded` — collapsed stacks of the comm run, ready for
//!   `inferno-flamegraph` / `flamegraph.pl`;
//! * `metrics.json` — counters plus p50/p95/p99 histograms over
//!   per-rank phase times;
//! * `study.md` — a coupled-study report with the Fig-5 pressure-solver
//!   share table and a per-app/per-CU-stage coupled breakdown.
//!
//! Every artifact is generated **twice** and byte-compared; any
//! divergence makes the example exit non-zero, so CI can run it as a
//! determinism gate. It also measures recorder overhead three ways:
//! profiled vs plain AMG V-cycles (spans around real numerics), the
//! threaded comm runtime traced vs untraced (spans around virtual
//! work — the worst case), and the traced DES replay's cost per span.

use std::time::Instant;

use cpx_comm::{FaultPlan, RankCtx, RankOutcome, ReduceOp, World};
use cpx_core::prelude::*;
use cpx_core::report::markdown_report_with;
use cpx_machine::Replayer;
use cpx_obs::{chrome_trace_json, collapsed_stacks, metrics_json};
use cpx_pressure::{PressureConfig, PressureTraceModel};

const COMM_RANKS: usize = 16;
const COMM_ITERS: usize = 12;
const FAULT_SEED: u64 = 42;

/// The comm workload: per iteration a ring halo exchange, a relaxation
/// kernel and a mean-field allreduce, all inside recorder spans.
fn comm_program(ctx: &mut RankCtx) -> f64 {
    let group = ctx.world();
    let (rank, size) = (ctx.rank(), ctx.size());
    let mut acc = rank as f64;
    for _ in 0..COMM_ITERS {
        ctx.obs_begin("iter");
        ctx.obs_begin("halo");
        ctx.send((rank + 1) % size, 7, vec![acc; 256]);
        let _ = ctx.recv((rank + size - 1) % size, 7);
        ctx.obs_end();
        ctx.obs_begin("relax");
        ctx.compute_secs(2.0e-4);
        ctx.obs_end();
        acc = group.allreduce_scalar(ctx, ReduceOp::Sum, acc) / size as f64;
        ctx.obs_end();
    }
    acc
}

fn lossy_plan() -> FaultPlan {
    FaultPlan::new(FAULT_SEED).with_drop_prob(0.08)
}

struct Artifacts {
    pressure_trace: String,
    comm_trace: String,
    flamegraph: String,
    metrics: String,
    study: String,
}

fn generate(machine: &Machine) -> Artifacts {
    // 1. Detailed pressure-solver replay: 64 ranks, 2 steps, AMG
    //    sub-phases labelled.
    let model = PressureTraceModel::new(PressureConfig::swirl_28m());
    let program = model.build_program(64, machine, 2, true);
    let names = cpx_pressure::trace::detailed_phase_names();
    let (_, pressure_session) = Replayer::new(machine.clone())
        .run_traced(&program, &names)
        .expect("pressure replay");

    // 2. Threaded comm run under a lossy fault plan; every rank must
    //    survive (drops are retried transparently).
    let world = World::new(machine.clone());
    let (runs, comm_session) = world.run_with_plan_traced(COMM_RANKS, lossy_plan(), comm_program);
    assert!(
        runs.iter()
            .all(|r| matches!(r.outcome, RankOutcome::Completed(_))),
        "lossy comm run must complete on every rank"
    );
    let retries = comm_session.counter("retries");
    assert!(retries > 0, "an 8% drop rate must force at least one retry");

    // 3. Coupled study + phase profiles.
    let scenario = testcases::small_150m_28m(StcVariant::Base);
    let models = model::build_models_with_grid(
        &scenario,
        machine,
        scenario.density_iters as f64,
        &[100, 400, 1600],
    );
    let alloc = model::allocate_scenario(&models, 1200);
    let run = sim::run_coupled_with(&scenario, &alloc, machine, 8, None);
    let (phase_names, out, _) = sim::trace_coupled(&scenario, &alloc, machine, 8);
    let coupled = PhaseProfile::coupled(&scenario, &phase_names, &out.phases);

    let fig5 = PhaseProfile::pressure_fig5(PressureConfig::swirl_28m(), 2048, machine, 2);
    let share_sum: f64 = fig5.shares().iter().sum();
    assert!(
        (share_sum - 100.0).abs() < 0.1,
        "fig5 shares sum to {share_sum}"
    );
    assert!(fig5.rows.iter().any(|r| r.name.contains("amg")));
    assert!(fig5.rows.iter().any(|r| r.name.contains("spray")));

    let study = format!(
        "{}\n{}",
        markdown_report_with(&scenario, &alloc, &run, Some(&fig5)),
        coupled.to_markdown()
    );

    Artifacts {
        pressure_trace: chrome_trace_json(&pressure_session),
        comm_trace: chrome_trace_json(&comm_session),
        flamegraph: collapsed_stacks(&comm_session),
        metrics: metrics_json(&comm_session, &[("world_size", COMM_RANKS as f64)]).write_pretty(),
        study,
    }
}

/// Minimum wall time of `f` over `reps` runs (the standard
/// noise-suppressing statistic for micro-measurements).
fn wall_min(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let outdir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/profile_study".to_string());
    std::fs::create_dir_all(&outdir).expect("create outdir");
    let machine = Machine::archer2();

    let a = generate(&machine);
    let b = generate(&machine);
    let pairs = [
        ("pressure_trace.json", &a.pressure_trace, &b.pressure_trace),
        ("comm_trace.json", &a.comm_trace, &b.comm_trace),
        ("flamegraph.folded", &a.flamegraph, &b.flamegraph),
        ("metrics.json", &a.metrics, &b.metrics),
        ("study.md", &a.study, &b.study),
    ];
    let mut deterministic = true;
    for (name, first, second) in pairs {
        if first == second {
            std::fs::write(format!("{outdir}/{name}"), first).expect("write artifact");
            println!(
                "wrote {outdir}/{name} ({} bytes, deterministic)",
                first.len()
            );
        } else {
            eprintln!("DETERMINISM DIVERGENCE: {name} differs between identical runs");
            deterministic = false;
        }
    }

    // Recorder overhead on real numerics: AMG V-cycles on a Poisson
    // problem, plain vs profiled. A disabled recorder is a
    // branch-on-a-bool no-op, so the "off" cost is the plain loop.
    let a = cpx_sparse::Csr::poisson2d(192, 192);
    let n = a.nrows();
    let rhs: Vec<f64> = (0..n).map(|i| ((i % 11) as f64) - 5.0).collect();
    let h = cpx_amg::Hierarchy::build(a, cpx_amg::HierarchyConfig::default());
    let cycles = 10;
    let reps = 15;
    let plain = wall_min(reps, || {
        let mut x = vec![0.0; n];
        for _ in 0..cycles {
            cpx_amg::vcycle(&h, 0, &rhs, &mut x);
        }
    });
    let profiled = wall_min(reps, || {
        let _ = cpx_amg::profile_vcycles(&h, &rhs, cycles);
    });
    println!(
        "recorder overhead ({} AMG V-cycles, {} dofs): {:.2} ms plain vs {:.2} ms profiled ({:+.2}%)",
        cycles,
        n,
        plain * 1e3,
        profiled * 1e3,
        (profiled / plain - 1.0) * 100.0
    );

    // Recorder overhead on the threaded virtual runtime, where spans
    // wrap virtual (not wall) work — a worst case for relative cost.
    let world = World::new(machine.clone());
    let off = wall_min(reps, || {
        let _ = world.run_with_plan(COMM_RANKS, lossy_plan(), comm_program);
    });
    let on = wall_min(reps, || {
        let _ = world.run_with_plan_traced(COMM_RANKS, lossy_plan(), comm_program);
    });
    println!(
        "recorder overhead (comm runtime): {:.3} ms disabled vs {:.3} ms enabled ({:+.2}%)",
        off * 1e3,
        on * 1e3,
        (on / off - 1.0) * 100.0
    );

    // Per-worker utilization of a threaded kernel (stdout only: wall
    // telemetry is hardware truth and must never enter the
    // byte-compared artifacts above).
    {
        let a = cpx_sparse::Csr::poisson3d(24, 24, 24);
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64).sin()).collect();
        let mut y = vec![0.0; a.nrows()];
        let pool = cpx_par::ParPool::with_threads(4);
        let ((), tel) = cpx_par::with_telemetry(|| {
            for _ in 0..5 {
                a.spmv_with(&pool, 8, &x, &mut y);
            }
        });
        println!(
            "spmv worker utilization ({} workers, {} chunks): {:.1}% busy, \
             imbalance {:.2}, worker busy p50/p95/p99 {:.3}/{:.3}/{:.3} ms",
            tel.workers,
            tel.chunks.len(),
            tel.utilization() * 100.0,
            tel.imbalance(),
            tel.worker_busy_percentile(50.0) * 1e3,
            tel.worker_busy_percentile(95.0) * 1e3,
            tel.worker_busy_percentile(99.0) * 1e3,
        );
    }

    // Per-span cost of the traced DES replayer (an opt-in exporter with
    // far finer span granularity than any real phase).
    let model = PressureTraceModel::new(PressureConfig::swirl_28m());
    let program = model.build_program(256, &machine, 4, true);
    let names = cpx_pressure::trace::detailed_phase_names();
    let replayer = Replayer::new(machine.clone());
    let plain = wall_min(reps, || {
        replayer.run(&program).expect("replay");
    });
    let traced = wall_min(reps, || {
        replayer.run_traced(&program, &names).expect("replay");
    });
    let (_, session) = replayer.run_traced(&program, &names).expect("replay");
    println!(
        "traced replay: {:.2} ms vs {:.2} ms plain over {} spans ({:.0} ns/span)",
        traced * 1e3,
        plain * 1e3,
        session.total_spans(),
        (traced - plain).max(0.0) * 1e9 / session.total_spans().max(1) as f64
    );

    if !deterministic {
        std::process::exit(1);
    }
}
