//! Critical-path analytics and the what-if speedup explainer over the
//! coupled run.
//!
//! ```text
//! cargo run -p cpx-bench --release --bin critical_study -- \
//!     [BENCH_critical.json] [chrome_trace.json]
//! ```
//!
//! Builds the happens-before task graph of the small coupled case (the
//! exact `bench_coupled` configuration), proves the graph's forward
//! pass reproduces the DES replay bit-for-bit, extracts and attributes
//! the critical path, and runs the what-if engine over
//! {spmv, hybrid_gs, spray, coupler exchange} × {1.5×, 2×, 4×}.
//!
//! Three validation gates run against ground truth the repo already
//! owns; any failure exits non-zero:
//!
//! 1. **SELL gate** — the measured SELL-C-σ spmv speedup from the
//!    committed `BENCH_kernels.json` is blended into the simpic phase
//!    (Amdahl within the phase, spmv share taken from the pressure
//!    solver's detailed profile) and the predicted coupled-run delta
//!    must match the measured one — a genuine DES re-replay of the
//!    rescaled programs — within [`TOLERANCE`].
//! 2. **STC cross-check** — a hand-built two-lane overlap graph over
//!    the committed `BENCH_stc.json` per-step timings must reproduce
//!    the study's measured `virtual_speedup` to 1e-9.
//! 3. **Alg-1 cross-check** — the graph's baseline per-iteration
//!    makespan must agree with `cpx-perfmodel`'s Algorithm-1
//!    prediction (`max(apps) + max(CUs)`) within 25%.
//!
//! The run is pure f64 graph analysis over deterministic traces, so
//! `BENCH_critical.json` and the critical-path Chrome trace are
//! byte-identical across thread counts and transport backends; CI
//! regenerates both twice and byte-compares.

use std::path::Path;
use std::process::ExitCode;

use cpx_bench::write_text;
use cpx_core::prelude::*;
use cpx_core::report::{critical_path_section, Report};
use cpx_machine::{
    build_task_graph, scale_compute_by_phase, validate_against_des, Machine, Replayer,
};
use cpx_obs::{
    blend_factor, critical_chrome_trace_json, path_report, Json, Rescale, SegClass, TaskGraph,
    TaskGraphBuilder,
};
use cpx_pressure::{PfSubPhase, PressureConfig, PressurePhase, PressureTraceModel};

/// SELL what-if gate: predicted vs measured relative error allowed on
/// both the simpic block factor and the coupled-run speedup.
const TOLERANCE: f64 = 0.05;

/// Agreement required between the two-lane overlap graph and the
/// committed STC study's own virtual speedup.
const STC_TOLERANCE: f64 = 1e-9;

/// Agreement required between the Alg-1 closed-form prediction and the
/// graph's per-iteration makespan. Alg 1 models apps and CUs as
/// non-overlapping (`max(apps) + max(CUs)`), so this is a coarse
/// cross-check, not a bit gate.
const ALG1_TOLERANCE: f64 = 0.25;

/// One row of the what-if table: kernel label, the `(phase, share)`
/// pairs its cost occupies, and whether the rescale also divides the
/// coupler gather/scatter transfer tags.
type KernelRow = (&'static str, Vec<(usize, f64)>, bool);

fn repo_root() -> std::path::PathBuf {
    // crates/bench -> crates -> repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("bench crate lives two levels under the repo root")
        .to_path_buf()
}

fn read_json(path: &Path) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{}: unreadable: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: invalid JSON: {e:?}", path.display()))
}

/// Kernel share of the simpic per-step runtime: seconds of
/// compute-class critical-path time in `phase` on the pressure
/// solver's own standalone graph, divided by the stepped part of the
/// makespan. Using the critical path (rather than rank-averaged
/// compute totals) makes the share track the imbalanced rank that
/// actually sets the per-step runtime, which is what the aggregate
/// simpic block in the coupled program measures.
fn pressure_path_share(path: &cpx_obs::CriticalPath, phase: u16, per_step: f64, steps: u32) -> f64 {
    let on_path: f64 = path
        .segments
        .iter()
        .filter(|s| s.phase == phase && s.class == SegClass::Compute)
        .map(cpx_obs::PathSegment::dur)
        .sum();
    on_path / (per_step * steps as f64)
}

/// Fraction of an MG-CFD rank's per-iteration compute spent in the
/// coarse multigrid smoothing sweeps (the hybrid-GS kernel). The
/// per-level cost is linear in cells, so the share is rank-independent
/// and can be taken from the instance totals.
fn mgcfd_gs_share(cfg: &cpx_mgcfd::MgCfdConfig, machine: &Machine) -> f64 {
    use cpx_mgcfd::trace::{BYTES_PER_CELL, FLOPS_PER_CELL};
    let mut total = 0.0;
    let mut coarse = 0.0;
    for level in 0..cfg.mg_levels {
        let cells = cfg.target_cells / 8f64.powi(level as i32);
        let sweeps = if level == 0 {
            1.0
        } else {
            cfg.smooth_sweeps as f64
        };
        let t = machine.kernel_time(cpx_machine::KernelCost::new(
            cells * FLOPS_PER_CELL * sweeps,
            cells * BYTES_PER_CELL * sweeps,
        ));
        total += t;
        if level > 0 {
            coarse += t;
        }
    }
    coarse / total
}

/// Two-lane overlap graph over the synchronous STC study's per-step
/// `(spray_s, solver_s)` pairs: lane 0 runs the solver, lane 1 the
/// spray, with a zero-cost barrier after every step. Its makespan is
/// the overlapped virtual time; the serial time is the plain sum.
fn stc_overlap_graph(per_step: &[(f64, f64)]) -> TaskGraph {
    let mut g = TaskGraphBuilder::new(2, vec!["(untracked)".to_string(), "stc".to_string()]);
    for &(spray, solver) in per_step {
        g.compute(0, 1, solver);
        g.compute(1, 1, spray);
        g.meet([(0, 1), (1, 1)], 0.0, "barrier");
    }
    g.finish().expect("the overlap graph fits the plan")
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_critical.json".to_string());
    let trace_path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "target/critical_trace.json".to_string());

    // ── The exact bench_coupled configuration ──────────────────────
    let machine = Machine::archer2();
    let scenario = testcases::small_150m_28m(StcVariant::Base);
    let models = model::build_models_with_grid(&scenario, &machine, 20.0, &[100, 400, 1600]);
    let alloc = model::allocate_scenario(&models, 1200);
    let sample_iters = 8u64;
    let names = sim::coupled_phase_names(&scenario);
    let (program, _layout) = sim::coupled_program_phased(&scenario, &alloc, &machine, sample_iters);

    // ── Happens-before graph, proven against the DES replay ────────
    let graph = build_task_graph(&program, &machine, &names).expect("coupled graph builds");
    let sched = graph.schedule(&Rescale::none()).expect("acyclic graph");
    let (outcome, events) = Replayer::new(machine.clone())
        .run_logged(&program)
        .expect("coupled program replays");
    assert_eq!(
        sched.makespan.to_bits(),
        outcome.makespan().to_bits(),
        "graph forward pass must reproduce the DES makespan bit-for-bit"
    );
    validate_against_des(&graph, &sched, &events).expect("graph timeline matches DES events");
    let base_makespan = sched.makespan;

    let path = graph.critical_path(&sched);
    let report = path_report(&graph, &path, 10);
    let attr = graph.attribution(&sched);

    // ── Kernel shares ──────────────────────────────────────────────
    // simpic is an aggregate block in the coupled program; the kernels
    // inside it are located with the pressure solver's own detailed
    // profile at simpic's allocated rank count.
    let simpic_idx = scenario
        .apps
        .iter()
        .position(|a| matches!(a.kind, AppKind::Simpic(_)))
        .expect("scenario has a simpic instance");
    let simpic_phase = 1 + simpic_idx;
    let p_simpic = alloc.app_ranks[simpic_idx];
    let pressure_cfg = {
        let cells = scenario.apps[simpic_idx].cells;
        if cells <= 30.0e6 {
            PressureConfig::swirl_28m()
        } else if cells <= 100.0e6 {
            PressureConfig::swirl_84m()
        } else {
            PressureConfig::full_380m()
        }
    };
    let pm = PressureTraceModel::new(pressure_cfg);
    let profile_steps = 4u32;
    let (per_step, setup_s, _breakdown) = pm.profile_detailed(p_simpic, &machine, profile_steps);
    let pressure_prog = pm.build_program(p_simpic, &machine, profile_steps, true);
    let pressure_names: Vec<String> = cpx_pressure::trace::detailed_phase_names()
        .iter()
        .map(|n| n.to_string())
        .collect();
    let pressure_graph =
        build_task_graph(&pressure_prog, &machine, &pressure_names).expect("pressure graph builds");
    let pressure_path = {
        let s = pressure_graph
            .schedule(&Rescale::none())
            .expect("pressure graph is acyclic");
        pressure_graph.critical_path(&s)
    };
    let spmv_share = pressure_path_share(
        &pressure_path,
        PfSubPhase::Smoothing.id(),
        per_step,
        profile_steps,
    );
    let spray_share = pressure_path_share(
        &pressure_path,
        PressurePhase::Spray.id(),
        per_step,
        profile_steps,
    );
    // hybrid-GS lives in the MG-CFD coarse-level smoothing sweeps.
    let mgcfd_shares: Vec<(usize, f64)> = scenario
        .apps
        .iter()
        .enumerate()
        .filter_map(|(ai, app)| match &app.kind {
            AppKind::MgCfd(cfg) => Some((1 + ai, mgcfd_gs_share(cfg, &machine))),
            AppKind::Simpic(_) => None,
        })
        .collect();
    // Coupler-unit stage phases and gather/scatter message tags.
    let cu_phases: Vec<usize> = (1 + scenario.apps.len()..names.len()).collect();
    let cu_tags = (1000u32, 1000 + 4 * scenario.cus.len() as u32 - 1);

    // ── What-if table ──────────────────────────────────────────────
    let kernels: Vec<KernelRow> = vec![
        ("spmv", vec![(simpic_phase, spmv_share)], false),
        ("hybrid_gs", mgcfd_shares.clone(), false),
        ("spray", vec![(simpic_phase, spray_share)], false),
        (
            "coupler_exchange",
            cu_phases.iter().map(|&p| (p, 1.0)).collect(),
            true,
        ),
    ];
    let rescale_for = |shares: &[(usize, f64)], transfers: bool, speedup: f64| -> Rescale {
        let mut r = Rescale::none();
        for &(phase, share) in shares {
            if r.compute_by_phase.len() <= phase {
                r.compute_by_phase.resize(phase + 1, 1.0);
            }
            r.compute_by_phase[phase] = blend_factor(share, speedup);
        }
        if transfers {
            r.transfer_by_tag
                .push((cu_tags.0, cu_tags.1, 1.0 / speedup));
        }
        r
    };
    let mut what_if_rows = Vec::new();
    for (kernel, shares, transfers) in &kernels {
        for speedup in [1.5, 2.0, 4.0] {
            let rescale = rescale_for(shares, *transfers, speedup);
            let makespan = graph
                .what_if_makespan(&rescale)
                .expect("rescaled graph stays acyclic");
            what_if_rows.push((
                kernel.to_string(),
                speedup,
                makespan,
                base_makespan / makespan,
            ));
        }
    }

    // ── Gate 1: SELL-C-σ spmv, predicted vs measured ───────────────
    // Predicted: the kernel-bench speedup blended into the simpic
    // phase on the graph. Measured: rescale the pressure solver's own
    // smoothing computes, re-replay its DES to get the real per-step
    // change, apply that to the coupled program and re-replay the
    // coupled DES.
    let kernels_json = read_json(&repo_root().join("BENCH_kernels.json"));
    let sell_speedup = kernels_json
        .get("layout")
        .and_then(|l| l.get("speedup"))
        .and_then(Json::as_f64)
        .expect("BENCH_kernels.json carries layout.speedup");
    let pred_block_factor = blend_factor(spmv_share, sell_speedup);
    let predicted_makespan = graph
        .what_if_makespan(&rescale_for(
            &[(simpic_phase, spmv_share)],
            false,
            sell_speedup,
        ))
        .expect("rescaled graph stays acyclic");
    let predicted_speedup = base_makespan / predicted_makespan;

    let meas_block_factor = {
        let prog = pm.build_program(p_simpic, &machine, profile_steps, true);
        let mut factors = vec![1.0; PfSubPhase::Smoothing.id() as usize + 1];
        factors[PfSubPhase::Smoothing.id() as usize] = 1.0 / sell_speedup;
        let scaled = scale_compute_by_phase(&prog, &machine, &factors);
        let m1 = Replayer::new(machine.clone())
            .run(&scaled)
            .expect("scaled pressure program replays")
            .makespan();
        ((m1 - setup_s) / profile_steps as f64) / per_step
    };
    let measured_makespan = {
        let mut factors = vec![1.0; simpic_phase + 1];
        factors[simpic_phase] = meas_block_factor;
        let scaled = scale_compute_by_phase(&program, &machine, &factors);
        Replayer::new(machine.clone())
            .run(&scaled)
            .expect("scaled coupled program replays")
            .makespan()
    };
    let measured_speedup = base_makespan / measured_makespan;
    let block_err = (pred_block_factor - meas_block_factor).abs() / meas_block_factor;
    let coupled_err = (predicted_speedup - measured_speedup).abs() / measured_speedup;
    let sell_pass = block_err <= TOLERANCE && coupled_err <= TOLERANCE;

    // ── Gate 2: STC overlap cross-check ────────────────────────────
    let stc_json = read_json(&repo_root().join("BENCH_stc.json"));
    let sync_steps: Vec<(f64, f64)> = stc_json
        .get("runs")
        .and_then(Json::as_arr)
        .and_then(|runs| {
            runs.iter()
                .find(|r| r.get("mode").and_then(Json::as_str) == Some("synchronous"))
        })
        .and_then(|r| r.get("per_step"))
        .and_then(Json::as_arr)
        .expect("BENCH_stc.json has a synchronous per_step table")
        .iter()
        .map(|s| {
            (
                s.get("spray_s").and_then(Json::as_f64).expect("spray_s"),
                s.get("solver_s").and_then(Json::as_f64).expect("solver_s"),
            )
        })
        .collect();
    let stc_file_speedup = stc_json
        .get("virtual_speedup")
        .and_then(Json::as_f64)
        .expect("BENCH_stc.json carries virtual_speedup");
    let stc_graph = stc_overlap_graph(&sync_steps);
    let stc_sched = stc_graph.schedule(&Rescale::none()).expect("overlap graph");
    let stc_serial: f64 = sync_steps.iter().map(|(a, b)| a + b).sum();
    let stc_graph_speedup = stc_serial / stc_sched.makespan;
    let stc_err = (stc_graph_speedup - stc_file_speedup).abs();
    let stc_pass = stc_err <= STC_TOLERANCE;

    // ── Gate 3: Alg-1 closed-form cross-check ──────────────────────
    let alg1_per_iter = alloc.predicted_runtime() / models.window_iters;
    let graph_per_iter = base_makespan / sample_iters as f64;
    let alg1_err = (graph_per_iter - alg1_per_iter).abs() / alg1_per_iter;
    let alg1_pass = alg1_err <= ALG1_TOLERANCE;

    // ── Artifacts ──────────────────────────────────────────────────
    let attr_json: Vec<Json> = names
        .iter()
        .enumerate()
        .map(|(p, name)| {
            let at = |v: &Vec<f64>| v.get(p).copied().unwrap_or(0.0);
            Json::obj(vec![
                ("name", Json::Str(name.clone())),
                ("compute", Json::Num(at(&attr.compute))),
                ("comm", Json::Num(at(&attr.comm))),
                ("wait", Json::Num(at(&attr.wait))),
            ])
        })
        .collect();
    let what_if_json: Vec<Json> = what_if_rows
        .iter()
        .map(|(kernel, k, makespan, speedup)| {
            Json::obj(vec![
                ("kernel", Json::Str(kernel.clone())),
                ("kernel_speedup", Json::Num(*k)),
                ("predicted_makespan", Json::Num(*makespan)),
                ("predicted_coupled_speedup", Json::Num(*speedup)),
            ])
        })
        .collect();
    let doc = Json::obj(vec![
        ("schema_version", Json::Num(1.0)),
        ("case", Json::Str(scenario.name.clone())),
        ("world_size", Json::Num(alloc.total_ranks() as f64)),
        ("sample_iters", Json::Num(sample_iters as f64)),
        ("makespan", Json::Num(base_makespan)),
        ("des_bit_match", Json::Bool(true)),
        ("graph_nodes", Json::Num(graph.nodes.len() as f64)),
        ("critical_path", report.to_json()),
        ("attribution", Json::Arr(attr_json)),
        (
            "shares",
            Json::obj(vec![
                ("spmv_of_simpic_step", Json::Num(spmv_share)),
                ("spray_of_simpic_step", Json::Num(spray_share)),
                (
                    "hybrid_gs_of_mgcfd_compute",
                    Json::Num(mgcfd_shares.first().map_or(0.0, |&(_, s)| s)),
                ),
            ]),
        ),
        ("what_if", Json::Arr(what_if_json)),
        (
            "sell_gate",
            Json::obj(vec![
                ("kernel_speedup", Json::Num(sell_speedup)),
                ("spmv_share", Json::Num(spmv_share)),
                ("predicted_block_factor", Json::Num(pred_block_factor)),
                ("measured_block_factor", Json::Num(meas_block_factor)),
                ("block_rel_error", Json::Num(block_err)),
                ("predicted_makespan", Json::Num(predicted_makespan)),
                ("measured_makespan", Json::Num(measured_makespan)),
                ("predicted_coupled_speedup", Json::Num(predicted_speedup)),
                ("measured_coupled_speedup", Json::Num(measured_speedup)),
                ("coupled_rel_error", Json::Num(coupled_err)),
                ("tolerance", Json::Num(TOLERANCE)),
                ("pass", Json::Bool(sell_pass)),
            ]),
        ),
        (
            "stc_check",
            Json::obj(vec![
                ("file_virtual_speedup", Json::Num(stc_file_speedup)),
                ("graph_virtual_speedup", Json::Num(stc_graph_speedup)),
                ("abs_error", Json::Num(stc_err)),
                ("tolerance", Json::Num(STC_TOLERANCE)),
                ("pass", Json::Bool(stc_pass)),
            ]),
        ),
        (
            "alg1_check",
            Json::obj(vec![
                ("alg1_per_iter", Json::Num(alg1_per_iter)),
                ("graph_per_iter", Json::Num(graph_per_iter)),
                ("rel_error", Json::Num(alg1_err)),
                ("tolerance", Json::Num(ALG1_TOLERANCE)),
                ("pass", Json::Bool(alg1_pass)),
            ]),
        ),
    ]);
    write_text(&out_path, &doc.write_pretty());
    write_text(&trace_path, &critical_chrome_trace_json(&graph, &path));

    // ── Human summary ──────────────────────────────────────────────
    let mut md = Report::titled("Critical-path study");
    md.section("Configuration")
        .bullet(format!("case: {}", scenario.name))
        .bullet(format!("world: {} ranks", alloc.total_ranks()))
        .bullet(format!(
            "graph: {} nodes, DES bit-match: yes",
            graph.nodes.len()
        ));
    critical_path_section(&mut md, &report);
    md.section("What-if table").table_header(&[
        "kernel",
        "kernel speedup",
        "predicted coupled speedup",
    ]);
    for (kernel, k, _, s) in &what_if_rows {
        md.table_row(&[kernel.clone(), format!("{k}x"), format!("{s:.6}")]);
    }
    md.section("Gates")
        .bullet(format!(
            "SELL spmv {sell_speedup:.4}x: block {pred_block_factor:.6} vs {meas_block_factor:.6} \
             (err {block_err:.4}), coupled {predicted_speedup:.6} vs {measured_speedup:.6} \
             (err {coupled_err:.6}) -> {}",
            if sell_pass { "pass" } else { "FAIL" }
        ))
        .bullet(format!(
            "STC overlap: graph {stc_graph_speedup:.9} vs study {stc_file_speedup:.9} -> {}",
            if stc_pass { "pass" } else { "FAIL" }
        ))
        .bullet(format!(
            "Alg-1: {graph_per_iter:.3} s/iter vs predicted {alg1_per_iter:.3} -> {}",
            if alg1_pass { "pass" } else { "FAIL" }
        ));
    print!("{}", md.finish());
    println!("(written to {out_path} and {trace_path})");

    if sell_pass && stc_pass && alg1_pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
