//! Optimized-STC overlap study: synchronous vs overlapped spray/solver.
//!
//! ```text
//! cargo run -p cpx-bench --release --bin stc_study -- [--smoke] [out.json]
//! ```
//!
//! Runs the *real* task-based spray/solver split of
//! [`cpx_pressure::run_stc`] in both organisations — the actual
//! Lagrangian spray update and the actual AMG-PCG pressure solve as two
//! pool tasks meeting at a per-step fence — and reports:
//!
//! * the **bit-identity** of the final states (the one-step staggering
//!   makes the two tasks data-independent inside a step, so the
//!   organisations must agree exactly);
//! * per-step spray and solver task durations;
//! * the two **virtual makespans**: serial `Σ (t_spray + t_solver)` and
//!   overlapped `Σ max(t_spray, t_solver)` — the fence-limited cost the
//!   paper's Optimized-STC improves (§IV-A);
//! * measured wall time of each organisation's stepping loop.
//!
//! On a single-core runner the overlapped *wall* time degrades to the
//! serial one (the two workers share the core), but the virtual
//! makespans are schedule truths computed from the measured task
//! durations, so the overlap win is demonstrated regardless of core
//! count. Times are hardware-dependent: never byte-compare this
//! binary's output.

use cpx_bench::write_text;
use cpx_obs::Json;
use cpx_pressure::{run_stc, StcConfig, StcMode, StcOutcome};

/// Version of the `BENCH_stc.json` schema (see EXPERIMENTS.md).
const SCHEMA_VERSION: u32 = 1;

fn outcome_json(out: &StcOutcome) -> Json {
    let steps: Vec<Json> = out
        .per_step
        .iter()
        .map(|t| {
            Json::obj(vec![
                ("spray_s", Json::Num(t.spray)),
                ("solver_s", Json::Num(t.solver)),
            ])
        })
        .collect();
    Json::obj(vec![
        (
            "mode",
            Json::Str(
                match out.mode {
                    StcMode::Synchronous => "synchronous",
                    StcMode::Overlapped => "overlapped",
                }
                .to_string(),
            ),
        ),
        ("wall_s", Json::Num(out.wall)),
        ("virtual_serial_s", Json::Num(out.virtual_serial())),
        ("virtual_overlapped_s", Json::Num(out.virtual_overlapped())),
        ("per_step", Json::Arr(steps)),
    ])
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_stc.json".to_string();
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = arg;
        }
    }

    let cfg = if smoke {
        StcConfig {
            n: 10,
            droplets: 40_000,
            steps: 3,
            ..StcConfig::default()
        }
    } else {
        StcConfig {
            n: 16,
            droplets: 400_000,
            steps: 6,
            ..StcConfig::default()
        }
    };

    let sync = run_stc(cfg, StcMode::Synchronous);
    let over = run_stc(cfg, StcMode::Overlapped);

    // The determinism contract: the organisation moves wall time only.
    let bit_identical = sync.field == over.field && sync.spray_pos == over.spray_pos;

    // The quantity Optimized-STC improves, from the synchronous run's
    // measured task durations (both runs report both makespans; the
    // synchronous run's timings are the cleaner source because its
    // tasks never contend for cores).
    let serial = sync.virtual_serial();
    let overlapped = sync.virtual_overlapped();
    let speedup = serial / overlapped.max(1e-12);

    let doc = Json::obj(vec![
        ("schema_version", Json::Num(SCHEMA_VERSION as f64)),
        ("smoke", Json::Bool(smoke)),
        (
            "config",
            Json::obj(vec![
                ("n", Json::Num(cfg.n as f64)),
                ("droplets", Json::Num(cfg.droplets as f64)),
                ("steps", Json::Num(cfg.steps as f64)),
                ("dt", Json::Num(cfg.dt)),
            ]),
        ),
        ("bit_identical", Json::Bool(bit_identical)),
        ("virtual_serial_s", Json::Num(serial)),
        ("virtual_overlapped_s", Json::Num(overlapped)),
        ("virtual_speedup", Json::Num(speedup)),
        (
            "runs",
            Json::Arr(vec![outcome_json(&sync), outcome_json(&over)]),
        ),
    ]);
    write_text(&out_path, &doc.write_pretty());

    println!(
        "Optimized-STC study (n={}³, {} droplets, {} steps)",
        cfg.n, cfg.droplets, cfg.steps
    );
    println!("  step   spray_s     solver_s");
    for (i, t) in sync.per_step.iter().enumerate() {
        println!("  {:>4}   {:>9.6}  {:>9.6}", i, t.spray, t.solver);
    }
    println!("  virtual serial     (Σ s+p):   {serial:.6} s");
    println!("  virtual overlapped (Σ max):   {overlapped:.6} s");
    println!("  virtual speedup:              {speedup:.3}x");
    println!(
        "  wall: synchronous {:.6} s, overlapped {:.6} s",
        sync.wall, over.wall
    );
    println!(
        "  bit-identical across organisations: {}",
        if bit_identical { "yes" } else { "NO" }
    );
    println!("(written to {out_path})");

    // The overlap win is a schedule truth (max ≤ sum, strict whenever
    // both tasks take nonzero time); bit-identity is the contract.
    assert!(bit_identical, "organisations diverged");
    assert!(
        overlapped < serial,
        "no overlap win: {overlapped} !< {serial}"
    );
}
