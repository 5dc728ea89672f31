//! Run one benchmark workload and print its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <engine40k|small5k_whatif|miniapp_steps> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --record
//! ```
//!
//! A run decodes the reference, sets the workload up several times
//! (`setup_s` is the fastest time of building its inputs), makes the
//! workload's once-per-run checks untimed, then iterates for `--seconds`,
//! at least twice, starting no iteration that should end after the
//! deadline. The first iteration is the cold one (`iteration.cold_s`,
//! reported per layer); `wall_s` is the median of the untraced
//! iterations after it. With `--trace 1`,
//! iterations after the first alternate traced and untraced, so the
//! same process gives layer spans and the tracing overhead. Every
//! iteration is checked against `reference.json`; `--record` rewrites
//! that workload's entries from one traced iteration per input variant.
//!
//! The last stdout line is the result: `correct`, `attempted` (the
//! iterations run), `failed` (iterations that panicked or mismatched the
//! reference) and `metrics` — end to end untraced, per layer traced.
//! The line before it is the provenance block. Traced runs also write a
//! Chrome trace and a self-time table per layer to `perfbench/out/`.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use cpx_obs::{chrome_trace_json, Json, RankTimeline, TraceSession};
use cpx_par::ParPool;
use perfbench::check::{Outputs, Reference, VARIANTS};
use perfbench::probe::{Probe, ROOT};
use perfbench::{setup, Workload, WORKLOADS};

/// Set-ups per run, timed in batches of equal size: at least
/// `MIN_SETUP_BATCHES`, then more while they have taken less than
/// `SETUP_BUDGET_S`, up to `MAX_SETUP_BATCHES`. A batch holds as many
/// set-ups as fill `SETUP_BATCH_S`, so the clock's own cost does not
/// count for a set-up of microseconds. `setup_s` is the fastest batch's
/// time per set-up: on a shared 2-vCPU host the median of a run's
/// batches was bimodal across runs (1.0 or 1.9 µs for
/// `small5k_whatif`, even over 2 s of batches), the minimum was not.
const MIN_SETUP_BATCHES: usize = 5;
const MAX_SETUP_BATCHES: usize = 10_000;
const SETUP_BUDGET_S: f64 = 2.0;
const SETUP_BATCH_S: f64 = 1e-3;

/// The committed reference outputs.
const REFERENCE: &str = include_str!("../reference.json");

/// The per-layer metrics of a traced run, with their units. Layers a
/// workload does not load report 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("model.fit_s", "s"),
    ("alg1.alloc_s", "s"),
    ("alg1.ranks_allocated", "count"),
    ("sim.run_coupled_s", "s"),
    ("sim.build_s", "s"),
    ("sim.ops", "count"),
    ("sim.messages", "count"),
    ("des.replay_s", "s"),
    ("des.ops_per_s", "1/s"),
    ("graph.build_s", "s"),
    ("graph.nodes", "count"),
    ("critical.schedule_s", "s"),
    ("critical.whatif_s", "s"),
    ("critical.whatifs", "count"),
    ("critical.path_s", "s"),
    ("critical.attribution_s", "s"),
    ("pressure_trace.profile_s", "s"),
    ("pressure_trace.ops", "count"),
    ("mgcfd.cycle_s", "s"),
    ("simpic.step_s", "s"),
    ("pressure.field_s", "s"),
    ("pressure.spray_s", "s"),
    ("pressure.pcg_iters", "count"),
    ("coupler.build_s", "s"),
    ("coupler.step_s", "s"),
    ("pressure.amg_setup_s", "s"),
    ("par.utilization", "ratio"),
    ("par.imbalance", "ratio"),
    ("iteration.root_s", "s"),
    ("iteration.cold_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            args.record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value {value:?}");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(&value),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Peak resident set (VmHWM) in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical CPUs of the host, which may exceed what this process may use.
fn hardware_threads() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .ok()
        .filter(|&n| n > 0)
        .unwrap_or_else(cpx_par::hardware_threads)
}

fn provenance(args: &Args, nproc: usize) -> Json {
    let env_threads = std::env::var("CPX_THREADS").ok();
    Json::obj(vec![
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::Num(args.seed as f64)),
        ("variant", Json::Num((args.seed % VARIANTS) as f64)),
        ("nproc", Json::Num(nproc as f64)),
        ("hardware_threads", Json::Num(hardware_threads() as f64)),
        (
            "cpx_threads",
            Json::Num(ParPool::current().threads() as f64),
        ),
        ("cpx_threads_env", env_threads.map_or(Json::Null, Json::Str)),
        (
            "profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("rustc", Json::Str(env!("PERFBENCH_RUSTC").into())),
        ("git_commit", Json::Str(env!("PERFBENCH_GIT_COMMIT").into())),
        ("run_seconds", Json::Num(args.seconds)),
    ])
}

/// One finished iteration.
struct Iteration {
    traced: bool,
    wall_s: f64,
    lane: RankTimeline,
    gauges: BTreeMap<&'static str, f64>,
}

/// Run one iteration and check it. Returns the iteration and the
/// reasons it failed (empty when correct).
fn run_iteration(
    w: &mut dyn Workload,
    traced: bool,
    mut check: impl FnMut(&Outputs) -> Vec<String>,
    run_start: Instant,
) -> (Iteration, Vec<String>) {
    let mut probe = Probe::new(traced);
    let offset = run_start.elapsed().as_secs_f64();
    let t = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| w.iterate(&mut probe)));
    let wall_s = t.elapsed().as_secs_f64();
    let errors = match result {
        Ok(mut out) => {
            for (name, n) in probe.counter_entries() {
                out.put(name, n);
            }
            check(&out)
        }
        Err(_) => vec!["iteration panicked".to_string()],
    };
    let gauges = probe.gauges().clone();
    let mut lane = probe.into_timeline();
    for s in &mut lane.spans {
        s.start += offset;
        s.end += offset;
    }
    lane.finish += offset;
    let it = Iteration {
        traced,
        wall_s,
        lane,
        gauges,
    };
    (it, errors)
}

/// Span time per name within one traced iteration, plus the root time.
fn layer_times(lane: &RankTimeline) -> BTreeMap<String, f64> {
    let mut t = BTreeMap::new();
    for s in &lane.spans {
        *t.entry(s.name.to_string()).or_insert(0.0) += s.duration();
    }
    t
}

/// Per-layer metrics over the traced iterations (medians), plus the
/// self-time table as text.
fn per_layer(iters: &[Iteration], setup_metrics: &[(&'static str, f64)]) -> (Json, String) {
    let traced: Vec<&Iteration> = iters.iter().filter(|i| i.traced).collect();
    let untraced_warm: Vec<f64> = iters
        .iter()
        .skip(1)
        .filter(|i| !i.traced)
        .map(|i| i.wall_s)
        .collect();
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut self_time: BTreeMap<String, (f64, f64, usize)> = BTreeMap::new();
    for it in &traced {
        let times = layer_times(&it.lane);
        let root = times.get(ROOT).copied().unwrap_or(0.0);
        let covered: f64 = it
            .lane
            .spans
            .iter()
            .filter(|s| s.depth == 1 && !s.name.starts_with("reset."))
            .map(|s| s.duration())
            .sum();
        let mut put = |k: &str, v: f64| samples.entry(k.to_string()).or_default().push(v);
        for (name, secs) in &times {
            put(&format!("{name}_s"), *secs);
        }
        put(
            "trace.coverage",
            if root > 0.0 { covered / root } else { 0.0 },
        );
        for (name, &n) in &it.lane.counters {
            put(name, n as f64);
        }
        if let (Some(&ops), Some(&secs)) =
            (it.lane.counters.get("sim.ops"), times.get("des.replay"))
        {
            if secs > 0.0 {
                put("des.ops_per_s", ops as f64 / secs);
            }
        }
        for (name, &v) in &it.gauges {
            put(name, v);
        }
        for s in &it.lane.spans {
            let e = self_time.entry(s.name.to_string()).or_insert((0.0, 0.0, 0));
            e.0 += s.duration();
            e.1 += s.self_time;
            e.2 += 1;
        }
    }
    let root = median(samples.get("iteration_s").map_or(&[][..], |v| v));
    let warm = median(&untraced_warm);
    let mut metrics: BTreeMap<&str, f64> = BTreeMap::new();
    for &(name, _) in PER_LAYER {
        let key = if name == "iteration.root_s" {
            "iteration_s"
        } else {
            name
        };
        metrics.insert(name, samples.get(key).map_or(0.0, |v| median(v)));
    }
    metrics.insert(
        "trace.overhead_frac",
        if warm > 0.0 { root / warm - 1.0 } else { 0.0 },
    );
    metrics.insert("iteration.cold_s", iters[0].wall_s);
    for &(name, v) in setup_metrics {
        metrics.insert(name, v);
    }
    let json = Json::Obj(
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name.to_string(), metric(metrics[name], unit)))
            .collect(),
    );

    let n = traced.len().max(1) as f64;
    let mut rows: Vec<(&String, &(f64, f64, usize))> = self_time.iter().collect();
    rows.sort_by(|a, b| b.1 .1.total_cmp(&a.1 .1));
    let mut table = format!(
        "{:<26} {:>8} {:>12} {:>12} {:>8}\n",
        "span (per traced iter)", "calls", "total_s", "self_s", "self%"
    );
    for (name, (total, selft, calls)) in rows {
        table.push_str(&format!(
            "{:<26} {:>8.1} {:>12.6} {:>12.6} {:>7.1}%\n",
            name,
            *calls as f64 / n,
            total / n,
            selft / n,
            if root > 0.0 {
                100.0 * selft / n / root
            } else {
                0.0
            }
        ));
    }
    table.push_str(&format!(
        "traced iterations: {}, root median {root:.6} s, untraced warm median {warm:.6} s, \
         coverage {:.4}\n",
        traced.len(),
        metrics["trace.coverage"]
    ));
    (json, table)
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj(vec![
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.into())),
    ])
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_out(name: &str, text: &str) {
    let dir = out_dir();
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(name), text))
    {
        eprintln!("perfbench: cannot write {name}: {e}");
    }
}

/// Rewrite the workload's reference entries from one traced iteration
/// per input variant.
fn record(workload: &str) -> ExitCode {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("reference.json");
    let on_disk = std::fs::read_to_string(&path).unwrap_or_default();
    let mut reference = Reference::parse(&on_disk).unwrap_or_default();
    reference.table.remove(workload);
    for variant in 0..VARIANTS {
        let mut w = setup(workload, variant).expect("known workload");
        let mut errors = w.verify();
        let (_, mut iteration_errors) = run_iteration(
            w.as_mut(),
            true,
            |out| {
                reference.record(workload, variant, out);
                out.violations.clone()
            },
            Instant::now(),
        );
        errors.append(&mut iteration_errors);
        if !errors.is_empty() {
            eprintln!("perfbench: {workload} variant {variant}: {errors:?}");
            return ExitCode::FAILURE;
        }
        eprintln!("recorded {workload} variant {variant}");
    }
    std::fs::write(&path, reference.to_json().write_pretty() + "\n").expect("write reference.json");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if std::env::var_os("CPX_THREADS").is_none() {
        ParPool::set_global_threads(nproc);
    }
    if args.record {
        return record(&args.workload);
    }
    let variant = args.seed % VARIANTS;
    let prov = provenance(&args, nproc);
    println!("{}", Json::obj(vec![("provenance", prov.clone())]).write());
    let reference = match Reference::parse(REFERENCE) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Set-up: build the workload's inputs, timed alone; the first,
    // untimed set-up sizes the batches.
    let build = || setup(&args.workload, variant).expect("workload name was validated");
    let t = Instant::now();
    let mut w = build();
    let batch = ((SETUP_BATCH_S / t.elapsed().as_secs_f64()).ceil() as usize).clamp(1, 10_000);
    let mut setups = Vec::new();
    while setups.len() < MIN_SETUP_BATCHES
        || (setups.iter().sum::<f64>() * (batch as f64) < SETUP_BUDGET_S
            && setups.len() < MAX_SETUP_BATCHES)
    {
        drop(w);
        let t = Instant::now();
        w = build();
        for _ in 1..batch {
            w = build();
        }
        setups.push(t.elapsed().as_secs_f64() / batch as f64);
    }
    let setup_s = setups.iter().copied().fold(f64::INFINITY, f64::min);
    let setup_metrics = w.setup_metrics();
    // Failed once-per-run checks fail the first iteration.
    let mut verify_errors = w.verify();

    let min_iters = if args.trace { 3 } else { 2 };
    let run_start = Instant::now();
    let mut iters: Vec<Iteration> = Vec::new();
    let mut failed = 0u64;
    // Start another iteration only if it should end within `--seconds`.
    while iters.len() < min_iters
        || run_start.elapsed().as_secs_f64() + iters.last().map_or(0.0, |i| i.wall_s)
            <= args.seconds
    {
        let traced = args.trace && iters.len() % 2 == 1;
        let check = |out: &Outputs| reference.mismatches(&args.workload, variant, out, traced);
        let (it, mut errors) = run_iteration(w.as_mut(), traced, check, run_start);
        errors.append(&mut verify_errors);
        eprintln!(
            "perfbench: iteration {} {} {:.6} s",
            iters.len(),
            if traced { "traced" } else { "untraced" },
            it.wall_s
        );
        if !errors.is_empty() {
            failed += 1;
            eprintln!("perfbench: iteration {} failed: {errors:?}", iters.len());
        }
        iters.push(it);
    }
    let attempted = iters.len() as u64;

    let metrics = if args.trace {
        let (json, table) = per_layer(&iters, &setup_metrics);
        let mut lane = RankTimeline::default();
        for it in iters.iter().filter(|i| i.traced) {
            lane.spans.extend(it.lane.spans.iter().cloned());
            lane.finish = lane.finish.max(it.lane.finish);
        }
        write_out(
            &format!("{}.trace.json", args.workload),
            &chrome_trace_json(&TraceSession::new(vec![lane])),
        );
        write_out(&format!("{}.layers.txt", args.workload), &table);
        print!("{table}");
        json
    } else {
        let warm: Vec<f64> = iters.iter().skip(1).map(|i| i.wall_s).collect();
        Json::obj(vec![
            ("wall_s", metric(median(&warm), "s")),
            ("setup_s", metric(setup_s, "s")),
            ("peak_rss_mb", metric(peak_rss_mb(), "MiB")),
        ])
    };
    let result = Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ]);
    write_out(
        &format!("{}.result.json", args.workload),
        &Json::obj(vec![("provenance", prov), ("result", result.clone())]).write_pretty(),
    );
    println!("{}", result.write());
    ExitCode::SUCCESS
}
