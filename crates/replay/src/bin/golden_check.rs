//! Golden-corpus driver: replays every committed scenario under
//! `golden/` and verifies trace, report and JSON byte-for-byte.
//!
//! ```text
//! golden_check [--corpus <dir>] [--diff-dir <dir>]   # check (default)
//! golden_check --record [--corpus <dir>]             # regenerate corpus
//! golden_check --overhead                            # recorder overhead gate
//! ```
//!
//! On a divergence the fresh trace and a unified-ish textual diff of
//! the mismatching artifact are written under the diff directory
//! (default `target/golden_diff/<scenario>/`) so CI can upload them.

use std::path::PathBuf;
use std::process::ExitCode;

use cpx_core::coupled_program;
use cpx_core::prelude::*;
use cpx_machine::Replayer;
use cpx_replay::golden;

fn usage() -> ! {
    eprintln!("usage: golden_check [--record] [--overhead] [--corpus <dir>] [--diff-dir <dir>]");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut record = false;
    let mut overhead = false;
    let mut corpus = PathBuf::from("golden");
    let mut diff_dir = PathBuf::from("target/golden_diff");

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--record" => record = true,
            "--overhead" => overhead = true,
            "--corpus" => corpus = PathBuf::from(args.next().unwrap_or_else(|| usage())),
            "--diff-dir" => diff_dir = PathBuf::from(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }

    if overhead {
        return overhead_gate();
    }

    if record {
        for name in golden::SCENARIOS {
            match golden::record(name, &corpus) {
                Ok(()) => println!("recorded {name}"),
                Err(e) => {
                    eprintln!("FAILED to record {name}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::SUCCESS;
    }

    let mut failed = 0usize;
    for name in golden::SCENARIOS {
        match golden::check(name, &corpus) {
            Ok(()) => println!("ok  {name}"),
            Err(fail) => {
                let (failure, fresh) = *fail;
                failed += 1;
                eprintln!("FAIL {name}: {failure}");
                if let Some(fresh) = fresh {
                    let dir = diff_dir.join(name);
                    if let Err(e) = std::fs::create_dir_all(&dir) {
                        eprintln!("  (could not create {}: {e})", dir.display());
                        continue;
                    }
                    // The diverging fresh trace, for offline comparison
                    // with the committed one.
                    if let Err(e) = fresh.trace.save(&dir.join("fresh_trace.cpxr")) {
                        eprintln!("  (could not write fresh trace: {e})");
                    }
                    let _ = std::fs::write(dir.join("fresh_report.md"), &fresh.report);
                    let _ = std::fs::write(dir.join("fresh_bench.json"), &fresh.bench);
                    for file in ["report.md", "bench.json"] {
                        if let Ok(committed) = std::fs::read_to_string(corpus.join(name).join(file))
                        {
                            let fresh_text = match file {
                                "report.md" => &fresh.report,
                                _ => &fresh.bench,
                            };
                            let diff = line_diff(&committed, fresh_text);
                            if !diff.is_empty() {
                                let _ = std::fs::write(dir.join(format!("{file}.diff")), diff);
                            }
                        }
                    }
                    eprintln!("  diff artifacts under {}", dir.display());
                }
            }
        }
    }
    if failed > 0 {
        eprintln!("{failed} scenario(s) failed");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Minimal line-oriented diff: paired `-`/`+` lines where the texts
/// disagree. Good enough to see *what* changed in CI logs.
fn line_diff(committed: &str, fresh: &str) -> String {
    if committed == fresh {
        return String::new();
    }
    let a: Vec<&str> = committed.lines().collect();
    let b: Vec<&str> = fresh.lines().collect();
    let mut out = String::new();
    let n = a.len().max(b.len());
    for i in 0..n {
        match (a.get(i), b.get(i)) {
            (Some(x), Some(y)) if x == y => {}
            (x, y) => {
                if let Some(x) = x {
                    out.push_str(&format!("{}: -{x}\n", i + 1));
                }
                if let Some(y) = y {
                    out.push_str(&format!("{}: +{y}\n", i + 1));
                }
            }
        }
    }
    out
}

/// The <5% recorder-overhead acceptance gate: wall-clock the traced
/// coupled run (DES replay with logging hooks on + coupled model +
/// report) against the untraced one, reusing the event buffer via
/// [`Replayer::run_logged_into`] — the recommended shape for repeated
/// recording. Interleaved best-of-fifty to cancel frequency/cache
/// drift between the two measurement series.
///
/// The DesEvent → ReplayEvent mapping and trace serialization happen
/// *after* the run returns, so they cannot perturb anything the run
/// measures; their cost is reported separately for transparency but is
/// not part of the gate.
fn overhead_gate() -> ExitCode {
    let scenario = testcases::small_150m_28m(StcVariant::Base);
    let machine = Machine::archer2();
    let models = model::build_models_with_grid(&scenario, &machine, 20.0, &[100, 400, 1600, 6400]);
    let alloc = model::allocate_scenario(&models, 310);
    let (program, _) = coupled_program(&scenario, &alloc, &machine, 5);
    let replayer = Replayer::new(machine.clone());

    let mut log = Vec::new();
    let mut events: Vec<cpx_replay::ReplayEvent> = Vec::new();

    // Warm up both paths.
    for _ in 0..3 {
        replayer.run(&program).expect("replays");
        replayer
            .run_logged_into(&program, &mut log)
            .expect("replays");
    }

    let mut plain = f64::INFINITY;
    let mut logged = f64::INFINITY;
    for _ in 0..50 {
        let t0 = std::time::Instant::now();
        std::hint::black_box(replayer.run(&program).expect("replays"));
        let run = sim::run_coupled_with(&scenario, &alloc, &machine, 5, None);
        std::hint::black_box(markdown_report(&scenario, &alloc, &run).len());
        plain = plain.min(t0.elapsed().as_secs_f64());

        let t1 = std::time::Instant::now();
        replayer
            .run_logged_into(&program, &mut log)
            .expect("replays");
        let run = sim::run_coupled_with(&scenario, &alloc, &machine, 5, None);
        std::hint::black_box(markdown_report(&scenario, &alloc, &run).len());
        logged = logged.min(t1.elapsed().as_secs_f64());
    }

    // Post-run trace assembly, reported for context (not gated: it runs
    // after the traced run has finished).
    let mut assemble = f64::INFINITY;
    for _ in 0..20 {
        let t = std::time::Instant::now();
        events.clear();
        events.extend(log.iter().map(|e| cpx_replay::ReplayEvent::from(*e)));
        std::hint::black_box(events.len());
        assemble = assemble.min(t.elapsed().as_secs_f64());
    }
    println!(
        "post-run trace assembly ({} events): {:.3} ms",
        events.len(),
        assemble * 1e3
    );
    let overhead = (logged - plain) / plain;
    println!(
        "recorder overhead: plain {:.3} ms, logged {:.3} ms, overhead {:+.2}%",
        plain * 1e3,
        logged * 1e3,
        overhead * 1e2
    );
    if overhead < 0.05 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "recorder overhead {:.2}% exceeds the 5% gate",
            overhead * 1e2
        );
        ExitCode::FAILURE
    }
}
