//! Command line and record/replay tail shared by the fault and SDC
//! studies:
//!
//! ```text
//! <study> [budget] [--seed <u64>] [--record <path>] [--replay <path>]
//! ```

use std::path::PathBuf;

use cpx_replay::{verify, ReplayEvent, Trace};

/// A study's parsed command line.
pub struct Args {
    /// Core budget of the coupled part (default 2000).
    pub budget: usize,
    /// Added to every built-in seed (the default 0 is the stock study).
    pub seed: u64,
    /// Save the event log here.
    pub record: Option<PathBuf>,
    /// Verify the event log against the trace saved here.
    pub replay: Option<PathBuf>,
}

fn usage(study: &str) -> ! {
    eprintln!("usage: {study} [budget] [--seed <u64>] [--record <path>] [--replay <path>]");
    std::process::exit(2);
}

/// Parse `study`'s command line; on a bad argument print the usage line
/// and exit 2.
pub fn parse_args(study: &str) -> Args {
    let mut args = Args {
        budget: 2000,
        seed: 0,
        record: None,
        replay: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage(study));
        match a.as_str() {
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage(study)),
            "--record" => args.record = Some(PathBuf::from(value())),
            "--replay" => args.replay = Some(PathBuf::from(value())),
            s => args.budget = s.parse().unwrap_or_else(|_| usage(study)),
        }
    }
    args
}

/// Save the study's event log and/or verify it against a previously
/// recorded trace, exiting nonzero on an I/O error, a seed mismatch or
/// the first diverging event.
pub fn finish_record_replay(study: &str, args: &Args, world_size: u32, events: Vec<ReplayEvent>) {
    if let Some(path) = &args.record {
        let trace = Trace {
            label: study.to_string(),
            seed: args.seed,
            world_size,
            events: events.clone(),
        };
        match trace.save(path) {
            Ok(()) => println!(
                "\nrecorded {} events to {}",
                trace.events.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &args.replay {
        let trace = match Trace::load(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot load {}: {e}", path.display());
                std::process::exit(1);
            }
        };
        if trace.seed != args.seed {
            eprintln!(
                "trace {} was recorded with --seed {}, this run used --seed {}",
                path.display(),
                trace.seed,
                args.seed
            );
            std::process::exit(1);
        }
        match verify(&trace.events, &events) {
            Ok(()) => println!(
                "\nreplay ok: {} events match {}",
                events.len(),
                path.display()
            ),
            Err(d) => {
                eprintln!("\nreplay DIVERGED from {}: {d}", path.display());
                std::process::exit(1);
            }
        }
    }
}
