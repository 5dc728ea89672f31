//! Cross-backend equivalence check: run the `multiproc_smoke` scenario
//! across real OS processes over TCP and byte-compare every artifact
//! against the in-process backend and the committed golden corpus.
//!
//! ```text
//! multiproc_smoke [--corpus <dir>] [--port <base>] [--no-corpus]
//! multiproc_smoke --current-node <i> --port <base> --out <dir>   # internal
//! ```
//!
//! The parent re-execs itself once per node (the `mpirun`-without-a-
//! daemon model of [`cpx_comm::cluster`]); each child meshes up over
//! TCP, runs its ranks with event logging on, and writes a trace
//! fragment plus per-rank summary lines under `--out`. The parent
//! merges the fragments in rank order, renders the artifacts through
//! the exact code path the golden corpus uses, and demands byte
//! equality three ways: multi-process vs fresh in-process, and both vs
//! the committed `golden/multiproc_smoke/` files (unless `--no-corpus`).
//!
//! Any drift — a wire-framing bug, a virtual-time leak of host latency,
//! an ordering violation in the TCP transport — shows up as a named
//! artifact mismatch and a nonzero exit.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cpx_comm::{ports_fit, run_node_obs, ClusterConfig, NodeObsOptions};
use cpx_obs::{
    cluster_chrome_trace_json, cluster_metrics_json, cluster_virtual_trace_json, NodeObs,
};
use cpx_replay::launcher::{spawn_node, wait_until, WaitOutcome};
use cpx_replay::multiproc::{self, RankSummary};
use cpx_replay::{ReplayEvent, Trace};

fn usage() -> ! {
    eprintln!(
        "usage: multiproc_smoke [--corpus <dir>] [--port <base>] [--no-corpus] [--obs-dir <dir>]\n\
         internal: multiproc_smoke --current-node <i> --port <base> --out <dir> [--obs]"
    );
    std::process::exit(2);
}

fn cluster(port: u16) -> ClusterConfig {
    ClusterConfig::local(multiproc::WORLD, multiproc::NODES, port, multiproc::SEED)
}

fn main() -> ExitCode {
    let mut current_node: Option<usize> = None;
    let mut port: u16 = 23700;
    let mut out: Option<PathBuf> = None;
    let mut corpus = PathBuf::from("golden");
    let mut check_corpus = true;
    let mut obs = false;
    let mut obs_dir: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--current-node" => {
                current_node = args.next().and_then(|s| s.parse().ok());
                if current_node.is_none() {
                    usage();
                }
            }
            "--port" => match args.next().and_then(|s| s.parse().ok()) {
                Some(p) => port = p,
                None => usage(),
            },
            "--out" => out = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--corpus" => corpus = PathBuf::from(args.next().unwrap_or_else(|| usage())),
            "--no-corpus" => check_corpus = false,
            "--obs" => obs = true,
            "--obs-dir" => obs_dir = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            _ => usage(),
        }
    }

    if !ports_fit(port, multiproc::NODES) {
        eprintln!("port range passes 65535");
        usage();
    }

    match current_node {
        Some(node) => child(node, port, &out.unwrap_or_else(|| usage()), obs),
        None => parent(port, &corpus, check_corpus, obs_dir.as_deref()),
    }
}

/// One node of the distributed run: execute the scenario's local ranks
/// over the TCP mesh and leave a trace fragment plus summary lines for
/// the parent to merge.
fn child(node: usize, port: u16, out: &Path, obs: bool) -> ExitCode {
    let cfg = cluster(port);
    let opts = if obs {
        NodeObsOptions::full()
    } else {
        NodeObsOptions::default()
    };
    let (run, bundle) = match run_node_obs(
        multiproc::machine(),
        &cfg,
        node,
        multiproc::plan(),
        true,
        opts,
        multiproc::program,
    ) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("node {node}: mesh bring-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if obs {
        if let Err(e) = std::fs::write(out.join(format!("node{node}.obs.json")), bundle.encode()) {
            eprintln!("node {node}: writing obs bundle failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    let fragment = Trace {
        label: multiproc::LABEL.to_string(),
        seed: multiproc::SEED,
        world_size: multiproc::WORLD as u32,
        events: run.log.into_iter().map(ReplayEvent::from).collect(),
    };
    if let Err(e) = fragment.save(&out.join(format!("node{node}.trace.cpxr"))) {
        eprintln!("node {node}: writing trace fragment failed: {e}");
        return ExitCode::FAILURE;
    }
    let mut lines = String::new();
    for (&rank, rr) in run.ranks.iter().zip(&run.runs) {
        lines.push_str(&RankSummary::from_run(rank, rr).encode());
        lines.push('\n');
    }
    if let Err(e) = std::fs::write(out.join(format!("node{node}.ranks.txt")), lines) {
        eprintln!("node {node}: writing rank summaries failed: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Decode every `nodeN.obs.json` bundle from the scratch dir and write
/// the merged cluster artifacts under `dir`.
fn merge_obs(tmp: &Path, dir: &Path) -> std::io::Result<()> {
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let mut nodes = Vec::with_capacity(multiproc::NODES);
    for node in 0..multiproc::NODES {
        let text = std::fs::read_to_string(tmp.join(format!("node{node}.obs.json")))?;
        nodes
            .push(NodeObs::decode(&text).map_err(|e| bad(format!("node {node} obs bundle: {e}")))?);
    }
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join("cluster_trace.json"),
        cluster_chrome_trace_json(&nodes),
    )?;
    std::fs::write(
        dir.join("cluster_trace_virtual.json"),
        cluster_virtual_trace_json(&nodes),
    )?;
    std::fs::write(
        dir.join("cluster_metrics.json"),
        cluster_metrics_json(&nodes, &[]).write_pretty(),
    )?;
    Ok(())
}

fn parent(port: u16, corpus: &Path, check_corpus: bool, obs_dir: Option<&Path>) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate own binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let tmp = std::env::temp_dir().join(format!("cpx_multiproc_smoke_{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("cannot create scratch dir {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }

    let mut children = Vec::new();
    for node in 0..multiproc::NODES {
        let mut args = vec![
            "--current-node".to_string(),
            node.to_string(),
            "--port".to_string(),
            port.to_string(),
            "--out".to_string(),
            tmp.display().to_string(),
        ];
        if obs_dir.is_some() {
            args.push("--obs".to_string());
        }
        match spawn_node(&exe, &args) {
            Ok(c) => children.push(c),
            Err(e) => {
                eprintln!("spawning node {node} failed: {e}");
                for mut c in children {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                return ExitCode::FAILURE;
            }
        }
    }

    let deadline = Instant::now() + Duration::from_secs(120);
    let mut ok = true;
    for (node, child) in children.iter_mut().enumerate() {
        match wait_until(child, deadline) {
            Ok(WaitOutcome::Exited(st)) if st.success() => {}
            Ok(WaitOutcome::Exited(st)) => {
                eprintln!("node {node} exited with {st}");
                ok = false;
            }
            Ok(WaitOutcome::TimedOut) => {
                eprintln!("node {node} timed out; killing the remaining children");
                ok = false;
            }
            Err(e) => {
                eprintln!("waiting for node {node} failed: {e}");
                ok = false;
            }
        }
    }
    if !ok {
        for mut c in children {
            let _ = c.kill();
            let _ = c.wait();
        }
        return ExitCode::FAILURE;
    }

    // Merge fragments. With the block partition of `ClusterConfig::
    // local`, node-order concatenation of the per-node (rank-ordered)
    // event logs *is* world rank order — the same order the in-process
    // backend emits. The assert pins that assumption.
    let cfg = cluster(port);
    let flat: Vec<usize> = cfg.node_ranks.iter().flatten().copied().collect();
    assert!(
        flat.windows(2).all(|w| w[0] < w[1]),
        "node partition must be block-ordered for rank-order merging"
    );
    let mut events = Vec::new();
    let mut summaries = Vec::new();
    for node in 0..multiproc::NODES {
        let frag = match Trace::load(&tmp.join(format!("node{node}.trace.cpxr"))) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("node {node} trace fragment unreadable: {e}");
                return ExitCode::FAILURE;
            }
        };
        events.extend(frag.events);
        let text = match std::fs::read_to_string(tmp.join(format!("node{node}.ranks.txt"))) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("node {node} rank summaries unreadable: {e}");
                return ExitCode::FAILURE;
            }
        };
        for line in text.lines() {
            match RankSummary::decode(line) {
                Some(s) => summaries.push(s),
                None => {
                    eprintln!("node {node} produced a malformed summary line: {line:?}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    summaries.sort_by_key(|s| s.rank);
    let merged = multiproc::artifacts(&summaries, events);

    // Three-way byte equality: multi-process vs in-process, then (by
    // transitivity) both vs the committed corpus.
    let mut failures = 0usize;
    let inproc = multiproc::run_inproc();
    if merged.trace != inproc.trace {
        eprintln!("FAIL trace: multi-process event stream differs from in-process");
        failures += 1;
    }
    if merged.report != inproc.report {
        eprintln!("FAIL report.md: multi-process rendering differs from in-process");
        failures += 1;
    }
    if merged.bench != inproc.bench {
        eprintln!("FAIL bench.json: multi-process rendering differs from in-process");
        failures += 1;
    }
    if check_corpus {
        let dir = corpus.join(multiproc::LABEL);
        match Trace::load(&dir.join("trace.cpxr")) {
            Ok(committed) if committed == merged.trace => {}
            Ok(_) => {
                eprintln!("FAIL trace.cpxr: multi-process trace differs from the committed corpus");
                failures += 1;
            }
            Err(e) => {
                eprintln!("FAIL trace.cpxr: committed trace unreadable: {e}");
                failures += 1;
            }
        }
        for (file, fresh) in [
            ("report.md", merged.report.as_bytes()),
            ("bench.json", merged.bench.as_bytes()),
        ] {
            match std::fs::read(dir.join(file)) {
                Ok(committed) if committed == fresh => {}
                Ok(_) => {
                    eprintln!("FAIL {file}: multi-process bytes differ from the committed corpus");
                    failures += 1;
                }
                Err(e) => {
                    eprintln!("FAIL {file}: committed artifact unreadable: {e}");
                    failures += 1;
                }
            }
        }
    }

    // Merge the per-node observability bundles into one cross-node
    // Chrome trace (plus the byte-deterministic virtual-only variant
    // CI compares across runs) and one cluster metrics snapshot.
    if let Some(dir) = obs_dir {
        match merge_obs(&tmp, dir) {
            Ok(()) => println!(
                "ok  observability: merged {} node bundles into {}",
                multiproc::NODES,
                dir.display()
            ),
            Err(e) => {
                eprintln!("FAIL observability merge: {e}");
                failures += 1;
            }
        }
    }

    let _ = std::fs::remove_dir_all(&tmp);
    if failures > 0 {
        eprintln!("{failures} artifact comparison(s) failed");
        ExitCode::FAILURE
    } else {
        println!(
            "ok  multiproc_smoke: {} ranks over {} processes, {} events, \
             artifacts byte-identical to the in-process backend{}",
            multiproc::WORLD,
            multiproc::NODES,
            merged.trace.events.len(),
            if check_corpus {
                " and the committed corpus"
            } else {
                ""
            }
        );
        ExitCode::SUCCESS
    }
}
