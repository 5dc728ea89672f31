//! Crash chaos harness: real worker processes, real SIGKILLs, and the
//! shrink-recovery protocol picking up the pieces.
//!
//! ```text
//! chaos_study [--trials N] [--base-seed S] [--port <base>] [--report <path>]
//! chaos_study --current-node <i> --port <base> --seed <s> --out <dir>  # internal
//! ```
//!
//! Each trial launches an 8-rank resilient run split over 4 OS
//! processes (2 ranks each) connected by TCP, then — at a seeded delay
//! mid-run — SIGKILLs one whole worker process. That is a *real* crash:
//! no fault plan, no cooperative unwind; the victim's sockets drop and
//! the survivors' failure detector (EOF-without-goodbye, heartbeat
//! fallback) maps the dead node onto dead-rank marks, which send the
//! ULFM-style revoke → agree → shrink → rollback recovery of
//! [`cpx_comm::resilient_loop`] through its paces.
//!
//! The trial passes only if every surviving rank completes all
//! iterations, counts exactly the victim's ranks in `faults_survived`,
//! finishes in the shrunken group, and agrees bit-for-bit on the final
//! value with every other survivor. The kill schedule (victim node,
//! delay) is a pure function of the trial seed, so failures reproduce.
//! A JSON resilience report of every trial is written for CI upload.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cpx_comm::{
    ports_fit, resilient_loop, run_node_obs, ClusterConfig, NodeObsOptions, RankOutcome,
    ResilientConfig,
};
use cpx_machine::{KernelCost, Machine};
use cpx_obs::json::Json;
use cpx_obs::{cluster_chrome_trace_json, cluster_metrics_json, NodeObs};
use cpx_replay::launcher::{seed_mix, spawn_node, wait_until, WaitOutcome};

/// World shape: 8 ranks over 4 processes, 2 ranks per process.
const WORLD: usize = 8;
const NODES: usize = 4;

/// Iterations and checkpoint cadence of the resilient loop. Each
/// iteration sleeps ~3 ms of wall clock (below), so a run takes >= 1.5 s
/// — comfortably past the latest possible kill, which guarantees the
/// SIGKILL always lands mid-run.
const ITERS: usize = 500;
const CKPT_EVERY: usize = 10;

/// Kill delay window (milliseconds after spawning the workers). The
/// lower bound leaves loopback mesh bring-up well behind; the upper
/// bound stays far below the >= 1.5 s run time.
const KILL_MIN_MS: u64 = 250;
const KILL_SPREAD_MS: u64 = 400;

fn usage() -> ! {
    eprintln!(
        "usage: chaos_study [--trials N] [--base-seed S] [--port <base>] [--report <path>]\n\
         \x20                  [--obs-dir <dir>] [--metrics-port <base>]\n\
         internal: chaos_study --current-node <i> --port <base> --seed <s> --out <dir>\n\
         \x20         [--obs] [--metrics-addr <addr>]"
    );
    std::process::exit(2);
}

fn cluster(port: u16, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::local(WORLD, NODES, port, seed);
    // EOF detection catches a SIGKILLed peer in milliseconds; the
    // heartbeat timeout is the fallback for wedged-but-connected peers,
    // and 1 s keeps even that path short.
    cfg.heartbeat_timeout = Duration::from_millis(1000);
    cfg
}

/// One surviving rank's report line, as written by the children and
/// parsed back by the parent (value as raw bits, so the cross-survivor
/// agreement check is exact).
struct ChaosRank {
    rank: usize,
    completed_iters: usize,
    faults_survived: usize,
    rollbacks: usize,
    final_group_size: usize,
    value: f64,
}

impl ChaosRank {
    fn encode(&self) -> String {
        format!(
            "{} {} {} {} {} {}",
            self.rank,
            self.completed_iters,
            self.faults_survived,
            self.rollbacks,
            self.final_group_size,
            self.value.to_bits()
        )
    }

    fn decode(line: &str) -> Option<ChaosRank> {
        let mut it = line.split_whitespace();
        let mut next = || it.next()?.parse::<u64>().ok();
        let out = ChaosRank {
            rank: next()? as usize,
            completed_iters: next()? as usize,
            faults_survived: next()? as usize,
            rollbacks: next()? as usize,
            final_group_size: next()? as usize,
            value: f64::from_bits(next()?),
        };
        if it.next().is_some() {
            return None;
        }
        Some(out)
    }
}

fn main() -> ExitCode {
    let mut current_node: Option<usize> = None;
    let mut port: u16 = 23800;
    let mut seed: u64 = 0xC4A05;
    let mut out: Option<PathBuf> = None;
    let mut trials: usize = 3;
    let mut report_path = PathBuf::from("target/chaos_report.json");
    let mut obs = false;
    let mut obs_dir: Option<PathBuf> = None;
    let mut metrics_addr: Option<String> = None;
    let mut metrics_port: Option<u16> = None;

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
            "--seed" | "--base-seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => usage(),
            },
            "--out" => out = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--trials" => match args.next().and_then(|s| s.parse().ok()) {
                Some(t) => trials = t,
                None => usage(),
            },
            "--report" => report_path = PathBuf::from(args.next().unwrap_or_else(|| usage())),
            "--obs" => obs = true,
            "--obs-dir" => obs_dir = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--metrics-addr" => metrics_addr = Some(args.next().unwrap_or_else(|| usage())),
            "--metrics-port" => match args.next().and_then(|s| s.parse().ok()) {
                Some(p) => metrics_port = Some(p),
                None => usage(),
            },
            _ => usage(),
        }
    }

    // A child meshes `NODES` ports; the parent gives each trial its own
    // `NODES` mesh ports and `NODES` metrics ports. All must fit in u16.
    let span = match current_node {
        Some(_) => NODES,
        None => trials.saturating_mul(NODES),
    };
    if !ports_fit(port, span) || metrics_port.is_some_and(|m| !ports_fit(m, span)) {
        eprintln!("port range passes 65535");
        usage();
    }

    let opts = ObsSetup {
        obs_dir,
        metrics_port,
    };
    match current_node {
        Some(node) => child(
            node,
            port,
            seed,
            &out.unwrap_or_else(|| usage()),
            obs,
            metrics_addr,
        ),
        None => parent(trials, seed, port, &report_path, &opts),
    }
}

/// Parent-side observability switches: where to put merged per-trial
/// artifacts, and the base port for the children's `/metrics` servers.
struct ObsSetup {
    obs_dir: Option<PathBuf>,
    metrics_port: Option<u16>,
}

/// One worker process: run the resilient loop on this node's ranks.
/// The per-iteration sleep stretches wall-clock time so the parent's
/// SIGKILL lands mid-computation; all *simulated* time stays virtual.
fn child(
    node: usize,
    port: u16,
    seed: u64,
    out: &Path,
    obs: bool,
    metrics_addr: Option<String>,
) -> ExitCode {
    let cfg = cluster(port, seed);
    let rcfg = ResilientConfig::new(ITERS, CKPT_EVERY);
    // A bare plan: no injected link faults — the only failures in a
    // chaos trial are the real SIGKILLs.
    let plan = cpx_comm::FaultPlan::new(seed);
    let opts = NodeObsOptions {
        traced: obs,
        wall: obs,
        net_stats: obs || metrics_addr.is_some(),
        metrics_addr,
    };
    let (run, bundle) = match run_node_obs(Machine::archer2(), &cfg, node, plan, false, opts, {
        move |ctx| {
            resilient_loop(ctx, &rcfg, |ctx, _iter| {
                std::thread::sleep(Duration::from_millis(3));
                ctx.compute(KernelCost::flops(5e5 * (ctx.rank() + 1) as f64));
                (ctx.rank() + 1) as f64
            })
        }
    }) {
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
    let mut lines = String::new();
    for (&rank, rr) in run.ranks.iter().zip(&run.runs) {
        match &rr.outcome {
            RankOutcome::Completed(report) => {
                lines.push_str(
                    &ChaosRank {
                        rank,
                        completed_iters: report.completed_iters,
                        faults_survived: report.faults_survived,
                        rollbacks: report.rollbacks,
                        final_group_size: report.final_group_size,
                        value: report.value,
                    }
                    .encode(),
                );
                lines.push('\n');
            }
            other => {
                eprintln!("node {node}: rank {rank} did not complete: {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(e) = std::fs::write(out.join(format!("node{node}.txt")), lines) {
        eprintln!("node {node}: writing report failed: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Blocking `GET <path>` against a loopback observability endpoint;
/// returns the response body on a 200.
fn http_get(addr: &str, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    if !raw.starts_with("HTTP/1.1 200") {
        return Err(bad(&format!(
            "unexpected status line: {:?}",
            raw.lines().next().unwrap_or("")
        )));
    }
    match raw.split_once("\r\n\r\n") {
        Some((_, body)) => Ok(body.to_string()),
        None => Err(bad("no header/body separator in response")),
    }
}

/// Probe one node's live `/healthz` + `/metrics` mid-trial; returns a
/// JSON record of what the endpoint reported, or an error string.
fn probe_metrics(addr: &str) -> Result<Json, String> {
    let health = http_get(addr, "/healthz").map_err(|e| format!("/healthz: {e}"))?;
    let health = Json::parse(&health).map_err(|e| format!("/healthz parse: {e}"))?;
    let metrics = http_get(addr, "/metrics").map_err(|e| format!("/metrics: {e}"))?;
    let metrics = Json::parse(&metrics).map_err(|e| format!("/metrics parse: {e}"))?;
    let num = |j: &Json, key: &str| j.get(key).and_then(Json::as_f64).unwrap_or(-1.0);
    let live = metrics
        .get("live_peers")
        .and_then(|j| match j {
            Json::Arr(a) => Some(a.len() as f64),
            _ => None,
        })
        .unwrap_or(-1.0);
    Ok(Json::obj(vec![
        ("addr", Json::Str(addr.to_string())),
        ("status", Json::Str("ok".to_string())),
        ("generation", Json::Num(num(&metrics, "generation"))),
        ("live_peers", Json::Num(live)),
        ("health_generation", Json::Num(num(&health, "generation"))),
    ]))
}

/// Run one seeded trial; returns the trial's JSON record and whether it
/// passed.
fn run_trial(exe: &Path, trial: usize, seed: u64, base_port: u16, obs: &ObsSetup) -> (Json, bool) {
    let port = base_port + (trial * NODES) as u16;
    let cfg = cluster(port, seed);
    let kill_delay = Duration::from_millis(KILL_MIN_MS + seed_mix(seed) % KILL_SPREAD_MS);
    // Node 0 always survives so at least one multi-rank process drives
    // the recovery; any of the others can be the victim.
    let victim = 1 + (seed_mix(seed ^ 0xD1E) % (NODES as u64 - 1)) as usize;
    let victim_ranks = cfg.node_ranks[victim].clone();
    let mut failures: Vec<String> = Vec::new();

    let tmp = std::env::temp_dir().join(format!("cpx_chaos_{}_{trial}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        failures.push(format!("cannot create scratch dir: {e}"));
    }

    // Per-trial metrics ports, offset like the mesh ports so back-to-
    // back trials never race a lingering listener.
    let metrics_port_of = |node: usize| {
        obs.metrics_port
            .map(|base| base + (trial * NODES + node) as u16)
    };

    let started = Instant::now();
    let mut children = Vec::new();
    for node in 0..NODES {
        let mut args = vec![
            "--current-node".to_string(),
            node.to_string(),
            "--port".to_string(),
            port.to_string(),
            "--seed".to_string(),
            seed.to_string(),
            "--out".to_string(),
            tmp.display().to_string(),
        ];
        if obs.obs_dir.is_some() {
            args.push("--obs".to_string());
        }
        if let Some(mp) = metrics_port_of(node) {
            args.push("--metrics-addr".to_string());
            args.push(format!("127.0.0.1:{mp}"));
        }
        match spawn_node(exe, &args) {
            Ok(c) => children.push(Some(c)),
            Err(e) => {
                failures.push(format!("spawning node {node} failed: {e}"));
                children.push(None);
            }
        }
    }

    // The kill: SIGKILL the whole victim process mid-run. No unwind
    // runs in the victim; its sockets simply drop.
    std::thread::sleep(kill_delay);
    if let Some(Some(victim_child)) = children.get_mut(victim) {
        let _ = victim_child.kill();
        let _ = victim_child.wait();
    }

    // With the victim down and the survivors still looping (the run
    // outlasts the latest kill by >= 850 ms), hit node 0's live
    // endpoint: this is the observability plane observed *during* a
    // recovery, not after the fact.
    let probe = metrics_port_of(0).map(|mp| {
        std::thread::sleep(Duration::from_millis(200));
        match probe_metrics(&format!("127.0.0.1:{mp}")) {
            Ok(record) => record,
            Err(e) => {
                failures.push(format!("metrics probe failed: {e}"));
                Json::obj(vec![("status", Json::Str(e))])
            }
        }
    });

    let deadline = Instant::now() + Duration::from_secs(180);
    for (node, slot) in children.iter_mut().enumerate() {
        if node == victim {
            continue;
        }
        match slot.as_mut().map(|c| wait_until(c, deadline)) {
            Some(Ok(WaitOutcome::Exited(st))) if st.success() => {}
            Some(Ok(WaitOutcome::Exited(st))) => {
                failures.push(format!("survivor node {node} exited with {st}"));
            }
            Some(Ok(WaitOutcome::TimedOut)) => {
                failures.push(format!("survivor node {node} timed out"));
            }
            Some(Err(e)) => failures.push(format!("waiting for node {node} failed: {e}")),
            None => {} // spawn already failed and was recorded
        }
    }
    for slot in children.iter_mut().flatten() {
        let _ = slot.kill();
        let _ = slot.wait();
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    // Collect and check every surviving rank.
    let mut survivors: Vec<ChaosRank> = Vec::new();
    for node in 0..NODES {
        if node == victim {
            continue;
        }
        match std::fs::read_to_string(tmp.join(format!("node{node}.txt"))) {
            Ok(text) => {
                for line in text.lines() {
                    match ChaosRank::decode(line) {
                        Some(r) => survivors.push(r),
                        None => failures.push(format!("node {node}: malformed line {line:?}")),
                    }
                }
            }
            Err(e) => failures.push(format!("node {node} report unreadable: {e}")),
        }
    }
    survivors.sort_by_key(|r| r.rank);
    let expected_survivors: Vec<usize> = (0..WORLD).filter(|r| !victim_ranks.contains(r)).collect();
    if survivors.iter().map(|r| r.rank).collect::<Vec<_>>() != expected_survivors {
        failures.push(format!(
            "expected survivor ranks {expected_survivors:?}, got {:?}",
            survivors.iter().map(|r| r.rank).collect::<Vec<_>>()
        ));
    }
    for r in &survivors {
        if r.completed_iters != ITERS {
            failures.push(format!(
                "rank {}: completed {}/{ITERS} iterations",
                r.rank, r.completed_iters
            ));
        }
        if r.faults_survived != victim_ranks.len() {
            failures.push(format!(
                "rank {}: survived {} fault(s), expected {}",
                r.rank,
                r.faults_survived,
                victim_ranks.len()
            ));
        }
        if r.final_group_size != WORLD - victim_ranks.len() {
            failures.push(format!(
                "rank {}: finished in a group of {}, expected {}",
                r.rank,
                r.final_group_size,
                WORLD - victim_ranks.len()
            ));
        }
        if r.rollbacks == 0 {
            failures.push(format!("rank {}: no rollback despite a real crash", r.rank));
        }
    }
    // Every survivor must agree bit-for-bit on the final value: the
    // uniform-agreement property of the recovery protocol, observed
    // end-to-end through real process deaths.
    if let Some(first) = survivors.first() {
        for r in &survivors[1..] {
            if r.value.to_bits() != first.value.to_bits() {
                failures.push(format!(
                    "ranks {} and {} disagree on the final value ({} vs {})",
                    first.rank, r.rank, first.value, r.value
                ));
            }
        }
    }
    // Merge the surviving nodes' observability bundles. The victim
    // never writes one — a SIGKILL leaves no bundle behind — so the
    // merged trace shows exactly the processes that lived to report.
    if let Some(dir) = &obs.obs_dir {
        let mut bundles = Vec::new();
        for node in 0..NODES {
            if node == victim {
                continue;
            }
            let path = tmp.join(format!("node{node}.obs.json"));
            match std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| NodeObs::decode(&text).map_err(|e| e.to_string()))
            {
                Ok(b) => bundles.push(b),
                Err(e) => failures.push(format!("node {node} obs bundle: {e}")),
            }
        }
        if !bundles.is_empty() {
            let trial_dir = dir.join(format!("trial{trial}"));
            let extra = [("trial_seed", Json::Num(seed as f64))];
            let written = std::fs::create_dir_all(&trial_dir)
                .and_then(|()| {
                    std::fs::write(
                        trial_dir.join("cluster_trace.json"),
                        cluster_chrome_trace_json(&bundles),
                    )
                })
                .and_then(|()| {
                    std::fs::write(
                        trial_dir.join("cluster_metrics.json"),
                        cluster_metrics_json(&bundles, &extra).write_pretty(),
                    )
                });
            if let Err(e) = written {
                failures.push(format!("writing trial obs artifacts: {e}"));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);

    let passed = failures.is_empty();
    let record = Json::obj(vec![
        ("seed", Json::Num(seed as f64)),
        ("victim_node", Json::Num(victim as f64)),
        (
            "killed_ranks",
            Json::Arr(victim_ranks.iter().map(|&r| Json::Num(r as f64)).collect()),
        ),
        ("kill_delay_ms", Json::Num(kill_delay.as_millis() as f64)),
        ("wall_ms", Json::Num(wall_ms)),
        (
            "survivors",
            Json::Arr(
                survivors
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("rank", Json::Num(r.rank as f64)),
                            ("completed_iters", Json::Num(r.completed_iters as f64)),
                            ("faults_survived", Json::Num(r.faults_survived as f64)),
                            ("rollbacks", Json::Num(r.rollbacks as f64)),
                            ("final_group_size", Json::Num(r.final_group_size as f64)),
                            ("value", Json::Num(r.value)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "metrics_probe",
            probe.unwrap_or(Json::Str("disabled".to_string())),
        ),
        (
            "failures",
            Json::Arr(failures.iter().map(|f| Json::Str(f.clone())).collect()),
        ),
        ("passed", Json::Bool(passed)),
    ]);
    for f in &failures {
        eprintln!("trial seed {seed}: {f}");
    }
    (record, passed)
}

fn parent(
    trials: usize,
    base_seed: u64,
    base_port: u16,
    report_path: &Path,
    obs: &ObsSetup,
) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate own binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut records = Vec::new();
    let mut passed = 0usize;
    for trial in 0..trials {
        let seed = base_seed.wrapping_add(trial as u64);
        let (record, ok) = run_trial(&exe, trial, seed, base_port, obs);
        if ok {
            passed += 1;
            println!("ok  chaos trial {trial} (seed {seed})");
        } else {
            eprintln!("FAIL chaos trial {trial} (seed {seed})");
        }
        records.push(record);
    }
    let report = Json::obj(vec![
        ("schema_version", Json::Num(1.0)),
        ("world_size", Json::Num(WORLD as f64)),
        ("nodes", Json::Num(NODES as f64)),
        ("iters", Json::Num(ITERS as f64)),
        ("ckpt_every", Json::Num(CKPT_EVERY as f64)),
        ("trials", Json::Num(trials as f64)),
        ("passed", Json::Num(passed as f64)),
        ("runs", Json::Arr(records)),
    ])
    .write_pretty();
    if let Some(dir) = report_path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(report_path, report) {
        eprintln!("writing {} failed: {e}", report_path.display());
        return ExitCode::FAILURE;
    }
    println!(
        "chaos: {passed}/{trials} trials survived a mid-run SIGKILL; report at {}",
        report_path.display()
    );
    if passed == trials {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
