//! The coupled virtual run ("measured" side of the predictions).
//!
//! Builds one [`TraceProgram`] containing every instance and every CU at
//! its allocated rank count, advances a sampled window of density
//! iterations, and replays it on the machine model. Per-instance
//! runtimes come straight out of the replay and are scaled to the full
//! run length, exactly how the paper extrapolates its 0.5-revolution
//! measurement to 1 revolution.
//!
//! Representation notes:
//! * MG-CFD instances are emitted at full structural fidelity (their
//!   per-iteration halo/collective pattern);
//! * the SIMPIC instance runs thousands of internal timesteps per
//!   density iteration, so inside the coupled program its iteration is
//!   carried as an aggregate compute block (measured by its *own*
//!   standalone virtual run at the allocated rank count) plus its
//!   synchronisation collective — its ranks still participate fully in
//!   the steady-state CU exchanges;
//! * coupler units run their gather → remap/interpolate → scatter
//!   pattern against sampled surface ranks of both solver sides.

use cpx_coupler::layout::MpmdLayout;
use cpx_coupler::trace::{CouplerKind, CouplerTraceModel, ExchangePhases};
use cpx_machine::{CollectiveKind, Machine, Op, PhaseId, ReplayOutcome, Replayer, TraceProgram};
use cpx_mgcfd::MgCfdTraceModel;
use cpx_obs::json::{field, FromJson, Json, JsonError, ToJson};
use cpx_obs::TraceSession;
use cpx_perfmodel::Allocation;
use cpx_simpic::SimpicTraceModel;
use serde::{Deserialize, Serialize};

use crate::instance::{AppKind, Scenario};

/// Result of a coupled virtual run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoupledRun {
    /// Per-instance runtime over the *full* scenario window (scaled
    /// from the sampled iterations), in scenario app order.
    pub app_runtimes: Vec<f64>,
    /// Total coupled runtime over the full window.
    pub total_runtime: f64,
    /// Fraction of the coupled runtime attributable to coupling
    /// (measured as the slowdown versus an identical run with the CU
    /// exchanges removed).
    pub coupling_overhead: f64,
    /// Density iterations actually replayed.
    pub sample_iters: u64,
    /// World size of the run.
    pub world_size: usize,
    /// Injected faults the run absorbed without aborting: a survived
    /// rank crash counts one, each stale CU exchange counts one.
    pub faults_survived: u32,
    /// Extra runtime attributable to resilience — checkpoints, rollback
    /// re-execution, recovery coordination and the degraded-speed
    /// remainder — versus the fault-free run (seconds).
    pub recovery_overhead: f64,
    /// Seconds spent writing coordinated checkpoints.
    pub checkpoint_cost: f64,
    /// CU exchanges whose payload was lost and that fell back to the
    /// last-good (stale) mapping.
    pub stale_exchanges: u64,
    /// Injected silent corruptions the armed detector layer caught.
    pub sdc_detected: u32,
    /// Detected corruptions recovered (recompute or rollback; the
    /// flag-and-continue policy detects without recovering).
    pub sdc_recovered: u32,
    /// Runtime spent running the ABFT/invariant detectors every
    /// iteration (seconds over the full window) — the standing price of
    /// coverage, separate from `recovery_overhead`.
    pub abft_overhead: f64,
}

impl ToJson for CoupledRun {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("app_runtimes", self.app_runtimes.to_json()),
            ("total_runtime", Json::Num(self.total_runtime)),
            ("coupling_overhead", Json::Num(self.coupling_overhead)),
            ("sample_iters", Json::Num(self.sample_iters as f64)),
            ("world_size", Json::Num(self.world_size as f64)),
            (
                "faults_survived",
                Json::Num(f64::from(self.faults_survived)),
            ),
            ("recovery_overhead", Json::Num(self.recovery_overhead)),
            ("checkpoint_cost", Json::Num(self.checkpoint_cost)),
            ("stale_exchanges", Json::Num(self.stale_exchanges as f64)),
            ("sdc_detected", Json::Num(f64::from(self.sdc_detected))),
            ("sdc_recovered", Json::Num(f64::from(self.sdc_recovered))),
            ("abft_overhead", Json::Num(self.abft_overhead)),
        ])
    }
}

impl FromJson for CoupledRun {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(CoupledRun {
            app_runtimes: field(v, "app_runtimes")?,
            total_runtime: field(v, "total_runtime")?,
            coupling_overhead: field(v, "coupling_overhead")?,
            sample_iters: field(v, "sample_iters")?,
            world_size: field(v, "world_size")?,
            faults_survived: field::<u64>(v, "faults_survived")? as u32,
            recovery_overhead: field(v, "recovery_overhead")?,
            checkpoint_cost: field(v, "checkpoint_cost")?,
            stale_exchanges: field(v, "stale_exchanges")?,
            sdc_detected: field::<u64>(v, "sdc_detected")? as u32,
            sdc_recovered: field::<u64>(v, "sdc_recovered")? as u32,
            abft_overhead: field(v, "abft_overhead")?,
        })
    }
}

/// Evenly-spaced sample of an instance's ranks acting as its interface
/// surface ranks for a CU of `cu_p` ranks. Deduplicated (preserving
/// order): a rank that would be sampled twice — possible when the
/// stride floors onto the same index — must appear once, or the emitted
/// gather/scatter ops would double-count it.
fn surface_sample(ranks: &[usize], cu_p: usize) -> Vec<usize> {
    let want = (4 * cu_p).clamp(8, 256).min(ranks.len());
    let stride = (ranks.len() as f64 / want as f64).max(1.0);
    let mut seen = std::collections::HashSet::new();
    (0..want)
        .map(|k| ranks[(k as f64 * stride) as usize % ranks.len()])
        .filter(|&r| seen.insert(r))
        .collect()
}

/// Phase-name table of the phased coupled program: index 0 is the
/// untracked default, then one phase per app instance, then four per
/// coupler unit (gather / search / interpolate / scatter), matching the
/// ids `build_program` assigns when `phased` is set.
pub fn coupled_phase_names(scenario: &Scenario) -> Vec<String> {
    let mut names = vec!["(untracked)".to_string()];
    for app in &scenario.apps {
        names.push(app.name.clone());
    }
    for cu in &scenario.cus {
        for stage in ["gather", "search", "interpolate", "scatter"] {
            names.push(format!("{}: {stage}", cu.name));
        }
    }
    names
}

/// Build the coupled program for `sample_iters` density iterations.
/// Returns the program, the layout, and the per-app group ids. With
/// `phased`, every op is labelled with the phase ids of
/// [`coupled_phase_names`] (free markers; the op stream is otherwise
/// identical).
fn build_program(
    scenario: &Scenario,
    alloc: &Allocation,
    machine: &Machine,
    sample_iters: u64,
    include_cus: bool,
    phased: bool,
) -> (TraceProgram, MpmdLayout) {
    assert_eq!(alloc.app_ranks.len(), scenario.apps.len());
    assert_eq!(alloc.cu_ranks.len(), scenario.cus.len());

    let mut layout = MpmdLayout::new();
    for (app, &p) in scenario.apps.iter().zip(&alloc.app_ranks) {
        layout.add_app(&app.name, p);
    }
    for (cu, &p) in scenario.cus.iter().zip(&alloc.cu_ranks) {
        layout.add_cu(&cu.name, p);
    }
    layout.validate().expect("layout covers world");

    let mut program = TraceProgram::new(layout.world_size());
    let app_groups: Vec<usize> = layout
        .apps
        .iter()
        .map(|r| program.add_group(r.ranks()))
        .collect();

    // Pre-compute per-instance building blocks.
    enum Block {
        /// Full-fidelity per-iteration ops per rank (MG-CFD).
        Structural(Vec<Vec<Op>>),
        /// Aggregate per-iteration compute seconds (SIMPIC).
        Aggregate(f64),
    }
    let blocks: Vec<Block> = scenario
        .apps
        .iter()
        .enumerate()
        .map(|(ai, app)| {
            let ranks = layout.apps[ai].ranks();
            let p = ranks.len();
            match &app.kind {
                AppKind::MgCfd(cfg) => {
                    let model = MgCfdTraceModel::new(cfg.clone());
                    let bodies = (0..p)
                        .map(|i| {
                            if phased {
                                model.step_body_phased(
                                    i,
                                    p,
                                    &ranks,
                                    app_groups[ai],
                                    (1 + ai) as PhaseId,
                                )
                            } else {
                                model.step_body(i, p, &ranks, app_groups[ai])
                            }
                        })
                        .collect();
                    Block::Structural(bodies)
                }
                AppKind::Simpic(cfg) => {
                    let model = SimpicTraceModel::new(cfg.clone());
                    // Two pressure steps per density iteration, measured
                    // by SIMPIC's own standalone run at this rank count.
                    let secs = 2.0 * model.per_pressure_step_runtime(p, machine);
                    Block::Aggregate(secs)
                }
            }
        })
        .collect();

    let cu_models: Vec<CouplerTraceModel> = scenario
        .cus
        .iter()
        .map(|cu| CouplerTraceModel::new(cu.kind, cu.interface_points, cu.interface_points))
        .collect();

    // Deferred target-side ops of steady-state (lagged) exchanges.
    let mut deferred: Vec<(usize, Vec<Op>)> = Vec::new();
    for iter in 0..sample_iters {
        // Solver instances advance one density iteration.
        for (ai, app) in scenario.apps.iter().enumerate() {
            let ranks = layout.apps[ai].ranks();
            match &blocks[ai] {
                Block::Structural(bodies) => {
                    for (i, &r) in ranks.iter().enumerate() {
                        program.rank(r).ops.extend(bodies[i].iter().cloned());
                    }
                }
                Block::Aggregate(secs) => {
                    for &r in &ranks {
                        if phased {
                            program.rank(r).phase((1 + ai) as PhaseId);
                        }
                        program.rank(r).compute_secs(*secs);
                        program
                            .rank(r)
                            .collective(CollectiveKind::Allreduce, app_groups[ai], 8);
                    }
                }
            }
            let _ = app;
        }
        // Coupler exchanges.
        if include_cus {
            for (ci, cu) in scenario.cus.iter().enumerate() {
                let model = &cu_models[ci];
                if !model.exchanges_on(iter) {
                    continue;
                }
                let cu_ranks = layout.cus[ci].ranks();
                let a_surface = surface_sample(&layout.apps[cu.a].ranks(), cu_ranks.len());
                let b_surface = surface_sample(&layout.apps[cu.b].ranks(), cu_ranks.len());
                let first = iter == 0;
                // Steady-state couplings are lagged: the target applies
                // the previous exchange's data, so its receives are
                // deferred rather than synchronously awaited.
                let defer = matches!(cu.kind, CouplerKind::Steady { .. });
                let defer_buf = if defer { Some(&mut deferred) } else { None };
                if phased {
                    let base = (1 + scenario.apps.len() + 4 * ci) as PhaseId;
                    model.emit_exchange_phased(
                        &mut program,
                        &cu_ranks,
                        &a_surface,
                        &b_surface,
                        machine,
                        first,
                        (1000 + ci * 4) as u32,
                        defer_buf,
                        ExchangePhases {
                            gather: base,
                            search: base + 1,
                            interpolate: base + 2,
                            scatter: base + 3,
                        },
                    );
                } else {
                    model.emit_exchange_deferred(
                        &mut program,
                        &cu_ranks,
                        &a_surface,
                        &b_surface,
                        machine,
                        first,
                        (1000 + ci * 4) as u32,
                        defer_buf,
                    );
                }
            }
        }
    }

    // Flush lagged receives at the end of the window.
    for (rank, ops) in deferred {
        program.rank(rank).ops.extend(ops);
    }

    (program, layout)
}

/// Execute the coupled virtual run.
///
/// `sample_iters` density iterations are replayed (a multiple of the
/// 20-iteration steady-exchange period keeps the amortisation exact)
/// and scaled to `scenario.density_iters`.
pub fn run_coupled(
    scenario: &Scenario,
    alloc: &Allocation,
    machine: &Machine,
    sample_iters: u64,
) -> CoupledRun {
    run_coupled_with(scenario, alloc, machine, sample_iters, None)
}

/// As [`run_coupled`], with an optional `(amplitude, seed)` system-noise
/// model applied to the measurement (the paper's real-machine runs are
/// noisy; the model's base benchmarks are taken as the clean reference).
pub fn run_coupled_with(
    scenario: &Scenario,
    alloc: &Allocation,
    machine: &Machine,
    sample_iters: u64,
    noise: Option<(f64, u64)>,
) -> CoupledRun {
    assert!(sample_iters >= 1);
    let (program, layout) = build_program(scenario, alloc, machine, sample_iters, true, false);
    let mut replayer = Replayer::new(machine.clone());
    if let Some((amp, seed)) = noise {
        replayer = replayer.with_noise(amp, seed);
    }
    let out = replayer.run(&program).expect("coupled program replays");

    let scale = scenario.density_iters as f64 / sample_iters as f64;
    let app_runtimes: Vec<f64> = layout
        .apps
        .iter()
        .map(|r| out.makespan_of(&r.ranks()) * scale)
        .collect();
    let total_runtime = out.makespan() * scale;

    // Coupling overhead: rerun without CU exchanges.
    let (bare, _) = build_program(scenario, alloc, machine, sample_iters, false, false);
    let bare_out = replayer.run(&bare).expect("bare program replays");
    let bare_total = bare_out.makespan() * scale;
    let coupling_overhead = ((total_runtime - bare_total) / total_runtime).max(0.0);

    CoupledRun {
        app_runtimes,
        total_runtime,
        coupling_overhead,
        sample_iters,
        world_size: layout.world_size(),
        faults_survived: 0,
        recovery_overhead: 0.0,
        checkpoint_cost: 0.0,
        stale_exchanges: 0,
        sdc_detected: 0,
        sdc_recovered: 0,
        abft_overhead: 0.0,
    }
}

/// Replay the coupled program with full observability: every op is
/// labelled with the phase ids of [`coupled_phase_names`], the replay
/// tracks the per-phase compute/comm breakdown, and each rank's
/// phase-segment timeline is recorded as a [`TraceSession`] for the
/// Chrome-trace / flamegraph exporters. Phase markers are free in the
/// replayer, so timings are identical to [`run_coupled`]'s program.
///
/// Returns `(phase_names, outcome, session)`; `outcome.phases` is
/// always populated.
pub fn trace_coupled(
    scenario: &Scenario,
    alloc: &Allocation,
    machine: &Machine,
    sample_iters: u64,
) -> (Vec<String>, ReplayOutcome, TraceSession) {
    assert!(sample_iters >= 1);
    let names = coupled_phase_names(scenario);
    let (program, _) = build_program(scenario, alloc, machine, sample_iters, true, true);
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let (out, session) = Replayer::new(machine.clone())
        .track_phases(names.len())
        .run_traced(&program, &name_refs)
        .expect("phased coupled program replays");
    (names, out, session)
}

/// One recorded resilience decision of a resilient coupled run (see
/// [`run_coupled_resilient_logged`]): which checkpoint/rollback/shrink
/// and SDC detect/recover actions the scenario's fault plan forced, in
/// deterministic emission order. The whole resilient timeline is a pure
/// function of `(scenario, allocation, machine)`, so two runs of the
/// same inputs produce identical logs — which is what makes the log a
/// recordable/replayable artifact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ResilienceEvent {
    /// A CU exchange payload was lost; the target re-applied its
    /// last-good (stale) mapping.
    StaleExchange {
        /// Density iteration of the wasted exchange.
        iter: u64,
        /// Coupler-unit index in scenario order.
        cu: usize,
    },
    /// A coordinated checkpoint was written.
    Checkpoint {
        /// Density iteration the checkpoint covers through.
        iter: u64,
    },
    /// The fault plan crashed a rank of an app instance.
    Crash {
        /// App-instance index in scenario order.
        app: usize,
        /// Density iteration the crash landed in.
        iter: u64,
        /// Virtual time of the crash.
        vtime: f64,
    },
    /// The run rolled back to the last checkpoint.
    Rollback {
        /// Density iteration of the restored checkpoint.
        to_iter: u64,
    },
    /// The crashed instance's group redistributed the dead rank's cells
    /// over one fewer rank (ULFM-style shrink recovery).
    Shrink {
        /// App-instance index in scenario order.
        app: usize,
        /// Rank count of the instance after the shrink.
        ranks_after: usize,
    },
    /// The armed detector layer caught an injected silent corruption.
    SdcDetected {
        /// Density iteration of the strike.
        iter: u64,
        /// Where the corruption was injected.
        site: crate::sdc::SdcSite,
    },
    /// A detected corruption was recovered under the scenario policy.
    SdcRecovered {
        /// Density iteration of the strike.
        iter: u64,
        /// Virtual seconds the recovery cost.
        cost: f64,
    },
}

/// The coupled program of [`run_coupled`] (all instances and CUs at
/// their allocated rank counts, `sample_iters` density iterations),
/// plus the MPMD layout. Exposed so external record/replay tooling can
/// re-drive the exact program through the DES replayer.
pub fn coupled_program(
    scenario: &Scenario,
    alloc: &Allocation,
    machine: &Machine,
    sample_iters: u64,
) -> (TraceProgram, MpmdLayout) {
    assert!(sample_iters >= 1);
    build_program(scenario, alloc, machine, sample_iters, true, false)
}

/// As [`coupled_program`] but with every op labelled with the phase ids
/// of [`coupled_phase_names`]. The op stream is otherwise identical —
/// phase markers are free — so replays of the phased and unphased
/// programs produce the same virtual times. This is the input the
/// critical-path analytics build their task graph from: phase labels
/// are what the path attribution and the what-if rescaling key on.
pub fn coupled_program_phased(
    scenario: &Scenario,
    alloc: &Allocation,
    machine: &Machine,
    sample_iters: u64,
) -> (TraceProgram, MpmdLayout) {
    assert!(sample_iters >= 1);
    build_program(scenario, alloc, machine, sample_iters, true, true)
}

/// Cost of `passes` bandwidth-bound passes over every solver rank's
/// state (the five conservative variables per local cell), closed by an
/// 8-byte world allreduce. Replayed as its own trace so the price
/// reflects the machine model, not a hand constant.
///
/// A coordinated checkpoint is two passes (the drain costs twice the
/// memory traffic) and its allreduce is the consistency marker. The
/// armed detector layer's per-iteration ABFT column-sum scrub /
/// invariant scan is one pass, with the allreduce agreeing on the
/// verdict: that is the `abft_overhead` the report quantifies against
/// coverage, and one extra state pass against the many a flux
/// evaluation already makes is what keeps it under the paper-grade 10%
/// bound.
fn state_pass_secs(scenario: &Scenario, alloc: &Allocation, machine: &Machine, passes: f64) -> f64 {
    let world: usize = alloc.app_ranks.iter().sum::<usize>() + alloc.cu_ranks.iter().sum::<usize>();
    let mut program = TraceProgram::new(world);
    let everyone = program.add_group((0..world).collect());
    let mut rank = 0usize;
    for (app, &p) in scenario.apps.iter().zip(&alloc.app_ranks) {
        let state_share = app.cells / p as f64 * 5.0 * 8.0;
        for _ in 0..p {
            program
                .rank(rank)
                .compute(cpx_machine::KernelCost::bytes(state_share * passes));
            program
                .rank(rank)
                .collective(CollectiveKind::Allreduce, everyone, 8);
            rank += 1;
        }
    }
    for r in rank..world {
        program
            .rank(r)
            .collective(CollectiveKind::Allreduce, everyone, 8);
    }
    Replayer::new(machine.clone())
        .run(&program)
        .expect("state-pass trace replays")
        .makespan()
}

/// Execute the coupled run under the scenario's injected
/// [`FaultScenario`](crate::instance::FaultScenario), modelling
/// checkpoint/rollback/shrink recovery.
///
/// The clean run fixes the per-iteration pace. Coordinated checkpoints
/// every `K` density iterations charge their replayed cost throughout.
/// When the crash lands inside the window, the run rolls back to the
/// last checkpoint (losing `crash_iter mod K` iterations), pays a
/// restart (checkpoint read-back plus a log-depth coordination sweep),
/// and finishes every remaining iteration at the pace of the *shrunk*
/// allocation — the crashed instance's group redistributes the dead
/// rank's cells over one fewer rank, ULFM-style, rather than aborting
/// the whole coupled job. Dropped CU exchanges never stall the target:
/// it re-applies its last-good mapping (the prefetch-search cache) and
/// the staleness is counted.
///
/// Without a fault attached this is exactly [`run_coupled`].
pub fn run_coupled_resilient(
    scenario: &Scenario,
    alloc: &Allocation,
    machine: &Machine,
    sample_iters: u64,
) -> CoupledRun {
    run_coupled_resilient_logged(scenario, alloc, machine, sample_iters).0
}

/// [`run_coupled_resilient`] plus the deterministic log of every
/// resilience decision the run took — checkpoints written, the crash /
/// rollback / shrink sequence, stale CU exchanges, and SDC detection /
/// recovery — in emission order. Same inputs ⇒ identical log and
/// identical [`CoupledRun`].
pub fn run_coupled_resilient_logged(
    scenario: &Scenario,
    alloc: &Allocation,
    machine: &Machine,
    sample_iters: u64,
) -> (CoupledRun, Vec<ResilienceEvent>) {
    let mut log = Vec::new();
    let clean = run_coupled(scenario, alloc, machine, sample_iters);
    let Some(fault) = &scenario.fault else {
        return (clean, log);
    };

    let iters = scenario.density_iters;
    let k = fault.checkpoint_interval.max(1);
    let ckpt = state_pass_secs(scenario, alloc, machine, 2.0);
    let t_iter = clean.total_runtime / iters as f64;

    // Stale CU exchanges: the payload is lost in flight, so the target
    // side's surface ranks re-apply the cached last-good mapping on top
    // of the wasted exchange — a local interpolation pass, no network.
    let mut stale_exchanges = 0u64;
    let mut stale_cost = 0.0;
    for &it in &fault.dropped_cu_exchanges {
        if it >= iters {
            continue;
        }
        for (ci, cu) in scenario.cus.iter().enumerate() {
            let model = CouplerTraceModel::new(cu.kind, cu.interface_points, cu.interface_points);
            if model.exchanges_on(it) {
                stale_exchanges += 1;
                stale_cost += model.interp_secs_per_rank(alloc.cu_ranks[ci].max(1));
                log.push(ResilienceEvent::StaleExchange { iter: it, cu: ci });
            }
        }
    }

    // Checkpoints are taken when the scenario can actually need them:
    // a crash is possible, or detected corruption recovers by rollback.
    // A recompute / flag-only SDC study carries no checkpoint tax, so
    // its measured cost is the detector overhead alone.
    let checkpointing = fault.crash_time.is_finite()
        || (fault.sdc_policy == crate::sdc::SdcPolicy::Rollback && !fault.sdc_events.is_empty());
    let n_ckpts = if checkpointing { iters / k } else { 0 };
    for c in 1..=n_ckpts {
        log.push(ResilienceEvent::Checkpoint { iter: c * k });
    }
    let mut checkpoint_cost = n_ckpts as f64 * ckpt;
    let mut faults_survived = stale_exchanges as u32;
    let mut total_runtime = clean.total_runtime + checkpoint_cost + stale_cost;

    let crash_happens =
        fault.crash_time < clean.total_runtime && alloc.app_ranks[fault.crash_app] > 1;
    if crash_happens {
        faults_survived += 1;
        let crash_iter = ((fault.crash_time / t_iter) as u64).min(iters - 1);
        let last_ckpt = (crash_iter / k) * k;
        log.push(ResilienceEvent::Crash {
            app: fault.crash_app,
            iter: crash_iter,
            vtime: fault.crash_time,
        });
        log.push(ResilienceEvent::Rollback { to_iter: last_ckpt });

        // Shrunk allocation: the crashed instance's group absorbs the
        // dead rank's share over one fewer rank.
        let mut shrunk = alloc.clone();
        shrunk.app_ranks[fault.crash_app] -= 1;
        log.push(ResilienceEvent::Shrink {
            app: fault.crash_app,
            ranks_after: shrunk.app_ranks[fault.crash_app],
        });
        let (program, _) = build_program(scenario, &shrunk, machine, sample_iters, true, false);
        let degraded = Replayer::new(machine.clone())
            .run(&program)
            .expect("shrunk program replays");
        let t_iter_degraded = degraded.makespan() / sample_iters as f64;

        // Restart: read the checkpoint back (priced like the write) and
        // re-establish communicators with a log-depth sweep.
        let world = clean.world_size as f64;
        let restart = ckpt + machine.inter_latency * world.max(2.0).log2();

        // Timeline: full speed until the crash, with the checkpoints
        // taken so far; roll back and redo everything since the last
        // checkpoint — and the rest of the window — at the degraded
        // pace, still checkpointing.
        let ckpts_before = crash_iter / k;
        checkpoint_cost = n_ckpts as f64 * ckpt;
        total_runtime = fault.crash_time
            + ckpts_before as f64 * ckpt
            + restart
            + (iters - last_ckpt) as f64 * t_iter_degraded
            + (n_ckpts - ckpts_before) as f64 * ckpt
            + stale_cost;
    }

    // Silent-data-corruption detection and recovery. With the detector
    // layer armed, every iteration pays the replayed ABFT/invariant
    // scan; each injected event inside the window is caught and the
    // policy prices its recovery. Disarmed, events propagate silently —
    // no detection, no recovery, no overhead (the coverage baseline).
    let abft_overhead = if fault.abft {
        state_pass_secs(scenario, alloc, machine, 1.0) * iters as f64
    } else {
        0.0
    };
    let mut sdc_detected = 0u32;
    let mut sdc_recovered = 0u32;
    let mut sdc_cost = 0.0;
    if fault.abft {
        let world = clean.world_size as f64;
        let restart = ckpt + machine.inter_latency * world.max(2.0).log2();
        for ev in &fault.sdc_events {
            if ev.iter >= iters {
                continue;
            }
            sdc_detected += 1;
            log.push(ResilienceEvent::SdcDetected {
                iter: ev.iter,
                site: ev.site,
            });
            match fault.sdc_policy {
                crate::sdc::SdcPolicy::FlagOnly => {}
                crate::sdc::SdcPolicy::Recompute => {
                    // Detection precedes consumption: redo the poisoned
                    // iteration from its intact inputs.
                    sdc_cost += t_iter;
                    sdc_recovered += 1;
                    log.push(ResilienceEvent::SdcRecovered {
                        iter: ev.iter,
                        cost: t_iter,
                    });
                }
                crate::sdc::SdcPolicy::Rollback => {
                    // Replay from the last checkpoint, plus the restart
                    // coordination the crash path also pays.
                    let cost = (ev.iter % k) as f64 * t_iter + restart;
                    sdc_cost += cost;
                    sdc_recovered += 1;
                    log.push(ResilienceEvent::SdcRecovered {
                        iter: ev.iter,
                        cost,
                    });
                }
            }
        }
    }
    faults_survived += sdc_recovered;
    total_runtime += abft_overhead + sdc_cost;

    // Recovery overhead is the price of *reacting* to faults; the
    // standing detector cost is reported separately as `abft_overhead`.
    let recovery_overhead = (total_runtime - clean.total_runtime - abft_overhead).max(0.0);
    (
        CoupledRun {
            app_runtimes: clean.app_runtimes,
            total_runtime,
            coupling_overhead: clean.coupling_overhead,
            sample_iters,
            world_size: clean.world_size,
            faults_survived,
            recovery_overhead,
            checkpoint_cost,
            stale_exchanges,
            sdc_detected,
            sdc_recovered,
            abft_overhead,
        },
        log,
    )
}

/// Standalone ("uncoupled") runtime of each instance at its allocated
/// rank count over the full window — the paper's Fig 9a comparison
/// baseline.
pub fn standalone_runtimes(scenario: &Scenario, alloc: &Allocation, machine: &Machine) -> Vec<f64> {
    scenario
        .apps
        .iter()
        .zip(&alloc.app_ranks)
        .map(|(app, &p)| {
            crate::model::app_step_runtime(&app.kind, p, machine) * scenario.density_iters as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::StcVariant;
    use crate::model::{allocate_scenario, build_models_with_grid};
    use crate::testcases;

    fn machine() -> Machine {
        Machine::archer2()
    }

    fn small_alloc(budget: usize) -> (crate::instance::Scenario, Allocation) {
        let scenario = testcases::small_150m_28m(StcVariant::Base);
        let models = build_models_with_grid(&scenario, &machine(), 20.0, &[100, 400, 1600, 6400]);
        let alloc = allocate_scenario(&models, budget);
        (scenario, alloc)
    }

    #[test]
    fn coupled_run_executes_and_scales() {
        let (scenario, alloc) = small_alloc(2000);
        let run = run_coupled(&scenario, &alloc, &machine(), 20);
        assert_eq!(run.world_size, 2000);
        assert_eq!(run.app_runtimes.len(), 3);
        assert!(run.total_runtime > 0.0);
        // Each instance runtime is bounded by the total.
        for &t in &run.app_runtimes {
            assert!(t > 0.0 && t <= run.total_runtime * 1.0001);
        }
    }

    #[test]
    fn coupling_overhead_is_small_with_optimized_search() {
        // §V-B: coupling overhead < 0.5% (we allow <2% at this reduced
        // validation scale).
        let (scenario, alloc) = small_alloc(2000);
        let run = run_coupled(&scenario, &alloc, &machine(), 20);
        assert!(
            run.coupling_overhead < 0.02,
            "coupling overhead {}",
            run.coupling_overhead
        );
    }

    #[test]
    fn prediction_tracks_coupled_measurement() {
        // The paper's validation: model prediction within 25% of the
        // measured coupled runtime.
        let scenario = testcases::small_150m_28m(StcVariant::Base);
        let models = build_models_with_grid(
            &scenario,
            &machine(),
            100.0, // full window: scenario.density_iters
            &[100, 400, 1600, 6400],
        );
        let alloc = allocate_scenario(&models, 2000);
        let run = run_coupled(&scenario, &alloc, &machine(), 20);
        let predicted = alloc.predicted_runtime();
        let err = (predicted - run.total_runtime).abs() / run.total_runtime;
        assert!(
            err < 0.25,
            "prediction error {err:.2}: predicted {predicted:.1}s vs measured {:.1}s",
            run.total_runtime
        );
    }

    #[test]
    fn per_instance_standalone_close_to_coupled() {
        // Instances inside the coupled run should take roughly their
        // standalone time (the coupled program progresses at the pace
        // of the slowest, so individual runtimes include waiting).
        let (scenario, alloc) = small_alloc(2000);
        let m = machine();
        let run = run_coupled(&scenario, &alloc, &m, 20);
        let standalone = standalone_runtimes(&scenario, &alloc, &m);
        // The bottleneck instance's coupled time ≈ its standalone time.
        let bottleneck = alloc.bottleneck_app();
        let rel =
            (run.app_runtimes[bottleneck] - standalone[bottleneck]).abs() / standalone[bottleneck];
        assert!(
            rel < 0.35,
            "bottleneck coupled {} vs standalone {}",
            run.app_runtimes[bottleneck],
            standalone[bottleneck]
        );
    }

    #[test]
    fn traced_coupled_run_matches_plain_and_attributes_phases() {
        let (scenario, alloc) = small_alloc(2000);
        let m = machine();
        let plain = run_coupled(&scenario, &alloc, &m, 20);
        let (names, out, session) = trace_coupled(&scenario, &alloc, &m, 20);
        // Phase markers are free: identical coupled timing.
        let scale = scenario.density_iters as f64 / 20.0;
        assert_eq!(out.makespan() * scale, plain.total_runtime);
        assert_eq!(
            names.len(),
            1 + scenario.apps.len() + 4 * scenario.cus.len()
        );
        let phases = out.phases.as_ref().expect("tracked");
        // Every app and every CU stage carries time (steady CUs search
        // only on the first exchange, but sample 20 covers it).
        for (id, name) in names.iter().enumerate().skip(1) {
            let t = phases.total_compute(id) + phases.total_comm(id);
            assert!(t > 0.0, "phase '{name}' (id {id}) carries no time");
        }
        // The traced timeline covers the whole world.
        assert_eq!(session.lanes.len(), plain.world_size);
        assert!(session.total_spans() > 0);
    }

    #[test]
    fn coupled_run_round_trips_through_json() {
        let run = CoupledRun {
            app_runtimes: vec![10.5, 22.0, 7.25],
            total_runtime: 25.0,
            coupling_overhead: 0.004,
            sample_iters: 20,
            world_size: 2000,
            faults_survived: 3,
            recovery_overhead: 1.5,
            checkpoint_cost: 0.5,
            stale_exchanges: 2,
            sdc_detected: 2,
            sdc_recovered: 1,
            abft_overhead: 0.75,
        };
        let text = run.to_json().write();
        let back = CoupledRun::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, run);
    }

    #[test]
    fn surface_sample_bounds() {
        let ranks: Vec<usize> = (100..400).collect();
        let s = surface_sample(&ranks, 16);
        assert_eq!(s.len(), 64);
        assert!(s.iter().all(|r| ranks.contains(r)));
        // Small instances cap at their own size.
        let tiny: Vec<usize> = (0..4).collect();
        let s = surface_sample(&tiny, 16);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn surface_sample_never_repeats_a_rank() {
        // Distinct inputs stay distinct…
        let ranks: Vec<usize> = (0..37).collect();
        let s = surface_sample(&ranks, 16);
        let mut uniq = s.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), s.len(), "sample repeated a rank: {s:?}");
        // …and a degenerate rank list collapses, preserving first-seen
        // order.
        let dup = vec![9, 9, 9, 9, 5, 5, 5, 5];
        assert_eq!(surface_sample(&dup, 16), vec![9, 5]);
    }

    #[test]
    fn resilient_run_without_fault_matches_clean() {
        let (scenario, alloc) = small_alloc(2000);
        let m = machine();
        let clean = run_coupled(&scenario, &alloc, &m, 20);
        let res = run_coupled_resilient(&scenario, &alloc, &m, 20);
        assert_eq!(res.faults_survived, 0);
        assert_eq!(res.recovery_overhead, 0.0);
        assert_eq!(res.total_runtime, clean.total_runtime);
    }

    #[test]
    fn resilient_run_survives_rank_crash_with_quantified_overhead() {
        let (scenario, alloc) = small_alloc(2000);
        let m = machine();
        let clean = run_coupled(&scenario, &alloc, &m, 20);
        let scenario = scenario.with_fault(
            crate::instance::FaultScenario::crash(0, clean.total_runtime * 0.4)
                .with_checkpoint_interval(10),
        );
        let res = run_coupled_resilient(&scenario, &alloc, &m, 20);
        assert_eq!(res.faults_survived, 1);
        assert!(res.recovery_overhead > 0.0);
        assert!(res.checkpoint_cost > 0.0);
        assert!(
            res.total_runtime > clean.total_runtime,
            "resilient {} vs clean {}",
            res.total_runtime,
            clean.total_runtime
        );
        assert_eq!(
            res.total_runtime - clean.total_runtime,
            res.recovery_overhead
        );
        // Losing one rank of ~700 must not blow the run up: the
        // overhead stays a modest fraction of the clean runtime.
        assert!(
            res.recovery_overhead < clean.total_runtime,
            "overhead {} vs clean {}",
            res.recovery_overhead,
            clean.total_runtime
        );
    }

    #[test]
    fn tighter_checkpoints_cost_more_but_lose_less_work() {
        let (scenario, alloc) = small_alloc(2000);
        let m = machine();
        let clean = run_coupled(&scenario, &alloc, &m, 20);
        let at = clean.total_runtime * 0.55;
        let run_with_k = |k: u64| {
            let s = scenario.clone().with_fault(
                crate::instance::FaultScenario::crash(0, at).with_checkpoint_interval(k),
            );
            run_coupled_resilient(&s, &alloc, &m, 20)
        };
        let tight = run_with_k(5);
        let loose = run_with_k(50);
        assert!(
            tight.checkpoint_cost > loose.checkpoint_cost,
            "ckpt cost: K=5 {} vs K=50 {}",
            tight.checkpoint_cost,
            loose.checkpoint_cost
        );
        // Determinism: the same fault replays to the same overhead.
        let again = run_with_k(5);
        assert_eq!(tight.total_runtime, again.total_runtime);
        assert_eq!(tight.recovery_overhead, again.recovery_overhead);
    }

    #[test]
    fn sdc_policies_ordered_by_recovery_cost() {
        use crate::sdc::{SdcInjection, SdcPolicy, SdcSite};
        let (scenario, alloc) = small_alloc(2000);
        let m = machine();
        let clean = run_coupled(&scenario, &alloc, &m, 20);
        let events = vec![
            SdcInjection::at(33, SdcSite::SparseKernel),
            SdcInjection::at(71, SdcSite::PhysicsInvariant),
        ];
        let run_with = |policy: SdcPolicy| {
            let s = scenario.clone().with_fault(
                crate::instance::FaultScenario::sdc_only(events.clone())
                    .with_sdc_policy(policy)
                    .with_checkpoint_interval(10),
            );
            run_coupled_resilient(&s, &alloc, &m, 20)
        };
        let flag = run_with(SdcPolicy::FlagOnly);
        let recompute = run_with(SdcPolicy::Recompute);
        let rollback = run_with(SdcPolicy::Rollback);

        for r in [&flag, &recompute, &rollback] {
            assert_eq!(r.sdc_detected, 2);
            assert!(r.abft_overhead > 0.0);
        }
        // Flag-and-continue detects but does not recover; both recovery
        // policies do, and rollback (lost iterations + restart +
        // checkpoints) costs more than a local recompute.
        assert_eq!(flag.sdc_recovered, 0);
        assert_eq!(recompute.sdc_recovered, 2);
        assert_eq!(rollback.sdc_recovered, 2);
        assert_eq!(flag.recovery_overhead, 0.0);
        assert!(recompute.recovery_overhead > 0.0);
        assert!(rollback.recovery_overhead > recompute.recovery_overhead);
        assert_eq!(flag.checkpoint_cost, 0.0);
        assert_eq!(recompute.checkpoint_cost, 0.0);
        assert!(rollback.checkpoint_cost > 0.0);
        // Recovered corruptions count as survived faults.
        assert_eq!(recompute.faults_survived, 2);
        // Totals decompose: clean + detector + reaction.
        let t = clean.total_runtime + recompute.abft_overhead + recompute.recovery_overhead;
        assert!((recompute.total_runtime - t).abs() < 1e-9 * t);
    }

    #[test]
    fn disarmed_detectors_let_corruption_pass_silently() {
        use crate::sdc::{SdcInjection, SdcSite};
        let (scenario, alloc) = small_alloc(2000);
        let m = machine();
        let clean = run_coupled(&scenario, &alloc, &m, 20);
        let s = scenario.with_fault(
            crate::instance::FaultScenario::sdc_only(vec![SdcInjection::at(
                10,
                SdcSite::CommPayload,
            )])
            .with_abft(false),
        );
        let run = run_coupled_resilient(&s, &alloc, &m, 20);
        assert_eq!(run.sdc_detected, 0);
        assert_eq!(run.sdc_recovered, 0);
        assert_eq!(run.abft_overhead, 0.0);
        assert_eq!(run.total_runtime, clean.total_runtime);
    }

    #[test]
    fn abft_overhead_stays_under_ten_percent() {
        // The coupled-level acceptance bound: the per-iteration detector
        // scan must cost well under 10% of the run it protects.
        use crate::sdc::{SdcInjection, SdcSite};
        let (scenario, alloc) = small_alloc(2000);
        let m = machine();
        let s = scenario.with_fault(crate::instance::FaultScenario::sdc_only(vec![
            SdcInjection::at(5, SdcSite::HaloExchange),
        ]));
        let run = run_coupled_resilient(&s, &alloc, &m, 20);
        let frac = run.abft_overhead / run.total_runtime;
        assert!(
            frac > 0.0 && frac < 0.10,
            "abft overhead fraction {frac:.4}"
        );
    }

    #[test]
    fn out_of_window_sdc_events_never_fire() {
        use crate::sdc::{SdcInjection, SdcSite};
        let (scenario, alloc) = small_alloc(2000);
        let m = machine();
        let iters = scenario.density_iters;
        let s = scenario.with_fault(crate::instance::FaultScenario::sdc_only(vec![
            SdcInjection::at(iters, SdcSite::SparseKernel),
            SdcInjection::at(iters + 50, SdcSite::SolverCycle),
        ]));
        let run = run_coupled_resilient(&s, &alloc, &m, 20);
        assert_eq!(run.sdc_detected, 0);
        assert_eq!(run.recovery_overhead, 0.0);
        assert!(run.abft_overhead > 0.0, "detectors still run");
    }

    #[test]
    fn resilient_log_records_crash_recovery_sequence() {
        let (scenario, alloc) = small_alloc(2000);
        let m = machine();
        let clean = run_coupled(&scenario, &alloc, &m, 20);
        let scenario = scenario.with_fault(
            crate::instance::FaultScenario::crash(1, clean.total_runtime * 0.4)
                .with_checkpoint_interval(10),
        );
        let (run, log) = run_coupled_resilient_logged(&scenario, &alloc, &m, 20);
        let plain = run_coupled_resilient(&scenario, &alloc, &m, 20);
        assert_eq!(run, plain);
        // The crash path emits Crash → Rollback → Shrink in order.
        let crash = log
            .iter()
            .position(|e| matches!(e, ResilienceEvent::Crash { app: 1, .. }))
            .expect("crash logged");
        let rollback = log
            .iter()
            .position(|e| matches!(e, ResilienceEvent::Rollback { .. }))
            .expect("rollback logged");
        let shrink = log
            .iter()
            .position(|e| {
                matches!(
                    e,
                    ResilienceEvent::Shrink {
                        app: 1,
                        ranks_after
                    } if *ranks_after == alloc.app_ranks[1] - 1
                )
            })
            .expect("shrink logged");
        assert!(crash < rollback && rollback < shrink);
        // One Checkpoint event per checkpoint actually charged.
        let n_ckpt_events = log
            .iter()
            .filter(|e| matches!(e, ResilienceEvent::Checkpoint { .. }))
            .count();
        assert_eq!(n_ckpt_events as u64, scenario.density_iters / 10);
        // Determinism: identical inputs, identical log.
        let (_, again) = run_coupled_resilient_logged(&scenario, &alloc, &m, 20);
        assert_eq!(log, again);
    }

    #[test]
    fn dropped_exchanges_counted_as_stale_not_fatal() {
        let (scenario, alloc) = small_alloc(2000);
        let m = machine();
        let clean = run_coupled(&scenario, &alloc, &m, 20);
        // Crash beyond the end: only the dropped exchanges fire. Both
        // CUs exchange on iteration 0 (sliding every iter, steady on
        // period boundaries); iteration 7 is sliding-only.
        let scenario = scenario.with_fault(
            crate::instance::FaultScenario::crash(0, clean.total_runtime * 10.0)
                .with_dropped_exchanges(vec![0, 7]),
        );
        let res = run_coupled_resilient(&scenario, &alloc, &m, 20);
        assert_eq!(res.stale_exchanges, 3);
        assert_eq!(res.faults_survived, 3);
        assert!(res.recovery_overhead > 0.0); // checkpoints + stale applies
    }
}
