//! The prediction pipeline workloads: model fit → Alg-1 → virtual
//! coupled run, and on the small case the task-graph and critical-path
//! what-ifs that explain it.

use cpx_core::prelude::*;
use cpx_machine::{build_task_graph, Replayer, TraceStats};
use cpx_obs::{blend_factor, Rescale};
use cpx_pressure::{PressureConfig, PressureTraceModel};

use crate::check::Outputs;
use crate::probe::{Probe, ROOT};
use crate::Workload;

/// System-noise amplitude of the virtual coupled runs (the figures' value).
const NOISE: f64 = 0.04;
/// Density iterations replayed by each coupled run.
const SAMPLE_ITERS: u64 = 20;
/// Pressure-solver steps sampled by the detailed SIMPIC profile.
const PROFILE_STEPS: u32 = 4;
/// What-if kernel speedups applied to every phase.
const WHAT_IF_SPEEDUPS: [f64; 3] = [1.5, 2.0, 4.0];

/// Record the fitted models: one digest over every curve's predictions
/// at the grid points.
fn record_models(out: &mut Outputs, label: &str, models: &ScenarioModels, grid: &[usize]) {
    out.digest(format!("{label}.models"), |d| {
        for m in models.apps.iter().chain(&models.cus) {
            for &rank in grid {
                d.f64(m.predicted_time(rank));
            }
        }
    });
}

/// Record an Alg-1 allocation and check it stays within the budget.
fn record_alloc(out: &mut Outputs, p: &mut Probe, label: &str, alloc: &Allocation, budget: usize) {
    p.count("alg1.ranks_allocated", alloc.total_ranks() as u64);
    out.invariant(alloc.total_ranks() <= budget, || {
        format!(
            "{label}: allocated {} ranks over a budget of {budget}",
            alloc.total_ranks()
        )
    });
    out.digest(format!("{label}.alloc"), |d| {
        d.usizes(&alloc.app_ranks)
            .usizes(&alloc.cu_ranks)
            .f64s(&alloc.app_times)
            .f64s(&alloc.cu_times)
            .f64(alloc.predicted_runtime());
    });
}

/// Record a virtual coupled run.
fn record_run(out: &mut Outputs, label: &str, run: &CoupledRun) {
    out.digest(format!("{label}.run"), |d| {
        d.f64s(&run.app_runtimes)
            .f64(run.total_runtime)
            .f64(run.coupling_overhead)
            .u64(run.world_size as u64);
    });
}

/// `engine40k`: the Fig 9b/9c pipeline on the large engine, Base-STC
/// then Optimized-STC.
pub struct Engine40k {
    machine: Machine,
    variants: [(&'static str, Scenario); 2],
    grid: Vec<usize>,
    noise_seed: u64,
}

impl Engine40k {
    const BUDGET: usize = 40_000;
    const WINDOW: f64 = 1000.0;

    /// Set up the two scenarios; the seed picks the run-noise seed.
    pub fn setup(variant: u64) -> Engine40k {
        Engine40k {
            machine: Machine::archer2(),
            variants: [
                ("base", testcases::large_engine(StcVariant::Base)),
                ("optimized", testcases::large_engine(StcVariant::Optimized)),
            ],
            grid: vec![100, 200, 400, 800, 1600, 3200, 6400, 12_800, 25_600, 40_000],
            noise_seed: 43 + variant,
        }
    }
}

impl Workload for Engine40k {
    fn iterate(&mut self, p: &mut Probe) -> Outputs {
        let m = &self.machine;
        let noise = Some((NOISE, self.noise_seed));
        p.begin(ROOT);
        let mut results = Vec::with_capacity(2);
        for (_, scenario) in &self.variants {
            let models = p.time("model.fit", || {
                model::build_models_with_grid(scenario, m, Self::WINDOW, &self.grid)
            });
            let alloc = p.time("alg1.alloc", || {
                model::allocate_scenario(&models, Self::BUDGET)
            });
            let run = p.time("sim.run_coupled", || {
                sim::run_coupled_with(scenario, &alloc, m, SAMPLE_ITERS, noise)
            });
            results.push((models, alloc, run));
        }
        p.end();

        let mut out = Outputs::default();
        for ((label, scenario), (models, alloc, run)) in self.variants.iter().zip(&results) {
            record_models(&mut out, label, models, &self.grid);
            record_alloc(&mut out, p, label, alloc, Self::BUDGET);
            record_run(&mut out, label, run);
            if !p.traced() {
                continue;
            }
            // `run_coupled_with` split into its public parts, outside
            // the root span: program build, then the noisy DES replay.
            let (program, _) = p.time("sim.build", || {
                sim::coupled_program(scenario, alloc, m, SAMPLE_ITERS)
            });
            let stats = TraceStats::of(&program);
            p.count_traced("sim.ops", stats.total_ops);
            p.count_traced("sim.messages", stats.sends);
            let replay = p.time("des.replay", || {
                Replayer::new(m.clone())
                    .with_noise(NOISE, self.noise_seed)
                    .run(&program)
            });
            match replay {
                Ok(o) => {
                    let scale = scenario.density_iters as f64 / SAMPLE_ITERS as f64;
                    let total = o.makespan() * scale;
                    out.invariant(total.to_bits() == run.total_runtime.to_bits(), || {
                        format!(
                            "{label}: split replay {total} != coupled run {}",
                            run.total_runtime
                        )
                    });
                }
                Err(e) => out.invariant(false, || format!("{label}: split replay failed: {e:?}")),
            }
        }
        out
    }
}

/// `small5k_whatif`: the Fig 8a small case, then its noise-free phased
/// program through the task graph, the critical path and a what-if
/// table, and SIMPIC's detailed pressure-trace profile.
pub struct Small5kWhatIf {
    machine: Machine,
    scenario: Scenario,
    phase_names: Vec<String>,
    grid: Vec<usize>,
    pressure: PressureTraceModel,
    noise_seed: u64,
}

impl Small5kWhatIf {
    const BUDGET: usize = 5000;
    const WINDOW: f64 = 100.0;

    /// Set up the scenario; the seed picks the run-noise seed.
    pub fn setup(variant: u64) -> Small5kWhatIf {
        let scenario = testcases::small_150m_28m(StcVariant::Base);
        Small5kWhatIf {
            machine: Machine::archer2(),
            phase_names: sim::coupled_phase_names(&scenario),
            scenario,
            grid: vec![100, 200, 400, 800, 1600, 3200, 5000],
            pressure: PressureTraceModel::new(PressureConfig::swirl_28m()),
            noise_seed: 17 + variant,
        }
    }

    fn simpic_index(&self) -> usize {
        self.scenario
            .apps
            .iter()
            .position(|a| matches!(a.kind, AppKind::Simpic(_)))
            .expect("the small case has a SIMPIC instance")
    }
}

impl Workload for Small5kWhatIf {
    fn iterate(&mut self, p: &mut Probe) -> Outputs {
        let (m, sc) = (&self.machine, &self.scenario);
        let mut out = Outputs::default();
        p.begin(ROOT);
        let models = p.time("model.fit", || {
            model::build_models_with_grid(sc, m, Self::WINDOW, &self.grid)
        });
        let alloc = p.time("alg1.alloc", || {
            model::allocate_scenario(&models, Self::BUDGET)
        });
        let run = p.time("sim.run_coupled", || {
            sim::run_coupled_with(sc, &alloc, m, SAMPLE_ITERS, Some((NOISE, self.noise_seed)))
        });
        let (program, _) = p.time("sim.build", || {
            sim::coupled_program_phased(sc, &alloc, m, SAMPLE_ITERS)
        });
        let graph = p
            .time("graph.build", || {
                build_task_graph(&program, m, &self.phase_names)
            })
            .expect("the coupled program builds a task graph");
        let sched = p
            .time("critical.schedule", || graph.schedule(&Rescale::none()))
            .expect("the coupled task graph is acyclic");
        let des = p
            .time("des.replay", || Replayer::new(m.clone()).run(&program))
            .expect("the coupled program replays");
        let path = p.time("critical.path", || graph.critical_path(&sched));
        let attr = p.time("critical.attribution", || graph.attribution(&sched));
        let what_ifs: Vec<f64> = p.time("critical.whatif", || {
            let mut makespans = Vec::new();
            for phase in 1..self.phase_names.len() {
                for speedup in WHAT_IF_SPEEDUPS {
                    let mut r = Rescale::none();
                    r.compute_by_phase = vec![1.0; phase + 1];
                    r.compute_by_phase[phase] = blend_factor(1.0, speedup);
                    makespans.push(
                        graph
                            .what_if_makespan(&r)
                            .expect("a rescaled task graph stays acyclic"),
                    );
                }
            }
            makespans
        });
        let p_simpic = alloc.app_ranks[self.simpic_index()];
        let (per_step, setup_s, breakdown) = p.time("pressure_trace.profile", || {
            self.pressure.profile_detailed(p_simpic, m, PROFILE_STEPS)
        });
        p.end();

        let stats = TraceStats::of(&program);
        p.count("sim.ops", stats.total_ops);
        p.count("sim.messages", stats.sends);
        p.count("graph.nodes", graph.nodes.len() as u64);
        p.count("critical.whatifs", what_ifs.len() as u64);
        record_models(&mut out, "small", &models, &self.grid);
        record_alloc(&mut out, p, "small", &alloc, Self::BUDGET);
        record_run(&mut out, "small", &run);
        out.invariant(sched.makespan.to_bits() == des.makespan().to_bits(), || {
            format!(
                "graph makespan {} != DES makespan {}",
                sched.makespan,
                des.makespan()
            )
        });
        out.digest("small.schedule", |d| {
            d.f64(sched.makespan).f64s(&sched.end);
        });
        out.digest("small.critical_path", |d| {
            d.u64(path.segments.len() as u64)
                .f64(path.makespan)
                .f64(path.compute_s())
                .f64(path.comm_s());
        });
        out.digest("small.attribution", |d| {
            d.f64s(&attr.compute).f64s(&attr.comm).f64s(&attr.wait);
        });
        out.digest("small.what_if", |d| {
            d.f64s(&what_ifs);
        });
        out.digest("small.pressure_profile", |d| {
            d.f64(per_step).f64(setup_s);
            for phase in 0..breakdown.compute.len() {
                d.f64(breakdown.elapsed(phase));
            }
        });
        if p.traced() {
            // The op count of the profiled program, built outside the
            // root span (the profile itself is opaque).
            let prog = self
                .pressure
                .build_program(p_simpic, m, PROFILE_STEPS, true);
            p.count_traced("pressure_trace.ops", TraceStats::of(&prog).total_ops);
        }
        out
    }
}
