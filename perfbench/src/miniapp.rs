//! `miniapp_steps`: the real numerics at laptop scale — an MG-CFD
//! multigrid cycle, a SIMPIC step, the miniature pressure solver's
//! field solve and spray update, and a sliding-plane coupler step. No
//! discrete-event simulation runs here.

use std::time::Instant;

use cpx_coupler::unit::UnitKind;
use cpx_coupler::CouplerUnit;
use cpx_mesh::mesh::{annulus_sector, combustor_box};
use cpx_mesh::{sliding_plane_pair, InterfaceMesh, MeshHierarchy};
use cpx_mgcfd::EulerSolver;
use cpx_pressure::solver::MiniPressureSolver;
use cpx_pressure::spray::SprayCloud;
use cpx_simpic::{Pic1D, SimpicConfig};

use crate::check::{Digest, Outputs};
use crate::probe::{Probe, ROOT};
use crate::Workload;

/// Fine grid of the pressure solver: 34³ cells give a 7-point Poisson
/// operator of 268,192 nonzeros, at least twice
/// [`cpx_par::MIN_WORK_PER_WORKER`], so two workers engage.
const PRESSURE_N: usize = 34;
/// Droplets in the spray cloud (also above two workers' worth of work).
const DROPLETS: usize = 300_000;
/// MG-CFD box: 24³ cells coarsened to a three-level hierarchy.
const MGCFD_N: usize = 24;
/// SIMPIC cells (100 particles per cell).
const SIMPIC_CELLS: usize = 2048;
/// Calls per iteration, sized so one iteration takes about two seconds
/// on a 2-thread host and the cold iteration averages over short stalls.
const MG_CYCLES: usize = 32;
const PIC_STEPS: usize = 80;
const PRESSURE_STEPS: usize = 12;
const COUPLER_STEPS: usize = 192;
/// Pressure-solver timestep.
const DT: f64 = 0.01;

/// `MiniPressureSolver::step`, split into its two halves and timed as
/// `pressure.field` then `pressure.spray`.
fn split_step(s: &mut MiniPressureSolver, p: &mut Probe) {
    p.time("pressure.field", || s.advance_field(DT));
    p.time("pressure.spray", || {
        let n = s.n;
        let u = s.u.clone();
        let idx = move |i: usize, j: usize, k: usize| (i * n + j) * n + k;
        s.spray.update(DT, move |x| {
            let cell = |v: f64| ((v * n as f64) as usize).min(n - 1);
            u[idx(cell(x[0]), cell(x[1]), cell(x[2]))]
        });
    });
}

/// Digest of the pressure solver's state after a step.
fn pressure_state(s: &MiniPressureSolver) -> u64 {
    let mut d = Digest::default();
    d.u64(s.last_pressure_iters as u64);
    for v in s.u.iter().chain(&s.spray.pos).chain(&s.spray.vel) {
        d.f64(v[0]).f64(v[1]).f64(v[2]);
    }
    d.finish()
}

/// Set-up products; every iteration starts from these states.
pub struct MiniappSteps {
    euler: EulerSolver,
    pic: Pic1D,
    pressure: MiniPressureSolver,
    u0: Vec<[f64; 3]>,
    spray0: SprayCloud,
    plane: (InterfaceMesh, InterfaceMesh),
    amg_setup_s: f64,
}

impl MiniappSteps {
    /// Build the meshes, the initial states and the pressure solver's
    /// AMG hierarchy. The seed picks the particle and droplet seeds.
    pub fn setup(variant: u64) -> MiniappSteps {
        let seed = 1 + variant;
        let mesh = combustor_box(MGCFD_N, MGCFD_N, MGCFD_N, 0.0, 1.0, 1.0, 1.0);
        let euler = EulerSolver::acoustic_pulse(MeshHierarchy::build(mesh, 3), 0.1);
        let pic_cfg = SimpicConfig::base_28m().functional(SIMPIC_CELLS, PIC_STEPS);
        let pic = Pic1D::quiet_start(&pic_cfg, 0.02, seed);
        let t = Instant::now();
        let pressure = MiniPressureSolver::new(PRESSURE_N, DROPLETS, seed);
        let amg_setup_s = t.elapsed().as_secs_f64();
        let up = annulus_sector(6, 16, 256, 1.0, 2.0, 0.0, 1.0, std::f64::consts::TAU);
        let down = annulus_sector(6, 16, 256, 1.0, 2.0, 1.0, 1.0, std::f64::consts::TAU);
        MiniappSteps {
            u0: pressure.u.clone(),
            spray0: pressure.spray.clone(),
            euler,
            pic,
            pressure,
            plane: sliding_plane_pair(&up, &down),
            amg_setup_s,
        }
    }

    /// Put the pressure solver back to its set-up state.
    fn reset_pressure(&mut self) {
        self.pressure.u.clone_from(&self.u0);
        self.pressure.spray = self.spray0.clone();
    }

    /// The timed part of an iteration: every layer call, from the
    /// set-up states. Returns the end states for the check.
    fn root(&mut self, p: &mut Probe) -> (EulerSolver, Pic1D, Vec<usize>, CouplerUnit) {
        let mut euler = p.time("reset.mgcfd", || self.euler.clone());
        for _ in 0..MG_CYCLES {
            p.time("mgcfd.cycle", || euler.mg_cycle(2));
        }

        let mut pic = p.time("reset.simpic", || self.pic.clone());
        for _ in 0..PIC_STEPS {
            p.time("simpic.step", || pic.step());
        }

        p.time("reset.pressure", || self.reset_pressure());
        let mut pcg = Vec::with_capacity(PRESSURE_STEPS);
        for _ in 0..PRESSURE_STEPS {
            split_step(&mut self.pressure, p);
            pcg.push(self.pressure.last_pressure_iters);
        }

        let (a, b) = self.plane.clone();
        let mut unit = p.time("coupler.build", || {
            CouplerUnit::new(UnitKind::SlidingPlane { steps_per_rev: 96 }, a, b)
        });
        for _ in 0..COUPLER_STEPS {
            p.time("coupler.step", || unit.step());
        }
        (euler, pic, pcg, unit)
    }
}

impl Workload for MiniappSteps {
    fn iterate(&mut self, p: &mut Probe) -> Outputs {
        let (euler, pic, pcg, unit) = if p.traced() {
            let (ends, tel) = cpx_par::with_telemetry(|| {
                p.begin(ROOT);
                let ends = self.root(p);
                p.end();
                ends
            });
            p.gauge("par.utilization", tel.utilization());
            p.gauge("par.imbalance", tel.imbalance());
            ends
        } else {
            p.begin(ROOT);
            let ends = self.root(p);
            p.end();
            ends
        };

        let mut out = Outputs::default();
        p.count("pressure.pcg_iters", pcg.iter().sum::<usize>() as u64);
        let (mass0, mass) = (self.euler.total_mass(), euler.total_mass());
        out.invariant((mass - mass0).abs() <= 1e-12 * mass0, || {
            format!("MG-CFD mass drifted from {mass0} to {mass}")
        });
        out.digest("mgcfd.state", |d| {
            d.f64(euler.residual_norm());
            for c in &euler.state {
                for &v in c {
                    d.f64(v);
                }
            }
        });
        out.digest("simpic.state", |d| {
            for q in &pic.particles {
                d.f64(q.x).f64(q.v);
            }
            d.f64s(&pic.e_field).f64s(&pic.phi);
        });
        let s = &self.pressure;
        out.digest("pressure.state", |d| {
            d.usizes(&pcg);
            for v in s.u.iter().chain(&s.spray.pos).chain(&s.spray.vel) {
                d.f64(v[0]).f64(v[1]).f64(v[2]);
            }
        });
        out.digest("coupler.state", |d| {
            d.u64(unit.remaps);
            for st in &unit.stencils {
                d.usizes(&st.donors).f64s(&st.weights);
            }
        });
        out
    }

    /// The timed split step must stay the program's own
    /// `MiniPressureSolver::step`: one step each way from the set-up
    /// state gives the same bits.
    fn verify(&mut self) -> Vec<String> {
        self.reset_pressure();
        split_step(&mut self.pressure, &mut Probe::new(false));
        let split = pressure_state(&self.pressure);
        self.reset_pressure();
        self.pressure.step(DT);
        let whole = pressure_state(&self.pressure);
        self.reset_pressure();
        if split == whole {
            Vec::new()
        } else {
            vec![format!(
                "split pressure step {split:#018x} != MiniPressureSolver::step {whole:#018x}"
            )]
        }
    }

    fn setup_metrics(&self) -> Vec<(&'static str, f64)> {
        vec![("pressure.amg_setup_s", self.amg_setup_s)]
    }
}
