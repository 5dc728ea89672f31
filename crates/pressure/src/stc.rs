//! Optimized-STC: *real* task-based spray/solver overlap.
//!
//! [`super::async_spray`] measures the §IV-A communicator split on the
//! virtual-time runtime with modelled per-step costs. This module is
//! the execution-level counterpart: the actual Lagrangian spray update
//! and the actual AMG-PCG pressure solve of
//! [`MiniPressureSolver`] run as two
//! tasks of one `cpx-par` pool dispatch, meeting at a per-step fence
//! (the pool join — the shared-window `MPI_Win_fence` of the paper's
//! organisation).
//!
//! The overlap uses the same one-step staggering as the production
//! split: each step the spray advances through the *previous* step's
//! projected field (snapshotted at the fence) while the solver computes
//! the next one. That makes the two tasks data-independent inside a
//! step, so the synchronous and overlapped organisations produce
//! **bit-identical** states — the optimization moves wall time only.
//!
//! Both organisations measure per-task durations, from which the study
//! reports two virtual makespans:
//!
//! * serial:     `Σ_steps (t_spray + t_solver)` — the synchronous cost;
//! * overlapped: `Σ_steps max(t_spray, t_solver)` — the fence-limited
//!   cost of the split, the quantity the paper's Optimized-STC improves.

use std::time::Instant;

use cpx_par::ParPool;
use cpx_sparse::KernelPolicy;

use crate::solver::MiniPressureSolver;
use crate::spray::SprayCloud;

/// Problem shape for an STC run.
#[derive(Debug, Clone, Copy)]
pub struct StcConfig {
    /// Grid dimension per axis (`n³` cells).
    pub n: usize,
    /// Droplet count.
    pub droplets: usize,
    /// Timesteps.
    pub steps: usize,
    /// Droplet seed.
    pub seed: u64,
    /// Timestep size.
    pub dt: f64,
}

impl Default for StcConfig {
    fn default() -> StcConfig {
        StcConfig {
            n: 16,
            droplets: 200_000,
            steps: 4,
            seed: 7,
            dt: 0.01,
        }
    }
}

/// Task organisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StcMode {
    /// Spray then solver, sequentially (the baseline organisation).
    Synchronous,
    /// Spray and solver as two pool tasks with a per-step fence.
    Overlapped,
}

/// Measured durations of one step's two tasks, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StcStepTiming {
    pub spray: f64,
    pub solver: f64,
}

/// Result of an STC run.
#[derive(Debug, Clone)]
pub struct StcOutcome {
    pub mode: StcMode,
    /// Wall time of the stepping loop.
    pub wall: f64,
    /// Per-step task durations.
    pub per_step: Vec<StcStepTiming>,
    /// Final carrier field (for the bit-identity contract).
    pub field: Vec<[f64; 3]>,
    /// Final droplet positions (for the bit-identity contract).
    pub spray_pos: Vec<[f64; 3]>,
}

impl StcOutcome {
    /// Virtual makespan of the synchronous organisation: the two tasks
    /// back to back every step.
    pub fn virtual_serial(&self) -> f64 {
        self.per_step.iter().map(|t| t.spray + t.solver).sum()
    }

    /// Virtual makespan of the overlapped organisation: each step costs
    /// its slower task (the per-step fence).
    pub fn virtual_overlapped(&self) -> f64 {
        self.per_step.iter().map(|t| t.spray.max(t.solver)).sum()
    }
}

/// One step's two tasks, as pool-dealable work items. The pool deals
/// the 2-element task slice one element per worker, which is exactly
/// the spray/solver communicator split; the `chunks_mut` join is the
/// per-step fence.
enum StepTask<'a> {
    Spray {
        cloud: &'a mut SprayCloud,
        field: &'a [[f64; 3]],
        n: usize,
        dt: f64,
        secs: f64,
    },
    Solver {
        sim: &'a mut MiniPressureSolver,
        dt: f64,
        secs: f64,
    },
}

impl StepTask<'_> {
    fn run(&mut self) {
        let t0 = Instant::now();
        match self {
            StepTask::Spray {
                cloud,
                field,
                n,
                dt,
                ..
            } => {
                let n = *n;
                let idx = |i: usize, j: usize, k: usize| (i * n + j) * n + k;
                cloud.update(*dt, |x| {
                    let cell = |v: f64| ((v * n as f64) as usize).min(n - 1);
                    field[idx(cell(x[0]), cell(x[1]), cell(x[2]))]
                });
            }
            StepTask::Solver { sim, dt, .. } => sim.advance_field(*dt),
        }
        let secs = t0.elapsed().as_secs_f64();
        match self {
            StepTask::Spray { secs: s, .. } | StepTask::Solver { secs: s, .. } => *s = secs,
        }
    }

    fn secs(&self) -> f64 {
        match self {
            StepTask::Spray { secs, .. } | StepTask::Solver { secs, .. } => *secs,
        }
    }
}

/// Run `cfg.steps` staggered spray/solver steps in the given
/// organisation. Both modes compute bit-identical states; only the
/// schedule (and hence wall time) differs.
pub fn run_stc(cfg: StcConfig, mode: StcMode, policy: KernelPolicy) -> StcOutcome {
    let mut sim = MiniPressureSolver::new_with_policy(cfg.n, 0, cfg.seed, policy);
    let mut cloud = SprayCloud::inject(cfg.droplets, cfg.seed);
    // Two workers regardless of `CPX_THREADS`: the task split is the
    // organisation under study, not data parallelism. (On a saturated
    // machine the overlap win still shows in the virtual makespan.)
    let pool = ParPool::with_threads(2);
    let mut per_step = Vec::with_capacity(cfg.steps);
    let t_loop = Instant::now();
    for _ in 0..cfg.steps {
        // Fence state: the spray reads the field as it stood at the
        // last fence while the solver advances it.
        let field = sim.u.clone();
        let mut tasks = [
            StepTask::Spray {
                cloud: &mut cloud,
                field: &field,
                n: cfg.n,
                dt: cfg.dt,
                secs: 0.0,
            },
            StepTask::Solver {
                sim: &mut sim,
                dt: cfg.dt,
                secs: 0.0,
            },
        ];
        match mode {
            StcMode::Synchronous => {
                for t in &mut tasks {
                    t.run();
                }
            }
            StcMode::Overlapped => {
                // One task per worker; the implicit join is the fence.
                pool.chunks_mut(&mut tasks, 2, |_, _, part| {
                    for t in part {
                        t.run();
                    }
                });
            }
        }
        per_step.push(StcStepTiming {
            spray: tasks[0].secs(),
            solver: tasks[1].secs(),
        });
    }
    let wall = t_loop.elapsed().as_secs_f64();
    StcOutcome {
        mode,
        wall,
        per_step,
        field: sim.u,
        spray_pos: cloud.pos,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> StcConfig {
        StcConfig {
            n: 8,
            droplets: 5_000,
            steps: 3,
            seed: 11,
            dt: 0.01,
        }
    }

    #[test]
    fn organisations_are_bit_identical() {
        let sync = run_stc(small(), StcMode::Synchronous, KernelPolicy::current());
        let over = run_stc(small(), StcMode::Overlapped, KernelPolicy::current());
        assert_eq!(sync.field, over.field);
        assert_eq!(sync.spray_pos, over.spray_pos);
        // And a SELL policy changes nothing either.
        let sell = run_stc(small(), StcMode::Overlapped, KernelPolicy::sell());
        assert_eq!(sync.field, sell.field);
        assert_eq!(sync.spray_pos, sell.spray_pos);
    }

    #[test]
    fn virtual_makespans_ordered() {
        let out = run_stc(small(), StcMode::Synchronous, KernelPolicy::current());
        assert_eq!(out.per_step.len(), 3);
        let serial = out.virtual_serial();
        let overlapped = out.virtual_overlapped();
        assert!(serial > 0.0);
        assert!(overlapped > 0.0);
        assert!(overlapped <= serial);
        // The overlap can't beat the slower side of any step.
        let floor: f64 = out.per_step.iter().map(|t| t.spray.max(t.solver)).sum();
        assert!((overlapped - floor).abs() < 1e-12);
    }

    #[test]
    fn staggered_spray_actually_moves() {
        let out = run_stc(small(), StcMode::Overlapped, KernelPolicy::current());
        let mean_x: f64 =
            out.spray_pos.iter().map(|p| p[0]).sum::<f64>() / out.spray_pos.len() as f64;
        let start = SprayCloud::inject(5_000, 11);
        let mean_x0: f64 = start.pos.iter().map(|p| p[0]).sum::<f64>() / start.pos.len() as f64;
        assert!(mean_x > mean_x0, "{mean_x0} -> {mean_x}");
    }
}
