//! Physics invariant guards — silent-data-corruption detection for the
//! Euler solver.
//!
//! ABFT checksums (cpx-sparse) protect the linear-algebra kernels; the
//! nonlinear finite-volume update is protected by the *physics* instead.
//! The Rusanov flux is conservative by construction, so total mass and
//! total energy are preserved to rounding by every smoothing step and
//! multigrid cycle — an invariant a bit flip in the state or the flux
//! accumulation almost surely breaks. [`InvariantGuard`] captures the
//! conserved totals at watch time and [`InvariantGuard::check`] verifies,
//! in order of diagnostic strength:
//!
//! 1. every state component is finite (NaN/Inf watchdog),
//! 2. density and pressure are positive everywhere (physicality),
//! 3. total mass and total energy drift stays within a relative
//!    tolerance of the watched baseline.
//!
//! The conservation tolerance must cover legitimate rounding: the
//! solver's own tests pin drift below `1e-12` relative over hundreds of
//! steps, so the default `1e-9` leaves three orders of headroom — a flip
//! in any exponent bit or high mantissa bit of a state variable lands
//! far above it, while clean runs never trip it.

use crate::euler::{pressure, EulerSolver};

/// Default relative tolerance for conserved-total drift.
pub const DEFAULT_CONSERVATION_TOL: f64 = 1e-9;

/// A detected invariant violation (one per check; the first found, in
/// order finiteness → physicality → conservation, is returned).
#[derive(Debug, Clone, PartialEq)]
pub enum InvariantViolation {
    /// A state component is NaN or infinite.
    NonFinite {
        /// Cell index on the finest mesh.
        cell: usize,
        /// Conserved-variable component (0=ρ, 1–3=ρu, 4=E).
        component: usize,
        /// The offending value.
        value: f64,
    },
    /// Density or pressure is non-positive.
    NonPhysical {
        /// Cell index on the finest mesh.
        cell: usize,
        /// Density there.
        density: f64,
        /// Pressure there.
        pressure: f64,
    },
    /// Total mass drifted from the watched baseline.
    MassDrift {
        /// Current total mass.
        mass: f64,
        /// Baseline total mass at watch time.
        baseline: f64,
        /// Relative tolerance that was exceeded.
        tol: f64,
    },
    /// Total energy drifted from the watched baseline.
    EnergyDrift {
        /// Current total energy.
        energy: f64,
        /// Baseline total energy at watch time.
        baseline: f64,
        /// Relative tolerance that was exceeded.
        tol: f64,
    },
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvariantViolation::NonFinite {
                cell,
                component,
                value,
            } => write!(
                f,
                "non-finite state: cell {cell} component {component} = {value}"
            ),
            InvariantViolation::NonPhysical {
                cell,
                density,
                pressure,
            } => write!(
                f,
                "unphysical state: cell {cell} rho={density} p={pressure}"
            ),
            InvariantViolation::MassDrift {
                mass,
                baseline,
                tol,
            } => write!(
                f,
                "mass drift: {mass} vs baseline {baseline} (rel tol {tol:e})"
            ),
            InvariantViolation::EnergyDrift {
                energy,
                baseline,
                tol,
            } => write!(
                f,
                "energy drift: {energy} vs baseline {baseline} (rel tol {tol:e})"
            ),
        }
    }
}

impl std::error::Error for InvariantViolation {}

/// Conservation and physicality watchdog over an [`EulerSolver`].
///
/// Capture once with [`InvariantGuard::watch`], then call
/// [`InvariantGuard::check`] after each step / cycle / suspect region.
/// Re-watch after any *legitimate* non-conservative operation (e.g.
/// re-initialisation).
#[derive(Debug, Clone, Copy)]
pub struct InvariantGuard {
    /// Total mass at watch time.
    pub mass0: f64,
    /// Total energy at watch time.
    pub energy0: f64,
    /// Relative drift tolerance.
    pub rel_tol: f64,
}

impl InvariantGuard {
    /// Capture the conserved totals of `solver` as the trusted baseline.
    pub fn watch(solver: &EulerSolver) -> InvariantGuard {
        InvariantGuard {
            mass0: solver.total_mass(),
            energy0: solver.total_energy(),
            rel_tol: DEFAULT_CONSERVATION_TOL,
        }
    }

    /// Verify all invariants; `Err` carries the first violation found.
    pub fn check(&self, solver: &EulerSolver) -> Result<(), InvariantViolation> {
        for (cell, u) in solver.state.iter().enumerate() {
            for (component, &value) in u.iter().enumerate() {
                if !value.is_finite() {
                    return Err(InvariantViolation::NonFinite {
                        cell,
                        component,
                        value,
                    });
                }
            }
        }
        for (cell, u) in solver.state.iter().enumerate() {
            let p = pressure(u);
            if u[0] <= 0.0 || p <= 0.0 {
                return Err(InvariantViolation::NonPhysical {
                    cell,
                    density: u[0],
                    pressure: p,
                });
            }
        }
        let mass = solver.total_mass();
        let scale_m = self.mass0.abs().max(f64::MIN_POSITIVE);
        if !mass.is_finite() || (mass - self.mass0).abs() > self.rel_tol * scale_m {
            return Err(InvariantViolation::MassDrift {
                mass,
                baseline: self.mass0,
                tol: self.rel_tol,
            });
        }
        let energy = solver.total_energy();
        let scale_e = self.energy0.abs().max(f64::MIN_POSITIVE);
        if !energy.is_finite() || (energy - self.energy0).abs() > self.rel_tol * scale_e {
            return Err(InvariantViolation::EnergyDrift {
                energy,
                baseline: self.energy0,
                tol: self.rel_tol,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpx_comm::BitFlipInjector;
    use cpx_mesh::mesh::combustor_box;
    use cpx_mesh::MeshHierarchy;

    fn solver() -> EulerSolver {
        let mesh = combustor_box(6, 6, 6, 0.0, 1.0, 1.0, 1.0);
        let h = MeshHierarchy::build(mesh, 2);
        EulerSolver::acoustic_pulse(h, 0.05)
    }

    #[test]
    fn clean_run_never_trips() {
        let mut s = solver();
        let guard = InvariantGuard::watch(&s);
        for _ in 0..5 {
            s.mg_cycle(2);
            guard.check(&s).expect("clean run must pass the guard");
        }
    }

    #[test]
    fn exponent_bit_flip_is_caught() {
        let mut s = solver();
        let guard = InvariantGuard::watch(&s);
        s.step_fine();
        // Strike the density of one cell with a seeded high-bit flip.
        let flipped = BitFlipInjector::flip(s.state[17][0], 62);
        s.state[17][0] = flipped;
        assert!(guard.check(&s).is_err(), "flip to {flipped} not caught");
    }

    #[test]
    fn nan_is_caught_as_nonfinite() {
        let mut s = solver();
        let guard = InvariantGuard::watch(&s);
        s.state[3][4] = f64::NAN;
        match guard.check(&s) {
            Err(InvariantViolation::NonFinite {
                cell: 3,
                component: 4,
                ..
            }) => {}
            other => panic!("expected NonFinite at (3,4), got {other:?}"),
        }
    }

    #[test]
    fn negative_density_is_caught_as_nonphysical() {
        let mut s = solver();
        let guard = InvariantGuard::watch(&s);
        // Sign-bit flip: value stays finite, magnitude unchanged — only
        // the physicality check can see it if the totals barely move.
        s.state[5][0] = -s.state[5][0];
        assert!(matches!(
            guard.check(&s),
            Err(InvariantViolation::NonPhysical { cell: 5, .. })
        ));
    }

    #[test]
    fn energy_drift_reported_when_mass_intact() {
        let mut s = solver();
        let guard = InvariantGuard::watch(&s);
        s.state[9][4] *= 1.5; // corrupt energy only
        assert!(matches!(
            guard.check(&s),
            Err(InvariantViolation::EnergyDrift { .. })
        ));
    }

    #[test]
    fn seeded_sweep_of_high_bit_flips_all_caught() {
        // The guard's contract covers the *damaging* class of flips:
        // exponent or sign bits on the conserved components (density,
        // energy). Low-mantissa flips sit below any physical tolerance
        // by design (they are also harmless), and flips on near-zero
        // momentum components move the state by subnormal amounts — so
        // the sweep draws its sites from the detectable class and
        // expects (near-)total coverage there.
        let inj = BitFlipInjector::new(0xabcd, 1.0);
        let mut caught = 0;
        let mut total = 0;
        for site in 0..20u64 {
            if !inj.strikes(site) {
                continue;
            }
            let mut s = solver();
            let guard = InvariantGuard::watch(&s);
            let cell = (site as usize * 7) % s.state.len();
            let comp = if site % 2 == 0 { 0 } else { 4 };
            let bit = 52 + inj.bit(site) % 12; // exponent or sign bit
            s.state[cell][comp] = BitFlipInjector::flip(s.state[cell][comp], bit);
            total += 1;
            if guard.check(&s).is_err() {
                caught += 1;
            }
        }
        assert!(total > 0);
        assert!(
            caught * 10 >= total * 8,
            "only {caught}/{total} flips caught"
        );
    }
}
