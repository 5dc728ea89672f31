//! Preconditioned conjugate gradients.
//!
//! The production pressure solver's pressure-correction equation is
//! solved by CG with an aggregate-AMG preconditioner; this module is the
//! reproduction of that solver, with pluggable preconditioning so the
//! paper's comparisons (plain vs Jacobi vs AMG-V vs AMG-K) can be run.
//! The matvec is [`Csr::spmv`] on the global pool, the kernel the
//! cycles use.

use cpx_sparse::Csr;

use crate::cycle::{kcycle, vcycle, wcycle, CycleType};
use crate::hierarchy::Hierarchy;

/// Preconditioner choice.
pub enum Preconditioner<'a> {
    /// No preconditioning.
    Identity,
    /// Diagonal (Jacobi) scaling.
    Jacobi,
    /// One AMG cycle per application.
    Amg {
        /// The hierarchy built for the system matrix.
        hierarchy: &'a Hierarchy,
        /// V or K cycle.
        cycle: CycleType,
    },
}

/// CG parameters.
#[derive(Debug, Clone, Copy)]
pub struct CgConfig {
    /// Relative residual (2-norm) reduction target.
    pub rtol: f64,
    /// Iteration cap.
    pub max_iters: usize,
}

impl Default for CgConfig {
    fn default() -> Self {
        CgConfig {
            rtol: 1e-8,
            max_iters: 500,
        }
    }
}

/// CG result.
#[derive(Debug, Clone)]
pub struct CgOutcome {
    /// Iterations performed.
    pub iters: usize,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// Final relative residual.
    pub final_relres: f64,
    /// Relative residual after each iteration.
    pub history: Vec<f64>,
}

/// Solve `A x = b` by preconditioned CG, updating `x` in place.
pub fn pcg(
    a: &Csr,
    b: &[f64],
    x: &mut [f64],
    precond: &Preconditioner<'_>,
    config: CgConfig,
) -> CgOutcome {
    let n = a.nrows();
    assert_eq!(b.len(), n);
    assert_eq!(x.len(), n);

    let diag = a.diag();
    let apply_prec = |r: &[f64]| -> Vec<f64> {
        match precond {
            Preconditioner::Identity => r.to_vec(),
            Preconditioner::Jacobi => r
                .iter()
                .zip(&diag)
                .map(|(ri, di)| if *di != 0.0 { ri / di } else { *ri })
                .collect(),
            Preconditioner::Amg { hierarchy, cycle } => {
                let mut z = vec![0.0; r.len()];
                match cycle {
                    CycleType::V => vcycle(hierarchy, 0, r, &mut z),
                    CycleType::W => wcycle(hierarchy, 0, r, &mut z),
                    CycleType::K => kcycle(hierarchy, 0, r, &mut z),
                }
                z
            }
        }
    };

    let mut ax = vec![0.0; n];
    a.spmv(x, &mut ax);
    let mut r: Vec<f64> = b.iter().zip(&ax).map(|(bi, ai)| bi - ai).collect();
    let b_norm = norm2(b).max(f64::MIN_POSITIVE);
    let mut history = Vec::new();

    let mut relres = norm2(&r) / b_norm;
    if relres <= config.rtol {
        return CgOutcome {
            iters: 0,
            converged: true,
            final_relres: relres,
            history,
        };
    }

    let mut z = apply_prec(&r);
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let mut r_at_z = r.clone();
    let mut iters = 0;

    while iters < config.max_iters {
        let mut ap = vec![0.0; n];
        a.spmv(&p, &mut ap);
        let pap = dot(&p, &ap);
        if pap <= 0.0 {
            // Not SPD along p (or converged to roundoff); stop.
            break;
        }
        let alpha = rz / pap;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        iters += 1;
        relres = norm2(&r) / b_norm;
        history.push(relres);
        if relres <= config.rtol {
            return CgOutcome {
                iters,
                converged: true,
                final_relres: relres,
                history,
            };
        }
        // Flexible CG (Polak–Ribière): robust to non-symmetric
        // preconditioners such as AMG cycles with hybrid-GS smoothing.
        let r_prev = r_at_z.clone();
        z = apply_prec(&r);
        let rz_new = dot(&r, &z);
        let dz: f64 = r
            .iter()
            .zip(&r_prev)
            .zip(&z)
            .map(|((ri, rp), zi)| (ri - rp) * zi)
            .sum();
        let beta = (dz / rz).max(0.0);
        rz = rz_new;
        r_at_z.copy_from_slice(&r);
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }

    CgOutcome {
        iters,
        converged: relres <= config.rtol,
        final_relres: relres,
        history,
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::HierarchyConfig;

    fn problem(nx: usize) -> (Csr, Vec<f64>, Vec<f64>) {
        let a = Csr::poisson2d(nx, nx);
        let n = a.nrows();
        let x_exact: Vec<f64> = (0..n).map(|i| ((i * 13 % 29) as f64) / 29.0).collect();
        let mut b = vec![0.0; n];
        a.spmv(&x_exact, &mut b);
        (a, b, x_exact)
    }

    #[test]
    fn plain_cg_converges() {
        let (a, b, x_exact) = problem(12);
        let mut x = vec![0.0; b.len()];
        let out = pcg(
            &a,
            &b,
            &mut x,
            &Preconditioner::Identity,
            CgConfig::default(),
        );
        assert!(out.converged, "relres {}", out.final_relres);
        for (u, v) in x.iter().zip(&x_exact) {
            assert!((u - v).abs() < 1e-6);
        }
    }

    #[test]
    fn jacobi_preconditioning_works() {
        let (a, b, _) = problem(12);
        let mut x = vec![0.0; b.len()];
        let out = pcg(&a, &b, &mut x, &Preconditioner::Jacobi, CgConfig::default());
        assert!(out.converged);
    }

    #[test]
    fn amg_pcg_converges_in_few_iterations() {
        let (a, b, _) = problem(32);
        let h = Hierarchy::build(a.clone(), HierarchyConfig::default());
        let mut x = vec![0.0; b.len()];
        let amg = pcg(
            &a,
            &b,
            &mut x,
            &Preconditioner::Amg {
                hierarchy: &h,
                cycle: CycleType::V,
            },
            CgConfig::default(),
        );
        assert!(amg.converged);
        assert!(amg.iters <= 30, "AMG-PCG took {} iterations", amg.iters);

        let mut x2 = vec![0.0; b.len()];
        let plain = pcg(
            &a,
            &b,
            &mut x2,
            &Preconditioner::Identity,
            CgConfig::default(),
        );
        assert!(
            amg.iters < plain.iters,
            "AMG {} vs plain {}",
            amg.iters,
            plain.iters
        );
    }

    #[test]
    fn kcycle_precondition_not_worse() {
        let (a, b, _) = problem(24);
        let h = Hierarchy::build(a.clone(), HierarchyConfig::default());
        let run = |cycle| {
            let mut x = vec![0.0; b.len()];
            pcg(
                &a,
                &b,
                &mut x,
                &Preconditioner::Amg {
                    hierarchy: &h,
                    cycle,
                },
                CgConfig::default(),
            )
            .iters
        };
        let v = run(CycleType::V);
        let k = run(CycleType::K);
        assert!(k <= v + 1, "K-cycle {k} iters vs V-cycle {v}");
    }

    #[test]
    fn residual_history_monotone_overall() {
        let (a, b, _) = problem(16);
        let mut x = vec![0.0; b.len()];
        let out = pcg(&a, &b, &mut x, &Preconditioner::Jacobi, CgConfig::default());
        // CG residuals may oscillate slightly but must trend down by 10x
        // checkpoints.
        let h = &out.history;
        assert!(h.last().unwrap() < &1e-8);
        assert!(h[h.len() / 2] < h[0] * 10.0);
    }

    #[test]
    fn zero_rhs_returns_immediately() {
        let (a, _, _) = problem(8);
        let b = vec![0.0; a.nrows()];
        let mut x = vec![0.0; a.nrows()];
        let out = pcg(
            &a,
            &b,
            &mut x,
            &Preconditioner::Identity,
            CgConfig::default(),
        );
        assert!(out.converged);
        assert_eq!(out.iters, 0);
    }

    #[test]
    fn warm_start_respected() {
        let (a, b, x_exact) = problem(10);
        let mut x = x_exact.clone();
        let out = pcg(
            &a,
            &b,
            &mut x,
            &Preconditioner::Identity,
            CgConfig::default(),
        );
        assert_eq!(out.iters, 0, "exact start must converge instantly");
    }
}
