//! Multigrid level construction.
//!
//! [`Hierarchy::build`] coarsens the operator with greedy aggregation,
//! improves the prolongator per [`InterpKind`], and forms each coarse
//! operator as the Galerkin triple product `Aᶜ = Pᵀ A P` using the SPA
//! SpGEMM, through one workspace shared by all levels. Setup cost (the
//! phase the paper's profile singles out) is accumulated in
//! [`Hierarchy::setup_stats`]; per-cycle work is exposed by
//! [`Hierarchy::cycle_work`] for the pressure-solver cost model.
//!
//! A [`Level`] holds its operator only as CSR, and the cycles multiply
//! by it with [`Csr::spmv`], so editing `levels[k].a` in place leaves
//! no derived copy stale.

use cpx_sparse::spgemm::{spgemm_chunks, triple_product_ws, GalerkinWorkspace};
use cpx_sparse::{Csr, SpOpStats};

use crate::aggregate::aggregate_greedy;
use crate::interp::{extended_prolongator, smooth_prolongator};
use crate::smoother::Smoother;
use crate::strength::strength_graph;

/// Prolongator construction choice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InterpKind {
    /// Piecewise-constant tentative prolongator (cheapest, worst).
    Tentative,
    /// One-sweep smoothed aggregation (distance one).
    Smoothed {
        /// Jacobi damping of the prolongator smoother.
        omega: f64,
    },
    /// Distance-two ("extended+i"-style) smoothing — considers
    /// neighbours' neighbours (§IV-B).
    ExtendedI {
        /// Jacobi damping of the prolongator smoother.
        omega: f64,
    },
}

/// Hierarchy construction parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchyConfig {
    /// Strength-of-connection threshold.
    pub theta: f64,
    /// Prolongator kind.
    pub interp: InterpKind,
    /// Stop coarsening at this many levels.
    pub max_levels: usize,
    /// Stop coarsening when a level has at most this many rows.
    pub coarse_size: usize,
    /// Smoother used by the cycles.
    pub smoother: Smoother,
    /// Pre-smoothing sweeps per cycle.
    pub pre_sweeps: usize,
    /// Post-smoothing sweeps per cycle.
    pub post_sweeps: usize,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            theta: 0.25,
            interp: InterpKind::Smoothed { omega: 0.66 },
            max_levels: 12,
            coarse_size: 32,
            smoother: Smoother::HybridGaussSeidel { blocks: 4 },
            pre_sweeps: 1,
            post_sweeps: 1,
        }
    }
}

/// One multigrid level.
#[derive(Debug, Clone)]
pub struct Level {
    /// The operator on this level.
    pub a: Csr,
    /// Prolongator to this level from the next-coarser (absent on the
    /// coarsest level).
    pub p: Option<Csr>,
    /// Restriction (`Pᵀ`) from this level to the next-coarser.
    pub r: Option<Csr>,
}

/// A built AMG hierarchy.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// Levels, finest first.
    pub levels: Vec<Level>,
    /// Construction parameters (cycles read the smoother settings).
    pub config: HierarchyConfig,
    /// Total setup work (strength + aggregation + prolongator smoothing
    /// + Galerkin products).
    setup_stats: SpOpStats,
    /// Dense LU factors of the coarsest operator.
    coarse_lu: DenseLu,
}

impl Hierarchy {
    /// Build a hierarchy for symmetric positive (semi-)definite `a`.
    pub fn build(a: Csr, config: HierarchyConfig) -> Hierarchy {
        assert!(config.max_levels >= 1);
        assert!(config.coarse_size >= 1);
        let mut ws = GalerkinWorkspace::new();
        let mut setup = SpOpStats::default();
        let mut levels: Vec<Level> = Vec::new();
        let mut current = a;
        while levels.len() + 1 < config.max_levels && current.nrows() > config.coarse_size {
            let s = strength_graph(&current, config.theta);
            setup.bytes_read += current.nnz() as f64 * 16.0;
            let agg = aggregate_greedy(&s);
            if agg.n_aggregates >= current.nrows() {
                break; // no coarsening possible
            }
            let tentative = agg.tentative_prolongator();
            let p = match config.interp {
                InterpKind::Tentative => tentative,
                InterpKind::Smoothed { omega } => {
                    let res = smooth_prolongator(&current, &tentative, omega);
                    accumulate(&mut setup, &res.stats);
                    res.product
                }
                InterpKind::ExtendedI { omega } => {
                    let res = extended_prolongator(&current, &tentative, omega);
                    accumulate(&mut setup, &res.stats);
                    res.product
                }
            };
            let r = p.transpose();
            let rap = triple_product_ws(&r, &current, &p, spgemm_chunks(), &mut ws);
            accumulate(&mut setup, &rap.stats);
            levels.push(Level {
                a: current,
                p: Some(p),
                r: Some(r),
            });
            current = rap.product;
        }
        let coarse_lu = DenseLu::factor(&current);
        levels.push(Level {
            a: current,
            p: None,
            r: None,
        });
        Hierarchy {
            levels,
            config,
            setup_stats: setup,
            coarse_lu,
        }
    }

    /// Number of levels (≥ 1).
    pub fn n_levels(&self) -> usize {
        self.levels.len()
    }

    /// Rows on each level, finest first.
    pub fn level_sizes(&self) -> Vec<usize> {
        self.levels.iter().map(|l| l.a.nrows()).collect()
    }

    /// Total setup work.
    pub fn setup_stats(&self) -> SpOpStats {
        self.setup_stats
    }

    /// Operator complexity: total nnz across levels / finest nnz. A
    /// standard AMG health measure (should be < ~2.5).
    pub fn operator_complexity(&self) -> f64 {
        let total: usize = self.levels.iter().map(|l| l.a.nnz()).sum();
        total as f64 / self.levels[0].a.nnz() as f64
    }

    /// Analytic work of one V-cycle (smoothing + residual + transfers on
    /// every level + coarse solve), for the cost model.
    pub fn cycle_work(&self) -> SpOpStats {
        let mut total = SpOpStats::default();
        let sweeps = (self.config.pre_sweeps + self.config.post_sweeps) as f64;
        for (i, level) in self.levels.iter().enumerate() {
            let nnz = level.a.nnz() as f64;
            let n = level.a.nrows() as f64;
            if i + 1 < self.levels.len() {
                // Smoothing sweeps + residual computation + transfers.
                total.flops += sweeps * (2.0 * nnz + 3.0 * n) + 2.0 * nnz;
                total.bytes_read += sweeps * (nnz * 24.0 + n * 16.0) + nnz * 24.0;
                total.bytes_written += (sweeps + 1.0) * n * 8.0;
                if let (Some(p), Some(r)) = (&level.p, &level.r) {
                    let ps = p.spmv_stats();
                    let rs = r.spmv_stats();
                    total.flops += ps.flops + rs.flops;
                    total.bytes_read += ps.bytes_read + rs.bytes_read;
                    total.bytes_written += ps.bytes_written + rs.bytes_written;
                }
            } else {
                // Dense coarse solve: 2/3 n³ amortised over cycles is the
                // factor cost; per-cycle it is the two triangular solves.
                total.flops += 2.0 * n * n;
                total.bytes_read += 2.0 * n * n * 8.0;
                total.bytes_written += n * 8.0;
            }
        }
        total.input_passes = 1;
        total
    }

    /// Solve the coarsest-level system directly.
    pub(crate) fn coarse_solve(&self, b: &[f64]) -> Vec<f64> {
        self.coarse_lu.solve(b)
    }
}

fn accumulate(total: &mut SpOpStats, s: &SpOpStats) {
    total.flops += s.flops;
    total.bytes_read += s.bytes_read;
    total.bytes_written += s.bytes_written;
}

/// Dense LU with partial pivoting for the coarsest level.
#[derive(Debug, Clone)]
struct DenseLu {
    n: usize,
    lu: Vec<f64>,
    piv: Vec<usize>,
    /// Rows found singular get identity treatment (semi-definite
    /// operators, e.g. pure-Neumann pressure systems).
    singular: Vec<bool>,
}

impl DenseLu {
    fn factor(a: &Csr) -> DenseLu {
        let n = a.nrows();
        let mut lu = vec![0.0f64; n * n];
        for r in 0..n {
            let (cols, vals) = a.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                lu[r * n + c] = v;
            }
        }
        let mut piv: Vec<usize> = (0..n).collect();
        let mut singular = vec![false; n];
        for k in 0..n {
            // Partial pivot.
            let mut best = k;
            let mut best_val = lu[piv[k] * n + k].abs();
            for r in k + 1..n {
                let v = lu[piv[r] * n + k].abs();
                if v > best_val {
                    best = r;
                    best_val = v;
                }
            }
            piv.swap(k, best);
            let pk = piv[k];
            let pivot = lu[pk * n + k];
            if pivot.abs() < 1e-13 {
                singular[k] = true;
                continue;
            }
            for r in k + 1..n {
                let pr = piv[r];
                let factor = lu[pr * n + k] / pivot;
                lu[pr * n + k] = factor;
                for c in k + 1..n {
                    lu[pr * n + c] -= factor * lu[pk * n + c];
                }
            }
        }
        DenseLu {
            n,
            lu,
            piv,
            singular,
        }
    }

    fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.n;
        assert_eq!(b.len(), n);
        // Forward substitution on the permuted system.
        let mut y = vec![0.0f64; n];
        for k in 0..n {
            let pk = self.piv[k];
            let mut acc = b[pk];
            for c in 0..k {
                acc -= self.lu[pk * n + c] * y[c];
            }
            y[k] = acc;
        }
        // Backward substitution.
        let mut x = vec![0.0f64; n];
        for k in (0..n).rev() {
            if self.singular[k] {
                x[k] = 0.0; // null-space component pinned
                continue;
            }
            let pk = self.piv[k];
            let mut acc = y[k];
            for c in k + 1..n {
                acc -= self.lu[pk * n + c] * x[c];
            }
            x[k] = acc / self.lu[pk * n + k];
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_multiple_levels() {
        let a = Csr::poisson2d(32, 32);
        let h = Hierarchy::build(a, HierarchyConfig::default());
        assert!(h.n_levels() >= 3, "levels: {:?}", h.level_sizes());
        let sizes = h.level_sizes();
        for w in sizes.windows(2) {
            assert!(w[1] < w[0], "levels must coarsen: {sizes:?}");
        }
        assert!(*sizes.last().unwrap() <= 32);
    }

    #[test]
    fn galerkin_operators_symmetric() {
        let a = Csr::poisson2d(16, 16);
        let h = Hierarchy::build(a, HierarchyConfig::default());
        for level in &h.levels {
            let at = level.a.transpose();
            for r in 0..level.a.nrows() {
                let (cols, vals) = level.a.row(r);
                for (&c, &v) in cols.iter().zip(vals) {
                    assert!(
                        (at.get(r, c) - v).abs() < 1e-10,
                        "asymmetry at level row {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn restriction_is_prolongation_transpose() {
        let a = Csr::poisson2d(12, 12);
        let h = Hierarchy::build(a, HierarchyConfig::default());
        for level in &h.levels {
            if let (Some(p), Some(r)) = (&level.p, &level.r) {
                assert_eq!(*r, p.transpose());
            }
        }
    }

    #[test]
    fn operator_complexity_bounded() {
        let a = Csr::poisson3d(10, 10, 10);
        let h = Hierarchy::build(a, HierarchyConfig::default());
        let oc = h.operator_complexity();
        assert!((1.0..3.0).contains(&oc), "operator complexity {oc}");
    }

    #[test]
    fn coarse_solve_exact() {
        let a = Csr::poisson2d(5, 5); // 25 rows <= default coarse_size 32
        let h = Hierarchy::build(a.clone(), HierarchyConfig::default());
        assert_eq!(h.n_levels(), 1);
        let x_exact: Vec<f64> = (0..25).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut b = vec![0.0; 25];
        a.spmv(&x_exact, &mut b);
        let x = h.coarse_solve(&b);
        for (u, v) in x.iter().zip(&x_exact) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn singular_coarse_handled() {
        // Pure Neumann 1-D Laplacian (row sums zero everywhere) is
        // singular; the LU must still produce a usable least-norm-ish
        // solution for a compatible RHS.
        let n = 8;
        let mut coo = cpx_sparse::Coo::new(n, n);
        for i in 0..n {
            let mut diag = 0.0;
            if i > 0 {
                coo.push(i, i - 1, -1.0);
                diag += 1.0;
            }
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
                diag += 1.0;
            }
            coo.push(i, i, diag);
        }
        let a = coo.to_csr();
        let h = Hierarchy::build(a.clone(), HierarchyConfig::default());
        // Compatible RHS: b = A * something.
        let y: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut b = vec![0.0; n];
        a.spmv(&y, &mut b);
        let x = h.coarse_solve(&b);
        // Residual should be tiny even though A is singular.
        assert!(a.residual_inf(&x, &b) < 1e-8);
    }

    #[test]
    fn setup_stats_nonzero_and_extended_costs_more() {
        let a = Csr::poisson2d(24, 24);
        let smoothed = Hierarchy::build(
            a.clone(),
            HierarchyConfig {
                interp: InterpKind::Smoothed { omega: 0.66 },
                ..HierarchyConfig::default()
            },
        );
        let extended = Hierarchy::build(
            a,
            HierarchyConfig {
                interp: InterpKind::ExtendedI { omega: 0.66 },
                ..HierarchyConfig::default()
            },
        );
        assert!(smoothed.setup_stats().flops > 0.0);
        assert!(extended.setup_stats().flops > smoothed.setup_stats().flops);
    }

    #[test]
    fn cycle_work_scales_with_problem() {
        let small = Hierarchy::build(Csr::poisson2d(16, 16), HierarchyConfig::default());
        let large = Hierarchy::build(Csr::poisson2d(32, 32), HierarchyConfig::default());
        assert!(large.cycle_work().flops > 3.0 * small.cycle_work().flops);
    }

    #[test]
    fn max_levels_respected() {
        let a = Csr::poisson2d(32, 32);
        let h = Hierarchy::build(
            a,
            HierarchyConfig {
                max_levels: 2,
                ..HierarchyConfig::default()
            },
        );
        assert_eq!(h.n_levels(), 2);
    }
}
