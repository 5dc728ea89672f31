//! Multigrid cycles.
//!
//! * [`vcycle`] — the standard V-cycle, which the paper recommends (with
//!   good smoothed interpolation) for scalability at high core counts.
//! * [`kcycle`] — Notay's Krylov-accelerated K-cycle: the coarse-grid
//!   correction is computed by up to two steps of flexible CG whose
//!   preconditioner is a recursive K-cycle. Converges in fewer cycles
//!   but performs more coarse-level work and more inner products — the
//!   scalability drawback the paper cites for large core counts.

use crate::hierarchy::{Hierarchy, Level};

/// Cycle selection for the preconditioner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleType {
    /// V-cycle.
    V,
    /// W-cycle (two coarse-grid corrections per level).
    W,
    /// Notay K-cycle with residual tolerance 0.25 for the inner test.
    K,
}

/// Apply one cycle of the given type at the finest level.
pub fn apply_cycle(h: &Hierarchy, ty: CycleType, b: &[f64], x: &mut [f64]) {
    match ty {
        CycleType::V => vcycle(h, 0, b, x),
        CycleType::W => wcycle(h, 0, b, x),
        CycleType::K => kcycle(h, 0, b, x),
    }
}

/// Asymptotic residual-reduction factor of repeated cycles on a
/// homogeneous problem (`A e = 0` from a rough start): the geometric
/// mean of the last few per-cycle reductions — the standard empirical
/// convergence-factor estimate.
pub fn convergence_factor(h: &Hierarchy, ty: CycleType, cycles: usize) -> f64 {
    assert!(cycles >= 3);
    let a = &h.levels[0].a;
    let n = a.nrows();
    let b = vec![0.0; n];
    // Rough deterministic error.
    let mut x: Vec<f64> = (0..n)
        .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 } * (1.0 + (i % 7) as f64 * 0.1))
        .collect();
    let mut factors = Vec::new();
    let mut prev = a.residual_inf(&x, &b);
    for _ in 0..cycles {
        apply_cycle(h, ty, &b, &mut x);
        let cur = a.residual_inf(&x, &b);
        if prev > 0.0 && cur > 0.0 {
            factors.push(cur / prev);
        }
        prev = cur;
    }
    let tail = &factors[factors.len().saturating_sub(3)..];
    if tail.is_empty() {
        return 0.0;
    }
    let product: f64 = tail.iter().product();
    product.powf(1.0 / tail.len() as f64)
}

/// Apply one W-cycle for `A x = b` at hierarchy level `level`: like the
/// V-cycle but with two successive coarse-grid corrections, trading
/// extra coarse work (and coarse-level latency at scale — the same
/// trade as the K-cycle) for faster convergence.
pub fn wcycle(h: &Hierarchy, level: usize, b: &[f64], x: &mut [f64]) {
    let lvl = &h.levels[level];
    let a = &lvl.a;
    if level + 1 == h.n_levels() {
        let sol = h.coarse_solve(b);
        x.copy_from_slice(&sol);
        return;
    }
    let smoother = h.config.smoother;
    smoother.smooth(a, b, x, h.config.pre_sweeps);

    let r_op = lvl.r.as_ref().expect("non-coarsest level has R");
    let p_op = lvl.p.as_ref().expect("non-coarsest level has P");
    for _ in 0..2 {
        let residual = residual_of(lvl, b, x);
        let mut rc = vec![0.0; r_op.nrows()];
        r_op.spmv(&residual, &mut rc);
        let mut xc = vec![0.0; rc.len()];
        wcycle(h, level + 1, &rc, &mut xc);
        let mut correction = vec![0.0; x.len()];
        p_op.spmv(&xc, &mut correction);
        for (xi, ci) in x.iter_mut().zip(&correction) {
            *xi += ci;
        }
    }

    smoother.smooth(a, b, x, h.config.post_sweeps);
}

/// Apply one V-cycle for `A x = b` starting from `x` (in place), at
/// hierarchy level `level`.
pub fn vcycle(h: &Hierarchy, level: usize, b: &[f64], x: &mut [f64]) {
    let lvl = &h.levels[level];
    let a = &lvl.a;
    if level + 1 == h.n_levels() {
        let sol = h.coarse_solve(b);
        x.copy_from_slice(&sol);
        return;
    }
    let smoother = h.config.smoother;
    smoother.smooth(a, b, x, h.config.pre_sweeps);

    // Coarse correction.
    let residual = residual_of(lvl, b, x);
    let r_op = lvl.r.as_ref().expect("non-coarsest level has R");
    let p_op = lvl.p.as_ref().expect("non-coarsest level has P");
    let mut rc = vec![0.0; r_op.nrows()];
    r_op.spmv(&residual, &mut rc);
    let mut xc = vec![0.0; rc.len()];
    vcycle(h, level + 1, &rc, &mut xc);
    let mut correction = vec![0.0; x.len()];
    p_op.spmv(&xc, &mut correction);
    for (xi, ci) in x.iter_mut().zip(&correction) {
        *xi += ci;
    }

    smoother.smooth(a, b, x, h.config.post_sweeps);
}

/// Apply one K-cycle at `level` (Notay 2008 formulation, inner tolerance
/// `t = 0.25`, at most two inner FCG steps).
pub fn kcycle(h: &Hierarchy, level: usize, b: &[f64], x: &mut [f64]) {
    let lvl = &h.levels[level];
    let a = &lvl.a;
    if level + 1 == h.n_levels() {
        let sol = h.coarse_solve(b);
        x.copy_from_slice(&sol);
        return;
    }
    let smoother = h.config.smoother;
    smoother.smooth(a, b, x, h.config.pre_sweeps);

    let residual = residual_of(lvl, b, x);
    let r_op = lvl.r.as_ref().expect("non-coarsest level has R");
    let p_op = lvl.p.as_ref().expect("non-coarsest level has P");
    let mut rc = vec![0.0; r_op.nrows()];
    r_op.spmv(&residual, &mut rc);

    // Coarse solve by ≤2 steps of FCG preconditioned by recursive
    // K-cycles.
    let xc = kcycle_coarse_solve(h, level + 1, &rc);

    let mut correction = vec![0.0; x.len()];
    p_op.spmv(&xc, &mut correction);
    for (xi, ci) in x.iter_mut().zip(&correction) {
        *xi += ci;
    }

    smoother.smooth(a, b, x, h.config.post_sweeps);
}

/// Notay's inner Krylov acceleration for the coarse problem
/// `A_c x = rc`.
fn kcycle_coarse_solve(h: &Hierarchy, level: usize, rc: &[f64]) -> Vec<f64> {
    let lvl = &h.levels[level];
    let n = rc.len();
    if level + 1 == h.n_levels() {
        return h.coarse_solve(rc);
    }
    // First preconditioned direction.
    let mut c1 = vec![0.0; n];
    kcycle(h, level, rc, &mut c1);
    let mut v1 = vec![0.0; n];
    lvl.a.spmv(&c1, &mut v1);
    let rho1 = dot(&c1, &v1);
    let alpha1 = dot(&c1, rc);
    if rho1.abs() < f64::MIN_POSITIVE {
        return c1;
    }
    let t1 = alpha1 / rho1;
    let rtilde: Vec<f64> = rc.iter().zip(&v1).map(|(r, v)| r - t1 * v).collect();
    let norm_r = norm2(rc);
    if norm2(&rtilde) <= 0.25 * norm_r {
        return c1.iter().map(|c| t1 * c).collect();
    }
    // Second direction.
    let mut c2 = vec![0.0; n];
    kcycle(h, level, &rtilde, &mut c2);
    let mut v2 = vec![0.0; n];
    lvl.a.spmv(&c2, &mut v2);
    let gamma = dot(&c2, &v1);
    let beta = dot(&c2, &v2);
    let alpha2 = dot(&c2, &rtilde);
    let rho2 = beta - gamma * gamma / rho1;
    if rho2.abs() < f64::MIN_POSITIVE {
        return c1.iter().map(|c| t1 * c).collect();
    }
    let coef1 = alpha1 / rho1 - (gamma / rho1) * (alpha2 / rho2);
    let coef2 = alpha2 / rho2;
    c1.iter()
        .zip(&c2)
        .map(|(a1, a2)| coef1 * a1 + coef2 * a2)
        .collect()
}

/// Residual-monotonicity violation detected by [`apply_cycle_guarded`].
///
/// A multigrid cycle on a convergent hierarchy *reduces* the residual;
/// silent corruption of the operator entries, the transfer operators or
/// the iterate almost surely breaks that — either the residual jumps or
/// it stops being finite. (The finiteness scan is explicit because the
/// inf-norm's `f64::max` fold silently *ignores* NaN.)
#[derive(Debug, Clone, PartialEq)]
pub enum CycleViolation {
    /// The iterate contains a NaN or infinity after the cycle.
    NonFinite {
        /// Index of the first offending entry of `x`.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// The residual grew beyond the allowed factor.
    ResidualGrowth {
        /// Inf-norm residual before the cycle.
        before: f64,
        /// Inf-norm residual after the cycle.
        after: f64,
        /// The growth factor that was allowed.
        max_growth: f64,
    },
}

impl std::fmt::Display for CycleViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CycleViolation::NonFinite { index, value } => {
                write!(f, "non-finite iterate: x[{index}] = {value}")
            }
            CycleViolation::ResidualGrowth {
                before,
                after,
                max_growth,
            } => write!(
                f,
                "residual grew {before} -> {after} (allowed factor {max_growth})"
            ),
        }
    }
}

impl std::error::Error for CycleViolation {}

/// Residuals bracketing a guarded cycle (returned on success so callers
/// can log convergence without re-measuring).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardedCycle {
    /// Inf-norm residual before the cycle.
    pub residual_before: f64,
    /// Inf-norm residual after the cycle.
    pub residual_after: f64,
}

/// Apply one cycle with a residual-monotonicity guard: measure the
/// inf-norm residual before and after, and fail if the iterate went
/// non-finite or the residual grew by more than `max_growth` (use `1.0`
/// for strict monotonicity; the paper-grade hierarchies here contract by
/// well under 0.5 per cycle, so `1.0` still has huge slack against
/// rounding). The absolute floor `64·ε·‖b‖∞` keeps an exactly-converged
/// start (`r_before = 0`) from tripping on smoother round-off.
///
/// On violation `x` is left as the cycle wrote it (callers recovering
/// via recompute/rollback want the evidence, not a silent reset).
pub fn apply_cycle_guarded(
    h: &Hierarchy,
    ty: CycleType,
    b: &[f64],
    x: &mut [f64],
    max_growth: f64,
) -> Result<GuardedCycle, CycleViolation> {
    let a = &h.levels[0].a;
    let residual_before = a.residual_inf(x, b);
    apply_cycle(h, ty, b, x);
    if let Some((index, &value)) = x.iter().enumerate().find(|(_, v)| !v.is_finite()) {
        return Err(CycleViolation::NonFinite { index, value });
    }
    let residual_after = a.residual_inf(x, b);
    let b_scale = b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let floor = 64.0 * f64::EPSILON * b_scale.max(f64::MIN_POSITIVE);
    if !residual_after.is_finite() || residual_after > max_growth * residual_before + floor {
        return Err(CycleViolation::ResidualGrowth {
            before: residual_before,
            after: residual_after,
            max_growth,
        });
    }
    Ok(GuardedCycle {
        residual_before,
        residual_after,
    })
}

fn residual_of(lvl: &Level, b: &[f64], x: &[f64]) -> Vec<f64> {
    let mut ax = vec![0.0; b.len()];
    lvl.a.spmv(x, &mut ax);
    b.iter().zip(&ax).map(|(bi, ai)| bi - ai).collect()
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
    use crate::hierarchy::{HierarchyConfig, InterpKind};
    use crate::smoother::Smoother;
    use cpx_sparse::Csr;

    fn residual_ratio_after(cycles: usize, ty: CycleType, cfg: HierarchyConfig) -> f64 {
        let a = Csr::poisson2d(24, 24);
        let n = a.nrows();
        let x_exact: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) / 13.0).collect();
        let mut b = vec![0.0; n];
        a.spmv(&x_exact, &mut b);
        let h = Hierarchy::build(a.clone(), cfg);
        let mut x = vec![0.0; n];
        let r0 = a.residual_inf(&x, &b);
        for _ in 0..cycles {
            apply_cycle(&h, ty, &b, &mut x);
        }
        a.residual_inf(&x, &b) / r0
    }

    #[test]
    fn vcycle_converges_fast() {
        // Convergence factor must be well under 0.5 per cycle.
        let ratio = residual_ratio_after(8, CycleType::V, HierarchyConfig::default());
        assert!(ratio < 1e-4, "V-cycle residual ratio {ratio}");
    }

    #[test]
    fn kcycle_converges_at_least_as_fast_as_v() {
        let cfg = HierarchyConfig {
            // Weak interpolation makes the difference visible.
            interp: InterpKind::Tentative,
            ..HierarchyConfig::default()
        };
        let v = residual_ratio_after(6, CycleType::V, cfg);
        let k = residual_ratio_after(6, CycleType::K, cfg);
        assert!(k <= v * 1.01, "K {k} should beat V {v}");
    }

    #[test]
    fn smoothed_interp_beats_tentative() {
        let tentative = residual_ratio_after(
            5,
            CycleType::V,
            HierarchyConfig {
                interp: InterpKind::Tentative,
                ..HierarchyConfig::default()
            },
        );
        let smoothed = residual_ratio_after(
            5,
            CycleType::V,
            HierarchyConfig {
                interp: InterpKind::Smoothed { omega: 0.66 },
                ..HierarchyConfig::default()
            },
        );
        assert!(
            smoothed < tentative,
            "smoothed {smoothed} vs tentative {tentative}"
        );
    }

    #[test]
    fn extended_interp_at_least_matches_smoothed() {
        let smoothed = residual_ratio_after(
            4,
            CycleType::V,
            HierarchyConfig {
                interp: InterpKind::Smoothed { omega: 0.66 },
                ..HierarchyConfig::default()
            },
        );
        let extended = residual_ratio_after(
            4,
            CycleType::V,
            HierarchyConfig {
                interp: InterpKind::ExtendedI { omega: 0.66 },
                ..HierarchyConfig::default()
            },
        );
        assert!(
            extended <= smoothed * 1.5,
            "extended {extended} vs smoothed {smoothed}"
        );
    }

    #[test]
    fn single_level_is_direct_solve() {
        let a = Csr::poisson1d(10);
        let h = Hierarchy::build(a.clone(), HierarchyConfig::default());
        assert_eq!(h.n_levels(), 1);
        let x_exact: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let mut b = vec![0.0; 10];
        a.spmv(&x_exact, &mut b);
        let mut x = vec![0.0; 10];
        vcycle(&h, 0, &b, &mut x);
        assert!(a.residual_inf(&x, &b) < 1e-9);
    }

    #[test]
    fn hybrid_gs_cycles_converge() {
        let ratio = residual_ratio_after(
            8,
            CycleType::V,
            HierarchyConfig {
                smoother: Smoother::HybridGaussSeidel { blocks: 8 },
                ..HierarchyConfig::default()
            },
        );
        assert!(ratio < 1e-5, "hybrid-GS V-cycle ratio {ratio}");
    }

    #[test]
    fn cycles_are_deterministic() {
        let a = Csr::poisson2d(16, 16);
        let h = Hierarchy::build(a.clone(), HierarchyConfig::default());
        let b: Vec<f64> = (0..a.nrows()).map(|i| (i as f64).sin()).collect();
        let run = |h: &Hierarchy| {
            let mut x = vec![0.0; b.len()];
            for _ in 0..3 {
                kcycle(h, 0, &b, &mut x);
            }
            x
        };
        assert_eq!(run(&h), run(&h));
    }

    #[test]
    fn wcycle_converges_at_least_as_fast_as_v() {
        let cfg = HierarchyConfig {
            interp: InterpKind::Tentative, // weak interp exposes the gap
            ..HierarchyConfig::default()
        };
        let v = residual_ratio_after(5, CycleType::V, cfg);
        let w = residual_ratio_after(5, CycleType::W, cfg);
        assert!(w <= v * 1.01, "W {w} should beat V {v}");
    }

    #[test]
    fn guarded_cycle_passes_clean_and_reports_contraction() {
        let a = Csr::poisson2d(24, 24);
        let n = a.nrows();
        let x_exact: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) / 13.0).collect();
        let mut b = vec![0.0; n];
        a.spmv(&x_exact, &mut b);
        let h = Hierarchy::build(a, HierarchyConfig::default());
        let mut x = vec![0.0; n];
        for _ in 0..6 {
            let g = apply_cycle_guarded(&h, CycleType::V, &b, &mut x, 1.0)
                .expect("clean guarded cycle");
            assert!(g.residual_after <= g.residual_before);
        }
    }

    #[test]
    fn guarded_cycle_from_exact_solution_does_not_false_positive() {
        let a = Csr::poisson2d(12, 12);
        let n = a.nrows();
        let x_exact: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut b = vec![0.0; n];
        a.spmv(&x_exact, &mut b);
        let h = Hierarchy::build(a, HierarchyConfig::default());
        let mut x = x_exact;
        // r_before ≈ 0: only the ε·‖b‖∞ floor keeps this from tripping.
        apply_cycle_guarded(&h, CycleType::V, &b, &mut x, 1.0)
            .expect("exactly-converged start must pass");
    }

    #[test]
    fn corrupted_operator_trips_the_guard() {
        let a = Csr::poisson2d(16, 16);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) - 2.0).collect();
        let mut h = Hierarchy::build(a, HierarchyConfig::default());
        // Exponent bit flip in one fine-level operator entry.
        let v = h.levels[0].a.vals_mut();
        let bits = v[37].to_bits() ^ (1u64 << 62);
        v[37] = f64::from_bits(bits);
        let mut x = vec![0.0; n];
        let mut tripped = false;
        for _ in 0..4 {
            if apply_cycle_guarded(&h, CycleType::V, &b, &mut x, 1.0).is_err() {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "corrupted operator never tripped the guard");
    }

    #[test]
    fn nan_in_prolongator_reported_as_nonfinite() {
        let a = Csr::poisson2d(16, 16);
        let n = a.nrows();
        let b = vec![1.0; n];
        let mut h = Hierarchy::build(a, HierarchyConfig::default());
        let p = h.levels[0].p.as_mut().expect("multilevel hierarchy");
        p.vals_mut()[3] = f64::NAN;
        let mut x = vec![0.0; n];
        assert!(matches!(
            apply_cycle_guarded(&h, CycleType::V, &b, &mut x, 1.0),
            Err(CycleViolation::NonFinite { .. })
        ));
    }

    #[test]
    fn convergence_factor_sane_and_ordered() {
        let a = Csr::poisson2d(24, 24);
        let h = Hierarchy::build(a, HierarchyConfig::default());
        let fv = convergence_factor(&h, CycleType::V, 8);
        let fw = convergence_factor(&h, CycleType::W, 8);
        assert!((0.0..0.6).contains(&fv), "V factor {fv}");
        assert!(fw <= fv * 1.05, "W {fw} vs V {fv}");
    }
}
