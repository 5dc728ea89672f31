//! Lagrangian fuel spray.
//!
//! The spray is the pressure solver's worst scaler: droplets are
//! injected through nozzles, so they are *heavily clustered* in space,
//! and with spatial partitioning a handful of ranks own nearly all of
//! them while the rest wait (96% of spray time in communication at 2048
//! cores — Fig 5a). [`rank_fraction`] is the distribution model the
//! trace generator uses: a nozzle-core mass fraction that stays on one
//! rank no matter how finely the domain is cut, plus a dispersed
//! remainder that balances.

use cpx_par::ParPool;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Fraction of droplets concentrated in the nozzle core (calibrated so
/// the spray's efficiency knee and communication fraction match Fig 5:
/// PE < 50% by ~2 nodes, ~96% comm at 2048 ranks).
pub const CORE_FRACTION: f64 = 0.02;

/// Relative axial position of the injector.
pub const INJECTOR_POSITION: f64 = 0.15;

/// Fraction of all droplets owned by rank `i` of `p` under spatial
/// (axial-slab) partitioning: the rank containing the injector holds the
/// core plus its share of the dispersed cloud; everyone else holds just
/// a dispersed share.
pub fn rank_fraction(i: usize, p: usize) -> f64 {
    assert!(i < p, "rank {i} of {p}");
    let dispersed = (1.0 - CORE_FRACTION) / p as f64;
    let core_rank = ((INJECTOR_POSITION * p as f64) as usize).min(p - 1);
    if i == core_rank {
        CORE_FRACTION + dispersed
    } else {
        dispersed
    }
}

/// [`rank_fraction`] of each of `p` ranks.
pub fn rank_fractions(p: usize) -> Vec<f64> {
    assert!(p >= 1);
    (0..p).map(|i| rank_fraction(i, p)).collect()
}

/// Max-over-ranks droplet fraction at `p` ranks.
pub fn max_fraction(p: usize) -> f64 {
    CORE_FRACTION + (1.0 - CORE_FRACTION) / p as f64
}

/// A functional droplet cloud in a unit box (used by the miniature
/// solver and its tests).
#[derive(Debug, Clone)]
pub struct SprayCloud {
    /// Droplet positions.
    pub pos: Vec<[f64; 3]>,
    /// Droplet velocities.
    pub vel: Vec<[f64; 3]>,
    /// Drag relaxation time.
    pub tau: f64,
}

impl SprayCloud {
    /// Inject `n` droplets: `CORE_FRACTION` of them in a tight nozzle
    /// core at the injector, the rest dispersed downstream.
    pub fn inject(n: usize, seed: u64) -> SprayCloud {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_core = ((n as f64) * CORE_FRACTION).round() as usize;
        let mut pos = Vec::with_capacity(n);
        let mut vel = Vec::with_capacity(n);
        for i in 0..n {
            let p = if i < n_core {
                // Nozzle core: a tight ball at the injector.
                [
                    INJECTOR_POSITION + rng.gen_range(-0.002..0.002),
                    0.5 + rng.gen_range(-0.002..0.002),
                    0.5 + rng.gen_range(-0.002..0.002),
                ]
            } else {
                // Dispersed plume downstream of the injector.
                [
                    rng.gen_range(INJECTOR_POSITION..1.0),
                    rng.gen_range(0.2..0.8),
                    rng.gen_range(0.2..0.8),
                ]
            };
            pos.push(p);
            vel.push([rng.gen_range(0.5..1.5), 0.0, 0.0]);
        }
        SprayCloud { pos, vel, tau: 0.1 }
    }

    /// Advance droplets by `dt` under Stokes drag toward the carrier
    /// velocity field `fluid(x)`, reflecting at the unit-box walls.
    pub fn update(&mut self, dt: f64, fluid: impl Fn([f64; 3]) -> [f64; 3] + Sync) {
        let pool = ParPool::current().limited(self.pos.len());
        let chunks = pool.chunks();
        self.update_with(&pool, chunks, dt, fluid);
    }

    /// [`SprayCloud::update`] on an explicit pool: droplets are
    /// independent (the carrier field is read-only), so any chunking is
    /// bit-identical to the serial update.
    pub fn update_with(
        &mut self,
        pool: &ParPool,
        chunks: usize,
        dt: f64,
        fluid: impl Fn([f64; 3]) -> [f64; 3] + Sync,
    ) {
        let k = dt / self.tau;
        pool.zip_chunks_mut(&mut self.pos, &mut self.vel, chunks, |_, _, xs, vs| {
            for (x, v) in xs.iter_mut().zip(vs.iter_mut()) {
                let u = fluid(*x);
                for d in 0..3 {
                    v[d] += (u[d] - v[d]) * k;
                    x[d] += v[d] * dt;
                    if x[d] < 0.0 {
                        x[d] = -x[d];
                        v[d] = -v[d];
                    }
                    if x[d] > 1.0 {
                        x[d] = 2.0 - x[d];
                        v[d] = -v[d];
                    }
                    x[d] = x[d].clamp(0.0, 1.0);
                }
            }
        });
    }

    /// Operation counts for one [`SprayCloud::update`] invocation, for
    /// the roofline summary. Per droplet and per axis: Stokes-drag
    /// relaxation (3 flops), drift (2 flops) and wall handling (~2
    /// flops on average) — ~21 flops over three axes, plus the carrier
    /// velocity evaluation charged at 3 flops. Traffic is the
    /// position/velocity read-modify-write plus the evaluated carrier
    /// velocity. `nnz` counts droplets touched.
    pub fn update_counts(&self) -> cpx_obs::OpCounts {
        let n = self.pos.len() as f64;
        let xv_bytes = 2.0 * 24.0; // [f64; 3] position + velocity
        cpx_obs::OpCounts {
            flops: 24.0 * n,
            bytes_read: (xv_bytes + 24.0) * n,
            bytes_written: xv_bytes * n,
            nnz: n,
        }
    }

    /// Count droplets in each of `p` axial slabs — the measured
    /// imbalance a spatial partitioning would see.
    pub fn slab_counts(&self, p: usize) -> Vec<usize> {
        let mut counts = vec![0usize; p];
        for x in &self.pos {
            let slab = ((x[0] * p as f64) as usize).min(p - 1);
            counts[slab] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_counts_scale_with_droplets() {
        let cloud = SprayCloud::inject(1000, 7);
        let c = cloud.update_counts();
        assert_eq!(c.nnz, 1000.0);
        assert_eq!(c.flops, 24.0 * 1000.0);
        assert_eq!(c.bytes_written, 48.0 * 1000.0);
        assert!(c.intensity() > 0.0);
        let double = SprayCloud::inject(2000, 7).update_counts();
        assert_eq!(double.flops, 2.0 * c.flops);
    }

    #[test]
    fn fractions_sum_to_one() {
        for p in [1usize, 2, 7, 128, 2048] {
            let f = rank_fractions(p);
            assert_eq!(f.len(), p);
            let sum: f64 = f.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "p={p}: {sum}");
        }
    }

    #[test]
    fn max_fraction_saturates_at_core() {
        // Beyond ~1/CORE_FRACTION ranks the peak rank's share is pinned
        // by the nozzle core — the mechanism behind the flat spray
        // elapsed time (and collapsing efficiency).
        let m128 = max_fraction(128);
        let m2048 = max_fraction(2048);
        assert!(m128 < 2.0 * CORE_FRACTION);
        assert!(m2048 > CORE_FRACTION);
        assert!((m128 - m2048) / m128 < 0.3);
    }

    #[test]
    fn spray_imbalance_implies_96_percent_comm_at_2048() {
        // comm share = 1 − mean/max; at 2048 ranks this must be ~96%.
        let p = 2048;
        let mean = 1.0 / p as f64;
        let comm = 1.0 - mean / max_fraction(p);
        assert!((0.94..0.99).contains(&comm), "comm share {comm}");
    }

    #[test]
    fn functional_cloud_matches_fraction_model() {
        let cloud = SprayCloud::inject(200_000, 9);
        let counts = cloud.slab_counts(128);
        let max = *counts.iter().max().unwrap() as f64 / 200_000.0;
        let predicted = max_fraction(128);
        assert!(
            (max - predicted).abs() / predicted < 0.35,
            "measured {max} vs model {predicted}"
        );
    }

    #[test]
    fn droplets_relax_toward_carrier() {
        let mut cloud = SprayCloud::inject(5_000, 3);
        for v in &mut cloud.vel {
            *v = [0.0, 0.0, 0.0];
        }
        let fluid = |_x: [f64; 3]| [1.0, 0.0, 0.0];
        // Short horizon: droplets accelerate toward u_x = 1 before wall
        // reflections start flipping velocities.
        for _ in 0..10 {
            cloud.update(0.02, fluid);
        }
        let mean_vx: f64 = cloud.vel.iter().map(|v| v[0]).sum::<f64>() / cloud.vel.len() as f64;
        assert!((0.3..1.0).contains(&mean_vx), "mean v_x {mean_vx}");
    }

    #[test]
    fn droplets_stay_in_box_long_term() {
        let mut cloud = SprayCloud::inject(5_000, 3);
        let fluid = |_x: [f64; 3]| [1.0, 0.0, 0.0];
        for _ in 0..100 {
            cloud.update(0.02, fluid);
        }
        for x in &cloud.pos {
            assert!(x.iter().all(|&c| (0.0..=1.0).contains(&c)));
        }
    }

    #[test]
    fn injector_rank_holds_core() {
        let f = rank_fractions(1000);
        let core_rank = 150; // 0.15 × 1000
        assert!(
            f[core_rank] > 10.0 * f[0],
            "core {} vs dispersed {}",
            f[core_rank],
            f[0]
        );
    }
}
