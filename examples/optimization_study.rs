//! The §IV optimization study, run on real kernels: compare the SpGEMM
//! variants, the smoother choices, the prolongator kinds and the donor
//! search algorithms that the paper's pressure-field and coupling
//! optimizations are built from — and then show their modelled effect on
//! the pressure solver's scaling (Fig 6a).
//!
//! ```text
//! cargo run --release --example optimization_study
//! ```

use std::f64::consts::TAU;
use std::time::{Duration, Instant};

use cpx_amg::{
    pcg, CgConfig, CycleType, Hierarchy, HierarchyConfig, InterpKind, Preconditioner, Smoother,
};
use cpx_coupler::search::{BruteSearch, KdTree2, PrefetchSearch};
use cpx_machine::Machine;
use cpx_pressure::{PressureConfig, PressureTraceModel};
use cpx_sparse::spgemm::{spgemm_hash, spgemm_spa, spgemm_twopass};
use cpx_sparse::Csr;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn main() {
    println!("=== SpGEMM variants (A·A, 2-D Poisson 128x128) ===");
    let a = Csr::poisson2d(128, 128);
    for (name, f) in [
        (
            "two-pass (baseline)",
            (|a: &Csr| spgemm_twopass(a, a)) as fn(&Csr) -> _,
        ),
        ("SPA single-pass", |a: &Csr| spgemm_spa(a, a, 8)),
        ("hash accumulation", |a: &Csr| spgemm_hash(a, a)),
    ] {
        let t0 = Instant::now();
        let out = f(&a);
        println!(
            "  {name:<22} {:>8.2?}  (passes over inputs: {}, modelled bytes {:.1}M)",
            t0.elapsed(),
            out.stats.input_passes,
            out.stats.bytes() / 1e6
        );
    }

    println!("\n=== AMG-PCG on 3-D Poisson 24^3: smoother x interpolation ===");
    let a3 = Csr::poisson3d(24, 24, 24);
    let n = a3.nrows();
    let x_exact: Vec<f64> = (0..n).map(|i| ((i * 17 % 23) as f64) / 23.0).collect();
    let mut b = vec![0.0; n];
    a3.spmv(&x_exact, &mut b);
    for (sname, smoother) in [
        ("Jacobi", Smoother::Jacobi { omega: 0.8 }),
        (
            "hybrid GS (paper)",
            Smoother::HybridGaussSeidel { blocks: 8 },
        ),
    ] {
        for (iname, interp) in [
            ("smoothed", InterpKind::Smoothed { omega: 0.66 }),
            ("extended+i (paper)", InterpKind::ExtendedI { omega: 0.66 }),
        ] {
            let h = Hierarchy::build(
                a3.clone(),
                HierarchyConfig {
                    smoother,
                    interp,
                    ..HierarchyConfig::default()
                },
            );
            let mut x = vec![0.0; n];
            let out = pcg(
                &a3,
                &b,
                &mut x,
                &Preconditioner::Amg {
                    hierarchy: &h,
                    cycle: CycleType::V,
                },
                CgConfig::default(),
            );
            println!(
                "  {sname:<18} + {iname:<18} -> {:>3} iterations (setup {:.1}M flops)",
                out.iters,
                h.setup_stats().flops / 1e6
            );
        }
    }

    println!("\n=== Donor search (20k donors, 5k queries) ===");
    let mut rng = StdRng::seed_from_u64(7);
    let donors: Vec<[f64; 2]> = (0..20_000)
        .map(|_| [rng.gen_range(1.0..2.0), rng.gen_range(0.0..TAU)])
        .collect();
    let queries: Vec<[f64; 2]> = (0..5_000)
        .map(|_| [rng.gen_range(1.0..2.0), rng.gen_range(0.0..TAU)])
        .collect();
    let t0 = Instant::now();
    let brute = BruteSearch::new(donors.clone(), None).map_all(&queries);
    let t_brute = t0.elapsed();
    let t0 = Instant::now();
    let tree = KdTree2::build(&donors, None);
    let tree_map = tree.map_all(&queries);
    let t_tree = t0.elapsed();
    // Ties may pick another donor, never a farther one.
    let dist2 = |q: [f64; 2], d: usize| {
        let (dr, dt) = (q[0] - donors[d][0], q[1] - donors[d][1]);
        dr * dr + dt * dt
    };
    for ((&q, &b), &t) in queries.iter().zip(&brute).zip(&tree_map) {
        assert_eq!(dist2(q, t), dist2(q, b), "query {q:?}: tree {t}, brute {b}");
    }
    println!("  brute force: {t_brute:>10.2?}");
    println!(
        "  k-d tree:    {t_tree:>10.2?}  ({:.0}x faster)",
        t_brute.as_secs_f64() / t_tree.as_secs_f64()
    );

    // One revolution of a sliding plane in 96 steps: each prefetch step
    // is seeded with the last and must return the tree's own ids.
    let steps = 96;
    let periodic = KdTree2::build(&donors, Some(TAU));
    let mut prefetch = PrefetchSearch::new(&donors, TAU);
    let mut turning = queries.clone();
    let (mut t_tree, mut t_prefetch) = (Duration::ZERO, Duration::ZERO);
    for _ in 0..steps {
        for q in &mut turning {
            q[1] = (q[1] - TAU / steps as f64).rem_euclid(TAU);
        }
        let t0 = Instant::now();
        let want = periodic.map_all(&turning);
        t_tree += t0.elapsed();
        let t0 = Instant::now();
        let got = prefetch.step_map(&turning);
        t_prefetch += t0.elapsed();
        assert_eq!(
            got,
            &want[..],
            "prefetch and tree must pick the same donors"
        );
    }
    println!("  {steps} steps of a turn, periodic k-d tree: {t_tree:>10.2?}");
    println!(
        "  {steps} steps of a turn, prefetch:          {t_prefetch:>10.2?}  (last step's donor still nearest for {} of {} targets)",
        prefetch.searches_saved, prefetch.searches_done
    );

    println!("\n=== Modelled effect on the pressure solver (Fig 6a) ===");
    let machine = Machine::archer2();
    let base = PressureTraceModel::new(PressureConfig::swirl_28m());
    let opt = PressureTraceModel::new(PressureConfig::swirl_28m().optimized());
    println!(
        "  {:>8} {:>12} {:>12} {:>9}",
        "ranks", "base t/step", "opt t/step", "speedup"
    );
    for p in [512usize, 1024, 2048, 4096] {
        let tb = base.per_step_runtime(p, &machine);
        let to = opt.per_step_runtime(p, &machine);
        println!("  {p:>8} {tb:>11.2}s {to:>11.2}s {:>8.1}x", tb / to);
    }
}
