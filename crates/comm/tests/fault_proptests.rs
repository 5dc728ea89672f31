//! Property tests for the fault-injection layer.
//!
//! Two invariants the resilience design promises:
//!
//! 1. **Transparency**: under any seeded drop/duplicate/delay plan (with
//!    no crashes), every collective completes on every rank with results
//!    identical to the fault-free run — retries change timing, never
//!    values.
//! 2. **Determinism**: the same plan (same seed) yields bit-identical
//!    per-rank results *and* bit-identical `TimeReport`s across runs,
//!    regardless of host scheduling.

use cpx_comm::{FaultPlan, RankCtx, RankOutcome, ReduceOp, World};
use cpx_machine::Machine;
use proptest::prelude::*;

fn world() -> World {
    World::new(Machine::archer2())
}

/// A rank program exercising every retry-aware collective; returns a
/// flat value signature for comparison.
fn collective_workout(ctx: &mut RankCtx) -> Vec<f64> {
    let g = ctx.world();
    let me = ctx.rank() as f64;
    let mut sig = Vec::new();

    sig.push(g.allreduce_scalar(ctx, ReduceOp::Sum, me + 1.0));
    sig.push(g.allreduce_scalar(ctx, ReduceOp::Max, me));

    for part in g.allgather(ctx, vec![me, me * 2.0]) {
        sig.extend(part);
    }

    if let Some(parts) = g.gather(ctx, 0, vec![me; ctx.rank() + 1]) {
        for part in parts {
            sig.extend(part);
        }
    }

    g.barrier(ctx);
    sig
}

fn completed_values(runs: Vec<cpx_comm::RankRun<Vec<f64>>>) -> Vec<Vec<f64>> {
    runs.into_iter()
        .map(|r| match r.outcome {
            RankOutcome::Completed(v) => v,
            o => panic!("rank did not complete: {o:?}"),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn collectives_transparent_under_link_faults(
        n in 2usize..7,
        seed in 0u64..1_000_000,
        drop_p in 0.0f64..0.35,
        dup_p in 0.0f64..0.3,
        delay_p in 0.0f64..0.5,
    ) {
        let plan = FaultPlan::new(seed)
            .with_drop_prob(drop_p)
            .with_dup_prob(dup_p)
            .with_delay(delay_p, 3e-6);
        let faulty = completed_values(world().run_with_plan(n, plan, collective_workout));
        let clean: Vec<Vec<f64>> = world()
            .run(n, collective_workout)
            .into_iter()
            .map(|(v, _)| v)
            .collect();
        prop_assert_eq!(faulty, clean);
    }

    #[test]
    fn same_seed_bit_identical_reports(
        n in 2usize..6,
        seed in 0u64..1_000_000,
        drop_p in 0.0f64..0.3,
    ) {
        let run = || {
            let plan = FaultPlan::new(seed)
                .with_drop_prob(drop_p)
                .with_dup_prob(0.15)
                .with_delay(0.25, 2e-6);
            world().run_with_plan(n, plan, collective_workout)
        };
        let a = run();
        let b = run();
        for (ra, rb) in a.iter().zip(&b) {
            // TimeReport is Copy + PartialEq over f64 fields: equality
            // here is bitwise for finite values.
            prop_assert_eq!(ra.report, rb.report);
        }
        let va = completed_values(a);
        let vb = completed_values(b);
        for (x, y) in va.iter().flatten().zip(vb.iter().flatten()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

#[test]
fn crash_outcome_deterministic_across_runs() {
    let run = || {
        let plan = FaultPlan::new(77).with_crash(1, 2e-4).with_drop_prob(0.1);
        world().run_with_plan(4, plan, |ctx| {
            ctx.compute_secs(1e-4);
            let g = ctx.world();
            g.try_allreduce_scalar(ctx, ReduceOp::Sum, ctx.rank() as f64)
        })
    };
    let a = run();
    let b = run();
    for (ra, rb) in a.iter().zip(&b) {
        assert_eq!(ra.report, rb.report);
        match (&ra.outcome, &rb.outcome) {
            (RankOutcome::Completed(x), RankOutcome::Completed(y)) => assert_eq!(x, y),
            (RankOutcome::Crashed { at: x }, RankOutcome::Crashed { at: y }) => {
                assert_eq!(x.to_bits(), y.to_bits())
            }
            (RankOutcome::Failed(x), RankOutcome::Failed(y)) => assert_eq!(x, y),
            (x, y) => panic!("outcome kinds diverged: {x:?} vs {y:?}"),
        }
    }
}
