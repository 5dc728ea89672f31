//! Property tests for the observability layer's span invariants.
//!
//! The recorder contract the exporters rely on:
//!
//! 1. **Well-formedness**: every recorded span has `end >= start`,
//!    `self_time` within its duration, and children strictly inside
//!    their parents (proper nesting per rank).
//! 2. **Determinism**: two runs of the same program under the same
//!    seeded `FaultPlan` — including plans that force drop-triggered
//!    retries — export byte-identical Chrome traces, flamegraphs and
//!    metrics snapshots, regardless of host scheduling.

use cpx_comm::{FaultPlan, RankCtx, ReduceOp, World};
use cpx_machine::Machine;
use cpx_obs::{chrome_trace_json, collapsed_stacks, metrics_json, TraceSession};
use proptest::prelude::*;

fn world() -> World {
    World::new(Machine::archer2())
}

/// A comm program with user spans nested two deep around p2p rings,
/// compute and collectives; `iters` scales the trace length.
fn traced_workout(iters: usize) -> impl Fn(&mut RankCtx) -> f64 + Send + Sync + 'static {
    move |ctx: &mut RankCtx| {
        let g = ctx.world();
        let (rank, size) = (ctx.rank(), ctx.size());
        let mut acc = rank as f64 + 1.0;
        for i in 0..iters {
            ctx.obs_begin("iter");
            ctx.obs_begin("halo");
            ctx.send((rank + 1) % size, 3, vec![acc; 16 + i]);
            let _ = ctx.recv((rank + size - 1) % size, 3);
            ctx.obs_end();
            ctx.obs_begin("work");
            ctx.compute_secs(1.5e-5 * (1 + i % 3) as f64);
            ctx.obs_end();
            acc = g.allreduce_scalar(ctx, ReduceOp::Sum, acc) / size as f64;
            ctx.obs_end();
        }
        g.barrier(ctx);
        acc
    }
}

/// Assert the structural span invariants on every lane of a session.
fn assert_well_formed(session: &TraceSession) {
    for lane in &session.lanes {
        for s in &lane.spans {
            assert!(s.end >= s.start, "negative duration: {s:?}");
            assert!(
                s.self_time >= 0.0 && s.self_time <= s.duration() + 1e-12,
                "self time out of range: {s:?}"
            );
            assert!(s.end <= lane.finish + 1e-12, "span past lane finish");
        }
        // Proper nesting: spans close in LIFO order, so walking the
        // close-ordered list with a stack of (start, end, depth) must
        // always place a child strictly inside its parent's window.
        // Reconstruct parents by depth: a span's parent is the next
        // span later in close order with a smaller depth.
        for (i, child) in lane.spans.iter().enumerate() {
            if child.depth == 0 {
                continue;
            }
            let parent = lane.spans[i + 1..]
                .iter()
                .find(|p| p.depth < child.depth)
                .unwrap_or_else(|| panic!("no parent for nested span {child:?}"));
            assert!(
                parent.start <= child.start + 1e-12 && child.end <= parent.end + 1e-12,
                "child {child:?} escapes parent {parent:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn spans_are_well_formed_on_clean_runs(n in 2usize..6, iters in 1usize..6) {
        let (runs, session) =
            world().run_with_plan_traced(n, FaultPlan::default(), traced_workout(iters));
        for run in &runs {
            prop_assert!(run.outcome.is_completed(), "{:?}", run.outcome);
        }
        assert_well_formed(&session);
        prop_assert!(session.total_spans() > 0);
        prop_assert_eq!(session.lanes.len(), n);
    }

    #[test]
    fn spans_are_well_formed_under_lossy_plans(
        n in 2usize..6,
        iters in 1usize..5,
        seed in 0u64..1_000_000,
        drop_pct in 1u32..25,
    ) {
        let plan = FaultPlan::new(seed).with_drop_prob(drop_pct as f64 / 100.0);
        let (_, session) = world().run_with_plan_traced(n, plan, traced_workout(iters));
        assert_well_formed(&session);
    }

    #[test]
    fn exports_are_byte_identical_across_same_seed_runs(
        n in 2usize..6,
        iters in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        // A drop rate high enough that retries are routinely exercised.
        let run = || {
            let plan = FaultPlan::new(seed).with_drop_prob(0.15);
            let (_, session) = world().run_with_plan_traced(n, plan, traced_workout(iters));
            (
                chrome_trace_json(&session),
                collapsed_stacks(&session),
                metrics_json(&session, &[]).write_pretty(),
            )
        };
        let (chrome_a, flame_a, metrics_a) = run();
        let (chrome_b, flame_b, metrics_b) = run();
        prop_assert_eq!(chrome_a, chrome_b);
        prop_assert_eq!(flame_a, flame_b);
        prop_assert_eq!(metrics_a, metrics_b);
    }
}

#[test]
fn retries_show_up_in_the_trace() {
    let plan = FaultPlan::new(7).with_drop_prob(0.2);
    let (_, session) = world().run_with_plan_traced(4, plan, traced_workout(6));
    assert!(session.counter("retries") > 0, "20% drops must retry");
}
