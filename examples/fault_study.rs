//! Fault-injection study for the resilience layer: what does a rank
//! failure cost a coupled run, as a function of *when* it lands and
//! *which* instance it hits?
//!
//! Part 1 exercises the comm-level fault plan directly — seeded message
//! drops, duplicates and a scheduled rank crash on the threaded virtual
//! MPI runtime. Part 2 sweeps a crash over the coupled small case and
//! prints the predicted recovery overhead of checkpoint/rollback/shrink
//! recovery, plus the checkpoint-interval trade-off.
//!
//! ```text
//! cargo run --release --example fault_study [budget] \
//!     [--seed <u64>] [--record <path>] [--replay <path>]
//! ```
//!
//! `--seed` perturbs every seeded fault draw (added to the built-in
//! plan seeds; the default 0 reproduces the stock study). `--record`
//! saves the full nondeterminism log — comm events from part 1 and
//! resilience decisions from part 2 — as a `cpx-replay` trace;
//! `--replay` re-drives the study against a saved trace and exits
//! nonzero on the first diverging event.

mod common;

use cpx_comm::{FaultPlan, RankOutcome, ReduceOp, World};
use cpx_core::prelude::*;
use cpx_replay::ReplayEvent;

fn main() {
    let args = common::parse_args("fault_study");
    let budget = args.budget;
    let machine = Machine::archer2();
    let mut events: Vec<ReplayEvent> = Vec::new();

    // ---- Part 1: the virtual MPI runtime under a fault plan --------
    println!("=== comm layer: 8-rank allreduce under 20% message drop ===");
    let plan = FaultPlan::new(9u64.wrapping_add(args.seed))
        .with_drop_prob(0.20)
        .with_dup_prob(0.05);
    let (runs, log) = World::new(machine.clone()).run_with_plan_logged(8, plan, |ctx| {
        let g = ctx.world();
        g.allreduce_scalar(ctx, ReduceOp::Sum, ctx.rank() as f64 + 1.0)
    });
    events.extend(log.into_iter().map(ReplayEvent::from));
    for (r, run) in runs.iter().enumerate() {
        if let RankOutcome::Completed(v) = &run.outcome {
            println!(
                "rank {r}: sum={v:.0} retries={} dropped={} recovery={:.1}us",
                run.report.retries,
                run.report.dropped_msgs,
                run.report.recovery_time * 1e6
            );
        }
    }

    println!("\n=== comm layer: rank 2 crashes mid-collective ===");
    let plan = FaultPlan::new(7u64.wrapping_add(args.seed)).with_crash(2, 5e-5);
    let (runs, log) = World::new(machine.clone()).run_with_plan_logged(4, plan, |ctx| {
        ctx.compute_secs(1e-4);
        let g = ctx.world();
        g.try_allreduce_scalar(ctx, ReduceOp::Sum, 1.0)
    });
    events.extend(log.into_iter().map(ReplayEvent::from));
    for (r, run) in runs.iter().enumerate() {
        match &run.outcome {
            RankOutcome::Crashed { at } => println!("rank {r}: crashed at t={at:.1e}s"),
            RankOutcome::Completed(Err(e)) => println!("rank {r}: survived, observed {e}"),
            RankOutcome::Completed(Ok(v)) => println!("rank {r}: completed, sum={v}"),
            o => println!("rank {r}: {o:?}"),
        }
    }

    // ---- Part 2: coupled-run recovery sweep ------------------------
    let scenario = testcases::small_150m_28m(StcVariant::Base);
    let models = model::build_models_with_grid(&scenario, &machine, 100.0, &[100, 400, 1600, 6400]);
    let alloc = model::allocate_scenario(&models, budget);
    let clean = sim::run_coupled_with(&scenario, &alloc, &machine, 20, None);
    println!(
        "\n=== coupled recovery: {} on {} ranks, clean runtime {:.1}s ===",
        scenario.name,
        alloc.total_ranks(),
        clean.total_runtime
    );
    println!("checkpoints every 10 density iterations; crash loses one rank\n");

    println!(
        "{:>8} {:>18} {:>8} {:>12} {:>11} {:>9}",
        "crash@", "instance", "ranks", "overhead(s)", "overhead(%)", "ckpt(s)"
    );
    for (app, inst) in scenario.apps.iter().enumerate() {
        for frac in [0.25, 0.5, 0.75] {
            let faulty = scenario.clone().with_fault(
                FaultScenario::crash(app, clean.total_runtime * frac).with_checkpoint_interval(10),
            );
            let run = sim::run_coupled_with(&faulty, &alloc, &machine, 20, None);
            events.extend(run.resilience.iter().copied().map(ReplayEvent::from));
            println!(
                "{:>7.0}% {:>18} {:>8} {:>12.1} {:>10.1}% {:>9.1}",
                frac * 100.0,
                inst.name,
                alloc.app_ranks[app],
                run.recovery_overhead,
                run.recovery_overhead / run.total_runtime * 100.0,
                run.checkpoint_cost
            );
        }
    }

    println!("\n--- checkpoint-interval trade-off (crash at 50%, instance 1) ---");
    println!(
        "{:>6} {:>12} {:>12} {:>12}",
        "K", "ckpt(s)", "overhead(s)", "total(s)"
    );
    for k in [5u64, 10, 20, 50] {
        let faulty = scenario.clone().with_fault(
            FaultScenario::crash(0, clean.total_runtime * 0.5).with_checkpoint_interval(k),
        );
        let run = sim::run_coupled_with(&faulty, &alloc, &machine, 20, None);
        events.extend(run.resilience.iter().copied().map(ReplayEvent::from));
        println!(
            "{k:>6} {:>12.1} {:>12.1} {:>12.1}",
            run.checkpoint_cost, run.recovery_overhead, run.total_runtime
        );
    }

    println!("\n--- dropped CU exchanges: stale-data fallback ---");
    let faulty = scenario.clone().with_fault(
        FaultScenario::crash(0, clean.total_runtime * 10.0) // no crash
            .with_dropped_exchanges(vec![0, 7, 20]),
    );
    let run = sim::run_coupled_with(&faulty, &alloc, &machine, 20, None);
    events.extend(run.resilience.iter().copied().map(ReplayEvent::from));
    println!(
        "{} exchanges fell back to the last-good mapping; overhead {:.1}s",
        run.stale_exchanges, run.recovery_overhead
    );

    common::finish_record_replay("fault_study", &args, 8, events);
}
