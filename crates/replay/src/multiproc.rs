//! The `multiproc_smoke` scenario: one seeded rank program that must
//! produce byte-identical artifacts whether the world runs in a single
//! process ([`cpx_comm::World::run_with_plan_logged`]) or split across
//! OS processes connected by TCP ([`cpx_comm::run_node_obs`]).
//!
//! The scenario definition lives here — label, seed, world shape, fault
//! plan, rank program and artifact rendering — so the golden corpus
//! (via [`crate::golden::generate`]), the in-process regression check
//! and the `multiproc_smoke` launcher binary all execute *exactly* the
//! same run. The launcher spawns one child process per node with a
//! `--current-node` selector, each child executes its ranks over the
//! TCP mesh and writes its trace fragment plus per-rank summaries to
//! disk, and the parent merges them in rank order and byte-compares
//! against both the committed corpus and a fresh in-process run.
//!
//! Everything crossing the process boundary that feeds the artifacts is
//! encoded exactly: `f64`s travel as raw bits, so the text round-trip
//! can never perturb a byte of the rendered report.

use cpx_comm::{FaultPlan, RankCtx, RankOutcome, RankRun, ReduceOp, TimeReport, World};
use cpx_machine::{KernelCost, Machine};

use crate::event::ReplayEvent;
use crate::format::Trace;
use crate::golden::{bench_json, GoldenArtifacts};

/// Scenario label (also the corpus directory name).
pub const LABEL: &str = "multiproc_smoke";

/// Seed for the scenario's per-message fault draws.
pub const SEED: u64 = 0x0DD5_EA5E;

/// World size.
pub const WORLD: usize = 8;

/// Number of OS processes ("nodes") in the distributed variant; ranks
/// are block-partitioned over them by [`cpx_comm::ClusterConfig::local`].
pub const NODES: usize = 2;

/// The machine model every variant runs against.
pub fn machine() -> Machine {
    Machine::archer2()
}

/// The seeded lossy fault plan: drops, duplicates and delays, all pure
/// functions of `(SEED, src, dst, seq)` so both backends draw the exact
/// same faults.
pub fn plan() -> FaultPlan {
    FaultPlan::new(SEED)
        .with_drop_prob(0.12)
        .with_dup_prob(0.08)
        .with_delay(0.25, 2e-6)
}

/// The rank program: staggered compute, a 5-round ring exchange (with
/// compute charged per received payload) and a closing allreduce. All
/// timing is virtual, so the value and the event lane of every rank are
/// pure functions of the plan.
pub fn program(ctx: &mut RankCtx) -> f64 {
    let me = ctx.rank();
    let n = ctx.size();
    ctx.compute(KernelCost::flops(4e7 * (me + 2) as f64));
    for round in 0..5u32 {
        ctx.send(
            (me + 1) % n,
            round,
            vec![(me * 10 + round as usize) as f64; 32],
        );
        let data = ctx.recv((me + n - 1) % n, round).into_f64();
        ctx.compute(KernelCost::flops(2e6 * data.len() as f64));
    }
    let g = ctx.world();
    g.allreduce_scalar(ctx, ReduceOp::Sum, (me + 1) as f64 * ctx.now())
}

/// One rank's results, as carried across the process boundary by the
/// multi-process launcher: the completed value plus the full
/// [`TimeReport`]. Encoded as one whitespace-separated line with every
/// `f64` as raw bits — decode(encode(x)) == x, bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct RankSummary {
    /// World rank.
    pub rank: usize,
    /// The rank program's return value.
    pub value: f64,
    /// Virtual-time accounting.
    pub report: TimeReport,
}

impl RankSummary {
    /// Extract the summary of a completed rank; panics if the rank did
    /// not complete (the smoke scenario is crash-free by construction).
    pub fn from_run(rank: usize, run: &RankRun<f64>) -> RankSummary {
        let value = match &run.outcome {
            RankOutcome::Completed(v) => *v,
            other => panic!("multiproc smoke rank {rank} did not complete: {other:?}"),
        };
        RankSummary {
            rank,
            value,
            report: run.report,
        }
    }

    /// Encode as one line of decimal integers (f64s as `to_bits`).
    pub fn encode(&self) -> String {
        let r = &self.report;
        format!(
            "{} {} {} {} {} {} {} {} {} {} {}",
            self.rank,
            self.value.to_bits(),
            r.elapsed.to_bits(),
            r.compute.to_bits(),
            r.comm.to_bits(),
            r.messages_sent,
            r.bytes_sent,
            r.retries,
            r.dropped_msgs,
            r.corrupted_msgs,
            r.recovery_time.to_bits(),
        )
    }

    /// Decode one [`RankSummary::encode`] line; `None` on any malformed
    /// token or field count.
    pub fn decode(line: &str) -> Option<RankSummary> {
        let mut it = line.split_whitespace();
        let mut next_u64 = || it.next()?.parse::<u64>().ok();
        let rank = next_u64()? as usize;
        let value = f64::from_bits(next_u64()?);
        let report = TimeReport {
            elapsed: f64::from_bits(next_u64()?),
            compute: f64::from_bits(next_u64()?),
            comm: f64::from_bits(next_u64()?),
            messages_sent: next_u64()?,
            bytes_sent: next_u64()?,
            retries: next_u64()?,
            dropped_msgs: next_u64()?,
            corrupted_msgs: next_u64()?,
            recovery_time: f64::from_bits(next_u64()?),
        };
        if it.next().is_some() {
            return None;
        }
        Some(RankSummary {
            rank,
            value,
            report,
        })
    }
}

/// Render the scenario artifacts from per-rank summaries (ascending
/// rank order) and the merged event stream (rank-order concatenation of
/// per-rank lanes — the same order both backends produce).
pub fn artifacts(summaries: &[RankSummary], events: Vec<ReplayEvent>) -> GoldenArtifacts {
    assert_eq!(summaries.len(), WORLD, "need one summary per rank");
    for (i, s) in summaries.iter().enumerate() {
        assert_eq!(s.rank, i, "summaries must be in ascending rank order");
    }
    let trace = Trace {
        label: LABEL.to_string(),
        seed: SEED,
        world_size: WORLD as u32,
        events,
    };
    let mut report = String::new();
    report.push_str("# Multi-process smoke exchange\n\n");
    report.push_str(&format!(
        "{WORLD} ranks over {NODES} nodes, ring exchange x5 + allreduce, seed {SEED:#x}, \
         drop 0.12 / dup 0.08 / delay 0.25 (2 us).\n\n\
         All timing is virtual: the in-process backend and the TCP\n\
         multi-process backend must regenerate these bytes identically.\n\n"
    ));
    report.push_str("| rank | virtual time (s) | sent (B) | retries | dropped | allreduce |\n");
    report.push_str("|-----:|-----------------:|---------:|--------:|--------:|----------:|\n");
    for s in summaries {
        report.push_str(&format!(
            "| {} | {:.9e} | {} | {} | {} | {:.6e} |\n",
            s.rank,
            s.report.elapsed,
            s.report.bytes_sent,
            s.report.retries,
            s.report.dropped_msgs,
            s.value
        ));
    }
    let bench = bench_json(LABEL, SEED, &trace, None);
    GoldenArtifacts {
        trace,
        report,
        bench,
    }
}

/// Run the scenario on the in-process backend and render its artifacts.
/// This is the canonical generator the golden corpus records.
pub fn run_inproc() -> GoldenArtifacts {
    let world = World::new(machine());
    let (runs, log) = world.run_with_plan_logged(WORLD, plan(), program);
    let summaries: Vec<RankSummary> = runs
        .iter()
        .enumerate()
        .map(|(r, run)| RankSummary::from_run(r, run))
        .collect();
    artifacts(&summaries, log.into_iter().map(ReplayEvent::from).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inproc_scenario_is_reproducible() {
        let a = run_inproc();
        let b = run_inproc();
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.report, b.report);
        assert_eq!(a.bench, b.bench);
        assert!(!a.trace.events.is_empty());
    }

    #[test]
    fn rank_summary_line_round_trips_exactly() {
        let s = RankSummary {
            rank: 5,
            value: -1.234567890123e-7,
            report: TimeReport {
                elapsed: 3.000000001e-3,
                compute: 1.5e-3,
                comm: 0.1234e-3,
                messages_sent: 42,
                bytes_sent: 16384,
                retries: 3,
                dropped_msgs: 2,
                corrupted_msgs: 0,
                recovery_time: 7.77e-6,
            },
        };
        let back = RankSummary::decode(&s.encode()).expect("round trip");
        assert_eq!(s, back);
        assert_eq!(s.value.to_bits(), back.value.to_bits());
        assert_eq!(s.report.elapsed.to_bits(), back.report.elapsed.to_bits());
    }

    #[test]
    fn malformed_summary_lines_rejected() {
        assert!(RankSummary::decode("").is_none());
        assert!(RankSummary::decode("1 2 3").is_none());
        assert!(RankSummary::decode("x y z a b c d e f g h").is_none());
        let ok = RankSummary {
            rank: 0,
            value: 0.0,
            report: TimeReport::default(),
        }
        .encode();
        assert!(RankSummary::decode(&format!("{ok} 99")).is_none());
    }
}
