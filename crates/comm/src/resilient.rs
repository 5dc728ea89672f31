//! Checkpoint/shrink resilient iteration driver.
//!
//! [`resilient_loop`] runs a fixed number of iterations of a
//! caller-supplied work function, with a world allreduce closing each
//! iteration, and survives rank failures by **shrinking**: when a
//! collective observes a failure, the survivors revoke the current
//! group, re-form without the dead, agree on a common rollback point,
//! and continue on the smaller world. The protocol below is the one
//! model-checked in [`crate::protocol`]; the inline comments name the
//! transitions of that model.
//!
//! # The recovery protocol
//!
//! Groups form a single **chain**: the world group, then one uniform
//! successor per recovery round. The linchpin is that a rank never
//! re-forms from its own *local* view of who is alive — local views
//! race (two survivors can observe the same failures in different
//! orders and would build different groups, then deadlock waiting on
//! each other's tag spaces). Instead every abandoned group runs one
//! crash-tolerant agreement (`Group::agree_shrink`, the analogue of
//! ULFM's `MPI_Comm_agree` + `MPI_Comm_shrink`) on the *revoked*
//! group's own reserved tags, and all survivors derive the successor
//! from the agreement's uniform outcome.
//!
//! 1. **Observe** — a collective fails with `PeerDead` (we saw the
//!    failure ourselves) or `Revoked` (the member we were blocked on
//!    saw one first and revoked the group, relaying the blame). Either
//!    way this group's tag space is dead.
//! 2. **Revoke** — before abandoning a group, a rank *always* revokes
//!    it in its own name. A member still blocked on a message from us
//!    in some collective of that group — even one *later* than the one
//!    that failed, where per-collective abort markers cannot reach it
//!    — observes the revocation in bounded time and recovers too. No
//!    rank commits to a shrunk world while another can still wait
//!    forever on the old one (the model's invariant I1). Revocations
//!    are per-revoker and a waiter checks only the rank it is blocked
//!    on: like dead and done marks, a rank's revocation is ordered
//!    after its last send on the group, so receive-or-error stays
//!    deterministic.
//! 3. **Agree and shrink** — every member that abandons the group
//!    joins the flooding agreement on the revoked group's tags,
//!    contributing its newest checkpoint iteration. The outcome —
//!    contributor set and minimum checkpoint — is uniform across all
//!    survivors (see `Group::agree_shrink` for the argument), and
//!    every live member joins in bounded time (it is unblocked by a
//!    participant's revocation, and participants wait for it: they
//!    give up on a member only on its truthful dead or done mark). The
//!    successor group is built from the contributor set with a label
//!    derived from the revoked group's signature, so all survivors
//!    land in the identical group and chain signatures never collide.
//! 4. **Roll back** — members may have progressed unevenly (one
//!    completed iteration `i` and checkpointed while another failed
//!    inside it), so everyone rolls back to the agreed minimum — which
//!    may predate their own newest checkpoint. Checkpoints *beyond*
//!    the agreed point are discarded: they describe a world that no
//!    longer exists, and recomputation on the shrunk group produces
//!    different (still rank-agreed) values. A rank that already
//!    finished all iterations holds a final checkpoint at `iters`, so
//!    a fence-side failure feeds the same agreement: if every
//!    contributor finished, the agreed minimum is `iters` and nobody
//!    redoes work; otherwise the finished ranks roll back and rejoin
//!    the iteration loop.
//! 5. **Terminate** — after its last iteration a rank runs a barrier
//!    on the current group and, on success, marks itself *done*
//!    (ordered after its sends) and exits. If the barrier surfaces
//!    `RankDone`, a member already passed a fence: that rank's barrier
//!    subsumed contributions from every live member, so all of them
//!    reached the fence with all iterations complete and none still
//!    needs our data — exiting Done is safe (the model's invariant
//!    I3). Any other fence failure recovers as in steps 1–4 (a done
//!    peer discovered *during* the agreement is excluded from the
//!    successor like a dead one, without being counted a fault) and
//!    loops: survivors re-agree at `iters` and re-fence on the shrunk
//!    group.
//!
//! A rank that dies *during* an agreement can linger in the successor
//! group; the next collective on that group then fails immediately and
//! the following recovery round — with every survivor watching —
//! prunes it. Faults are therefore counted per agreement as "members
//! of the abandoned group that neither contributed nor completed",
//! which is uniform across survivors and sums to the distinct dead.

use std::collections::BTreeSet;
use std::panic;

use cpx_obs::RecoveryKind;

use crate::fault::CommError;
use crate::group::Group;
use crate::runtime::RankCtx;
use crate::ReduceOp;

/// Label seed for recovery-group signatures.
const RESILIENT_LABEL: u64 = 0x5E51_1E27_C0DE_0000;

/// Shape of a resilient run.
#[derive(Debug, Clone, Copy)]
pub struct ResilientConfig {
    /// Iterations to complete.
    pub iters: usize,
    /// Checkpoint cadence (every `ckpt_every` completed iterations).
    pub ckpt_every: usize,
    /// Bound on recovery rounds (group re-formations); exceeding it
    /// means the fault environment is pathological and the rank aborts.
    pub max_recoveries: usize,
}

impl ResilientConfig {
    /// `iters` iterations checkpointing every `ckpt_every`.
    pub fn new(iters: usize, ckpt_every: usize) -> ResilientConfig {
        assert!(ckpt_every >= 1, "checkpoint cadence must be >= 1");
        ResilientConfig {
            iters,
            ckpt_every,
            max_recoveries: 64,
        }
    }
}

/// What one rank survived and produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientReport {
    /// This rank.
    pub rank: usize,
    /// Iterations completed (== config's `iters` on success).
    pub completed_iters: usize,
    /// Distinct ranks this rank observed dead over the whole run.
    pub faults_survived: usize,
    /// Recovery rounds (group re-formations, including fence retries).
    pub rollbacks: usize,
    /// Members of the group this rank finished in.
    pub final_group_size: usize,
    /// Accumulated allreduce result over all completed iterations.
    pub value: f64,
}

/// Mutable protocol state shared by the main loop and recovery.
struct Protocol {
    me: usize,
    members: Vec<usize>,
    group: Group,
    /// `(completed-iterations, accumulated value)`, ascending; always
    /// starts with `(0, 0.0)` and is truncated to the agreed point on
    /// every rollback.
    checkpoints: Vec<(usize, f64)>,
    faults: BTreeSet<usize>,
    rollbacks: usize,
}

/// Run `cfg.iters` iterations of `work` under the shrink-recovery
/// protocol. `work(ctx, iter)` charges its own virtual compute and
/// returns this rank's contribution; each iteration closes with a
/// group-wide allreduce-Sum of the contributions, accumulated into the
/// report's `value`.
///
/// Unrecoverable situations (recovery bound exhausted) panic with the
/// final [`CommError`] as payload, surfacing as
/// [`crate::RankOutcome::Failed`] under
/// [`crate::World::run_with_plan`] and the cluster driver alike.
pub fn resilient_loop<W>(ctx: &mut RankCtx, cfg: &ResilientConfig, work: W) -> ResilientReport
where
    W: Fn(&mut RankCtx, usize) -> f64,
{
    let me = ctx.rank();
    let members: Vec<usize> = (0..ctx.size()).collect();
    let group = Group::from_ranks(RESILIENT_LABEL, members.clone(), me);
    let mut p = Protocol {
        me,
        members,
        group,
        checkpoints: vec![(0, 0.0)],
        faults: BTreeSet::new(),
        rollbacks: 0,
    };
    let mut iter = 0usize;
    let mut value = 0.0f64;

    loop {
        // Iteration loop (model phases `Work`/`Coll`).
        while iter < cfg.iters {
            let mine = work(ctx, iter);
            match p.group.try_allreduce_scalar(ctx, ReduceOp::Sum, mine) {
                Ok(sum) => {
                    value += sum;
                    iter += 1;
                    if iter.is_multiple_of(cfg.ckpt_every) || iter == cfg.iters {
                        p.checkpoints.push((iter, value));
                    }
                }
                Err(e) => {
                    let (ri, rv) = recover(ctx, cfg, &mut p, e);
                    iter = ri;
                    value = rv;
                }
            }
        }
        // Termination fence (model phase `Fence`).
        match p.group.try_barrier(ctx) {
            Ok(()) => break,
            Err(e) => {
                // Done-override: a done peer proves every live member
                // reached the fence with all iterations complete, so
                // exiting now is safe (and we are at the fence, so our
                // own iterations are complete too).
                if matches!(e, CommError::RankDone { .. }) {
                    break;
                }
                let (ri, rv) = recover(ctx, cfg, &mut p, e);
                iter = ri;
                value = rv;
                // If the agreed point predates the end, the outer loop
                // re-enters the iteration loop; otherwise it retries
                // the fence on the re-formed group.
            }
        }
    }
    // Ordered after every send this rank made in the fence, so a peer
    // that observes the mark and drains sees our full contribution.
    ctx.mark_self_done();

    ResilientReport {
        rank: me,
        completed_iters: iter,
        faults_survived: p.faults.len(),
        rollbacks: p.rollbacks,
        final_group_size: p.members.len(),
        value,
    }
}

/// The failure a collective error names, for revocation gossip; errors
/// without a site (retry exhaustion, timeout) blame the observer, as
/// `abort_collective` does.
fn failure_site(ctx: &RankCtx, me: usize, e: &CommError) -> (usize, f64) {
    match e {
        CommError::PeerDead { peer, at } | CommError::Revoked { peer, at } => (*peer, *at),
        _ => (me, ctx.now()),
    }
}

/// One recovery round: revoke the failed group, run the shrink
/// agreement on its tags, and rebuild protocol state from the uniform
/// outcome (model transitions `observe-failure` and `rollback`).
/// Returns the agreed `(iteration, value)` to resume from and
/// truncates the checkpoint list to the agreed point. A failure that
/// lands *after* the agreement (e.g. a contributor died mid-agreement
/// and lingers in the successor group) surfaces on the successor's
/// first collective and re-enters here.
fn recover(
    ctx: &mut RankCtx,
    cfg: &ResilientConfig,
    p: &mut Protocol,
    error: CommError,
) -> (usize, f64) {
    // Revoke before abandoning: stragglers blocked anywhere in this
    // group's tag space observe the revocation in bounded time
    // (invariant I1 — no unrevoked abandonment).
    let (peer, at) = failure_site(ctx, p.me, &error);
    ctx.revoke_group(p.group.sig(), peer, at);
    ctx.obs_recovery(RecoveryKind::Revoke {
        sig: p.group.sig(),
        peer,
    });
    p.rollbacks += 1;
    if p.rollbacks > cfg.max_recoveries {
        panic::panic_any(error);
    }

    let newest = p.checkpoints.last().map(|&(i, _)| i).unwrap_or(0);
    let outcome = p.group.agree_shrink(ctx, newest as u64);

    // Members that neither contributed nor completed are the dead this
    // agreement shrank past — the same set on every survivor.
    for &m in p.group.members() {
        if !outcome.survivors.contains(&m) && !outcome.done.contains(&m) {
            p.faults.insert(m);
        }
    }
    p.members = outcome.survivors;
    // Label chaining off the revoked signature gives every survivor the
    // identical successor group with a chain-unique tag space.
    p.group = Group::from_ranks(p.group.sig() ^ RESILIENT_LABEL, p.members.clone(), p.me);
    ctx.obs_recovery(RecoveryKind::Shrink {
        sig: p.group.sig(),
        survivors: p.members.len(),
        min_ckpt: outcome.min_ckpt,
    });

    let agreed = outcome.min_ckpt as usize;
    // Later checkpoints describe the pre-shrink world; recomputation on
    // the new group replaces them.
    p.checkpoints.retain(|&(i, _)| i <= agreed);
    let &(it, val) = p
        .checkpoints
        .last()
        .expect("base checkpoint (0, 0.0) is never truncated");
    debug_assert_eq!(
        it, agreed,
        "every member checkpoints at the agreed iteration"
    );
    ctx.obs_recovery(RecoveryKind::Rollback { to_iter: it as u64 });
    (it, val)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::runtime::{RankOutcome, World};
    use cpx_machine::{KernelCost, Machine};

    fn run_resilient(
        n: usize,
        plan: FaultPlan,
        cfg: ResilientConfig,
    ) -> Vec<crate::RankRun<ResilientReport>> {
        World::new(Machine::archer2()).run_with_plan(n, plan, move |ctx| {
            resilient_loop(ctx, &cfg, |ctx, iter| {
                ctx.compute(KernelCost::flops(1e7));
                (ctx.rank() + iter) as f64
            })
        })
    }

    fn completed(run: &crate::RankRun<ResilientReport>) -> &ResilientReport {
        match &run.outcome {
            RankOutcome::Completed(r) => r,
            o => panic!("expected completion, got {o:?}"),
        }
    }

    #[test]
    fn clean_run_completes_all_iterations() {
        let runs = run_resilient(4, FaultPlan::new(1), ResilientConfig::new(10, 2));
        for run in &runs {
            let r = completed(run);
            assert_eq!(r.completed_iters, 10);
            assert_eq!(r.faults_survived, 0);
            assert_eq!(r.rollbacks, 0);
            assert_eq!(r.final_group_size, 4);
        }
        // All ranks agree on the accumulated value, bit for bit.
        let vals: Vec<u64> = runs.iter().map(|r| completed(r).value.to_bits()).collect();
        assert!(vals.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn crash_mid_run_shrinks_and_completes() {
        // Rank 2 dies early; survivors must finish all iterations in a
        // 3-rank world and agree on the result.
        let plan = FaultPlan::new(7).with_crash(2, 0.002);
        let runs = run_resilient(4, plan, ResilientConfig::new(12, 3));
        let mut survivors = 0;
        let mut vals = Vec::new();
        for (rank, run) in runs.iter().enumerate() {
            match &run.outcome {
                RankOutcome::Completed(r) => {
                    survivors += 1;
                    assert_eq!(r.completed_iters, 12, "rank {rank}");
                    assert_eq!(r.faults_survived, 1, "rank {rank}");
                    assert!(r.rollbacks >= 1, "rank {rank}");
                    assert_eq!(r.final_group_size, 3, "rank {rank}");
                    vals.push(r.value.to_bits());
                }
                RankOutcome::Crashed { .. } => assert_eq!(rank, 2),
                o => panic!("rank {rank}: unexpected outcome {o:?}"),
            }
        }
        assert_eq!(survivors, 3);
        assert!(vals.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn two_crashes_survived() {
        let plan = FaultPlan::new(9).with_crash(1, 0.001).with_crash(3, 0.004);
        let runs = run_resilient(5, plan, ResilientConfig::new(10, 2));
        for (rank, run) in runs.iter().enumerate() {
            match &run.outcome {
                RankOutcome::Completed(r) => {
                    assert_eq!(r.completed_iters, 10, "rank {rank}");
                    assert_eq!(r.faults_survived, 2, "rank {rank}");
                    assert_eq!(r.final_group_size, 3, "rank {rank}");
                }
                RankOutcome::Crashed { .. } => assert!(rank == 1 || rank == 3),
                o => panic!("rank {rank}: unexpected outcome {o:?}"),
            }
        }
    }

    #[test]
    fn lossy_links_do_not_derail_recovery() {
        let plan = FaultPlan::new(21)
            .with_drop_prob(0.1)
            .with_dup_prob(0.05)
            .with_crash(0, 0.003);
        let runs = run_resilient(4, plan, ResilientConfig::new(8, 2));
        for (rank, run) in runs.iter().enumerate() {
            match &run.outcome {
                RankOutcome::Completed(r) => {
                    assert_eq!(r.completed_iters, 8, "rank {rank}");
                    assert_eq!(r.faults_survived, 1, "rank {rank}");
                }
                RankOutcome::Crashed { .. } => assert_eq!(rank, 0),
                o => panic!("rank {rank}: unexpected outcome {o:?}"),
            }
        }
    }

    #[test]
    fn resilient_runs_are_deterministic() {
        let run = || {
            let plan = FaultPlan::new(13).with_crash(1, 0.002).with_drop_prob(0.05);
            run_resilient(4, plan, ResilientConfig::new(9, 3))
        };
        let a = run();
        let b = run();
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.report, rb.report);
            match (&ra.outcome, &rb.outcome) {
                (RankOutcome::Completed(x), RankOutcome::Completed(y)) => {
                    assert_eq!(x, y);
                    assert_eq!(x.value.to_bits(), y.value.to_bits());
                }
                (RankOutcome::Crashed { at: x }, RankOutcome::Crashed { at: y }) => {
                    assert_eq!(x, y)
                }
                (x, y) => panic!("outcome mismatch: {x:?} vs {y:?}"),
            }
        }
    }

    #[test]
    fn single_rank_world_is_trivially_resilient() {
        let runs = run_resilient(1, FaultPlan::new(3), ResilientConfig::new(5, 1));
        let r = completed(&runs[0]);
        assert_eq!(r.completed_iters, 5);
        assert_eq!(r.final_group_size, 1);
    }

    #[test]
    fn late_crash_near_fence_still_terminates() {
        // A crash timed late in the run exercises the fence-side
        // recovery path (finished ranks agree at `iters`, or roll back
        // with stragglers and rejoin the iteration loop).
        for seed in [5u64, 11, 17] {
            let plan = FaultPlan::new(seed).with_crash(2, 0.02);
            let runs = run_resilient(4, plan, ResilientConfig::new(6, 2));
            for (rank, run) in runs.iter().enumerate() {
                match &run.outcome {
                    RankOutcome::Completed(r) => {
                        assert_eq!(r.completed_iters, 6, "seed {seed} rank {rank}")
                    }
                    RankOutcome::Crashed { .. } => assert_eq!(rank, 2, "seed {seed}"),
                    o => panic!("seed {seed} rank {rank}: unexpected outcome {o:?}"),
                }
            }
        }
    }
}
