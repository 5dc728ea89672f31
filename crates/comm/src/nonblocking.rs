//! Nonblocking point-to-point operations.
//!
//! Production halo exchanges post all receives, send, then overlap
//! compute with the wait — `MPI_Isend`/`MPI_Irecv`/`MPI_Waitall`. The
//! virtual-time semantics: an isend is charged its software overhead at
//! post time (as the eager blocking send is); an irecv *reserves* a
//! match slot and its wait advances the clock to the matched message's
//! arrival — so compute performed between post and wait genuinely
//! overlaps communication in virtual time, exactly as on a real
//! machine.
//!
//! Under a fault plan the same contract holds as for blocking calls:
//! `isend` retries fault-injected drops internally, and a wait on a
//! request whose sender crashed observes the failure. The fallible
//! variant [`RecvRequest::try_wait`] surfaces the [`CommError`] instead
//! of panicking.

use crate::fault::CommError;
use crate::payload::Payload;
use crate::runtime::RankCtx;

/// A pending receive handle.
#[derive(Debug)]
pub struct RecvRequest {
    src: usize,
    tag: u32,
    /// Matched payload, if the wait already happened internally.
    done: Option<Payload>,
}

/// Post a nonblocking receive. The message is matched (FIFO per
/// `(src, tag)`) when [`RecvRequest::wait`] is called; any compute
/// charged in between overlaps the transfer.
pub fn irecv(_ctx: &mut RankCtx, src: usize, tag: u32) -> RecvRequest {
    RecvRequest {
        src,
        tag,
        done: None,
    }
}

impl RecvRequest {
    /// Complete the receive, advancing the virtual clock to
    /// `max(now, arrival)`.
    pub fn wait(mut self, ctx: &mut RankCtx) -> Payload {
        match self.done.take() {
            Some(p) => p,
            None => ctx.recv(self.src, self.tag),
        }
    }

    /// Fallible wait: like [`RecvRequest::wait`] but reports a dead
    /// sender as `Err(CommError::PeerDead)` instead of panicking.
    pub fn try_wait(mut self, ctx: &mut RankCtx) -> Result<Payload, CommError> {
        match self.done.take() {
            Some(p) => Ok(p),
            None => ctx.try_recv_from(self.src, self.tag),
        }
    }

    /// The `(src, tag)` this request matches.
    pub fn matches(&self) -> (usize, u32) {
        (self.src, self.tag)
    }
}

/// Post a nonblocking send. Sends in this runtime are eager, so the
/// payload departs immediately; the returned unit is for symmetry with
/// MPI code structure.
pub fn isend(ctx: &mut RankCtx, dst: usize, tag: u32, payload: impl Into<Payload>) {
    ctx.send(dst, tag, payload);
}

/// Wait on a set of receive requests, returning payloads in posting
/// order (`MPI_Waitall`).
pub fn wait_all(ctx: &mut RankCtx, requests: Vec<RecvRequest>) -> Vec<Payload> {
    requests.into_iter().map(|r| r.wait(ctx)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::World;
    use cpx_machine::{KernelCost, Machine};

    fn world() -> World {
        World::new(Machine::archer2())
    }

    #[test]
    fn overlap_hides_transfer_time() {
        // Rank 0 sends a large message; rank 1 posts the irecv, does a
        // long compute, then waits — the wait should cost ~nothing
        // because the transfer happened "during" the compute.
        let res = world().run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 0, vec![0.0f64; 1 << 18]); // 2 MiB
                0.0
            } else {
                let req = irecv(ctx, 0, 0);
                let before_compute = ctx.now();
                ctx.compute(KernelCost::flops(2.2e9)); // 1 virtual second
                let before_wait = ctx.now();
                let _ = req.wait(ctx);
                let wait_cost = ctx.now() - before_wait;
                // The 2 MiB transfer takes ~1.4 ms on the intra-node
                // link — far less than the 1 s compute, so fully hidden.
                assert!(wait_cost < 1e-3, "wait cost {wait_cost}");
                before_compute
            }
        });
        let _ = res;
    }

    #[test]
    fn blocking_receive_pays_the_transfer() {
        // Same exchange without overlap: the receiver pays the wait.
        let res = world().run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.compute(KernelCost::flops(2.2e9)); // sender busy 1 s
                ctx.send(1, 0, vec![0.0f64; 1 << 18]);
                0.0
            } else {
                let t0 = ctx.now();
                let _ = ctx.recv(0, 0);
                ctx.now() - t0
            }
        });
        assert!(res[1].0 > 0.9, "blocking wait {}", res[1].0);
    }

    #[test]
    fn wait_all_preserves_order() {
        let res = world().run(3, |ctx| match ctx.rank() {
            0 => {
                isend(ctx, 2, 1, vec![10.0f64]);
                Vec::new()
            }
            1 => {
                isend(ctx, 2, 2, vec![20.0f64]);
                Vec::new()
            }
            _ => {
                let r1 = irecv(ctx, 0, 1);
                let r2 = irecv(ctx, 1, 2);
                wait_all(ctx, vec![r1, r2])
                    .into_iter()
                    .map(|p| p.into_f64()[0])
                    .collect()
            }
        });
        assert_eq!(res[2].0, vec![10.0, 20.0]);
    }

    #[test]
    fn try_wait_detects_dead_sender() {
        use crate::fault::FaultPlan;
        let plan = FaultPlan::new(31).with_crash(0, 0.0);
        let runs = world().run_with_plan(2, plan, |ctx| {
            if ctx.rank() == 0 {
                ctx.compute_secs(1.0); // dies at t=0
                Ok(Payload::Empty)
            } else {
                let req = irecv(ctx, 0, 0);
                req.try_wait(ctx)
            }
        });
        match &runs[1].outcome {
            crate::RankOutcome::Completed(Err(CommError::PeerDead { peer: 0, .. })) => {}
            o => panic!("expected PeerDead, got {o:?}"),
        }
    }

    #[test]
    fn posted_irecv_matches_fifo() {
        let res = world().run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 5, vec![1.0f64]);
                ctx.send(1, 5, vec![2.0f64]);
                0.0
            } else {
                let a = irecv(ctx, 0, 5);
                let b = irecv(ctx, 0, 5);
                let va = a.wait(ctx).into_f64()[0];
                let vb = b.wait(ctx).into_f64()[0];
                va * 10.0 + vb
            }
        });
        assert_eq!(res[1].0, 12.0);
    }
}
