//! The threaded rank runtime.
//!
//! [`World::run`] spawns one OS thread per rank and hands each a
//! [`RankCtx`]: the rank's mailbox, its virtual clock, and its view of the
//! machine model. All timing is *virtual* — compute is charged through
//! the roofline model, and message timing uses the logical-time piggyback
//! (a packet carries its sender's virtual send time; the receiver's clock
//! advances to `max(local, send_time + p2p_time)`). Wall-clock never
//! enters the simulation, so results are deterministic and host
//! independent.
//!
//! # Fault injection
//!
//! [`World::run_with_plan`] runs the same program under a
//! [`FaultPlan`]: messages can be dropped, duplicated, delayed or
//! bit-flip corrupted (caught by the payload CRC at the receiver), and
//! ranks can be scheduled to crash at a virtual time. Fallible
//! operations ([`RankCtx::try_send`], [`RankCtx::recv_timeout`]) report
//! [`CommError`]s; the classic infallible APIs retry dropped messages
//! with exponential backoff (charged to virtual time and recorded in
//! [`TimeReport::retries`] / [`TimeReport::recovery_time`]) and panic on
//! unrecoverable errors. Instead of re-raising the first panic,
//! `run_with_plan` returns a [`RankOutcome`] per rank, so survivors'
//! results and timing are observable even when other ranks died.
//!
//! Determinism is preserved under faults: every fault decision is a pure
//! function of the plan (see [`crate::fault`]), crash detection is
//! sequenced through a dead-rank registry whose marks are ordered after
//! all of the dead rank's sends, and a dying rank's clock is clamped to
//! its scheduled crash time. Same plan, same seed → same outcomes and
//! bit-identical `TimeReport`s.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

use crossbeam::channel::unbounded;
use serde::{Deserialize, Serialize};

use cpx_machine::{KernelCost, Machine};
use cpx_obs::{RankRecorder, RankTimeline, RecoveryKind, SpanName, TraceSession};

use crate::fault::{CommError, CrashSignal, DeadRegistry, FaultPlan};
use crate::group::Group;
use crate::payload::Payload;
use crate::transport::{InProcTransport, Packet, RecvPoll, Transport};

/// How long a blocking receive waits on the host before declaring the
/// simulated program deadlocked. Generous: functional runs are fast.
const DEADLOCK_TIMEOUT: Duration = Duration::from_secs(60);

/// Host-time slice between dead-registry checks while blocked in a
/// receive. Small enough that fault runs stay fast, large enough not to
/// spin.
const POLL_SLICE: Duration = Duration::from_millis(2);

/// Host-time budget a `recv_timeout` waits for a message from a live
/// peer before concluding nothing is coming and reporting a virtual
/// timeout.
const TIMEOUT_WALL_BUDGET: Duration = Duration::from_millis(250);

/// Attempts before the infallible send gives up on a dropped link.
/// With any drop probability < 1 the retry loop terminates long before
/// this; the cap only guards pathological plans.
const MAX_SEND_ATTEMPTS: u64 = 64;

/// Virtual seconds between a crash and surviving ranks being able to
/// observe it (failure-detector latency).
const DETECT_LATENCY: f64 = 1e-4;

/// Virtual-time accounting for one rank, returned by [`World::run`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TimeReport {
    /// Final virtual clock (the rank's elapsed virtual time).
    pub elapsed: f64,
    /// Virtual seconds spent in local compute.
    pub compute: f64,
    /// Virtual seconds spent waiting on communication.
    pub comm: f64,
    /// Messages sent.
    pub messages_sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Send retries after fault-injected message drops.
    pub retries: u64,
    /// Messages the fault plan dropped on the link.
    pub dropped_msgs: u64,
    /// Messages delivered to this rank whose payload CRC check failed
    /// (link corruption caught by the transport).
    pub corrupted_msgs: u64,
    /// Virtual seconds spent recovering from faults: retry backoff plus
    /// failure-detection waits. Also included in `comm`.
    pub recovery_time: f64,
}

/// How one rank's execution ended under [`World::run_with_plan`].
#[derive(Serialize)]
pub enum RankOutcome<T> {
    /// The rank program ran to completion.
    Completed(T),
    /// The rank aborted on an unrecoverable communication error (e.g. a
    /// collective observed a dead peer).
    Failed(CommError),
    /// The fault plan crashed this rank at the given virtual time.
    Crashed {
        /// Virtual time of the crash.
        at: f64,
    },
    /// The rank program panicked; the original payload is preserved.
    Panicked(Box<dyn Any + Send>),
}

impl<T> RankOutcome<T> {
    /// The completed value, if any.
    pub fn completed(self) -> Option<T> {
        match self {
            RankOutcome::Completed(t) => Some(t),
            _ => None,
        }
    }

    /// Whether the rank ran to completion.
    pub fn is_completed(&self) -> bool {
        matches!(self, RankOutcome::Completed(_))
    }

    /// The panic message, for `Panicked` outcomes carrying a string.
    pub fn panic_message(&self) -> Option<&str> {
        match self {
            RankOutcome::Panicked(p) => p
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| p.downcast_ref::<String>().map(String::as_str)),
            _ => None,
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for RankOutcome<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RankOutcome::Completed(t) => f.debug_tuple("Completed").field(t).finish(),
            RankOutcome::Failed(e) => f.debug_tuple("Failed").field(e).finish(),
            RankOutcome::Crashed { at } => f.debug_struct("Crashed").field("at", at).finish(),
            RankOutcome::Panicked(_) => {
                let msg = self.panic_message().unwrap_or("<non-string payload>");
                f.debug_tuple("Panicked").field(&msg).finish()
            }
        }
    }
}

/// One rank's result under a fault plan: its outcome plus its
/// virtual-time report (valid up to the crash/abort point for
/// non-completed ranks).
#[derive(Debug)]
pub struct RankRun<T> {
    /// How the rank ended.
    pub outcome: RankOutcome<T>,
    /// Virtual-time accounting (up to the point of death for crashed
    /// ranks).
    pub report: TimeReport,
}

/// Which collective a rank entered (see [`CommEventKind::Collective`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveOp {
    /// Binomial-tree broadcast.
    Bcast,
    /// Binomial-tree reduce.
    Reduce,
    /// Reduce + broadcast allreduce.
    Allreduce,
    /// Barrier.
    Barrier,
    /// Gather to root.
    Gather,
    /// Ring allgather.
    Allgather,
}

/// What one logged communication event was (see [`CommEvent`]).
///
/// `Send` captures the fault plan's per-message draw — whether the link
/// dropped, duplicated or corrupted the message and how much extra
/// delay it injected — so a recorded stream pins down every fault
/// decision a run took, not just its deliveries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CommEventKind {
    /// A send was issued (and the link either carried or ate it).
    Send {
        dst: usize,
        tag: u64,
        /// Sender-local attempt counter feeding the fault draw.
        seq: u64,
        /// The plan dropped the message on the link.
        dropped: bool,
        /// The plan injected a duplicate.
        duplicated: bool,
        /// The plan flipped bits in the payload.
        corrupted: bool,
    },
    /// A matching message was admitted (CRC verified).
    Recv { src: usize, tag: u64 },
    /// A matching message failed its payload CRC check.
    RecvCorrupt { src: usize, tag: u64 },
    /// Exponential backoff was charged before a send retry.
    Backoff { attempt: u64 },
    /// A dead peer was detected (failure-detection wait charged).
    PeerDead { peer: usize },
    /// A virtual-time receive deadline expired.
    Timeout { src: usize },
    /// The rank entered a collective.
    Collective { op: CollectiveOp },
    /// The fault plan crashed this rank.
    Crash,
    /// The rank aborted on an unrecoverable communication error.
    Abort,
}

/// One entry of a rank's communication event log (recorded by
/// [`World::run_with_plan_logged`]): what happened, at which virtual
/// time. Per-rank sequences are deterministic — every fault decision is
/// a pure function of the plan and the clock is virtual — so the
/// concatenation of the per-rank lanes in rank order is reproducible
/// bit-for-bit across hosts and thread schedules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommEvent {
    /// The rank the event happened on.
    pub rank: usize,
    /// The rank's virtual clock just after the event.
    pub vtime: f64,
    /// What happened.
    pub kind: CommEventKind,
}

/// Per-rank execution context. Mini-app rank programs receive `&mut
/// RankCtx` and use it for compute charging, messaging and collectives.
pub struct RankCtx {
    rank: usize,
    size: usize,
    machine: Arc<Machine>,
    clock: f64,
    compute_time: f64,
    comm_time: f64,
    messages_sent: u64,
    bytes_sent: u64,
    retries: u64,
    dropped_msgs: u64,
    corrupted_msgs: u64,
    recovery_time: f64,
    /// Message plumbing: in-process channels or a TCP mesh, behind one
    /// trait (see [`crate::transport`]).
    transport: Box<dyn Transport>,
    /// Out-of-order messages awaiting a matching receive.
    pending: VecDeque<Packet>,
    plan: Arc<FaultPlan>,
    /// Scheduled crash time for this rank (cached from the plan).
    crash_at: Option<f64>,
    /// Per-destination send-attempt counters feeding the fault plan's
    /// decision function (sender-local, hence scheduling-independent).
    send_seq: HashMap<usize, u64>,
    /// Virtual-time span/counter recorder (no-op unless the world was
    /// started through a `*_traced` entry point).
    obs: RankRecorder,
    /// Communication event log (`Some` only under a `*_logged` entry
    /// point, so unlogged runs pay nothing).
    log: Option<Vec<CommEvent>>,
}

impl RankCtx {
    /// This rank's id in the world.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// The machine being modelled.
    #[inline]
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Virtual seconds this rank has spent waiting on communication.
    #[inline]
    pub fn comm_time(&self) -> f64 {
        self.comm_time
    }

    /// Virtual seconds this rank has spent in charged compute.
    #[inline]
    pub fn compute_time(&self) -> f64 {
        self.compute_time
    }

    /// Open an observability span at the current virtual time. No-op
    /// unless the world was started through a `*_traced` entry point.
    #[inline]
    pub fn obs_begin(&mut self, name: impl Into<SpanName>) {
        let t = self.clock;
        self.obs.begin(name, t);
    }

    /// Close the innermost observability span at the current virtual time.
    #[inline]
    pub fn obs_end(&mut self) {
        let t = self.clock;
        self.obs.end(t);
    }

    /// Bump an observability counter.
    #[inline]
    pub fn obs_count(&mut self, name: &str, n: u64) {
        self.obs.count(name, n);
    }

    /// Record a shrink-recovery protocol step at the current virtual
    /// time (feeds the recovery lane of exported traces). No-op unless
    /// tracing is live, like every other obs call.
    #[inline]
    pub(crate) fn obs_recovery(&mut self, kind: RecoveryKind) {
        let t = self.clock;
        self.obs.recovery_event(t, kind);
    }

    /// Append to the comm event log at the current virtual time. No-op
    /// unless the world was started through a `*_logged` entry point.
    #[inline]
    pub(crate) fn log_event(&mut self, kind: CommEventKind) {
        if let Some(log) = self.log.as_mut() {
            log.push(CommEvent {
                rank: self.rank,
                vtime: self.clock,
                kind,
            });
        }
    }

    /// Log entry into a collective (called by the `Group` algorithms).
    #[inline]
    pub(crate) fn log_collective(&mut self, op: CollectiveOp) {
        self.log_event(CommEventKind::Collective { op });
    }

    /// If this rank's scheduled crash time has been reached, clamp the
    /// clock to it, mark the dead registry, and unwind. Called at every
    /// virtual-time charge point, so a crash fires at the first charge
    /// that crosses the scheduled time.
    fn check_crash(&mut self) {
        if let Some(at) = self.crash_at {
            if self.clock >= at {
                self.clock = at;
                // Order matters: every send this rank ever made has
                // already completed (program order), so marking now lets
                // survivors conclude "drained inbox + mark observed ⇒ no
                // more messages coming" deterministically.
                self.transport.mark_dead(self.rank, at);
                panic::panic_any(CrashSignal { at });
            }
        }
    }

    /// Charge a roofline kernel cost to the virtual clock.
    pub fn compute(&mut self, cost: KernelCost) {
        debug_assert!(cost.is_valid(), "invalid kernel cost {cost:?}");
        let dt = self.machine.kernel_time(cost);
        self.clock += dt;
        self.compute_time += dt;
        self.check_crash();
    }

    /// Charge a fixed virtual duration.
    pub fn compute_secs(&mut self, secs: f64) {
        debug_assert!(secs >= 0.0 && secs.is_finite());
        self.clock += secs;
        self.compute_time += secs;
        self.check_crash();
    }

    /// Send `payload` to `dst` with user `tag`. Eager: the sender is
    /// charged only the software overhead. Retries fault-injected drops
    /// internally; panics on unrecoverable errors.
    pub fn send(&mut self, dst: usize, tag: u32, payload: impl Into<Payload>) {
        self.send_tagged(dst, tag as u64, payload.into());
    }

    /// Fallible send: returns `Err(CommError::Dropped)` when the fault
    /// plan drops the message (the caller owns retry policy), or
    /// `Err(CommError::RankOutOfRange)` for a bad destination.
    pub fn try_send(
        &mut self,
        dst: usize,
        tag: u32,
        payload: impl Into<Payload>,
    ) -> Result<(), CommError> {
        self.try_send_tagged(dst, tag as u64, payload.into())
    }

    /// Blocking receive of the next message from `src` with user `tag`
    /// (FIFO per `(src, tag)` pair). Panics if `src` crashed.
    pub fn recv(&mut self, src: usize, tag: u32) -> Payload {
        self.recv_tagged(src, tag as u64)
    }

    /// Fallible blocking receive: returns `Err(CommError::PeerDead)` if
    /// `src` crashed and every message it ever sent has been consumed.
    pub fn try_recv_from(&mut self, src: usize, tag: u32) -> Result<Payload, CommError> {
        self.recv_checked(src, tag as u64)
    }

    /// Receive with a *virtual-time* deadline: waits at most `timeout`
    /// virtual seconds. If the matching message's arrival time is within
    /// the deadline it is admitted normally; if it would arrive later
    /// (or nothing is coming), the clock advances by `timeout` and
    /// `Err(CommError::Timeout)` is returned with the message left
    /// pending. A crashed peer yields `Err(CommError::PeerDead)`.
    ///
    /// Determinism note: when the peer is alive and simply never sends,
    /// the timeout verdict is reached after a bounded host-time wait —
    /// deterministic in outcome, though the host wait itself is not part
    /// of the virtual timeline.
    pub fn recv_timeout(
        &mut self,
        src: usize,
        tag: u32,
        timeout: f64,
    ) -> Result<Payload, CommError> {
        let tag = tag as u64;
        if src >= self.size {
            return Err(CommError::RankOutOfRange {
                rank: src,
                size: self.size,
            });
        }
        self.check_crash();
        self.obs_begin("recv");
        let r = self.recv_timeout_inner(src, tag, timeout);
        self.obs_end();
        r
    }

    fn recv_timeout_inner(
        &mut self,
        src: usize,
        tag: u64,
        timeout: f64,
    ) -> Result<Payload, CommError> {
        let deadline = self.clock + timeout;
        let wall_start = Instant::now();
        loop {
            self.drain_inbox();
            if let Some(pos) = self.match_pending(src, tag) {
                let pkt = &self.pending[pos];
                if self.arrival_of(pkt) <= deadline {
                    let pkt = self.pending.remove(pos).expect("position valid");
                    return self.admit_checked(pkt);
                }
                return Err(self.charge_timeout(src, tag, timeout));
            }
            if let Some(at) = self.transport.dead_time_of(src) {
                // The mark is ordered after all of src's sends; one more
                // drain closes the race with messages enqueued before it.
                self.drain_inbox();
                if let Some(pos) = self.match_pending(src, tag) {
                    let pkt = &self.pending[pos];
                    if self.arrival_of(pkt) <= deadline {
                        let pkt = self.pending.remove(pos).expect("position valid");
                        return self.admit_checked(pkt);
                    }
                    return Err(self.charge_timeout(src, tag, timeout));
                }
                return Err(self.charge_peer_dead(src, at));
            }
            if wall_start.elapsed() >= TIMEOUT_WALL_BUDGET {
                return Err(self.charge_timeout(src, tag, timeout));
            }
            match self.transport.recv_wait(POLL_SLICE) {
                RecvPoll::Packet(pkt) => self.intake(pkt),
                RecvPoll::Empty => {}
                RecvPoll::Closed => return Err(self.charge_timeout(src, tag, timeout)),
            }
        }
    }

    /// The communicator containing every rank.
    pub fn world(&self) -> Group {
        Group::world(self.size, self.rank)
    }

    /// Infallible send: retries fault-injected drops with exponential
    /// backoff charged to virtual time; panics (with the `CommError` as
    /// payload) if the retry budget is exhausted.
    pub(crate) fn send_tagged(&mut self, dst: usize, tag: u64, payload: Payload) {
        assert!(dst < self.size, "send to out-of-range rank {dst}");
        let mut attempt = 0u64;
        loop {
            match self.try_send_tagged(dst, tag, payload.clone()) {
                Ok(()) => return,
                Err(e @ CommError::Dropped { .. }) => {
                    attempt += 1;
                    if attempt >= MAX_SEND_ATTEMPTS {
                        panic::panic_any(e);
                    }
                    self.charge_backoff(attempt);
                }
                Err(e) => panic::panic_any(e),
            }
        }
    }

    pub(crate) fn try_send_tagged(
        &mut self,
        dst: usize,
        tag: u64,
        payload: Payload,
    ) -> Result<(), CommError> {
        if dst >= self.size {
            return Err(CommError::RankOutOfRange {
                rank: dst,
                size: self.size,
            });
        }
        self.check_crash();
        self.obs_begin("send");
        let seq = {
            let c = self.send_seq.entry(dst).or_insert(0);
            let s = *c;
            *c += 1;
            s
        };
        let event = self.plan.link_event(self.rank, dst, seq);
        // The sender pays its software overhead whether or not the link
        // eats the message (it did issue the send).
        let bytes = payload.size_bytes();
        let send_time = self.clock;
        self.clock += self.machine.send_overhead;
        self.comm_time += self.machine.send_overhead;
        self.log_event(CommEventKind::Send {
            dst,
            tag,
            seq,
            dropped: event.dropped,
            duplicated: event.duplicated,
            corrupted: event.corrupt.is_some(),
        });
        if event.dropped {
            self.dropped_msgs += 1;
            self.obs_count("dropped_msgs", 1);
            self.obs_end();
            self.check_crash();
            return Err(CommError::Dropped {
                dst,
                tag,
                attempt: seq,
            });
        }
        // The CRC covers the payload as the sender intended it; a
        // fault-injected flip below mangles the data *after* the stamp,
        // exactly as corruption between NIC checksum domains would.
        let crc = payload.crc64();
        let mut payload = payload;
        if let Some(entropy) = event.corrupt {
            payload.corrupt_in_place(entropy);
        }
        let pkt = Packet {
            src: self.rank,
            tag,
            send_time,
            extra_delay: event.jitter,
            dup: false,
            abort: false,
            crc,
            payload,
        };
        // A SendError means dst already crashed and dropped its inbox;
        // the message vanishes exactly as it would on a real network.
        // The send itself still "happened" from our side, so accounting
        // is unchanged — semantics never depend on the host-level race.
        if event.duplicated {
            let dup = Packet {
                src: self.rank,
                tag,
                send_time: pkt.send_time,
                extra_delay: event.jitter,
                dup: true,
                abort: false,
                crc,
                payload: pkt.payload.clone(),
            };
            self.transport.send(dst, dup);
        }
        self.transport.send(dst, pkt);
        self.messages_sent += 1;
        self.bytes_sent += bytes as u64;
        self.obs_end();
        self.check_crash();
        Ok(())
    }

    /// Send a collective-abort marker (control plane: bypasses the
    /// fault plan and is charged nothing — revocation is assumed
    /// reliable, which is what bounds abort-cascade termination).
    pub(crate) fn send_abort(&mut self, dst: usize, tag: u64, peer: usize, at: f64) {
        if dst >= self.size || dst == self.rank {
            return;
        }
        let payload = Payload::F64(vec![peer as f64, at]);
        let pkt = Packet {
            src: self.rank,
            tag,
            send_time: self.clock,
            extra_delay: 0.0,
            dup: false,
            abort: true,
            crc: payload.crc64(),
            payload,
        };
        self.transport.send(dst, pkt);
    }

    /// Charge exponential backoff before a send retry. The delay law is
    /// the crate-wide [`crate::backoff::BackoffPolicy`]; jitter-free on
    /// the virtual-time path so fault runs stay bit-deterministic.
    pub(crate) fn charge_backoff(&mut self, attempt: u64) {
        let base = self.machine.send_overhead.max(self.machine.intra_latency);
        let dt = crate::backoff::BackoffPolicy::deterministic(base, 10).delay(attempt);
        self.obs_begin("retry backoff");
        self.clock += dt;
        self.comm_time += dt;
        self.recovery_time += dt;
        self.retries += 1;
        self.log_event(CommEventKind::Backoff { attempt });
        self.obs_count("retries", 1);
        self.obs_end();
        self.check_crash();
    }

    /// Charge the failure-detection wait for a dead peer and build the
    /// error. Deterministic: depends only on the crash time, the
    /// detection latency, and this rank's own clock.
    fn charge_peer_dead(&mut self, peer: usize, at: f64) -> CommError {
        let detect = (at + DETECT_LATENCY - self.clock).max(0.0);
        self.clock += detect;
        self.comm_time += detect;
        self.recovery_time += detect;
        self.log_event(CommEventKind::PeerDead { peer });
        CommError::PeerDead { peer, at }
    }

    /// Charge the failure-detection wait for observing a group
    /// revocation (same detector model as a dead peer: the revocation
    /// carries the triggering failure's virtual time) and build the
    /// error.
    fn charge_revoked(&mut self, peer: usize, at: f64) -> CommError {
        let detect = (at + DETECT_LATENCY - self.clock).max(0.0);
        self.clock += detect;
        self.comm_time += detect;
        self.recovery_time += detect;
        CommError::Revoked { peer, at }
    }

    fn charge_timeout(&mut self, src: usize, tag: u64, timeout: f64) -> CommError {
        self.clock += timeout;
        self.comm_time += timeout;
        self.log_event(CommEventKind::Timeout { src });
        CommError::Timeout {
            src,
            tag,
            waited: timeout,
        }
    }

    /// Infallible receive; panics (payload = the `CommError`) if the
    /// peer is dead.
    pub(crate) fn recv_tagged(&mut self, src: usize, tag: u64) -> Payload {
        match self.recv_checked(src, tag) {
            Ok(p) => p,
            Err(e) => panic::panic_any(e),
        }
    }

    /// Fallible receive: blocks until a matching message arrives or the
    /// peer is known dead with no matching message left.
    pub(crate) fn recv_checked(&mut self, src: usize, tag: u64) -> Result<Payload, CommError> {
        self.recv_checked_sig(src, tag, None)
    }

    /// [`RankCtx::recv_checked`] bound to a collective group: if the
    /// group is revoked while this rank is blocked, the wait breaks
    /// with [`CommError::Revoked`] instead of hanging on a tag stream
    /// the surviving members have abandoned.
    pub(crate) fn recv_checked_group(
        &mut self,
        src: usize,
        tag: u64,
        sig: u64,
    ) -> Result<Payload, CommError> {
        self.recv_checked_sig(src, tag, Some(sig))
    }

    fn recv_checked_sig(
        &mut self,
        src: usize,
        tag: u64,
        sig: Option<u64>,
    ) -> Result<Payload, CommError> {
        if src >= self.size {
            return Err(CommError::RankOutOfRange {
                rank: src,
                size: self.size,
            });
        }
        self.check_crash();
        self.obs_begin("recv");
        let r = self.recv_checked_inner(src, tag, sig);
        self.obs_end();
        r
    }

    fn recv_checked_inner(
        &mut self,
        src: usize,
        tag: u64,
        sig: Option<u64>,
    ) -> Result<Payload, CommError> {
        if let Some(pos) = self.match_pending(src, tag) {
            let pkt = self.pending.remove(pos).expect("position valid");
            return self.admit_checked(pkt);
        }
        let wall_start = Instant::now();
        loop {
            self.drain_inbox();
            if let Some(pos) = self.match_pending(src, tag) {
                let pkt = self.pending.remove(pos).expect("position valid");
                return self.admit_checked(pkt);
            }
            if let Some((peer, at)) = sig.and_then(|s| self.transport.revoked_by(s, src)) {
                // `src` revoked this group after observing `peer` fail
                // and will never send on its tags again. The check is
                // scoped to the rank we are blocked on and precedes the
                // dead check: a rank's revocation is ordered after its
                // last send on the group and before any later crash
                // mark of its own, so the receive-or-revoked outcome is
                // deterministic — the same ordered-after-sends argument
                // as dead marks. Real data already in flight is still
                // preferred (one more drain).
                self.drain_inbox();
                if let Some(pos) = self.match_pending(src, tag) {
                    let pkt = self.pending.remove(pos).expect("position valid");
                    return self.admit_checked(pkt);
                }
                return Err(self.charge_revoked(peer, at));
            }
            if let Some(at) = self.transport.dead_time_of(src) {
                // Final drain: anything src sent was enqueued before the
                // mark we just observed.
                self.drain_inbox();
                if let Some(pos) = self.match_pending(src, tag) {
                    let pkt = self.pending.remove(pos).expect("position valid");
                    return self.admit_checked(pkt);
                }
                return Err(self.charge_peer_dead(src, at));
            }
            if self.transport.is_done(src) {
                // Done marks follow the same ordered-after-sends
                // discipline as dead marks: drain once more, then
                // conclude nothing further is coming.
                self.drain_inbox();
                if let Some(pos) = self.match_pending(src, tag) {
                    let pkt = self.pending.remove(pos).expect("position valid");
                    return self.admit_checked(pkt);
                }
                return Err(CommError::RankDone { peer: src });
            }
            if wall_start.elapsed() >= DEADLOCK_TIMEOUT {
                panic!(
                    "rank {}: deadlock waiting for message from rank {src} tag {tag:#x}; \
                     {} unmatched pending messages",
                    self.rank,
                    self.pending.len()
                );
            }
            match self.transport.recv_wait(POLL_SLICE) {
                RecvPoll::Packet(pkt) => self.intake(pkt),
                RecvPoll::Empty => {}
                RecvPoll::Closed => panic!(
                    "rank {}: all peers exited while waiting for message from \
                     rank {src} tag {tag:#x} ({} unmatched pending messages)",
                    self.rank,
                    self.pending.len()
                ),
            }
        }
    }

    /// Revoke collective group `sig` in this rank's name (see
    /// [`Transport::revoke`]): every member blocked on a message *from
    /// this rank* on the group's tags observes the triggering failure
    /// in bounded time instead of waiting forever.
    pub(crate) fn revoke_group(&mut self, sig: u64, peer: usize, at: f64) {
        self.transport.revoke(sig, self.rank, peer, at);
    }

    /// Mark this rank protocol-complete (ordered after all its sends).
    pub(crate) fn mark_self_done(&mut self) {
        self.transport.mark_done(self.rank);
    }

    /// Move everything currently in the transport intake into the
    /// pending buffer.
    fn drain_inbox(&mut self) {
        while let Some(pkt) = self.transport.try_recv() {
            self.intake(pkt);
        }
    }

    /// Transport intake: fault-injected duplicates are discarded here
    /// (the runtime behaves as a sequence-numbered protocol that dedups
    /// at the receiver), everything else is buffered for matching.
    fn intake(&mut self, pkt: Packet) {
        if !pkt.dup {
            self.pending.push_back(pkt);
        }
    }

    fn match_pending(&self, src: usize, tag: u64) -> Option<usize> {
        self.pending
            .iter()
            .position(|p| p.src == src && p.tag == tag)
    }

    fn arrival_of(&self, pkt: &Packet) -> f64 {
        pkt.send_time
            + self
                .machine
                .p2p_time(pkt.src, self.rank, pkt.payload.size_bytes())
            + pkt.extra_delay
    }

    /// Admit a matched packet, converting abort markers into the
    /// `PeerDead` they announce and verifying the payload CRC — a
    /// mismatch means the link corrupted the data in flight and yields
    /// `CommError::Corrupted` instead of the mangled payload.
    fn admit_checked(&mut self, pkt: Packet) -> Result<Payload, CommError> {
        let abort = pkt.abort;
        let (src, tag, crc_sent) = (pkt.src, pkt.tag, pkt.crc);
        let payload = self.admit(pkt);
        if abort {
            // Defensive decode: over the TCP backend an abort marker
            // arrives from the wire, so a malformed one must surface as
            // an error, never panic the rank.
            if let Payload::F64(info) = &payload {
                if info.len() == 2 && info[0].is_finite() && info[0] >= 0.0 {
                    return Err(CommError::PeerDead {
                        peer: info[0] as usize,
                        at: info[1],
                    });
                }
            }
            return Err(CommError::Corrupted {
                src,
                tag,
                crc_sent,
                crc_got: payload.crc64(),
            });
        }
        self.obs_count("crc_checks", 1);
        let crc_got = payload.crc64();
        if crc_got != crc_sent {
            self.corrupted_msgs += 1;
            self.obs_count("crc_failures", 1);
            self.log_event(CommEventKind::RecvCorrupt { src, tag });
            return Err(CommError::Corrupted {
                src,
                tag,
                crc_sent,
                crc_got,
            });
        }
        self.log_event(CommEventKind::Recv { src, tag });
        Ok(payload)
    }

    /// Advance the clock for a matched packet and unwrap its payload.
    fn admit(&mut self, pkt: Packet) -> Payload {
        let wait = (self.arrival_of(&pkt) - self.clock).max(0.0);
        self.clock += wait;
        self.comm_time += wait;
        let payload = pkt.payload;
        self.check_crash();
        payload
    }

    fn report(&self) -> TimeReport {
        TimeReport {
            elapsed: self.clock,
            compute: self.compute_time,
            comm: self.comm_time,
            messages_sent: self.messages_sent,
            bytes_sent: self.bytes_sent,
            retries: self.retries,
            dropped_msgs: self.dropped_msgs,
            corrupted_msgs: self.corrupted_msgs,
            recovery_time: self.recovery_time,
        }
    }
}

/// Silence the default panic-hook noise for fault-injected unwinds
/// (scheduled crashes and `CommError` aborts are expected outcomes, not
/// bugs); everything else still reports through the previous hook.
pub(crate) fn install_quiet_fault_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let quiet = info.payload().is::<CrashSignal>() || info.payload().is::<CommError>();
            if !quiet {
                previous(info);
            }
        }));
    });
}

/// A virtual-time world of message-passing ranks.
pub struct World {
    machine: Arc<Machine>,
}

impl World {
    /// A world on `machine`.
    pub fn new(machine: Machine) -> Self {
        World {
            machine: Arc::new(machine),
        }
    }

    /// The machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Run `f` on `n` ranks concurrently; returns each rank's result and
    /// virtual-time report, in rank order. Panics in any rank propagate.
    pub fn run<T, F>(&self, n: usize, f: F) -> Vec<(T, TimeReport)>
    where
        T: Send + 'static,
        F: Fn(&mut RankCtx) -> T + Send + Sync + 'static,
    {
        self.run_with_plan(n, FaultPlan::default(), f)
            .into_iter()
            .enumerate()
            .map(|(rank, run)| match run.outcome {
                RankOutcome::Completed(t) => (t, run.report),
                RankOutcome::Panicked(payload) => panic::resume_unwind(payload),
                RankOutcome::Failed(e) => panic!("rank {rank} failed: {e}"),
                RankOutcome::Crashed { at } => {
                    panic!("rank {rank} crashed at t={at:.6}s (fault plan)")
                }
            })
            .collect()
    }

    /// Run `f` on `n` ranks under a [`FaultPlan`]. Every rank gets an
    /// outcome: completed ranks their value, crashed ranks their crash
    /// time, aborted ranks the `CommError` that killed them, and
    /// panicking ranks their original payload — plus a [`TimeReport`]
    /// valid up to the point of death. Nothing is re-raised; the caller
    /// decides what survival means.
    pub fn run_with_plan<T, F>(&self, n: usize, plan: FaultPlan, f: F) -> Vec<RankRun<T>>
    where
        T: Send + 'static,
        F: Fn(&mut RankCtx) -> T + Send + Sync + 'static,
    {
        self.run_with_plan_full(n, plan, false, false, f).0
    }

    /// [`World::run_with_plan`] with communication event logging on:
    /// also returns the per-rank event lanes concatenated in rank
    /// order — every send (with its fault-plan draw), receive, CRC
    /// failure, retry backoff, failure detection, collective entry,
    /// crash and abort, stamped with virtual time. Per-rank sequences
    /// are deterministic, so the returned log is bit-reproducible:
    /// same plan, same seed ⇒ identical events.
    pub fn run_with_plan_logged<T, F>(
        &self,
        n: usize,
        plan: FaultPlan,
        f: F,
    ) -> (Vec<RankRun<T>>, Vec<CommEvent>)
    where
        T: Send + 'static,
        F: Fn(&mut RankCtx) -> T + Send + Sync + 'static,
    {
        let (runs, _, log) = self.run_with_plan_full(n, plan, false, true, f);
        (runs, log)
    }

    /// [`World::run_with_plan`] with span recording on. Crashed and
    /// aborted ranks keep their partial timeline (spans open at death
    /// are closed at the death clock).
    pub fn run_with_plan_traced<T, F>(
        &self,
        n: usize,
        plan: FaultPlan,
        f: F,
    ) -> (Vec<RankRun<T>>, TraceSession)
    where
        T: Send + 'static,
        F: Fn(&mut RankCtx) -> T + Send + Sync + 'static,
    {
        let (runs, session, _) = self.run_with_plan_full(n, plan, true, false, f);
        (runs, session)
    }

    fn run_with_plan_full<T, F>(
        &self,
        n: usize,
        plan: FaultPlan,
        traced: bool,
        logged: bool,
        f: F,
    ) -> (Vec<RankRun<T>>, TraceSession, Vec<CommEvent>)
    where
        T: Send + 'static,
        F: Fn(&mut RankCtx) -> T + Send + Sync + 'static,
    {
        assert!(n >= 1, "world needs at least one rank");
        if !plan.is_trivial() {
            install_quiet_fault_hook();
        }
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..n).map(|_| unbounded::<Packet>()).unzip();
        let senders = Arc::new(senders);
        let dead = Arc::new(DeadRegistry::default());
        let endpoints: Vec<(usize, Box<dyn Transport>)> = receivers
            .into_iter()
            .enumerate()
            .map(|(rank, inbox)| {
                let t = InProcTransport::new(Arc::clone(&senders), inbox, Arc::clone(&dead));
                (rank, Box::new(t) as Box<dyn Transport>)
            })
            .collect();
        let results = run_endpoints(
            Arc::clone(&self.machine),
            n,
            endpoints,
            Arc::new(plan),
            traced,
            logged,
            Arc::new(f),
        );

        let mut runs = Vec::with_capacity(n);
        let mut lanes = Vec::with_capacity(n);
        let mut log = Vec::new();
        for (_, run, lane, rank_log) in results {
            runs.push(run);
            lanes.push(lane);
            // Rank-order concatenation: the global interleaving of rank
            // threads is host-dependent, but each rank's own sequence
            // is deterministic.
            log.extend(rank_log);
        }
        (runs, TraceSession::new(lanes), log)
    }
}

/// Run one rank program on an explicit set of `(rank, transport)`
/// endpoints — the backend-agnostic core under [`World::run_with_plan`]
/// (which hands it all `n` in-process endpoints) and the multi-process
/// cluster driver in [`crate::cluster`] (which hands it only this
/// node's ranks, on TCP transports). Spawns one OS thread per endpoint
/// and returns each endpoint's result in the order given, tagged with
/// its rank.
#[allow(clippy::type_complexity)]
pub(crate) fn run_endpoints<T, F>(
    machine: Arc<Machine>,
    world_size: usize,
    endpoints: Vec<(usize, Box<dyn Transport>)>,
    plan: Arc<FaultPlan>,
    traced: bool,
    logged: bool,
    f: Arc<F>,
) -> Vec<(usize, RankRun<T>, RankTimeline, Vec<CommEvent>)>
where
    T: Send + 'static,
    F: Fn(&mut RankCtx) -> T + Send + Sync + 'static,
{
    let mut handles = Vec::with_capacity(endpoints.len());
    for (rank, transport) in endpoints {
        let machine = Arc::clone(&machine);
        let plan = Arc::clone(&plan);
        let f = Arc::clone(&f);
        let handle = std::thread::Builder::new()
            .name(format!("rank-{rank}"))
            .stack_size(8 << 20)
            .spawn(move || {
                let crash_at = plan.crash_time(rank);
                let obs = if traced {
                    RankRecorder::on()
                } else {
                    RankRecorder::off()
                };
                let mut ctx = RankCtx {
                    rank,
                    size: world_size,
                    machine,
                    clock: 0.0,
                    compute_time: 0.0,
                    comm_time: 0.0,
                    messages_sent: 0,
                    bytes_sent: 0,
                    retries: 0,
                    dropped_msgs: 0,
                    corrupted_msgs: 0,
                    recovery_time: 0.0,
                    transport,
                    pending: VecDeque::new(),
                    plan,
                    crash_at,
                    send_seq: HashMap::new(),
                    obs,
                    log: if logged { Some(Vec::new()) } else { None },
                };
                let result = panic::catch_unwind(AssertUnwindSafe(|| f(&mut ctx)));
                let outcome = match result {
                    Ok(t) => RankOutcome::Completed(t),
                    Err(payload) => match payload.downcast::<CrashSignal>() {
                        Ok(sig) => {
                            ctx.log_event(CommEventKind::Crash);
                            RankOutcome::Crashed { at: sig.at }
                        }
                        Err(payload) => match payload.downcast::<CommError>() {
                            Ok(e) => {
                                // An aborting rank will never answer its
                                // peers again; mark it so they detect the
                                // failure instead of deadlocking.
                                let at = ctx.clock;
                                ctx.transport.mark_dead(rank, at);
                                ctx.log_event(CommEventKind::Abort);
                                RankOutcome::Failed(*e)
                            }
                            Err(payload) => {
                                let at = ctx.clock;
                                ctx.transport.mark_dead(rank, at);
                                RankOutcome::Panicked(payload)
                            }
                        },
                    },
                };
                ctx.transport.finish();
                let timeline = std::mem::take(&mut ctx.obs).into_timeline(rank, ctx.clock);
                let log = ctx.log.take().unwrap_or_default();
                (
                    rank,
                    RankRun {
                        outcome,
                        report: ctx.report(),
                    },
                    timeline,
                    log,
                )
            })
            .expect("spawn rank thread");
        handles.push(handle);
    }

    let mut results = Vec::with_capacity(handles.len());
    for h in handles {
        match h.join() {
            Ok(r) => results.push(r),
            // The closure catches all unwinds; a join error would mean
            // the harness itself is broken.
            Err(e) => panic::resume_unwind(e),
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> World {
        World::new(Machine::archer2())
    }

    #[test]
    fn single_rank_compute() {
        let res = world().run(1, |ctx| {
            ctx.compute(KernelCost::flops(2.2e9)); // exactly 1 virtual second
            ctx.now()
        });
        assert!((res[0].0 - 1.0).abs() < 1e-9);
        assert!((res[0].1.compute - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ping_pong_virtual_time() {
        let res = world().run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 0, vec![1.0f64; 1024]);
                ctx.recv(1, 1).into_f64()
            } else {
                let v = ctx.recv(0, 0).into_f64();
                ctx.send(0, 1, v.clone());
                v
            }
        });
        assert_eq!(res[0].0.len(), 1024);
        // Rank 0 waited for a round trip: its comm time must dominate.
        assert!(res[0].1.comm > 0.0);
        assert!(res[0].1.elapsed >= res[0].1.comm);
    }

    #[test]
    fn virtual_time_is_deterministic() {
        let run = || {
            world().run(4, |ctx| {
                let me = ctx.rank();
                ctx.compute(KernelCost::flops(1e8 * (me + 1) as f64));
                ctx.send((me + 1) % 4, 0, vec![me as f64; 100]);
                let _ = ctx.recv((me + 3) % 4, 0);
                ctx.now()
            })
        };
        let a: Vec<f64> = run().into_iter().map(|(t, _)| t).collect();
        let b: Vec<f64> = run().into_iter().map(|(t, _)| t).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn out_of_order_tags() {
        let res = world().run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 5, vec![5.0f64]);
                ctx.send(1, 6, vec![6.0f64]);
                0.0
            } else {
                // Receive in reverse tag order.
                let six = ctx.recv(0, 6).into_f64()[0];
                let five = ctx.recv(0, 5).into_f64()[0];
                six * 10.0 + five
            }
        });
        assert_eq!(res[1].0, 65.0);
    }

    #[test]
    fn eager_sends_let_both_ranks_send_first() {
        let res = world().run(2, |ctx| {
            let me = ctx.rank() as f64;
            let peer = 1 - ctx.rank();
            ctx.send(peer, 0, vec![me]);
            ctx.recv(peer, 0).into_f64()[0]
        });
        assert_eq!(res[0].0, 1.0);
        assert_eq!(res[1].0, 0.0);
    }

    #[test]
    fn fifo_per_src_tag() {
        let res = world().run(2, |ctx| {
            if ctx.rank() == 0 {
                for i in 0..10 {
                    ctx.send(1, 0, vec![i as f64]);
                }
                Vec::new()
            } else {
                (0..10).map(|_| ctx.recv(0, 0).into_f64()[0]).collect()
            }
        });
        assert_eq!(res[1].0, (0..10).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic]
    fn rank_panic_propagates() {
        world().run(2, |ctx| {
            if ctx.rank() == 1 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn run_with_plan_captures_panics() {
        let runs = world().run_with_plan(2, FaultPlan::default(), |ctx| {
            if ctx.rank() == 1 {
                panic!("boom");
            }
            ctx.rank()
        });
        assert!(runs[0].outcome.is_completed());
        assert_eq!(runs[1].outcome.panic_message(), Some("boom"));
    }

    #[test]
    fn inter_node_message_slower_than_intra() {
        // 2 ranks on one node vs ranks 0 and 128 (different nodes).
        let m = Machine::archer2();
        let intra = World::new(m.clone()).run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 0, vec![0.0f64; 1 << 14]);
                0.0
            } else {
                let _ = ctx.recv(0, 0);
                ctx.now()
            }
        })[1]
            .0;
        let inter = World::new(m).run(130, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(129, 0, vec![0.0f64; 1 << 14]);
            }
            if ctx.rank() == 129 {
                let _ = ctx.recv(0, 0);
                return ctx.now();
            }
            0.0
        })[129]
            .0;
        assert!(inter > intra, "inter {inter} intra {intra}");
    }

    #[test]
    fn overlap_hides_transfer_time() {
        // Rank 0 sends a large message at t=0; rank 1 computes for a
        // virtual second before receiving it. The receive costs ~nothing
        // because the transfer happened "during" the compute.
        let res = world().run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 0, vec![0.0f64; 1 << 18]); // 2 MiB
                0.0
            } else {
                ctx.compute(KernelCost::flops(2.2e9)); // 1 virtual second
                let t0 = ctx.now();
                let _ = ctx.recv(0, 0);
                ctx.now() - t0
            }
        });
        // The 2 MiB transfer takes ~1.4 ms on the intra-node link — far
        // less than the 1 s compute, so fully hidden.
        assert!(res[1].0 < 1e-3, "receive cost {}", res[1].0);
    }

    #[test]
    fn blocking_receive_pays_the_transfer() {
        // Same exchange with the sender busy first: the receiver waits.
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

    // ---------------------------------------------------------------
    // Fault injection
    // ---------------------------------------------------------------

    #[test]
    fn scheduled_crash_reported_with_clamped_clock() {
        let plan = FaultPlan::new(1).with_crash(1, 0.5);
        let runs = world().run_with_plan(2, plan, |ctx| {
            for _ in 0..100 {
                ctx.compute(KernelCost::flops(2.2e8)); // 0.1 s per step
            }
            ctx.now()
        });
        assert!(runs[0].outcome.is_completed());
        match runs[1].outcome {
            RankOutcome::Crashed { at } => assert_eq!(at, 0.5),
            ref o => panic!("expected crash, got {o:?}"),
        }
        assert_eq!(runs[1].report.elapsed, 0.5);
    }

    #[test]
    fn survivor_detects_dead_peer_in_recv() {
        let plan = FaultPlan::new(2).with_crash(0, 0.0);
        let runs = world().run_with_plan(2, plan, |ctx| {
            if ctx.rank() == 1 {
                ctx.try_recv_from(0, 9)
            } else {
                ctx.compute_secs(1.0); // crashes immediately (t=0)
                Ok(Payload::Empty)
            }
        });
        match &runs[1].outcome {
            RankOutcome::Completed(Err(CommError::PeerDead { peer: 0, .. })) => {}
            o => panic!("expected PeerDead, got {o:?}"),
        }
        assert!(runs[1].report.recovery_time > 0.0);
    }

    #[test]
    fn messages_sent_before_crash_still_deliverable() {
        // Rank 0 sends, *then* crashes; rank 1 must still receive the
        // message (it was already on the wire).
        let plan = FaultPlan::new(3).with_crash(0, 1.0);
        let runs = world().run_with_plan(2, plan, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 0, vec![7.0f64]);
                ctx.compute_secs(10.0); // dies here
                0.0
            } else {
                ctx.recv(0, 0).into_f64()[0]
            }
        });
        match runs[1].outcome {
            RankOutcome::Completed(v) => assert_eq!(v, 7.0),
            ref o => panic!("expected completion, got {o:?}"),
        }
    }

    #[test]
    fn dropped_sends_retry_transparently() {
        let plan = FaultPlan::new(4).with_drop_prob(0.4);
        let runs = world().run_with_plan(2, plan, |ctx| {
            if ctx.rank() == 0 {
                for i in 0..50 {
                    ctx.send(1, 0, vec![i as f64]);
                }
                Vec::new()
            } else {
                (0..50).map(|_| ctx.recv(0, 0).into_f64()[0]).collect()
            }
        });
        match &runs[1].outcome {
            RankOutcome::Completed(v) => {
                assert_eq!(*v, (0..50).map(|i| i as f64).collect::<Vec<_>>());
            }
            o => panic!("expected completion, got {o:?}"),
        }
        let r0 = &runs[0].report;
        assert!(r0.dropped_msgs > 0, "expected drops at p=0.4 over 50 sends");
        assert_eq!(r0.retries, r0.dropped_msgs);
        assert!(r0.recovery_time > 0.0);
    }

    #[test]
    fn fault_runs_are_bit_deterministic() {
        let run = || {
            let plan = FaultPlan::new(11)
                .with_drop_prob(0.2)
                .with_dup_prob(0.2)
                .with_delay(0.3, 2e-6);
            world().run_with_plan(4, plan, |ctx| {
                let me = ctx.rank();
                ctx.compute(KernelCost::flops(1e8 * (me + 1) as f64));
                for round in 0..5 {
                    ctx.send((me + 1) % 4, round, vec![me as f64; 64]);
                    let _ = ctx.recv((me + 3) % 4, round);
                }
                ctx.now()
            })
        };
        let a = run();
        let b = run();
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.report, rb.report);
            match (&ra.outcome, &rb.outcome) {
                (RankOutcome::Completed(x), RankOutcome::Completed(y)) => {
                    assert_eq!(x.to_bits(), y.to_bits())
                }
                _ => panic!("both runs should complete"),
            }
        }
    }

    #[test]
    fn duplicates_do_not_corrupt_fifo() {
        let plan = FaultPlan::new(5).with_dup_prob(0.5);
        let runs = world().run_with_plan(2, plan, |ctx| {
            if ctx.rank() == 0 {
                for i in 0..20 {
                    ctx.send(1, 0, vec![i as f64]);
                }
                Vec::new()
            } else {
                (0..20).map(|_| ctx.recv(0, 0).into_f64()[0]).collect()
            }
        });
        match &runs[1].outcome {
            RankOutcome::Completed(v) => {
                assert_eq!(*v, (0..20).map(|i| i as f64).collect::<Vec<_>>());
            }
            o => panic!("expected completion, got {o:?}"),
        }
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let runs = world().run_with_plan(2, FaultPlan::new(6), |ctx| {
            if ctx.rank() == 0 {
                ctx.compute_secs(1.0); // message arrives around t=1
                ctx.send(1, 0, vec![3.0f64]);
                0.0
            } else {
                // Deadline far before arrival: virtual timeout.
                let early = ctx.recv_timeout(0, 0, 1e-6);
                assert!(matches!(early, Err(CommError::Timeout { .. })));
                // Now wait properly: the message is still pending.
                ctx.recv(0, 0).into_f64()[0]
            }
        });
        match runs[1].outcome {
            RankOutcome::Completed(v) => assert_eq!(v, 3.0),
            ref o => panic!("expected completion, got {o:?}"),
        }
    }

    #[test]
    fn recv_timeout_within_deadline_succeeds() {
        let runs = world().run_with_plan(2, FaultPlan::new(7), |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 0, vec![4.0f64]);
                0.0
            } else {
                ctx.compute_secs(0.5); // message already arrived virtually
                ctx.recv_timeout(0, 0, 1.0).unwrap().into_f64()[0]
            }
        });
        match runs[1].outcome {
            RankOutcome::Completed(v) => assert_eq!(v, 4.0),
            ref o => panic!("expected completion, got {o:?}"),
        }
    }

    #[test]
    fn try_send_reports_out_of_range() {
        let runs = world().run_with_plan(1, FaultPlan::default(), |ctx| {
            ctx.try_send(5, 0, vec![1.0f64])
        });
        match &runs[0].outcome {
            RankOutcome::Completed(Err(CommError::RankOutOfRange { rank: 5, size: 1 })) => {}
            o => panic!("expected RankOutOfRange, got {o:?}"),
        }
    }

    #[test]
    fn corrupted_payloads_are_caught_by_crc() {
        let plan = FaultPlan::new(31).with_corrupt_prob(1.0);
        let runs = world().run_with_plan(2, plan, |ctx| {
            if ctx.rank() == 0 {
                ctx.try_send(1, 0, vec![1.0f64, 2.0, 3.0]).map(|_| 0)
            } else {
                ctx.try_recv_from(0, 0).map(|_| 1)
            }
        });
        match &runs[1].outcome {
            RankOutcome::Completed(Err(CommError::Corrupted { src: 0, tag: 0, .. })) => {}
            o => panic!("expected Corrupted, got {o:?}"),
        }
        assert_eq!(runs[1].report.corrupted_msgs, 1);
    }

    #[test]
    fn clean_runs_never_flag_corruption() {
        let runs = world().run_with_plan(4, FaultPlan::new(32), |ctx| {
            let me = ctx.rank();
            for round in 0..8u32 {
                ctx.send((me + 1) % 4, round, vec![me as f64; 257]);
                let _ = ctx.recv((me + 3) % 4, round);
            }
            ctx.now()
        });
        for run in &runs {
            assert!(run.outcome.is_completed());
            assert_eq!(run.report.corrupted_msgs, 0);
        }
    }

    #[test]
    fn corruption_panics_infallible_recv_into_failed() {
        let plan = FaultPlan::new(33).with_corrupt_prob(1.0);
        let runs = world().run_with_plan(2, plan, |ctx| {
            if ctx.rank() == 0 {
                let _ = ctx.try_send(1, 0, vec![9.0f64; 16]);
                0.0
            } else {
                ctx.recv(0, 0).into_f64()[0]
            }
        });
        match &runs[1].outcome {
            RankOutcome::Failed(CommError::Corrupted { .. }) => {}
            o => panic!("expected Failed(Corrupted), got {o:?}"),
        }
    }

    #[test]
    fn logged_fault_runs_are_bit_deterministic() {
        let run = || {
            let plan = FaultPlan::new(11)
                .with_drop_prob(0.2)
                .with_dup_prob(0.2)
                .with_delay(0.3, 2e-6);
            world().run_with_plan_logged(4, plan, |ctx| {
                let me = ctx.rank();
                ctx.compute(KernelCost::flops(1e8 * (me + 1) as f64));
                for round in 0..5 {
                    ctx.send((me + 1) % 4, round, vec![me as f64; 64]);
                    let _ = ctx.recv((me + 3) % 4, round);
                }
                let g = ctx.world();
                g.allreduce_scalar(ctx, crate::ReduceOp::Sum, ctx.rank() as f64)
            })
        };
        let (runs_a, log_a) = run();
        let (_, log_b) = run();
        assert!(!log_a.is_empty());
        assert_eq!(log_a, log_b);
        // Logging must not perturb the virtual timeline.
        let plan = FaultPlan::new(11)
            .with_drop_prob(0.2)
            .with_dup_prob(0.2)
            .with_delay(0.3, 2e-6);
        let plain = world().run_with_plan(4, plan, |ctx| {
            let me = ctx.rank();
            ctx.compute(KernelCost::flops(1e8 * (me + 1) as f64));
            for round in 0..5 {
                ctx.send((me + 1) % 4, round, vec![me as f64; 64]);
                let _ = ctx.recv((me + 3) % 4, round);
            }
            let g = ctx.world();
            g.allreduce_scalar(ctx, crate::ReduceOp::Sum, ctx.rank() as f64)
        });
        for (ra, rb) in runs_a.iter().zip(&plain) {
            assert_eq!(ra.report, rb.report);
        }
        // The log carries fault draws: some send event must be dropped.
        assert!(log_a
            .iter()
            .any(|e| matches!(e.kind, CommEventKind::Send { dropped: true, .. })));
        // And collectives are logged on every rank.
        assert_eq!(
            log_a
                .iter()
                .filter(|e| matches!(e.kind, CommEventKind::Collective { .. }))
                .count(),
            4
        );
    }
}
