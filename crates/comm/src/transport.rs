//! The transport seam under the rank runtime.
//!
//! [`crate::RankCtx`] never talks to channels or sockets directly: all
//! message plumbing goes through the [`Transport`] trait — point-to-point
//! send, polled receive, and the shared failure/lifecycle registries
//! (dead marks, done marks, group revocations) that make peer-death
//! detection deterministic. Two backends implement it:
//!
//! * `InProcTransport` — the original single-process backend: one
//!   crossbeam channel per rank, a process-local `DeadRegistry`. The
//!   refactor is behaviour-preserving bit-for-bit; the PR 6 golden
//!   traces are the proof.
//! * [`crate::net::TcpTransport`] — ranks grouped into OS processes
//!   ("nodes") connected by TCP streams carrying CRC-framed wire
//!   messages, with a heartbeat failure detector that maps a dead *node*
//!   onto the same dead-rank marks the in-process backend uses, so
//!   checkpoint/shrink recovery fires unmodified.
//!
//! # Ordering contract
//!
//! Backends must preserve two orderings the runtime's determinism
//! leans on:
//!
//! 1. per-`(src, dst)` FIFO: packets from one rank to another arrive in
//!    send order (matching is by `(src, tag)`, so cross-source
//!    interleaving is free);
//! 2. dead marks are ordered *after* every send the dying rank made:
//!    a receiver that observes a mark and then drains its intake has
//!    seen every message the dead rank ever sent.

use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};

use crate::fault::DeadRegistry;
use crate::payload::Payload;

/// A message in flight between two ranks.
#[derive(Debug)]
pub struct Packet {
    /// Sender's world rank.
    pub src: usize,
    /// User or internal (collective) tag.
    pub tag: u64,
    /// Sender's virtual clock at the send call.
    pub send_time: f64,
    /// Extra delivery latency injected by the fault plan.
    pub extra_delay: f64,
    /// Fault-injected duplicate: discarded by the receiver's transport
    /// intake, as a sequence-numbered protocol would.
    pub dup: bool,
    /// Collective-abort marker (ULFM-style revoke): payload carries
    /// `[crashed peer, crash time]` and matching it yields a
    /// `CommError::PeerDead` instead of data.
    pub abort: bool,
    /// CRC-64 stamped by the sender over the *intact* payload, before
    /// any fault-injected corruption mangles it on the link.
    pub crc: u64,
    /// The data.
    pub payload: Payload,
}

/// Result of one bounded wait on the transport's intake.
pub enum RecvPoll {
    /// A packet arrived.
    Packet(Packet),
    /// Nothing arrived within the wait.
    Empty,
    /// The intake can never yield again (every sender endpoint is gone).
    Closed,
}

/// The message plumbing a [`crate::RankCtx`] runs on.
///
/// All timing stays *virtual* regardless of backend: a packet carries
/// its sender's virtual send time, and the receiver advances its own
/// clock from that — host latency (channel or socket) never enters the
/// simulation. That is why the in-process and TCP backends produce
/// bit-identical reports and traces for the same seed.
pub trait Transport: Send {
    /// Deliver `pkt` to rank `dst`'s intake. Send failures (the peer is
    /// gone) vanish silently, exactly as on a real network; the
    /// accounting of the send having *happened* is the caller's.
    fn send(&mut self, dst: usize, pkt: Packet);

    /// Non-blocking intake poll.
    fn try_recv(&mut self) -> Option<Packet>;

    /// Bounded blocking intake poll: wait at most `wait` host time.
    fn recv_wait(&mut self, wait: Duration) -> RecvPoll;

    /// Record that `rank` died at virtual time `at` (first mark wins).
    /// Must be ordered after every send `rank` made (see module docs).
    fn mark_dead(&mut self, rank: usize, at: f64);

    /// Virtual death time of `rank`, if it is known dead.
    fn dead_time_of(&self, rank: usize) -> Option<f64>;

    /// Record that `rank` ran to completion (distinct from death: a done
    /// rank finished the protocol and will never answer again, but its
    /// results stand). Ordered after every send `rank` made.
    fn mark_done(&mut self, rank: usize);

    /// Whether `rank` is known to have completed.
    fn is_done(&self, rank: usize) -> bool;

    /// Record that rank `by` revoked collective group `sig`
    /// (ULFM-style `MPI_Comm_revoke`), blaming the failure `(peer, at)`
    /// that triggered it. Ordered after every send `by` made on the
    /// group, like `mark_dead`/`mark_done`.
    fn revoke(&mut self, sig: u64, by: usize, peer: usize, at: f64);

    /// The blame rank `by` recorded when revoking group `sig`, if it
    /// did. Waiters query the specific rank they are blocked on: the
    /// per-revoker scoping plus the ordered-after-sends discipline make
    /// the receive-or-revoked outcome deterministic, exactly as for
    /// dead marks.
    fn revoked_by(&self, sig: u64, by: usize) -> Option<(usize, f64)>;

    /// Endpoint lifecycle hook: the rank finished (completed, crashed or
    /// aborted) and will make no further calls. Backends flush here.
    fn finish(&mut self) {}
}

/// The single-process backend: crossbeam channels plus a process-local
/// [`DeadRegistry`]. This is the original runtime plumbing, verbatim,
/// behind the trait.
pub(crate) struct InProcTransport {
    senders: Arc<Vec<Sender<Packet>>>,
    inbox: Receiver<Packet>,
    dead: Arc<DeadRegistry>,
}

impl InProcTransport {
    pub(crate) fn new(
        senders: Arc<Vec<Sender<Packet>>>,
        inbox: Receiver<Packet>,
        dead: Arc<DeadRegistry>,
    ) -> Self {
        InProcTransport {
            senders,
            inbox,
            dead,
        }
    }
}

impl Transport for InProcTransport {
    fn send(&mut self, dst: usize, pkt: Packet) {
        // A SendError means dst already crashed and dropped its inbox;
        // the message vanishes exactly as it would on a real network.
        let _ = self.senders[dst].send(pkt);
    }

    fn try_recv(&mut self) -> Option<Packet> {
        self.inbox.try_recv().ok()
    }

    fn recv_wait(&mut self, wait: Duration) -> RecvPoll {
        match self.inbox.recv_timeout(wait) {
            Ok(pkt) => RecvPoll::Packet(pkt),
            Err(RecvTimeoutError::Timeout) => RecvPoll::Empty,
            Err(RecvTimeoutError::Disconnected) => RecvPoll::Closed,
        }
    }

    fn mark_dead(&mut self, rank: usize, at: f64) {
        self.dead.mark(rank, at);
    }

    fn dead_time_of(&self, rank: usize) -> Option<f64> {
        self.dead.time_of(rank)
    }

    fn mark_done(&mut self, rank: usize) {
        self.dead.mark_done(rank);
    }

    fn is_done(&self, rank: usize) -> bool {
        self.dead.is_done(rank)
    }

    fn revoke(&mut self, sig: u64, by: usize, peer: usize, at: f64) {
        self.dead.revoke(sig, by, peer, at);
    }

    fn revoked_by(&self, sig: u64, by: usize) -> Option<(usize, f64)> {
        self.dead.revoked_by(sig, by)
    }
}
