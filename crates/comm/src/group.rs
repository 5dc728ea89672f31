//! Sub-communicators and collectives.
//!
//! A [`Group`] is an ordered set of world ranks — the analogue of an MPI
//! communicator. Collectives are implemented as the textbook algorithms
//! (binomial trees for broadcast/reduce, their composition for allreduce
//! and barrier, direct sends to the root for gather, gather then
//! broadcast for allgather) over the runtime's point-to-point layer, so
//! collective *timing* emerges from the same machine model everything
//! else uses.
//!
//! Collective message tags live in a reserved internal space derived from
//! the group's signature and a per-group sequence number, so collectives
//! on different (even overlapping) groups never cross-match, and user
//! tags can never collide with internal ones.
//!
//! Under a fault plan, collective point-to-point stages retry dropped
//! messages with exponential backoff charged to virtual time, and a
//! member whose partner crashed observes `CommError::PeerDead` within a
//! bounded number of attempts instead of deadlocking. The `try_*`
//! variants surface those errors; the classic infallible collectives
//! wrap them and panic (payload = the `CommError`) on unrecoverable
//! failure.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};

use cpx_obs::RecoveryKind;

use crate::fault::{mix64, CommError};
use crate::payload::Payload;
use crate::runtime::{CollectiveOp, RankCtx};
use crate::ReduceOp;

/// Bit marking internal (collective) tags.
const INTERNAL: u64 = 1 << 63;

/// Send retries a collective stage attempts before giving up on a
/// dropped link. Detection of a dead peer is immediate (registry), so
/// this bounds only the drop-retry loop.
const COLLECTIVE_MAX_ATTEMPTS: u32 = 24;

/// An ordered set of ranks acting as a communicator.
///
/// Each member holds its own `Group` value (they are per-rank objects,
/// like MPI communicator handles). All collective calls must be made by
/// every member, in the same order.
#[derive(Debug)]
pub struct Group {
    /// World ranks of the members, in group order.
    ranks: Vec<usize>,
    /// This rank's index within `ranks`.
    my_index: usize,
    /// Deterministic signature shared by all members.
    sig: u64,
    /// Per-group collective sequence number (tag-space isolation).
    coll_seq: Cell<u64>,
    /// Per-group split counter (child signature derivation).
    split_seq: Cell<u64>,
}

impl Group {
    /// The world communicator for a world of `size` ranks.
    pub(crate) fn world(size: usize, my_rank: usize) -> Group {
        Group {
            ranks: (0..size).collect(),
            my_index: my_rank,
            sig: mix64(0x57_6f72_6c64 ^ (size as u64)),
            coll_seq: Cell::new(0),
            split_seq: Cell::new(0),
        }
    }

    /// Construct a group directly from a member list (used by MPMD
    /// layouts where the member lists are globally known, e.g. the
    /// coupler's instance groups). Every member must construct the group
    /// with the identical `ranks` list and `label`.
    pub fn from_ranks(label: u64, ranks: Vec<usize>, my_rank: usize) -> Group {
        let my_index = ranks
            .iter()
            .position(|&r| r == my_rank)
            .expect("my_rank must be a member of the group");
        let mut sig = mix64(label ^ 0xA11C_0111);
        for &r in &ranks {
            sig = mix64(sig ^ r as u64);
        }
        Group {
            ranks,
            my_index,
            sig,
            coll_seq: Cell::new(0),
            split_seq: Cell::new(0),
        }
    }

    /// Number of members.
    #[inline]
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// This rank's index within the group.
    #[inline]
    pub fn index(&self) -> usize {
        self.my_index
    }

    /// World rank of group member `i`.
    #[inline]
    pub fn member(&self, i: usize) -> usize {
        self.ranks[i]
    }

    /// All members, in group order.
    #[inline]
    pub fn members(&self) -> &[usize] {
        &self.ranks
    }

    /// Whether this rank is group member 0.
    #[inline]
    pub fn is_root(&self) -> bool {
        self.my_index == 0
    }

    /// The group's deterministic signature: the identity of its tag
    /// space, and the key under which the group can be revoked (see
    /// [`crate::transport::Transport::revoke`]).
    pub fn sig(&self) -> u64 {
        self.sig
    }

    fn next_tag(&self) -> u64 {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq + 1);
        INTERNAL | (mix64(self.sig ^ seq) >> 1)
    }

    // ---------------------------------------------------------------
    // Fault-aware point-to-point stages
    // ---------------------------------------------------------------

    /// Send one collective-stage message to group member `i`, retrying
    /// fault-injected drops with exponential backoff (charged to the
    /// virtual clock and the sender's `recovery_time`). Propagates
    /// `PeerDead` immediately; returns the final `Dropped` error when
    /// the retry budget is exhausted.
    fn fsend(
        &self,
        ctx: &mut RankCtx,
        member: usize,
        tag: u64,
        payload: Payload,
    ) -> Result<(), CommError> {
        let dst = self.ranks[member];
        let mut attempt = 0u32;
        loop {
            match ctx.try_send_tagged(dst, tag, payload.clone()) {
                Ok(()) => return Ok(()),
                Err(e @ CommError::Dropped { .. }) => {
                    attempt += 1;
                    if attempt >= COLLECTIVE_MAX_ATTEMPTS {
                        return Err(e);
                    }
                    ctx.charge_backoff(attempt as u64);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Receive one collective-stage message from group member `i`,
    /// observing `PeerDead` for crashed partners — or `Revoked` when a
    /// member abandoned this group after a failure we have not seen
    /// ourselves — instead of deadlocking.
    fn frecv(&self, ctx: &mut RankCtx, member: usize, tag: u64) -> Result<Payload, CommError> {
        ctx.recv_checked_group(self.ranks[member], tag, self.sig)
    }

    /// Unwrap a fallible collective result for the infallible wrappers:
    /// panic with the `CommError` as payload (so
    /// [`crate::World::run_with_plan`] reports it as
    /// [`crate::RankOutcome::Failed`]).
    fn unwrap_coll<T>(r: Result<T, CommError>) -> T {
        match r {
            Ok(t) => t,
            Err(e) => std::panic::panic_any(e),
        }
    }

    /// Abandon a collective after an unrecoverable stage error:
    /// broadcast abort markers to every other member on all of the
    /// collective's reserved tags (ULFM-style revoke), so members
    /// blocked waiting on *us* observe the failure instead of
    /// deadlocking. Cascades terminate because each member aborts a
    /// given collective at most once and markers bypass fault
    /// injection.
    fn abort_collective(&self, ctx: &mut RankCtx, tags: &[u64], e: &CommError) {
        let (peer, at) = match e {
            CommError::PeerDead { peer, at } => (*peer, *at),
            _ => (self.ranks[self.my_index], ctx.now()),
        };
        for &tag in tags {
            for i in 0..self.size() {
                if i != self.my_index {
                    ctx.send_abort(self.ranks[i], tag, peer, at);
                }
            }
        }
    }

    // ---------------------------------------------------------------
    // Collectives
    // ---------------------------------------------------------------

    /// Binomial-tree broadcast from group member `root`. On the root
    /// `data` is the input; on the others it is overwritten. Panics on
    /// unrecoverable faults; see [`Group::try_bcast`].
    pub fn bcast(&self, ctx: &mut RankCtx, root: usize, data: &mut Payload) {
        Self::unwrap_coll(self.try_bcast(ctx, root, data));
    }

    /// Fallible broadcast: retries dropped stage messages with backoff,
    /// reports `PeerDead` if a tree partner crashed (revoking the
    /// collective for the other members).
    pub fn try_bcast(
        &self,
        ctx: &mut RankCtx,
        root: usize,
        data: &mut Payload,
    ) -> Result<(), CommError> {
        let tag = self.next_tag();
        ctx.obs_begin("bcast");
        ctx.log_collective(CollectiveOp::Bcast);
        let r = self.bcast_stage(ctx, root, data, tag);
        ctx.obs_end();
        if let Err(ref e) = r {
            self.abort_collective(ctx, &[tag], e);
        }
        r
    }

    fn bcast_stage(
        &self,
        ctx: &mut RankCtx,
        root: usize,
        data: &mut Payload,
        tag: u64,
    ) -> Result<(), CommError> {
        let p = self.size();
        if p == 1 {
            return Ok(());
        }
        let rel = (self.my_index + p - root) % p;
        let idx = |r: usize| (r + root) % p;

        let mut mask = 1usize;
        while mask < p {
            if rel & mask != 0 {
                *data = self.frecv(ctx, idx(rel - mask), tag)?;
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        while mask > 0 {
            if rel + mask < p {
                self.fsend(ctx, idx(rel + mask), tag, data.clone())?;
            }
            mask >>= 1;
        }
        Ok(())
    }

    /// Binomial-tree reduction of `data` to group member `root` with a
    /// commutative operator. On return, `data` on the root holds the
    /// reduction; on other ranks it holds a partial result. Panics on
    /// unrecoverable faults; see [`Group::try_reduce`].
    pub fn reduce(&self, ctx: &mut RankCtx, root: usize, op: ReduceOp, data: &mut [f64]) {
        Self::unwrap_coll(self.try_reduce(ctx, root, op, data));
    }

    /// Fallible reduction (see [`Group::try_bcast`] for the fault
    /// contract).
    pub fn try_reduce(
        &self,
        ctx: &mut RankCtx,
        root: usize,
        op: ReduceOp,
        data: &mut [f64],
    ) -> Result<(), CommError> {
        let tag = self.next_tag();
        ctx.obs_begin("reduce");
        ctx.log_collective(CollectiveOp::Reduce);
        let r = self.reduce_stage(ctx, root, op, data, tag);
        ctx.obs_end();
        if let Err(ref e) = r {
            self.abort_collective(ctx, &[tag], e);
        }
        r
    }

    fn reduce_stage(
        &self,
        ctx: &mut RankCtx,
        root: usize,
        op: ReduceOp,
        data: &mut [f64],
        tag: u64,
    ) -> Result<(), CommError> {
        let p = self.size();
        if p == 1 {
            return Ok(());
        }
        let rel = (self.my_index + p - root) % p;
        let idx = |r: usize| (r + root) % p;

        let mut mask = 1usize;
        while mask < p {
            if rel & mask != 0 {
                self.fsend(ctx, idx(rel - mask), tag, Payload::F64(data.to_vec()))?;
                break;
            }
            let src = rel | mask;
            if src < p {
                let other = self.frecv(ctx, idx(src), tag)?.into_f64();
                op.apply(data, &other);
            }
            mask <<= 1;
        }
        Ok(())
    }

    /// Allreduce = reduce-to-0 + broadcast. `data` holds the result on
    /// every member afterwards. Panics on unrecoverable faults; see
    /// [`Group::try_allreduce`].
    pub fn allreduce(&self, ctx: &mut RankCtx, op: ReduceOp, data: &mut [f64]) {
        Self::unwrap_coll(self.try_allreduce(ctx, op, data));
    }

    /// Fallible allreduce: every surviving member either gets the
    /// result or an error within a bounded number of retries. Both
    /// stage tags are reserved up front so the group's tag sequence
    /// stays aligned across members even when some abort mid-way.
    pub fn try_allreduce(
        &self,
        ctx: &mut RankCtx,
        op: ReduceOp,
        data: &mut [f64],
    ) -> Result<(), CommError> {
        let t_reduce = self.next_tag();
        let t_bcast = self.next_tag();
        ctx.obs_begin("allreduce");
        ctx.log_collective(CollectiveOp::Allreduce);
        let r = (|| {
            self.reduce_stage(ctx, 0, op, data, t_reduce)?;
            let mut payload = Payload::F64(data.to_vec());
            self.bcast_stage(ctx, 0, &mut payload, t_bcast)?;
            data.copy_from_slice(&payload.into_f64());
            Ok(())
        })();
        ctx.obs_end();
        if let Err(ref e) = r {
            self.abort_collective(ctx, &[t_reduce, t_bcast], e);
        }
        r
    }

    /// Scalar allreduce convenience.
    pub fn allreduce_scalar(&self, ctx: &mut RankCtx, op: ReduceOp, x: f64) -> f64 {
        Self::unwrap_coll(self.try_allreduce_scalar(ctx, op, x))
    }

    /// Fallible scalar allreduce.
    pub fn try_allreduce_scalar(
        &self,
        ctx: &mut RankCtx,
        op: ReduceOp,
        x: f64,
    ) -> Result<f64, CommError> {
        let mut buf = [x];
        self.try_allreduce(ctx, op, &mut buf)?;
        Ok(buf[0])
    }

    /// Barrier (zero-byte allreduce). Panics on unrecoverable faults;
    /// see [`Group::try_barrier`].
    pub fn barrier(&self, ctx: &mut RankCtx) {
        Self::unwrap_coll(self.try_barrier(ctx));
    }

    /// Fallible barrier: surviving members detect a crashed member
    /// within bounded retries instead of hanging.
    pub fn try_barrier(&self, ctx: &mut RankCtx) -> Result<(), CommError> {
        let mut buf = [0.0];
        ctx.obs_begin("barrier");
        ctx.log_collective(CollectiveOp::Barrier);
        let r = self.try_allreduce(ctx, ReduceOp::Sum, &mut buf);
        ctx.obs_end();
        r
    }

    /// Gather variable-length `f64` contributions to member `root`;
    /// returns `Some(per-member data)` on the root, `None` elsewhere.
    /// Panics on unrecoverable faults; see [`Group::try_gather`].
    pub fn gather(&self, ctx: &mut RankCtx, root: usize, data: Vec<f64>) -> Option<Vec<Vec<f64>>> {
        Self::unwrap_coll(self.try_gather(ctx, root, data))
    }

    /// Fallible gather.
    pub fn try_gather(
        &self,
        ctx: &mut RankCtx,
        root: usize,
        data: Vec<f64>,
    ) -> Result<Option<Vec<Vec<f64>>>, CommError> {
        let tag = self.next_tag();
        ctx.obs_begin("gather");
        ctx.log_collective(CollectiveOp::Gather);
        let r = self.gather_stage(ctx, root, data, tag);
        ctx.obs_end();
        if let Err(ref e) = r {
            self.abort_collective(ctx, &[tag], e);
        }
        r
    }

    fn gather_stage(
        &self,
        ctx: &mut RankCtx,
        root: usize,
        data: Vec<f64>,
        tag: u64,
    ) -> Result<Option<Vec<Vec<f64>>>, CommError> {
        let p = self.size();
        if self.my_index == root {
            let mut out: Vec<Vec<f64>> = vec![Vec::new(); p];
            out[root] = data;
            for (i, slot) in out.iter_mut().enumerate() {
                if i != root {
                    *slot = self.frecv(ctx, i, tag)?.into_f64();
                }
            }
            Ok(Some(out))
        } else {
            self.fsend(ctx, root, tag, Payload::F64(data))?;
            Ok(None)
        }
    }

    /// Allgather of variable-length `f64` contributions: every member
    /// gets every member's data (gather to 0, broadcast back). Panics
    /// on unrecoverable faults; see [`Group::try_allgather`].
    pub fn allgather(&self, ctx: &mut RankCtx, data: Vec<f64>) -> Vec<Vec<f64>> {
        Self::unwrap_coll(self.try_allgather(ctx, data))
    }

    /// Fallible allgather.
    pub fn try_allgather(
        &self,
        ctx: &mut RankCtx,
        data: Vec<f64>,
    ) -> Result<Vec<Vec<f64>>, CommError> {
        let p = self.size();
        if p == 1 {
            return Ok(vec![data]);
        }
        let t_gather = self.next_tag();
        let t_bcast = self.next_tag();
        ctx.obs_begin("allgather");
        ctx.log_collective(CollectiveOp::Allgather);
        let r = (|| {
            let gathered = self.gather_stage(ctx, 0, data, t_gather)?;
            // Flatten with a length header for the broadcast.
            let mut payload = if let Some(parts) = gathered {
                let mut flat = Vec::with_capacity(p + parts.iter().map(Vec::len).sum::<usize>());
                for part in &parts {
                    flat.push(part.len() as f64);
                }
                for part in parts {
                    flat.extend(part);
                }
                Payload::F64(flat)
            } else {
                Payload::Empty
            };
            self.bcast_stage(ctx, 0, &mut payload, t_bcast)?;
            let flat = payload.into_f64();
            let mut out = Vec::with_capacity(p);
            let mut off = p;
            for i in 0..p {
                let len = flat[i] as usize;
                out.push(flat[off..off + len].to_vec());
                off += len;
            }
            Ok(out)
        })();
        ctx.obs_end();
        if let Err(ref e) = r {
            self.abort_collective(ctx, &[t_gather, t_bcast], e);
        }
        r
    }

    /// Split into disjoint sub-groups by `color`; members with equal
    /// color land in the same child, ordered by `key` then world rank.
    pub fn split(&self, ctx: &mut RankCtx, color: u64, key: u64) -> Group {
        // Exchange (color, key) pairs.
        let mine = vec![f64::from_bits(color), f64::from_bits(key)];
        let all = self.allgather(ctx, mine);
        let split_id = self.split_seq.get();
        self.split_seq.set(split_id + 1);

        let mut members: Vec<(u64, usize)> = Vec::new(); // (key, world rank)
        for (i, vals) in all.iter().enumerate() {
            let c = vals[0].to_bits();
            let k = vals[1].to_bits();
            if c == color {
                members.push((k, self.ranks[i]));
            }
        }
        members.sort();
        let ranks: Vec<usize> = members.iter().map(|&(_, r)| r).collect();
        let my_rank = self.ranks[self.my_index];
        let my_index = ranks
            .iter()
            .position(|&r| r == my_rank)
            .expect("self must be in own split");
        let sig = mix64(self.sig ^ mix64(color) ^ mix64(split_id ^ 0x5711));
        Group {
            ranks,
            my_index,
            sig,
            coll_seq: Cell::new(0),
            split_seq: Cell::new(0),
        }
    }

    /// Reserved tag for round `round` of the shrink agreement. Lives in
    /// the internal tag space of this group's signature but outside the
    /// `next_tag` sequence, so agreement rounds can never cross-match
    /// with ordinary collective stages.
    fn agree_tag(&self, round: u64) -> u64 {
        INTERNAL | (mix64(self.sig ^ 0x5AFE_A64E ^ (round << 32)) >> 1)
    }

    /// Crash-tolerant agreement on a *revoked* group — the analogue of
    /// ULFM's `MPI_Comm_agree` + `MPI_Comm_shrink`. Every live member
    /// that abandons this group must call this exactly once, after
    /// revoking the group in its own name; the call returns a view that
    /// is **uniform** across every member that survives it, from which
    /// all survivors derive the identical successor group.
    ///
    /// The algorithm is textbook crash-fault flooding consensus run for
    /// `n = |group|` synchronous rounds (`f + 1` with `f = n - 1`): each
    /// round, every participant sends its current contribution set to
    /// every member it has not observed dead or done, then receives one
    /// message from each such member — or observes that member's death
    /// or completion, both of which the runtime reports deterministically
    /// (marks are ordered after the marker's last send). Message loss is
    /// sender-visible here (fault-plan drops surface at the send call),
    /// so delivery between live members is reliable and the classic
    /// argument applies: a contribution known to one survivor but not
    /// another would need a distinct mid-broadcast crash in every round,
    /// i.e. `n` crashes among `n` ranks of which two are alive.
    ///
    /// Uniformity of the outcome: the contributor set is uniform by the
    /// flooding argument; the done set is uniform because a done member
    /// never sends on agreement tags, so *every* participant observes
    /// its completion mark. Members that die mid-agreement may appear in
    /// the contributor set — the successor group then still names a dead
    /// rank, which the next collective on it reports immediately, and
    /// the following recovery round prunes it with everyone watching.
    ///
    /// Late joiners cost nothing: a member still blocked inside an old
    /// collective of this group observes a revocation in bounded time
    /// (every participant revoked before calling this), joins at round
    /// 1, and the per-`(src, tag)` matching lets the other participants'
    /// buffered round messages pair up regardless of arrival order.
    pub(crate) fn agree_shrink(&self, ctx: &mut RankCtx, my_ckpt: u64) -> ShrinkOutcome {
        let me = self.ranks[self.my_index];
        let n = self.size();
        let mut contrib: BTreeMap<usize, u64> = BTreeMap::new();
        contrib.insert(me, my_ckpt);
        let mut dead: BTreeSet<usize> = BTreeSet::new();
        let mut done: BTreeSet<usize> = BTreeSet::new();
        ctx.obs_begin("agree_shrink");
        for round in 1..=n as u64 {
            if n == 1 {
                break;
            }
            ctx.obs_recovery(RecoveryKind::AgreeRound {
                sig: self.sig,
                round,
                known: contrib.len(),
            });
            let tag = self.agree_tag(round);
            let flat: Vec<f64> = contrib
                .iter()
                .flat_map(|(&r, &c)| [r as f64, c as f64])
                .collect();
            for &r in &self.ranks {
                if r != me && !dead.contains(&r) && !done.contains(&r) {
                    ctx.send_tagged(r, tag, Payload::F64(flat.clone()));
                }
            }
            for &r in &self.ranks {
                if r == me || dead.contains(&r) || done.contains(&r) {
                    continue;
                }
                match ctx.recv_checked(r, tag) {
                    Ok(payload) => {
                        let vals = payload.into_f64();
                        for pair in vals.chunks_exact(2) {
                            contrib.entry(pair[0] as usize).or_insert(pair[1] as u64);
                        }
                    }
                    Err(CommError::PeerDead { .. }) => {
                        dead.insert(r);
                    }
                    Err(CommError::RankDone { .. }) => {
                        done.insert(r);
                    }
                    // Anything else (e.g. corruption eating a one-shot
                    // agreement message) is unrecoverable for this rank;
                    // abort it and let the other members shrink past us.
                    Err(e) => std::panic::panic_any(e),
                }
            }
        }
        ctx.obs_end();
        let min_ckpt = *contrib.values().min().expect("own contribution present");
        ShrinkOutcome {
            survivors: contrib.into_keys().collect(),
            done: done.into_iter().collect(),
            min_ckpt,
        }
    }
}

/// What [`Group::agree_shrink`] agreed on — uniform across every member
/// that survives the agreement.
pub(crate) struct ShrinkOutcome {
    /// Members that contributed to the agreement, ascending world rank.
    /// These are the successor group's members (a rank that died *during*
    /// the agreement may still appear; the next recovery removes it).
    pub survivors: Vec<usize>,
    /// Members observed protocol-complete during the agreement.
    pub done: Vec<usize>,
    /// Minimum over the contributors' newest checkpoint iterations: the
    /// agreed rollback point.
    pub min_ckpt: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::World;
    use cpx_machine::Machine;

    fn world() -> World {
        World::new(Machine::archer2())
    }

    #[test]
    fn bcast_all_sizes() {
        for n in [1usize, 2, 3, 5, 8, 13] {
            let res = world().run(n, move |ctx| {
                let g = ctx.world();
                let mut data = if ctx.rank() == 0 {
                    Payload::F64(vec![42.0, 7.0])
                } else {
                    Payload::Empty
                };
                g.bcast(ctx, 0, &mut data);
                data.into_f64()
            });
            for (v, _) in res {
                assert_eq!(v, vec![42.0, 7.0], "n={n}");
            }
        }
    }

    #[test]
    fn bcast_nonzero_root() {
        let res = world().run(6, |ctx| {
            let g = ctx.world();
            let mut data = if ctx.rank() == 4 {
                Payload::F64(vec![9.0])
            } else {
                Payload::Empty
            };
            g.bcast(ctx, 4, &mut data);
            data.into_f64()[0]
        });
        assert!(res.iter().all(|(v, _)| *v == 9.0));
    }

    #[test]
    fn allreduce_sum_various_sizes() {
        for n in [1usize, 2, 4, 7, 16] {
            let res = world().run(n, move |ctx| {
                let g = ctx.world();
                let mut buf = vec![ctx.rank() as f64 + 1.0, 1.0];
                g.allreduce(ctx, ReduceOp::Sum, &mut buf);
                buf
            });
            let expect0 = (n * (n + 1) / 2) as f64;
            for (v, _) in res {
                assert_eq!(v, vec![expect0, n as f64], "n={n}");
            }
        }
    }

    #[test]
    fn allreduce_max_min() {
        let res = world().run(5, |ctx| {
            let g = ctx.world();
            let mx = g.allreduce_scalar(ctx, ReduceOp::Max, ctx.rank() as f64);
            let mn = g.allreduce_scalar(ctx, ReduceOp::Min, ctx.rank() as f64);
            (mx, mn)
        });
        for ((mx, mn), _) in res {
            assert_eq!(mx, 4.0);
            assert_eq!(mn, 0.0);
        }
    }

    #[test]
    fn reduce_to_root_only() {
        let res = world().run(4, |ctx| {
            let g = ctx.world();
            let mut buf = vec![1.0];
            g.reduce(ctx, 2, ReduceOp::Sum, &mut buf);
            buf[0]
        });
        assert_eq!(res[2].0, 4.0);
    }

    #[test]
    fn gather_variable_lengths() {
        let res = world().run(4, |ctx| {
            let g = ctx.world();
            let data = vec![ctx.rank() as f64; ctx.rank() + 1];
            g.gather(ctx, 0, data)
        });
        let parts = res[0].0.as_ref().unwrap();
        for (i, part) in parts.iter().enumerate() {
            assert_eq!(part.len(), i + 1);
            assert!(part.iter().all(|&x| x == i as f64));
        }
        assert!(res[1].0.is_none());
    }

    #[test]
    fn allgather_everyone_sees_everything() {
        let res = world().run(3, |ctx| {
            let g = ctx.world();
            g.allgather(ctx, vec![ctx.rank() as f64 * 10.0])
        });
        for (all, _) in res {
            assert_eq!(all, vec![vec![0.0], vec![10.0], vec![20.0]]);
        }
    }

    #[test]
    fn split_into_even_odd() {
        let res = world().run(6, |ctx| {
            let g = ctx.world();
            let color = (ctx.rank() % 2) as u64;
            let sub = g.split(ctx, color, ctx.rank() as u64);
            // Sum ranks within the sub-group.
            let s = sub.allreduce_scalar(ctx, ReduceOp::Sum, ctx.rank() as f64);
            (sub.size(), s)
        });
        for (r, ((size, sum), _)) in res.into_iter().enumerate() {
            assert_eq!(size, 3);
            let expect = if r % 2 == 0 {
                0.0 + 2.0 + 4.0
            } else {
                1.0 + 3.0 + 5.0
            };
            assert_eq!(sum, expect);
        }
    }

    #[test]
    fn nested_split() {
        let res = world().run(8, |ctx| {
            let g = ctx.world();
            let half = g.split(ctx, (ctx.rank() / 4) as u64, ctx.rank() as u64);
            let quarter = half.split(ctx, (ctx.rank() / 2 % 2) as u64, ctx.rank() as u64);
            quarter.allreduce_scalar(ctx, ReduceOp::Sum, 1.0)
        });
        assert!(res.iter().all(|(s, _)| *s == 2.0));
    }

    #[test]
    fn from_ranks_group_collectives() {
        // Ranks {1, 3} form an explicit group; others idle.
        let res = world().run(4, |ctx| {
            if ctx.rank() == 1 || ctx.rank() == 3 {
                let g = Group::from_ranks(7, vec![1, 3], ctx.rank());
                g.allreduce_scalar(ctx, ReduceOp::Sum, ctx.rank() as f64)
            } else {
                -1.0
            }
        });
        assert_eq!(res[1].0, 4.0);
        assert_eq!(res[3].0, 4.0);
        assert_eq!(res[0].0, -1.0);
    }

    #[test]
    fn barrier_completes() {
        let res = world().run(9, |ctx| {
            let g = ctx.world();
            for _ in 0..5 {
                g.barrier(ctx);
            }
            ctx.now()
        });
        // All ranks synchronized: clocks agree to within tree-propagation
        // skew (microseconds of virtual time).
        let t0 = res[0].0;
        assert!(res.iter().all(|(t, _)| (*t - t0).abs() < 1e-3));
        assert!(t0 > 0.0);
    }

    #[test]
    fn collectives_larger_group_costs_more() {
        let time_for = |n: usize| {
            let res = world().run(n, |ctx| {
                let g = ctx.world();
                let mut buf = vec![1.0; 64];
                for _ in 0..10 {
                    g.allreduce(ctx, ReduceOp::Sum, &mut buf);
                }
                ctx.now()
            });
            res[0].0
        };
        assert!(time_for(16) > time_for(4));
    }

    #[test]
    fn collectives_survive_lossy_links() {
        use crate::fault::FaultPlan;
        let lossy = FaultPlan::new(21).with_drop_prob(0.25).with_dup_prob(0.1);
        let program = |ctx: &mut RankCtx| {
            let g = ctx.world();
            let sum = g.allreduce_scalar(ctx, ReduceOp::Sum, ctx.rank() as f64 + 1.0);
            let all = g.allgather(ctx, vec![ctx.rank() as f64]);
            g.barrier(ctx);
            (sum, all)
        };
        let faulty = world().run_with_plan(6, lossy, program);
        let clean = world().run(6, program);
        for (f, (c, _)) in faulty.iter().zip(&clean) {
            match &f.outcome {
                crate::RankOutcome::Completed(v) => assert_eq!(v, c),
                o => panic!("expected completion under lossy links, got {o:?}"),
            }
        }
        let total_retries: u64 = faulty.iter().map(|r| r.report.retries).sum();
        assert!(total_retries > 0, "p=0.25 drops should have forced retries");
    }

    #[test]
    fn survivors_observe_peer_death_in_allreduce() {
        use crate::fault::FaultPlan;
        // Rank 2 dies before the collective; everyone else must get
        // PeerDead (directly or via a dead tree partner) in bounded time
        // rather than deadlock.
        let plan = FaultPlan::new(22).with_crash(2, 0.0);
        let runs = world().run_with_plan(4, plan, |ctx| {
            ctx.compute_secs(1e-3);
            let g = ctx.world();
            g.try_allreduce_scalar(ctx, ReduceOp::Sum, 1.0)
        });
        assert!(matches!(
            runs[2].outcome,
            crate::RankOutcome::Crashed { .. }
        ));
        for r in [0, 1, 3] {
            match &runs[r].outcome {
                crate::RankOutcome::Completed(Err(CommError::PeerDead { .. })) => {}
                o => panic!("rank {r}: expected PeerDead, got {o:?}"),
            }
        }
    }

    #[test]
    fn infallible_collective_abort_reported_as_failed() {
        use crate::fault::FaultPlan;
        let plan = FaultPlan::new(23).with_crash(0, 0.0);
        let runs = world().run_with_plan(3, plan, |ctx| {
            ctx.compute_secs(1e-3);
            let g = ctx.world();
            g.barrier(ctx); // panics with CommError payload on survivors
            ctx.rank()
        });
        assert!(matches!(
            runs[0].outcome,
            crate::RankOutcome::Crashed { .. }
        ));
        for r in [1, 2] {
            match &runs[r].outcome {
                crate::RankOutcome::Failed(CommError::PeerDead { .. }) => {}
                o => panic!("rank {r}: expected Failed(PeerDead), got {o:?}"),
            }
        }
    }
}
