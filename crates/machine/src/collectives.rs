//! Analytic cost models for MPI-style collectives.
//!
//! The discrete-event replayer charges these formulas, and the task
//! graph it records carries the same costs. The threaded runtime in
//! `cpx-comm` does not use them: its collectives are sequences of
//! point-to-point messages, so their cost follows from the p2p model.
//! The models are the textbook latency–bandwidth (α–β) expressions for
//! the algorithms production MPIs use at these message sizes:
//!
//! * broadcast / reduce — binomial tree: `⌈log2 p⌉ (α + nβ)`
//! * allreduce — recursive doubling: `log2 p` rounds of `α + nβ` plus the
//!   local reduction arithmetic
//! * barrier — dissemination: `⌈log2 p⌉ α`
//! * allgather — ring: `(p-1)(α + (n/p)β)`
//! * alltoall — pairwise exchange: `(p-1)(α + (n/p)β)`
//!
//! `n` is the total payload in bytes and α/β are taken from the machine's
//! link class for the group (intra-node if the whole group fits on one
//! node, inter-node otherwise).

use crate::model::Machine;
use crate::trace::CollectiveKind;

/// ⌈log2 p⌉ with `log2ceil(1) == 0`.
#[inline]
pub fn log2ceil(p: usize) -> u32 {
    debug_assert!(p >= 1);
    usize::BITS - (p - 1).leading_zeros().min(usize::BITS)
}

/// Time for a collective of `kind` over a group of `group_size` ranks
/// with a per-rank payload of `bytes`, on `machine`.
///
/// Returns 0 for single-rank groups: every collective degenerates to a
/// local no-op.
pub fn collective_time(
    machine: &Machine,
    kind: CollectiveKind,
    group_size: usize,
    bytes: usize,
) -> f64 {
    if group_size <= 1 {
        return 0.0;
    }
    let (alpha, beta_bw) = machine.group_link(group_size);
    let beta = 1.0 / beta_bw;
    let p = group_size as f64;
    let n = bytes as f64;
    let rounds = log2ceil(group_size) as f64;
    match kind {
        CollectiveKind::Barrier => rounds * alpha,
        CollectiveKind::Broadcast | CollectiveKind::Reduce => rounds * (alpha + n * beta),
        CollectiveKind::Allreduce => {
            // Recursive doubling + local reduction arithmetic (1 flop per
            // 8-byte word per round, charged at the compute rate).
            let arithmetic = rounds * (n / 8.0) / machine.flops_per_core;
            rounds * (alpha + n * beta) + arithmetic
        }
        CollectiveKind::Allgather | CollectiveKind::Alltoall => {
            (p - 1.0) * (alpha + (n / p) * beta)
        }
        CollectiveKind::Gather | CollectiveKind::Scatter => {
            // Binomial tree with halving payload per level; bounded by the
            // root's full-payload serialization.
            rounds * alpha + n * beta
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> Machine {
        Machine::archer2()
    }

    #[test]
    fn log2ceil_values() {
        assert_eq!(log2ceil(1), 0);
        assert_eq!(log2ceil(2), 1);
        assert_eq!(log2ceil(3), 2);
        assert_eq!(log2ceil(4), 2);
        assert_eq!(log2ceil(5), 3);
        assert_eq!(log2ceil(1024), 10);
        assert_eq!(log2ceil(40_000), 16);
    }

    #[test]
    fn single_rank_collectives_are_free() {
        for kind in [
            CollectiveKind::Barrier,
            CollectiveKind::Broadcast,
            CollectiveKind::Reduce,
            CollectiveKind::Allreduce,
            CollectiveKind::Allgather,
            CollectiveKind::Alltoall,
            CollectiveKind::Gather,
            CollectiveKind::Scatter,
        ] {
            assert_eq!(collective_time(&m(), kind, 1, 1 << 20), 0.0);
        }
    }

    #[test]
    fn allreduce_grows_logarithmically() {
        let t1k = collective_time(&m(), CollectiveKind::Allreduce, 1024, 64);
        let t32k = collective_time(&m(), CollectiveKind::Allreduce, 32768, 64);
        // 15/10 rounds: ratio must be ~1.5, definitely below linear (32x).
        assert!(t32k > t1k);
        assert!(t32k < 2.0 * t1k);
    }

    #[test]
    fn barrier_cheaper_than_allreduce() {
        let b = collective_time(&m(), CollectiveKind::Barrier, 512, 0);
        let a = collective_time(&m(), CollectiveKind::Allreduce, 512, 8);
        assert!(b <= a);
    }

    #[test]
    fn intra_node_group_is_faster() {
        let small = collective_time(&m(), CollectiveKind::Allreduce, 64, 8);
        // Same round count (log2ceil(64)=6 vs log2ceil(33)=6) but the
        // 64-rank group fits on a node while a 4096-rank group does not.
        let large = collective_time(&m(), CollectiveKind::Allreduce, 4096, 8);
        assert!(small < large);
    }

    #[test]
    fn alltoall_scales_with_group() {
        let t8 = collective_time(&m(), CollectiveKind::Alltoall, 8, 8192);
        let t64 = collective_time(&m(), CollectiveKind::Alltoall, 64, 8192);
        assert!(t64 > t8);
    }

    #[test]
    fn payload_increases_cost() {
        for kind in [
            CollectiveKind::Broadcast,
            CollectiveKind::Allreduce,
            CollectiveKind::Allgather,
            CollectiveKind::Gather,
        ] {
            let small = collective_time(&m(), kind, 256, 64);
            let big = collective_time(&m(), kind, 256, 1 << 22);
            assert!(big > small, "{kind:?}");
        }
    }
}
