//! Parametric cluster description.
//!
//! A [`Machine`] captures just enough of a real system to integrate the
//! timing of message-passing mini-apps: node geometry, sustained per-core
//! compute and memory rates, and a two-level (intra-node / inter-node)
//! latency–bandwidth network model.
//!
//! The preset returned by [`Machine::archer2`] is calibrated to the
//! HPE-Cray EX system used in the paper (2 × 64-core AMD EPYC 7742 per
//! node, Slingshot interconnect). The absolute constants are deliberately
//! conservative "sustained" figures rather than peaks — the reproduction
//! targets the *shape* of the scaling curves, which is governed by the
//! ratios between these constants.

use serde::{Deserialize, Serialize};

use crate::cost::KernelCost;

/// Description of a homogeneous cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Machine {
    /// Human-readable machine name (appears in reports).
    pub name: String,
    /// Physical cores per node; ranks are placed round-robin in blocks,
    /// i.e. rank `r` lives on node `r / cores_per_node`.
    pub cores_per_node: usize,
    /// Sustained double-precision rate of one core for unstructured-mesh
    /// style kernels, in FLOP/s.
    pub flops_per_core: f64,
    /// Sustained memory bandwidth available to one core when all cores of
    /// the node are active, in bytes/s.
    pub mem_bw_per_core: f64,
    /// One-way latency between two ranks on the same node, in seconds.
    pub intra_latency: f64,
    /// Point-to-point bandwidth between two ranks on the same node, bytes/s.
    pub intra_bandwidth: f64,
    /// One-way latency between two ranks on different nodes, in seconds.
    pub inter_latency: f64,
    /// Point-to-point bandwidth between two ranks on different nodes,
    /// bytes/s. This is the *per-rank effective* share of the NIC when the
    /// node is busy, not the NIC peak.
    pub inter_bandwidth: f64,
    /// Fixed per-message software overhead charged to the sender
    /// (MPI stack traversal), in seconds.
    pub send_overhead: f64,
}

impl Machine {
    /// ARCHER2-like preset: HPE-Cray EX, 128 cores/node
    /// (2 × 64C AMD EPYC 7742 @ 2.25 GHz), Slingshot-10 interconnect.
    ///
    /// Sustained figures: ~2.2 GFLOP/s/core and ~1.56 GB/s/core memory
    /// bandwidth (≈200 GB/s/node shared by 128 cores), 2 µs inter-node
    /// latency and ~1.5 GB/s effective per-rank inter-node bandwidth.
    pub fn archer2() -> Self {
        Machine {
            name: "ARCHER2 (HPE-Cray EX)".to_string(),
            cores_per_node: 128,
            flops_per_core: 2.2e9,
            mem_bw_per_core: 1.56e9,
            intra_latency: 4.0e-7,
            intra_bandwidth: 8.0e9,
            inter_latency: 2.0e-6,
            inter_bandwidth: 1.5e9,
            send_overhead: 2.5e-7,
        }
    }

    /// The 32-core machine the production pressure solver was benchmarked
    /// on in the related work the paper cites (§II-B notes the hardware
    /// difference: 32 cores/node vs 128). Useful for ablations.
    pub fn legacy32() -> Self {
        Machine {
            name: "legacy 32c/node cluster".to_string(),
            cores_per_node: 32,
            flops_per_core: 1.8e9,
            mem_bw_per_core: 3.0e9,
            intra_latency: 5.0e-7,
            intra_bandwidth: 6.0e9,
            inter_latency: 1.5e-6,
            inter_bandwidth: 1.2e9,
            send_overhead: 3.0e-7,
        }
    }

    /// Node index hosting `rank`.
    #[inline]
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.cores_per_node
    }

    /// Whether two ranks share a node.
    #[inline]
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// Number of nodes needed for `ranks` ranks.
    #[inline]
    pub fn nodes_for(&self, ranks: usize) -> usize {
        ranks.div_ceil(self.cores_per_node)
    }

    /// Time for a point-to-point message of `bytes` between `src` and
    /// `dst` (first-byte latency + serialization).
    #[inline]
    pub fn p2p_time(&self, src: usize, dst: usize, bytes: usize) -> f64 {
        if src == dst {
            // Self-message: a memcpy.
            return bytes as f64 / (2.0 * self.intra_bandwidth);
        }
        let (lat, bw) = if self.same_node(src, dst) {
            (self.intra_latency, self.intra_bandwidth)
        } else {
            (self.inter_latency, self.inter_bandwidth)
        };
        lat + bytes as f64 / bw
    }

    /// Latency/bandwidth pair for a group of ranks: if the whole group
    /// fits on one node, intra-node figures are used, otherwise inter-node.
    pub fn group_link(&self, group_size: usize) -> (f64, f64) {
        if group_size <= self.cores_per_node {
            (self.intra_latency, self.intra_bandwidth)
        } else {
            (self.inter_latency, self.inter_bandwidth)
        }
    }

    /// Convert a roofline kernel cost into seconds on one core.
    ///
    /// The kernel is assumed to be limited by whichever of its compute or
    /// memory demands is slower (perfect overlap of the other), which is
    /// the standard roofline assumption for the streaming kernels that
    /// dominate CFD, PIC and sparse solvers.
    #[inline]
    pub fn kernel_time(&self, cost: KernelCost) -> f64 {
        let tf = cost.flops / self.flops_per_core;
        let tb = cost.bytes / self.mem_bw_per_core;
        tf.max(tb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_placement_is_block_round_robin() {
        let m = Machine::archer2();
        assert_eq!(m.node_of(0), 0);
        assert_eq!(m.node_of(127), 0);
        assert_eq!(m.node_of(128), 1);
        assert!(m.same_node(0, 127));
        assert!(!m.same_node(127, 128));
    }

    #[test]
    fn nodes_for_rounds_up() {
        let m = Machine::archer2();
        assert_eq!(m.nodes_for(1), 1);
        assert_eq!(m.nodes_for(128), 1);
        assert_eq!(m.nodes_for(129), 2);
        assert_eq!(m.nodes_for(40_000), 313);
    }

    #[test]
    fn p2p_inter_node_slower_than_intra() {
        let m = Machine::archer2();
        let intra = m.p2p_time(0, 1, 8192);
        let inter = m.p2p_time(0, 128, 8192);
        assert!(inter > intra, "inter {inter} must exceed intra {intra}");
    }

    #[test]
    fn p2p_time_monotone_in_bytes() {
        let m = Machine::archer2();
        let mut prev = 0.0;
        for bytes in [0usize, 8, 64, 1024, 1 << 20] {
            let t = m.p2p_time(0, 500, bytes);
            assert!(t >= prev);
            prev = t;
        }
    }

    #[test]
    fn kernel_time_roofline() {
        let m = Machine::archer2();
        // Pure compute kernel.
        let t = m.kernel_time(KernelCost::flops(2.2e9));
        assert!((t - 1.0).abs() < 1e-12);
        // Pure streaming kernel.
        let t = m.kernel_time(KernelCost::bytes(1.56e9));
        assert!((t - 1.0).abs() < 1e-12);
        // Mixed: limited by the slower resource.
        let t = m.kernel_time(KernelCost::new(2.2e9, 0.78e9));
        assert!((t - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_custom_machine_uses_its_own_links() {
        let m = Machine {
            name: "test".to_string(),
            cores_per_node: 4,
            flops_per_core: 1.0,
            mem_bw_per_core: 1.0,
            intra_latency: 1e-6,
            intra_bandwidth: 1e9,
            inter_latency: 1e-3,
            inter_bandwidth: 1e6,
            send_overhead: 0.0,
        };
        assert_eq!(m.node_of(5), 1);
        assert!((m.p2p_time(0, 4, 1000) - (1e-3 + 1e-3)).abs() < 1e-9);
    }

    #[test]
    fn self_message_is_cheap() {
        let m = Machine::archer2();
        assert!(m.p2p_time(3, 3, 4096) < m.p2p_time(3, 4, 4096));
    }
}
