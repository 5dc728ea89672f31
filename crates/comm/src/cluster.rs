//! Multi-process cluster bootstrap: one shared [`ClusterConfig`], one
//! OS process per node.
//!
//! A distributed run works like `mpirun` without the launcher daemon:
//! every process is started with the *same* configuration (same world
//! size, same node→rank map, same ports, same seed) plus a
//! `--current-node` selector; each process calls [`run_node_obs`] with its
//! own node id, the processes mesh up over TCP ([`crate::net`]), and
//! each returns the results of the ranks it hosts. A launcher (see
//! `cpx-replay`'s `multiproc_smoke` bin or the chaos harness) spawns
//! the children, waits, and merges the per-node results in rank order.
//!
//! Because all timing inside the rank programs is virtual and every
//! fault decision is a pure function of the plan, a crash-free run
//! produces **bit-identical reports and event logs** whether the world
//! runs in one process ([`crate::World::run_with_plan_logged`]) or
//! across many ([`run_node_obs`] on each) — the golden
//! `multiproc_smoke` corpus in the repository enforces exactly this.

use std::io;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use cpx_machine::Machine;
use cpx_obs::{NetStats, NodeObs, TraceSession, WallRecorder};

use crate::fault::FaultPlan;
use crate::net::NetMesh;
use crate::runtime::{install_quiet_fault_hook, run_endpoints, CommEvent, RankCtx, RankRun};
use crate::transport::Transport;

/// The one configuration every process of a distributed run shares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Listen address of each node, indexed by node id.
    pub addrs: Vec<String>,
    /// World ranks hosted by each node, indexed by node id.
    pub node_ranks: Vec<Vec<usize>>,
    /// Seed for connection-retry jitter (distinct per dialing pair; has
    /// no effect on virtual-time results).
    pub seed: u64,
    /// Total budget for dialing each peer during mesh bring-up.
    pub connect_timeout: Duration,
    /// Heartbeat silence after which a peer node's unfinished ranks are
    /// declared dead.
    pub heartbeat_timeout: Duration,
}

impl ClusterConfig {
    /// A loopback cluster: `world_size` ranks block-partitioned over
    /// `nodes` processes listening on `base_port..base_port+nodes`.
    pub fn local(world_size: usize, nodes: usize, base_port: u16, seed: u64) -> ClusterConfig {
        assert!(nodes >= 1 && world_size >= nodes, "need >= 1 rank per node");
        assert!(
            ports_fit(base_port, nodes),
            "ports {base_port}..={} pass 65535",
            usize::from(base_port) + (nodes - 1)
        );
        let per = world_size / nodes;
        let extra = world_size % nodes;
        let mut node_ranks = Vec::with_capacity(nodes);
        let mut next = 0usize;
        for nd in 0..nodes {
            let take = per + usize::from(nd < extra);
            node_ranks.push((next..next + take).collect());
            next += take;
        }
        ClusterConfig {
            addrs: (0..nodes)
                .map(|i| format!("127.0.0.1:{}", usize::from(base_port) + i))
                .collect(),
            node_ranks,
            seed,
            connect_timeout: Duration::from_secs(10),
            heartbeat_timeout: Duration::from_secs(2),
        }
    }

    /// Total number of ranks.
    pub fn world_size(&self) -> usize {
        self.node_ranks.iter().map(|r| r.len()).sum()
    }

    /// Number of nodes (processes).
    pub fn nodes(&self) -> usize {
        self.node_ranks.len()
    }

    /// The node hosting `rank`.
    pub fn node_of(&self, rank: usize) -> Option<usize> {
        self.node_ranks
            .iter()
            .position(|ranks| ranks.contains(&rank))
    }
}

/// The results of one node's ranks, in local rank order.
#[derive(Debug)]
pub struct NodeRun<T> {
    /// The world ranks this node hosted (ascending).
    pub ranks: Vec<usize>,
    /// Outcome + report per hosted rank, parallel to `ranks`.
    pub runs: Vec<RankRun<T>>,
    /// Communication event log of the hosted ranks, concatenated in
    /// rank order (empty unless `logged`).
    pub log: Vec<CommEvent>,
}

/// What [`run_node_obs`] should observe on top of running the ranks.
///
/// The default is everything off, which makes `run_node_obs` just run
/// the ranks (and costs no more: disabled recorders are branch-on-bool
/// no-ops and a disabled [`NetStats`] is a branch on an `Option`
/// discriminant).
#[derive(Debug, Clone, Default)]
pub struct NodeObsOptions {
    /// Record a virtual-clock span/counter timeline per hosted rank.
    pub traced: bool,
    /// Record a wall-clock lane for this node (establish/run/shutdown).
    pub wall: bool,
    /// Count per-peer transport traffic, heartbeats, CRC failures and
    /// frame round-trip times.
    pub net_stats: bool,
    /// Serve `/metrics` + `/healthz` on this address for the duration
    /// of the run (e.g. `"127.0.0.1:9800"`).
    pub metrics_addr: Option<String>,
}

impl NodeObsOptions {
    /// Everything on except the HTTP endpoint.
    pub fn full() -> Self {
        NodeObsOptions {
            traced: true,
            wall: true,
            net_stats: true,
            metrics_addr: None,
        }
    }
}

/// Run this process's share of a distributed world: mesh up with the
/// other nodes of `cfg`, execute `f` on every locally hosted rank, and
/// tear the mesh down cleanly (goodbye, so peers don't mistake our exit
/// for a crash). Returns the hosted ranks' results plus the node's
/// observability bundle.
///
/// `f` sees exactly the same [`RankCtx`] API as under
/// [`crate::World::run_with_plan`]; world size, fault decisions and all
/// virtual-time accounting are identical across backends.
///
/// Depending on `opts` this records per-rank virtual timelines (with
/// recovery events), a node-level wall-clock lane, per-peer transport
/// statistics, and serves the live `/metrics` + `/healthz` endpoint
/// while ranks run. The returned [`NodeObs`] is what a child process
/// ships to the launcher (via [`NodeObs::encode`]) so the parent can
/// merge one Chrome trace and one `cluster_metrics.json` for the whole
/// cluster.
pub fn run_node_obs<T, F>(
    machine: Machine,
    cfg: &ClusterConfig,
    node: usize,
    plan: FaultPlan,
    logged: bool,
    opts: NodeObsOptions,
    f: F,
) -> io::Result<(NodeRun<T>, NodeObs)>
where
    T: Send + 'static,
    F: Fn(&mut RankCtx) -> T + Send + Sync + 'static,
{
    assert!(node < cfg.nodes(), "node id {node} out of range");
    // Real process deaths surface as CommError unwinds in surviving
    // ranks; keep them quiet like fault-plan unwinds.
    install_quiet_fault_hook();

    let stats = if opts.net_stats {
        NetStats::on(node, cfg.nodes())
    } else {
        NetStats::off()
    };
    let mut wall = if opts.wall {
        WallRecorder::on()
    } else {
        WallRecorder::off()
    };
    // SystemTime at the wall recorder's epoch, so the launcher can
    // shift each node's wall lane onto a shared axis.
    let wall_epoch_unix = wall.is_on().then(|| {
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs_f64())
            .unwrap_or(0.0)
    });

    wall.begin("establish");
    let mut mesh = NetMesh::establish(
        node,
        &cfg.addrs,
        &cfg.node_ranks,
        cfg.connect_timeout,
        cfg.heartbeat_timeout,
        cfg.seed,
        stats,
    )?;
    wall.end();

    let server = match &opts.metrics_addr {
        Some(addr) => Some(mesh.serve_metrics(addr)?),
        None => None,
    };

    let endpoints: Vec<(usize, Box<dyn Transport>)> = mesh
        .take_transports()
        .into_iter()
        .map(|(rank, t)| (rank, Box::new(t) as Box<dyn Transport>))
        .collect();
    let world_size = cfg.world_size();
    wall.begin("run");
    let results = run_endpoints(
        Arc::new(machine),
        world_size,
        endpoints,
        Arc::new(plan),
        opts.traced,
        logged,
        Arc::new(f),
    );
    wall.end();

    // Snapshot transport counters before goodbye traffic muddies them,
    // but after the ranks are done so the totals cover the whole run.
    let net = mesh.net_snapshot();
    wall.begin("shutdown");
    if let Some(server) = server {
        server.stop();
    }
    mesh.shutdown();
    wall.end();

    let mut ranks = Vec::with_capacity(results.len());
    let mut runs = Vec::with_capacity(results.len());
    let mut log = Vec::new();
    let mut lanes = Vec::new();
    let mut ordered = results;
    ordered.sort_by_key(|(rank, ..)| *rank);
    for (rank, run, timeline, rank_log) in ordered {
        ranks.push(rank);
        runs.push(run);
        log.extend(rank_log);
        if opts.traced {
            lanes.push(timeline);
        }
    }
    let obs = NodeObs {
        node,
        virt: TraceSession::new(lanes),
        wall: wall
            .is_on()
            .then(|| TraceSession::new(vec![wall.into_timeline(node)])),
        wall_epoch_unix,
        net,
    };
    Ok((NodeRun { ranks, runs, log }, obs))
}

/// Whether the `count` consecutive ports `base, base + 1, …` all fit in
/// a `u16`. The multi-process binaries check their port ranges with it
/// before spawning any child.
pub fn ports_fit(base: u16, count: usize) -> bool {
    usize::from(base)
        .checked_add(count)
        .is_some_and(|end| end <= 1 << 16)
}

/// Reserve `n` distinct free loopback TCP ports.
///
/// Binds `n` listeners on port 0, records the kernel-assigned ports,
/// then drops the listeners. The usual caveat applies: the ports are
/// only *likely* still free when the caller binds them again, which is
/// plenty for tests and local smoke harnesses.
pub fn free_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback port 0"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local_addr").port())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_config_partitions_all_ranks() {
        let cfg = ClusterConfig::local(8, 3, 9100, 42);
        assert_eq!(cfg.nodes(), 3);
        assert_eq!(cfg.world_size(), 8);
        assert_eq!(cfg.node_ranks[0], vec![0, 1, 2]);
        assert_eq!(cfg.node_ranks[1], vec![3, 4, 5]);
        assert_eq!(cfg.node_ranks[2], vec![6, 7]);
        assert_eq!(cfg.node_of(4), Some(1));
        assert_eq!(cfg.node_of(7), Some(2));
        assert_eq!(cfg.node_of(8), None);
        assert_eq!(cfg.addrs[2], "127.0.0.1:9102");
    }

    #[test]
    #[should_panic(expected = "ports 65534..=65536 pass 65535")]
    fn local_config_rejects_ports_past_u16() {
        ClusterConfig::local(8, 3, 65534, 0);
    }

    #[test]
    fn ports_fit_stops_at_65535() {
        assert!(ports_fit(65532, 4));
        assert!(!ports_fit(65533, 4));
        assert!(!ports_fit(65535, 2));
        assert!(ports_fit(65535, 0));
        assert!(ports_fit(23800, 10_434 * 4));
        assert!(!ports_fit(23800, 10_435 * 4));
        assert!(!ports_fit(0, usize::MAX));
    }
}
