//! Critical-path analytics over happens-before task graphs.
//!
//! A [`TaskGraph`] is the causal (PERT-style) view of one coupled run:
//! every compute burst, point-to-point message and collective becomes a
//! node, ordered by the two dependence kinds the testbed has — program
//! order within a rank, and message/collective arrivals across ranks.
//! `cpx_machine::build_task_graph` records one while the DES replays a
//! program; nothing here touches a hot path.
//!
//! A [`TaskGraphBuilder`] places nodes one at a time, in an order a
//! forward sweep can follow: each node after its rank's last one, a
//! receive after the send whose handle it takes, and the members of a
//! collective together, in ascending rank. So every graph that can be
//! built can be scheduled. The built graph *is* the sweep plan: its
//! nodes in placement order, laid out as flat arrays, plus a read-only
//! table of the nodes by id ([`Plan::nodes`]) that every per-node output
//! is indexed by.
//!
//! Three analyses run on a graph:
//!
//! * [`TaskGraph::schedule`] — one sweep over the plan that replays the
//!   discrete-event semantics of `cpx_machine::des` *exactly* (same
//!   float operations, in the replayer's own run-to-block order), so the
//!   baseline makespan bit-matches the replayer's;
//! * [`TaskGraph::critical_path`] — the backward walk along binding
//!   constraints from the finishing node, yielding a gap-free chain of
//!   segments (compute, send overhead, wire transfer, collective) that
//!   tiles `[0, makespan]`;
//! * [`TaskGraph::slack`] — a latest-end pass giving, per node, how far
//!   it could slip without moving the makespan (0 on the critical path).
//!
//! The **what-if engine** is the same sweep parameterised by a
//! [`Rescale`]: scale any phase's compute cost (a hypothetical kernel
//! optimisation) or any tag range's transfer time (a hypothetical
//! interconnect/coupler change) and the new makespan — hence the
//! end-to-end speedup — falls out without re-deriving the program.

use std::convert::Infallible;
use std::ops::Deref;

use crate::Json;

/// Index of a node in [`Plan::nodes`]: each rank's nodes in program
/// order, ranks concatenated.
pub type NodeId = usize;

/// What a node does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Local computation: ends after its rescaled duration.
    Compute,
    /// Eager send: ends after the send overhead, which is never
    /// rescaled. Its message reaches the receiver its wire time after
    /// the send *starts* (the DES convention).
    Send,
    /// Blocking receive: ends when its message arrives, if it has not
    /// yet.
    Recv,
    /// One member's part in a collective: leaves with the whole meet.
    Meet,
}

/// One node of a built graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node {
    /// Rank the node runs on.
    pub rank: u32,
    /// Phase id active when it runs (0 = untracked).
    pub phase: u16,
    /// What it does.
    pub step: Step,
    /// Its position in the plan.
    pos: Link,
}

/// A message in flight, from the [`TaskGraphBuilder::send`] that placed
/// its send to the [`TaskGraphBuilder::recv`] that takes it. It is not
/// `Clone`, so no send is received twice.
#[derive(Debug)]
pub struct Sent {
    /// Position of the send.
    pos: Link,
    /// Seconds on the wire.
    wire: f64,
}

/// A built graph, read through a [`TaskGraph`]: the sweep plan, which
/// holds the nodes in placement order as flat arrays indexed by
/// *position*, and the node table by id.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    /// Every node, by id.
    pub nodes: Vec<Node>,
    /// Number of ranks.
    pub n_ranks: usize,
    /// Phase id → display name (index 0 = untracked).
    pub phase_names: Vec<String>,
    /// Node id at each position.
    id: Vec<Link>,
    /// Position of the node's rank's previous node ([`NONE`] for its
    /// first).
    prev: Vec<Link>,
    step: Vec<Step>,
    /// A compute node's phase, a send's tag, a receive's send position,
    /// a member's meet.
    key: Vec<u32>,
    /// The unscaled cost: a rigid node's duration, a receive's wire
    /// time, 0 for a member.
    cost: Vec<f64>,
    /// Per receive, in position order: its send's `prev` position and
    /// tag, so the sweep reads them in stride.
    sent: Vec<(Link, u32)>,
    meets: Vec<Meet>,
}

/// One collective occurrence: its members fill the `size` positions
/// from `first`, in ascending rank, and all leave `cost` seconds after
/// the last one enters.
#[derive(Debug, Clone)]
struct Meet {
    first: Link,
    size: Link,
    cost: f64,
    /// Human label (e.g. `"allreduce"`) for blamed-span output.
    label: &'static str,
}

/// A node position or id in the plan's 32-bit arrays: 32 bits halve
/// their memory traffic, and the sweep is bound by memory traffic.
type Link = u32;
/// "No node" in a link array.
const NONE: Link = Link::MAX;

/// Why a [`TaskGraphBuilder`] could not finish its graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// More nodes than the plan's 32-bit positions can index.
    TooLarge {
        /// The graph's node count.
        nodes: usize,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::TooLarge { nodes } => {
                write!(f, "{nodes} nodes exceed the sweep plan's 32-bit positions")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Places the nodes of a [`TaskGraph`] in an order the sweep can follow
/// (see the module docs). A node's id is its place in its rank's
/// program order, after every lower rank's nodes, whatever order the
/// ranks are interleaved in.
///
/// ```
/// use cpx_obs::{Rescale, TaskGraphBuilder};
///
/// let mut b = TaskGraphBuilder::new(2, vec!["(untracked)".into()]);
/// b.compute(1, 0, 2.0);
/// let msg = b.send(1, 0, 0.5, 7, 1.0);
/// b.recv(0, 0, msg);
/// let graph = b.finish().unwrap();
/// assert_eq!(graph.nodes.len(), 3);
/// // Rank 0's receive is node 0.
/// assert_eq!(graph.schedule(&Rescale::none()).unwrap().end, [3.0, 2.0, 2.5]);
/// ```
///
/// A message is received at most once:
///
/// ```compile_fail,E0382
/// # use cpx_obs::TaskGraphBuilder;
/// let mut b = TaskGraphBuilder::new(2, vec![]);
/// let msg = b.send(0, 0, 0.0, 0, 1.0);
/// b.recv(1, 0, msg);
/// b.recv(1, 0, msg);
/// ```
///
/// and a built graph cannot be edited, neither its nodes:
///
/// ```compile_fail,E0596
/// # use cpx_obs::TaskGraphBuilder;
/// let mut b = TaskGraphBuilder::new(1, vec![]);
/// b.compute(0, 0, 1.0);
/// let mut graph = b.finish().unwrap();
/// graph.nodes[0].phase = 1;
/// ```
///
/// nor its phase names:
///
/// ```compile_fail,E0596
/// # use cpx_obs::TaskGraphBuilder;
/// let mut graph = TaskGraphBuilder::new(1, vec![]).finish().unwrap();
/// graph.phase_names.push("more".into());
/// ```
#[derive(Debug)]
pub struct TaskGraphBuilder {
    /// The plan so far, with `nodes` in position order until
    /// [`TaskGraphBuilder::finish`] numbers them.
    plan: Plan,
    /// Per rank: the position of its last node ([`NONE`] before its
    /// first).
    last: Vec<Link>,
}

impl TaskGraphBuilder {
    /// An empty graph over `n_ranks` ranks.
    pub fn new(n_ranks: usize, phase_names: Vec<String>) -> Self {
        TaskGraphBuilder {
            plan: Plan {
                n_ranks,
                phase_names,
                ..Plan::default()
            },
            last: vec![NONE; n_ranks],
        }
    }

    /// Position of the next node. Past [`NONE`] it wraps, and
    /// [`TaskGraphBuilder::finish`] rejects the graph.
    fn next(&self) -> Link {
        self.plan.prev.len() as Link
    }

    /// Place a node on `rank`, after the rank's last node.
    fn place(&mut self, rank: usize, phase: u16, step: Step, key: u32, cost: f64) {
        let pos = self.next();
        let plan = &mut self.plan;
        plan.prev.push(std::mem::replace(&mut self.last[rank], pos));
        plan.step.push(step);
        plan.key.push(key);
        plan.cost.push(cost);
        plan.nodes.push(Node {
            rank: rank as u32,
            phase,
            step,
            pos,
        });
    }

    /// Place `dur` seconds of compute on `rank`.
    pub fn compute(&mut self, rank: usize, phase: u16, dur: f64) {
        self.place(rank, phase, Step::Compute, u32::from(phase), dur);
    }

    /// Place a send on `rank` that costs the sender `overhead` seconds;
    /// its message, tagged `tag`, spends `wire` seconds on the wire.
    pub fn send(&mut self, rank: usize, phase: u16, overhead: f64, tag: u32, wire: f64) -> Sent {
        let pos = self.next();
        self.place(rank, phase, Step::Send, tag, overhead);
        Sent { pos, wire }
    }

    /// Place the receive of `msg` on `rank`.
    pub fn recv(&mut self, rank: usize, phase: u16, msg: Sent) {
        let send = msg.pos as usize;
        let sent = (self.plan.prev[send], self.plan.key[send]);
        self.plan.sent.push(sent);
        self.place(rank, phase, Step::Recv, msg.pos, msg.wire);
    }

    /// Place one collective occurrence: a member on each of `members`'
    /// `(rank, phase)`, all leaving `cost` seconds after the last one
    /// enters.
    ///
    /// # Panics
    ///
    /// If the ranks are not strictly ascending.
    pub fn meet(
        &mut self,
        members: impl IntoIterator<Item = (usize, u16)>,
        cost: f64,
        label: &'static str,
    ) {
        let meet = self.plan.meets.len() as u32;
        let first = self.next();
        let mut last = None;
        for (rank, phase) in members {
            assert!(last < Some(rank), "meet members must ascend by rank");
            last = Some(rank);
            self.place(rank, phase, Step::Meet, meet, 0.0);
        }
        let size = self.next().wrapping_sub(first);
        self.plan.meets.push(Meet {
            first,
            size,
            cost,
            label,
        });
    }

    /// The graph, with each node numbered by its rank and its place in
    /// the rank's program order.
    pub fn finish(self) -> Result<TaskGraph, GraphError> {
        let mut plan = self.plan;
        let n = plan.nodes.len();
        if n >= NONE as usize {
            return Err(GraphError::TooLarge { nodes: n });
        }
        // Each rank's first id follows every lower rank's nodes.
        let mut next = vec![0 as Link; plan.n_ranks];
        for node in &plan.nodes {
            next[node.rank as usize] += 1;
        }
        let mut sum = 0;
        for slot in &mut next {
            sum += std::mem::replace(slot, sum);
        }
        let mut nodes = plan.nodes.clone();
        plan.id = plan
            .nodes
            .iter()
            .map(|node| {
                let id = &mut next[node.rank as usize];
                nodes[*id as usize] = *node;
                *id += 1;
                *id - 1
            })
            .collect();
        plan.nodes = nodes;
        Ok(TaskGraph { plan })
    }
}

/// The causal graph of one run, built by a [`TaskGraphBuilder`]. Its
/// [`Plan`] is readable through `Deref` but cannot be changed, so every
/// schedule and what-if sweeps the graph that was built.
#[derive(Debug, Clone)]
pub struct TaskGraph {
    plan: Plan,
}

impl Deref for TaskGraph {
    type Target = Plan;

    fn deref(&self) -> &Plan {
        &self.plan
    }
}

/// A what-if transform applied during [`TaskGraph::schedule`].
///
/// `compute_by_phase[p]` multiplies the duration of every compute node
/// in phase `p` (missing entries mean 1.0). `transfer_by_tag` entries
/// `(lo, hi, f)` multiply the wire time of every message whose tag lies
/// in `lo..=hi`. [`Rescale::none`] is the identity: multiplying by 1.0
/// is bit-exact, so the baseline schedule reproduces the DES replay.
#[derive(Debug, Clone, Default)]
pub struct Rescale {
    /// Per-phase compute multipliers (index = phase id).
    pub compute_by_phase: Vec<f64>,
    /// Inclusive tag ranges with transfer-time multipliers.
    pub transfer_by_tag: Vec<(u32, u32, f64)>,
}

impl Rescale {
    /// The identity transform.
    pub fn none() -> Rescale {
        Rescale::default()
    }

    /// Multiplier for compute in phase `p`.
    #[inline]
    fn compute_factor(&self, p: u16) -> f64 {
        *self.compute_by_phase.get(p as usize).unwrap_or(&1.0)
    }

    /// Multiplier for a transfer with tag `t`.
    #[inline]
    fn transfer_factor(&self, t: u32) -> f64 {
        for &(lo, hi, f) in &self.transfer_by_tag {
            if (lo..=hi).contains(&t) {
                return f;
            }
        }
        1.0
    }
}

/// Blend a kernel-level speedup into a phase-level compute multiplier:
/// if the kernel accounts for `share ∈ [0,1]` of the phase's compute
/// and gets `speedup`× faster, the phase's compute scales by
/// `1 - share + share/speedup` (Amdahl within the phase).
pub fn blend_factor(share: f64, speedup: f64) -> f64 {
    1.0 - share + share / speedup
}

/// The result of a sweep: per-node times, and the transform they were
/// computed under. The backward analyses take it with the graph it came
/// from.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Node start times, by id.
    pub start: Vec<f64>,
    /// Node end times, by id.
    pub end: Vec<f64>,
    /// Exit time per meet, in placement order.
    pub meet_end: Vec<f64>,
    /// Max end over all nodes (0.0 for an empty graph).
    pub makespan: f64,
    /// Node achieving the makespan (lowest id on ties); `None` when the
    /// graph is empty.
    pub sink: Option<NodeId>,
    /// The transform the sweep ran under. The backward analyses derive
    /// each node's effective duration and wire time from it with the
    /// sweep's own product, so they see the bits the sweep used.
    pub rescale: Rescale,
}

/// One sweep's times, by plan position.
struct Sweep {
    end: Vec<f64>,
    meet_end: Vec<f64>,
    makespan: f64,
}

/// How a critical-path segment spends its time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegClass {
    /// Local computation.
    Compute,
    /// Communication: send overhead, wire transfer or collective cost.
    Comm,
}

/// One contiguous stretch of the critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathSegment {
    /// Rank blamed for the segment (the sender for transfers, the
    /// last-arriving member for collectives).
    pub rank: usize,
    /// Phase id of the blamed node.
    pub phase: u16,
    /// Compute or comm.
    pub class: SegClass,
    /// Short label (`"compute"`, `"send"`, `"transfer"`, or the
    /// collective kind).
    pub label: &'static str,
    /// Segment start time.
    pub t0: f64,
    /// Segment end time.
    pub t1: f64,
}

impl PathSegment {
    /// Segment duration.
    pub fn dur(&self) -> f64 {
        self.t1 - self.t0
    }
}

/// The extracted critical path: binding segments from time 0 to the
/// makespan, earliest first.
#[derive(Debug, Clone, Default)]
pub struct CriticalPath {
    /// Segments in increasing time order; they tile `[0, makespan]`.
    pub segments: Vec<PathSegment>,
    /// The schedule's makespan.
    pub makespan: f64,
}

impl CriticalPath {
    /// Total compute seconds on the path.
    pub fn compute_s(&self) -> f64 {
        self.class_total(SegClass::Compute)
    }

    /// Total communication seconds on the path.
    pub fn comm_s(&self) -> f64 {
        self.class_total(SegClass::Comm)
    }

    fn class_total(&self, c: SegClass) -> f64 {
        self.segments
            .iter()
            .filter(|s| s.class == c)
            .map(PathSegment::dur)
            .sum()
    }

    /// Fraction of the makespan covered by path segments — 1.0 up to
    /// float roundoff (the walk is gap-free by construction).
    pub fn coverage(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 1.0;
        }
        self.segments.iter().map(PathSegment::dur).sum::<f64>() / self.makespan
    }
}

/// Graph-wide time attribution per phase: where *all* ranks' time went,
/// split compute / comm / idle-wait (the DES replayer folds the last
/// two together as "comm"; here waiting on a dependency is its own
/// bucket, which is what makes blame actionable).
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Per-phase compute seconds summed over ranks.
    pub compute: Vec<f64>,
    /// Per-phase communication seconds (send overheads + collective
    /// costs) summed over ranks.
    pub comm: Vec<f64>,
    /// Per-phase idle seconds waiting on a dependency (receive waits +
    /// collective waits) summed over ranks.
    pub wait: Vec<f64>,
}

impl Plan {
    /// The cost of the node at position `k` under `rescale`: its
    /// effective duration or, for a receive, its effective wire time (0
    /// for a collective member). The sweep and the backward analyses all
    /// evaluate this product of these two operands, so they see the same
    /// bits.
    #[inline]
    fn scaled_cost(&self, k: usize, rescale: &Rescale) -> f64 {
        let key = self.key[k];
        self.cost[k]
            * match self.step[k] {
                Step::Compute => rescale.compute_factor(key as u16),
                Step::Recv => rescale.transfer_factor(self.key[key as usize]),
                Step::Send | Step::Meet => 1.0,
            }
    }

    /// The positions of meet `m`'s members.
    fn members(&self, m: usize) -> std::ops::Range<usize> {
        let meet = &self.meets[m];
        meet.first as usize..(meet.first + meet.size) as usize
    }
}

impl TaskGraph {
    /// Every node's times under `rescale`: one sweep over the plan.
    /// Every graph the builder can make can be scheduled, so this never
    /// fails.
    pub fn schedule(&self, rescale: &Rescale) -> Result<Schedule, Infallible> {
        let Sweep {
            end: by_pos,
            meet_end,
            makespan,
        } = self.sweep(rescale);
        let n = by_pos.len();
        let mut end = vec![0.0f64; n];
        for (&i, &e) in self.id.iter().zip(&by_pos) {
            end[i as usize] = e;
        }
        drop(by_pos);
        // A node starts when its `prev` ends, or at 0.
        let mut start = vec![0.0f64; n];
        for (&i, &p) in self.id.iter().zip(&self.prev) {
            if p != NONE {
                start[i as usize] = end[self.id[p as usize] as usize];
            }
        }
        // Lowest id on ties; node 0 when nothing ends after time 0.
        let sink = (n > 0).then(|| {
            end.iter()
                .position(|&e| e > 0.0 && e == makespan)
                .unwrap_or(0)
        });
        Ok(Schedule {
            start,
            end,
            meet_end,
            makespan,
            sink,
            rescale: rescale.clone(),
        })
    }

    /// New makespan under `rescale` — the what-if engine's core query:
    /// the same sweep as [`TaskGraph::schedule`], keeping only the
    /// makespan. Never fails.
    pub fn what_if_makespan(&self, rescale: &Rescale) -> Result<f64, Infallible> {
        Ok(self.sweep(rescale).makespan)
    }

    /// Every node's end time under `rescale`, by plan position, in one
    /// pass over the plan. This is the only place the replayer's float
    /// expressions are evaluated: a rigid node ends at `start + cost`, a
    /// receive at `start + (arrival - start).max(0.0)` with the arrival
    /// computed from the send's start, and a meet's members all leave at
    /// the `max` of their entries, folded from 0.0 in rank order, plus
    /// the meet's cost. A node reads only earlier positions, whose times
    /// are final, so each expression sees the DES's operands.
    fn sweep(&self, rescale: &Rescale) -> Sweep {
        let n = self.id.len();
        let mut end: Vec<f64> = Vec::with_capacity(n);
        let mut meet_end = vec![0.0f64; self.meets.len()];
        let mut makespan = 0.0f64;
        let mut sent = self.sent.iter();
        // A node starts when its `prev` ends, or at 0.
        let start = |end: &[f64], p: Link| if p == NONE { 0.0 } else { end[p as usize] };
        while end.len() < n {
            let k = end.len();
            let s = start(&end, self.prev[k]);
            let e = match self.step[k] {
                Step::Compute | Step::Send => {
                    let e = s + self.scaled_cost(k, rescale);
                    end.push(e);
                    e
                }
                Step::Recv => {
                    // `scaled_cost`'s product, with the send's `prev`
                    // and tag read in stride.
                    let &(from, tag) = sent.next().expect("one entry per receive");
                    let arrival = start(&end, from) + self.cost[k] * rescale.transfer_factor(tag);
                    let e = s + (arrival - s).max(0.0);
                    end.push(e);
                    e
                }
                Step::Meet => {
                    let m = self.key[k] as usize;
                    let block = self.members(m);
                    let base = self.prev[block.clone()]
                        .iter()
                        .fold(0.0f64, |b, &p| b.max(start(&end, p)));
                    let exit = base + self.meets[m].cost;
                    meet_end[m] = exit;
                    end.resize(block.end, exit);
                    exit
                }
            };
            if e > makespan {
                makespan = e;
            }
        }
        Sweep {
            end,
            meet_end,
            makespan,
        }
    }

    /// Extract the critical path of `sched`, a schedule of this graph,
    /// by walking binding constraints backward from the sink.
    pub fn critical_path(&self, sched: &Schedule) -> CriticalPath {
        let mut segments = Vec::new();
        let node = |k: usize| self.nodes[self.id[k] as usize];
        let start = |k: usize| sched.start[self.id[k] as usize];
        let mut cur = sched.sink.map_or(NONE, |i| self.nodes[i].pos);
        while cur != NONE {
            let k = cur as usize;
            let Node { rank, phase, .. } = node(k);
            let (s, e) = (start(k), sched.end[self.id[k] as usize]);
            let mut push = |rank: u32, phase, class, label, t0| {
                segments.push(PathSegment {
                    rank: rank as usize,
                    phase,
                    class,
                    label,
                    t0,
                    t1: e,
                })
            };
            cur = self.prev[k];
            match self.step[k] {
                Step::Compute if e > s => push(rank, phase, SegClass::Compute, "compute", s),
                Step::Send if e > s => push(rank, phase, SegClass::Comm, "send", s),
                Step::Compute | Step::Send => {}
                Step::Recv => {
                    let send = self.key[k] as usize;
                    let arrival = start(send) + self.scaled_cost(k, &sched.rescale);
                    if arrival > s {
                        // The message bound: the wire segment from the
                        // send's start to the arrival is on the path,
                        // and the walk continues on the *sender* before
                        // the send was issued. Otherwise it arrived
                        // early, and local program order binds.
                        push(
                            node(send).rank,
                            phase,
                            SegClass::Comm,
                            "transfer",
                            start(send),
                        );
                        cur = self.prev[send];
                    }
                }
                Step::Meet => {
                    let m = self.key[k] as usize;
                    let block = self.members(m);
                    // Last-arriving member (lowest rank on ties)
                    // determines the exit.
                    let base = block.clone().map(start).fold(0.0f64, f64::max);
                    let det = block.clone().find(|&p| start(p) == base).unwrap_or(k);
                    if e > base {
                        let det_node = node(det);
                        let label = self.meets[m].label;
                        push(det_node.rank, det_node.phase, SegClass::Comm, label, base);
                    }
                    cur = self.prev[det];
                }
            }
        }
        segments.reverse();
        CriticalPath {
            segments,
            makespan: sched.makespan,
        }
    }

    /// Per-node slack under `sched`, a schedule of this graph: how many
    /// seconds the node's end could slip without moving the makespan.
    /// Nodes on the critical path have slack 0 (up to float roundoff).
    pub fn slack(&self, sched: &Schedule) -> Vec<f64> {
        let r = &sched.rescale;
        // Latest end by position, filled back to front: every node comes
        // after its `prev` and its matched send, and a meet's members
        // are consecutive and come before any member's successor.
        let mut latest = vec![sched.makespan; self.id.len()];
        let tighten = |latest: &mut [f64], p: Link, bound: f64| {
            if p != NONE {
                latest[p as usize] = latest[p as usize].min(bound);
            }
        };
        for k in (0..self.id.len()).rev() {
            let here = latest[k];
            match self.step[k] {
                Step::Meet => {
                    let m = self.key[k] as usize;
                    let block = self.members(m);
                    // Seen from its last member, once all members'
                    // dependents were processed, so their latests are
                    // final: the meet may exit at the tightest one.
                    if k + 1 == block.end {
                        let exit = block
                            .clone()
                            .map(|p| latest[p])
                            .fold(f64::INFINITY, f64::min);
                        let entry_latest = exit - self.meets[m].cost;
                        for p in block {
                            tighten(&mut latest, self.prev[p], entry_latest);
                        }
                    }
                }
                Step::Recv => {
                    // Elastic: the predecessor may run right up to this
                    // node's latest end; the sender is constrained
                    // through the wire.
                    tighten(&mut latest, self.prev[k], here);
                    let send = self.key[k];
                    let bound = here - self.scaled_cost(k, r) + self.scaled_cost(send as usize, r);
                    tighten(&mut latest, send, bound);
                }
                Step::Compute | Step::Send => {
                    tighten(&mut latest, self.prev[k], here - self.scaled_cost(k, r));
                }
            }
        }
        self.nodes
            .iter()
            .zip(&sched.end)
            .map(|(node, &end)| latest[node.pos as usize] - end)
            .collect()
    }

    /// Graph-wide per-phase attribution of every rank's time under
    /// `sched`, a schedule of this graph, summed in id order. There is a
    /// bucket for every named phase and every phase a node runs in.
    pub fn attribution(&self, sched: &Schedule) -> Attribution {
        let np = self.phase_names.len();
        let mut att = Attribution {
            compute: vec![0.0; np],
            comm: vec![0.0; np],
            wait: vec![0.0; np],
        };
        for (i, node) in self.nodes.iter().enumerate() {
            let p = node.phase as usize;
            if p >= att.compute.len() {
                for bucket in [&mut att.compute, &mut att.comm, &mut att.wait] {
                    bucket.resize(p + 1, 0.0);
                }
            }
            let k = node.pos as usize;
            match node.step {
                Step::Compute => att.compute[p] += self.scaled_cost(k, &sched.rescale),
                Step::Send => att.comm[p] += self.scaled_cost(k, &sched.rescale),
                Step::Recv => att.wait[p] += sched.end[i] - sched.start[i],
                Step::Meet => {
                    let m = self.key[k] as usize;
                    let exit = sched.meet_end[m];
                    let cost = self.meets[m].cost;
                    let entry = sched.start[i];
                    att.wait[p] += (exit - cost - entry).max(0.0);
                    att.comm[p] += cost;
                }
            }
        }
        att
    }
}

/// A blamed span: one of the longest segments on the critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct BlamedSpan {
    /// Blamed rank.
    pub rank: usize,
    /// Phase name.
    pub phase: String,
    /// Segment label (`"compute"`, `"transfer"`, ...).
    pub label: String,
    /// Compute or comm.
    pub class: SegClass,
    /// Start time.
    pub t0: f64,
    /// Duration.
    pub dur: f64,
}

/// The diffable summary of one critical-path analysis.
#[derive(Debug, Clone, Default)]
pub struct PathReport {
    /// Schedule makespan.
    pub makespan: f64,
    /// Compute seconds on the path.
    pub compute_s: f64,
    /// Comm seconds on the path.
    pub comm_s: f64,
    /// Path coverage of the makespan (≈ 1.0).
    pub coverage: f64,
    /// Number of path segments.
    pub segments: usize,
    /// Per phase: (name, path seconds, share of makespan in percent).
    pub by_phase: Vec<(String, f64, f64)>,
    /// The longest path segments, longest first.
    pub top_spans: Vec<BlamedSpan>,
}

/// Summarise a critical path: composition by phase plus the `top_n`
/// longest blamed spans. Phase names fall back to `"phase {id}"`.
pub fn path_report(graph: &TaskGraph, path: &CriticalPath, top_n: usize) -> PathReport {
    let phase_name = |p: u16| -> String {
        graph
            .phase_names
            .get(p as usize)
            .cloned()
            .unwrap_or_else(|| format!("phase {p}"))
    };

    // Path seconds per phase id, in first-appearance order made
    // deterministic by scanning ids ascending.
    let mut per_phase: Vec<f64> = Vec::new();
    for seg in &path.segments {
        let p = seg.phase as usize;
        if per_phase.len() <= p {
            per_phase.resize(p + 1, 0.0);
        }
        per_phase[p] += seg.dur();
    }
    let by_phase: Vec<(String, f64, f64)> = per_phase
        .iter()
        .enumerate()
        .filter(|(_, &s)| s > 0.0)
        .map(|(p, &s)| {
            let pct = if path.makespan > 0.0 {
                100.0 * s / path.makespan
            } else {
                0.0
            };
            (phase_name(p as u16), s, pct)
        })
        .collect();

    // Top-N longest segments; ties broken by earlier start, then rank.
    let mut idx: Vec<usize> = (0..path.segments.len()).collect();
    idx.sort_by(|&a, &b| {
        let (sa, sb) = (&path.segments[a], &path.segments[b]);
        sb.dur()
            .partial_cmp(&sa.dur())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(
                sa.t0
                    .partial_cmp(&sb.t0)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
            .then(sa.rank.cmp(&sb.rank))
    });
    let top_spans: Vec<BlamedSpan> = idx
        .into_iter()
        .take(top_n)
        .map(|k| {
            let s = &path.segments[k];
            BlamedSpan {
                rank: s.rank,
                phase: phase_name(s.phase),
                label: s.label.to_string(),
                class: s.class,
                t0: s.t0,
                dur: s.dur(),
            }
        })
        .collect();

    PathReport {
        makespan: path.makespan,
        compute_s: path.compute_s(),
        comm_s: path.comm_s(),
        coverage: path.coverage(),
        segments: path.segments.len(),
        by_phase,
        top_spans,
    }
}

impl PathReport {
    /// JSON form (deterministic field order).
    pub fn to_json(&self) -> Json {
        let phases: Vec<Json> = self
            .by_phase
            .iter()
            .map(|(name, s, pct)| {
                Json::obj(vec![
                    ("name", Json::Str(name.clone())),
                    ("path_s", Json::Num(*s)),
                    ("share_pct", Json::Num(*pct)),
                ])
            })
            .collect();
        let spans: Vec<Json> = self
            .top_spans
            .iter()
            .map(|b| {
                Json::obj(vec![
                    ("rank", Json::Num(b.rank as f64)),
                    ("phase", Json::Str(b.phase.clone())),
                    ("label", Json::Str(b.label.clone())),
                    (
                        "class",
                        Json::Str(
                            match b.class {
                                SegClass::Compute => "compute",
                                SegClass::Comm => "comm",
                            }
                            .to_string(),
                        ),
                    ),
                    ("t0", Json::Num(b.t0)),
                    ("dur", Json::Num(b.dur)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("makespan", Json::Num(self.makespan)),
            ("compute_s", Json::Num(self.compute_s)),
            ("comm_s", Json::Num(self.comm_s)),
            ("coverage", Json::Num(self.coverage)),
            ("segments", Json::Num(self.segments as f64)),
            ("by_phase", Json::Arr(phases)),
            ("top_spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// rank 0: compute 3s, send (overhead .5, wire 2).
    /// rank 1: compute 1s, recv.
    fn two_rank_graph() -> TaskGraph {
        let mut b = TaskGraphBuilder::new(2, vec!["(untracked)".into(), "a".into(), "b".into()]);
        b.compute(0, 1, 3.0);
        let msg = b.send(0, 1, 0.5, 7, 2.0);
        b.compute(1, 2, 1.0);
        b.recv(1, 2, msg);
        b.finish().unwrap()
    }

    #[test]
    fn forward_pass_matches_hand_schedule() {
        let g = two_rank_graph();
        let s = g.schedule(&Rescale::none()).unwrap();
        // Send starts at 3, arrival = 3 + 2 = 5; recv waits 1 -> 5.
        assert_eq!(s.end[0], 3.0);
        assert_eq!(s.end[1], 3.5);
        assert_eq!(s.end[2], 1.0);
        assert_eq!(s.end[3], 5.0);
        assert_eq!(s.makespan, 5.0);
        assert_eq!(s.sink, Some(3));
    }

    #[test]
    fn critical_path_tiles_makespan_and_blames_sender() {
        let g = two_rank_graph();
        let s = g.schedule(&Rescale::none()).unwrap();
        let path = g.critical_path(&s);
        // compute(0..3) on rank 0, transfer(3..5) blamed on rank 0.
        assert_eq!(path.segments.len(), 2);
        assert_eq!(path.segments[0].label, "compute");
        assert_eq!(path.segments[0].rank, 0);
        assert_eq!(path.segments[1].label, "transfer");
        assert_eq!(path.segments[1].t0, 3.0);
        assert_eq!(path.segments[1].t1, 5.0);
        assert!((path.coverage() - 1.0).abs() < 1e-12);
        assert_eq!(path.compute_s(), 3.0);
        assert_eq!(path.comm_s(), 2.0);
    }

    #[test]
    fn what_if_rescale_moves_the_makespan() {
        let g = two_rank_graph();
        // Halve phase-1 compute: send starts at 1.5, arrival 3.5.
        let r = Rescale {
            compute_by_phase: vec![1.0, 0.5],
            transfer_by_tag: vec![],
        };
        assert_eq!(g.what_if_makespan(&r).unwrap(), 3.5);
        // Halve the wire time instead: arrival 3 + 1 = 4.
        let r = Rescale {
            compute_by_phase: vec![],
            transfer_by_tag: vec![(7, 7, 0.5)],
        };
        assert_eq!(g.what_if_makespan(&r).unwrap(), 4.0);
        // Speeding up the *receiver's* compute changes nothing.
        let r = Rescale {
            compute_by_phase: vec![1.0, 1.0, 0.01],
            transfer_by_tag: vec![],
        };
        assert_eq!(g.what_if_makespan(&r).unwrap(), 5.0);
    }

    #[test]
    fn slack_is_zero_on_path_and_positive_off_it() {
        let g = two_rank_graph();
        let s = g.schedule(&Rescale::none()).unwrap();
        let slack = g.slack(&s);
        assert_eq!(slack[0], 0.0); // rank-0 compute: on path
        assert_eq!(slack[3], 0.0); // the recv: the sink
                                   // Rank-1 compute may slip until the arrival at t=5: 4s of slack.
        assert_eq!(slack[2], 4.0);
        // The send's *start* launches the binding transfer, so it is
        // pinned too: zero slack.
        assert_eq!(slack[1], 0.0);
    }

    /// Two ranks compute 1s and 4s, then an allreduce costing 0.25.
    /// Ids: rank 0's compute and member are 0 and 1, rank 1's 2 and 3.
    fn two_rank_meet() -> TaskGraph {
        let mut b = TaskGraphBuilder::new(2, vec!["(untracked)".into()]);
        b.compute(0, 0, 1.0);
        b.compute(1, 0, 4.0);
        b.meet([(0, 0), (1, 0)], 0.25, "allreduce");
        b.finish().unwrap()
    }

    #[test]
    fn collective_meet_charges_last_arrival_plus_cost() {
        let g = two_rank_meet();
        let s = g.schedule(&Rescale::none()).unwrap();
        assert_eq!(s.end[1], 4.25);
        assert_eq!(s.end[3], 4.25);
        let path = g.critical_path(&s);
        // compute on rank 1 (0..4), collective (4..4.25).
        assert_eq!(path.segments.len(), 2);
        assert_eq!(path.segments[0].rank, 1);
        assert_eq!(path.segments[1].label, "allreduce");
        let slack = g.slack(&s);
        assert_eq!(slack[2], 0.0);
        assert_eq!(slack[0], 3.0); // rank 0 may arrive 3s later
                                   // Attribution: rank 0 waited 3s, both paid the 0.25 cost.
        let att = g.attribution(&s);
        assert_eq!(att.wait[0], 3.0);
        assert_eq!(att.comm[0], 0.5);
        assert_eq!(att.compute[0], 5.0);
    }

    #[test]
    fn lanes_joined_by_a_barrier_per_step_wait_for_the_slower_lane() {
        // Two lanes with a barrier after every step: the shape of
        // `critical_study`'s STC overlap graph.
        let mut b = TaskGraphBuilder::new(2, vec!["(untracked)".into()]);
        for (a, c) in [(1.0, 2.0), (3.0, 0.5), (0.25, 0.25)] {
            b.compute(0, 0, a);
            b.compute(1, 0, c);
            b.meet([(0, 0), (1, 0)], 0.0, "barrier");
        }
        let g = b.finish().unwrap();
        let s = g.schedule(&Rescale::none()).unwrap();
        assert_eq!(s.makespan, 2.0 + 3.0 + 0.25);
        // The last step ties: the lower rank is blamed.
        let path = g.critical_path(&s);
        let ranks: Vec<usize> = path.segments.iter().map(|x| x.rank).collect();
        assert_eq!(ranks, [1, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "meet members must ascend by rank")]
    fn meet_members_must_ascend_by_rank() {
        let mut b = TaskGraphBuilder::new(2, vec![]);
        b.meet([(1, 0), (0, 0)], 0.0, "barrier");
    }

    #[test]
    fn attribution_keeps_unnamed_phases_apart() {
        // Compute in phase 3 with only phases 0 and 1 named: it gets its
        // own bucket instead of landing in phase 1's.
        let mut b = TaskGraphBuilder::new(1, vec!["(untracked)".into(), "a".into()]);
        b.compute(0, 1, 1.0);
        b.compute(0, 3, 2.0);
        let g = b.finish().unwrap();
        let att = g.attribution(&g.schedule(&Rescale::none()).unwrap());
        assert_eq!(att.compute, [0.0, 1.0, 0.0, 2.0]);
        assert_eq!(att.comm, [0.0; 4]);
        assert_eq!(att.wait, [0.0; 4]);
        let rep = path_report(
            &g,
            &g.critical_path(&g.schedule(&Rescale::none()).unwrap()),
            2,
        );
        assert_eq!(rep.top_spans[0].phase, "phase 3");
    }

    /// `two_rank_graph` under a rescale, checked against hand-derived
    /// values: the transfer segment's span, per-phase compute and comm,
    /// and every node's slack, the sender's included.
    fn check_rescaled(r: Rescale, transfer: (f64, f64), compute: [f64; 3], slack: [f64; 4]) {
        let g = two_rank_graph();
        let s = g.schedule(&r).unwrap();
        let path = g.critical_path(&s);
        let seg = path.segments.iter().find(|x| x.label == "transfer");
        assert_eq!(seg.map(|x| (x.t0, x.t1)), Some(transfer));
        assert_eq!(seg.unwrap().rank, 0);
        assert_eq!(path.compute_s() + path.comm_s(), s.makespan);
        let att = g.attribution(&s);
        assert_eq!(att.compute, compute);
        assert_eq!(att.comm, [0.0, 0.5, 0.0]);
        assert_eq!(g.slack(&s), slack);
    }

    #[test]
    fn rescaled_path_attribution_and_slack_use_the_rescaled_costs() {
        // Phase 1 (rank 0) twice as fast, phase 2 (rank 1) twice as
        // slow: the send starts at 1.5 and arrives at 3.5; rank 1's
        // compute ends at 2 and may slip 1.5. The send overhead is never
        // rescaled.
        check_rescaled(
            Rescale {
                compute_by_phase: vec![1.0, 0.5, 2.0],
                transfer_by_tag: vec![],
            },
            (1.5, 3.5),
            [0.0, 1.5, 2.0],
            [0.0, 0.0, 1.5, 0.0],
        );
        // Tag 7 on a wire twice as fast: the send still starts at 3, the
        // message arrives at 4.
        check_rescaled(
            Rescale {
                compute_by_phase: vec![],
                transfer_by_tag: vec![(7, 7, 0.5)],
            },
            (3.0, 4.0),
            [0.0, 3.0, 1.0],
            [0.0, 0.0, 3.0, 0.0],
        );
        // Both: rank 1's compute grows to 6 s and binds the receive, so
        // the sender gets slack, and how much depends on the rescaled
        // wire time: its message may leave as late as 6 - 1 = 5, so the
        // send may end at 5.5 (2 s later) rather than at 4.5 with the
        // unscaled wire.
        let r = Rescale {
            compute_by_phase: vec![1.0, 1.0, 6.0],
            transfer_by_tag: vec![(0, 9, 0.5)],
        };
        let g = two_rank_graph();
        let s = g.schedule(&r).unwrap();
        assert_eq!(s.makespan, 6.0);
        let path = g.critical_path(&s);
        assert_eq!(path.segments.len(), 1);
        assert_eq!(path.compute_s(), 6.0);
        assert_eq!(g.slack(&s), [2.0, 2.0, 0.0, 0.0]);
        let att = g.attribution(&s);
        assert_eq!(att.compute, [0.0, 3.0, 6.0]);
        assert_eq!(att.wait, [0.0, 0.0, 0.0]);
    }

    proptest::proptest! {
        #[test]
        fn every_graph_the_builder_makes_schedules(
            calls in proptest::collection::vec((0u8..4, 0usize..16, 0.0f64..2.0), 0..40),
            factor in 0.25f64..4.0,
        ) {
            // Random builder calls on 4 ranks: compute, a send, the
            // receive of the oldest message in flight, or a meet of the
            // ranks in a bit mask.
            let mut b = TaskGraphBuilder::new(4, vec!["(untracked)".into(), "a".into()]);
            let mut in_flight = std::collections::VecDeque::new();
            for (what, a, x) in calls {
                match what {
                    0 => b.compute(a % 4, 1, x),
                    1 => in_flight.push_back(b.send(a % 4, 0, 0.5, 0, x)),
                    2 => {
                        if let Some(msg) = in_flight.pop_front() {
                            b.recv(a % 4, 0, msg);
                        }
                    }
                    _ => b.meet((0..4).filter(|r| a >> r & 1 == 1).map(|r| (r, 0)), x, "barrier"),
                }
            }
            let g = b.finish().unwrap();
            let r = Rescale {
                compute_by_phase: vec![1.0, factor],
                transfer_by_tag: vec![(0, 0, factor)],
            };
            let s = g.schedule(&r).unwrap();
            proptest::prop_assert_eq!(
                g.what_if_makespan(&r).unwrap().to_bits(),
                s.makespan.to_bits()
            );
            proptest::prop_assert!(s.start.iter().zip(&s.end).all(|(a, b)| a <= b));
            let path = g.critical_path(&s);
            proptest::prop_assert!((path.coverage() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn blend_factor_endpoints() {
        assert_eq!(blend_factor(0.0, 2.0), 1.0);
        assert_eq!(blend_factor(1.0, 2.0), 0.5);
        assert!((blend_factor(0.5, 2.0) - 0.75).abs() < 1e-15);
    }

    #[test]
    fn path_report_orders_spans_longest_first() {
        let g = two_rank_graph();
        let s = g.schedule(&Rescale::none()).unwrap();
        let path = g.critical_path(&s);
        let rep = path_report(&g, &path, 10);
        assert_eq!(rep.top_spans[0].label, "compute");
        assert_eq!(rep.top_spans[0].dur, 3.0);
        assert!((rep.coverage - 1.0).abs() < 1e-12);
        let json = rep.to_json().write_pretty();
        assert!(json.contains("\"by_phase\""));
        // Round-trips through the reader.
        crate::Json::parse(&json).unwrap();
    }
}
