//! Critical-path analytics over happens-before task graphs.
//!
//! A [`TaskGraph`] is the causal (PERT-style) view of one coupled run:
//! every compute burst, point-to-point message and collective becomes a
//! node, ordered by the two dependence kinds the testbed has — program
//! order within a rank, and message/collective arrivals across ranks.
//! The graph is built *offline* from artifacts the workspace already
//! records (a `TraceProgram` walked against a machine model in
//! `cpx-machine`, or a `.cpxr` event trace in `cpx-replay`); nothing
//! here touches a hot path.
//!
//! A builder fills a [`TaskGraphParts`] and freezes it into a
//! [`TaskGraph`], which can no longer be edited. The first schedule or
//! what-if compiles the frozen graph into a sweep plan: its nodes in the
//! order `cpx_machine::des` visits them, laid out as flat arrays. Every
//! later call reuses the plan.
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

use std::collections::VecDeque;
use std::ops::Deref;
use std::sync::OnceLock;

use crate::Json;

/// Index of a node in [`TaskGraphParts::nodes`].
pub type NodeId = usize;

/// What a node does. Durations live on the node ([`TaskNode::dur`]) for
/// the rigid kinds (compute, send overhead); receives and collectives
/// are *elastic* — their cost depends on when dependencies arrive.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskKind {
    /// Local computation of `dur` seconds.
    Compute,
    /// Eager send: the sender is charged `dur` = software overhead; the
    /// payload travels on the wire for [`TaskNode::transfer`] seconds
    /// measured from the send's *start* (the DES convention).
    Send {
        /// Destination rank.
        dst: usize,
        /// Message tag.
        tag: u32,
        /// Payload bytes.
        bytes: u64,
    },
    /// Blocking receive matched to a send node.
    Recv {
        /// Source rank.
        src: usize,
        /// Message tag.
        tag: u32,
    },
    /// One member's participation in a collective; the shared occurrence
    /// is [`TaskGraphParts::meets`]`[meet]`.
    Collective {
        /// Index into [`TaskGraphParts::meets`].
        meet: usize,
    },
}

/// One node of the happens-before graph.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskNode {
    /// Rank the node executes on.
    pub rank: usize,
    /// Phase id active when the node runs (0 = untracked).
    pub phase: u16,
    /// What the node does.
    pub kind: TaskKind,
    /// Rigid duration in seconds (compute time or send overhead; 0 for
    /// elastic kinds).
    pub dur: f64,
    /// Wire time of the matched message, for `Recv` nodes: the payload
    /// arrives at `start(send) + transfer`. 0 otherwise.
    pub transfer: f64,
    /// Previous node on the same rank (program order), if any.
    pub prev: Option<NodeId>,
    /// The matched `Send` node, for `Recv` nodes.
    pub matched_send: Option<NodeId>,
}

/// One collective occurrence: the set of member nodes (in group rank
/// order) plus the modelled cost charged after the last member arrives.
#[derive(Debug, Clone, PartialEq)]
pub struct Meet {
    /// Member nodes, in group rank order.
    pub members: Vec<NodeId>,
    /// Collective cost in seconds, charged after the last entry.
    pub cost: f64,
    /// Human label (e.g. `"allreduce"`) for blamed-span output.
    pub label: &'static str,
}

/// The parts of a [`TaskGraph`], filled in by a builder and then frozen
/// with [`TaskGraph::from`].
#[derive(Debug, Clone, Default)]
pub struct TaskGraphParts {
    /// All nodes; program order within a rank, ranks concatenated.
    pub nodes: Vec<TaskNode>,
    /// Collective occurrences referenced by `TaskKind::Collective`.
    pub meets: Vec<Meet>,
    /// Number of ranks.
    pub n_ranks: usize,
    /// Phase id → display name (index 0 = untracked).
    pub phase_names: Vec<String>,
}

/// The causal graph of one run, frozen: its [`TaskGraphParts`] are
/// readable through `Deref` but cannot be changed. The first
/// [`TaskGraph::schedule`] or [`TaskGraph::what_if_makespan`] compiles
/// the graph into a sweep plan and caches it; since no edge or cost can
/// change afterwards, the plan cannot go stale.
///
/// ```
/// use cpx_obs::{Rescale, TaskGraph, TaskGraphParts, TaskKind, TaskNode};
///
/// let graph = TaskGraph::from(TaskGraphParts {
///     nodes: vec![TaskNode {
///         rank: 0,
///         phase: 0,
///         kind: TaskKind::Compute,
///         dur: 2.0,
///         transfer: 0.0,
///         prev: None,
///         matched_send: None,
///     }],
///     n_ranks: 1,
///     ..TaskGraphParts::default()
/// });
/// assert_eq!(graph.nodes.len(), 1);
/// assert_eq!(graph.schedule(&Rescale::none()).unwrap().end, [2.0]);
/// ```
///
/// Editing a built graph does not compile, neither a node's fields:
///
/// ```compile_fail,E0596
/// # use cpx_obs::{TaskGraph, TaskGraphParts};
/// let mut graph = TaskGraph::from(TaskGraphParts::default());
/// graph.nodes[0].dur = 1.0;
/// ```
///
/// nor the node list:
///
/// ```compile_fail,E0596
/// # use cpx_obs::{TaskGraph, TaskGraphParts};
/// let mut graph = TaskGraph::from(TaskGraphParts::default());
/// let node = graph.nodes[0].clone();
/// graph.nodes.push(node);
/// ```
#[derive(Clone)]
pub struct TaskGraph {
    parts: TaskGraphParts,
    plan: OnceLock<Result<Plan, GraphError>>,
}

impl From<TaskGraphParts> for TaskGraph {
    fn from(parts: TaskGraphParts) -> TaskGraph {
        TaskGraph {
            parts,
            plan: OnceLock::new(),
        }
    }
}

impl Deref for TaskGraph {
    type Target = TaskGraphParts;

    fn deref(&self) -> &TaskGraphParts {
        &self.parts
    }
}

impl std::fmt::Debug for TaskGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("TaskGraph").field(&self.parts).finish()
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

    /// Multiplier for the unscaled cost of a node with `step` and `key`
    /// (see [`Step::of`]): send overheads and collectives are never
    /// rescaled.
    #[inline]
    fn factor(&self, step: Step, key: u32) -> f64 {
        match step {
            Step::Compute => self.compute_factor(key as u16),
            Step::Recv => self.transfer_factor(key),
            Step::Send | Step::Meet => 1.0,
        }
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
    /// Node start times.
    pub start: Vec<f64>,
    /// Node end times.
    pub end: Vec<f64>,
    /// Exit time per meet.
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

/// Why a [`TaskGraph`] cannot be scheduled. Compiling the sweep plan
/// checks the graph's structure first, so a malformed graph yields one
/// of these, on every call, instead of a panic or a hang.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// `node`'s `field` (`"prev"`, `"matched_send"` or `"meet"`) names
    /// an index past the end of the nodes or meets.
    OutOfRange {
        /// The node holding the bad index.
        node: NodeId,
        /// Which field holds it.
        field: &'static str,
        /// The index.
        index: usize,
    },
    /// Two nodes name `node` as their `prev`: program order would fork.
    Fork {
        /// The node with two successors.
        node: NodeId,
    },
    /// A receive without a matched send, or a matched send on a node
    /// that is not a receive.
    BadMatch {
        /// The offending node.
        node: NodeId,
    },
    /// Two receives are matched to the same send.
    DoubleMatch {
        /// The send both receives name.
        send: NodeId,
    },
    /// Meet `meet` lists `node` although it is not a collective of that
    /// meet or is listed twice, or `node` is a collective of `meet` that
    /// its member list leaves out.
    NotAMember {
        /// The meet.
        meet: usize,
        /// The node.
        node: NodeId,
    },
    /// `stuck` nodes never became ready: the dependencies form a cycle
    /// (a receive matched to itself is the smallest one).
    Cycle {
        /// How many nodes never ran.
        stuck: usize,
    },
    /// More nodes than the sweep plan's 32-bit positions can index.
    TooLarge {
        /// The graph's node count.
        nodes: usize,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::OutOfRange { node, field, index } => {
                write!(f, "node {node}: {field} {index} is out of range")
            }
            GraphError::Fork { node } => write!(f, "node {node} is the prev of two nodes"),
            GraphError::BadMatch { node } => write!(
                f,
                "node {node}: every receive needs a matched send and no other node may have one"
            ),
            GraphError::DoubleMatch { send } => {
                write!(f, "send {send} is matched by two receives")
            }
            GraphError::NotAMember { meet, node } => {
                write!(f, "meet {meet} and node {node} disagree on membership")
            }
            GraphError::Cycle { stuck } => {
                write!(f, "dependency cycle: {stuck} nodes never ran")
            }
            GraphError::TooLarge { nodes } => {
                write!(f, "{nodes} nodes exceed the sweep plan's 32-bit positions")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// A node id or plan position in the 32-bit arrays of the compile walk
/// and the sweep plan: 32 bits halve their memory traffic, and the
/// sweep is bound by memory traffic.
type Link = u32;
/// "No node" in a link array.
const NONE: Link = Link::MAX;

/// What the sweep does at a node.
#[derive(Clone, Copy)]
enum Step {
    /// End after the rescaled duration.
    Compute,
    /// End after the send overhead, never rescaled.
    Send,
    /// End when the message arrives, if it has not yet.
    Recv,
    /// Leave with the whole meet.
    Meet,
}

impl Step {
    /// The node's step, the key its [`Rescale`] factor is looked up by
    /// (a compute node's phase, a receive's tag, 0 otherwise) and the
    /// unscaled cost that factor multiplies (a rigid node's duration, a
    /// receive's wire time, 0 for a collective member).
    fn of(node: &TaskNode) -> (Step, u32, f64) {
        match node.kind {
            TaskKind::Compute => (Step::Compute, u32::from(node.phase), node.dur),
            TaskKind::Send { .. } => (Step::Send, 0, node.dur),
            TaskKind::Recv { tag, .. } => (Step::Recv, tag, node.transfer),
            TaskKind::Collective { .. } => (Step::Meet, 0, 0.0),
        }
    }
}

/// A graph compiled for sweeping: its nodes in visit order (see
/// [`TaskGraph::order`]) as flat arrays indexed by *position*, so that
/// a schedule or a what-if is one pass over them, front to back. Each
/// meet's members fill consecutive positions, in member order.
#[derive(Clone, Default)]
struct Plan {
    /// Node id at each position.
    id: Vec<Link>,
    /// Position of the node's `prev` ([`NONE`] for a chain head).
    prev: Vec<Link>,
    /// The node's [`Step::of`]: its step, factor key and unscaled cost.
    step: Vec<Step>,
    key: Vec<u32>,
    cost: Vec<f64>,
    /// Per receive, in position order: the position of its matched
    /// send's `prev` ([`NONE`] when the send starts at 0).
    sent: Vec<Link>,
    /// Per meet, in position order of its block: the meet's index.
    blocks: Vec<Link>,
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

impl TaskGraph {
    /// Every node's times under `rescale`: one sweep over the compiled
    /// plan. Errors on a malformed graph (see [`GraphError`]).
    pub fn schedule(&self, rescale: &Rescale) -> Result<Schedule, GraphError> {
        let plan = self.plan()?;
        let Sweep {
            end: by_pos,
            meet_end,
            makespan,
        } = self.sweep(plan, rescale);
        let n = by_pos.len();
        let mut end = vec![0.0f64; n];
        for (&i, &e) in plan.id.iter().zip(&by_pos) {
            end[i as usize] = e;
        }
        drop(by_pos);
        // A node starts when its `prev` ends, or at 0.
        let mut start = vec![0.0f64; n];
        for (&i, &p) in plan.id.iter().zip(&plan.prev) {
            if p != NONE {
                start[i as usize] = end[plan.id[p as usize] as usize];
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
    /// makespan.
    pub fn what_if_makespan(&self, rescale: &Rescale) -> Result<f64, GraphError> {
        Ok(self.sweep(self.plan()?, rescale).makespan)
    }

    /// The order every sweep visits the nodes in: the run-to-block order
    /// of `cpx_machine::des`, fixed once per graph. It is a permutation
    /// of the node ids in which every node comes after its `prev` and
    /// its `matched_send`, and the members of a meet are consecutive, in
    /// member order, and come before any member's successor.
    /// [`TaskGraph::slack`] walks it backwards and relies on all three.
    pub fn order(
        &self,
    ) -> Result<impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator + '_, GraphError> {
        Ok(self.plan()?.id.iter().map(|&i| i as NodeId))
    }

    /// The compiled plan, compiled on first use. The graph cannot change
    /// after it is built, so the cached plan (or error) stays right.
    fn plan(&self) -> Result<&Plan, GraphError> {
        self.plan
            .get_or_init(|| self.compile())
            .as_ref()
            .map_err(GraphError::clone)
    }

    /// Node `i`'s cost under `rescale`: its effective duration or, for a
    /// receive, its effective wire time (0 for a collective member). It
    /// is the product the sweep evaluates, of the same two operands.
    fn scaled_cost(&self, i: NodeId, rescale: &Rescale) -> f64 {
        let node = &self.nodes[i];
        let (step, key, cost) = Step::of(node);
        cost * rescale.factor(step, key)
    }

    /// Every node's end time under `rescale`, by plan position, in one
    /// pass over the plan. This is the only place the replayer's float
    /// expressions are evaluated: a rigid node ends at `start + cost`, a
    /// receive at `start + (arrival - start).max(0.0)` with the arrival
    /// computed from the send's start, and a meet's members all leave at
    /// the `max` of their entries, folded from 0.0 in member order, plus
    /// the meet's cost. A node reads only earlier positions, whose times
    /// are final, so each expression sees the DES's operands.
    fn sweep(&self, plan: &Plan, rescale: &Rescale) -> Sweep {
        let n = plan.id.len();
        let mut end: Vec<f64> = Vec::with_capacity(n);
        let mut meet_end = vec![0.0f64; self.meets.len()];
        let mut makespan = 0.0f64;
        let mut sent = plan.sent.iter();
        let mut blocks = plan.blocks.iter();
        // A node starts when its `prev` ends, or at 0.
        let start = |end: &[f64], p: Link| if p == NONE { 0.0 } else { end[p as usize] };
        while end.len() < n {
            let k = end.len();
            let s = start(&end, plan.prev[k]);
            let step = plan.step[k];
            let cost = plan.cost[k] * rescale.factor(step, plan.key[k]);
            let e = match step {
                Step::Compute | Step::Send => {
                    let e = s + cost;
                    end.push(e);
                    e
                }
                Step::Recv => {
                    let from = *sent.next().expect("one entry per receive");
                    let arrival = start(&end, from) + cost;
                    let e = s + (arrival - s).max(0.0);
                    end.push(e);
                    e
                }
                Step::Meet => {
                    let m = *blocks.next().expect("one block per meet") as usize;
                    let meet = &self.meets[m];
                    let block = k..k + meet.members.len();
                    let base = plan.prev[block.clone()]
                        .iter()
                        .fold(0.0f64, |b, &p| b.max(start(&end, p)));
                    let exit = base + meet.cost;
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

    /// Compile the sweep plan in one run-to-block walk over the
    /// structure, which fixes the DES's visit order: run each
    /// program-order chain from its head, in id order, until it reaches
    /// a receive whose send has not been placed or a collective whose
    /// meet is still missing members, and resume it when that send is
    /// placed or the last member arrives, which places the whole meet in
    /// member order. Each node is laid out as it is placed; everything
    /// it refers to already has its position.
    fn compile(&self) -> Result<Plan, GraphError> {
        let n = self.nodes.len();
        let (next, mut runnable) = self.chains()?;
        let mut plan = Plan {
            id: Vec::with_capacity(n),
            prev: Vec::with_capacity(n),
            cost: Vec::with_capacity(n),
            step: Vec::with_capacity(n),
            key: Vec::with_capacity(n),
            ..Plan::default()
        };
        // Per node: its position once placed, NONE before.
        let mut pos = vec![NONE; n];
        // Per node not yet placed: the receive parked on it, if any.
        let mut parked = vec![NONE; n];
        let mut missing: Vec<usize> = self.meets.iter().map(|m| m.members.len()).collect();
        let at = |pos: &[Link], p: Option<NodeId>| p.map_or(NONE, |p| pos[p]);

        macro_rules! place {
            ($i:expr) => {{
                let i: NodeId = $i;
                let node = &self.nodes[i];
                pos[i] = plan.id.len() as Link;
                plan.id.push(i as Link);
                plan.prev.push(at(&pos, node.prev));
                let (step, key, cost) = Step::of(node);
                plan.step.push(step);
                plan.key.push(key);
                plan.cost.push(cost);
                if let Some(send) = node.matched_send {
                    plan.sent.push(at(&pos, self.nodes[send].prev));
                }
                if parked[i] != NONE {
                    runnable.push_back(parked[i] as NodeId);
                }
            }};
        }

        while let Some(mut i) = runnable.pop_front() {
            loop {
                let node = &self.nodes[i];
                match node.kind {
                    TaskKind::Compute | TaskKind::Send { .. } => place!(i),
                    TaskKind::Recv { .. } => {
                        let send = node.matched_send.expect("chains() checked the match");
                        if pos[send] == NONE {
                            // Blocked: placing the send resumes it.
                            parked[send] = i as Link;
                            break;
                        }
                        place!(i);
                    }
                    TaskKind::Collective { meet } => {
                        missing[meet] -= 1;
                        if missing[meet] > 0 {
                            // Blocked: the last member to arrive resumes it.
                            break;
                        }
                        plan.blocks.push(meet as Link);
                        for &mem in &self.meets[meet].members {
                            place!(mem);
                            if mem != i && next[mem] != NONE {
                                runnable.push_back(next[mem] as NodeId);
                            }
                        }
                    }
                }
                if next[i] == NONE {
                    break;
                }
                i = next[i] as NodeId;
            }
        }

        if plan.id.len() < n {
            return Err(GraphError::Cycle {
                stuck: n - plan.id.len(),
            });
        }
        Ok(plan)
    }

    /// Every node's program-order successor ([`NONE`] at a chain's end)
    /// and the chain heads in id order, after checking the structure
    /// the sweep relies on: indices in range, no node the `prev`
    /// of two nodes, a matched send on every receive and on nothing
    /// else, no send matched twice, and each meet listing exactly the
    /// collective nodes of that meet, once each.
    fn chains(&self) -> Result<(Vec<Link>, VecDeque<NodeId>), GraphError> {
        const LISTED: u8 = 1;
        const MATCHED: u8 = 2;
        let n = self.nodes.len();
        if n >= NONE as usize {
            return Err(GraphError::TooLarge { nodes: n });
        }
        let mut mark = vec![0u8; n];
        for (m, meet) in self.meets.iter().enumerate() {
            for &node in &meet.members {
                let of_meet = matches!(
                    self.nodes.get(node).map(|x| &x.kind),
                    Some(&TaskKind::Collective { meet }) if meet == m
                );
                if !of_meet || mark[node] & LISTED != 0 {
                    return Err(GraphError::NotAMember { meet: m, node });
                }
                mark[node] |= LISTED;
            }
        }
        let mut next = vec![NONE; n];
        let mut heads = VecDeque::new();
        for (i, node) in self.nodes.iter().enumerate() {
            match node.prev {
                None => heads.push_back(i),
                Some(p) => {
                    let slot = next.get_mut(p).ok_or(GraphError::OutOfRange {
                        node: i,
                        field: "prev",
                        index: p,
                    })?;
                    if *slot != NONE {
                        return Err(GraphError::Fork { node: p });
                    }
                    *slot = i as Link;
                }
            }
            match (&node.kind, node.matched_send) {
                (TaskKind::Recv { .. }, Some(send)) => {
                    let m = mark.get_mut(send).ok_or(GraphError::OutOfRange {
                        node: i,
                        field: "matched_send",
                        index: send,
                    })?;
                    if *m & MATCHED != 0 {
                        return Err(GraphError::DoubleMatch { send });
                    }
                    *m |= MATCHED;
                }
                (TaskKind::Recv { .. }, None) | (_, Some(_)) => {
                    return Err(GraphError::BadMatch { node: i });
                }
                (&TaskKind::Collective { meet }, None) => {
                    if meet >= self.meets.len() {
                        return Err(GraphError::OutOfRange {
                            node: i,
                            field: "meet",
                            index: meet,
                        });
                    }
                    if mark[i] & LISTED == 0 {
                        return Err(GraphError::NotAMember { meet, node: i });
                    }
                }
                _ => {}
            }
        }
        Ok((next, heads))
    }

    /// Extract the critical path of `sched`, a schedule of this graph,
    /// by walking binding constraints backward from the sink.
    pub fn critical_path(&self, sched: &Schedule) -> CriticalPath {
        let mut segments = Vec::new();
        let mut cur = sched.sink;
        while let Some(i) = cur {
            let node = &self.nodes[i];
            let (s, e) = (sched.start[i], sched.end[i]);
            match node.kind {
                TaskKind::Compute => {
                    if e > s {
                        segments.push(PathSegment {
                            rank: node.rank,
                            phase: node.phase,
                            class: SegClass::Compute,
                            label: "compute",
                            t0: s,
                            t1: e,
                        });
                    }
                    cur = node.prev;
                }
                TaskKind::Send { .. } => {
                    if e > s {
                        segments.push(PathSegment {
                            rank: node.rank,
                            phase: node.phase,
                            class: SegClass::Comm,
                            label: "send",
                            t0: s,
                            t1: e,
                        });
                    }
                    cur = node.prev;
                }
                TaskKind::Recv { .. } => {
                    let send = node.matched_send.expect("scheduled recv is matched");
                    let arrival = sched.start[send] + self.scaled_cost(i, &sched.rescale);
                    if arrival > s {
                        // The message bound: the wire segment from the
                        // send's start to the arrival is on the path,
                        // and the walk continues on the *sender* before
                        // the send was issued.
                        segments.push(PathSegment {
                            rank: self.nodes[send].rank,
                            phase: node.phase,
                            class: SegClass::Comm,
                            label: "transfer",
                            t0: sched.start[send],
                            t1: e,
                        });
                        cur = self.nodes[send].prev;
                    } else {
                        // Arrived early: local program order bound.
                        cur = node.prev;
                    }
                }
                TaskKind::Collective { meet } => {
                    let m = &self.meets[meet];
                    // Last-arriving member (first on ties, in member
                    // order) determines the exit.
                    let mut base = 0.0f64;
                    for &mem in &m.members {
                        base = base.max(sched.start[mem]);
                    }
                    let det = m
                        .members
                        .iter()
                        .copied()
                        .find(|&mem| sched.start[mem] == base)
                        .unwrap_or(i);
                    if e > base {
                        segments.push(PathSegment {
                            rank: self.nodes[det].rank,
                            phase: self.nodes[det].phase,
                            class: SegClass::Comm,
                            label: m.label,
                            t0: base,
                            t1: e,
                        });
                    }
                    cur = self.nodes[det].prev;
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
        let n = self.nodes.len();
        let r = &sched.rescale;
        let mut latest = vec![sched.makespan; n];
        let mut meet_done = vec![false; self.meets.len()];
        let order = self
            .order()
            .expect("a graph with a schedule has a compiled plan");
        for i in order.rev() {
            let node = &self.nodes[i];
            match node.kind {
                TaskKind::Collective { meet } => {
                    if !meet_done[meet] {
                        meet_done[meet] = true;
                        let m = &self.meets[meet];
                        // All members' dependents were processed (they
                        // come later in topo), so member latests are
                        // final: the meet may exit at the tightest one.
                        let mut exit = f64::INFINITY;
                        for &mem in &m.members {
                            exit = exit.min(latest[mem]);
                        }
                        let entry_latest = exit - m.cost;
                        for &mem in &m.members {
                            if let Some(p) = self.nodes[mem].prev {
                                latest[p] = latest[p].min(entry_latest);
                            }
                        }
                    }
                }
                TaskKind::Recv { .. } => {
                    // Elastic: the predecessor may run right up to this
                    // node's latest end; the sender is constrained
                    // through the wire.
                    if let Some(p) = node.prev {
                        latest[p] = latest[p].min(latest[i]);
                    }
                    if let Some(send) = node.matched_send {
                        let bound = latest[i] - self.scaled_cost(i, r) + self.scaled_cost(send, r);
                        latest[send] = latest[send].min(bound);
                    }
                }
                TaskKind::Compute | TaskKind::Send { .. } => {
                    if let Some(p) = node.prev {
                        latest[p] = latest[p].min(latest[i] - self.scaled_cost(i, r));
                    }
                }
            }
        }
        (0..n).map(|i| latest[i] - sched.end[i]).collect()
    }

    /// Graph-wide per-phase attribution of every rank's time under
    /// `sched`, a schedule of this graph. There is a bucket for every
    /// named phase and every phase a node runs in.
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
            match node.kind {
                TaskKind::Compute => att.compute[p] += self.scaled_cost(i, &sched.rescale),
                TaskKind::Send { .. } => att.comm[p] += self.scaled_cost(i, &sched.rescale),
                TaskKind::Recv { .. } => att.wait[p] += sched.end[i] - sched.start[i],
                TaskKind::Collective { meet } => {
                    let exit = sched.meet_end[meet];
                    let cost = self.meets[meet].cost;
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

    fn compute(rank: usize, phase: u16, dur: f64, prev: Option<NodeId>) -> TaskNode {
        TaskNode {
            rank,
            phase,
            kind: TaskKind::Compute,
            dur,
            transfer: 0.0,
            prev,
            matched_send: None,
        }
    }

    /// rank 0: compute 3s, send (overhead .5, wire 2).
    /// rank 1: compute 1s, recv.
    fn two_rank_graph() -> TaskGraph {
        two_rank_parts().into()
    }

    fn two_rank_parts() -> TaskGraphParts {
        TaskGraphParts {
            nodes: vec![
                compute(0, 1, 3.0, None),
                TaskNode {
                    rank: 0,
                    phase: 1,
                    kind: TaskKind::Send {
                        dst: 1,
                        tag: 7,
                        bytes: 8,
                    },
                    dur: 0.5,
                    transfer: 0.0,
                    prev: Some(0),
                    matched_send: None,
                },
                compute(1, 2, 1.0, None),
                TaskNode {
                    rank: 1,
                    phase: 2,
                    kind: TaskKind::Recv { src: 0, tag: 7 },
                    dur: 0.0,
                    transfer: 2.0,
                    prev: Some(2),
                    matched_send: Some(1),
                },
            ],
            meets: vec![],
            n_ranks: 2,
            phase_names: vec!["(untracked)".into(), "a".into(), "b".into()],
        }
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
    fn two_rank_meet() -> TaskGraph {
        two_rank_meet_parts().into()
    }

    fn two_rank_meet_parts() -> TaskGraphParts {
        let member = |rank: usize| TaskNode {
            rank,
            phase: 0,
            kind: TaskKind::Collective { meet: 0 },
            dur: 0.0,
            transfer: 0.0,
            prev: Some(rank),
            matched_send: None,
        };
        TaskGraphParts {
            nodes: vec![
                compute(0, 0, 1.0, None),
                compute(1, 0, 4.0, None),
                member(0),
                member(1),
            ],
            meets: vec![Meet {
                members: vec![2, 3],
                cost: 0.25,
                label: "allreduce",
            }],
            n_ranks: 2,
            phase_names: vec!["(untracked)".into()],
        }
    }

    #[test]
    fn collective_meet_charges_last_arrival_plus_cost() {
        let g = two_rank_meet();
        let s = g.schedule(&Rescale::none()).unwrap();
        assert_eq!(s.end[2], 4.25);
        assert_eq!(s.end[3], 4.25);
        let path = g.critical_path(&s);
        // compute on rank 1 (0..4), collective (4..4.25).
        assert_eq!(path.segments.len(), 2);
        assert_eq!(path.segments[0].rank, 1);
        assert_eq!(path.segments[1].label, "allreduce");
        let slack = g.slack(&s);
        assert_eq!(slack[1], 0.0);
        assert_eq!(slack[0], 3.0); // rank 0 may arrive 3s later
                                   // Attribution: rank 0 waited 3s, both paid the 0.25 cost.
        let att = g.attribution(&s);
        assert_eq!(att.wait[0], 3.0);
        assert_eq!(att.comm[0], 0.5);
        assert_eq!(att.compute[0], 5.0);
    }

    #[test]
    fn malformed_graphs_are_typed_errors_not_panics_or_hangs() {
        let check = |g: &TaskGraph, want: GraphError| {
            assert_eq!(g.schedule(&Rescale::none()).unwrap_err(), want);
            assert_eq!(g.what_if_makespan(&Rescale::none()).unwrap_err(), want);
        };
        let edit = |f: &dyn Fn(&mut TaskGraphParts)| {
            let mut g = two_rank_parts();
            f(&mut g);
            TaskGraph::from(g)
        };
        let edit_meet = |f: &dyn Fn(&mut TaskGraphParts)| {
            let mut g = two_rank_meet_parts();
            f(&mut g);
            TaskGraph::from(g)
        };

        // Indices out of range.
        check(
            &edit(&|g| g.nodes[1].prev = Some(9)),
            GraphError::OutOfRange {
                node: 1,
                field: "prev",
                index: 9,
            },
        );
        check(
            &edit(&|g| g.nodes[3].matched_send = Some(9)),
            GraphError::OutOfRange {
                node: 3,
                field: "matched_send",
                index: 9,
            },
        );
        check(
            &edit_meet(&|g| {
                g.nodes[3].kind = TaskKind::Collective { meet: 5 };
                g.meets[0].members = vec![2];
            }),
            GraphError::OutOfRange {
                node: 3,
                field: "meet",
                index: 5,
            },
        );
        // A node that is the prev of two nodes.
        check(
            &edit(&|g| g.nodes[2].prev = Some(0)),
            GraphError::Fork { node: 0 },
        );
        // A receive without a send, a matched send on a compute node,
        // and two receives matched to one send.
        check(
            &edit(&|g| g.nodes[3].matched_send = None),
            GraphError::BadMatch { node: 3 },
        );
        check(
            &edit(&|g| g.nodes[2].matched_send = Some(1)),
            GraphError::BadMatch { node: 2 },
        );
        check(
            &edit(&|g| {
                let mut again = g.nodes[3].clone();
                again.prev = Some(3);
                g.nodes.push(again);
            }),
            GraphError::DoubleMatch { send: 1 },
        );
        // Meet members that are not collectives of that meet, a member
        // listed twice, and a collective its meet leaves out.
        for (members, node) in [
            (vec![2, 0], 0),
            (vec![2, 9], 9),
            (vec![2, 2], 2),
            (vec![2], 3),
        ] {
            check(
                &edit_meet(&|g| g.meets[0].members = members.clone()),
                GraphError::NotAMember { meet: 0, node },
            );
        }
        // A self-matched receive, and a cycle across two ranks: each
        // rank receives before it sends to the other.
        check(
            &edit(&|g| g.nodes[3].matched_send = Some(3)),
            GraphError::Cycle { stuck: 1 },
        );
        check(
            &edit(&|g| {
                g.nodes[0].kind = TaskKind::Recv { src: 1, tag: 7 };
                g.nodes[0].matched_send = Some(3);
                g.nodes[2].kind = TaskKind::Recv { src: 0, tag: 7 };
                g.nodes[2].matched_send = Some(1);
                g.nodes[3].kind = TaskKind::Send {
                    dst: 0,
                    tag: 7,
                    bytes: 8,
                };
                g.nodes[3].matched_send = None;
            }),
            GraphError::Cycle { stuck: 4 },
        );
    }

    /// `n` ranks run `iters` rounds of compute, send to the next rank,
    /// receive from the previous one and allreduce, with ids contiguous
    /// per rank as `cpx_machine::build_task_graph` lays them out. Rank
    /// 0's receive waits on the last rank's send, so its chain blocks.
    fn ring_graph(n: usize, iters: usize) -> TaskGraph {
        let id = |rank: usize, it: usize, k: usize| rank * 4 * iters + 4 * it + k;
        let mut g = TaskGraphParts {
            n_ranks: n,
            phase_names: vec!["(untracked)".into()],
            ..TaskGraphParts::default()
        };
        for rank in 0..n {
            for it in 0..iters {
                let node = |k: usize, kind: TaskKind, dur: f64| TaskNode {
                    rank,
                    phase: 0,
                    kind,
                    dur,
                    transfer: 0.0,
                    prev: (4 * it + k > 0).then(|| id(rank, it, k) - 1),
                    matched_send: None,
                };
                let src = (rank + n - 1) % n;
                g.nodes.push(node(0, TaskKind::Compute, 1.0 + rank as f64));
                g.nodes.push(node(
                    1,
                    TaskKind::Send {
                        dst: (rank + 1) % n,
                        tag: 0,
                        bytes: 8,
                    },
                    0.5,
                ));
                g.nodes.push(TaskNode {
                    transfer: 0.25,
                    matched_send: Some(id(src, it, 1)),
                    ..node(2, TaskKind::Recv { src, tag: 0 }, 0.0)
                });
                g.nodes
                    .push(node(3, TaskKind::Collective { meet: it }, 0.0));
            }
        }
        g.meets = (0..iters)
            .map(|it| Meet {
                members: (0..n).map(|rank| id(rank, it, 3)).collect(),
                cost: 0.125,
                label: "allreduce",
            })
            .collect();
        g.into()
    }

    /// Two lanes whose node ids interleave, with a barrier after every
    /// step: the shape of `critical_study`'s STC overlap graph.
    fn interleaved_lanes(steps: &[(f64, f64)]) -> TaskGraph {
        let mut g = TaskGraphParts {
            n_ranks: 2,
            phase_names: vec!["(untracked)".into()],
            ..TaskGraphParts::default()
        };
        let mut prev = [None, None];
        for &(a, b) in steps {
            for (lane, dur) in [(0, a), (1, b)] {
                g.nodes.push(compute(lane, 0, dur, prev[lane]));
                prev[lane] = Some(g.nodes.len() - 1);
            }
            let meet = g.meets.len();
            let mut members = Vec::new();
            for (lane, p) in prev.iter_mut().enumerate() {
                g.nodes.push(TaskNode {
                    rank: lane,
                    phase: 0,
                    kind: TaskKind::Collective { meet },
                    dur: 0.0,
                    transfer: 0.0,
                    prev: *p,
                    matched_send: None,
                });
                *p = Some(g.nodes.len() - 1);
                members.push(g.nodes.len() - 1);
            }
            g.meets.push(Meet {
                members,
                cost: 0.0,
                label: "barrier",
            });
        }
        g.into()
    }

    /// Check the contract documented on [`TaskGraph::order`].
    fn assert_order_contract(g: &TaskGraph) {
        let order: Vec<NodeId> = g.order().unwrap().collect();
        let n = g.nodes.len();
        let mut pos = vec![usize::MAX; n];
        for (k, &i) in order.iter().enumerate() {
            assert_eq!(pos[i], usize::MAX, "node {i} appears twice");
            pos[i] = k;
        }
        assert_eq!(order.len(), n, "the order is not a permutation");
        for (i, node) in g.nodes.iter().enumerate() {
            for dep in [node.prev, node.matched_send].into_iter().flatten() {
                assert!(pos[dep] < pos[i], "node {i} comes before {dep}");
            }
        }
        for (m, meet) in g.meets.iter().enumerate() {
            let first = pos[meet.members[0]];
            for (k, &x) in meet.members.iter().enumerate() {
                assert_eq!(
                    pos[x],
                    first + k,
                    "meet {m} is split or out of member order"
                );
            }
            let last = first + meet.members.len() - 1;
            for (i, node) in g.nodes.iter().enumerate() {
                if node.prev.is_some_and(|p| meet.members.contains(&p)) {
                    assert!(pos[i] > last, "node {i} precedes meet {m}");
                }
            }
        }
    }

    #[test]
    fn order_contract_holds_on_a_ring_and_on_interleaved_lanes() {
        let ring = ring_graph(5, 3);
        assert_order_contract(&ring);
        // The walk runs rank 0 until its receive blocks, so the order is
        // not plain id order.
        let order: Vec<NodeId> = ring.order().unwrap().collect();
        assert_ne!(order, (0..ring.nodes.len()).collect::<Vec<_>>());

        let lanes = interleaved_lanes(&[(1.0, 2.0), (3.0, 0.5), (0.25, 0.25)]);
        assert_order_contract(&lanes);
        let s = lanes.schedule(&Rescale::none()).unwrap();
        assert_eq!(s.makespan, 2.0 + 3.0 + 0.25);
    }

    #[test]
    fn attribution_keeps_unnamed_phases_apart() {
        // Compute in phase 3 with only phases 0 and 1 named: it gets its
        // own bucket instead of landing in phase 1's.
        let g = TaskGraph::from(TaskGraphParts {
            nodes: vec![compute(0, 1, 1.0, None), compute(0, 3, 2.0, Some(0))],
            n_ranks: 1,
            phase_names: vec!["(untracked)".into(), "a".into()],
            ..TaskGraphParts::default()
        });
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
