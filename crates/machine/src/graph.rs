//! Happens-before task graphs of trace programs.
//!
//! [`build_task_graph`] records the [`cpx_obs::TaskGraph`] the
//! critical-path analytics run on while [`crate::des::Replayer`] replays
//! the program without noise: each node is placed in the sweep plan as
//! the DES executes its op. A compute or send node is placed when it
//! runs. A receive is placed with the send it matched, whose handle
//! travels in the DES mailbox beside the message's arrival time. A
//! collective's members are placed together, in ascending rank, when
//! the last one arrives. The DES's own walk fixes the plan's order, so
//! the graph can always be scheduled, and a malformed program fails the
//! build with the replayer's own error.
//!
//! Costs are the replayer's own operands (`kernel_time`, `p2p_time`,
//! `send_overhead`, `collective_time`), so a noise-free
//! [`crate::des::Replayer::run`] and the graph's baseline schedule
//! agree **bit for bit**; [`validate_against_des`] checks that against
//! a logged event stream, event by event.

use cpx_obs::{Schedule, Sent, Step, TaskGraph, TaskGraphBuilder};

use crate::channels::ChannelKey;
use crate::des::{DesEvent, DesEventKind, Observer, Replayer};
use crate::model::Machine;
use crate::trace::{CollectiveKind, Op, PhaseId, TraceProgram};

/// Short label for a collective kind (blamed-span output).
pub fn collective_label(kind: CollectiveKind) -> &'static str {
    match kind {
        CollectiveKind::Barrier => "barrier",
        CollectiveKind::Broadcast => "broadcast",
        CollectiveKind::Reduce => "reduce",
        CollectiveKind::Allreduce => "allreduce",
        CollectiveKind::Allgather => "allgather",
        CollectiveKind::Alltoall => "alltoall",
        CollectiveKind::Gather => "gather",
        CollectiveKind::Scatter => "scatter",
    }
}

/// Places the task graph's nodes as the DES executes their ops.
struct Recorder {
    graph: TaskGraphBuilder,
    send_overhead: f64,
    /// Each group's ranks, ascending: the order a meet's members take.
    groups: Vec<Vec<usize>>,
    /// Sends placed so far. A rank's sends are numbered in its program
    /// order.
    sends: u64,
    /// The first message never received, in node order: its sender, its
    /// send's number and its channel.
    unreceived: Option<(usize, u64, ChannelKey)>,
}

impl Observer for Recorder {
    type Msg = (Sent, u64);

    fn compute(&mut self, rank: usize, phase: PhaseId, dt: f64) {
        self.graph.compute(rank, phase, dt);
    }

    fn send(
        &mut self,
        rank: usize,
        phase: PhaseId,
        _: f64,
        _: usize,
        tag: u32,
        _: usize,
        wire: f64,
    ) -> (Sent, u64) {
        self.sends += 1;
        let sent = self.graph.send(rank, phase, self.send_overhead, tag, wire);
        (sent, self.sends)
    }

    fn recv(&mut self, rank: usize, phase: PhaseId, _: f64, _: usize, _: u32, msg: (Sent, u64)) {
        self.graph.recv(rank, phase, msg.0);
    }

    fn meet(&mut self, group: usize, kind: CollectiveKind, cost: f64, phase: &[PhaseId]) {
        let members = self.groups[group].iter().map(|&r| (r, phase[r]));
        self.graph.meet(members, cost, collective_label(kind));
    }

    fn unreceived(&mut self, key: ChannelKey, msg: &(Sent, u64)) {
        let this = (key.0, msg.1, key);
        self.unreceived = Some(self.unreceived.map_or(this, |first| first.min(this)));
    }
}

/// Build the causal task graph of `program` on `machine`.
///
/// `phase_names` labels phase ids for reports (index 0 is conventionally
/// `"(untracked)"`); it does not affect the graph structure. Programs
/// with noise are not representable — the graph models the noise-free
/// replay, which is what every committed artifact records.
///
/// A program the replayer rejects fails with the replayer's error (a
/// receive with no matching send or a short collective deadlocks, a
/// collective posted outside its group is not a member), and so does a
/// send that is never received.
pub fn build_task_graph(
    program: &TraceProgram,
    machine: &Machine,
    phase_names: &[String],
) -> Result<TaskGraph, String> {
    let mut recorder = Recorder {
        graph: TaskGraphBuilder::new(program.n_ranks(), phase_names.to_vec()),
        send_overhead: machine.send_overhead,
        groups: program
            .groups
            .iter()
            .map(|g| {
                let mut g = g.clone();
                g.sort_unstable();
                g
            })
            .collect(),
        sends: 0,
        unreceived: None,
    };
    Replayer::new(machine.clone())
        .run_inner(program, &mut recorder)
        .map_err(|e| e.to_string())?;
    if let Some((_, _, (src, dst, tag))) = recorder.unreceived {
        return Err(format!("send {src}->{dst} tag {tag} is never received"));
    }
    recorder.graph.finish().map_err(|e| e.to_string())
}

/// Check a baseline schedule against a logged DES event stream, event
/// by event and **bit by bit**: send/recv events must carry the node's
/// end time, collective events the node's start (entry) time, and the
/// finish event the rank's final clock. Any drift means the graph and
/// the replayer disagree about the run's causal structure.
pub fn validate_against_des(
    graph: &TaskGraph,
    sched: &Schedule,
    events: &[DesEvent],
) -> Result<(), String> {
    // Rank r's nodes are ids bounds[r]..bounds[r + 1], in program order.
    let bounds: Vec<usize> = (0..=graph.n_ranks)
        .map(|r| graph.nodes.partition_point(|node| (node.rank as usize) < r))
        .collect();
    let mut cursor = bounds.clone();
    let mut advance_to = |rank: usize, want: Step| -> Option<usize> {
        while cursor[rank] < bounds[rank + 1] {
            let id = cursor[rank];
            cursor[rank] += 1;
            if graph.nodes[id].step == want {
                return Some(id);
            }
        }
        None
    };

    for (i, ev) in events.iter().enumerate() {
        let rank = ev.rank as usize;
        if rank >= graph.n_ranks {
            return Err(format!("event {i}: rank {rank} outside graph"));
        }
        let (got, what) = match ev.kind {
            DesEventKind::Send { .. } => (
                advance_to(rank, Step::Send).map(|id| sched.end[id]),
                "send end",
            ),
            DesEventKind::Recv { .. } => (
                advance_to(rank, Step::Recv).map(|id| sched.end[id]),
                "recv end",
            ),
            DesEventKind::Collective { .. } => (
                advance_to(rank, Step::Meet).map(|id| sched.start[id]),
                "collective entry",
            ),
            DesEventKind::Finish => {
                let last = (bounds[rank]..bounds[rank + 1]).last();
                (Some(last.map_or(0.0, |id| sched.end[id])), "finish")
            }
        };
        let Some(got) = got else {
            return Err(format!(
                "event {i}: rank {rank} has no remaining {what} node"
            ));
        };
        if got.to_bits() != ev.vtime.to_bits() {
            return Err(format!(
                "event {i}: rank {rank} {what} = {got:?} but DES logged {:?} \
                 (diff {:e})",
                ev.vtime,
                (got - ev.vtime).abs()
            ));
        }
    }
    Ok(())
}

/// Phase-aware compute rescaling of a program: every `Compute` /
/// `ComputeSecs` op in phase `p` has its duration on `machine`
/// multiplied by `factor[p]` (missing entries mean 1.0). A `Compute` op
/// becomes the `ComputeSecs` of its roofline time times the factor,
/// because scaling the kernel cost instead rounds differently from
/// scaling the time. `Repeat` bodies are expanded so phase state threads
/// through iterations correctly; the expanded program replays to the
/// identical event stream when all factors are 1.0. This is how a
/// what-if prediction gets its ground truth: scale the program, re-run
/// the DES, compare makespans — bit for bit, since the DES then charges
/// exactly the durations [`TaskGraph::what_if_makespan`] uses.
pub fn scale_compute_by_phase(
    program: &TraceProgram,
    machine: &Machine,
    factor: &[f64],
) -> TraceProgram {
    let f = |p: u16| -> f64 { *factor.get(p as usize).unwrap_or(&1.0) };
    let mut out = TraceProgram::new(program.n_ranks());
    out.groups = program.groups.clone();
    for (rank, trace) in program.traces.iter().enumerate() {
        let mut phase: u16 = 0;
        let mut ops: Vec<Op> = Vec::with_capacity(trace.expanded_len());
        let push = |op: &Op, ops: &mut Vec<Op>, phase: &mut u16| match *op {
            Op::Phase(p) => {
                *phase = p;
                ops.push(Op::Phase(p));
            }
            Op::Compute(cost) => {
                ops.push(Op::ComputeSecs(machine.kernel_time(cost) * f(*phase)));
            }
            Op::ComputeSecs(secs) => {
                ops.push(Op::ComputeSecs(secs * f(*phase)));
            }
            ref other => ops.push(other.clone()),
        };
        for op in &trace.ops {
            match op {
                Op::Repeat { count, body } => {
                    for _ in 0..*count {
                        for b in body {
                            push(b, &mut ops, &mut phase);
                        }
                    }
                }
                other => push(other, &mut ops, &mut phase),
            }
        }
        out.traces[rank].ops = ops;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::KernelCost;
    use cpx_obs::Rescale;

    fn ring_program(n: usize, iters: u32) -> TraceProgram {
        let mut prog = TraceProgram::new(n);
        let world = prog.add_world_group();
        for r in 0..n {
            let t = prog.rank(r);
            t.phase(1);
            t.ops.push(Op::Repeat {
                count: iters,
                body: vec![
                    Op::Compute(KernelCost::flops(1e9 * (r + 1) as f64)),
                    Op::Send {
                        dst: (r + 1) % n,
                        bytes: 4096,
                        tag: 7,
                    },
                    Op::Recv {
                        src: (r + n - 1) % n,
                        tag: 7,
                    },
                    Op::Collective {
                        kind: CollectiveKind::Allreduce,
                        group: world,
                        bytes: 8,
                    },
                ],
            });
        }
        prog
    }

    fn names() -> Vec<String> {
        vec!["(untracked)".to_string(), "ring".to_string()]
    }

    #[test]
    fn graph_makespan_bit_matches_des() {
        let machine = Machine::archer2();
        let prog = ring_program(6, 4);
        let graph = build_task_graph(&prog, &machine, &names()).unwrap();
        let sched = graph.schedule(&Rescale::none()).unwrap();
        let (out, log) = Replayer::new(machine).run_logged(&prog).unwrap();
        assert_eq!(sched.makespan.to_bits(), out.makespan().to_bits());
        validate_against_des(&graph, &sched, &log).unwrap();
    }

    #[test]
    fn cross_node_ranks_use_inter_node_links() {
        // Ranks straddling a node boundary: transfers must price the
        // inter-node link, visible as a larger makespan than the same
        // program on one node.
        let machine = Machine::archer2();
        let n = machine.cores_per_node;
        let mut prog = TraceProgram::new(n + 1);
        prog.rank(0).send(n, 1 << 20, 3);
        prog.rank(n).recv(0, 3);
        let graph = build_task_graph(&prog, &machine, &names()).unwrap();
        let sched = graph.schedule(&Rescale::none()).unwrap();
        let (out, log) = Replayer::new(machine).run_logged(&prog).unwrap();
        assert_eq!(sched.makespan.to_bits(), out.makespan().to_bits());
        validate_against_des(&graph, &sched, &log).unwrap();
    }

    #[test]
    fn what_if_rescale_matches_rescaled_des_replay() {
        // The engine's prediction for "phase-1 compute 2x faster" must
        // bit-match actually rescaling the program and re-replaying.
        let machine = Machine::archer2();
        let prog = ring_program(5, 3);
        let graph = build_task_graph(&prog, &machine, &names()).unwrap();
        let factors = vec![1.0, 0.5];
        let predicted = graph
            .what_if_makespan(&Rescale {
                compute_by_phase: factors.clone(),
                transfer_by_tag: vec![],
            })
            .unwrap();
        let scaled = scale_compute_by_phase(&prog, &machine, &factors);
        let measured = Replayer::new(machine).run(&scaled).unwrap().makespan();
        assert_eq!(predicted.to_bits(), measured.to_bits());
    }

    #[test]
    fn identity_scale_preserves_the_event_stream() {
        let machine = Machine::archer2();
        let prog = ring_program(4, 2);
        let expanded = scale_compute_by_phase(&prog, &machine, &[]);
        let (_, log_a) = Replayer::new(machine.clone()).run_logged(&prog).unwrap();
        let (_, log_b) = Replayer::new(machine).run_logged(&expanded).unwrap();
        assert_eq!(log_a, log_b);
    }

    #[test]
    fn unmatched_messaging_is_a_build_error() {
        let mut prog = TraceProgram::new(2);
        prog.rank(0).send(1, 64, 1);
        let err = build_task_graph(&prog, &Machine::archer2(), &names()).unwrap_err();
        assert!(err.contains("never received"), "{err}");

        let mut prog = TraceProgram::new(2);
        prog.rank(1).recv(0, 9);
        let err = build_task_graph(&prog, &Machine::archer2(), &names()).unwrap_err();
        assert_eq!(err, "deadlock: 1 ranks blocked; rank 1: recv from 0 tag 9");
    }

    #[test]
    fn a_collective_posted_outside_its_group_is_a_build_error() {
        let mut prog = TraceProgram::new(3);
        let group = prog.add_group(vec![0, 1]);
        prog.rank(0).collective(CollectiveKind::Barrier, group, 0);
        prog.rank(2).collective(CollectiveKind::Barrier, group, 0);
        let err = build_task_graph(&prog, &Machine::archer2(), &names()).unwrap_err();
        assert_eq!(err, "rank 2 posted collective on group 0 it is not in");
    }

    #[test]
    fn receiving_before_sending_on_both_ranks_is_a_build_error() {
        let mut prog = TraceProgram::new(2);
        for (rank, peer) in [(0, 1), (1, 0)] {
            prog.rank(rank).recv(peer, 7);
            prog.rank(rank).send(peer, 8, 7);
        }
        let err = build_task_graph(&prog, &Machine::archer2(), &names()).unwrap_err();
        assert_eq!(
            err,
            "deadlock: 2 ranks blocked; rank 0: recv from 1 tag 7; rank 1: recv from 0 tag 7"
        );
    }

    #[test]
    fn outputs_are_indexed_and_summed_in_rank_major_id_order() {
        // Rank 0 blocks on a receive from rank 1, so the DES runs rank
        // 1's compute between rank 0's two. Summed in that order, phase
        // 1's compute would be 1 + 1e16 + 1 = 1e16 (each 1 is half an
        // ulp and rounds away); in id order it is 1 + 1 + 1e16.
        let mut prog = TraceProgram::new(2);
        prog.rank(0).phase(1);
        prog.rank(0).compute_secs(1.0);
        prog.rank(0).recv(1, 3);
        prog.rank(0).compute_secs(1.0);
        prog.rank(1).phase(1);
        prog.rank(1).compute_secs(1e16);
        prog.rank(1).send(0, 64, 3);
        let machine = Machine::archer2();
        let graph = build_task_graph(&prog, &machine, &names()).unwrap();
        let sched = graph.schedule(&Rescale::none()).unwrap();
        assert_eq!(graph.attribution(&sched).compute[1], 1e16 + 2.0);
        // Ids: rank 0's compute, receive and compute, then rank 1's
        // compute and send.
        let out = Replayer::new(machine).run(&prog).unwrap();
        assert_eq!(sched.end[0], 1.0);
        assert_eq!(sched.end[2], out.finish[0]);
        assert_eq!(sched.end[3], 1e16);
        assert_eq!(sched.end[4], out.finish[1]);
    }

    #[test]
    fn a_meet_entered_at_once_blames_the_lower_rank() {
        // Both ranks enter the allreduce at t = 1. Rank 1 arrives first
        // in the DES, because rank 0 waits for its free message, and its
        // group lists it first; the critical path still blames rank 0.
        let machine = Machine {
            intra_latency: 0.0,
            send_overhead: 0.0,
            ..Machine::archer2()
        };
        let mut prog = TraceProgram::new(2);
        let group = prog.add_group(vec![1, 0]);
        prog.rank(0).recv(1, 5);
        prog.rank(1).send(0, 0, 5);
        for rank in 0..2 {
            prog.rank(rank).compute_secs(1.0);
            prog.rank(rank)
                .collective(CollectiveKind::Allreduce, group, 8);
        }
        let graph = build_task_graph(&prog, &machine, &names()).unwrap();
        let sched = graph.schedule(&Rescale::none()).unwrap();
        assert_eq!(sched.start[2], sched.start[5]);
        let path = graph.critical_path(&sched);
        assert!(!path.segments.is_empty());
        assert!(path.segments.iter().all(|s| s.rank == 0), "{path:?}");
    }

    #[test]
    fn never_received_names_the_first_unmatched_send_in_node_order() {
        let mut prog = TraceProgram::new(4);
        prog.rank(0).send(1, 64, 1);
        prog.rank(1).send(2, 64, 9);
        prog.rank(2).send(3, 64, 5);
        for _ in 0..16 {
            let err = build_task_graph(&prog, &Machine::archer2(), &names()).unwrap_err();
            assert_eq!(err, "send 0->1 tag 1 is never received");
        }
    }

    #[test]
    fn self_messages_match_inside_and_outside_bodies() {
        let machine = Machine::archer2();
        let mut prog = TraceProgram::new(2);
        prog.rank(0).send(0, 512, 4);
        prog.rank(0).ops.push(Op::Repeat {
            count: 3,
            body: vec![
                Op::Recv { src: 0, tag: 4 },
                Op::Compute(KernelCost::flops(1e6)),
                Op::Send {
                    dst: 0,
                    bytes: 512,
                    tag: 4,
                },
            ],
        });
        prog.rank(0).recv(0, 4);
        prog.rank(1).compute(KernelCost::flops(1e3));
        let graph = build_task_graph(&prog, &machine, &names()).unwrap();
        let sched = graph.schedule(&Rescale::none()).unwrap();
        let (out, log) = Replayer::new(machine).run_logged(&prog).unwrap();
        assert_eq!(out.messages, 4);
        assert_eq!(sched.makespan.to_bits(), out.makespan().to_bits());
        validate_against_des(&graph, &sched, &log).unwrap();
    }

    #[test]
    fn short_collective_is_a_build_error() {
        let mut prog = TraceProgram::new(2);
        let world = prog.add_world_group();
        prog.rank(0).collective(CollectiveKind::Allreduce, world, 8);
        let err = build_task_graph(&prog, &Machine::archer2(), &names()).unwrap_err();
        assert_eq!(
            err,
            "deadlock: 1 ranks blocked; rank 0: collective on group 0"
        );
    }
}
