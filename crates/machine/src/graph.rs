//! Happens-before task-graph construction from trace programs.
//!
//! [`build_task_graph`] walks a [`TraceProgram`] against a [`Machine`]
//! and produces the [`cpx_obs::TaskGraph`] the critical-path analytics
//! run on: one node per expanded op, program-order edges within a rank,
//! a matched-send edge per receive (FIFO per `(src, dst, tag)`, the
//! mailbox discipline of [`crate::des::Replayer`]), and one shared
//! [`cpx_obs::Meet`] per collective occurrence. Sends and receives are
//! matched through the replayer's own dense channel index, so neither
//! side hashes per message.
//!
//! The construction is *static* — no replay runs; matching follows from
//! program order alone, exactly as the DES scheduler would resolve it.
//! Costs are charged with the same float expressions the replayer uses
//! (`kernel_time`, `p2p_time`, `send_overhead`, `collective_time`), so
//! a noise-free [`crate::des::Replayer::run`] and the graph's baseline
//! schedule agree **bit for bit**; [`validate_against_des`] checks that
//! against a logged event stream, event by event.

use std::collections::VecDeque;

use cpx_obs::{Meet, Schedule, TaskGraph, TaskGraphParts, TaskKind, TaskNode};

use crate::channels::Channels;
use crate::collectives::collective_time;
use crate::des::{DesEvent, DesEventKind};
use crate::model::Machine;
use crate::trace::{CollectiveKind, Op, TraceProgram};

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

/// Build the causal task graph of `program` on `machine`.
///
/// `phase_names` labels phase ids for reports (index 0 is conventionally
/// `"(untracked)"`); it does not affect the graph structure. Programs
/// with noise are not representable — the graph models the noise-free
/// replay, which is what every committed artifact records.
///
/// Errors on malformed programs (receive with no matching send,
/// inconsistent collective kinds, short collective occurrences) instead
/// of deadlocking the way a live replay would.
pub fn build_task_graph(
    program: &TraceProgram,
    machine: &Machine,
    phase_names: &[String],
) -> Result<TaskGraph, String> {
    program.validate()?;
    let channels = Channels::build(program)?;
    let n = program.n_ranks();
    let mut nodes: Vec<TaskNode> = Vec::new();

    // Send nodes per channel, in sender program order — exactly the DES
    // mailbox FIFO, because each channel has a single sender.
    let mut sends: Vec<VecDeque<usize>> = vec![VecDeque::new(); channels.len()];
    // Receive nodes with their channel, in node order.
    let mut recvs: Vec<(usize, u32)> = Vec::new();
    // Collective occurrences: per group, per occurrence index, the
    // member entries in rank-walk order.
    struct Entry {
        node: usize,
        kind: CollectiveKind,
        bytes: usize,
    }
    let mut occurrences: Vec<Vec<Vec<Entry>>> = std::iter::repeat_with(Vec::new)
        .take(program.groups.len())
        .collect();

    for (rank, trace) in program.traces.iter().enumerate() {
        let mut prev: Option<usize> = None;
        let mut phase: u16 = 0;
        let mut occ_counter = vec![0usize; program.groups.len()];
        // Expanded-op walk: a top-level op is a one-op body run once
        // (`Repeat` bodies do not nest, as the DES cursor assumes).
        for (pc, top) in trace.ops.iter().enumerate() {
            let (count, body, in_body) = match top {
                Op::Repeat { count, body } => (*count, body.as_slice(), true),
                other => (1, std::slice::from_ref(other), false),
            };
            for _ in 0..count {
                for (j, op) in body.iter().enumerate() {
                    let channel = || channels.of(rank, pc, in_body.then_some(j));
                    let id = nodes.len();
                    let (kind, dur) = match *op {
                        Op::Phase(p) => {
                            phase = p;
                            continue;
                        }
                        Op::Compute(cost) => (TaskKind::Compute, machine.kernel_time(cost)),
                        Op::ComputeSecs(secs) => (TaskKind::Compute, secs),
                        Op::Send { dst, bytes, tag } => {
                            sends[channel() as usize].push_back(id);
                            let bytes = bytes as u64;
                            (TaskKind::Send { dst, tag, bytes }, machine.send_overhead)
                        }
                        Op::Recv { src, tag } => {
                            recvs.push((id, channel()));
                            (TaskKind::Recv { src, tag }, 0.0)
                        }
                        Op::Collective { kind, group, bytes } => {
                            let occ = occ_counter[group];
                            occ_counter[group] += 1;
                            if occurrences[group].len() <= occ {
                                occurrences[group].resize_with(occ + 1, Vec::new);
                            }
                            occurrences[group][occ].push(Entry {
                                node: id,
                                kind,
                                bytes,
                            });
                            // Meet index patched after the walk.
                            (TaskKind::Collective { meet: usize::MAX }, 0.0)
                        }
                        Op::Repeat { .. } => unreachable!("validated: bodies do not nest"),
                    };
                    nodes.push(TaskNode {
                        rank,
                        phase,
                        kind,
                        dur,
                        transfer: 0.0,
                        prev,
                        matched_send: None,
                    });
                    prev = Some(id);
                }
            }
        }
    }

    // Match receives to sends: a channel's receives execute on a single
    // rank in its program order, which is ascending node id, so its k-th
    // receive takes its k-th send — the DES match order.
    for &(id, ch) in &recvs {
        let (src, rank, tag) = channels.key(ch);
        let send = sends[ch as usize].pop_front().ok_or_else(|| {
            format!("rank {rank}: recv from {src} tag {tag} has no matching send")
        })?;
        // The wire time lives on the receive only; the send keeps 0.
        let TaskKind::Send { bytes, .. } = nodes[send].kind else {
            unreachable!("channel queues hold send nodes");
        };
        nodes[id].matched_send = Some(send);
        nodes[id].transfer = machine.p2p_time(src, rank, bytes as usize);
    }
    // Report the first unmatched send in node order, so the error names
    // the same message on every build.
    let unmatched = sends
        .iter()
        .enumerate()
        .filter_map(|(ch, queue)| Some((*queue.front()?, ch)))
        .min();
    if let Some((_, ch)) = unmatched {
        let (src, dst, tag) = channels.key(ch as u32);
        return Err(format!("send {src}->{dst} tag {tag} is never received"));
    }

    // Seal collective occurrences into meets.
    let mut meets: Vec<Meet> = Vec::new();
    for (group, occs) in occurrences.iter().enumerate() {
        let gsize = program.groups[group].len();
        for (occ, entries) in occs.iter().enumerate() {
            if entries.len() != gsize {
                return Err(format!(
                    "group {group} occurrence {occ}: {} of {gsize} members emitted a collective",
                    entries.len()
                ));
            }
            let kind = entries[0].kind;
            let mut max_bytes = 0usize;
            for e in entries {
                if e.kind != kind {
                    return Err(format!(
                        "group {group} occurrence {occ}: mismatched collective kinds \
                         {kind:?} vs {:?}",
                        e.kind
                    ));
                }
                max_bytes = max_bytes.max(e.bytes);
            }
            let meet_id = meets.len();
            for e in entries {
                nodes[e.node].kind = TaskKind::Collective { meet: meet_id };
            }
            meets.push(Meet {
                members: entries.iter().map(|e| e.node).collect(),
                cost: collective_time(machine, kind, gsize, max_bytes),
                label: collective_label(kind),
            });
        }
    }

    Ok(TaskGraphParts {
        nodes,
        meets,
        n_ranks: n,
        phase_names: phase_names.to_vec(),
    }
    .into())
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
    // Per-rank cursors over that rank's nodes in id (= program) order.
    let mut rank_nodes: Vec<Vec<usize>> = vec![Vec::new(); graph.n_ranks];
    for (id, node) in graph.nodes.iter().enumerate() {
        rank_nodes[node.rank].push(id);
    }
    let mut cursor = vec![0usize; graph.n_ranks];

    let mut advance_to = |rank: usize, want: fn(&TaskKind) -> bool| -> Option<usize> {
        let list = &rank_nodes[rank];
        while cursor[rank] < list.len() {
            let id = list[cursor[rank]];
            cursor[rank] += 1;
            if want(&graph.nodes[id].kind) {
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
                advance_to(rank, |k| matches!(k, TaskKind::Send { .. })).map(|id| sched.end[id]),
                "send end",
            ),
            DesEventKind::Recv { .. } => (
                advance_to(rank, |k| matches!(k, TaskKind::Recv { .. })).map(|id| sched.end[id]),
                "recv end",
            ),
            DesEventKind::Collective { .. } => (
                advance_to(rank, |k| matches!(k, TaskKind::Collective { .. }))
                    .map(|id| sched.start[id]),
                "collective entry",
            ),
            DesEventKind::Finish => (
                Some(
                    rank_nodes[rank]
                        .last()
                        .map(|&id| sched.end[id])
                        .unwrap_or(0.0),
                ),
                "finish",
            ),
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
    use crate::des::Replayer;
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
    fn only_receives_carry_the_wire_time() {
        let machine = Machine::archer2();
        let prog = ring_program(6, 2);
        let graph = build_task_graph(&prog, &machine, &names()).unwrap();
        let mut receives = 0;
        for node in &graph.nodes {
            match node.kind {
                TaskKind::Recv { src, .. } => {
                    let send = &graph.nodes[node.matched_send.unwrap()];
                    let TaskKind::Send { dst, bytes, .. } = send.kind else {
                        panic!("receive matched to {:?}", send.kind);
                    };
                    assert_eq!((send.rank, dst), (src, node.rank));
                    let wire = machine.p2p_time(src, dst, bytes as usize);
                    assert_eq!(node.transfer.to_bits(), wire.to_bits());
                    receives += 1;
                }
                // Sends included: the wire time lives on the receive.
                _ => assert_eq!(node.transfer, 0.0),
            }
        }
        assert_eq!(receives, 6 * 2);
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
        assert!(err.contains("no matching send"), "{err}");
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
        for (id, node) in graph.nodes.iter().enumerate() {
            if let TaskKind::Recv { .. } = node.kind {
                // Each receive takes the send just before it.
                assert_eq!(node.matched_send, Some(id - 1));
            }
        }
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
        assert!(err.contains("members emitted"), "{err}");
    }
}
