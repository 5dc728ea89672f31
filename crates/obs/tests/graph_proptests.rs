//! Scheduling is total: on any task graph, well-formed or not,
//! `schedule` and `what_if_makespan` return a value or a typed error,
//! never a panic or a hang, and the two agree. The plan a graph compiles
//! on its first call is cached, so every later call, and every call on a
//! clone, must give the same bits or the same error.

use proptest::prelude::*;

use cpx_obs::{GraphError, Meet, Rescale, TaskGraph, TaskGraphParts, TaskKind, TaskNode};

/// A small graph from `nodes` (`(kind, rank, a, dur)`), then broken by
/// `edits` (`(field, node, value)`). Before the edits, ranks 0..3 run
/// their nodes in id order, a receive is matched to node `a` (any node,
/// possibly itself, a later one or past the end) and a collective joins
/// meet `a % 3`, whose members are exactly its collectives.
fn graph(nodes: &[(u8, usize, usize, f64)], edits: &[(u8, usize, usize)]) -> TaskGraph {
    let n = nodes.len();
    let mut g = TaskGraphParts {
        n_ranks: 3,
        meets: (0..3)
            .map(|_| Meet {
                members: Vec::new(),
                cost: 0.5,
                label: "barrier",
            })
            .collect(),
        ..TaskGraphParts::default()
    };
    let mut last = [None; 3];
    for (i, &(kind, rank, a, dur)) in nodes.iter().enumerate() {
        let rank = rank % 3;
        let (kind, matched_send) = match kind % 4 {
            0 => (TaskKind::Compute, None),
            1 => (
                TaskKind::Send {
                    dst: (rank + 1) % 3,
                    tag: 0,
                    bytes: 8,
                },
                None,
            ),
            2 => (TaskKind::Recv { src: 0, tag: 0 }, Some(a % (n + 1))),
            _ => {
                g.meets[a % 3].members.push(i);
                (TaskKind::Collective { meet: a % 3 }, None)
            }
        };
        g.nodes.push(TaskNode {
            rank,
            phase: (a % 2) as u16,
            kind,
            dur,
            transfer: dur / 2.0,
            prev: last[rank],
            matched_send,
        });
        last[rank] = Some(i);
    }
    for &(field, node, value) in edits {
        let Some(target) = g.nodes.get_mut(node % n.max(1)) else {
            continue;
        };
        match field % 4 {
            0 => target.prev = (value % 3 != 0).then_some(value / 3),
            1 => target.matched_send = (value % 3 != 0).then_some(value / 3),
            2 => target.kind = TaskKind::Collective { meet: value % 4 },
            _ => g.meets[value % 3].members.push(node % (n + 2)),
        }
    }
    g.into()
}

/// The bits of a schedule: makespan, start and end times.
type Bits = (u64, Vec<u64>, Vec<u64>);

fn schedule_bits(g: &TaskGraph, rescale: &Rescale) -> Result<Bits, GraphError> {
    let s = g.schedule(rescale)?;
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
    Ok((s.makespan.to_bits(), bits(&s.start), bits(&s.end)))
}

/// The contract documented on `TaskGraph::order`: a permutation in
/// which every node follows its `prev` and matched send, and each meet's
/// members sit together, in member order, before any member's successor.
fn check_order(g: &TaskGraph, order: &[usize]) {
    let mut pos = vec![usize::MAX; g.nodes.len()];
    for (k, &i) in order.iter().enumerate() {
        prop_assert_eq!(pos[i], usize::MAX);
        pos[i] = k;
    }
    prop_assert_eq!(order.len(), g.nodes.len());
    for (i, node) in g.nodes.iter().enumerate() {
        for dep in [node.prev, node.matched_send].into_iter().flatten() {
            prop_assert!(pos[dep] < pos[i]);
        }
    }
    for meet in &g.meets {
        let Some(&head) = meet.members.first() else {
            continue;
        };
        for (k, &x) in meet.members.iter().enumerate() {
            prop_assert_eq!(pos[x], pos[head] + k);
        }
        for (i, node) in g.nodes.iter().enumerate() {
            if node.prev.is_some_and(|p| meet.members.contains(&p)) {
                prop_assert!(pos[i] >= pos[head] + meet.members.len());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn schedule_is_total_and_agrees_with_what_if(
        nodes in proptest::collection::vec((0u8..4, 0usize..3, 0usize..12, 0.0f64..2.0), 0..10),
        edits in proptest::collection::vec((0u8..4, 0usize..12, 0usize..30), 0..3),
        factor in 0.25f64..4.0,
    ) {
        let g = graph(&nodes, &edits);
        // One clone before the first call compiles the plan, one after.
        let fresh = g.clone();
        let rescales = [
            Rescale::none(),
            Rescale { compute_by_phase: vec![1.0, factor], transfer_by_tag: vec![(0, 0, factor)] },
        ];
        let want: Vec<Result<Bits, GraphError>> =
            rescales.iter().map(|r| schedule_bits(&g, r)).collect();
        let compiled = g.clone();
        // Interleave what-ifs and schedules, twice over, on all three;
        // `fresh` compiles on a what-if, `g` compiled on a schedule.
        for _ in 0..2 {
            for graph in [&fresh, &g, &compiled] {
                for (r, want) in rescales.iter().zip(&want) {
                    let makespan = graph.what_if_makespan(r).map(f64::to_bits);
                    prop_assert_eq!(makespan, want.as_ref().map(|w| w.0).map_err(GraphError::clone));
                    prop_assert_eq!(&schedule_bits(graph, r), want);
                }
            }
        }
        match g.order() {
            Ok(order) => check_order(&g, &order.collect::<Vec<_>>()),
            Err(e) => prop_assert_eq!(Err(e), want[0].clone()),
        };
    }
}
