//! Property-based tests for the virtual testbed.

use std::ops::Range;

use proptest::prelude::*;

use cpx_machine::{
    build_task_graph, scale_compute_by_phase, validate_against_des, CollectiveKind, KernelCost,
    Machine, Op, ReplayOutcome, Replayer, TraceProgram,
};
use cpx_obs::Rescale;

/// A random ring program: compute + neighbour exchange + allreduce.
fn ring_program(n: usize, steps: u32, flops: f64, bytes: usize) -> TraceProgram {
    let mut p = TraceProgram::new(n);
    let g = p.add_world_group();
    for r in 0..n {
        let body = vec![
            Op::Compute(KernelCost::new(flops, flops / 2.0)),
            Op::Send {
                dst: (r + 1) % n,
                bytes,
                tag: 0,
            },
            Op::Recv {
                src: (r + n - 1) % n,
                tag: 0,
            },
            Op::Collective {
                kind: CollectiveKind::Allreduce,
                group: g,
                bytes: 8,
            },
        ];
        p.rank(r).ops.push(Op::Repeat { count: steps, body });
    }
    p
}

/// One step of [`random_program`]: `(what, a, b, tag, x)`.
type Step = (u8, usize, usize, u32, f64);

fn steps(len: Range<usize>) -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((0u8..6, 0usize..64, 0usize..64, 0u32..3, 0.0f64..1.0), len)
}

/// A random program built from `steps`, each `(what, a, b, tag, x)`
/// applied to the ranks it names in one global order: compute on rank
/// `a`, a phase marker, a message `a → b`, two messages `a → b` received
/// in the opposite order to their sends, or a collective on the world
/// group or one of the sub-groups drawn from `masks`. Executing the
/// steps in that order is a valid schedule, so the program never
/// deadlocks, while ranks still block on messages from higher ranks.
fn random_program(n: usize, masks: &[u64], steps: &[Step]) -> TraceProgram {
    let mut p = TraceProgram::new(n);
    let mut groups = vec![p.add_world_group()];
    for &mask in masks {
        let mut members: Vec<usize> = (0..n).filter(|r| mask >> r & 1 == 1).collect();
        if members.is_empty() {
            members.push(mask as usize % n);
        }
        groups.push(p.add_group(members));
    }
    for &(what, a, b, tag, x) in steps {
        let a = a % n;
        let b = if b % n == a { (a + 1) % n } else { b % n };
        let bytes = (x * 1e5) as usize;
        match what {
            0 => p.rank(a).compute(KernelCost::new(1e6 + x * 1e9, x * 1e8)),
            1 => p.rank(a).compute_secs(x * 1e-3),
            2 => p.rank(a).phase((b % 4) as u16),
            3 => {
                p.rank(a).send(b, bytes, tag);
                p.rank(b).recv(a, tag);
            }
            4 => {
                p.rank(a).send(b, bytes, tag);
                p.rank(a).send(b, 2 * bytes, tag + 3);
                p.rank(b).recv(a, tag + 3);
                p.rank(b).recv(a, tag);
            }
            _ => {
                let group = groups[b % groups.len()];
                let kind = [
                    CollectiveKind::Barrier,
                    CollectiveKind::Allreduce,
                    CollectiveKind::Allgather,
                    CollectiveKind::Broadcast,
                ][tag as usize % 4];
                for (k, r) in p.groups[group].clone().into_iter().enumerate() {
                    p.rank(r).collective(kind, group, bytes * (k + 1));
                }
            }
        }
    }
    p
}

/// [`random_program`]'s `prefix`, then its `body` wrapped in
/// `Repeat { count }` on every rank, then its `suffix`, all over the
/// same groups. The three draw tags from one small range, so the same
/// channels carry messages inside and outside the bodies. Each part
/// balances its own messages and collectives, so running them one after
/// another, the body `count` times, is a valid schedule and the program
/// never deadlocks.
fn repeat_program(
    n: usize,
    masks: &[u64],
    prefix: &[Step],
    body: &[Step],
    count: u32,
    suffix: &[Step],
) -> TraceProgram {
    let mut p = random_program(n, masks, prefix);
    let body = random_program(n, masks, body);
    let suffix = random_program(n, masks, suffix);
    for (r, trace) in p.traces.iter_mut().enumerate() {
        trace.ops.push(Op::Repeat {
            count,
            body: body.traces[r].ops.clone(),
        });
        trace.ops.extend(suffix.traces[r].ops.iter().cloned());
    }
    p
}

/// Every number of a replay outcome, floats as bits: the finish times,
/// then each phase row's length and values, then the counts.
fn outcome_bits(out: &ReplayOutcome) -> Vec<u64> {
    let rows = out.phases.compute.iter().chain(&out.phases.comm);
    let mut bits: Vec<u64> = out.finish.iter().map(|x| x.to_bits()).collect();
    for row in rows {
        bits.push(row.len() as u64);
        bits.extend(row.iter().map(|x| x.to_bits()));
    }
    bits.extend([out.messages, out.bytes]);
    bits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn task_graph_schedule_and_what_ifs_equal_the_des(
        n in 2usize..10,
        masks in proptest::collection::vec(0u64..1024, 0..3),
        steps in steps(1..60),
        factors in proptest::collection::vec(0.25f64..4.0, 0..5),
        cores_per_node in 2usize..5,
    ) {
        let program = random_program(n, &masks, &steps);
        // Few cores per node, so messages cross inter-node links too.
        let machine = Machine { cores_per_node, ..Machine::archer2() };
        let names: Vec<String> = (0..4).map(|p| format!("phase {p}")).collect();
        let graph = build_task_graph(&program, &machine, &names).unwrap();
        let replayer = Replayer::new(machine.clone());

        let sched = graph.schedule(&Rescale::none()).unwrap();
        let des = replayer.run(&program).unwrap().makespan();
        prop_assert_eq!(sched.makespan.to_bits(), des.to_bits());
        let (_, log) = replayer.run_logged(&program).unwrap();
        validate_against_des(&graph, &sched, &log).unwrap();

        let what_if = Rescale { compute_by_phase: factors.clone(), ..Rescale::none() };
        let predicted = graph.what_if_makespan(&what_if).unwrap();
        let scaled = scale_compute_by_phase(&program, &machine, &factors);
        let measured = replayer.run(&scaled).unwrap().makespan();
        prop_assert_eq!(predicted.to_bits(), measured.to_bits());
        let identity = graph.what_if_makespan(&Rescale::none()).unwrap();
        prop_assert_eq!(identity.to_bits(), sched.makespan.to_bits());
    }

    #[test]
    fn repeat_bodies_replay_and_build_like_their_expansion(
        n in 2usize..10,
        masks in proptest::collection::vec(0u64..1024, 0..3),
        prefix in steps(0..20),
        body in steps(1..20),
        count in 1u32..4,
        suffix in steps(0..20),
        cores_per_node in 2usize..5,
    ) {
        let program = repeat_program(n, &masks, &prefix, &body, count, &suffix);
        let machine = Machine { cores_per_node, ..Machine::archer2() };
        let replayer = Replayer::new(machine.clone());
        let expanded = scale_compute_by_phase(&program, &machine, &[]);

        let out = replayer.run(&program).unwrap();
        let want = replayer.run(&expanded).unwrap();
        prop_assert_eq!(outcome_bits(&out), outcome_bits(&want));
        let (logged, log) = replayer.run_logged(&program).unwrap();
        let (_, want_log) = replayer.run_logged(&expanded).unwrap();
        prop_assert_eq!(outcome_bits(&logged), outcome_bits(&out));
        let events = |log: &[cpx_machine::DesEvent]| {
            log.iter().map(|e| (e.rank, e.vtime.to_bits(), e.kind)).collect::<Vec<_>>()
        };
        prop_assert_eq!(events(&log), events(&want_log));

        let names: Vec<String> = (0..4).map(|p| format!("phase {p}")).collect();
        let graph = build_task_graph(&program, &machine, &names).unwrap();
        let sched = graph.schedule(&Rescale::none()).unwrap();
        prop_assert_eq!(sched.makespan.to_bits(), out.makespan().to_bits());
        validate_against_des(&graph, &sched, &log).unwrap();
    }

    #[test]
    fn replay_is_deterministic(n in 2usize..32, steps in 1u32..8, bytes in 0usize..100_000) {
        let program = ring_program(n, steps, 1e6, bytes);
        let rep = Replayer::new(Machine::archer2());
        let a = rep.run(&program).unwrap();
        let b = rep.run(&program).unwrap();
        prop_assert_eq!(a.finish, b.finish);
        prop_assert_eq!(a.messages, b.messages);
    }

    #[test]
    fn makespan_bounds(n in 2usize..24, steps in 1u32..6, flops in 1e5f64..1e9) {
        let program = ring_program(n, steps, flops, 1024);
        let out = Replayer::new(Machine::archer2()).run(&program).unwrap();
        let m = Machine::archer2();
        // Lower bound: the pure compute time of one rank.
        let compute = m.kernel_time(KernelCost::new(flops, flops / 2.0)) * steps as f64;
        prop_assert!(out.makespan() >= compute * 0.999);
        // All clocks non-negative and ≤ makespan.
        for &f in &out.finish {
            prop_assert!(f >= 0.0 && f <= out.makespan() + 1e-15);
        }
    }

    #[test]
    fn phase_breakdown_accounts_for_every_rank(
        n in 2usize..10,
        masks in proptest::collection::vec(0u64..1024, 0..3),
        steps in steps(1..60),
    ) {
        let program = random_program(n, &masks, &steps);
        let out = Replayer::new(Machine::archer2()).run(&program).unwrap();
        let top = program
            .traces
            .iter()
            .flat_map(|t| &t.ops)
            .filter_map(|op| match *op {
                Op::Phase(p) => Some(p as usize),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let ph = &out.phases;
        prop_assert_eq!(ph.compute.len(), 1 + top);
        prop_assert_eq!(ph.comm.len(), 1 + top);
        for (compute, comm) in ph.compute.iter().zip(&ph.comm) {
            prop_assert_eq!(compute.len(), comm.len());
            prop_assert!(compute.is_empty() || compute.len() == n);
        }
        // Compute + comm over all phases accounts for each rank's
        // elapsed time.
        for r in 0..n {
            let total: f64 = (0..ph.compute.len())
                .filter(|&p| !ph.compute[p].is_empty())
                .map(|p| ph.compute[p][r] + ph.comm[p][r])
                .sum();
            prop_assert!((total - out.finish[r]).abs() < 1e-9 * out.finish[r].max(1.0));
        }
    }

    #[test]
    fn more_bytes_never_faster(n in 2usize..16, steps in 1u32..4) {
        let small = Replayer::new(Machine::archer2())
            .run(&ring_program(n, steps, 1e6, 64))
            .unwrap()
            .makespan();
        let big = Replayer::new(Machine::archer2())
            .run(&ring_program(n, steps, 1e6, 1 << 20))
            .unwrap()
            .makespan();
        prop_assert!(big >= small);
    }

    #[test]
    fn noise_is_one_sided_and_seeded(n in 2usize..12, seed in 0u64..1000) {
        let program = ring_program(n, 3, 1e7, 512);
        let clean = Replayer::new(Machine::archer2()).run(&program).unwrap();
        let noisy = Replayer::new(Machine::archer2())
            .with_noise(0.05, seed)
            .run(&program)
            .unwrap();
        let noisy2 = Replayer::new(Machine::archer2())
            .with_noise(0.05, seed)
            .run(&program)
            .unwrap();
        // Noise only slows things down.
        prop_assert!(noisy.makespan() >= clean.makespan());
        // And not by more than the amplitude bound (2·amp on compute).
        prop_assert!(noisy.makespan() <= clean.makespan() * 1.25);
        // Same seed ⇒ bit-identical replay.
        prop_assert_eq!(noisy.finish, noisy2.finish);
    }

    #[test]
    fn trace_stats_consistent_with_replay(n in 2usize..16, steps in 1u32..5) {
        let program = ring_program(n, steps, 1e6, 256);
        let stats = cpx_machine::TraceStats::of(&program);
        let out = Replayer::new(Machine::archer2()).run(&program).unwrap();
        prop_assert_eq!(stats.sends, out.messages);
        prop_assert_eq!(stats.send_bytes, out.bytes);
        prop_assert!(stats.messages_balanced());
    }
}
