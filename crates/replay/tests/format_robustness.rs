//! Trace-format robustness: random traces round-trip exactly, and no
//! hostile input — truncation, bit flips, unknown versions, garbage —
//! ever panics or misparses; everything maps to a typed [`TraceError`].

use proptest::prelude::*;

use cpx_comm::CollectiveOp;
use cpx_machine::CollectiveKind;
use cpx_replay::{ReplayEvent, Trace, TraceError, SCHEMA_VERSION};

/// Build one event from plain random draws (`kind` selects the
/// variant; the integer/float fields are reused per variant).
fn make_event(kind: u8, a: u64, b: u64, c: u64, flags: u8, t: f64) -> ReplayEvent {
    let kinds = [
        CollectiveKind::Barrier,
        CollectiveKind::Broadcast,
        CollectiveKind::Reduce,
        CollectiveKind::Allreduce,
        CollectiveKind::Allgather,
        CollectiveKind::Alltoall,
        CollectiveKind::Gather,
        CollectiveKind::Scatter,
    ];
    let ops = [
        CollectiveOp::Bcast,
        CollectiveOp::Reduce,
        CollectiveOp::Allreduce,
        CollectiveOp::Barrier,
        CollectiveOp::Gather,
        CollectiveOp::Allgather,
    ];
    let sites = [
        cpx_core::SdcSite::SparseKernel,
        cpx_core::SdcSite::HaloExchange,
        cpx_core::SdcSite::CommPayload,
        cpx_core::SdcSite::PhysicsInvariant,
        cpx_core::SdcSite::SolverCycle,
    ];
    match kind % 20 {
        0 => ReplayEvent::Send {
            rank: a,
            dst: b,
            tag: c,
            bytes: c.wrapping_mul(8),
            vtime: t,
        },
        1 => ReplayEvent::Recv {
            rank: a,
            src: b,
            tag: c,
            vtime: t,
        },
        2 => ReplayEvent::Collective {
            rank: a,
            kind: kinds[(b % 8) as usize],
            group: c,
            vtime: t,
        },
        3 => ReplayEvent::Finish { rank: a, vtime: t },
        4 => ReplayEvent::CommSend {
            rank: a,
            dst: b,
            tag: c,
            seq: c.wrapping_add(1),
            dropped: flags & 1 != 0,
            duplicated: flags & 2 != 0,
            corrupted: flags & 4 != 0,
            vtime: t,
        },
        5 => ReplayEvent::CommRecv {
            rank: a,
            src: b,
            tag: c,
            vtime: t,
        },
        6 => ReplayEvent::CommRecvCorrupt {
            rank: a,
            src: b,
            tag: c,
            vtime: t,
        },
        7 => ReplayEvent::CommBackoff {
            rank: a,
            attempt: b,
            vtime: t,
        },
        8 => ReplayEvent::CommPeerDead {
            rank: a,
            peer: b,
            vtime: t,
        },
        9 => ReplayEvent::CommTimeout {
            rank: a,
            src: b,
            vtime: t,
        },
        10 => ReplayEvent::CommCollective {
            rank: a,
            op: ops[(b % 6) as usize],
            vtime: t,
        },
        11 => ReplayEvent::CommCrash { rank: a, vtime: t },
        12 => ReplayEvent::CommAbort { rank: a, vtime: t },
        13 => ReplayEvent::StaleExchange { iter: a, cu: b },
        14 => ReplayEvent::Checkpoint { iter: a },
        15 => ReplayEvent::Crash {
            app: a,
            iter: b,
            vtime: t,
        },
        16 => ReplayEvent::Rollback { to_iter: a },
        17 => ReplayEvent::Shrink {
            app: a,
            ranks_after: b,
        },
        18 => ReplayEvent::SdcDetected {
            iter: a,
            site: sites[(b % 5) as usize],
        },
        _ => ReplayEvent::SdcRecovered { iter: a, cost: t },
    }
}

fn event_strategy() -> impl proptest::strategy::Strategy<Value = ReplayEvent> {
    (
        0u8..20,
        0u64..1_000,
        0u64..1_000,
        0u64..100_000,
        0u8..8,
        0.0f64..1.0e3,
    )
        .prop_map(|(kind, a, b, c, flags, t)| make_event(kind, a, b, c, flags, t))
}

fn trace_strategy() -> impl proptest::strategy::Strategy<Value = Trace> {
    (
        0u64..u64::MAX,
        0u32..4096,
        proptest::collection::vec(event_strategy(), 0..40),
    )
        .prop_map(|(seed, world_size, events)| Trace {
            label: "prop".to_string(),
            seed,
            world_size,
            events,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_traces_round_trip(trace in trace_strategy()) {
        let bytes = trace.to_bytes();
        let back = Trace::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, trace);
    }

    #[test]
    fn truncation_is_always_a_typed_error(trace in trace_strategy(), frac in 0.0f64..1.0) {
        let bytes = trace.to_bytes();
        let cut = ((bytes.len() as f64) * frac) as usize;
        // Cutting anywhere strictly before the end must fail typed, not
        // panic or return a silently shorter trace.
        if cut < bytes.len() {
            prop_assert!(Trace::from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn corrupted_record_bytes_are_rejected(
        trace in trace_strategy(),
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        // Corrupt only the record region (everything after the header);
        // the header's label/seed fields are identity, not integrity.
        if !trace.events.is_empty() {
            let bytes = trace.to_bytes();
            let header_len = Trace {
                label: trace.label.clone(),
                seed: trace.seed,
                world_size: trace.world_size,
                events: vec![],
            }
            .to_bytes()
            .len();
            let span = bytes.len() - header_len;
            let pos = header_len + ((span as f64) * pos_frac) as usize;
            let pos = pos.min(bytes.len() - 1);
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= 1 << bit;
            prop_assert!(
                Trace::from_bytes(&corrupted).is_err(),
                "flip at {pos} (header {header_len}, len {}) parsed",
                bytes.len()
            );
        }
    }

    #[test]
    fn garbage_never_panics(data in proptest::collection::vec(0u16..256, 0..256)
        .prop_map(|v| v.into_iter().map(|b| b as u8).collect::<Vec<u8>>()))
    {
        // Arbitrary bytes: any result is fine, panicking is not.
        let _ = Trace::from_bytes(&data);
    }
}

#[test]
fn unknown_schema_version_is_typed_not_panic() {
    let trace = Trace {
        label: "v".to_string(),
        seed: 1,
        world_size: 2,
        events: vec![ReplayEvent::Checkpoint { iter: 5 }],
    };
    let mut bytes = trace.to_bytes();
    bytes[4..8].copy_from_slice(&(SCHEMA_VERSION + 7).to_le_bytes());
    assert_eq!(
        Trace::from_bytes(&bytes),
        Err(TraceError::UnsupportedVersion {
            found: SCHEMA_VERSION + 7,
            supported: SCHEMA_VERSION
        })
    );
}

#[test]
fn trailing_garbage_is_rejected() {
    let trace = Trace {
        label: "t".to_string(),
        seed: 1,
        world_size: 2,
        events: vec![ReplayEvent::Rollback { to_iter: 3 }],
    };
    let mut bytes = trace.to_bytes();
    bytes.push(0xEE);
    assert!(matches!(
        Trace::from_bytes(&bytes),
        Err(TraceError::Malformed { .. })
    ));
}
