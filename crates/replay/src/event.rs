//! The unified replay event: every source of nondeterminism a run can
//! record, flattened into one serializable enum.
//!
//! Three producers feed it:
//!
//! * the DES replayer's deterministic event log
//!   ([`cpx_machine::DesEvent`]) — sends, receives, collective arrivals
//!   and rank finishes with virtual timestamps;
//! * the threaded comm runtime's per-rank event lanes
//!   ([`cpx_comm::CommEvent`]) — including each message's fault-plan
//!   draw (drop/duplicate/corrupt), retries, failure detection, crashes
//!   and aborts;
//! * the resilient coupled run's decision log
//!   ([`cpx_core::ResilienceEvent`]) — checkpoints, the
//!   crash/rollback/shrink sequence, stale CU exchanges, and SDC
//!   detection/recovery.
//!
//! Events compare bit-exactly (timestamps are IEEE-754-identical across
//! replays of the same inputs), which is what makes strict event-by-event
//! verification meaningful.

use cpx_comm::{CollectiveOp, CommEvent, CommEventKind};
use cpx_core::{ResilienceEvent, SdcSite};
use cpx_machine::{CollectiveKind, DesEvent, DesEventKind};
use cpx_wire::{Decoder, Encoder, WireError};

/// One recorded event. See the module docs for the three producers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplayEvent {
    /// DES: a rank deposited a message.
    Send {
        rank: u64,
        dst: u64,
        tag: u64,
        bytes: u64,
        vtime: f64,
    },
    /// DES: a rank completed a matching receive.
    Recv {
        rank: u64,
        src: u64,
        tag: u64,
        vtime: f64,
    },
    /// DES: a rank arrived at a collective.
    Collective {
        rank: u64,
        kind: CollectiveKind,
        group: u64,
        vtime: f64,
    },
    /// DES: a rank ran out of ops.
    Finish { rank: u64, vtime: f64 },
    /// Comm runtime: a send was issued, with its fault-plan draw.
    CommSend {
        rank: u64,
        dst: u64,
        tag: u64,
        seq: u64,
        dropped: bool,
        duplicated: bool,
        corrupted: bool,
        vtime: f64,
    },
    /// Comm runtime: a message was admitted (CRC verified).
    CommRecv {
        rank: u64,
        src: u64,
        tag: u64,
        vtime: f64,
    },
    /// Comm runtime: a message failed its payload CRC check.
    CommRecvCorrupt {
        rank: u64,
        src: u64,
        tag: u64,
        vtime: f64,
    },
    /// Comm runtime: retry backoff charged.
    CommBackoff { rank: u64, attempt: u64, vtime: f64 },
    /// Comm runtime: dead peer detected.
    CommPeerDead { rank: u64, peer: u64, vtime: f64 },
    /// Comm runtime: a virtual receive deadline expired.
    CommTimeout { rank: u64, src: u64, vtime: f64 },
    /// Comm runtime: the rank entered a collective.
    CommCollective {
        rank: u64,
        op: CollectiveOp,
        vtime: f64,
    },
    /// Comm runtime: the fault plan crashed this rank.
    CommCrash { rank: u64, vtime: f64 },
    /// Comm runtime: the rank aborted on an unrecoverable error.
    CommAbort { rank: u64, vtime: f64 },
    /// Resilience: a CU exchange fell back to the stale mapping.
    StaleExchange { iter: u64, cu: u64 },
    /// Resilience: a coordinated checkpoint was written.
    Checkpoint { iter: u64 },
    /// Resilience: a rank of an app instance crashed.
    Crash { app: u64, iter: u64, vtime: f64 },
    /// Resilience: rollback to the last checkpoint.
    Rollback { to_iter: u64 },
    /// Resilience: ULFM-style shrink of the crashed instance.
    Shrink { app: u64, ranks_after: u64 },
    /// Resilience: the detector layer caught an injected corruption.
    SdcDetected { iter: u64, site: SdcSite },
    /// Resilience: a detected corruption was recovered.
    SdcRecovered { iter: u64, cost: f64 },
}

fn collective_kind_tag(k: CollectiveKind) -> u8 {
    match k {
        CollectiveKind::Barrier => 0,
        CollectiveKind::Broadcast => 1,
        CollectiveKind::Reduce => 2,
        CollectiveKind::Allreduce => 3,
        CollectiveKind::Allgather => 4,
        CollectiveKind::Alltoall => 5,
        CollectiveKind::Gather => 6,
        CollectiveKind::Scatter => 7,
    }
}

fn collective_kind_from(tag: u8) -> Option<CollectiveKind> {
    Some(match tag {
        0 => CollectiveKind::Barrier,
        1 => CollectiveKind::Broadcast,
        2 => CollectiveKind::Reduce,
        3 => CollectiveKind::Allreduce,
        4 => CollectiveKind::Allgather,
        5 => CollectiveKind::Alltoall,
        6 => CollectiveKind::Gather,
        7 => CollectiveKind::Scatter,
        _ => return None,
    })
}

fn collective_op_tag(op: CollectiveOp) -> u8 {
    match op {
        CollectiveOp::Bcast => 0,
        CollectiveOp::Reduce => 1,
        CollectiveOp::Allreduce => 2,
        CollectiveOp::Barrier => 3,
        CollectiveOp::Gather => 4,
        CollectiveOp::Allgather => 5,
    }
}

fn collective_op_from(tag: u8) -> Option<CollectiveOp> {
    Some(match tag {
        0 => CollectiveOp::Bcast,
        1 => CollectiveOp::Reduce,
        2 => CollectiveOp::Allreduce,
        3 => CollectiveOp::Barrier,
        4 => CollectiveOp::Gather,
        5 => CollectiveOp::Allgather,
        _ => return None,
    })
}

fn sdc_site_tag(s: SdcSite) -> u8 {
    match s {
        SdcSite::SparseKernel => 0,
        SdcSite::HaloExchange => 1,
        SdcSite::CommPayload => 2,
        SdcSite::PhysicsInvariant => 3,
        SdcSite::SolverCycle => 4,
    }
}

fn sdc_site_from(tag: u8) -> Option<SdcSite> {
    Some(match tag {
        0 => SdcSite::SparseKernel,
        1 => SdcSite::HaloExchange,
        2 => SdcSite::CommPayload,
        3 => SdcSite::PhysicsInvariant,
        4 => SdcSite::SolverCycle,
        _ => return None,
    })
}

impl ReplayEvent {
    /// The rank the event happened on, where it has one (resilience
    /// decisions are whole-run, not per-rank).
    pub fn rank(&self) -> Option<u64> {
        use ReplayEvent::*;
        match *self {
            Send { rank, .. }
            | Recv { rank, .. }
            | Collective { rank, .. }
            | Finish { rank, .. }
            | CommSend { rank, .. }
            | CommRecv { rank, .. }
            | CommRecvCorrupt { rank, .. }
            | CommBackoff { rank, .. }
            | CommPeerDead { rank, .. }
            | CommTimeout { rank, .. }
            | CommCollective { rank, .. }
            | CommCrash { rank, .. }
            | CommAbort { rank, .. } => Some(rank),
            _ => None,
        }
    }

    /// The event's virtual timestamp, where it carries one.
    pub fn vtime(&self) -> Option<f64> {
        use ReplayEvent::*;
        match *self {
            Send { vtime, .. }
            | Recv { vtime, .. }
            | Collective { vtime, .. }
            | Finish { vtime, .. }
            | CommSend { vtime, .. }
            | CommRecv { vtime, .. }
            | CommRecvCorrupt { vtime, .. }
            | CommBackoff { vtime, .. }
            | CommPeerDead { vtime, .. }
            | CommTimeout { vtime, .. }
            | CommCollective { vtime, .. }
            | CommCrash { vtime, .. }
            | CommAbort { vtime, .. }
            | Crash { vtime, .. } => Some(vtime),
            _ => None,
        }
    }

    /// Compact human description of the event *kind* with its salient
    /// identity fields — what a [`crate::DivergenceError`] prints, e.g.
    /// `Recv{src:3}` or `Collective{Allreduce}`. Timestamps are
    /// deliberately excluded (they are reported separately).
    pub fn describe(&self) -> String {
        use ReplayEvent::*;
        match *self {
            Send { dst, tag, .. } => format!("Send{{dst:{dst},tag:{tag}}}"),
            Recv { src, .. } => format!("Recv{{src:{src}}}"),
            Collective { kind, .. } => format!("Collective{{{kind:?}}}"),
            Finish { .. } => "Finish".to_string(),
            CommSend {
                dst,
                dropped,
                duplicated,
                corrupted,
                ..
            } => {
                let mut s = format!("CommSend{{dst:{dst}");
                if dropped {
                    s.push_str(",dropped");
                }
                if duplicated {
                    s.push_str(",dup");
                }
                if corrupted {
                    s.push_str(",corrupt");
                }
                s.push('}');
                s
            }
            CommRecv { src, .. } => format!("CommRecv{{src:{src}}}"),
            CommRecvCorrupt { src, .. } => format!("CommRecvCorrupt{{src:{src}}}"),
            CommBackoff { attempt, .. } => format!("CommBackoff{{attempt:{attempt}}}"),
            CommPeerDead { peer, .. } => format!("CommPeerDead{{peer:{peer}}}"),
            CommTimeout { src, .. } => format!("CommTimeout{{src:{src}}}"),
            CommCollective { op, .. } => format!("CommCollective{{{op:?}}}"),
            CommCrash { .. } => "CommCrash".to_string(),
            CommAbort { .. } => "CommAbort".to_string(),
            StaleExchange { iter, cu } => format!("StaleExchange{{iter:{iter},cu:{cu}}}"),
            Checkpoint { iter } => format!("Checkpoint{{iter:{iter}}}"),
            Crash { app, iter, .. } => format!("Crash{{app:{app},iter:{iter}}}"),
            Rollback { to_iter } => format!("Rollback{{to_iter:{to_iter}}}"),
            Shrink { app, ranks_after } => {
                format!("Shrink{{app:{app},ranks_after:{ranks_after}}}")
            }
            SdcDetected { iter, site } => format!("SdcDetected{{iter:{iter},{site:?}}}"),
            SdcRecovered { iter, .. } => format!("SdcRecovered{{iter:{iter}}}"),
        }
    }

    /// Serialize into `enc` (the record payload; framing and CRC are the
    /// container's job, see [`crate::format`]).
    pub fn encode(&self, enc: &mut Encoder) {
        use ReplayEvent::*;
        match *self {
            Send {
                rank,
                dst,
                tag,
                bytes,
                vtime,
            } => {
                enc.put_u8(0);
                enc.put_uv(rank);
                enc.put_uv(dst);
                enc.put_uv(tag);
                enc.put_uv(bytes);
                enc.put_f64(vtime);
            }
            Recv {
                rank,
                src,
                tag,
                vtime,
            } => {
                enc.put_u8(1);
                enc.put_uv(rank);
                enc.put_uv(src);
                enc.put_uv(tag);
                enc.put_f64(vtime);
            }
            Collective {
                rank,
                kind,
                group,
                vtime,
            } => {
                enc.put_u8(2);
                enc.put_uv(rank);
                enc.put_u8(collective_kind_tag(kind));
                enc.put_uv(group);
                enc.put_f64(vtime);
            }
            Finish { rank, vtime } => {
                enc.put_u8(3);
                enc.put_uv(rank);
                enc.put_f64(vtime);
            }
            CommSend {
                rank,
                dst,
                tag,
                seq,
                dropped,
                duplicated,
                corrupted,
                vtime,
            } => {
                enc.put_u8(4);
                enc.put_uv(rank);
                enc.put_uv(dst);
                enc.put_uv(tag);
                enc.put_uv(seq);
                enc.put_bool(dropped);
                enc.put_bool(duplicated);
                enc.put_bool(corrupted);
                enc.put_f64(vtime);
            }
            CommRecv {
                rank,
                src,
                tag,
                vtime,
            } => {
                enc.put_u8(5);
                enc.put_uv(rank);
                enc.put_uv(src);
                enc.put_uv(tag);
                enc.put_f64(vtime);
            }
            CommRecvCorrupt {
                rank,
                src,
                tag,
                vtime,
            } => {
                enc.put_u8(6);
                enc.put_uv(rank);
                enc.put_uv(src);
                enc.put_uv(tag);
                enc.put_f64(vtime);
            }
            CommBackoff {
                rank,
                attempt,
                vtime,
            } => {
                enc.put_u8(7);
                enc.put_uv(rank);
                enc.put_uv(attempt);
                enc.put_f64(vtime);
            }
            CommPeerDead { rank, peer, vtime } => {
                enc.put_u8(8);
                enc.put_uv(rank);
                enc.put_uv(peer);
                enc.put_f64(vtime);
            }
            CommTimeout { rank, src, vtime } => {
                enc.put_u8(9);
                enc.put_uv(rank);
                enc.put_uv(src);
                enc.put_f64(vtime);
            }
            CommCollective { rank, op, vtime } => {
                enc.put_u8(10);
                enc.put_uv(rank);
                enc.put_u8(collective_op_tag(op));
                enc.put_f64(vtime);
            }
            CommCrash { rank, vtime } => {
                enc.put_u8(11);
                enc.put_uv(rank);
                enc.put_f64(vtime);
            }
            CommAbort { rank, vtime } => {
                enc.put_u8(12);
                enc.put_uv(rank);
                enc.put_f64(vtime);
            }
            StaleExchange { iter, cu } => {
                enc.put_u8(13);
                enc.put_uv(iter);
                enc.put_uv(cu);
            }
            Checkpoint { iter } => {
                enc.put_u8(14);
                enc.put_uv(iter);
            }
            Crash { app, iter, vtime } => {
                enc.put_u8(15);
                enc.put_uv(app);
                enc.put_uv(iter);
                enc.put_f64(vtime);
            }
            Rollback { to_iter } => {
                enc.put_u8(16);
                enc.put_uv(to_iter);
            }
            Shrink { app, ranks_after } => {
                enc.put_u8(17);
                enc.put_uv(app);
                enc.put_uv(ranks_after);
            }
            SdcDetected { iter, site } => {
                enc.put_u8(18);
                enc.put_uv(iter);
                enc.put_u8(sdc_site_tag(site));
            }
            SdcRecovered { iter, cost } => {
                enc.put_u8(19);
                enc.put_uv(iter);
                enc.put_f64(cost);
            }
        }
    }

    /// Deserialize one event from `dec`.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<ReplayEvent, WireError> {
        use ReplayEvent::*;
        let tag = dec.get_u8()?;
        Ok(match tag {
            0 => Send {
                rank: dec.get_uv()?,
                dst: dec.get_uv()?,
                tag: dec.get_uv()?,
                bytes: dec.get_uv()?,
                vtime: dec.get_f64()?,
            },
            1 => Recv {
                rank: dec.get_uv()?,
                src: dec.get_uv()?,
                tag: dec.get_uv()?,
                vtime: dec.get_f64()?,
            },
            2 => {
                let rank = dec.get_uv()?;
                let ktag = dec.get_u8()?;
                let kind = collective_kind_from(ktag).ok_or(WireError::Invalid {
                    offset: dec.offset() - 1,
                    what: "unknown collective kind",
                })?;
                Collective {
                    rank,
                    kind,
                    group: dec.get_uv()?,
                    vtime: dec.get_f64()?,
                }
            }
            3 => Finish {
                rank: dec.get_uv()?,
                vtime: dec.get_f64()?,
            },
            4 => CommSend {
                rank: dec.get_uv()?,
                dst: dec.get_uv()?,
                tag: dec.get_uv()?,
                seq: dec.get_uv()?,
                dropped: dec.get_bool()?,
                duplicated: dec.get_bool()?,
                corrupted: dec.get_bool()?,
                vtime: dec.get_f64()?,
            },
            5 => CommRecv {
                rank: dec.get_uv()?,
                src: dec.get_uv()?,
                tag: dec.get_uv()?,
                vtime: dec.get_f64()?,
            },
            6 => CommRecvCorrupt {
                rank: dec.get_uv()?,
                src: dec.get_uv()?,
                tag: dec.get_uv()?,
                vtime: dec.get_f64()?,
            },
            7 => CommBackoff {
                rank: dec.get_uv()?,
                attempt: dec.get_uv()?,
                vtime: dec.get_f64()?,
            },
            8 => CommPeerDead {
                rank: dec.get_uv()?,
                peer: dec.get_uv()?,
                vtime: dec.get_f64()?,
            },
            9 => CommTimeout {
                rank: dec.get_uv()?,
                src: dec.get_uv()?,
                vtime: dec.get_f64()?,
            },
            10 => {
                let rank = dec.get_uv()?;
                let otag = dec.get_u8()?;
                let op = collective_op_from(otag).ok_or(WireError::Invalid {
                    offset: dec.offset() - 1,
                    what: "unknown collective op",
                })?;
                CommCollective {
                    rank,
                    op,
                    vtime: dec.get_f64()?,
                }
            }
            11 => CommCrash {
                rank: dec.get_uv()?,
                vtime: dec.get_f64()?,
            },
            12 => CommAbort {
                rank: dec.get_uv()?,
                vtime: dec.get_f64()?,
            },
            13 => StaleExchange {
                iter: dec.get_uv()?,
                cu: dec.get_uv()?,
            },
            14 => Checkpoint {
                iter: dec.get_uv()?,
            },
            15 => Crash {
                app: dec.get_uv()?,
                iter: dec.get_uv()?,
                vtime: dec.get_f64()?,
            },
            16 => Rollback {
                to_iter: dec.get_uv()?,
            },
            17 => Shrink {
                app: dec.get_uv()?,
                ranks_after: dec.get_uv()?,
            },
            18 => {
                let iter = dec.get_uv()?;
                let stag = dec.get_u8()?;
                let site = sdc_site_from(stag).ok_or(WireError::Invalid {
                    offset: dec.offset() - 1,
                    what: "unknown SDC site",
                })?;
                SdcDetected { iter, site }
            }
            19 => SdcRecovered {
                iter: dec.get_uv()?,
                cost: dec.get_f64()?,
            },
            _ => {
                return Err(WireError::Invalid {
                    offset: dec.offset() - 1,
                    what: "unknown event kind tag",
                })
            }
        })
    }
}

impl From<DesEvent> for ReplayEvent {
    fn from(e: DesEvent) -> ReplayEvent {
        let rank = e.rank as u64;
        match e.kind {
            DesEventKind::Send { dst, tag, bytes } => ReplayEvent::Send {
                rank,
                dst: dst as u64,
                tag: tag as u64,
                bytes: bytes as u64,
                vtime: e.vtime,
            },
            DesEventKind::Recv { src, tag } => ReplayEvent::Recv {
                rank,
                src: src as u64,
                tag: tag as u64,
                vtime: e.vtime,
            },
            DesEventKind::Collective { kind, group } => ReplayEvent::Collective {
                rank,
                kind,
                group: group as u64,
                vtime: e.vtime,
            },
            DesEventKind::Finish => ReplayEvent::Finish {
                rank,
                vtime: e.vtime,
            },
        }
    }
}

impl From<CommEvent> for ReplayEvent {
    fn from(e: CommEvent) -> ReplayEvent {
        let rank = e.rank as u64;
        let vtime = e.vtime;
        match e.kind {
            CommEventKind::Send {
                dst,
                tag,
                seq,
                dropped,
                duplicated,
                corrupted,
            } => ReplayEvent::CommSend {
                rank,
                dst: dst as u64,
                tag,
                seq,
                dropped,
                duplicated,
                corrupted,
                vtime,
            },
            CommEventKind::Recv { src, tag } => ReplayEvent::CommRecv {
                rank,
                src: src as u64,
                tag,
                vtime,
            },
            CommEventKind::RecvCorrupt { src, tag } => ReplayEvent::CommRecvCorrupt {
                rank,
                src: src as u64,
                tag,
                vtime,
            },
            CommEventKind::Backoff { attempt } => ReplayEvent::CommBackoff {
                rank,
                attempt,
                vtime,
            },
            CommEventKind::PeerDead { peer } => ReplayEvent::CommPeerDead {
                rank,
                peer: peer as u64,
                vtime,
            },
            CommEventKind::Timeout { src } => ReplayEvent::CommTimeout {
                rank,
                src: src as u64,
                vtime,
            },
            CommEventKind::Collective { op } => ReplayEvent::CommCollective { rank, op, vtime },
            CommEventKind::Crash => ReplayEvent::CommCrash { rank, vtime },
            CommEventKind::Abort => ReplayEvent::CommAbort { rank, vtime },
        }
    }
}

impl From<ResilienceEvent> for ReplayEvent {
    fn from(e: ResilienceEvent) -> ReplayEvent {
        match e {
            ResilienceEvent::StaleExchange { iter, cu } => ReplayEvent::StaleExchange {
                iter,
                cu: cu as u64,
            },
            ResilienceEvent::Checkpoint { iter } => ReplayEvent::Checkpoint { iter },
            ResilienceEvent::Crash { app, iter, vtime } => ReplayEvent::Crash {
                app: app as u64,
                iter,
                vtime,
            },
            ResilienceEvent::Rollback { to_iter } => ReplayEvent::Rollback { to_iter },
            ResilienceEvent::Shrink { app, ranks_after } => ReplayEvent::Shrink {
                app: app as u64,
                ranks_after: ranks_after as u64,
            },
            ResilienceEvent::SdcDetected { iter, site } => ReplayEvent::SdcDetected { iter, site },
            ResilienceEvent::SdcRecovered { iter, cost } => {
                ReplayEvent::SdcRecovered { iter, cost }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_events() -> Vec<ReplayEvent> {
        vec![
            ReplayEvent::Send {
                rank: 0,
                dst: 1,
                tag: 7,
                bytes: 4096,
                vtime: 1.25e-3,
            },
            ReplayEvent::Recv {
                rank: 1,
                src: 0,
                tag: 7,
                vtime: 1.5e-3,
            },
            ReplayEvent::Collective {
                rank: 2,
                kind: CollectiveKind::Allreduce,
                group: 0,
                vtime: 2.0e-3,
            },
            ReplayEvent::Finish {
                rank: 0,
                vtime: 3.0e-3,
            },
            ReplayEvent::CommSend {
                rank: 3,
                dst: 2,
                tag: 99,
                seq: 5,
                dropped: true,
                duplicated: false,
                corrupted: false,
                vtime: 4.5e-6,
            },
            ReplayEvent::CommCollective {
                rank: 3,
                op: CollectiveOp::Allreduce,
                vtime: 6.0e-6,
            },
            ReplayEvent::Checkpoint { iter: 10 },
            ReplayEvent::Crash {
                app: 1,
                iter: 42,
                vtime: 100.5,
            },
            ReplayEvent::SdcDetected {
                iter: 33,
                site: SdcSite::SparseKernel,
            },
            ReplayEvent::SdcRecovered {
                iter: 33,
                cost: 2.25,
            },
        ]
    }

    #[test]
    fn every_kind_round_trips() {
        for ev in sample_events() {
            let mut enc = Encoder::new();
            ev.encode(&mut enc);
            let bytes = enc.into_bytes();
            let mut dec = Decoder::new(&bytes);
            let back = ReplayEvent::decode(&mut dec).unwrap();
            assert_eq!(back, ev);
            assert_eq!(dec.remaining(), 0);
        }
    }

    #[test]
    fn descriptions_match_error_message_style() {
        let recv = ReplayEvent::Recv {
            rank: 7,
            src: 3,
            tag: 0,
            vtime: 0.0,
        };
        assert_eq!(recv.describe(), "Recv{src:3}");
        let coll = ReplayEvent::Collective {
            rank: 7,
            kind: CollectiveKind::Allreduce,
            group: 0,
            vtime: 0.0,
        };
        assert_eq!(coll.describe(), "Collective{Allreduce}");
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut dec = Decoder::new(&[200u8]);
        assert!(matches!(
            ReplayEvent::decode(&mut dec),
            Err(WireError::Invalid { .. })
        ));
        // No collective op has tag 6: a file holding it gets a typed
        // error, not a wrong op.
        let mut enc = Encoder::new();
        ReplayEvent::CommCollective {
            rank: 0,
            op: CollectiveOp::Allgather,
            vtime: 0.0,
        }
        .encode(&mut enc);
        let mut bytes = enc.into_bytes();
        // Layout: kind byte, rank varint (one byte for 0), op byte.
        assert_eq!(bytes[2], 5);
        bytes[2] = 6;
        assert!(matches!(
            ReplayEvent::decode(&mut Decoder::new(&bytes)),
            Err(WireError::Invalid {
                what: "unknown collective op",
                ..
            })
        ));
    }
}
