//! Cross-node trace aggregation.
//!
//! The multi-process backend runs one OS process per node; each child
//! seals its ranks' [`TraceSession`]s and transport counters into a
//! [`NodeObs`] bundle, serializes it with the **bit-exact** JSON codec
//! in this module, and ships it to the parent over the existing
//! file-based protocol. The parent deserializes every bundle and merges
//! them into
//!
//! * one cluster Chrome trace with a *process per node lane group*
//!   ([`cluster_chrome_trace_json`]) — virtual-time lanes plus, when
//!   recorded, wall-clock lanes and the recovery lane;
//! * a virtual-time-only variant ([`cluster_virtual_trace_json`]) that is
//!   **byte-deterministic**: virtual clocks are pure functions of seed
//!   and fault plan, so two runs of the same configuration must produce
//!   identical files (CI diffs them);
//! * an aggregated [`cluster_metrics_json`] snapshot with per-node and
//!   cluster-wide counters.
//!
//! ## Why a custom f64 codec
//!
//! Timeline timestamps must survive the child → parent hop *bit-exactly*
//! or the merged virtual trace stops being deterministic. JSON numbers
//! round-trip through decimal text, so instead every `f64` here is
//! encoded as the 16-hex-digit form of its IEEE-754 bits (the same trick
//! the multiproc reducer uses for rank summaries). Group signatures are
//! full 64-bit hashes and get the same hex treatment — a JSON number
//! only holds 53 bits exactly.
//!
//! ## Wall-clock alignment
//!
//! Wall lanes from different processes have unrelated epochs. Each
//! bundle carries `wall_epoch_unix` — the node's recorder epoch as
//! seconds since `UNIX_EPOCH` — and the parent shifts every wall lane
//! onto the earliest epoch across the cluster. On one machine (the
//! current multiproc harness) the system clock is shared, so this
//! aligns lanes to well under a millisecond. Across machines the same
//! shift works to clock-sync accuracy; refining it with the heartbeat
//! round-trip estimate is sketched in DESIGN.md.

use crate::chrome::{push_session_events, trace_document};
use crate::json::{field, FromJson, Json, JsonError, ToJson};
use crate::metrics::metrics_json;
use crate::netstats::NetStatsSnapshot;
use crate::{RankTimeline, RecoveryEvent, RecoveryKind, Span, TraceSession};

/// Encode an `f64` as the hex form of its bits (bit-exact round trip).
fn bits_json(x: f64) -> Json {
    Json::Str(format!("{:016x}", x.to_bits()))
}

/// Encode a full-width `u64` (e.g. a group signature) as hex text.
fn hex_json(x: u64) -> Json {
    Json::Str(format!("{x:016x}"))
}

fn hex_from(v: &Json) -> Result<u64, JsonError> {
    let s = v
        .as_str()
        .ok_or_else(|| JsonError::convert("expected hex string"))?;
    u64::from_str_radix(s, 16).map_err(|_| JsonError::convert(format!("bad hex '{s}'")))
}

/// Fetch an object field encoded by [`bits_json`].
fn bits_field(v: &Json, key: &str) -> Result<f64, JsonError> {
    let f = v
        .get(key)
        .ok_or_else(|| JsonError::convert(format!("missing field '{key}'")))?;
    Ok(f64::from_bits(hex_from(f)?))
}

/// Fetch an object field encoded by [`hex_json`].
fn hex_field(v: &Json, key: &str) -> Result<u64, JsonError> {
    let f = v
        .get(key)
        .ok_or_else(|| JsonError::convert(format!("missing field '{key}'")))?;
    hex_from(f)
}

impl ToJson for Span {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::Str(self.name.to_string())),
            ("path", Json::Str(self.path.clone())),
            ("start", bits_json(self.start)),
            ("end", bits_json(self.end)),
            ("depth", (self.depth as u64).to_json()),
            ("self_time", bits_json(self.self_time)),
        ])
    }
}

impl FromJson for Span {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Span {
            name: std::borrow::Cow::Owned(field::<String>(v, "name")?),
            path: field(v, "path")?,
            start: bits_field(v, "start")?,
            end: bits_field(v, "end")?,
            depth: field::<u64>(v, "depth")? as u16,
            self_time: bits_field(v, "self_time")?,
        })
    }
}

impl ToJson for RecoveryKind {
    fn to_json(&self) -> Json {
        let mut pairs = vec![("kind", Json::Str(self.label().to_string()))];
        match self {
            RecoveryKind::Revoke { sig, peer } => {
                pairs.push(("sig", hex_json(*sig)));
                pairs.push(("peer", peer.to_json()));
            }
            RecoveryKind::AgreeRound { sig, round, known } => {
                pairs.push(("sig", hex_json(*sig)));
                pairs.push(("round", round.to_json()));
                pairs.push(("known", known.to_json()));
            }
            RecoveryKind::Shrink {
                sig,
                survivors,
                min_ckpt,
            } => {
                pairs.push(("sig", hex_json(*sig)));
                pairs.push(("survivors", survivors.to_json()));
                pairs.push(("min_ckpt", min_ckpt.to_json()));
            }
            RecoveryKind::Rollback { to_iter } => pairs.push(("to_iter", to_iter.to_json())),
        }
        Json::obj(pairs)
    }
}

impl FromJson for RecoveryKind {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match field::<String>(v, "kind")?.as_str() {
            "revoke" => Ok(RecoveryKind::Revoke {
                sig: hex_field(v, "sig")?,
                peer: field(v, "peer")?,
            }),
            "agree round" => Ok(RecoveryKind::AgreeRound {
                sig: hex_field(v, "sig")?,
                round: field(v, "round")?,
                known: field(v, "known")?,
            }),
            "shrink" => Ok(RecoveryKind::Shrink {
                sig: hex_field(v, "sig")?,
                survivors: field(v, "survivors")?,
                min_ckpt: field(v, "min_ckpt")?,
            }),
            "rollback" => Ok(RecoveryKind::Rollback {
                to_iter: field(v, "to_iter")?,
            }),
            other => Err(JsonError::convert(format!(
                "unknown recovery kind '{other}'"
            ))),
        }
    }
}

impl ToJson for RecoveryEvent {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("t", bits_json(self.t)),
            ("kind", self.kind.to_json()),
        ])
    }
}

impl FromJson for RecoveryEvent {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(RecoveryEvent {
            t: bits_field(v, "t")?,
            kind: field(v, "kind")?,
        })
    }
}

impl ToJson for RankTimeline {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("rank", self.rank.to_json()),
            ("spans", self.spans.to_json()),
            (
                "counters",
                // BTreeMap iterates key-sorted: deterministic output.
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ),
            ("recovery", self.recovery.to_json()),
            ("finish", bits_json(self.finish)),
        ])
    }
}

impl FromJson for RankTimeline {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let counters = match v.get("counters") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, val)| Ok((k.clone(), u64::from_json(val)?)))
                .collect::<Result<_, JsonError>>()?,
            _ => return Err(JsonError::convert("missing field 'counters'")),
        };
        Ok(RankTimeline {
            rank: field(v, "rank")?,
            spans: field(v, "spans")?,
            counters,
            recovery: field(v, "recovery")?,
            finish: bits_field(v, "finish")?,
        })
    }
}

impl ToJson for TraceSession {
    fn to_json(&self) -> Json {
        Json::obj(vec![("lanes", self.lanes.to_json())])
    }
}

impl FromJson for TraceSession {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(TraceSession {
            lanes: field(v, "lanes")?,
        })
    }
}

/// Everything one node ships to the merge parent: its virtual-time
/// session, an optional wall-clock session with the epoch needed to
/// align it, and the transport counter snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeObs {
    /// Node id within the cluster.
    pub node: usize,
    /// Virtual-time trace of the node's local ranks.
    pub virt: TraceSession,
    /// Wall-clock trace, when wall recording was enabled.
    pub wall: Option<TraceSession>,
    /// The wall recorder's epoch as seconds since `UNIX_EPOCH`
    /// (bit-exact); `None` when `wall` is.
    pub wall_epoch_unix: Option<f64>,
    /// Transport counters at shutdown.
    pub net: NetStatsSnapshot,
}

impl ToJson for NodeObs {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("node", self.node.to_json()),
            ("virt", self.virt.to_json()),
            (
                "wall",
                match &self.wall {
                    Some(w) => w.to_json(),
                    None => Json::Null,
                },
            ),
            (
                "wall_epoch_unix",
                match self.wall_epoch_unix {
                    Some(e) => bits_json(e),
                    None => Json::Null,
                },
            ),
            ("net", self.net.to_json()),
        ])
    }
}

impl FromJson for NodeObs {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let wall = match v.get("wall") {
            Some(Json::Null) | None => None,
            Some(w) => Some(TraceSession::from_json(w)?),
        };
        let wall_epoch_unix = match v.get("wall_epoch_unix") {
            Some(Json::Null) | None => None,
            Some(e) => Some(f64::from_bits(hex_from(e)?)),
        };
        Ok(NodeObs {
            node: field(v, "node")?,
            virt: field(v, "virt")?,
            wall,
            wall_epoch_unix,
            net: field(v, "net")?,
        })
    }
}

impl NodeObs {
    /// Serialize to the bundle text a child writes for the parent.
    pub fn encode(&self) -> String {
        self.to_json().write_pretty()
    }

    /// Parse a bundle written by [`NodeObs::encode`].
    pub fn decode(text: &str) -> Result<NodeObs, JsonError> {
        NodeObs::from_json(&Json::parse(text)?)
    }
}

/// Shift every timestamp in a session by `dt` seconds.
fn shift_session(s: &TraceSession, dt: f64) -> TraceSession {
    if dt == 0.0 {
        return s.clone();
    }
    TraceSession {
        lanes: s
            .lanes
            .iter()
            .map(|l| RankTimeline {
                rank: l.rank,
                spans: l
                    .spans
                    .iter()
                    .map(|sp| Span {
                        start: sp.start + dt,
                        end: sp.end + dt,
                        ..sp.clone()
                    })
                    .collect(),
                counters: l.counters.clone(),
                recovery: l
                    .recovery
                    .iter()
                    .map(|e| RecoveryEvent {
                        t: e.t + dt,
                        kind: e.kind.clone(),
                    })
                    .collect(),
                finish: l.finish + dt,
            })
            .collect(),
    }
}

fn sorted(nodes: &[NodeObs]) -> Vec<&NodeObs> {
    let mut v: Vec<&NodeObs> = nodes.iter().collect();
    v.sort_by_key(|n| n.node);
    v
}

/// Render the full cluster Chrome trace: per node, a virtual-time
/// process (pid `2·node+1`) and — when wall lanes were recorded — a
/// wall-clock process (pid `2·node+2`) aligned onto the earliest wall
/// epoch in the cluster. Recovery lanes ride inside each process.
pub fn cluster_chrome_trace_json(nodes: &[NodeObs]) -> String {
    let epoch0 = nodes
        .iter()
        .filter_map(|n| n.wall_epoch_unix)
        .fold(f64::INFINITY, f64::min);
    let mut events = Vec::new();
    for n in sorted(nodes) {
        let pid = (n.node as u32) * 2 + 1;
        let pname = format!("node {} \u{b7} virtual time", n.node);
        push_session_events(&mut events, &n.virt, pid, Some(&pname));
        if let Some(wall) = &n.wall {
            let dt = match n.wall_epoch_unix {
                Some(e) if e.is_finite() && epoch0.is_finite() => e - epoch0,
                _ => 0.0,
            };
            let shifted = shift_session(wall, dt);
            let pname = format!("node {} \u{b7} wall clock", n.node);
            push_session_events(&mut events, &shifted, pid + 1, Some(&pname));
        }
    }
    trace_document(&events)
}

/// Render the virtual-time-only cluster trace: same per-node process
/// layout, wall lanes dropped. Virtual clocks are deterministic, so
/// this export is **byte-identical across runs** of one configuration —
/// CI's cross-run diff gate targets exactly this file.
pub fn cluster_virtual_trace_json(nodes: &[NodeObs]) -> String {
    let mut events = Vec::new();
    for n in sorted(nodes) {
        let pid = (n.node as u32) * 2 + 1;
        let pname = format!("node {} \u{b7} virtual time", n.node);
        push_session_events(&mut events, &n.virt, pid, Some(&pname));
    }
    trace_document(&events)
}

/// Aggregate per-node metrics and transport counters into one snapshot:
/// `{"schema_version":1, "nodes":[...], "cluster":{...}, ...extra}`.
pub fn cluster_metrics_json(nodes: &[NodeObs], extra: &[(&str, Json)]) -> Json {
    let per_node: Vec<Json> = sorted(nodes)
        .into_iter()
        .map(|n| {
            Json::obj(vec![
                ("node", n.node.to_json()),
                ("virtual", metrics_json(&n.virt, &[])),
                (
                    "wall",
                    match &n.wall {
                        Some(w) => metrics_json(w, &[]),
                        None => Json::Null,
                    },
                ),
                ("net", n.net.to_json()),
            ])
        })
        .collect();
    let net_total = |f: fn(&crate::netstats::PeerSnapshot) -> u64| -> u64 {
        nodes.iter().map(|n| n.net.total(f)).sum()
    };
    let makespan = nodes.iter().fold(0.0_f64, |m, n| m.max(n.virt.makespan()));
    // Cluster-wide RTT roll-up: bucket-wise sum over every peer link of
    // every node. Raw bucket counts ride along (plus the bucket edges),
    // so offline tooling can re-aggregate or re-quantile without this
    // code.
    let mut rtt = crate::netstats::RttHistogram::default();
    for n in nodes {
        for p in &n.net.peers {
            rtt.absorb(&p.rtt);
        }
    }
    let mut pairs = vec![
        ("schema_version", Json::Num(1.0)),
        ("nodes", Json::Arr(per_node)),
        (
            "cluster",
            Json::obj(vec![
                ("nodes", nodes.len().to_json()),
                (
                    "ranks",
                    nodes
                        .iter()
                        .map(|n| n.virt.lanes.len())
                        .sum::<usize>()
                        .to_json(),
                ),
                (
                    "spans",
                    nodes
                        .iter()
                        .map(|n| n.virt.total_spans())
                        .sum::<usize>()
                        .to_json(),
                ),
                (
                    "recovery_events",
                    nodes
                        .iter()
                        .map(|n| n.virt.total_recovery_events())
                        .sum::<usize>()
                        .to_json(),
                ),
                ("makespan_virtual", Json::Num(makespan)),
                ("frames_sent", net_total(|p| p.frames_sent).to_json()),
                ("bytes_sent", net_total(|p| p.bytes_sent).to_json()),
                ("frames_recv", net_total(|p| p.frames_recv).to_json()),
                ("bytes_recv", net_total(|p| p.bytes_recv).to_json()),
                (
                    "heartbeats_sent",
                    net_total(|p| p.heartbeats_sent).to_json(),
                ),
                (
                    "heartbeats_missed",
                    net_total(|p| p.heartbeats_missed).to_json(),
                ),
                ("crc_failures", net_total(|p| p.crc_failures).to_json()),
                ("rtt_histogram", rtt.to_json()),
                (
                    "rtt_bucket_floors_us",
                    crate::netstats::RttHistogram::bucket_floors_us().to_json(),
                ),
                (
                    "dial_retries",
                    nodes
                        .iter()
                        .map(|n| n.net.dial_retries)
                        .sum::<u64>()
                        .to_json(),
                ),
                (
                    "dial_backoff_ms",
                    nodes
                        .iter()
                        .map(|n| n.net.dial_backoff_ms)
                        .sum::<u64>()
                        .to_json(),
                ),
            ]),
        ),
    ];
    pairs.extend(extra.iter().map(|(k, v)| (*k, v.clone())));
    Json::obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netstats::NetStats;
    use crate::{RankRecorder, RecoveryKind};

    fn timeline(rank: usize, base: f64) -> RankTimeline {
        let mut rec = RankRecorder::on();
        rec.begin("step", base);
        rec.begin("halo", base + 0.1);
        rec.end(base + 0.3);
        rec.end(base + 1.0);
        rec.count("messages", rank as u64 + 1);
        rec.recovery_event(
            base + 0.5,
            RecoveryKind::Revoke {
                sig: u64::MAX - 1,
                peer: rank,
            },
        );
        rec.into_timeline(rank, base + 1.0)
    }

    fn bundle(node: usize) -> NodeObs {
        let stats = NetStats::on(node, 2);
        stats.frame_sent(1 - node, 64);
        stats.rtt_sample(1 - node, 150);
        NodeObs {
            node,
            virt: TraceSession::new(vec![timeline(node * 2, 0.1), timeline(node * 2 + 1, 0.2)]),
            wall: Some(TraceSession::new(vec![timeline(node * 2, 0.0)])),
            // Deliberately not decimal-representable.
            wall_epoch_unix: Some(1.0e9 + 0.1 + node as f64 * 0.25),
            net: stats.snapshot(),
        }
    }

    #[test]
    fn session_round_trips_bit_exactly() {
        // Values with no short decimal form must survive untouched.
        let mut rec = RankRecorder::on();
        rec.begin("a", 0.1 + 0.2);
        rec.end(1.0 / 3.0 + 1.0);
        rec.recovery_event(
            2.0_f64.sqrt(),
            RecoveryKind::Shrink {
                sig: u64::MAX,
                survivors: 7,
                min_ckpt: 40,
            },
        );
        let s = TraceSession::new(vec![rec.into_timeline(3, 2.0_f64.sqrt() * 2.0)]);
        let back = TraceSession::from_json(&Json::parse(&s.to_json().write()).unwrap()).unwrap();
        assert_eq!(s, back);
        assert_eq!(
            s.lanes[0].spans[0].start.to_bits(),
            back.lanes[0].spans[0].start.to_bits()
        );
    }

    #[test]
    fn node_bundle_round_trips() {
        let b = bundle(1);
        let back = NodeObs::decode(&b.encode()).expect("decode");
        assert_eq!(b, back);
        assert_eq!(
            b.wall_epoch_unix.unwrap().to_bits(),
            back.wall_epoch_unix.unwrap().to_bits()
        );
    }

    #[test]
    fn recovery_kind_variants_round_trip() {
        for kind in [
            RecoveryKind::Revoke { sig: 1, peer: 2 },
            RecoveryKind::AgreeRound {
                sig: u64::MAX,
                round: 3,
                known: 4,
            },
            RecoveryKind::Shrink {
                sig: 5,
                survivors: 6,
                min_ckpt: 7,
            },
            RecoveryKind::Rollback { to_iter: 8 },
        ] {
            let back = RecoveryKind::from_json(&kind.to_json()).expect("round trip");
            assert_eq!(kind, back);
        }
    }

    #[test]
    fn cluster_trace_has_per_node_processes_and_recovery() {
        let nodes = vec![bundle(1), bundle(0)];
        let text = cluster_chrome_trace_json(&nodes);
        let v = Json::parse(&text).expect("valid JSON");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        let pnames: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("process_name"))
            .filter_map(|e| e.get("args").unwrap().get("name").unwrap().as_str())
            .collect();
        // Sorted by node despite reversed input; virtual before wall.
        assert_eq!(
            pnames,
            vec![
                "node 0 · virtual time",
                "node 0 · wall clock",
                "node 1 · virtual time",
                "node 1 · wall clock",
            ]
        );
        assert!(events
            .iter()
            .any(|e| e.get("ph").unwrap().as_str() == Some("i")));
    }

    #[test]
    fn wall_lanes_align_to_earliest_epoch() {
        let mut a = bundle(0);
        let mut b = bundle(1);
        a.wall_epoch_unix = Some(1000.0);
        b.wall_epoch_unix = Some(1000.5);
        let text = cluster_chrome_trace_json(&[a, b]);
        let v = Json::parse(&text).unwrap();
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        // Node 1's wall lanes (pid 4) shift +0.5 s = 500000 µs relative
        // to node 0's (pid 2): both recorded a span starting at 0.0.
        let start_of = |pid: f64| {
            events
                .iter()
                .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
                .filter(|e| e.get("pid").unwrap().as_f64() == Some(pid))
                .filter_map(|e| e.get("ts").unwrap().as_f64())
                .fold(f64::INFINITY, f64::min)
        };
        assert_eq!(start_of(2.0), 0.0);
        assert_eq!(start_of(4.0), 500000.0);
    }

    #[test]
    fn virtual_trace_is_deterministic_and_wall_free() {
        let nodes = vec![bundle(0), bundle(1)];
        let text = cluster_virtual_trace_json(&nodes);
        assert_eq!(text, cluster_virtual_trace_json(&nodes));
        assert!(!text.contains("wall clock"));
        Json::parse(&text).expect("valid JSON");
    }

    #[test]
    fn cluster_metrics_aggregates_counters() {
        let nodes = vec![bundle(0), bundle(1)];
        let v = cluster_metrics_json(&nodes, &[("trials", Json::Num(3.0))]);
        assert_eq!(v.get("schema_version").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("trials").unwrap().as_f64(), Some(3.0));
        let cluster = v.get("cluster").unwrap();
        assert_eq!(cluster.get("nodes").unwrap().as_u64(), Some(2));
        assert_eq!(cluster.get("ranks").unwrap().as_u64(), Some(4));
        // One 64-byte frame per node.
        assert_eq!(cluster.get("frames_sent").unwrap().as_u64(), Some(2));
        assert_eq!(cluster.get("bytes_sent").unwrap().as_u64(), Some(128));
        assert_eq!(cluster.get("recovery_events").unwrap().as_u64(), Some(4));
        // The RTT roll-up sums the per-peer histograms: one 150 µs
        // sample per node → count 2, bucket-wise counts preserved.
        let rtt = cluster.get("rtt_histogram").unwrap();
        assert_eq!(rtt.get("count").unwrap().as_u64(), Some(2));
        assert_eq!(rtt.get("sum_us").unwrap().as_u64(), Some(300));
        let buckets = rtt.get("buckets").unwrap().as_arr().unwrap();
        assert_eq!(buckets.len(), crate::netstats::RTT_BUCKETS);
        let total: u64 = buckets.iter().filter_map(Json::as_u64).sum();
        assert_eq!(total, 2);
        let floors = cluster
            .get("rtt_bucket_floors_us")
            .unwrap()
            .as_arr()
            .unwrap();
        assert_eq!(floors.len(), crate::netstats::RTT_BUCKETS);
        assert_eq!(floors[0].as_u64(), Some(1));
        let node_entries = v.get("nodes").unwrap().as_arr().unwrap();
        assert_eq!(node_entries.len(), 2);
        assert_eq!(node_entries[0].get("node").unwrap().as_u64(), Some(0));
        assert!(node_entries[0]
            .get("virtual")
            .unwrap()
            .get("phases")
            .is_some());
    }
}
