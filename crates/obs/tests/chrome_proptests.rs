//! Property tests for Chrome-trace JSON validity under adversarial
//! names.
//!
//! Every exporter funnels user-visible text through the shared
//! [`cpx_obs::json::escape_str`] helper. These properties drive span
//! names, paths and counter keys drawn from an alphabet of JSON
//! metacharacters, control bytes and multi-byte Unicode — plus the
//! 16-hex group signatures the recovery protocol stamps into span
//! names — and assert that every produced trace (single-session,
//! critical-path and the merged cluster trace) still parses with the
//! workspace's own strict JSON reader.

use cpx_obs::json::escape_str;
use cpx_obs::{
    chrome_trace_json, cluster_chrome_trace_json, cluster_virtual_trace_json,
    critical_chrome_trace_json, Json, NodeObs, RankRecorder, RecoveryKind, Rescale,
    TaskGraphBuilder, TraceSession,
};
use proptest::collection;
use proptest::prelude::*;

/// Characters chosen to break naive JSON emitters: quotes, escapes,
/// structural characters, control bytes, and multi-byte Unicode.
const ALPHABET: &[&str] = &[
    "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{1}", "\u{1f}", "\u{7f}", "{", "}", "[", "]", ",",
    ":", "/", "<script>", "é", "Δt", "µs", "😀", "a", "7", " ", ";",
];

fn arb_name() -> impl Strategy<Value = String> {
    collection::vec(0usize..ALPHABET.len(), 1..12)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
}

fn arb_sig() -> impl Strategy<Value = u64> {
    0u64..u64::MAX
}

/// A rank timeline whose span names, counter keys and recovery events
/// carry the adversarial strings and a recovery signature formatted the
/// way `resilient.rs` does (16 hex digits).
fn timeline(rank: usize, names: &[String], sig: u64) -> cpx_obs::RankTimeline {
    let mut rec = RankRecorder::on();
    let mut t = 0.0;
    for name in names {
        rec.begin(name.clone(), t);
        rec.begin(format!("{name} {sig:016x}"), t + 0.1);
        rec.end(t + 0.4);
        rec.end(t + 1.0);
        rec.count(name, 1);
        t += 1.0;
    }
    rec.recovery_event(t, RecoveryKind::Revoke { sig, peer: rank });
    rec.recovery_event(
        t + 0.5,
        RecoveryKind::Shrink {
            sig,
            survivors: 2,
            min_ckpt: 1,
        },
    );
    rec.into_timeline(rank, t + 1.0)
}

fn parses(text: &str) -> Json {
    Json::parse(text).unwrap_or_else(|e| panic!("exporter produced invalid JSON: {e:?}\n{text}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn escape_str_round_trips_adversarial_names(name in arb_name()) {
        let escaped = escape_str(&name);
        let back = parses(&escaped);
        prop_assert_eq!(back, Json::Str(name));
    }

    #[test]
    fn chrome_and_cluster_traces_stay_parseable(
        names in collection::vec(arb_name(), 1..5),
        sig in arb_sig(),
    ) {
        let session = TraceSession::new(vec![
            timeline(0, &names, sig),
            timeline(1, &names, sig.rotate_left(17)),
        ]);
        parses(&chrome_trace_json(&session));

        // The merged cluster trace carries the same names through the
        // node-bundle codec plus per-node process metadata.
        let nodes: Vec<NodeObs> = (0..2)
            .map(|node| NodeObs {
                node,
                virt: session.clone(),
                wall: Some(TraceSession::new(vec![timeline(node, &names, sig)])),
                wall_epoch_unix: Some(1.0e9 + 0.1 + node as f64 * 0.25),
                net: cpx_obs::NetStats::on(node, 2).snapshot(),
            })
            .collect();
        parses(&cluster_chrome_trace_json(&nodes));
        parses(&cluster_virtual_trace_json(&nodes));

        // The bundle hop itself must not corrupt the names either.
        let back = NodeObs::decode(&nodes[0].encode()).expect("bundle round-trips");
        prop_assert_eq!(&back, &nodes[0]);
    }

    #[test]
    fn critical_trace_stays_parseable(phase in arb_name(), dur in 0.0f64..2.0) {
        // Two ranks, one compute each, joined by a collective: the
        // critical lane and the rank lanes both label events with the
        // adversarial phase name.
        let mut b = TaskGraphBuilder::new(2, vec!["(untracked)".to_string(), phase]);
        for rank in 0..2usize {
            b.compute(rank, 1, dur + rank as f64 * 0.25);
        }
        b.meet([(0, 1), (1, 1)], 0.125, "allreduce");
        let g = b.finish().expect("tiny graph builds");
        let sched = g.schedule(&Rescale::none()).expect("tiny graph is acyclic");
        let path = g.critical_path(&sched);
        let doc = parses(&critical_chrome_trace_json(&g, &path));
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        prop_assert!(!events.is_empty());
    }
}
