//! Chrome trace-event JSON exporter.
//!
//! Emits the [trace-event format] consumed by Perfetto and
//! `chrome://tracing`: one process, one thread (lane) per rank, a
//! `thread_name` metadata record per lane, then a complete-duration
//! (`"ph":"X"`) event per span. Timestamps are virtual microseconds
//! formatted with fixed precision, so identical virtual times produce
//! identical bytes — the export is a deterministic function of the
//! trace session.
//!
//! Sessions carrying [`RecoveryEvent`](crate::RecoveryEvent)s
//! additionally get a dedicated **recovery lane** per process (a
//! synthetic thread named `recovery`): every revoke, agreement round,
//! shrink commit and rollback becomes an instant (`"ph":"i"`) event
//! with its protocol details in `args`, so a chaos run's recovery
//! sequence is visually replayable next to the rank lanes.
//!
//! Exporters write into any [`std::io::Write`] sink
//! ([`chrome_trace_to`], [`dual_chrome_trace_to`]) so multi-megabyte
//! cluster traces stream straight to a file; the `*_json` variants are
//! thin build-a-`String` wrappers for existing callers.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::io::{self, Write};

use crate::critical::{CriticalPath, SegClass, TaskGraph};
use crate::json::escape_str;
use crate::{RecoveryKind, TraceSession};

/// Synthetic `tid` of the per-process recovery lane — far above any
/// real rank id so it sorts last in the viewer.
pub const RECOVERY_LANE_TID: u32 = 1_000_000;

/// Render a session as Chrome trace-event JSON (`{"traceEvents":[...]}`).
pub fn chrome_trace_json(session: &TraceSession) -> String {
    to_string(|out| chrome_trace_to(out, session))
}

/// Stream a session as Chrome trace-event JSON into `out`.
pub fn chrome_trace_to<W: Write>(out: &mut W, session: &TraceSession) -> io::Result<()> {
    let mut first = true;
    out.write_all(b"{\"traceEvents\":[\n")?;
    push_session_events(out, &mut first, session, 1, None)?;
    out.write_all(b"\n],\"displayTimeUnit\":\"ms\"}\n")
}

/// Render a *dual-lane* Chrome trace: the virtual-time session as
/// process 1 and the wall-clock session for the same run as process 2,
/// so the two clocks can be inspected side by side in Perfetto. Each
/// process carries a `process_name` metadata record (`virtual time` /
/// `wall clock`); lanes within a process are ranks as usual.
pub fn dual_chrome_trace_json(virtual_session: &TraceSession, wall: &TraceSession) -> String {
    to_string(|out| dual_chrome_trace_to(out, virtual_session, wall))
}

/// Stream the dual-lane trace of [`dual_chrome_trace_json`] into `out`.
pub fn dual_chrome_trace_to<W: Write>(
    out: &mut W,
    virtual_session: &TraceSession,
    wall: &TraceSession,
) -> io::Result<()> {
    let mut first = true;
    out.write_all(b"{\"traceEvents\":[\n")?;
    push_session_events(out, &mut first, virtual_session, 1, Some("virtual time"))?;
    push_session_events(out, &mut first, wall, 2, Some("wall clock"))?;
    out.write_all(b"\n],\"displayTimeUnit\":\"ms\"}\n")
}

/// Run a sink-writer into a fresh `String` (infallible for `Vec<u8>`).
pub(crate) fn to_string(f: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> String {
    let mut buf = Vec::new();
    f(&mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("exporters emit UTF-8")
}

/// Emit one session's metadata, span, counter and recovery events under
/// `pid`. Shared with the cluster merge exporter, which calls it once
/// per node process.
pub(crate) fn push_session_events<W: Write>(
    out: &mut W,
    first: &mut bool,
    session: &TraceSession,
    pid: u32,
    process_name: Option<&str>,
) -> io::Result<()> {
    if let Some(pname) = process_name {
        push_event(
            out,
            first,
            &format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
                 \"args\":{{\"name\":{}}}}}",
                escape_str(pname)
            ),
        )?;
    }
    for lane in &session.lanes {
        push_event(
            out,
            first,
            &format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"rank {}\"}}}}",
                lane.rank, lane.rank
            ),
        )?;
    }
    if session.total_recovery_events() > 0 {
        push_event(
            out,
            first,
            &format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{RECOVERY_LANE_TID},\
                 \"name\":\"thread_name\",\"args\":{{\"name\":\"recovery\"}}}}"
            ),
        )?;
    }
    for lane in &session.lanes {
        let mut spans: Vec<_> = lane.spans.iter().collect();
        // Sort for a stable, readable lane: by start, outermost first.
        // Ties beyond the full key are byte-identical spans anyway.
        spans.sort_by(|a, b| {
            a.start
                .total_cmp(&b.start)
                .then(a.depth.cmp(&b.depth))
                .then(b.end.total_cmp(&a.end))
                .then(a.name.cmp(&b.name))
        });
        for span in spans {
            let ev = format!(
                "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"ts\":{},\"dur\":{},\"name\":{}}}",
                lane.rank,
                micros(span.start),
                micros(span.duration()),
                escape_str(&span.name)
            );
            push_event(out, first, &ev)?;
        }
        for (name, value) in &lane.counters {
            let ev = format!(
                "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":{},\"ts\":{},\"name\":{},\
                 \"args\":{{\"value\":{}}}}}",
                lane.rank,
                micros(lane.finish),
                escape_str(name),
                value
            );
            push_event(out, first, &ev)?;
        }
    }
    // Recovery instants, merged across ranks into one lane, ordered by
    // time then observing rank (both deterministic under the virtual
    // clock).
    let mut recovery: Vec<_> = session
        .lanes
        .iter()
        .flat_map(|lane| lane.recovery.iter().map(move |ev| (lane.rank, ev)))
        .collect();
    recovery.sort_by(|a, b| a.1.t.total_cmp(&b.1.t).then(a.0.cmp(&b.0)));
    for (rank, ev) in recovery {
        let text = format!(
            "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{RECOVERY_LANE_TID},\"ts\":{},\
             \"name\":{},\"s\":\"t\",\"args\":{{\"rank\":{rank},{}}}}}",
            micros(ev.t),
            escape_str(ev.kind.label()),
            recovery_args(&ev.kind)
        );
        push_event(out, first, &text)?;
    }
    Ok(())
}

/// Render a critical-path analysis as Chrome trace-event JSON: a
/// dedicated **critical path** lane (tid 0) holding every binding
/// segment back-to-back across `[0, makespan]`, plus one lane per rank
/// that appears on the path carrying just its blamed segments. Ranks
/// never on the path get no lane — for a thousand-rank coupled run the
/// export stays viewer-sized while still showing which ranks the run
/// actually waited on. Deterministic bytes, like every exporter here.
pub fn critical_chrome_trace_json(graph: &TaskGraph, path: &CriticalPath) -> String {
    to_string(|out| critical_chrome_trace_to(out, graph, path))
}

/// Stream the critical-path trace of [`critical_chrome_trace_json`].
pub fn critical_chrome_trace_to<W: Write>(
    out: &mut W,
    graph: &TaskGraph,
    path: &CriticalPath,
) -> io::Result<()> {
    let phase_name = |p: u16| -> String {
        graph
            .phase_names
            .get(p as usize)
            .cloned()
            .unwrap_or_else(|| format!("phase {p}"))
    };
    let mut ranks: Vec<usize> = path.segments.iter().map(|s| s.rank).collect();
    ranks.sort_unstable();
    ranks.dedup();

    let mut first = true;
    out.write_all(b"{\"traceEvents\":[\n")?;
    push_event(
        out,
        &mut first,
        "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\
         \"args\":{\"name\":\"critical path\"}}",
    )?;
    push_event(
        out,
        &mut first,
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",\
         \"args\":{\"name\":\"critical path\"}}",
    )?;
    for &rank in &ranks {
        push_event(
            out,
            &mut first,
            &format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"rank {rank}\"}}}}",
                rank + 1
            ),
        )?;
    }
    for seg in &path.segments {
        let name = escape_str(&format!("{} · {}", seg.label, phase_name(seg.phase)));
        let class = match seg.class {
            SegClass::Compute => "compute",
            SegClass::Comm => "comm",
        };
        let detail = format!(
            "\"ts\":{},\"dur\":{},\"name\":{name},\
             \"args\":{{\"rank\":{},\"class\":\"{class}\"}}",
            micros(seg.t0),
            micros(seg.dur()),
            seg.rank
        );
        push_event(
            out,
            &mut first,
            &format!("{{\"ph\":\"X\",\"pid\":1,\"tid\":0,{detail}}}"),
        )?;
        push_event(
            out,
            &mut first,
            &format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},{detail}}}",
                seg.rank + 1
            ),
        )?;
    }
    out.write_all(b"\n],\"displayTimeUnit\":\"ms\"}\n")
}

/// Detail fields of one recovery instant. Group signatures are 64-bit
/// hashes, so they render as hex strings rather than JSON numbers
/// (which only hold 53 bits exactly).
fn recovery_args(kind: &RecoveryKind) -> String {
    match kind {
        RecoveryKind::Revoke { sig, peer } => {
            format!("\"sig\":\"{sig:016x}\",\"peer\":{peer}")
        }
        RecoveryKind::AgreeRound { sig, round, known } => {
            format!("\"sig\":\"{sig:016x}\",\"round\":{round},\"known\":{known}")
        }
        RecoveryKind::Shrink {
            sig,
            survivors,
            min_ckpt,
        } => format!("\"sig\":\"{sig:016x}\",\"survivors\":{survivors},\"min_ckpt\":{min_ckpt}"),
        RecoveryKind::Rollback { to_iter } => format!("\"to_iter\":{to_iter}"),
    }
}

fn push_event<W: Write>(out: &mut W, first: &mut bool, ev: &str) -> io::Result<()> {
    if !*first {
        out.write_all(b",\n")?;
    }
    *first = false;
    out.write_all(ev.as_bytes())
}

/// Virtual seconds → microsecond timestamp text with fixed precision.
fn micros(secs: f64) -> String {
    let mut s = format!("{:.3}", secs * 1e6);
    if s.ends_with(".000") {
        s.truncate(s.len() - 4);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RankRecorder, RecoveryKind, TraceSession};

    fn sample() -> TraceSession {
        let mut r0 = RankRecorder::on();
        r0.begin("step", 0.0);
        r0.begin("halo", 1e-6);
        r0.end(3e-6);
        r0.end(1e-5);
        r0.count("messages", 2);
        let mut r1 = RankRecorder::on();
        r1.begin("step", 0.0);
        r1.end(1.25e-5);
        TraceSession::new(vec![
            r0.into_timeline(0, 1e-5),
            r1.into_timeline(1, 1.25e-5),
        ])
    }

    #[test]
    fn export_is_valid_json_with_lanes() {
        let text = chrome_trace_json(&sample());
        let v = crate::Json::parse(&text).expect("valid JSON");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        // 2 metadata + 3 spans + 1 counter.
        assert_eq!(events.len(), 6);
        let meta = &events[0];
        assert_eq!(meta.get("ph").unwrap().as_str().unwrap(), "M");
        let span = events
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .unwrap();
        assert!(span.get("ts").is_some() && span.get("dur").is_some());
    }

    #[test]
    fn export_is_byte_deterministic() {
        assert_eq!(chrome_trace_json(&sample()), chrome_trace_json(&sample()));
    }

    #[test]
    fn sink_writer_matches_string_wrapper() {
        let mut buf = Vec::new();
        chrome_trace_to(&mut buf, &sample()).unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            chrome_trace_json(&sample())
        );
    }

    #[test]
    fn micros_formatting() {
        assert_eq!(micros(0.0), "0");
        assert_eq!(micros(1.0), "1000000");
        assert_eq!(micros(2.5e-6), "2.500");
    }

    #[test]
    fn recovery_events_form_a_dedicated_lane() {
        let mut r0 = RankRecorder::on();
        r0.begin("step", 0.0);
        r0.recovery_event(
            2e-6,
            RecoveryKind::Revoke {
                sig: 0xabcd,
                peer: 1,
            },
        );
        r0.recovery_event(
            4e-6,
            RecoveryKind::Shrink {
                sig: 0x1234,
                survivors: 3,
                min_ckpt: 10,
            },
        );
        r0.end(5e-6);
        let s = TraceSession::new(vec![r0.into_timeline(0, 5e-6)]);
        let text = chrome_trace_json(&s);
        let v = crate::Json::parse(&text).expect("valid JSON");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        let lane_meta = events
            .iter()
            .find(|e| {
                e.get("tid").and_then(crate::Json::as_u64) == Some(RECOVERY_LANE_TID as u64)
                    && e.get("ph").unwrap().as_str() == Some("M")
            })
            .expect("recovery lane metadata");
        assert_eq!(
            lane_meta.get("args").unwrap().get("name").unwrap().as_str(),
            Some("recovery")
        );
        let instants: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("i"))
            .collect();
        assert_eq!(instants.len(), 2);
        assert_eq!(instants[0].get("name").unwrap().as_str(), Some("revoke"));
        let args = instants[0].get("args").unwrap();
        assert_eq!(args.get("sig").unwrap().as_str(), Some("000000000000abcd"));
        assert_eq!(args.get("peer").unwrap().as_u64(), Some(1));
        assert_eq!(
            instants[1]
                .get("args")
                .unwrap()
                .get("min_ckpt")
                .unwrap()
                .as_u64(),
            Some(10)
        );
    }

    #[test]
    fn critical_lane_tiles_and_is_deterministic() {
        use crate::critical::{PathSegment, Rescale};
        // Two-rank graph: compute then a message bound; the path has a
        // compute and a transfer segment.
        let mut b =
            crate::TaskGraphBuilder::new(2, vec!["(untracked)".into(), "solve \"x\"".into()]);
        b.compute(0, 1, 3.0);
        let msg = b.send(0, 1, 0.0, 5, 2.0);
        b.recv(1, 1, msg);
        let g = b.finish().unwrap();
        let sched = g.schedule(&Rescale::none()).unwrap();
        let path = g.critical_path(&sched);
        assert!(!path.segments.is_empty());
        let text = critical_chrome_trace_json(&g, &path);
        let v = crate::Json::parse(&text).expect("valid JSON despite quoted phase name");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        // Every path segment appears twice: critical lane + rank lane.
        let xs: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .collect();
        assert_eq!(xs.len(), 2 * path.segments.len());
        let lane0: Vec<_> = xs
            .iter()
            .filter(|e| e.get("tid").unwrap().as_u64() == Some(0))
            .collect();
        assert_eq!(lane0.len(), path.segments.len());
        // The lane tiles [0, makespan]: durations sum to the makespan.
        let total: f64 = path.segments.iter().map(PathSegment::dur).sum();
        assert!((total - path.makespan).abs() < 1e-12 * path.makespan.max(1.0));
        assert_eq!(text, critical_chrome_trace_json(&g, &path));
    }

    #[test]
    fn dual_trace_separates_processes_and_names_them() {
        let virt = sample();
        let mut w = RankRecorder::on();
        w.begin("step", 0.0);
        w.end(2e-5);
        let wall = TraceSession::new(vec![w.into_timeline(0, 2e-5)]);
        let text = dual_chrome_trace_json(&virt, &wall);
        let v = crate::Json::parse(&text).expect("valid JSON");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        let pids: Vec<f64> = events
            .iter()
            .filter_map(|e| e.get("pid").and_then(crate::Json::as_f64))
            .collect();
        assert!(pids.contains(&1.0) && pids.contains(&2.0));
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(crate::Json::as_str) == Some("process_name"))
            .filter_map(|e| e.get("args").unwrap().get("name").unwrap().as_str())
            .collect();
        assert_eq!(names, vec!["virtual time", "wall clock"]);
        // Byte-deterministic like the single-lane export.
        assert_eq!(text, dual_chrome_trace_json(&sample(), &wall));
    }
}
