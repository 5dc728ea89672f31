//! # cpx-obs
//!
//! Observability for the virtual testbed: a zero-cost-when-disabled
//! recorder of **spans and counters keyed to virtual time**, plus three
//! deterministic exporters.
//!
//! Every subsystem in the workspace advances a per-rank *logical* clock
//! (the `RankCtx` clock in `cpx-comm`, the replay clock in
//! `cpx-machine`, an explicit work-model clock in `cpx-amg`). The
//! recorder attaches named, nested spans to those clocks — never to
//! wall time — so a trace is a pure function of the inputs: same seed +
//! same fault plan ⇒ byte-identical export. Traces double as regression
//! artifacts.
//!
//! The three exporters are
//!
//! * [`chrome::chrome_trace_json`] — Chrome trace-event JSON, one lane
//!   per rank, loadable in Perfetto or `chrome://tracing`;
//! * [`flame::collapsed_stacks`] — collapsed-stack text compatible with
//!   `inferno-flamegraph` / Brendan Gregg's `flamegraph.pl`;
//! * [`metrics::metrics_json`] — a JSON snapshot with counters and
//!   p50/p95/p99 histograms over per-rank phase times.
//!
//! ## Recording
//!
//! ```
//! use cpx_obs::RankRecorder;
//!
//! let mut rec = RankRecorder::on();
//! rec.begin("step", 0.0);
//! rec.begin("halo", 0.2);
//! rec.end(0.5); // halo: 0.2..0.5
//! rec.end(1.0); // step: 0.0..1.0, self time 0.7
//! rec.count("messages", 3);
//! let lane = rec.into_timeline(0, 1.0);
//! assert_eq!(lane.spans.len(), 2);
//! assert!(lane.spans.iter().all(|s| s.end >= s.start));
//! ```
//!
//! When constructed with [`RankRecorder::off`] every method is a
//! branch-on-a-bool no-op: no allocation, no formatting, no clock math.
//!
//! ## Wall clock
//!
//! [`wall::WallRecorder`] is the monotonic-clock sibling of
//! [`RankRecorder`] — same API and on/off contract, timestamps sampled
//! from [`std::time::Instant`] instead of a virtual clock. It seals
//! into the same timeline/session types so every exporter works on wall
//! traces, and [`chrome::dual_chrome_trace_json`] renders the virtual
//! and wall views of one run side by side. [`roofline::KernelIntensity`]
//! joins kernel-reported operation counts ([`roofline::OpCounts`]) with
//! measured wall times into roofline-style achieved-rate summaries.

use std::borrow::Cow;
use std::collections::BTreeMap;

pub mod chrome;
pub mod critical;
pub mod flame;
pub mod http;
pub mod json;
pub mod merge;
pub mod metrics;
pub mod netstats;
pub mod roofline;
pub mod stats;
pub mod wall;

pub use chrome::{
    chrome_trace_json, chrome_trace_to, critical_chrome_trace_json, critical_chrome_trace_to,
    dual_chrome_trace_json, dual_chrome_trace_to,
};
pub use critical::{
    blend_factor, path_report, BlamedSpan, CriticalPath, GraphError, Node, PathReport, PathSegment,
    Plan, Rescale, Schedule, SegClass, Sent, Step, TaskGraph, TaskGraphBuilder,
};
pub use flame::{collapsed_stacks, collapsed_stacks_to};
pub use http::{MetricsServer, Response};
pub use json::{FromJson, Json, JsonError, ToJson};
pub use merge::{
    cluster_chrome_trace_json, cluster_chrome_trace_to, cluster_metrics_json,
    cluster_virtual_trace_json, cluster_virtual_trace_to, NodeObs,
};
pub use metrics::{metrics_json, phase_stats, PhaseStats};
pub use netstats::{NetStats, NetStatsSnapshot};
pub use roofline::{KernelIntensity, OpCounts};
pub use stats::{nearest_rank_index, percentile_sorted};
pub use wall::WallRecorder;

/// Span names are either static strings (the common, allocation-free
/// case) or owned strings for dynamic labels like `"level 3"`.
pub type SpanName = Cow<'static, str>;

/// A closed span on one rank's virtual timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Leaf name (e.g. `"allreduce"`).
    pub name: SpanName,
    /// Full `;`-separated ancestry including the leaf, flamegraph-style
    /// (e.g. `"step;pressure field;allreduce"`). Empty for flat spans
    /// pushed whole via [`RankRecorder::push_span`], whose ancestry is
    /// just [`Span::name`] (saves an allocation per span on the
    /// replayer's hot path).
    pub path: String,
    /// Virtual start time (seconds).
    pub start: f64,
    /// Virtual end time (seconds); `end >= start` always.
    pub end: f64,
    /// Nesting depth (0 = top level).
    pub depth: u16,
    /// Time inside this span not covered by child spans.
    pub self_time: f64,
}

impl Span {
    /// Span duration in virtual seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// An open frame on the recorder stack.
#[derive(Debug)]
struct Frame {
    name: SpanName,
    start: f64,
    child_time: f64,
}

/// One step of a shrink-recovery round, timestamped on the observing
/// rank's virtual clock. Recovery events are rare (only failures
/// produce them) but load-bearing when they happen: exported together
/// they replay a chaos run's revoke → agreement → shrink → rollback
/// sequence as a dedicated Chrome-trace lane.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryEvent {
    /// Virtual time of the step on the recording rank.
    pub t: f64,
    /// Which protocol step.
    pub kind: RecoveryKind,
}

/// The protocol step a [`RecoveryEvent`] records.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryKind {
    /// The rank revoked group `sig` after observing `peer` fail.
    Revoke {
        /// Signature of the revoked group.
        sig: u64,
        /// The failed rank the revocation blames.
        peer: usize,
    },
    /// One flooding round of the shrink agreement on group `sig`.
    AgreeRound {
        /// Signature of the revoked group the agreement runs on.
        sig: u64,
        /// Round number (1-based).
        round: u64,
        /// Contributors known entering the round.
        known: usize,
    },
    /// The agreement committed: the successor group is formed.
    Shrink {
        /// Signature of the *successor* group.
        sig: u64,
        /// Members of the successor group.
        survivors: usize,
        /// Agreed minimum checkpoint iteration.
        min_ckpt: u64,
    },
    /// The rank rolled its state back to the agreed checkpoint.
    Rollback {
        /// Iteration resumed from.
        to_iter: u64,
    },
}

impl RecoveryKind {
    /// Short label used as the Chrome-trace event name.
    pub fn label(&self) -> &'static str {
        match self {
            RecoveryKind::Revoke { .. } => "revoke",
            RecoveryKind::AgreeRound { .. } => "agree round",
            RecoveryKind::Shrink { .. } => "shrink",
            RecoveryKind::Rollback { .. } => "rollback",
        }
    }
}

/// Per-rank span/counter recorder.
///
/// Spans must nest: `begin`/`end` pairs form a stack. Times passed in
/// must come from the rank's virtual clock, which is monotone per rank,
/// so durations are never negative (the recorder clamps defensively
/// anyway). Disabled recorders do nothing.
#[derive(Debug, Default)]
pub struct RankRecorder {
    enabled: bool,
    stack: Vec<Frame>,
    spans: Vec<Span>,
    counters: BTreeMap<String, u64>,
    recovery: Vec<RecoveryEvent>,
}

impl RankRecorder {
    /// A recorder that records.
    pub fn on() -> Self {
        RankRecorder {
            enabled: true,
            ..Default::default()
        }
    }

    /// A recorder where every call is a no-op.
    pub fn off() -> Self {
        RankRecorder::default()
    }

    /// Is this recorder live?
    #[inline]
    pub fn is_on(&self) -> bool {
        self.enabled
    }

    /// Open a span at virtual time `t`.
    #[inline]
    pub fn begin(&mut self, name: impl Into<SpanName>, t: f64) {
        if !self.enabled {
            return;
        }
        self.stack.push(Frame {
            name: name.into(),
            start: t,
            child_time: 0.0,
        });
    }

    /// Close the innermost open span at virtual time `t`.
    ///
    /// Unbalanced `end` calls (empty stack) are ignored rather than
    /// panicking: a crashed rank may unwind through scope guards.
    #[inline]
    pub fn end(&mut self, t: f64) {
        if !self.enabled {
            return;
        }
        let Some(frame) = self.stack.pop() else {
            return;
        };
        self.close_frame(frame, t);
    }

    fn close_frame(&mut self, frame: Frame, t: f64) {
        let end = t.max(frame.start);
        let dur = end - frame.start;
        let self_time = (dur - frame.child_time).max(0.0);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_time += dur;
        }
        let mut path = String::new();
        for f in &self.stack {
            path.push_str(&f.name);
            path.push(';');
        }
        path.push_str(&frame.name);
        self.spans.push(Span {
            name: frame.name,
            path,
            start: frame.start,
            end,
            depth: self.stack.len() as u16,
            self_time,
        });
    }

    /// Push a pre-formed span (used by replayers that segment phases
    /// themselves rather than via `begin`/`end`). The stored `path` is
    /// left empty, meaning "same as the name".
    pub fn push_span(&mut self, name: impl Into<SpanName>, start: f64, end: f64) {
        if !self.enabled {
            return;
        }
        let name = name.into();
        let end = end.max(start);
        self.spans.push(Span {
            path: String::new(),
            self_time: end - start,
            name,
            start,
            end,
            depth: 0,
        });
    }

    /// Bump a named counter. Allocates the key only on a counter's
    /// first hit, so per-message counters stay cheap.
    #[inline]
    pub fn count(&mut self, name: &str, n: u64) {
        if !self.enabled {
            return;
        }
        if let Some(v) = self.counters.get_mut(name) {
            *v += n;
        } else {
            self.counters.insert(name.to_string(), n);
        }
    }

    /// Record a shrink-recovery protocol step at virtual time `t`.
    /// No-op while disabled, like every other method.
    #[inline]
    pub fn recovery_event(&mut self, t: f64, kind: RecoveryKind) {
        if !self.enabled {
            return;
        }
        self.recovery.push(RecoveryEvent { t, kind });
    }

    /// Current nesting depth (0 when no span is open).
    pub fn open_depth(&self) -> usize {
        self.stack.len()
    }

    /// Close any still-open spans at `t` (a crashed rank dies mid-span)
    /// and seal the recorder into a rank timeline.
    pub fn into_timeline(mut self, rank: usize, t: f64) -> RankTimeline {
        while let Some(frame) = self.stack.pop() {
            self.close_frame(frame, t);
        }
        RankTimeline {
            rank,
            spans: self.spans,
            counters: self.counters,
            recovery: self.recovery,
            finish: t,
        }
    }
}

/// All spans and counters recorded on one rank.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankTimeline {
    /// World rank (trace lane id).
    pub rank: usize,
    /// Closed spans, in close order (children before parents).
    pub spans: Vec<Span>,
    /// Named event counters.
    pub counters: BTreeMap<String, u64>,
    /// Shrink-recovery protocol steps observed by this rank, in
    /// emission (= virtual-time) order. Empty on fault-free runs.
    pub recovery: Vec<RecoveryEvent>,
    /// Final virtual clock value of the rank.
    pub finish: f64,
}

/// A whole run's trace: one timeline per rank.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSession {
    /// One lane per rank, ordered by rank.
    pub lanes: Vec<RankTimeline>,
}

impl TraceSession {
    /// Assemble a session from per-rank timelines, sorting lanes by
    /// rank so exports are independent of completion order.
    pub fn new(mut lanes: Vec<RankTimeline>) -> Self {
        lanes.sort_by_key(|l| l.rank);
        TraceSession { lanes }
    }

    /// Total number of spans across all lanes.
    pub fn total_spans(&self) -> usize {
        self.lanes.iter().map(|l| l.spans.len()).sum()
    }

    /// Total number of recovery events across all lanes.
    pub fn total_recovery_events(&self) -> usize {
        self.lanes.iter().map(|l| l.recovery.len()).sum()
    }

    /// Sum of a counter across all lanes.
    pub fn counter(&self, name: &str) -> u64 {
        self.lanes.iter().filter_map(|l| l.counters.get(name)).sum()
    }

    /// Virtual makespan (max finish over lanes).
    pub fn makespan(&self) -> f64 {
        self.lanes.iter().fold(0.0_f64, |m, l| m.max(l.finish))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = RankRecorder::off();
        rec.begin("a", 0.0);
        rec.count("x", 5);
        rec.end(1.0);
        let lane = rec.into_timeline(0, 1.0);
        assert!(lane.spans.is_empty());
        assert!(lane.counters.is_empty());
    }

    #[test]
    fn nesting_and_self_time() {
        let mut rec = RankRecorder::on();
        rec.begin("outer", 0.0);
        rec.begin("inner", 1.0);
        rec.end(3.0);
        rec.begin("inner2", 3.0);
        rec.end(4.0);
        rec.end(10.0);
        let lane = rec.into_timeline(2, 10.0);
        assert_eq!(lane.spans.len(), 3);
        let outer = lane.spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(outer.depth, 0);
        assert!((outer.self_time - 7.0).abs() < 1e-12);
        let inner = lane.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.depth, 1);
        assert_eq!(inner.path, "outer;inner");
        assert!((inner.self_time - 2.0).abs() < 1e-12);
    }

    #[test]
    fn into_timeline_closes_open_spans() {
        let mut rec = RankRecorder::on();
        rec.begin("a", 0.0);
        rec.begin("b", 1.0);
        let lane = rec.into_timeline(0, 5.0);
        assert_eq!(lane.spans.len(), 2);
        assert!(lane.spans.iter().all(|s| s.end == 5.0));
    }

    #[test]
    fn unbalanced_end_is_ignored() {
        let mut rec = RankRecorder::on();
        rec.end(1.0);
        let lane = rec.into_timeline(0, 1.0);
        assert!(lane.spans.is_empty());
    }

    #[test]
    fn recovery_events_recorded_only_when_enabled() {
        let mut off = RankRecorder::off();
        off.recovery_event(1.0, RecoveryKind::Rollback { to_iter: 3 });
        assert!(off.into_timeline(0, 1.0).recovery.is_empty());

        let mut on = RankRecorder::on();
        on.recovery_event(0.5, RecoveryKind::Revoke { sig: 7, peer: 2 });
        on.recovery_event(0.6, RecoveryKind::Rollback { to_iter: 4 });
        let lane = on.into_timeline(1, 1.0);
        assert_eq!(lane.recovery.len(), 2);
        assert_eq!(lane.recovery[0].kind.label(), "revoke");
        assert_eq!(lane.recovery[1].t, 0.6);
        let s = TraceSession::new(vec![lane]);
        assert_eq!(s.total_recovery_events(), 2);
    }

    #[test]
    fn counters_accumulate() {
        let mut rec = RankRecorder::on();
        rec.count("retries", 2);
        rec.count("retries", 3);
        let lane = rec.into_timeline(1, 0.0);
        assert_eq!(lane.counters["retries"], 5);
    }

    #[test]
    fn session_sorts_lanes_and_sums() {
        let mut a = RankRecorder::on();
        a.count("msgs", 1);
        let mut b = RankRecorder::on();
        b.count("msgs", 2);
        let s = TraceSession::new(vec![b.into_timeline(1, 2.0), a.into_timeline(0, 3.0)]);
        assert_eq!(s.lanes[0].rank, 0);
        assert_eq!(s.counter("msgs"), 3);
        assert!((s.makespan() - 3.0).abs() < 1e-12);
    }
}
