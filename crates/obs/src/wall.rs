//! Wall-clock span/counter recorder.
//!
//! [`WallRecorder`] is the real-clock sibling of
//! [`RankRecorder`]: the same begin/end/count API
//! and the same on/off no-op contract, but timestamps come from a
//! monotonic [`Instant`] sampled at each call instead of being passed
//! in from a virtual clock. It seals into the same [`RankTimeline`] /
//! [`TraceSession`](crate::TraceSession) types, so every exporter in
//! this crate (Chrome trace, flamegraph, metrics snapshot) works on
//! wall traces unchanged, and
//! [`dual_chrome_trace_json`](crate::chrome::dual_chrome_trace_json)
//! can show the virtual and wall timelines of the same run side by
//! side.
//!
//! Unlike virtual traces, wall traces are **not** deterministic — they
//! measure the hardware. Never feed them into a byte-compare gate; diff
//! the derived statistics instead.
//!
//! A disabled recorder ([`WallRecorder::off`]) never calls
//! [`Instant::now`], never allocates and never formats: every method is
//! a branch on a bool, so leaving wall instrumentation compiled into a
//! hot path costs nothing when it is off (asserted by the workspace
//! test `wall_recorder_overhead`).

use std::time::Instant;

use crate::{RankRecorder, RankTimeline, SpanName};

/// Monotonic-clock recorder with the [`RankRecorder`] on/off contract.
#[derive(Debug)]
pub struct WallRecorder {
    /// `None` while disabled; the epoch every span time is relative to
    /// once enabled (set at construction).
    epoch: Option<Instant>,
    inner: RankRecorder,
}

impl Default for WallRecorder {
    fn default() -> Self {
        WallRecorder::off()
    }
}

impl WallRecorder {
    /// A recorder that records, with its epoch at "now".
    pub fn on() -> Self {
        WallRecorder {
            epoch: Some(Instant::now()),
            inner: RankRecorder::on(),
        }
    }

    /// A recorder where every method is a no-op (no clock reads, no
    /// allocation).
    pub fn off() -> Self {
        WallRecorder {
            epoch: None,
            inner: RankRecorder::off(),
        }
    }

    /// Is this recorder live?
    #[inline]
    pub fn is_on(&self) -> bool {
        self.epoch.is_some()
    }

    /// Seconds since the recorder's epoch (0.0 while disabled).
    #[inline]
    pub fn elapsed(&self) -> f64 {
        match self.epoch {
            Some(epoch) => epoch.elapsed().as_secs_f64(),
            None => 0.0,
        }
    }

    /// Open a span at the current wall time.
    #[inline]
    pub fn begin(&mut self, name: impl Into<SpanName>) {
        let Some(epoch) = self.epoch else {
            return;
        };
        let t = epoch.elapsed().as_secs_f64();
        self.inner.begin(name, t);
    }

    /// Close the innermost open span at the current wall time.
    /// Unbalanced `end` calls are ignored, as for [`RankRecorder`].
    #[inline]
    pub fn end(&mut self) {
        let Some(epoch) = self.epoch else {
            return;
        };
        let t = epoch.elapsed().as_secs_f64();
        self.inner.end(t);
    }

    /// Push a pre-timed span: `start`/`end` are seconds relative to the
    /// recorder's epoch (e.g. re-based from a `cpx-par` pool-telemetry
    /// chunk timing).
    pub fn push_span(&mut self, name: impl Into<SpanName>, start: f64, end: f64) {
        if self.epoch.is_some() {
            self.inner.push_span(name, start, end);
        }
    }

    /// Bump a named counter.
    #[inline]
    pub fn count(&mut self, name: &str, n: u64) {
        self.inner.count(name, n);
    }

    /// Current nesting depth (0 when no span is open or when disabled).
    pub fn open_depth(&self) -> usize {
        self.inner.open_depth()
    }

    /// Close any still-open spans at the current wall time and seal the
    /// recording into a rank timeline.
    pub fn into_timeline(self, rank: usize) -> RankTimeline {
        let t = self.elapsed();
        self.inner.into_timeline(rank, t)
    }

    /// Time one closure as a named span and return its result.
    pub fn span<R>(&mut self, name: impl Into<SpanName>, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceSession;

    #[test]
    fn disabled_recorder_records_nothing_and_reads_no_clock() {
        let mut rec = WallRecorder::off();
        assert!(!rec.is_on());
        rec.begin("a");
        rec.count("x", 3);
        rec.end();
        assert_eq!(rec.elapsed(), 0.0);
        let lane = rec.into_timeline(0);
        assert!(lane.spans.is_empty());
        assert!(lane.counters.is_empty());
        assert_eq!(lane.finish, 0.0);
    }

    #[test]
    fn spans_nest_and_carry_monotone_wall_times() {
        let mut rec = WallRecorder::on();
        rec.begin("outer");
        rec.begin("inner");
        std::hint::black_box((0..1000).sum::<u64>());
        rec.end();
        rec.end();
        let lane = rec.into_timeline(3);
        assert_eq!(lane.rank, 3);
        assert_eq!(lane.spans.len(), 2);
        let inner = lane.spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = lane.spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.path, "outer;inner");
        assert!(inner.start >= outer.start);
        assert!(inner.end <= outer.end + 1e-12);
        assert!(lane.finish >= outer.end);
    }

    #[test]
    fn wall_timeline_feeds_existing_exporters() {
        let mut rec = WallRecorder::on();
        rec.span("work", || std::hint::black_box((0..100).product::<u128>()));
        rec.count("items", 7);
        let session = TraceSession::new(vec![rec.into_timeline(0)]);
        let trace = crate::chrome_trace_json(&session);
        assert!(trace.contains("\"work\""));
        let metrics = crate::metrics_json(&session, &[]);
        assert_eq!(
            metrics
                .get("counters")
                .unwrap()
                .get("items")
                .unwrap()
                .as_f64(),
            Some(7.0)
        );
    }

    #[test]
    fn span_closure_returns_value() {
        let mut rec = WallRecorder::on();
        let v = rec.span("calc", || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(rec.open_depth(), 0);
    }

    #[test]
    fn push_span_rebases_external_timings() {
        let mut rec = WallRecorder::on();
        rec.push_span("chunk 0", 0.001, 0.002);
        let lane = rec.into_timeline(0);
        assert_eq!(lane.spans.len(), 1);
        assert!((lane.spans[0].duration() - 0.001).abs() < 1e-12);
    }
}
