//! Layer spans and work counters around calls into the program.
//!
//! A [`Probe`] wraps a [`WallRecorder`]: traced iterations record a span
//! per layer call, untraced ones pay a branch per call and nothing
//! else. Work counters are kept in both modes, because the correctness
//! check compares them against the reference on every iteration.

use std::collections::{BTreeMap, BTreeSet};

use cpx_obs::{RankTimeline, WallRecorder};

/// Name of the span that encloses one iteration of a workload.
pub const ROOT: &str = "iteration";

/// Span recorder and counter set for one iteration.
#[derive(Debug)]
pub struct Probe {
    rec: WallRecorder,
    counters: BTreeMap<&'static str, u64>,
    traced_only: BTreeSet<&'static str>,
    gauges: BTreeMap<&'static str, f64>,
}

impl Probe {
    /// A probe that records spans when `traced`, and counts either way.
    pub fn new(traced: bool) -> Probe {
        Probe {
            rec: if traced {
                WallRecorder::on()
            } else {
                WallRecorder::off()
            },
            counters: BTreeMap::new(),
            traced_only: BTreeSet::new(),
            gauges: BTreeMap::new(),
        }
    }

    /// Does this probe record spans?
    pub fn traced(&self) -> bool {
        self.rec.is_on()
    }

    /// Open a span; it nests under any span still open.
    pub fn begin(&mut self, name: &'static str) {
        self.rec.begin(name);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        self.rec.end();
    }

    /// Time one layer call as a span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.rec.span(name, f)
    }

    /// Add `n` to a work counter.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_default() += n;
    }

    /// Record a measured ratio (not part of the correctness check).
    pub fn gauge(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    /// The gauges recorded so far.
    pub fn gauges(&self) -> &BTreeMap<&'static str, f64> {
        &self.gauges
    }

    /// Add `n` to a work counter that only traced iterations compute.
    pub fn count_traced(&mut self, name: &'static str, n: u64) {
        debug_assert!(self.traced(), "{name} is counted in traced iterations only");
        self.traced_only.insert(name);
        self.count(name, n);
    }

    /// The work counters as reference entries: `count.<name>`, or
    /// `traced.count.<name>` for those only traced iterations compute.
    pub fn counter_entries(&self) -> impl Iterator<Item = (String, u64)> + '_ {
        self.counters.iter().map(|(&name, &n)| {
            let prefix = if self.traced_only.contains(name) {
                "traced."
            } else {
                ""
            };
            (format!("{prefix}count.{name}"), n)
        })
    }

    /// Seal the spans (empty when untraced) with the counters attached.
    pub fn into_timeline(self) -> RankTimeline {
        let mut lane = self.rec.into_timeline(0);
        lane.counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.to_string(), v))
            .collect();
        lane
    }
}
