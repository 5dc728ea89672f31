//! Collapsed-stack flamegraph exporter.
//!
//! Emits the semicolon-separated stack format consumed by
//! `inferno-flamegraph` and Brendan Gregg's `flamegraph.pl`: one line
//! per unique stack, `frame;frame;... value`, where the value is the
//! stack's **self time** in integer nanoseconds of virtual time. Each
//! rank's stacks are rooted under a `rank N` frame so lanes stay
//! distinguishable; output lines are sorted, so the export is
//! deterministic.

use std::collections::BTreeMap;

use crate::TraceSession;

/// Render a session as collapsed-stack text.
pub fn collapsed_stacks(session: &TraceSession) -> String {
    let mut totals: BTreeMap<String, u64> = BTreeMap::new();
    for lane in &session.lanes {
        for span in &lane.spans {
            let ns = (span.self_time * 1e9).round() as u64;
            if ns == 0 {
                continue;
            }
            // Flat spans store an empty path meaning "just the name".
            let path: &str = if span.path.is_empty() {
                &span.name
            } else {
                &span.path
            };
            let key = format!("rank {};{path}", lane.rank);
            *totals.entry(key).or_insert(0) += ns;
        }
    }
    totals
        .iter()
        .map(|(stack, ns)| format!("{stack} {ns}\n"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RankRecorder, TraceSession};

    #[test]
    fn stacks_carry_self_time_and_merge() {
        let mut rec = RankRecorder::on();
        rec.begin("step", 0.0);
        rec.begin("halo", 0.0);
        rec.end(1e-6);
        rec.begin("halo", 2e-6);
        rec.end(3e-6);
        rec.end(5e-6);
        let s = TraceSession::new(vec![rec.into_timeline(0, 5e-6)]);
        let text = collapsed_stacks(&s);
        // Two halo spans merged into one stack line; step keeps 3 µs self.
        assert_eq!(text, "rank 0;step 3000\nrank 0;step;halo 2000\n");
    }

    #[test]
    fn zero_self_time_stacks_are_dropped() {
        let mut rec = RankRecorder::on();
        rec.begin("wrapper", 0.0);
        rec.begin("inner", 0.0);
        rec.end(1e-6);
        rec.end(1e-6);
        let s = TraceSession::new(vec![rec.into_timeline(0, 1e-6)]);
        let text = collapsed_stacks(&s);
        assert_eq!(text, "rank 0;wrapper;inner 1000\n");
    }
}
