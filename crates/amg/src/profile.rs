//! Instrumented AMG profiling: real numerics driving a virtual clock.
//!
//! [`CycleProfiler`] runs the crate's actual V-cycle — the same
//! smoothers, transfers and coarse solve as [`crate::cycle::vcycle`],
//! producing bit-identical iterates — while recording nested
//! [`cpx_obs`] spans (per level: smooth / restrict / prolong, plus the
//! Galerkin SpGEMM setup) against a virtual clock advanced by a
//! roofline work model over each kernel's measured
//! [`SpOpStats`]. The clock never reads wall
//! time, so profiling the same hierarchy twice yields byte-identical
//! trace exports — the determinism contract every `cpx-obs` exporter
//! relies on.

use cpx_obs::{RankRecorder, SpanName, TraceSession};
use cpx_sparse::SpOpStats;

use crate::hierarchy::Hierarchy;

/// Sustained per-core flop rate of the work-model clock (ARCHER2-like).
pub const PROFILE_FLOPS_PER_SEC: f64 = 2.2e9;
/// Sustained per-core memory bandwidth of the work-model clock.
pub const PROFILE_BYTES_PER_SEC: f64 = 1.56e9;

/// Roofline seconds of one kernel's measured work.
fn work_secs(s: &SpOpStats) -> f64 {
    (s.flops / PROFILE_FLOPS_PER_SEC).max(s.bytes() / PROFILE_BYTES_PER_SEC)
}

/// Runs real multigrid cycles under a span recorder.
pub struct CycleProfiler<'a> {
    h: &'a Hierarchy,
    clock: f64,
    rec: RankRecorder,
}

impl<'a> CycleProfiler<'a> {
    /// A profiler over `h` with the clock at zero.
    pub fn new(h: &'a Hierarchy) -> CycleProfiler<'a> {
        CycleProfiler {
            h,
            clock: 0.0,
            rec: RankRecorder::on(),
        }
    }

    /// Current virtual time.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    fn begin(&mut self, name: impl Into<SpanName>) {
        let t = self.clock;
        self.rec.begin(name, t);
    }

    fn end(&mut self) {
        let t = self.clock;
        self.rec.end(t);
    }

    fn charge(&mut self, s: &SpOpStats) {
        self.clock += work_secs(s);
    }

    /// Streaming vector op over `n` entries (2 reads, 1 write, 1 flop).
    fn charge_vec(&mut self, n: usize) {
        self.charge(&SpOpStats {
            flops: n as f64,
            bytes_read: 16.0 * n as f64,
            bytes_written: 8.0 * n as f64,
            input_passes: 1,
        });
    }

    /// Record the hierarchy's Galerkin setup as one `setup (spgemm)`
    /// span with a sub-span per coarsened level. The charged total is
    /// the hierarchy's measured [`Hierarchy::setup_stats`] work,
    /// attributed to levels in proportion to their operator size.
    pub fn record_setup(&mut self) {
        let h = self.h;
        let total = work_secs(&h.setup_stats());
        let weight: f64 = h
            .levels
            .iter()
            .filter(|l| l.p.is_some())
            .map(|l| l.a.nnz() as f64)
            .sum();
        self.begin("setup (spgemm)");
        if weight > 0.0 {
            for (l, lvl) in h.levels.iter().enumerate() {
                if lvl.p.is_none() {
                    continue;
                }
                self.begin(format!("spgemm level {l}"));
                self.clock += total * lvl.a.nnz() as f64 / weight;
                self.end();
            }
        } else {
            self.clock += total;
        }
        self.end();
    }

    /// Run one V-cycle for `A x = b` in place, recording a `vcycle`
    /// span tree. The numerics are exactly [`crate::cycle::vcycle`].
    pub fn vcycle(&mut self, b: &[f64], x: &mut [f64]) {
        self.begin("vcycle");
        self.vcycle_at(0, b, x);
        self.end();
        self.rec.count("vcycles", 1);
    }

    fn vcycle_at(&mut self, level: usize, b: &[f64], x: &mut [f64]) {
        let h = self.h;
        self.begin(format!("level {level}"));
        let lvl = &h.levels[level];
        let a = &lvl.a;
        if level + 1 == h.n_levels() {
            self.begin("coarse solve");
            let sol = h.coarse_solve(b);
            x.copy_from_slice(&sol);
            // Two dense triangular solves.
            let n = a.nrows() as f64;
            self.charge(&SpOpStats {
                flops: 2.0 * n * n,
                bytes_read: 2.0 * n * n * 8.0,
                bytes_written: n * 8.0,
                input_passes: 1,
            });
            self.end();
            self.end();
            return;
        }
        let smoother = h.config.smoother;

        self.begin("smooth (pre)");
        let s = smoother.smooth(a, b, x, h.config.pre_sweeps);
        self.charge(&s);
        self.end();

        self.begin("restrict");
        let mut ax = vec![0.0; b.len()];
        let s = a.spmv(x, &mut ax);
        self.charge(&s);
        let residual: Vec<f64> = b.iter().zip(&ax).map(|(bi, ai)| bi - ai).collect();
        self.charge_vec(b.len());
        let r_op = lvl.r.as_ref().expect("non-coarsest level has R");
        let p_op = lvl.p.as_ref().expect("non-coarsest level has P");
        let mut rc = vec![0.0; r_op.nrows()];
        let s = r_op.spmv(&residual, &mut rc);
        self.charge(&s);
        self.end();

        let mut xc = vec![0.0; rc.len()];
        self.vcycle_at(level + 1, &rc, &mut xc);

        self.begin("prolong");
        let mut correction = vec![0.0; x.len()];
        let s = p_op.spmv(&xc, &mut correction);
        self.charge(&s);
        for (xi, ci) in x.iter_mut().zip(&correction) {
            *xi += ci;
        }
        self.charge_vec(x.len());
        self.end();

        self.begin("smooth (post)");
        let s = smoother.smooth(a, b, x, h.config.post_sweeps);
        self.charge(&s);
        self.end();

        self.end();
    }

    /// Close the recording into a one-lane [`TraceSession`].
    pub fn finish(self) -> TraceSession {
        let CycleProfiler { rec, clock, .. } = self;
        TraceSession::new(vec![rec.into_timeline(0, clock)])
    }
}

/// Profile `cycles` V-cycles from a zero start (setup recorded first);
/// returns the final iterate and the recorded session.
pub fn profile_vcycles(h: &Hierarchy, b: &[f64], cycles: usize) -> (Vec<f64>, TraceSession) {
    let mut prof = CycleProfiler::new(h);
    prof.record_setup();
    let mut x = vec![0.0; b.len()];
    for _ in 0..cycles {
        prof.vcycle(b, &mut x);
    }
    (x, prof.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::vcycle;
    use crate::hierarchy::HierarchyConfig;
    use cpx_obs::chrome_trace_json;
    use cpx_sparse::Csr;

    fn problem() -> (Hierarchy, Vec<f64>) {
        let a = Csr::poisson2d(24, 24);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i % 11) as f64) - 5.0).collect();
        (Hierarchy::build(a, HierarchyConfig::default()), b)
    }

    #[test]
    fn profiled_cycle_matches_plain_numerics_exactly() {
        let (h, b) = problem();
        let (x_prof, session) = profile_vcycles(&h, &b, 3);
        let mut x_plain = vec![0.0; b.len()];
        for _ in 0..3 {
            vcycle(&h, 0, &b, &mut x_plain);
        }
        assert_eq!(x_prof, x_plain);
        assert_eq!(session.counter("vcycles"), 3);
    }

    #[test]
    fn spans_nest_per_level_and_cover_all_stages() {
        let (h, b) = problem();
        assert!(h.n_levels() >= 2, "want a multilevel test problem");
        let (_, session) = profile_vcycles(&h, &b, 1);
        let lane = &session.lanes[0];
        let has = |path_part: &str| lane.spans.iter().any(|s| s.path.contains(path_part));
        for stage in ["smooth (pre)", "restrict", "prolong", "smooth (post)"] {
            assert!(has(&format!("level 0;{stage}")), "missing {stage}");
        }
        assert!(has("level 0;level 1"), "levels must nest");
        assert!(has("coarse solve"));
        assert!(has("setup (spgemm);spgemm level 0"));
        // Well-formed: non-negative durations, self time within span.
        for s in &lane.spans {
            assert!(s.end >= s.start);
            assert!(s.self_time >= 0.0 && s.self_time <= s.duration() + 1e-15);
        }
    }

    #[test]
    fn profiling_is_deterministic_byte_for_byte() {
        let (h, b) = problem();
        let run = || chrome_trace_json(&profile_vcycles(&h, &b, 2).1);
        assert_eq!(run(), run());
    }
}
