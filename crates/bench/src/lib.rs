//! # cpx-bench
//!
//! The benchmark harness: the `figures` binary regenerates every table
//! and figure of the paper's evaluation on the virtual testbed, and the
//! study bins write the committed `BENCH_*.json` artifacts
//! (`bench_kernels` times the real kernels behind the paper's
//! optimization analysis; `bench_coupled`, `critical_study`,
//! `stc_study` and `validation_study` cover the coupled run).
//!
//! Run a single figure with
//! `cargo run -p cpx-bench --release --bin figures -- fig4b`
//! or everything with `-- all`.

use std::path::Path;

use cpx_machine::Machine;
use cpx_pressure::{PressureConfig, PressureTraceModel};
use cpx_simpic::{SimpicConfig, SimpicTraceModel};

/// Rank counts of the small-case scaling sweeps (Figs 4a/4b/5b/6).
pub const SWEEP_SMALL: [usize; 6] = [128, 256, 512, 1024, 2048, 4096];

/// Rank counts of the large base-case sweep (Fig 4c).
pub const SWEEP_LARGE: [usize; 6] = [1000, 2000, 4000, 6000, 8000, 10_000];

/// A labelled runtime series over rank counts.
#[derive(Debug, Clone)]
pub struct Series {
    /// Label.
    pub name: String,
    /// `(ranks, seconds)` points.
    pub points: Vec<(usize, f64)>,
}

impl Series {
    /// Speedup of each point relative to the first.
    pub fn speedup(&self) -> Vec<(usize, f64)> {
        let (p0, t0) = self.points[0];
        let _ = p0;
        self.points.iter().map(|&(p, t)| (p, t0 / t)).collect()
    }

    /// Parallel efficiency of each point relative to the first.
    pub fn parallel_efficiency(&self) -> Vec<(usize, f64)> {
        let (p0, t0) = self.points[0];
        self.points
            .iter()
            .map(|&(p, t)| (p, (t0 * p0 as f64) / (t * p as f64)))
            .collect()
    }
}

/// Pressure-solver per-step runtime series.
pub fn pressure_series(config: PressureConfig, ranks: &[usize], machine: &Machine) -> Series {
    let name = format!(
        "pressure {}M ({:?})",
        (config.cells / 1.0e6).round(),
        config.variant
    );
    let model = PressureTraceModel::new(config);
    Series {
        name,
        points: ranks
            .iter()
            .map(|&p| (p, model.per_step_runtime(p, machine)))
            .collect(),
    }
}

/// SIMPIC per-pressure-step runtime series.
pub fn simpic_series(config: SimpicConfig, ranks: &[usize], machine: &Machine) -> Series {
    let name = format!(
        "SIMPIC {}k cells / {} ppc",
        config.cells / 1000,
        config.particles_per_cell
    );
    let model = SimpicTraceModel::new(config);
    Series {
        name,
        points: ranks
            .iter()
            .map(|&p| (p, model.per_pressure_step_runtime(p, machine)))
            .collect(),
    }
}

/// Median of `times` (the upper one for an even count), floored at
/// 1 ns so a zero timer reading never yields an infinite speedup.
pub fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2].max(1e-9)
}

/// Write `text` to `path`, creating the parent directory first.
pub fn write_text(path: &str, text: &str) {
    if let Some(dir) = Path::new(path)
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
    {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
}

/// Render a two-series comparison table with per-point relative error.
pub fn comparison_table(a: &Series, b: &Series) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>8} {:>14} {:>14} {:>8}\n",
        "ranks", "A (s)", "B (s)", "err"
    ));
    let mut errs = Vec::new();
    for (&(p, ta), &(_, tb)) in a.points.iter().zip(&b.points) {
        let err = (ta - tb).abs() / ta;
        errs.push(err);
        out.push_str(&format!(
            "{p:>8} {ta:>14.3} {tb:>14.3} {:>7.1}%\n",
            err * 100.0
        ));
    }
    let max = errs.iter().copied().fold(0.0, f64::max);
    let mean = errs.iter().sum::<f64>() / errs.len() as f64;
    out.push_str(&format!(
        "A = {}, B = {}; max error {:.1}%, mean {:.1}%\n",
        a.name,
        b.name,
        max * 100.0,
        mean * 100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_efficiency_starts_at_one() {
        let s = Series {
            name: "x".into(),
            points: vec![(100, 10.0), (200, 6.0)],
        };
        let pe = s.parallel_efficiency();
        assert!((pe[0].1 - 1.0).abs() < 1e-12);
        assert!((pe[1].1 - 10.0 * 100.0 / (6.0 * 200.0)).abs() < 1e-12);
        let sp = s.speedup();
        assert!((sp[1].1 - 10.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn median_takes_the_upper_middle_and_floors_at_a_nanosecond() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 3.0);
        assert_eq!(median(vec![0.0]), 1e-9);
    }

    #[test]
    fn comparison_table_formats() {
        let a = Series {
            name: "a".into(),
            points: vec![(128, 10.0), (256, 5.0)],
        };
        let b = Series {
            name: "b".into(),
            points: vec![(128, 11.0), (256, 5.5)],
        };
        let t = comparison_table(&a, &b);
        assert!(t.contains("max error 10.0%"));
    }
}
