//! Predicted-vs-measured validation.
//!
//! The model chapter of the paper closes its loop by checking the
//! Algorithm-1 predictions against measured coupled runs (Fig 9a). This
//! module is that check for the whole workspace: it pairs
//! [`RuntimeCurve`](crate::RuntimeCurve) / [`MeasuredScaling`] predictions with measured
//! kernel and coupled timings and reduces them to two honest numbers
//! per kernel —
//!
//! * **MAPE** (mean absolute percentage error): how far off the
//!   predictions are, sign ignored;
//! * **signed bias**: whether the model systematically over-predicts
//!   (positive) or under-predicts (negative).
//!
//! Two validation lanes are reported per kernel. The *in-sample* lane
//! fits the four-term curve to every measured point and predicts those
//! same points — a fit-quality floor. The *holdout* lane refits with
//! the widest thread count held out and predicts it — the honest
//! extrapolation test, since "predict the configuration you could not
//! afford to measure" is exactly how the model is used. The
//! `validation_study` binary serialises a [`ValidationReport`] into
//! `BENCH_validation.json` and gates CI on MAPE regressions.

use serde::{Deserialize, Serialize};

use crate::measured::MeasuredScaling;

/// One prediction joined with its measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictionPair {
    /// What was predicted (e.g. `"8 threads"` or a coupled case name).
    pub label: String,
    /// Thread/rank count the prediction is for (0 when not applicable).
    pub threads: usize,
    /// Model-predicted seconds.
    pub predicted: f64,
    /// Measured seconds.
    pub measured: f64,
}

impl PredictionPair {
    /// Construct; `measured` must be positive (it is the denominator of
    /// every percentage below).
    pub fn new(label: &str, threads: usize, predicted: f64, measured: f64) -> PredictionPair {
        assert!(measured > 0.0, "measured time must be positive");
        PredictionPair {
            label: label.to_string(),
            threads,
            predicted,
            measured,
        }
    }

    /// Absolute percentage error of the prediction.
    pub fn ape(&self) -> f64 {
        100.0 * (self.predicted - self.measured).abs() / self.measured
    }

    /// Signed percentage error (positive = over-prediction).
    pub fn signed_pe(&self) -> f64 {
        100.0 * (self.predicted - self.measured) / self.measured
    }
}

/// Mean absolute percentage error over a set of pairs (0 for empty).
pub fn mape(pairs: &[PredictionPair]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    pairs.iter().map(PredictionPair::ape).sum::<f64>() / pairs.len() as f64
}

/// Mean signed percentage error over a set of pairs (0 for empty).
pub fn signed_bias(pairs: &[PredictionPair]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    pairs.iter().map(PredictionPair::signed_pe).sum::<f64>() / pairs.len() as f64
}

/// Predicted-vs-measured summary for one kernel's thread scaling.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelValidation {
    /// Kernel name.
    pub name: String,
    /// In-sample pairs: curve fitted to all samples, predicting each.
    pub pairs: Vec<PredictionPair>,
    /// Holdout pair: curve refitted without the widest thread count,
    /// predicting it. `None` with fewer than three samples (the refit
    /// would be under-determined).
    pub holdout: Option<PredictionPair>,
}

impl KernelValidation {
    /// Validate one kernel's measured scaling against the four-term
    /// model it feeds.
    pub fn from_scaling(m: &MeasuredScaling) -> KernelValidation {
        let fit = m.fit_curve();
        let pairs = m
            .samples
            .iter()
            .map(|&(p, t)| PredictionPair::new(&format!("{p} threads"), p, fit.predict(p), t))
            .collect();
        let holdout = if m.samples.len() >= 3 {
            let (held, rest) = m.samples.split_last().expect("nonempty");
            let refit = crate::RuntimeCurve::fit(rest);
            Some(PredictionPair::new(
                &format!("{} threads (holdout)", held.0),
                held.0,
                refit.predict(held.0),
                held.1,
            ))
        } else {
            None
        };
        KernelValidation {
            name: m.name.clone(),
            pairs,
            holdout,
        }
    }

    /// In-sample mean absolute percentage error.
    pub fn mape(&self) -> f64 {
        mape(&self.pairs)
    }

    /// In-sample mean signed percentage error.
    pub fn signed_bias(&self) -> f64 {
        signed_bias(&self.pairs)
    }
}

/// The whole run's validation: every kernel plus the coupled lane.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ValidationReport {
    /// Per-kernel thread-scaling validations.
    pub kernels: Vec<KernelValidation>,
    /// Coupled-run pairs (Alg-1 predicted makespan vs measured).
    pub coupled: Vec<PredictionPair>,
}

impl ValidationReport {
    /// Mean of the per-kernel MAPEs (0 when no kernels).
    pub fn overall_kernel_mape(&self) -> f64 {
        if self.kernels.is_empty() {
            return 0.0;
        }
        self.kernels.iter().map(KernelValidation::mape).sum::<f64>() / self.kernels.len() as f64
    }

    /// The kernel the model predicts worst, by in-sample MAPE.
    pub fn worst_kernel(&self) -> Option<&KernelValidation> {
        self.kernels
            .iter()
            .max_by(|a, b| a.mape().total_cmp(&b.mape()))
    }

    /// MAPE over the coupled lane.
    pub fn coupled_mape(&self) -> f64 {
        mape(&self.coupled)
    }

    /// Compare against a committed baseline of `(kernel, mape_percent)`
    /// entries: returns one message per kernel whose MAPE exceeds its
    /// baseline by more than `tolerance_pp` percentage points. Kernels
    /// absent from the baseline are never flagged (new kernels seed
    /// their own baseline on the next commit).
    pub fn regressions(&self, baseline: &[(String, f64)], tolerance_pp: f64) -> Vec<String> {
        let mut out = Vec::new();
        for k in &self.kernels {
            if let Some((_, base)) = baseline.iter().find(|(name, _)| *name == k.name) {
                let now = k.mape();
                if now > base + tolerance_pp {
                    out.push(format!(
                        "{}: MAPE {:.2}% exceeds baseline {:.2}% by more than {:.2} pp",
                        k.name, now, base, tolerance_pp
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn near_ideal() -> MeasuredScaling {
        MeasuredScaling::new("spmv", vec![(1, 1.0), (2, 0.52), (4, 0.28), (8, 0.16)])
    }

    #[test]
    fn pair_errors() {
        let p = PredictionPair::new("4 threads", 4, 1.1, 1.0);
        assert!((p.ape() - 10.0).abs() < 1e-9);
        assert!((p.signed_pe() - 10.0).abs() < 1e-9);
        let u = PredictionPair::new("x", 2, 0.9, 1.0);
        assert!((u.signed_pe() + 10.0).abs() < 1e-9);
    }

    #[test]
    fn in_sample_mape_is_small_for_model_shaped_data() {
        let v = KernelValidation::from_scaling(&near_ideal());
        assert_eq!(v.pairs.len(), 4);
        assert!(v.mape() < 10.0, "mape {}", v.mape());
        assert!(v.signed_bias().abs() <= v.mape() + 1e-12);
    }

    #[test]
    fn holdout_predicts_widest_thread_count() {
        let v = KernelValidation::from_scaling(&near_ideal());
        let h = v.holdout.expect("4 samples give a holdout");
        assert_eq!(h.threads, 8);
        assert_eq!(h.measured, 0.16);
        // Near-ideal scaling extrapolates well.
        assert!(h.ape() < 30.0, "holdout ape {}", h.ape());
    }

    #[test]
    fn two_samples_have_no_holdout() {
        let m = MeasuredScaling::new("tiny", vec![(1, 1.0), (2, 0.6)]);
        assert!(KernelValidation::from_scaling(&m).holdout.is_none());
    }

    #[test]
    fn report_aggregates_and_finds_worst() {
        let good = KernelValidation::from_scaling(&near_ideal());
        // A kernel the model fits poorly: non-monotone measurements.
        let bad = KernelValidation::from_scaling(&MeasuredScaling::new(
            "jittery",
            vec![(1, 1.0), (2, 1.4), (4, 0.3), (8, 1.2)],
        ));
        let report = ValidationReport {
            kernels: vec![good.clone(), bad.clone()],
            coupled: vec![PredictionPair::new("base_28m", 8, 2.0, 2.2)],
        };
        assert!(bad.mape() > good.mape());
        assert_eq!(report.worst_kernel().unwrap().name, "jittery");
        let expected = (good.mape() + bad.mape()) / 2.0;
        assert!((report.overall_kernel_mape() - expected).abs() < 1e-12);
        assert!((report.coupled_mape() - 100.0 * 0.2 / 2.2).abs() < 1e-9);
    }

    #[test]
    fn regression_gate_flags_only_exceeded_baselines() {
        let v = KernelValidation::from_scaling(&near_ideal());
        let report = ValidationReport {
            kernels: vec![v.clone()],
            coupled: vec![],
        };
        // Generous baseline: no regression.
        let base = vec![("spmv".to_string(), v.mape() + 1.0)];
        assert!(report.regressions(&base, 0.5).is_empty());
        // Tight baseline: flagged (the fit is imperfect, so MAPE > 0).
        assert!(v.mape() > 0.0);
        let tight = vec![("spmv".to_string(), 0.0)];
        assert_eq!(report.regressions(&tight, v.mape() * 0.5).len(), 1);
        // Unknown kernels are never flagged.
        let other = vec![("spgemm".to_string(), 0.0)];
        assert!(report.regressions(&other, 0.5).is_empty());
    }

    #[test]
    fn empty_report_is_all_zeros() {
        let r = ValidationReport::default();
        assert_eq!(r.overall_kernel_mape(), 0.0);
        assert_eq!(r.coupled_mape(), 0.0);
        assert!(r.worst_kernel().is_none());
    }
}
