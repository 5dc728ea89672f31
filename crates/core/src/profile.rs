//! Fig-5-style phase profiles.
//!
//! A [`PhaseProfile`] turns a replay's per-phase
//! [`PhaseBreakdown`] into the
//! percentage table the paper's Fig 5 presents: aggregate rank-seconds
//! of compute and communication per phase, with each phase's share of
//! the total. Two canonical profiles:
//!
//! * [`PhaseProfile::pressure_fig5`] — the pressure solver's transport /
//!   pressure-field / spray split, with the pressure-field solve broken
//!   into its AMG sub-phases (smoothing SpMV, coarse levels, CG
//!   reductions);
//! * [`PhaseProfile::coupled`] — per-app and per-CU-stage attribution of
//!   a coupled run traced by [`crate::sim::trace_coupled`].

use cpx_machine::des::PhaseBreakdown;
use cpx_machine::Machine;
use cpx_pressure::{PressureConfig, PressurePhase, PressureTraceModel};

use crate::instance::Scenario;

/// One phase's aggregate cost (rank-seconds summed over ranks).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    /// Phase name.
    pub name: String,
    /// Total compute seconds across ranks.
    pub compute: f64,
    /// Total communication-wait seconds across ranks.
    pub comm: f64,
}

impl PhaseRow {
    /// Compute + comm.
    pub fn total(&self) -> f64 {
        self.compute + self.comm
    }
}

/// A percentage phase breakdown (Fig-5 style).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseProfile {
    /// Table caption.
    pub title: String,
    /// Rows, in phase-id order; phases with zero time are dropped.
    pub rows: Vec<PhaseRow>,
}

impl PhaseProfile {
    /// Profile from a replay's phase breakdown: one row per phase id,
    /// named by `names` (ids beyond the table fall back to `phase N`).
    /// Phases that carried no time are dropped.
    pub fn from_breakdown(
        title: impl Into<String>,
        names: &[&str],
        breakdown: &PhaseBreakdown,
    ) -> PhaseProfile {
        let n = breakdown.compute.len();
        let rows = (0..n)
            .map(|id| PhaseRow {
                name: names
                    .get(id)
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| format!("phase {id}")),
                compute: breakdown.total_compute(id),
                comm: breakdown.total_comm(id),
            })
            .filter(|r| r.total() > 0.0)
            .collect();
        PhaseProfile {
            title: title.into(),
            rows,
        }
    }

    /// The paper's Fig 5a: phase shares of `steps` timesteps of the
    /// pressure solver at `p` ranks, with the pressure-field solve split
    /// into its AMG sub-phases. The replay's one-off AMG setup is not
    /// part of a step, so it has no row and no part in the total.
    pub fn pressure_fig5(
        config: PressureConfig,
        p: usize,
        machine: &Machine,
        steps: u32,
    ) -> PhaseProfile {
        let model = PressureTraceModel::new(config);
        let (_, _, breakdown) = model.profile_detailed(p, machine, steps);
        let names = cpx_pressure::trace::detailed_phase_names();
        let mut profile = PhaseProfile::from_breakdown(
            format!("Pressure-solver phase shares at {p} ranks"),
            &names,
            &breakdown,
        );
        profile
            .rows
            .retain(|r| r.name != PressurePhase::Setup.name());
        profile
    }

    /// Per-app / per-CU-stage breakdown of a coupled run, from the
    /// phase table and breakdown returned by
    /// [`crate::sim::trace_coupled`].
    pub fn coupled(
        scenario: &Scenario,
        names: &[String],
        breakdown: &PhaseBreakdown,
    ) -> PhaseProfile {
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        PhaseProfile::from_breakdown(
            format!("Coupled phase breakdown: {}", scenario.name),
            &refs,
            breakdown,
        )
    }

    /// Total rank-seconds across all rows.
    pub fn total(&self) -> f64 {
        self.rows.iter().map(PhaseRow::total).sum()
    }

    /// Each row's percentage share of [`PhaseProfile::total`]; sums to
    /// 100 up to float rounding.
    pub fn shares(&self) -> Vec<f64> {
        let total = self.total().max(f64::MIN_POSITIVE);
        self.rows
            .iter()
            .map(|r| r.total() / total * 100.0)
            .collect()
    }

    /// Render as a markdown table with a closing totals row.
    pub fn to_markdown(&self) -> String {
        let mut out = format!(
            "## {}\n\n| phase | compute (rank-s) | comm (rank-s) | share |\n|---|---|---|---|\n",
            self.title
        );
        let shares = self.shares();
        for (row, share) in self.rows.iter().zip(&shares) {
            out.push_str(&format!(
                "| {} | {:.2} | {:.2} | {:.1}% |\n",
                row.name, row.compute, row.comm, share
            ));
        }
        let compute: f64 = self.rows.iter().map(|r| r.compute).sum();
        let comm: f64 = self.rows.iter().map(|r| r.comm).sum();
        out.push_str(&format!(
            "| **total** | {:.2} | {:.2} | {:.1}% |\n",
            compute,
            comm,
            shares.iter().sum::<f64>()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpx_pressure::PfSubPhase;

    fn fig5() -> PhaseProfile {
        PhaseProfile::pressure_fig5(PressureConfig::swirl_28m(), 256, &Machine::archer2(), 2)
    }

    #[test]
    fn fig5_shares_sum_to_100_and_show_amg_and_spray() {
        let profile = fig5();
        let sum: f64 = profile.shares().iter().sum();
        assert!((sum - 100.0).abs() < 0.1, "shares sum to {sum}");
        let names: Vec<&str> = profile.rows.iter().map(|r| r.name.as_str()).collect();
        assert!(
            names.iter().any(|n| n.contains("amg smoothing")),
            "{names:?}"
        );
        assert!(names.iter().any(|n| n.contains("amg coarse levels")));
        assert!(names.iter().any(|n| n.contains("cg reductions")));
        assert!(names.iter().any(|n| n.contains("spray")));
    }

    #[test]
    fn fig5_markdown_renders_every_row() {
        let profile = fig5();
        let md = profile.to_markdown();
        for row in &profile.rows {
            assert!(md.contains(&row.name), "missing row {}", row.name);
        }
        assert!(md.contains("| **total** |"));
        assert!(md.contains("100.0% |"));
    }

    #[test]
    fn fig5_shares_match_the_fig5a_formula() {
        // `figures fig5a` divides each phase's rank-seconds by the ranks
        // and the span of the sampled steps; the profile's shares must
        // agree once the pressure field's sub-phases are summed.
        let (p, steps) = (256, 2);
        let m = Machine::archer2();
        let (step, _, ph) =
            PressureTraceModel::new(PressureConfig::swirl_28m()).profile(p, &m, steps);
        let profile = fig5();
        let shares = profile.shares();
        let share_of = |names: &[&str]| -> f64 {
            profile
                .rows
                .iter()
                .zip(&shares)
                .filter(|(r, _)| names.contains(&r.name.as_str()))
                .map(|(_, s)| s)
                .sum()
        };
        assert!(
            profile
                .rows
                .iter()
                .all(|r| r.name != PressurePhase::Setup.name()),
            "setup is not part of a step"
        );
        for phase in PressurePhase::ALL {
            if phase == PressurePhase::Setup {
                continue;
            }
            let id = phase.id() as usize;
            let rank_s = ph.total_compute(id) + ph.total_comm(id);
            let want = rank_s / p as f64 / (step * steps as f64) * 100.0;
            let mut names = vec![phase.name()];
            if phase == PressurePhase::PressureField {
                names.extend(PfSubPhase::ALL.iter().map(|s| s.name()));
            }
            let got = share_of(&names);
            assert!(
                (got - want).abs() < 0.05,
                "{}: profile {got:.3}% vs fig5a {want:.3}%",
                phase.name()
            );
        }
    }

    #[test]
    fn zero_phases_are_dropped() {
        let breakdown = PhaseBreakdown {
            compute: vec![vec![0.0, 0.0], vec![1.0, 2.0]],
            comm: vec![vec![0.0, 0.0], vec![0.5, 0.5]],
        };
        let p = PhaseProfile::from_breakdown("t", &["idle", "busy"], &breakdown);
        assert_eq!(p.rows.len(), 1);
        assert_eq!(p.rows[0].name, "busy");
        assert_eq!(p.rows[0].compute, 3.0);
        assert_eq!(p.rows[0].comm, 1.0);
        assert_eq!(p.shares(), vec![100.0]);
    }
}
