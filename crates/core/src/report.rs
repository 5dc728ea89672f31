//! Study reports.
//!
//! Renders a coupled study (scenario + allocation + measured run) as a
//! self-contained Markdown document — the artifact a run on a real
//! machine would archive next to its job logs. Used by the examples and
//! handy for diffing studies across calibrations.

use cpx_perfmodel::{Allocation, ValidationReport};

use crate::instance::Scenario;
use crate::profile::PhaseProfile;
use crate::sim::CoupledRun;

/// Incremental markdown report builder.
///
/// A report is a `#` title followed by blocks — preamble bullets, `##`
/// sections, tables — separated by single blank lines. Lines appended
/// with [`Report::line`] (and the bullet/table helpers built on it) are
/// `\n`-terminated; [`Report::finish`] joins the blocks, so inter-section
/// spacing is uniform no matter which optional sections a given study
/// includes.
#[derive(Debug, Default)]
pub struct Report {
    blocks: Vec<String>,
}

impl Report {
    /// New report titled `# {title}`, with an open untitled block ready
    /// for preamble lines.
    pub fn titled(title: impl std::fmt::Display) -> Report {
        Report {
            blocks: vec![format!("# {title}\n"), String::new()],
        }
    }

    fn current(&mut self) -> &mut String {
        if self.blocks.is_empty() {
            self.blocks.push(String::new());
        }
        self.blocks.last_mut().expect("just ensured non-empty")
    }

    /// Start a `## {title}` section; subsequent lines land inside it.
    pub fn section(&mut self, title: &str) -> &mut Report {
        self.blocks.push(format!("## {title}\n\n"));
        self
    }

    /// Append one `\n`-terminated line to the current block.
    pub fn line(&mut self, text: impl AsRef<str>) -> &mut Report {
        let block = self.current();
        block.push_str(text.as_ref());
        block.push('\n');
        self
    }

    /// Append a `- ` bullet line.
    pub fn bullet(&mut self, text: impl AsRef<str>) -> &mut Report {
        self.line(format!("- {}", text.as_ref()))
    }

    /// Append a table header: the column row plus its `|---|` rule.
    pub fn table_header(&mut self, cols: &[&str]) -> &mut Report {
        self.line(format!("| {} |", cols.join(" | ")));
        self.line(format!("|{}|", vec!["---"; cols.len()].join("|")))
    }

    /// Append one table row.
    pub fn table_row(&mut self, cells: &[String]) -> &mut Report {
        self.line(format!("| {} |", cells.join(" | ")))
    }

    /// Append a pre-rendered block (its own heading included); must end
    /// with a newline.
    pub fn block(&mut self, text: impl Into<String>) -> &mut Report {
        self.blocks.push(text.into());
        self
    }

    /// Render the report, separating blocks with blank lines.
    pub fn finish(self) -> String {
        let blocks: Vec<&str> = self
            .blocks
            .iter()
            .map(String::as_str)
            .filter(|b| !b.is_empty())
            .collect();
        blocks.join("\n")
    }
}

/// Append a "Critical path" section rendering a
/// [`cpx_obs::PathReport`]: path composition (compute vs communication
/// seconds, coverage sanity figure), the per-phase breakdown of where
/// the binding chain spends its time, and the longest blamed spans.
pub fn critical_path_section<'a>(r: &'a mut Report, rep: &cpx_obs::PathReport) -> &'a mut Report {
    r.section("Critical path");
    r.bullet(format!(
        "makespan **{:.4} s**; path compute {:.4} s, communication {:.4} s \
         ({} segments, coverage {:.6})",
        rep.makespan, rep.compute_s, rep.comm_s, rep.segments, rep.coverage
    ));
    r.table_header(&["phase", "path s", "share %"]);
    for (name, secs, pct) in &rep.by_phase {
        r.table_row(&[name.clone(), format!("{secs:.4}"), format!("{pct:.2}")]);
    }
    if !rep.top_spans.is_empty() {
        r.section("Longest blamed spans");
        r.table_header(&["rank", "phase", "label", "class", "t0 (s)", "dur (s)"]);
        for b in &rep.top_spans {
            r.table_row(&[
                b.rank.to_string(),
                b.phase.clone(),
                b.label.clone(),
                match b.class {
                    cpx_obs::SegClass::Compute => "compute".to_string(),
                    cpx_obs::SegClass::Comm => "comm".to_string(),
                },
                format!("{:.4}", b.t0),
                format!("{:.4}", b.dur),
            ]);
        }
    }
    r
}

/// Render a full study report.
pub fn markdown_report(scenario: &Scenario, alloc: &Allocation, run: &CoupledRun) -> String {
    markdown_report_with(scenario, alloc, run, None)
}

/// Render a full study report, optionally with a Fig-5-style phase
/// profile section appended.
pub fn markdown_report_with(
    scenario: &Scenario,
    alloc: &Allocation,
    run: &CoupledRun,
    profile: Option<&PhaseProfile>,
) -> String {
    let mut r = Report::titled(format!("Coupled study: {}", scenario.name));
    r.bullet(format!(
        "effective size: **{:.2} Bn cells** across {} instances, {} coupler units",
        scenario.total_cells() / 1e9,
        scenario.apps.len(),
        scenario.cus.len()
    ));
    r.bullet(format!(
        "window: **{} density iterations** ({} sampled on the testbed)",
        scenario.density_iters, run.sample_iters
    ));
    r.bullet(format!(
        "world: **{} ranks** allocated ({} to coupler units)",
        alloc.total_ranks(),
        alloc.cu_ranks.iter().sum::<usize>()
    ));

    r.section("Instances");
    r.table_header(&[
        "#",
        "instance",
        "cells",
        "ranks",
        "predicted (s)",
        "measured (s)",
        "error",
    ]);
    for (i, app) in scenario.apps.iter().enumerate() {
        let predicted = alloc.app_times[i];
        let measured = run.app_runtimes[i];
        let err = (predicted - measured).abs() / measured.max(f64::MIN_POSITIVE);
        r.table_row(&[
            format!("{}", i + 1),
            app.name.clone(),
            format!("{:.0}M", app.cells / 1e6),
            format!("{}", alloc.app_ranks[i]),
            format!("{predicted:.1}"),
            format!("{measured:.1}"),
            format!("{:.1}%", err * 100.0),
        ]);
    }

    r.section("Coupler units");
    r.table_header(&["unit", "ranks", "predicted (s)"]);
    for (i, cu) in scenario.cus.iter().enumerate() {
        r.table_row(&[
            cu.name.clone(),
            format!("{}", alloc.cu_ranks[i]),
            format!("{:.2}", alloc.cu_times[i]),
        ]);
    }

    let predicted_total = alloc.predicted_runtime();
    let err =
        (predicted_total - run.total_runtime).abs() / run.total_runtime.max(f64::MIN_POSITIVE);
    r.section("Totals");
    r.bullet(format!("predicted runtime: **{predicted_total:.1} s**"));
    r.bullet(format!(
        "measured runtime: **{:.1} s** (error {:.1}%)",
        run.total_runtime,
        err * 100.0
    ));
    r.bullet(format!(
        "coupling overhead: **{:.2}%**",
        run.coupling_overhead * 100.0
    ));
    r.bullet(format!(
        "bottleneck: **{}**",
        scenario.apps[alloc.bottleneck_app()].name
    ));

    if run.faults_survived > 0 {
        r.section("Resilience");
        r.bullet(format!("faults survived: **{}**", run.faults_survived));
        r.bullet(format!(
            "recovery overhead: **{:.1} s** ({:.1}% of runtime)",
            run.recovery_overhead,
            run.recovery_overhead / run.total_runtime.max(f64::MIN_POSITIVE) * 100.0
        ));
        r.bullet(format!("checkpoint cost: **{:.1} s**", run.checkpoint_cost));
        r.bullet(format!("stale CU exchanges: **{}**", run.stale_exchanges));
        if let Some(fault) = &scenario.fault {
            if fault.crash_time.is_finite() {
                r.bullet(format!(
                    "injected: rank crash in **{}** at t={:.1} s, checkpoints every {} iterations",
                    scenario.apps[fault.crash_app].name,
                    fault.crash_time,
                    fault.checkpoint_interval
                ));
            }
        }
    }

    if run.sdc_detected > 0 || run.abft_overhead > 0.0 {
        r.section("Silent data corruption");
        r.bullet(format!(
            "corruptions detected: **{}** (recovered: {})",
            run.sdc_detected, run.sdc_recovered
        ));
        r.bullet(format!(
            "ABFT/invariant detector overhead: **{:.1} s** ({:.2}% of runtime)",
            run.abft_overhead,
            run.abft_overhead / run.total_runtime.max(f64::MIN_POSITIVE) * 100.0
        ));
        if let Some(fault) = &scenario.fault {
            r.bullet(format!("recovery policy: **{}**", fault.sdc_policy));
            for ev in &fault.sdc_events {
                if ev.iter < scenario.density_iters {
                    r.bullet(format!(
                        "injected: {} corruption at iteration {} (caught by {})",
                        ev.site,
                        ev.iter,
                        ev.site.detector()
                    ));
                }
            }
        }
    }

    if let Some(profile) = profile {
        r.block(profile.to_markdown());
    }
    r.finish()
}

/// Render a predicted-vs-measured validation report (the Fig-9a check)
/// as a standalone markdown document: one row per kernel with in-sample
/// MAPE, signed bias and the holdout-extrapolation error, then the
/// coupled lane.
pub fn validation_markdown(v: &ValidationReport) -> String {
    let mut r = Report::titled("Model validation: predicted vs measured");
    r.bullet(format!(
        "kernels validated: **{}** (mean MAPE {:.2}%)",
        v.kernels.len(),
        v.overall_kernel_mape()
    ));
    if let Some(worst) = v.worst_kernel() {
        r.bullet(format!(
            "hardest to predict: **{}** (MAPE {:.2}%)",
            worst.name,
            worst.mape()
        ));
    }

    if !v.kernels.is_empty() {
        r.section("Kernel thread-scaling predictions");
        r.table_header(&["kernel", "points", "MAPE", "signed bias", "holdout error"]);
        for k in &v.kernels {
            r.table_row(&[
                k.name.clone(),
                format!("{}", k.pairs.len()),
                format!("{:.2}%", k.mape()),
                format!("{:+.2}%", k.signed_bias()),
                match &k.holdout {
                    Some(h) => format!("{:+.2}% at {} threads", h.signed_pe(), h.threads),
                    None => "n/a".to_string(),
                },
            ]);
        }
    }

    if !v.coupled.is_empty() {
        r.section("Coupled-run predictions (Alg 1)");
        r.table_header(&["case", "predicted (s)", "measured (s)", "error"]);
        for p in &v.coupled {
            r.table_row(&[
                p.label.clone(),
                format!("{:.3}", p.predicted),
                format!("{:.3}", p.measured),
                format!("{:+.2}%", p.signed_pe()),
            ]);
        }
        r.bullet(format!("coupled MAPE: **{:.2}%**", v.coupled_mape()));
    }
    r.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::StcVariant;
    use crate::model::{allocate_scenario, build_models_with_grid};
    use crate::sim::run_coupled_with;
    use crate::testcases;
    use cpx_machine::Machine;

    #[test]
    fn report_contains_every_instance_and_totals() {
        let scenario = testcases::small_150m_28m(StcVariant::Base);
        let machine = Machine::archer2();
        let models = build_models_with_grid(&scenario, &machine, 20.0, &[100, 400, 1600]);
        let alloc = allocate_scenario(&models, 1200);
        let run = run_coupled_with(&scenario, &alloc, &machine, 20, None);
        let md = markdown_report(&scenario, &alloc, &run);
        for app in &scenario.apps {
            assert!(md.contains(&app.name), "missing {}", app.name);
        }
        for cu in &scenario.cus {
            assert!(md.contains(&cu.name));
        }
        assert!(md.contains("predicted runtime"));
        assert!(md.contains("coupling overhead"));
        assert!(md.contains("bottleneck"));
        assert!(!md.contains("Resilience"), "clean run has no fault section");
        // It is a plausible markdown table.
        assert!(md.matches('|').count() > 20);
    }

    #[test]
    fn report_includes_resilience_section_for_faulty_run() {
        use crate::instance::FaultScenario;

        let scenario = testcases::small_150m_28m(StcVariant::Base);
        let machine = Machine::archer2();
        let models = build_models_with_grid(&scenario, &machine, 20.0, &[100, 400, 1600]);
        let alloc = allocate_scenario(&models, 1200);
        let clean = run_coupled_with(&scenario, &alloc, &machine, 20, None);
        let scenario = scenario.with_fault(
            FaultScenario::crash(0, clean.total_runtime * 0.5).with_checkpoint_interval(10),
        );
        let run = run_coupled_with(&scenario, &alloc, &machine, 20, None);
        let md = markdown_report(&scenario, &alloc, &run);
        assert!(md.contains("## Resilience"));
        assert!(md.contains("faults survived: **1**"));
        assert!(md.contains("recovery overhead"));
        assert!(md.contains("checkpoints every 10 iterations"));
        assert!(
            !md.contains("Silent data corruption"),
            "crash-only run has no SDC section"
        );
    }

    #[test]
    fn report_includes_sdc_section_for_corruption_study() {
        use crate::sdc::{SdcInjection, SdcPolicy, SdcSite};

        let scenario = testcases::small_150m_28m(StcVariant::Base);
        let machine = Machine::archer2();
        let models = build_models_with_grid(&scenario, &machine, 20.0, &[100, 400, 1600]);
        let alloc = allocate_scenario(&models, 1200);
        let scenario = scenario.with_fault(
            crate::instance::FaultScenario::sdc_only(vec![
                SdcInjection::at(12, SdcSite::SparseKernel),
                SdcInjection::at(40, SdcSite::PhysicsInvariant),
            ])
            .with_sdc_policy(SdcPolicy::Recompute),
        );
        let run = run_coupled_with(&scenario, &alloc, &machine, 20, None);
        let md = markdown_report(&scenario, &alloc, &run);
        assert!(md.contains("## Silent data corruption"));
        assert!(md.contains("corruptions detected: **2**"));
        assert!(md.contains("recovery policy: **recompute**"));
        assert!(md.contains("ABFT checksum"));
        assert!(md.contains("physics invariant guard"));
        assert!(md.contains("detector overhead"));
    }

    #[test]
    fn builder_renders_sections_with_uniform_spacing() {
        let mut r = Report::titled("Study");
        r.bullet("one");
        r.section("Table");
        r.table_header(&["a", "b"]);
        r.table_row(&["1".into(), "2".into()]);
        r.section("Notes");
        r.bullet("fine");
        let md = r.finish();
        assert_eq!(
            md,
            "# Study\n\n- one\n\n## Table\n\n| a | b |\n|---|---|\n| 1 | 2 |\n\n## Notes\n\n- fine\n"
        );
    }

    #[test]
    fn validation_markdown_lists_kernels_and_coupled_lane() {
        use cpx_perfmodel::{KernelValidation, MeasuredScaling, PredictionPair};

        let v = ValidationReport {
            kernels: vec![KernelValidation::from_scaling(&MeasuredScaling::new(
                "spmv",
                vec![(1, 1.0), (2, 0.52), (4, 0.28), (8, 0.16)],
            ))],
            coupled: vec![PredictionPair::new("base_28m", 64, 2.0, 2.1)],
        };
        let md = validation_markdown(&v);
        assert!(md.starts_with("# Model validation"));
        assert!(md.contains("## Kernel thread-scaling predictions"));
        assert!(md.contains("| spmv | 4 |"));
        assert!(md.contains("holdout"));
        assert!(md.contains("## Coupled-run predictions"));
        assert!(md.contains("base_28m"));
        assert!(md.contains("coupled MAPE"));
    }

    #[test]
    fn report_with_profile_appends_phase_table() {
        use cpx_machine::des::PhaseBreakdown;

        let scenario = testcases::small_150m_28m(StcVariant::Base);
        let machine = Machine::archer2();
        let models = build_models_with_grid(&scenario, &machine, 20.0, &[100, 400, 1600]);
        let alloc = allocate_scenario(&models, 1200);
        let run = run_coupled_with(&scenario, &alloc, &machine, 20, None);
        let breakdown = PhaseBreakdown {
            compute: vec![vec![3.0], vec![1.0]],
            comm: vec![vec![0.0], vec![1.0]],
        };
        let profile = PhaseProfile::from_breakdown("Demo profile", &["a", "b"], &breakdown);
        let plain = markdown_report(&scenario, &alloc, &run);
        let with = markdown_report_with(&scenario, &alloc, &run, Some(&profile));
        assert!(with.starts_with(&plain));
        assert!(with.contains("## Demo profile"));
        assert!(with.contains("| **total** |"));
    }
}
