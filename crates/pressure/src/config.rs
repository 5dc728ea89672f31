//! Pressure-solver test-case configuration.

/// Base (as-profiled) or optimized (§IV) code variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PressureVariant {
    /// The production code as profiled: spatially-partitioned spray,
    /// baseline AMG.
    Base,
    /// §IV optimizations applied: asynchronous task-based spray
    /// (load-balanced, overlapped — modelled as perfectly scaling, per
    /// §IV-C) and a 5× faster pressure field (hybrid-GS smoothing,
    /// extended+i interpolation, SpGEMM/SpMV optimizations).
    Optimized,
    /// §V-C's pessimistic sensitivity case: the spray optimization
    /// lands, but the pressure-field runtime improves by only 30% and
    /// its parallel efficiency does not improve at all.
    WorstCase,
}

/// Configuration of one pressure-solver case.
#[derive(Debug, Clone, PartialEq)]
pub struct PressureConfig {
    /// Mesh cells.
    pub cells: f64,
    /// Lagrangian spray particles (the paper's cases carry one particle
    /// per four cells: 28M/7M, 84M/21M).
    pub particles: f64,
    /// Timesteps to run.
    pub timesteps: usize,
    /// Code variant.
    pub variant: PressureVariant,
}

impl PressureConfig {
    fn case(cells: f64, timesteps: usize) -> PressureConfig {
        PressureConfig {
            cells,
            particles: cells / 4.0,
            timesteps,
            variant: PressureVariant::Base,
        }
    }

    /// The 28M-cell single-sector swirl combustor (7M particles),
    /// profiled for 10 timesteps (§III).
    pub fn swirl_28m() -> PressureConfig {
        Self::case(28.0e6, 10)
    }

    /// The 84M-cell triple-sector swirl case (21M particles).
    pub fn swirl_84m() -> PressureConfig {
        Self::case(84.0e6, 10)
    }

    /// The ~380M-cell full-scale combustor of the large test case.
    pub fn full_380m() -> PressureConfig {
        Self::case(380.0e6, 10)
    }

    /// Switch to the optimized variant.
    pub fn optimized(mut self) -> PressureConfig {
        self.variant = PressureVariant::Optimized;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_match_paper() {
        let c = PressureConfig::swirl_28m();
        assert_eq!(c.cells, 28.0e6);
        assert_eq!(c.particles, 7.0e6);
        assert_eq!(c.timesteps, 10);
        assert_eq!(PressureConfig::swirl_84m().particles, 21.0e6);
        assert_eq!(PressureConfig::full_380m().cells, 380.0e6);
    }

    #[test]
    fn variant_switch() {
        let c = PressureConfig::swirl_28m().optimized();
        assert_eq!(c.variant, PressureVariant::Optimized);
    }
}
