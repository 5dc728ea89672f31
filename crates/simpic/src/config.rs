//! SIMPIC test-case configuration (the Fig 3 calibration table).

/// Configuration of one SIMPIC instance.
#[derive(Debug, Clone, PartialEq)]
pub struct SimpicConfig {
    /// Grid cells across the 1-D domain.
    pub cells: usize,
    /// Particles per cell.
    pub particles_per_cell: usize,
    /// SIMPIC timesteps for the full run.
    pub timesteps: usize,
    /// Pressure-solver timesteps this run is equivalent to (Fig 3 cases
    /// were calibrated against 10-step pressure-solver runs).
    pub pressure_steps_equiv: f64,
    /// Pressure-solver mesh size (cells) this configuration proxies.
    pub represents_cells: f64,
    /// Domain length (functional runs).
    pub length: f64,
    /// Timestep as a fraction of the plasma period (functional runs).
    pub dt_fraction: f64,
}

impl SimpicConfig {
    fn base(cells: usize, ppc: usize, steps: usize, represents: f64) -> SimpicConfig {
        SimpicConfig {
            cells,
            particles_per_cell: ppc,
            timesteps: steps,
            pressure_steps_equiv: 10.0,
            represents_cells: represents,
            length: 1.0,
            dt_fraction: 0.05,
        }
    }

    /// Base-STC proxy of the 28M-cell single-sector swirl combustor.
    pub fn base_28m() -> SimpicConfig {
        Self::base(512_000, 100, 50_000, 28.0e6)
    }

    /// Base-STC proxy of the 84M-cell triple-sector swirl combustor.
    pub fn base_84m() -> SimpicConfig {
        Self::base(512_000, 300, 50_000, 84.0e6)
    }

    /// Base-STC proxy of the full-scale ~380M-cell combustor.
    pub fn base_380m() -> SimpicConfig {
        Self::base(512_000, 1_800, 50_000, 380.0e6)
    }

    /// Optimized-STC: matches the theoretically-optimized pressure
    /// solver (§IV-C: 1.18M cells, 60,000 ppc, 450 timesteps). The
    /// pressure-step equivalence is calibrated (as §IV-C does by
    /// construction) so the configuration reproduces the optimized
    /// pressure solver's runtime over the production-relevant rank
    /// range (≈4k–32k cores).
    pub fn optimized_stc() -> SimpicConfig {
        SimpicConfig {
            pressure_steps_equiv: 14.15,
            ..Self::base(1_180_000, 60_000, 450, 380.0e6)
        }
    }

    /// Total particle count.
    pub fn total_particles(&self) -> f64 {
        self.cells as f64 * self.particles_per_cell as f64
    }

    /// SIMPIC timesteps per equivalent pressure-solver timestep.
    pub fn steps_per_pressure_step(&self) -> f64 {
        self.timesteps as f64 / self.pressure_steps_equiv
    }

    /// A laptop-scale functional variant preserving the ppc ratio.
    pub fn functional(&self, cells: usize, steps: usize) -> SimpicConfig {
        SimpicConfig {
            cells,
            timesteps: steps,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_table_values() {
        let c28 = SimpicConfig::base_28m();
        assert_eq!(
            (c28.cells, c28.particles_per_cell, c28.timesteps),
            (512_000, 100, 50_000)
        );
        let c84 = SimpicConfig::base_84m();
        assert_eq!(c84.particles_per_cell, 300);
        let c380 = SimpicConfig::base_380m();
        assert_eq!(c380.particles_per_cell, 1_800);
        let opt = SimpicConfig::optimized_stc();
        assert_eq!(
            (opt.cells, opt.particles_per_cell, opt.timesteps),
            (1_180_000, 60_000, 450)
        );
    }

    #[test]
    fn particle_counts() {
        assert_eq!(SimpicConfig::base_28m().total_particles(), 51.2e6);
        assert_eq!(SimpicConfig::base_380m().total_particles(), 921.6e6);
    }

    #[test]
    fn functional_preserves_ppc() {
        let f = SimpicConfig::base_84m().functional(256, 100);
        assert_eq!(f.cells, 256);
        assert_eq!(f.particles_per_cell, 300);
        assert_eq!(f.timesteps, 100);
    }
}
