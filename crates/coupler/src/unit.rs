//! Coupler units.
//!
//! A [`CouplerUnit`] owns the two sides of one interface and the current
//! donor mapping between them. Sliding-plane units remap every step
//! (rotating side A by the row's Δθ); steady-state units map once at
//! construction. The functional `transfer` moves a field across the
//! interface; the scale model in [`crate::trace`] prices the same
//! operations for the virtual testbed.

use cpx_mesh::InterfaceMesh;

use crate::interp::{idw_stencils, Stencil};
use crate::search::PrefetchSearch;

/// Sliding-plane or steady-state behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitKind {
    /// Density–density: remap every step, small interface.
    SlidingPlane {
        /// Steps per full revolution of the rotating side.
        steps_per_rev: u32,
    },
    /// Density–pressure: map once, larger interface, exchange every
    /// `period` solver iterations.
    SteadyState {
        /// Exchange period in density-solver iterations.
        period: u32,
    },
}

/// One coupler unit between interface side A (donor) and side B
/// (target).
pub struct CouplerUnit {
    /// Behaviour.
    pub kind: UnitKind,
    /// Donor side.
    pub side_a: InterfaceMesh,
    /// Target side.
    pub side_b: InterfaceMesh,
    /// Current interpolation stencils (B target ← A donors).
    pub stencils: Vec<Stencil>,
    /// Prefetching searcher for sliding planes.
    searcher: Option<PrefetchSearch>,
    /// Steps taken.
    pub steps: u64,
    /// Remaps performed (sliding planes remap every step; steady state
    /// exactly once).
    pub remaps: u64,
}

impl CouplerUnit {
    /// Build a unit; steady-state units compute their mapping now.
    pub fn new(kind: UnitKind, side_a: InterfaceMesh, side_b: InterfaceMesh) -> CouplerUnit {
        assert!(!side_a.is_empty() && !side_b.is_empty(), "empty interface");
        let mut unit = CouplerUnit {
            kind,
            side_a,
            side_b,
            stencils: Vec::new(),
            searcher: None,
            steps: 0,
            remaps: 0,
        };
        match kind {
            UnitKind::SteadyState { .. } => {
                unit.stencils = idw_stencils(
                    &unit.side_a.surface_coords,
                    &unit.side_b.surface_coords,
                    3,
                    None,
                );
                unit.remaps = 1;
            }
            UnitKind::SlidingPlane { .. } => {
                unit.searcher = Some(PrefetchSearch::new(
                    &unit.side_a.surface_coords,
                    std::f64::consts::TAU,
                ));
            }
        }
        unit
    }

    /// Advance one coupling step: sliding planes rotate side A and
    /// remap, overwriting each stencil's one donor in place; steady-state
    /// units only count.
    pub fn step(&mut self) {
        self.steps += 1;
        if let UnitKind::SlidingPlane { steps_per_rev } = self.kind {
            let dtheta = std::f64::consts::TAU / steps_per_rev as f64;
            // Rotor (side A) rotates: equivalently, rotate the targets
            // backwards relative to the donors.
            self.side_b = self.side_b.rotated(-dtheta);
            let searcher = self.searcher.as_mut().expect("sliding plane has searcher");
            let mapping = searcher.step_map(&self.side_b.surface_coords);
            self.stencils.resize_with(mapping.len(), || Stencil {
                donors: vec![0],
                weights: vec![1.0],
            });
            for (stencil, &d) in self.stencils.iter_mut().zip(mapping) {
                stencil.donors[0] = d;
            }
            self.remaps += 1;
        }
    }

    /// Whether an exchange fires on density-solver iteration `iter`.
    pub fn exchanges_on(&self, iter: u64) -> bool {
        match self.kind {
            UnitKind::SlidingPlane { .. } => true,
            UnitKind::SteadyState { period } => iter.is_multiple_of(period as u64),
        }
    }

    /// Transfer a donor field (one value per side-A point) across the
    /// interface; returns one value per side-B point.
    pub fn transfer(&self, field_a: &[f64]) -> Vec<f64> {
        assert_eq!(field_a.len(), self.side_a.len(), "field length");
        assert!(
            !self.stencils.is_empty(),
            "sliding-plane unit must step() before transfer()"
        );
        self.stencils.iter().map(|s| s.apply(field_a)).collect()
    }

    /// Bytes moved per exchange for `vars` coupled variables.
    pub fn exchange_bytes(&self, vars: usize) -> usize {
        (self.side_a.len() + self.side_b.len()) * vars * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::KdTree2;
    use cpx_mesh::mesh::annulus_sector;
    use cpx_mesh::{overlap_interface, sliding_plane_pair};

    fn plane_pair() -> (InterfaceMesh, InterfaceMesh) {
        let up = annulus_sector(6, 4, 24, 1.0, 2.0, 0.0, 1.0, std::f64::consts::TAU);
        let down = annulus_sector(6, 4, 24, 1.0, 2.0, 1.0, 1.0, std::f64::consts::TAU);
        sliding_plane_pair(&up, &down)
    }

    #[test]
    fn steady_state_maps_once() {
        let m = annulus_sector(10, 4, 12, 1.0, 2.0, 0.0, 1.0, 1.0);
        let a = overlap_interface(&m, 0.3, true);
        let b = overlap_interface(&m, 0.3, true);
        let mut unit = CouplerUnit::new(UnitKind::SteadyState { period: 20 }, a, b);
        assert_eq!(unit.remaps, 1);
        for _ in 0..50 {
            unit.step();
        }
        assert_eq!(unit.remaps, 1, "steady state must not remap");
        assert!(unit.exchanges_on(0));
        assert!(!unit.exchanges_on(7));
        assert!(unit.exchanges_on(40));
    }

    #[test]
    fn steady_state_transfers_constant_exactly() {
        let m = annulus_sector(10, 4, 12, 1.0, 2.0, 0.0, 1.0, 1.0);
        let a = overlap_interface(&m, 0.3, true);
        let b = overlap_interface(&m, 0.2, true);
        let unit = CouplerUnit::new(UnitKind::SteadyState { period: 20 }, a, b);
        let field = vec![3.5; unit.side_a.len()];
        let out = unit.transfer(&field);
        assert_eq!(out.len(), unit.side_b.len());
        assert!(out.iter().all(|&v| (v - 3.5).abs() < 1e-12));
    }

    #[test]
    fn sliding_plane_remaps_every_step() {
        let (a, b) = plane_pair();
        let mut unit = CouplerUnit::new(UnitKind::SlidingPlane { steps_per_rev: 96 }, a, b);
        for _ in 0..10 {
            unit.step();
        }
        assert_eq!(unit.remaps, 10);
        assert!(unit.exchanges_on(3));
    }

    #[test]
    fn sliding_plane_mapping_tracks_rotation() {
        // With matching 24-point rings and 24 steps/rev, each step
        // shifts the donor of a fixed target by one ring position.
        let (a, b) = plane_pair();
        let mut unit = CouplerUnit::new(UnitKind::SlidingPlane { steps_per_rev: 24 }, a, b);
        unit.step();
        let first: Vec<usize> = unit.stencils.iter().map(|s| s.donors[0]).collect();
        unit.step();
        let second: Vec<usize> = unit.stencils.iter().map(|s| s.donors[0]).collect();
        assert_ne!(first, second, "rotation must change the mapping");
        // Donor radii never change (rotation is pure θ).
        for (s, t) in unit.stencils.iter().zip(&unit.side_b.surface_coords) {
            let donor_r = unit.side_a.surface_coords[s.donors[0]][0];
            assert!((donor_r - t[0]).abs() < 0.5, "radius band preserved");
        }
    }

    #[test]
    fn sliding_plane_transfer_after_step() {
        let (a, b) = plane_pair();
        let mut unit = CouplerUnit::new(UnitKind::SlidingPlane { steps_per_rev: 96 }, a, b);
        unit.step();
        let field = vec![1.25; unit.side_a.len()];
        let out = unit.transfer(&field);
        assert!(out.iter().all(|&v| v == 1.25));
    }

    #[test]
    fn every_step_of_a_revolution_maps_to_the_reference_donors() {
        // 512 targets, 96 steps a turn: after each step every stencil
        // holds the donor the unpruned, unseeded reference search finds
        // on side B as it is.
        let up = annulus_sector(6, 8, 64, 1.0, 2.0, 0.0, 1.0, std::f64::consts::TAU);
        let down = annulus_sector(6, 8, 64, 1.0, 2.0, 1.0, 1.0, std::f64::consts::TAU);
        let (a, b) = sliding_plane_pair(&up, &down);
        let reference = KdTree2::build(&a.surface_coords, Some(std::f64::consts::TAU));
        let mut unit = CouplerUnit::new(UnitKind::SlidingPlane { steps_per_rev: 96 }, a, b);
        for k in 0..96 {
            unit.step();
            for (i, (s, &t)) in unit
                .stencils
                .iter()
                .zip(&unit.side_b.surface_coords)
                .enumerate()
            {
                assert_eq!(
                    s.donors,
                    [reference.nearest_reference(t)],
                    "step {k}, target {i}"
                );
            }
        }
        assert_eq!((unit.steps, unit.remaps), (96, 96));
    }

    #[test]
    fn exchange_bytes_counts_both_sides() {
        let (a, b) = plane_pair();
        let n = a.len() + b.len();
        let unit = CouplerUnit::new(UnitKind::SlidingPlane { steps_per_rev: 96 }, a, b);
        assert_eq!(unit.exchange_bytes(5), n * 40);
    }

    #[test]
    #[should_panic(expected = "step() before transfer")]
    fn sliding_transfer_requires_step() {
        let (a, b) = plane_pair();
        let unit = CouplerUnit::new(UnitKind::SlidingPlane { steps_per_rev: 96 }, a, b);
        let field = vec![0.0; unit.side_a.len()];
        unit.transfer(&field);
    }
}
