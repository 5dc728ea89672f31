//! # cpx-amg
//!
//! Aggregation-based algebraic multigrid — the engine of the pressure
//! field solve the paper profiles (§IV-B) and the vehicle for its solver
//! optimizations.
//!
//! The production pressure solver uses a Conjugate Gradient solver with
//! aggregate algebraic multigrid (AMG); its profile shows the bulk of
//! compute in multigrid cycles and the setup phase (Galerkin coarse-grid
//! operator). This crate implements that stack from scratch:
//!
//! * [`strength`] — strength-of-connection filtering;
//! * [`aggregate`] — greedy aggregation coarsening and the tentative
//!   (piecewise-constant) prolongator;
//! * [`interp`] — prolongator improvement: distance-one **smoothed
//!   aggregation** and the **extended+i-style distance-two** smoothing
//!   the paper recommends ("considers not only neighbors of a gridpoint
//!   but also its neighbors' neighbors — more computationally expensive
//!   but accelerates convergence");
//! * [`smoother`] — weighted Jacobi, Gauss–Seidel, symmetric GS and the
//!   **hybrid Gauss–Seidel** of Baker et al. (GS within a task, Jacobi
//!   across tasks) that the paper selects for scalability;
//! * [`hierarchy`] — level construction with Galerkin triple products
//!   (via `cpx-sparse`'s SpGEMM variants) and per-cycle work accounting;
//! * [`cycle`] — V-cycles and Krylov-accelerated **K-cycles** (which the
//!   paper notes converge faster but scale worse — our cost model
//!   captures exactly that trade);
//! * [`pcg`](mod@pcg) — AMG-preconditioned conjugate gradients.
//!
//! Every phase reports operation counts so the pressure-solver cost
//! model is grounded in what the algorithms actually do.

pub mod aggregate;
pub mod cycle;
pub mod hierarchy;
pub mod interp;
pub mod pcg;
pub mod profile;
pub mod smoother;
pub mod strength;

pub use aggregate::{aggregate_greedy, Aggregation};
pub use cycle::{
    apply_cycle, apply_cycle_guarded, convergence_factor, kcycle, vcycle, wcycle, CycleType,
    CycleViolation, GuardedCycle,
};
pub use hierarchy::{Hierarchy, HierarchyConfig, InterpKind, Level};
pub use pcg::{pcg, CgConfig, CgOutcome, Preconditioner};
pub use profile::{profile_vcycles, CycleProfiler};
pub use smoother::{Smoother, SweepScratch};
