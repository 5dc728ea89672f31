//! # cpx-pressure
//!
//! A synthetic stand-in for the production combustion **pressure
//! solver** the paper profiles (a proprietary Rolls-Royce LES code with
//! Lagrangian fuel spray — substituted here per the reproduction's
//! ground rules, see DESIGN.md).
//!
//! What the experiments need from this solver is its *phase structure*
//! and its *scaling pathologies*, both of which the paper documents
//! precisely (§III–IV):
//!
//! * per timestep: velocity (momentum) update, scalar transport, k-ε
//!   turbulence, a **pressure-correction solve** (CG + aggregate AMG),
//!   then the **Lagrangian spray** update (Fig 2);
//! * at 2048 cores on the 28M-cell case, the pressure field is 46% of
//!   runtime (21% communication + 25% compute) and the spray is the
//!   next biggest consumer with **96% of its time in communication**,
//!   caused by heavily clustered particles (Fig 5a);
//! * the spray drops below 50% parallel efficiency at ~256 cores; the
//!   whole solver drops below 50% around 3,000 cores (Figs 4b, 5b);
//! * the §IV optimizations (async task-based spray; AMG/SpGEMM
//!   improvements worth ~5× on the pressure field) yield the
//!   "Optimized" variant whose efficiency holds far further (Fig 6a).
//!
//! [`solver`] implements a *functional* miniature of the solver
//! (pressure projection with `cpx-amg`, clustered spray with drag) for
//! correctness tests; [`trace`] implements the calibrated scale model
//! that regenerates the paper's curves on the virtual testbed, in
//! [`PressureVariant::Base`] and [`PressureVariant::Optimized`] forms.

pub mod config;
pub mod solver;
pub mod spray;
pub mod stc;
pub mod trace;

pub use config::{PressureConfig, PressureVariant};
pub use stc::{run_stc, StcConfig, StcMode, StcOutcome, StcStepTiming};
pub use trace::{PfSubPhase, PressurePhase, PressureTraceModel};
