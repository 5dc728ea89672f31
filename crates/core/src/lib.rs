//! # cpx-core
//!
//! The coupled CFD–combustion mini-app simulation: the paper's primary
//! contribution, assembled from the workspace's substrates.
//!
//! A coupled run is described by a [`testcases`] scenario — a set of
//! solver instances (MG-CFD density rows, a SIMPIC pressure proxy) and
//! the coupler units between them (sliding planes between density
//! instances, a steady-state overlap around the combustor). From a
//! scenario you can:
//!
//! * build the **empirical performance model** and run Algorithm 1 to
//!   allocate a core budget ([`model`]);
//! * execute the **virtual coupled run** at the allocated rank counts on
//!   the ARCHER2-class testbed and measure per-instance runtimes and
//!   coupling overhead ([`sim::run_coupled_with`]; a scenario carrying a
//!   [`FaultScenario`] also prices its crash and corruption recovery);
//! * run a **functional coupled simulation** (real numerics, threaded
//!   ranks, real interface transfers) at laptop scale ([`functional`]);
//! * regenerate every figure of the paper (the `cpx-bench` crate drives
//!   this).
//!
//! ```no_run
//! use cpx_core::prelude::*;
//!
//! let scenario = testcases::large_engine(StcVariant::Base);
//! let machine = Machine::archer2();
//! let models = model::build_models(&scenario, &machine, 20.0);
//! let alloc = model::allocate_scenario(&models, 40_000);
//! let run = sim::run_coupled_with(&scenario, &alloc, &machine, 20, None);
//! println!("predicted {:.1}s measured {:.1}s",
//!          alloc.predicted_runtime(), run.total_runtime);
//! ```

pub mod functional;
pub mod instance;
pub mod model;
pub mod profile;
pub mod report;
pub mod sdc;
pub mod sim;
pub mod testcases;

/// Convenient re-exports.
pub mod prelude {
    pub use crate::instance::{AppInstance, AppKind, CuSpec, FaultScenario, Scenario, StcVariant};
    pub use crate::model::{self, ScenarioModels};
    pub use crate::profile::{PhaseProfile, PhaseRow};
    pub use crate::report::{markdown_report, validation_markdown};
    pub use crate::sdc::{SdcInjection, SdcPolicy, SdcSite};
    pub use crate::sim::{self, CoupledRun};
    pub use crate::testcases;
    pub use cpx_machine::Machine;
    pub use cpx_perfmodel::{allocate, AllocConfig, Allocation};
}

pub use instance::{AppInstance, AppKind, CuSpec, FaultScenario, Scenario, StcVariant};
pub use model::ScenarioModels;
pub use profile::{PhaseProfile, PhaseRow};
pub use sdc::{SdcInjection, SdcPolicy, SdcSite};
pub use sim::{
    coupled_phase_names, coupled_program, coupled_program_phased, trace_coupled, CoupledRun,
    ResilienceEvent,
};
