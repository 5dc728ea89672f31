//! Wall-time benchmark of the CPX prediction pipeline and the mini-app
//! kernels, timed end to end and per layer from outside the program.
//!
//! Each workload is set up, then iterated: an iteration calls the
//! public entry points of every layer it loads, each call wrapped in a
//! [`probe::Probe`] span under one root span, and its virtual outputs
//! are checked against the committed reference ([`check`]).

pub mod check;
pub mod miniapp;
pub mod pipeline;
pub mod probe;

use check::Outputs;
use probe::Probe;

/// One benchmark workload after set-up.
pub trait Workload {
    /// Run one iteration: the layer calls under the [`probe::ROOT`]
    /// span, then the outputs the check compares.
    fn iterate(&mut self, probe: &mut Probe) -> Outputs;

    /// Checks made once per run, before the first iteration and outside
    /// any timing: the reasons they failed (empty when all hold).
    fn verify(&mut self) -> Vec<String> {
        Vec::new()
    }

    /// Per-layer values measured during set-up, by metric name.
    fn setup_metrics(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// The workload names. `BENCHMARK.json` lists the last two; `engine40k`
/// runs only on request, because one run fits a single warm iteration.
pub const WORKLOADS: [&str; 3] = ["engine40k", "small5k_whatif", "miniapp_steps"];

/// Set up workload `name` on input variant `variant`.
pub fn setup(name: &str, variant: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "engine40k" => Box::new(pipeline::Engine40k::setup(variant)),
        "small5k_whatif" => Box::new(pipeline::Small5kWhatIf::setup(variant)),
        "miniapp_steps" => Box::new(miniapp::MiniappSteps::setup(variant)),
        _ => return None,
    })
}
