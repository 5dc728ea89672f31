//! # cpx-machine
//!
//! Machine model and discrete-event virtual testbed for the CPX coupled
//! mini-app reproduction.
//!
//! The paper's measurements were taken on ARCHER2, an HPE-Cray EX system
//! with 128-core AMD EPYC 7742 nodes and a Slingshot interconnect, at up to
//! 40,000 MPI ranks. This crate provides the stand-in for that testbed:
//!
//! * [`model::Machine`] — a parametric description of a cluster (cores per
//!   node, sustained per-core compute rate, memory bandwidth, intra- and
//!   inter-node latency/bandwidth), with an [`model::Machine::archer2`]
//!   preset.
//! * [`cost`] — roofline-style kernel cost accounting: a kernel is
//!   characterised by the floating-point work and memory traffic it
//!   performs and the machine converts that into seconds.
//! * [`trace`] — a compact per-rank *phase trace* representation
//!   (compute / send / recv / collectives) that mini-apps emit from their
//!   real partitioned data structures.
//! * [`des`] — a discrete-event replayer that executes a
//!   [`trace::TraceProgram`] against a [`model::Machine`] and yields the
//!   virtual elapsed time of every rank. It comfortably replays programs
//!   with tens of thousands of ranks.
//! * [`collectives`] — analytic cost models for MPI-style collectives
//!   (binomial-tree broadcast, recursive-doubling allreduce, …) shared by
//!   the replayer and the threaded runtime in `cpx-comm`.
//!
//! The combination lets the rest of the workspace produce "measured"
//! scaling curves at ARCHER2 scale without ARCHER2: mini-apps partition
//! their actual data structures at the requested rank count, emit traces,
//! and the replayer integrates the timing.

mod channels;
pub mod collectives;
pub mod cost;
pub mod des;
pub mod graph;
pub mod model;
pub mod stats;
pub mod trace;

pub use cost::KernelCost;
pub use des::{DesEvent, DesEventKind, ReplayError, ReplayOutcome, Replayer};
pub use graph::{build_task_graph, collective_label, scale_compute_by_phase, validate_against_des};
pub use model::Machine;
pub use stats::TraceStats;
pub use trace::{CollectiveKind, Op, PhaseId, RankTrace, TraceProgram};
