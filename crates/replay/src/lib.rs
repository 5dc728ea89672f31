//! # cpx-replay
//!
//! Deterministic record/replay of coupled runs with strict divergence
//! detection and a golden-trace regression corpus.
//!
//! The workspace's simulation layers are deterministic by construction
//! — fault draws are pure functions of `(seed, src, dst, seq)`, the DES
//! scheduler's global event order is fixed, the threaded comm runtime's
//! per-rank event sequences are reproducible. This crate turns that
//! property into a testable contract:
//!
//! * [`event::ReplayEvent`] — one flattened event type covering every
//!   recorded nondeterminism source: DES scheduler events, comm-runtime
//!   events (with each message's fault-plan draw), and resilience
//!   decisions (checkpoint/crash/rollback/shrink/SDC).
//! * [`format::Trace`] — the versioned `.cpxr` container: magic header,
//!   schema version, length-prefixed records, per-record CRC-32. Every
//!   way a file can be wrong maps to a typed [`format::TraceError`].
//! * [`divergence::verify`] — strict event-by-event comparison of a
//!   replayed stream against a recorded one, failing fast with a
//!   [`divergence::DivergenceError`] that names the event index and
//!   the expected/observed kinds
//!   (`event 1041: expected Recv{src:3}, got Collective{Allreduce}`).
//! * [`golden`] — the committed `golden/<scenario>/` corpus and its
//!   record/check machinery; the `golden_check` binary drives it in CI.

pub mod divergence;
pub mod event;
pub mod format;
pub mod golden;
pub mod launcher;
pub mod multiproc;

pub use divergence::{verify, DivergenceError};
pub use event::ReplayEvent;
pub use format::{Trace, TraceError, MAGIC, SCHEMA_VERSION};
pub use golden::{
    check, generate, record, CheckFailure, GoldenArtifacts, GoldenFailure, SCENARIOS,
};
