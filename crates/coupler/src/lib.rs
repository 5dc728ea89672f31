//! # cpx-coupler
//!
//! CPX — the mini-coupler. In the coupled simulation discrete coupler
//! units (CUs) own the flow of information between solver instances:
//! they gather boundary data from one solver's ranks, map and
//! interpolate it onto the other solver's interface, and scatter it
//! back (§II).
//!
//! Two interface regimes (§II-A):
//!
//! * **sliding planes** between density-solver instances — the rotor
//!   rows move relative to the stators every timestep, so the
//!   donor-point mapping must be *recomputed each step*. The search is
//!   the dominant CU cost; the paper attributes the large reduction in
//!   coupling overhead (to <0.5% of runtime) to a **tree-based search
//!   routine with prefetching of the cells required for the next
//!   iteration** (§V-B, after Mudalige et al.).
//! * **steady-state overlap** between density and pressure solvers —
//!   larger interface (~5% of cells vs ~0.42%) but mapped *once* and
//!   exchanged only every 20 density iterations.
//!
//! Modules: [`layout`] — MPMD rank-space layout for apps + CUs;
//! [`search`] — brute-force and k-d-tree donor search plus the
//! sliding-plane prefetch that seeds each step's search with the last
//! step's donors; [`conservative`] — the conservative transfer (each
//! donor's weighted value goes to its nearest target); [`interp`] —
//! interpolation weights (partition of unity ⇒ constants transfer
//! exactly); [`unit`](mod@unit) — the coupler unit tying both sides
//! together; [`trace`] — the CU cost model for the virtual testbed.

pub mod conservative;
pub mod interp;
pub mod layout;
pub mod search;
pub mod trace;
pub mod unit;

pub use conservative::{ConservationError, ConservativeMap};
pub use layout::{MpmdLayout, RankRange};
pub use search::{BruteSearch, KdTree2, PrefetchSearch};
pub use trace::{CouplerKind, CouplerTraceModel};
pub use unit::CouplerUnit;
