//! Silent-data-corruption events and recovery policy.
//!
//! The workspace detects SDC at four layers — ABFT checksums on the
//! sparse kernels (`cpx-sparse`), CRC'd message payloads (`cpx-comm`),
//! physics invariant guards in the mini-apps (`cpx-mgcfd`,
//! `cpx-simpic`), and residual-monotonicity guards in the solver cycles
//! (`cpx-amg`, `cpx-coupler`); a halo-exchange checksum is modelled
//! only ([`SdcSite::HaloExchange`]). This module
//! is the bridge from *detection* to *recovery at scale*: it names the
//! detection sites ([`SdcSite`]), the injected events a coupled study
//! replays ([`SdcInjection`]) and the recovery policy the virtual run
//! prices against them ([`SdcPolicy`]) — so a coupled run whose
//! scenario carries these events ([`crate::sim::run_coupled_with`])
//! quantifies the overhead-versus-coverage trade the same way it prices
//! crash recovery.

/// Where in the stack a corruption strikes (and which detector is
/// responsible for catching it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SdcSite {
    /// A sparse-kernel operand or output (SpMV / SpGEMM); caught by the
    /// Huang–Abraham checksums of `cpx_sparse::abft`.
    SparseKernel,
    /// A halo-exchange slot; caught by a per-peer checksum trailer. The
    /// trailer's cost is modelled: no distributed SpMV runs here.
    HaloExchange,
    /// A message payload on the link; caught by the CRC-64 the
    /// `cpx-comm` transport verifies on receive.
    CommPayload,
    /// Solver state (density, energy, particle positions…); caught by
    /// the conservation / positivity / finiteness guards.
    PhysicsInvariant,
    /// An AMG operator or iterate; caught by the residual-monotonicity
    /// guard around the cycle.
    SolverCycle,
}

impl SdcSite {
    /// Human name of the detector layer responsible for this site.
    pub fn detector(&self) -> &'static str {
        match self {
            SdcSite::SparseKernel => "ABFT checksum",
            SdcSite::HaloExchange => "halo checksum",
            SdcSite::CommPayload => "payload CRC-64",
            SdcSite::PhysicsInvariant => "physics invariant guard",
            SdcSite::SolverCycle => "residual-monotonicity guard",
        }
    }
}

impl std::fmt::Display for SdcSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            SdcSite::SparseKernel => "sparse kernel",
            SdcSite::HaloExchange => "halo exchange",
            SdcSite::CommPayload => "comm payload",
            SdcSite::PhysicsInvariant => "physics invariant",
            SdcSite::SolverCycle => "solver cycle",
        };
        f.write_str(name)
    }
}

/// What a resilient run does when a detector fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SdcPolicy {
    /// Re-execute the poisoned iteration from its (still intact) inputs
    /// — the cheap local recovery ABFT makes possible, since detection
    /// happens *before* the corrupted result is consumed.
    #[default]
    Recompute,
    /// Roll back to the last coordinated checkpoint and replay, as for
    /// a crash — the conservative choice when detection may lag the
    /// strike (physics guards fire an iteration late).
    Rollback,
    /// Record the event and continue on the corrupted data — the
    /// detection-only baseline a study compares recovery against.
    FlagOnly,
}

impl std::fmt::Display for SdcPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            SdcPolicy::Recompute => "recompute",
            SdcPolicy::Rollback => "rollback",
            SdcPolicy::FlagOnly => "flag-and-continue",
        };
        f.write_str(name)
    }
}

/// One injected corruption in a coupled study: a strike at `iter`
/// density iterations into the run, at the given site. With ABFT
/// enabled the run detects it and applies the policy; with ABFT
/// disabled it propagates silently (the coverage baseline).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SdcInjection {
    /// Density iteration (into the full window) at which it strikes.
    /// Iterations at or beyond the window never fire.
    pub iter: u64,
    /// Where it strikes.
    pub site: SdcSite,
}

impl SdcInjection {
    /// A corruption striking `site` at density iteration `iter`.
    pub fn at(iter: u64, site: SdcSite) -> SdcInjection {
        SdcInjection { iter, site }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sites_name_their_detectors() {
        for site in [
            SdcSite::SparseKernel,
            SdcSite::HaloExchange,
            SdcSite::CommPayload,
            SdcSite::PhysicsInvariant,
            SdcSite::SolverCycle,
        ] {
            assert!(!site.detector().is_empty());
            assert!(!site.to_string().is_empty());
        }
    }

    #[test]
    fn default_policy_is_recompute() {
        assert_eq!(SdcPolicy::default(), SdcPolicy::Recompute);
        assert_eq!(SdcPolicy::Rollback.to_string(), "rollback");
    }

    #[test]
    fn injection_constructor() {
        let ev = SdcInjection::at(17, SdcSite::SparseKernel);
        assert_eq!(ev.iter, 17);
        assert_eq!(ev.site, SdcSite::SparseKernel);
    }
}
