//! # smc — the secure multi-party computation use case
//!
//! Reproduces §5.2 of the EActors paper: a secure-sum service where `K`
//! mutually distrusting parties, each confined to its own SGX enclave on
//! one machine, compute the element-wise sum of their secret vectors
//! without revealing them (Clifton et al.'s secure-sum scheme over a
//! ring, generalised to vectors).
//!
//! Two deployments are provided, matching Figure 9:
//!
//! * [`run_ea`] — the **EActors** variant: one eactor per party with its
//!   own worker and enclave, encrypted channels around the ring, rounds
//!   pipelining through the ring;
//! * [`run_sdk`] — the **SGX-SDK-style** variant: the same enclaves, but
//!   one untrusted thread ECalls party after party, paying two execution
//!   mode transitions per hop and serialising everything.
//!
//! Both variants verify against [`protocol::reference_sum`]. Their
//! throughput comparison across vector dimensions and party counts
//! regenerates Figures 12 (plain) and 13 (dynamically computed vectors).
//!
//! ```
//! use sgx_sim::{CostModel, Platform};
//! use smc::{run_ea, run_sdk, SmcConfig};
//!
//! let config = SmcConfig { parties: 3, dim: 4, rounds: 10, verify: true, ..SmcConfig::default() };
//! let platform = Platform::builder().cost_model(CostModel::zero()).build();
//! let ea = run_ea(&platform, &config)?;
//! let sdk = run_sdk(&platform, &config)?;
//! assert_eq!(ea.rounds, sdk.rounds);
//! # Ok::<(), smc::SmcError>(())
//! ```

#![warn(missing_docs)]

mod party;
pub mod protocol;
mod sdk;

pub use party::run_ea;
pub use sdk::{run_sdk, SdkSmc};

use std::fmt;
use std::time::Duration;

/// Configuration of a secure-sum experiment.
#[derive(Debug, Clone)]
pub struct SmcConfig {
    /// Number of parties in the ring (the paper evaluates 3–8).
    pub parties: usize,
    /// Vector dimension (the paper sweeps 1–10 000).
    pub dim: usize,
    /// Case #2: recompute every party's secret after each round.
    pub dynamic: bool,
    /// Rounds to execute.
    pub rounds: u64,
    /// Rounds in flight through the EActors ring (pipelining window).
    pub inflight: usize,
    /// Check every result against the plain reference (tests only — it
    /// recomputes the sum in the driver).
    pub verify: bool,
    /// Seed for the parties' initial secrets.
    pub seed: u64,
}

impl Default for SmcConfig {
    fn default() -> Self {
        SmcConfig {
            parties: 3,
            dim: 1,
            dynamic: false,
            rounds: 1000,
            inflight: 8,
            verify: false,
            seed: 42,
        }
    }
}

impl SmcConfig {
    /// The deterministic initial secrets of all parties.
    pub fn initial_secrets(&self) -> Vec<Vec<u32>> {
        (0..self.parties)
            .map(|p| protocol::derive_secret(self.seed, p, self.dim))
            .collect()
    }

    pub(crate) fn validate(&self) -> Result<(), SmcError> {
        if self.parties < 2 {
            return Err(SmcError::TooFewParties(self.parties));
        }
        if self.dim == 0 {
            return Err(SmcError::EmptyVector);
        }
        if self.rounds == 0 {
            return Err(SmcError::NoRounds);
        }
        Ok(())
    }
}

/// Outcome of a secure-sum run.
#[derive(Debug, Clone, PartialEq)]
pub struct SmcResult {
    /// Rounds executed.
    pub rounds: u64,
    /// Wall-clock time for all rounds.
    pub elapsed: Duration,
    /// Rounds per second.
    pub throughput_rps: f64,
}

/// Errors configuring or running a secure-sum experiment.
#[derive(Debug)]
#[non_exhaustive]
pub enum SmcError {
    /// The ring needs at least two parties.
    TooFewParties(usize),
    /// Zero-dimensional vectors are not summable.
    EmptyVector,
    /// Zero rounds requested.
    NoRounds,
    /// The EActors deployment failed to build or start.
    Config(eactors::ConfigError),
    /// The simulated platform refused an operation.
    Sgx(sgx_sim::SgxError),
}

impl fmt::Display for SmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmcError::TooFewParties(n) => write!(f, "secure sum needs ≥2 parties, got {n}"),
            SmcError::EmptyVector => write!(f, "vector dimension must be non-zero"),
            SmcError::NoRounds => write!(f, "at least one round is required"),
            SmcError::Config(e) => write!(f, "deployment error: {e}"),
            SmcError::Sgx(e) => write!(f, "platform error: {e}"),
        }
    }
}

impl std::error::Error for SmcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SmcError::Config(e) => Some(e),
            SmcError::Sgx(e) => Some(e),
            _ => None,
        }
    }
}

impl From<eactors::ConfigError> for SmcError {
    fn from(e: eactors::ConfigError) -> Self {
        SmcError::Config(e)
    }
}

impl From<sgx_sim::SgxError> for SmcError {
    fn from(e: sgx_sim::SgxError) -> Self {
        SmcError::Sgx(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_sim::{CostModel, Platform};

    fn platform() -> Platform {
        Platform::builder().cost_model(CostModel::zero()).build()
    }

    fn cfg(parties: usize, dim: usize, dynamic: bool, rounds: u64) -> SmcConfig {
        SmcConfig {
            parties,
            dim,
            dynamic,
            rounds,
            verify: true,
            ..SmcConfig::default()
        }
    }

    #[test]
    fn ea_three_parties_plain_verifies() {
        run_ea(&platform(), &cfg(3, 16, false, 50)).unwrap();
    }

    #[test]
    fn ea_eight_parties_dynamic_verifies() {
        run_ea(&platform(), &cfg(8, 8, true, 30)).unwrap();
    }

    #[test]
    fn sdk_three_parties_plain_verifies() {
        run_sdk(&platform(), &cfg(3, 16, false, 50)).unwrap();
    }

    #[test]
    fn sdk_eight_parties_dynamic_verifies() {
        run_sdk(&platform(), &cfg(8, 8, true, 30)).unwrap();
    }

    #[test]
    fn single_element_vectors_work() {
        run_ea(&platform(), &cfg(3, 1, false, 10)).unwrap();
        run_sdk(&platform(), &cfg(3, 1, true, 10)).unwrap();
    }

    #[test]
    fn large_vectors_work() {
        run_ea(&platform(), &cfg(3, 2000, false, 3)).unwrap();
        run_sdk(&platform(), &cfg(3, 2000, false, 3)).unwrap();
    }

    #[test]
    fn two_party_ring_is_allowed() {
        run_ea(&platform(), &cfg(2, 4, false, 10)).unwrap();
        run_sdk(&platform(), &cfg(2, 4, false, 10)).unwrap();
    }

    #[test]
    fn invalid_configs_rejected() {
        let p = platform();
        assert!(matches!(
            run_ea(&p, &cfg(1, 4, false, 1)),
            Err(SmcError::TooFewParties(1))
        ));
        assert!(matches!(
            run_ea(&p, &cfg(3, 0, false, 1)),
            Err(SmcError::EmptyVector)
        ));
        assert!(matches!(
            run_sdk(&p, &cfg(3, 4, false, 0)),
            Err(SmcError::NoRounds)
        ));
    }

    #[test]
    fn sdk_round_returns_reference_sum() {
        let p = platform();
        let config = cfg(4, 32, false, 1);
        let mut sdk = SdkSmc::new(&p, &config).unwrap();
        let sum = sdk.round();
        assert_eq!(sum, protocol::reference_sum(&config.initial_secrets()));
    }

    #[test]
    fn sdk_charges_transitions_ea_messaging_does_not_per_round() {
        // With calibrated costs, the SDK variant must burn at least
        // 2*(K+1) crossings per round while the EActors ring performs its
        // per-round messaging without any (workers stay in their
        // enclaves).
        let p = Platform::builder().build();
        let config = SmcConfig {
            parties: 3,
            dim: 1,
            rounds: 10,
            verify: false,
            ..SmcConfig::default()
        };
        let mut sdk = SdkSmc::new(&p, &config).unwrap();
        let before = p.stats().transitions();
        sdk.round();
        let per_round = p.stats().transitions() - before;
        assert!(
            per_round >= 8,
            "expected ≥ 2*(K+1) crossings, got {per_round}"
        );

        // Workers that never park never leave their enclaves: under the
        // default budget a worker descheduled for 24 us would park, and
        // each park is a crossing out and one back in.
        let p2 = Platform::builder().build();
        let before = p2.stats().transitions();
        party::run_ea_idling(&p2, &config, eactors::prelude::IdlePolicy::spin_only()).unwrap();
        let total = p2.stats().transitions() - before;
        // Setup (enclave creation, attestation ECalls, worker entry/exit)
        // pays a fixed number of crossings; the 10 rounds add none.
        assert!(
            total < 100,
            "EActors rounds should add no transitions, got {total} for the whole run"
        );
    }

    #[test]
    fn dynamic_changes_results_across_rounds() {
        // With dynamic secrets the sum must differ between rounds.
        let p = platform();
        let config = SmcConfig {
            parties: 3,
            dim: 4,
            dynamic: true,
            rounds: 2,
            verify: false,
            ..SmcConfig::default()
        };
        let mut sdk = SdkSmc::new(&p, &config).unwrap();
        let a = sdk.round();
        let b = sdk.round();
        assert_ne!(a, b);
    }
}
