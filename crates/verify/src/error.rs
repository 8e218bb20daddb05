//! Error type for the equivalence engine.

use std::fmt;

use ipd_sim::SimError;

/// Why an equivalence check could not be carried out.
///
/// Note that a *completed* check that finds the designs different is
/// not an error — that is
/// [`EquivVerdict::NotEquivalent`](crate::EquivVerdict::NotEquivalent)
/// with a counterexample. These
/// variants cover designs the engine cannot soundly compare at all,
/// resource exhaustion, and internal-consistency failures.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// The two designs' primary ports differ.
    PortMismatch {
        /// Human-readable description of the first difference.
        detail: String,
    },
    /// The two designs' sequential boundaries (register cut) differ.
    StateMismatch {
        /// Human-readable description of the first difference.
        detail: String,
    },
    /// A design contains a combinational cycle; cones cannot be
    /// lowered to an acyclic AIG.
    CombLoop {
        /// Design name.
        design: String,
    },
    /// A design contains protected black boxes with unknown function.
    BlackBox {
        /// Design name.
        design: String,
    },
    /// A net read by logic has no driver (would simulate as `X`; a
    /// two-valued proof over it would be unsound).
    UndrivenNet {
        /// Design name.
        design: String,
        /// Hierarchical net name.
        net: String,
    },
    /// The SAT solver exhausted its conflict budget before deciding a
    /// miter; the check is inconclusive, not a verdict.
    ResourceLimit {
        /// Which output function timed out.
        function: String,
        /// Conflicts spent.
        conflicts: u64,
    },
    /// A SAT counterexample disagreed with a simulator replay — an
    /// internal soundness bug in the engine itself, reported loudly
    /// rather than papered over.
    OracleDisagreement {
        /// Which oracle disagreed (`batch` or `compiled`).
        oracle: String,
        /// Which output function was replayed.
        function: String,
        /// What the AIG/SAT side predicted.
        expected: String,
        /// What the simulator observed.
        observed: String,
    },
    /// Simulator construction or replay failed.
    Sim(SimError),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::PortMismatch { detail } => {
                write!(f, "primary port boundaries differ: {detail}")
            }
            VerifyError::StateMismatch { detail } => {
                write!(f, "sequential boundaries differ: {detail}")
            }
            VerifyError::CombLoop { design } => {
                write!(
                    f,
                    "design '{design}' has a combinational cycle; cannot lower to AIG"
                )
            }
            VerifyError::BlackBox { design } => {
                write!(
                    f,
                    "design '{design}' has protected black boxes with unknown function"
                )
            }
            VerifyError::UndrivenNet { design, net } => {
                write!(f, "design '{design}' reads undriven net '{net}'")
            }
            VerifyError::ResourceLimit {
                function,
                conflicts,
            } => {
                write!(
                    f,
                    "SAT budget exhausted proving '{function}' ({conflicts} conflicts); inconclusive"
                )
            }
            VerifyError::OracleDisagreement {
                oracle,
                function,
                expected,
                observed,
            } => {
                write!(
                    f,
                    "INTERNAL: {oracle} simulator replay of counterexample for '{function}' \
                     observed {observed}, SAT model predicted {expected}"
                )
            }
            VerifyError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for VerifyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VerifyError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for VerifyError {
    fn from(e: SimError) -> Self {
        VerifyError::Sim(e)
    }
}
