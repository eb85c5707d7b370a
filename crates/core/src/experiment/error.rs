//! Typed validation errors for the [`Experiment`](crate::experiment)
//! builder and the scheme registry.
//!
//! Every structural constraint that used to surface as a scattered
//! `assert!`/`panic!` in scheme construction or example wiring is a
//! [`BuildError`] variant here, so callers can match on the exact violated
//! requirement.

use bcc_coding::CodingError;
use std::fmt;

/// Why an experiment (or one of its parts) could not be built.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// A required builder field was never set.
    MissingField {
        /// The builder method that was not called.
        field: &'static str,
    },
    /// A field was set to a structurally invalid value.
    InvalidValue {
        /// The offending field.
        field: &'static str,
        /// Why the value is rejected.
        reason: String,
    },
    /// The spec named a scheme the registry does not know.
    UnknownScheme {
        /// The requested name.
        name: String,
        /// Every name the registry can resolve.
        known: Vec<String>,
    },
    /// The scheme requires a computational load `r` but the spec has none.
    MissingLoad {
        /// The scheme that needs `r`.
        scheme: String,
    },
    /// The scheme requires `m = n` (one coding unit per worker).
    SquareRequired {
        /// The scheme with the constraint.
        scheme: String,
        /// Number of coding units `m`.
        m: usize,
        /// Number of workers `n`.
        n: usize,
    },
    /// The computational load is outside `0 < r ≤ bound` (the worker count
    /// for the cyclic codes, the unit count for the batched ones).
    LoadOutOfRange {
        /// The scheme with the constraint.
        scheme: String,
        /// The requested load.
        r: usize,
        /// The inclusive upper bound on `r`.
        bound: usize,
    },
    /// The scheme requires `r | n` (fractional repetition's shard split).
    LoadNotDivisor {
        /// The scheme with the constraint.
        scheme: String,
        /// The requested load.
        r: usize,
        /// Number of workers `n`.
        n: usize,
    },
    /// A randomized placement failed to cover every batch after bounded
    /// retries — `n` is too small for the requested `(m, r)`.
    CoverageFailed {
        /// The scheme whose placement failed.
        scheme: String,
        /// Number of coding units `m`.
        m: usize,
        /// Number of workers `n`.
        n: usize,
        /// The requested load.
        r: usize,
        /// How many placements were drawn before giving up.
        attempts: usize,
    },
    /// An explicit latency profile disagrees with the spec's worker count.
    WorkerCountMismatch {
        /// Workers in the latency profile.
        profile: usize,
        /// Workers in the spec.
        workers: usize,
    },
    /// The spec named an aggregation policy the registry does not know.
    UnknownPolicy {
        /// The requested name.
        name: String,
        /// Every name the policy registry can resolve.
        known: Vec<String>,
    },
    /// The spec named a training mode the registry does not know.
    UnknownMode {
        /// The requested name.
        name: String,
        /// Every name the mode registry can resolve.
        known: Vec<String>,
    },
    /// The spec named a straggler controller the registry does not know.
    UnknownController {
        /// The requested name.
        name: String,
        /// Every name the controller registry can resolve.
        known: Vec<String>,
    },
    /// A coding-layer construction failure not covered by the structured
    /// variants above.
    Coding(CodingError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MissingField { field } => {
                write!(f, "experiment builder is missing `{field}`")
            }
            Self::InvalidValue { field, reason } => {
                write!(f, "invalid `{field}`: {reason}")
            }
            Self::UnknownScheme { name, known } => {
                write!(
                    f,
                    "unknown scheme `{name}` (registered: {})",
                    known.join(", ")
                )
            }
            Self::MissingLoad { scheme } => {
                write!(f, "scheme `{scheme}` needs a computational load `r`")
            }
            Self::SquareRequired { scheme, m, n } => write!(
                f,
                "scheme `{scheme}` requires m = n (got m={m} units, n={n} workers); \
                 group examples into one unit per worker first"
            ),
            Self::LoadOutOfRange { scheme, r, bound } => {
                write!(f, "scheme `{scheme}` needs 0 < r ≤ {bound} (got r={r})")
            }
            Self::LoadNotDivisor { scheme, r, n } => {
                write!(f, "scheme `{scheme}` needs r | n (got r={r}, n={n})")
            }
            Self::CoverageFailed {
                scheme,
                m,
                n,
                r,
                attempts,
            } => write!(
                f,
                "scheme `{scheme}` placement failed to cover all {m}-unit batches at r={r} \
                 with {n} workers after {attempts} draws — n is too small for this (m, r)"
            ),
            Self::WorkerCountMismatch { profile, workers } => write!(
                f,
                "latency profile has {profile} workers but the spec asks for {workers}"
            ),
            Self::UnknownPolicy { name, known } => {
                write!(
                    f,
                    "unknown aggregation policy `{name}` (registered: {})",
                    known.join(", ")
                )
            }
            Self::UnknownMode { name, known } => {
                write!(
                    f,
                    "unknown training mode `{name}` (registered: {})",
                    known.join(", ")
                )
            }
            Self::UnknownController { name, known } => {
                write!(
                    f,
                    "unknown controller `{name}` (registered: {})",
                    known.join(", ")
                )
            }
            Self::Coding(e) => write!(f, "scheme construction failed: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<CodingError> for BuildError {
    fn from(e: CodingError) -> Self {
        Self::Coding(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_constraint() {
        let e = BuildError::SquareRequired {
            scheme: "cyclic-repetition".into(),
            m: 10,
            n: 5,
        };
        assert!(e.to_string().contains("m = n"));
        let e = BuildError::LoadNotDivisor {
            scheme: "fractional-repetition".into(),
            r: 7,
            n: 10,
        };
        assert!(e.to_string().contains("r | n"));
        let e = BuildError::UnknownScheme {
            name: "lt-codes".into(),
            known: vec!["bcc".into()],
        };
        assert!(e.to_string().contains("lt-codes"));
        assert!(e.to_string().contains("bcc"));
    }

    #[test]
    fn coding_errors_convert() {
        let e: BuildError = CodingError::InvalidConfig {
            reason: "bad".into(),
        }
        .into();
        assert!(matches!(e, BuildError::Coding(_)));
    }
}
