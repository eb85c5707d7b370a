//! The built-in scheme configurations: every scheme in the paper's
//! comparison, buildable by config or by registry name (see
//! [`crate::experiment::SchemeRegistry`]).

use crate::experiment::{BuildError, SchemeSpec};
use bcc_coding::{
    BccScheme, CyclicMdsScheme, CyclicRepetitionScheme, FractionalRepetitionScheme,
    GradientCodingScheme, RandomSubsetScheme, UncodedScheme, UncompressedBccScheme,
};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Placement redraws before a randomized scheme reports
/// [`BuildError::CoverageFailed`].
const COVERAGE_ATTEMPTS: usize = 10_000;

/// Configuration of one scheme in a comparison run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchemeConfig {
    /// Uncoded: disjoint shards, wait for all.
    Uncoded,
    /// Batched Coupon's Collector at computational load `r`.
    Bcc {
        /// Computational load (batch size in units).
        r: usize,
    },
    /// Ablation: BCC placement but per-example messages (no in-worker
    /// summation) — isolates the contribution of Remark 3's compression.
    BccUncompressed {
        /// Computational load (batch size in units).
        r: usize,
    },
    /// Simple randomized scheme at load `r`.
    Random {
        /// Computational load (subset size in units).
        r: usize,
    },
    /// Cyclic repetition (Tandon et al.) at load `r` (requires `m = n`).
    CyclicRepetition {
        /// Computational load (cyclic window width).
        r: usize,
    },
    /// Cyclic MDS over ℂ (Raviv et al.) at load `r` (requires `m = n`).
    CyclicMds {
        /// Computational load (cyclic window width).
        r: usize,
    },
    /// Fractional repetition at load `r` (requires `m = n` and `r | n`).
    FractionalRepetition {
        /// Computational load (shard size; must divide `n`).
        r: usize,
    },
}

impl SchemeConfig {
    /// Every built-in registry name, in registration order.
    pub const BUILTIN_NAMES: [&'static str; 7] = [
        "uncoded",
        "bcc",
        "bcc-uncompressed",
        "random",
        "cyclic-repetition",
        "cyclic-mds",
        "fractional-repetition",
    ];

    /// Scheme name as used in reports and the registry.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Uncoded => "uncoded",
            Self::Bcc { .. } => "bcc",
            Self::BccUncompressed { .. } => "bcc-uncompressed",
            Self::Random { .. } => "random",
            Self::CyclicRepetition { .. } => "cyclic-repetition",
            Self::CyclicMds { .. } => "cyclic-mds",
            Self::FractionalRepetition { .. } => "fractional-repetition",
        }
    }

    /// The declarative form of this config (registry name + load).
    #[must_use]
    pub fn spec(&self) -> SchemeSpec {
        match *self {
            Self::Uncoded => SchemeSpec::named("uncoded"),
            Self::Bcc { r }
            | Self::BccUncompressed { r }
            | Self::Random { r }
            | Self::CyclicRepetition { r }
            | Self::CyclicMds { r }
            | Self::FractionalRepetition { r } => SchemeSpec::with_load(self.name(), r),
        }
    }

    /// Resolves a [`SchemeSpec`] against the built-in names.
    ///
    /// # Errors
    /// [`BuildError::UnknownScheme`] for a name outside
    /// [`Self::BUILTIN_NAMES`]; [`BuildError::MissingLoad`] when a loaded
    /// scheme comes without `r`.
    pub fn from_spec(spec: &SchemeSpec) -> Result<Self, BuildError> {
        let r = || {
            spec.r.ok_or_else(|| BuildError::MissingLoad {
                scheme: spec.name.clone(),
            })
        };
        match spec.name.as_str() {
            "uncoded" => Ok(Self::Uncoded),
            "bcc" => Ok(Self::Bcc { r: r()? }),
            "bcc-uncompressed" => Ok(Self::BccUncompressed { r: r()? }),
            "random" => Ok(Self::Random { r: r()? }),
            "cyclic-repetition" => Ok(Self::CyclicRepetition { r: r()? }),
            "cyclic-mds" => Ok(Self::CyclicMds { r: r()? }),
            "fractional-repetition" => Ok(Self::FractionalRepetition { r: r()? }),
            other => Err(BuildError::UnknownScheme {
                name: other.to_string(),
                known: Self::BUILTIN_NAMES
                    .iter()
                    .map(ToString::to_string)
                    .collect(),
            }),
        }
    }

    /// Computational load `r` (units per worker) this config implies for a
    /// problem with `m` units and `n` workers.
    #[must_use]
    pub fn load(&self, m: usize, n: usize) -> usize {
        match *self {
            Self::Uncoded => m.div_ceil(n).max(1),
            Self::Bcc { r }
            | Self::BccUncompressed { r }
            | Self::Random { r }
            | Self::CyclicRepetition { r }
            | Self::CyclicMds { r }
            | Self::FractionalRepetition { r } => r,
        }
    }

    /// Instantiates the scheme for `m` units over `n` workers.
    ///
    /// For BCC the data-distribution step retries until every batch is
    /// chosen by some worker (the paper assumes `n` large enough that the
    /// uncovered-batch probability vanishes; with finite `n` a re-draw is
    /// the practical equivalent). For the randomized scheme likewise until
    /// the subsets cover the dataset.
    ///
    /// # Errors
    /// [`BuildError::SquareRequired`] for the `m = n` schemes,
    /// [`BuildError::LoadOutOfRange`] / [`BuildError::LoadNotDivisor`] for
    /// bad loads, and [`BuildError::CoverageFailed`] when a randomized
    /// placement cannot cover the batches.
    pub fn try_build<R: Rng + ?Sized>(
        &self,
        m: usize,
        n: usize,
        rng: &mut R,
    ) -> Result<Box<dyn GradientCodingScheme>, BuildError> {
        match *self {
            Self::Uncoded => Ok(Box::new(UncodedScheme::new(m, n))),
            Self::Bcc { r } => {
                self.check_load_range(r, m)?;
                for _ in 0..COVERAGE_ATTEMPTS {
                    let s = BccScheme::new(m, n, r, rng);
                    if s.covers_all_batches() {
                        return Ok(Box::new(s));
                    }
                }
                Err(self.coverage_failed(m, n, r))
            }
            Self::BccUncompressed { r } => {
                self.check_load_range(r, m)?;
                for _ in 0..COVERAGE_ATTEMPTS {
                    let s = UncompressedBccScheme::new(m, n, r, rng);
                    if s.covers_all_batches() {
                        return Ok(Box::new(s));
                    }
                }
                Err(self.coverage_failed(m, n, r))
            }
            Self::Random { r } => {
                self.check_load_range(r, m)?;
                for _ in 0..COVERAGE_ATTEMPTS {
                    let s = RandomSubsetScheme::new(m, n, r, rng);
                    if s.placement().covers_all() {
                        return Ok(Box::new(s));
                    }
                }
                Err(self.coverage_failed(m, n, r))
            }
            Self::CyclicRepetition { r } => {
                self.check_square(m, n)?;
                self.check_load_range(r, n)?;
                Ok(Box::new(CyclicRepetitionScheme::try_new(n, r, rng)?))
            }
            Self::CyclicMds { r } => {
                self.check_square(m, n)?;
                self.check_load_range(r, n)?;
                Ok(Box::new(CyclicMdsScheme::try_new(n, r)?))
            }
            Self::FractionalRepetition { r } => {
                self.check_square(m, n)?;
                if r == 0 || !n.is_multiple_of(r) {
                    return Err(BuildError::LoadNotDivisor {
                        scheme: self.name().to_string(),
                        r,
                        n,
                    });
                }
                Ok(Box::new(FractionalRepetitionScheme::try_new(n, r)?))
            }
        }
    }

    fn check_square(&self, m: usize, n: usize) -> Result<(), BuildError> {
        if m == n {
            Ok(())
        } else {
            Err(BuildError::SquareRequired {
                scheme: self.name().to_string(),
                m,
                n,
            })
        }
    }

    fn check_load_range(&self, r: usize, bound: usize) -> Result<(), BuildError> {
        if r == 0 || r > bound {
            Err(BuildError::LoadOutOfRange {
                scheme: self.name().to_string(),
                r,
                bound,
            })
        } else {
            Ok(())
        }
    }

    fn coverage_failed(&self, m: usize, n: usize, r: usize) -> BuildError {
        BuildError::CoverageFailed {
            scheme: self.name().to_string(),
            m,
            n,
            r,
            attempts: COVERAGE_ATTEMPTS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_stats::rng::derive_rng;

    #[test]
    fn builds_every_scheme() {
        let mut rng = derive_rng(1, 0);
        let configs = [
            SchemeConfig::Uncoded,
            SchemeConfig::Bcc { r: 5 },
            SchemeConfig::Random { r: 5 },
            SchemeConfig::CyclicRepetition { r: 5 },
            SchemeConfig::CyclicMds { r: 5 },
            SchemeConfig::FractionalRepetition { r: 5 },
        ];
        for cfg in configs {
            let scheme = cfg.try_build(20, 20, &mut rng).expect("valid config");
            assert_eq!(scheme.name(), cfg.name());
            assert_eq!(scheme.num_workers(), 20);
            assert!(scheme.placement().covers_all());
        }
    }

    #[test]
    fn load_accounting() {
        assert_eq!(SchemeConfig::Uncoded.load(100, 50), 2);
        assert_eq!(SchemeConfig::Uncoded.load(50, 100), 1);
        assert_eq!(SchemeConfig::Bcc { r: 10 }.load(100, 50), 10);
    }

    #[test]
    fn cr_requires_square() {
        let mut rng = derive_rng(2, 0);
        let err = SchemeConfig::CyclicRepetition { r: 2 }
            .try_build(10, 5, &mut rng)
            .unwrap_err();
        assert!(
            matches!(err, BuildError::SquareRequired { m: 10, n: 5, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn square_error_names_the_constraint() {
        let mut rng = derive_rng(2, 1);
        let err = SchemeConfig::CyclicMds { r: 2 }
            .try_build(10, 5, &mut rng)
            .unwrap_err();
        assert!(err.to_string().contains("m = n"), "got {err}");
    }

    #[test]
    fn bcc_retries_until_covered() {
        // n barely above batch count still succeeds via retry.
        let mut rng = derive_rng(3, 0);
        let scheme = SchemeConfig::Bcc { r: 5 }
            .try_build(20, 8, &mut rng)
            .expect("retries reach coverage");
        assert!(scheme.placement().covers_all());
    }

    #[test]
    fn impossible_coverage_is_typed() {
        // 20 batches can never be covered by 2 single-batch draws.
        let mut rng = derive_rng(4, 0);
        let err = SchemeConfig::Bcc { r: 1 }
            .try_build(20, 2, &mut rng)
            .unwrap_err();
        assert!(
            matches!(
                err,
                BuildError::CoverageFailed {
                    m: 20,
                    n: 2,
                    r: 1,
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn spec_conversions_roundtrip() {
        for cfg in [
            SchemeConfig::Uncoded,
            SchemeConfig::Bcc { r: 5 },
            SchemeConfig::BccUncompressed { r: 5 },
            SchemeConfig::Random { r: 5 },
            SchemeConfig::CyclicRepetition { r: 5 },
            SchemeConfig::CyclicMds { r: 5 },
            SchemeConfig::FractionalRepetition { r: 5 },
        ] {
            let spec = cfg.spec();
            assert_eq!(spec.name, cfg.name());
            assert_eq!(SchemeConfig::from_spec(&spec).unwrap(), cfg);
        }
    }

    #[test]
    fn from_spec_requires_load_where_needed() {
        let err = SchemeConfig::from_spec(&SchemeSpec::named("bcc")).unwrap_err();
        assert!(matches!(err, BuildError::MissingLoad { .. }));
        assert!(SchemeConfig::from_spec(&SchemeSpec::named("uncoded")).is_ok());
    }

    #[test]
    fn serde_roundtrip() {
        let cfg = SchemeConfig::Bcc { r: 10 };
        let json = serde_json::to_string(&cfg).unwrap();
        assert_eq!(serde_json::from_str::<SchemeConfig>(&json).unwrap(), cfg);
    }
}
