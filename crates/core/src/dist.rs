//! Duration/volume distributions for Monte-Carlo replication.
//!
//! The paper's WRM dot is computed from a single measured makespan, but
//! real task durations are distributions, not points (ROADMAP item 3).
//! A [`Dist`] describes how one phase quantity (FLOPs, bytes, or
//! seconds) varies across replications. This crate only defines the
//! *data type* — parameters, closed-form moments, and support bounds —
//! because `wrm-core` carries no RNG dependency; sampling lives in
//! `wrm_sim::mc`, which draws from these descriptions with a
//! per-replication splittable seed.
//!
//! Support bounds ([`Dist::bounds`]) are the contract the analytic
//! envelope relies on: every sample the Monte-Carlo engine draws is
//! guaranteed to land inside `[lo, hi]`, so a `certify` run on the
//! bound-substituted workflow brackets every sampled makespan. For the
//! lognormal this requires the sampler to clamp its standard normal
//! draw to `±`[`LOGNORMAL_Z_CLAMP`]; the bounds here bake in the same
//! clamp so the two sides cannot drift apart.

use serde::{Deserialize, Serialize};

/// The standard-normal clamp applied by the lognormal sampler (and
/// assumed by [`Dist::bounds`]): draws are truncated to `±8` sigma,
/// keeping the support finite without measurably distorting the
/// distribution (P(|z| > 8) ≈ 1e-15).
pub const LOGNORMAL_Z_CLAMP: f64 = 8.0;

/// A univariate distribution over one phase quantity.
///
/// Serialized with an internal `"dist"` tag, so specs round-trip
/// through JSON and the canonical fingerprint covers every parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "dist", rename_all = "snake_case")]
pub enum Dist {
    /// A point mass: every replication sees exactly `value`.
    Point {
        /// The constant value.
        value: f64,
    },
    /// Uniform on `[lo, hi]`.
    Uniform {
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
    },
    /// Lognormal parameterized by its median (`exp(mu)`) and the sigma
    /// of the underlying normal — the WfBench/task-survey convention,
    /// where median is in the phase's natural unit and sigma is
    /// dimensionless relative spread.
    LogNormal {
        /// Median of the distribution (`exp(mu)`), in quantity units.
        median: f64,
        /// Sigma of the underlying normal (dimensionless, `>= 0`).
        sigma: f64,
    },
    /// Triangular on `[lo, hi]` with mode `mode`.
    Triangular {
        /// Inclusive lower bound.
        lo: f64,
        /// Most likely value (`lo <= mode <= hi`).
        mode: f64,
        /// Inclusive upper bound.
        hi: f64,
    },
    /// An empirical weighted sample set: each replication draws one of
    /// the values with probability proportional to its weight.
    Empirical {
        /// `(value, weight)` pairs; weights need not be normalized.
        samples: Vec<(f64, f64)>,
    },
}

impl Dist {
    /// The distribution mean — the nominal the compiler lowers into
    /// the plain phase quantity, so deterministic `simulate`/`certify`
    /// runs see the expected workload.
    #[must_use]
    pub fn mean(&self) -> f64 {
        match self {
            Dist::Point { value } => *value,
            Dist::Uniform { lo, hi } => 0.5 * (lo + hi),
            Dist::LogNormal { median, sigma } => median * (0.5 * sigma * sigma).exp(),
            Dist::Triangular { lo, mode, hi } => (lo + mode + hi) / 3.0,
            Dist::Empirical { samples } => {
                let total: f64 = samples.iter().map(|(_, w)| w).sum();
                if total <= 0.0 {
                    return f64::NAN;
                }
                samples.iter().map(|(v, w)| v * w).sum::<f64>() / total
            }
        }
    }

    /// The support `[lo, hi]`: every sample falls inside (the lognormal
    /// bound assumes the sampler's `±`[`LOGNORMAL_Z_CLAMP`] clamp).
    #[must_use]
    pub fn bounds(&self) -> (f64, f64) {
        match self {
            Dist::Point { value } => (*value, *value),
            Dist::Uniform { lo, hi } | Dist::Triangular { lo, hi, .. } => (*lo, *hi),
            Dist::LogNormal { median, sigma } => (
                median * (-LOGNORMAL_Z_CLAMP * sigma).exp(),
                median * (LOGNORMAL_Z_CLAMP * sigma).exp(),
            ),
            Dist::Empirical { samples } => samples
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &(v, _)| {
                    (lo.min(v), hi.max(v))
                }),
        }
    }

    /// `Some(value)` when the distribution is a point mass in disguise
    /// (zero spread) — the degenerate-collapse detector's predicate.
    #[must_use]
    pub fn as_point(&self) -> Option<f64> {
        match self {
            Dist::Point { value } => Some(*value),
            Dist::Uniform { lo, hi } => (lo == hi).then_some(*lo),
            Dist::LogNormal { median, sigma } => (*sigma == 0.0).then_some(*median),
            Dist::Triangular { lo, mode, hi } => (lo == mode && mode == hi).then_some(*lo),
            Dist::Empirical { samples } => {
                let first = samples.first()?.0;
                samples.iter().all(|&(v, _)| v == first).then_some(first)
            }
        }
    }

    /// Parameter validation; `Err` carries a human-readable reason.
    /// Mirrors lint rule `E011` (invalid-distribution) so the compiler
    /// backstop and the linter reject exactly the same specs.
    pub fn validate(&self) -> Result<(), String> {
        fn finite(name: &str, v: f64) -> Result<(), String> {
            if v.is_finite() {
                Ok(())
            } else {
                Err(format!("{name} must be finite, got {v}"))
            }
        }
        match self {
            Dist::Point { value } => {
                finite("value", *value)?;
                if *value < 0.0 {
                    return Err(format!("value must be >= 0, got {value}"));
                }
            }
            Dist::Uniform { lo, hi } => {
                finite("lo", *lo)?;
                finite("hi", *hi)?;
                if *lo < 0.0 {
                    return Err(format!("lo must be >= 0, got {lo}"));
                }
                if lo > hi {
                    return Err(format!("lo ({lo}) must not exceed hi ({hi})"));
                }
            }
            Dist::LogNormal { median, sigma } => {
                finite("median", *median)?;
                finite("sigma", *sigma)?;
                if *median < 0.0 {
                    return Err(format!("median must be >= 0, got {median}"));
                }
                if *sigma < 0.0 {
                    return Err(format!("sigma must be >= 0, got {sigma}"));
                }
            }
            Dist::Triangular { lo, mode, hi } => {
                finite("lo", *lo)?;
                finite("mode", *mode)?;
                finite("hi", *hi)?;
                if *lo < 0.0 {
                    return Err(format!("lo must be >= 0, got {lo}"));
                }
                if lo > hi {
                    return Err(format!("lo ({lo}) must not exceed hi ({hi})"));
                }
                if mode < lo || mode > hi {
                    return Err(format!("mode ({mode}) must lie in [{lo}, {hi}]"));
                }
            }
            Dist::Empirical { samples } => {
                if samples.is_empty() {
                    return Err("empirical distribution needs at least one sample".into());
                }
                for &(v, w) in samples {
                    finite("sample value", v)?;
                    finite("sample weight", w)?;
                    if v < 0.0 {
                        return Err(format!("sample values must be >= 0, got {v}"));
                    }
                    if w <= 0.0 {
                        return Err(format!("sample weights must be > 0, got {w}"));
                    }
                }
            }
        }
        // Finite parameters can still overflow what the sampler and the
        // analytic envelope compute from them: a wide lognormal's
        // `exp(8 sigma)` or `exp(sigma^2 / 2)`, or `0 * inf` at median 0.
        let names = match self {
            Dist::LogNormal { .. } => [
                "lower bound median * exp(-8 * sigma)",
                "upper bound median * exp(8 * sigma)",
                "mean median * exp(sigma^2 / 2)",
            ],
            _ => ["lower bound", "upper bound", "mean"],
        };
        let (lo, hi) = self.bounds();
        finite(names[0], lo)?;
        finite(names[1], hi)?;
        finite(names[2], self.mean())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means_are_closed_form() {
        assert_eq!(Dist::Point { value: 3.0 }.mean(), 3.0);
        assert_eq!(Dist::Uniform { lo: 2.0, hi: 4.0 }.mean(), 3.0);
        let ln = Dist::LogNormal {
            median: 10.0,
            sigma: 0.5,
        };
        assert!((ln.mean() - 10.0 * (0.125f64).exp()).abs() < 1e-12);
        assert_eq!(
            Dist::Triangular {
                lo: 1.0,
                mode: 2.0,
                hi: 6.0
            }
            .mean(),
            3.0
        );
        let emp = Dist::Empirical {
            samples: vec![(1.0, 1.0), (3.0, 3.0)],
        };
        assert!((emp.mean() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn bounds_contain_mean() {
        let dists = [
            Dist::Point { value: 5.0 },
            Dist::Uniform { lo: 1.0, hi: 9.0 },
            Dist::LogNormal {
                median: 10.0,
                sigma: 0.3,
            },
            Dist::Triangular {
                lo: 1.0,
                mode: 4.0,
                hi: 9.0,
            },
            Dist::Empirical {
                samples: vec![(2.0, 1.0), (8.0, 1.0)],
            },
        ];
        for d in &dists {
            let (lo, hi) = d.bounds();
            let mean = d.mean();
            assert!(lo <= mean && mean <= hi, "{d:?}: [{lo}, {hi}] vs {mean}");
        }
    }

    #[test]
    fn point_mass_detection() {
        assert_eq!(Dist::Point { value: 2.0 }.as_point(), Some(2.0));
        assert_eq!(Dist::Uniform { lo: 3.0, hi: 3.0 }.as_point(), Some(3.0));
        assert_eq!(Dist::Uniform { lo: 3.0, hi: 4.0 }.as_point(), None);
        assert_eq!(
            Dist::LogNormal {
                median: 7.0,
                sigma: 0.0
            }
            .as_point(),
            Some(7.0)
        );
        assert_eq!(
            Dist::Triangular {
                lo: 1.0,
                mode: 1.0,
                hi: 1.0
            }
            .as_point(),
            Some(1.0)
        );
        assert_eq!(
            Dist::Empirical {
                samples: vec![(4.0, 1.0), (4.0, 2.0)]
            }
            .as_point(),
            Some(4.0)
        );
        assert_eq!(
            Dist::Empirical {
                samples: vec![(4.0, 1.0), (5.0, 2.0)]
            }
            .as_point(),
            None
        );
    }

    #[test]
    fn validation_rejects_bad_params() {
        assert!(Dist::Uniform { lo: 2.0, hi: 1.0 }.validate().is_err());
        assert!(Dist::LogNormal {
            median: 10.0,
            sigma: -0.5
        }
        .validate()
        .is_err());
        assert!(Dist::LogNormal {
            median: f64::NAN,
            sigma: 0.1
        }
        .validate()
        .is_err());
        assert!(Dist::Empirical { samples: vec![] }.validate().is_err());
        assert!(Dist::Empirical {
            samples: vec![(1.0, 0.0)]
        }
        .validate()
        .is_err());
        assert!(Dist::Triangular {
            lo: 1.0,
            mode: 5.0,
            hi: 3.0
        }
        .validate()
        .is_err());
        assert!(Dist::Uniform { lo: 1.0, hi: 2.0 }.validate().is_ok());
    }

    #[test]
    fn validation_rejects_overflowing_bounds_and_means() {
        let lognormal = |median, sigma| Dist::LogNormal { median, sigma }.validate();
        assert_eq!(
            lognormal(1e12, 100.0),
            Err("upper bound median * exp(8 * sigma) must be finite, got inf".into())
        );
        // exp(8 sigma) stays finite at sigma = 40; exp(sigma^2 / 2) does not.
        assert_eq!(
            lognormal(1.0, 40.0),
            Err("mean median * exp(sigma^2 / 2) must be finite, got inf".into())
        );
        // Median 0 makes the upper bound `0 * inf`.
        assert_eq!(
            lognormal(0.0, 100.0),
            Err("upper bound median * exp(8 * sigma) must be finite, got NaN".into())
        );
        assert!(lognormal(0.0, 0.5).is_ok());
        assert!(lognormal(1e12, 0.9).is_ok());
        assert_eq!(
            Dist::Uniform {
                lo: f64::MAX,
                hi: f64::MAX
            }
            .validate(),
            Err("mean must be finite, got inf".into())
        );
    }

    #[test]
    fn serde_round_trip_with_tag() {
        let d = Dist::LogNormal {
            median: 120.0,
            sigma: 0.3,
        };
        let json = serde_json::to_string(&d).unwrap();
        assert!(json.contains("\"dist\":\"log_normal\""), "{json}");
        let back: Dist = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
    }
}
