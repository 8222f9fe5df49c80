//! Kernel functions for SVM training and prediction.

use serde::{Deserialize, Serialize};

use crate::{Result, SvmError};

/// A positive-definite kernel `K(x, y)` used by [`crate::Svc`] and
/// [`crate::Svr`].
///
/// The paper's test-compaction flow uses an RBF kernel (the decision boundary
/// of a mixed analog/MEMS acceptance region is curved, see Figure 3); the
/// linear kernel is retained for the simpler cases and for fast unit tests.
///
/// # Example
///
/// ```
/// use stc_svm::Kernel;
///
/// let k = Kernel::rbf(0.5);
/// let same = k.eval(&[1.0, 2.0], &[1.0, 2.0]);
/// assert!((same - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Kernel {
    /// `K(x, y) = x · y`
    Linear,
    /// `K(x, y) = (gamma * x · y + coef0)^degree`
    Polynomial {
        /// Scale applied to the dot product.
        gamma: f64,
        /// Additive constant.
        coef0: f64,
        /// Polynomial degree.
        degree: u32,
    },
    /// `K(x, y) = exp(-gamma * ||x - y||^2)`
    Rbf {
        /// Width parameter; larger values make the kernel more local.
        gamma: f64,
    },
    /// `K(x, y) = tanh(gamma * x · y + coef0)`
    Sigmoid {
        /// Scale applied to the dot product.
        gamma: f64,
        /// Additive constant.
        coef0: f64,
    },
}

impl Kernel {
    /// Linear kernel.
    pub fn linear() -> Self {
        Kernel::Linear
    }

    /// Gaussian radial-basis-function kernel with the given `gamma`.
    pub fn rbf(gamma: f64) -> Self {
        Kernel::Rbf { gamma }
    }

    /// Polynomial kernel `(gamma x·y + coef0)^degree`.
    pub fn polynomial(gamma: f64, coef0: f64, degree: u32) -> Self {
        Kernel::Polynomial { gamma, coef0, degree }
    }

    /// Sigmoid (hyperbolic tangent) kernel.
    pub fn sigmoid(gamma: f64, coef0: f64) -> Self {
        Kernel::Sigmoid { gamma, coef0 }
    }

    /// Validates the kernel hyper-parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SvmError::InvalidParameter`] when `gamma` is not strictly
    /// positive or `degree` is zero.
    pub fn validate(&self) -> Result<()> {
        match *self {
            Kernel::Linear => Ok(()),
            Kernel::Rbf { gamma } | Kernel::Sigmoid { gamma, .. } => {
                if gamma > 0.0 && gamma.is_finite() {
                    Ok(())
                } else {
                    Err(SvmError::InvalidParameter { name: "gamma", value: gamma })
                }
            }
            Kernel::Polynomial { gamma, degree, .. } => {
                if !(gamma > 0.0 && gamma.is_finite()) {
                    Err(SvmError::InvalidParameter { name: "gamma", value: gamma })
                } else if degree == 0 {
                    Err(SvmError::InvalidParameter { name: "degree", value: 0.0 })
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Evaluates the kernel for two feature vectors.
    ///
    /// Both vectors must come from the same feature space: a [`crate::Dataset`]
    /// (whose constructors validate dimensions and finiteness once) or a
    /// prediction input of the same dimension.  Mismatched lengths are a
    /// caller bug, never valid data — release builds used to *silently
    /// truncate* to the shorter vector here (the `zip` ignores trailing
    /// elements), which turned dimension bugs into wrong kernel values; the
    /// guard is now unconditional.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths (debug **and** release
    /// builds).
    pub fn eval(&self, x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(x.len(), y.len(), "kernel arguments must have equal length");
        fn inner(x: &[f64], y: &[f64], term: impl Fn(f64, f64) -> f64) -> f64 {
            x.iter().zip(y.iter()).map(|(&a, &b)| term(a, b)).sum()
        }
        let s =
            if self.uses_distance() { inner(x, y, distance_term) } else { inner(x, y, dot_term) };
        self.outer(s)
    }

    /// Whether the kernel is a function of the squared distance `||x - y||²`
    /// (RBF) rather than of the dot product `x · y` (every other kernel):
    /// the *inner quantity* [`Kernel::outer`] maps to the kernel value.
    pub(crate) fn uses_distance(&self) -> bool {
        matches!(self, Kernel::Rbf { .. })
    }

    /// The kernel value from its inner quantity `s` (see
    /// [`Kernel::uses_distance`]).
    pub(crate) fn outer(&self, s: f64) -> f64 {
        match *self {
            Kernel::Linear => s,
            Kernel::Polynomial { gamma, coef0, degree } => (gamma * s + coef0).powi(degree as i32),
            Kernel::Rbf { gamma } => (-gamma * s).exp(),
            Kernel::Sigmoid { gamma, coef0 } => (gamma * s + coef0).tanh(),
        }
    }

    /// One side of the kernel's range while its inner quantity spans
    /// `[lo, hi]`: the maximum when `upper`, the minimum otherwise.  Each
    /// side costs one outer-function evaluation (one `exp` for RBF).
    pub(crate) fn outer_bound(&self, lo: f64, hi: f64, upper: bool) -> f64 {
        match *self {
            Kernel::Linear => {
                if upper {
                    hi
                } else {
                    lo
                }
            }
            Kernel::Polynomial { gamma, coef0, degree } => {
                let (p_lo, p_hi) =
                    powi_bounds(gamma * lo + coef0, gamma * hi + coef0, degree as i32);
                if upper {
                    p_hi
                } else {
                    p_lo
                }
            }
            Kernel::Rbf { gamma } => (-gamma * if upper { lo } else { hi }).exp(),
            Kernel::Sigmoid { gamma, coef0 } => {
                (gamma * if upper { hi } else { lo } + coef0).tanh()
            }
        }
    }

    /// A reasonable default `gamma` for RBF kernels: `1 / dimension`,
    /// matching the common LIBSVM heuristic.
    pub fn default_gamma(dimension: usize) -> f64 {
        if dimension == 0 {
            1.0
        } else {
            1.0 / dimension as f64
        }
    }

    /// Bounds of `K(x, y)` as `y` ranges over the axis-aligned box
    /// `[lower, upper]` (per-dimension inclusive bounds): returns
    /// `(min, max)` such that `min <= K(x, y) <= max` for every `y` in the
    /// box.  The bounds are exact per dimension (interval arithmetic over
    /// the dot product / squared distance, pushed through the monotone or
    /// piecewise-monotone outer function), which is what lets
    /// [`crate::Svc::decision_bounds`] prove a constant decision sign over a
    /// partially measured device.
    ///
    /// # Panics
    ///
    /// Panics if the three slices have different lengths.
    pub fn eval_bounds(&self, x: &[f64], lower: &[f64], upper: &[f64]) -> (f64, f64) {
        assert_eq!(x.len(), lower.len(), "kernel arguments must have equal length");
        assert_eq!(x.len(), upper.len(), "kernel arguments must have equal length");
        fn inner_bounds(
            x: &[f64],
            lower: &[f64],
            upper: &[f64],
            term: impl Fn(f64, f64, f64) -> (f64, f64),
        ) -> (f64, f64) {
            let (mut lo, mut hi) = (0.0, 0.0);
            for ((&a, &l), &u) in x.iter().zip(lower.iter()).zip(upper.iter()) {
                let (t_lo, t_hi) = term(a, l, u);
                lo += t_lo;
                hi += t_hi;
            }
            (lo, hi)
        }
        let (lo, hi) = if self.uses_distance() {
            inner_bounds(x, lower, upper, distance_term_bounds)
        } else {
            inner_bounds(x, lower, upper, dot_term_bounds)
        };
        (self.outer_bound(lo, hi, false), self.outer_bound(lo, hi, true))
    }
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::Rbf { gamma: 1.0 }
    }
}

/// One feature's term of the dot product `x · y`.
pub(crate) fn dot_term(a: f64, b: f64) -> f64 {
    a * b
}

/// One feature's term of the squared distance `||x - y||²`.
pub(crate) fn distance_term(a: f64, b: f64) -> f64 {
    let d = a - b;
    d * d
}

/// Bounds of the dot-product term `a * y` with `y ∈ [l, u]`: the term is
/// monotone in `y`, so the extremes sit at the interval endpoints.
pub(crate) fn dot_term_bounds(a: f64, l: f64, u: f64) -> (f64, f64) {
    let (t1, t2) = (a * l, a * u);
    (t1.min(t2), t1.max(t2))
}

/// Bounds of the squared-distance term `(a - y)²` with `y ∈ [l, u]`: smallest
/// at the projection of `a` onto the interval, largest at the farther
/// endpoint.
pub(crate) fn distance_term_bounds(a: f64, l: f64, u: f64) -> (f64, f64) {
    let near = (l - a).max(a - u).max(0.0);
    let (d1, d2) = (a - l, a - u);
    (near * near, (d1 * d1).max(d2 * d2))
}

/// Bounds of `s^degree` for `s ∈ [lo, hi]`: monotone for odd degrees; for
/// even degrees the minimum is 0 when the interval straddles zero.
fn powi_bounds(lo: f64, hi: f64, degree: i32) -> (f64, f64) {
    let (p_lo, p_hi) = (lo.powi(degree), hi.powi(degree));
    if degree % 2 != 0 {
        (p_lo, p_hi)
    } else if lo <= 0.0 && hi >= 0.0 {
        (0.0, p_lo.max(p_hi))
    } else {
        (p_lo.min(p_hi), p_lo.max(p_hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_kernel_is_dot_product() {
        let k = Kernel::linear();
        assert_eq!(k.eval(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn rbf_is_one_at_zero_distance_and_decays() {
        let k = Kernel::rbf(2.0);
        assert!((k.eval(&[1.0, 1.0], &[1.0, 1.0]) - 1.0).abs() < 1e-15);
        let near = k.eval(&[0.0, 0.0], &[0.1, 0.0]);
        let far = k.eval(&[0.0, 0.0], &[1.0, 0.0]);
        assert!(near > far);
        assert!(far > 0.0);
    }

    #[test]
    fn polynomial_matches_manual_expansion() {
        let k = Kernel::polynomial(1.0, 1.0, 2);
        // (x·y + 1)^2 with x·y = 2
        assert!((k.eval(&[1.0, 1.0], &[1.0, 1.0]) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn sigmoid_is_bounded() {
        let k = Kernel::sigmoid(0.5, 0.0);
        let v = k.eval(&[10.0, 10.0], &[10.0, 10.0]);
        assert!((-1.0..=1.0).contains(&v));
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        assert!(Kernel::rbf(0.0).validate().is_err());
        assert!(Kernel::rbf(-1.0).validate().is_err());
        assert!(Kernel::rbf(f64::NAN).validate().is_err());
        assert!(Kernel::polynomial(1.0, 0.0, 0).validate().is_err());
        assert!(Kernel::linear().validate().is_ok());
        assert!(Kernel::rbf(0.7).validate().is_ok());
    }

    #[test]
    fn default_gamma_follows_libsvm_heuristic() {
        assert_eq!(Kernel::default_gamma(4), 0.25);
        assert_eq!(Kernel::default_gamma(0), 1.0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn eval_rejects_mismatched_lengths_in_all_builds() {
        // Regression guard: this used to be a debug_assert, so release
        // builds silently truncated to the shorter vector.
        Kernel::linear().eval(&[1.0, 2.0], &[1.0]);
    }

    /// `eval_bounds` encloses the kernel value for every point of the box,
    /// and collapses to the exact value on a degenerate (point) box.
    #[test]
    fn eval_bounds_enclose_every_point_of_the_box() {
        let kernels = [
            Kernel::linear(),
            Kernel::rbf(0.8),
            Kernel::polynomial(0.5, 1.0, 2),
            Kernel::polynomial(0.5, -2.0, 3),
            Kernel::sigmoid(0.4, -0.1),
        ];
        let x = [0.7, -0.3, 1.4];
        let lower = [-0.5, 0.0, 0.2];
        let upper = [0.5, 1.0, 1.6];
        for k in kernels {
            let (lo, hi) = k.eval_bounds(&x, &lower, &upper);
            assert!(lo <= hi, "{k:?}");
            // Dense sample of the box.
            for i in 0..=4 {
                for j in 0..=4 {
                    for m in 0..=4 {
                        let y = [
                            lower[0] + (upper[0] - lower[0]) * i as f64 / 4.0,
                            lower[1] + (upper[1] - lower[1]) * j as f64 / 4.0,
                            lower[2] + (upper[2] - lower[2]) * m as f64 / 4.0,
                        ];
                        let value = k.eval(&x, &y);
                        assert!(
                            lo - 1e-12 <= value && value <= hi + 1e-12,
                            "{k:?}: {value} outside [{lo}, {hi}] at {y:?}"
                        );
                    }
                }
            }
            let point = [0.1, 0.5, 0.9];
            let (p_lo, p_hi) = k.eval_bounds(&x, &point, &point);
            let exact = k.eval(&x, &point);
            assert!((p_lo - exact).abs() < 1e-12 && (p_hi - exact).abs() < 1e-12, "{k:?}");
        }
    }

    #[test]
    fn kernels_are_symmetric() {
        let kernels = [
            Kernel::linear(),
            Kernel::rbf(0.3),
            Kernel::polynomial(0.5, 1.0, 3),
            Kernel::sigmoid(0.2, 0.1),
        ];
        let x = [0.3, -1.2, 2.5];
        let y = [1.1, 0.4, -0.9];
        for k in kernels {
            assert!((k.eval(&x, &y) - k.eval(&y, &x)).abs() < 1e-12, "{k:?} not symmetric");
        }
    }
}
