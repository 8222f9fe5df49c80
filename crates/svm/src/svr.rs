//! ε-support-vector regression.
//!
//! The paper argues (Section 4.1) that pass/fail prediction should be treated
//! as a *classification* problem rather than the regression formulation used
//! by earlier alternate-test work, because classification only needs training
//! coverage near the class boundary.  This module provides the regression
//! counterpart so the comparison can be reproduced (ablation A in DESIGN.md).

use std::cell::RefCell;

use serde::{Deserialize, Serialize};

use crate::engine::{KernelEngine, KernelPath};
use crate::smo::{self, QMatrix, SmoParams, SmoProblem};
use crate::{Dataset, Kernel, Result, SvmError};

/// Hyper-parameters for [`Svr::train`].
///
/// # Example
///
/// ```
/// use stc_svm::{Kernel, SvrParams};
///
/// let params = SvrParams::new()
///     .with_c(10.0)
///     .with_epsilon(0.05)
///     .with_kernel(Kernel::rbf(1.0));
/// assert_eq!(params.epsilon(), 0.05);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SvrParams {
    c: f64,
    epsilon: f64,
    kernel: Kernel,
    tolerance: f64,
    max_iterations: usize,
    /// Kernel row-assembly implementation (defaulted on deserialization so
    /// pre-0.8 configs still load).
    #[serde(default)]
    kernel_path: KernelPath,
}

impl SvrParams {
    /// Default parameters: `C = 1`, `epsilon = 0.1`, RBF kernel.
    pub fn new() -> Self {
        SvrParams {
            c: 1.0,
            epsilon: 0.1,
            kernel: Kernel::default(),
            tolerance: 1e-3,
            max_iterations: 200_000,
            kernel_path: KernelPath::default(),
        }
    }

    /// Sets the penalty `C`.
    pub fn with_c(mut self, c: f64) -> Self {
        self.c = c;
        self
    }

    /// Sets the width of the ε-insensitive tube.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the kernel.
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Sets the SMO stopping tolerance.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Sets the SMO iteration budget.
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// The penalty `C`.
    pub fn c(&self) -> f64 {
        self.c
    }

    /// The ε-tube half-width.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The configured kernel.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Selects the kernel row-assembly implementation (see [`KernelPath`]).
    pub fn with_kernel_path(mut self, kernel_path: KernelPath) -> Self {
        self.kernel_path = kernel_path;
        self
    }

    /// The configured kernel row-assembly implementation.
    pub fn kernel_path(&self) -> KernelPath {
        self.kernel_path
    }

    fn validate(&self) -> Result<()> {
        if !(self.c > 0.0 && self.c.is_finite()) {
            return Err(SvmError::InvalidParameter { name: "C", value: self.c });
        }
        if !(self.epsilon >= 0.0 && self.epsilon.is_finite()) {
            return Err(SvmError::InvalidParameter { name: "epsilon", value: self.epsilon });
        }
        self.kernel.validate()
    }
}

impl Default for SvrParams {
    fn default() -> Self {
        SvrParams::new()
    }
}

/// `Q` matrix for the expanded 2l-variable SVR dual.
///
/// Variables `0..l` correspond to `alpha` (sign +1), variables `l..2l` to
/// `alpha*` (sign -1); `Q[s][t] = sign_s * sign_t * K(s mod l, t mod l)`.
struct SvrQ<'a> {
    engine: KernelEngine<'a>,
    /// Number of training instances `l` (the expanded dual has `2l` rows).
    samples: usize,
    diag: Vec<f64>,
    /// Reusable base-kernel row of length `l`, expanded into `out` per call.
    scratch: RefCell<Vec<f64>>,
}

impl<'a> SvrQ<'a> {
    fn new(data: &'a Dataset, kernel: Kernel, path: KernelPath) -> Self {
        let engine = KernelEngine::new(data, kernel, path);
        let l = data.len();
        let mut diag = vec![0.0; 2 * l];
        for i in 0..l {
            let k = engine.diag(i);
            diag[i] = k;
            diag[i + l] = k;
        }
        SvrQ { engine, samples: l, diag, scratch: RefCell::new(vec![0.0; l]) }
    }

    fn sign(&self, t: usize) -> f64 {
        if t < self.samples {
            1.0
        } else {
            -1.0
        }
    }

    fn base(&self, t: usize) -> usize {
        t % self.samples
    }
}

impl QMatrix for SvrQ<'_> {
    fn len(&self) -> usize {
        2 * self.samples
    }

    fn row(&self, i: usize, out: &mut [f64]) {
        // One engine row over the l base instances serves both dual halves.
        let mut scratch = self.scratch.borrow_mut();
        self.engine.kernel_row(self.base(i), &mut scratch);
        let si = self.sign(i);
        let (alpha_half, alpha_star_half) = out[..2 * self.samples].split_at_mut(self.samples);
        for ((cell, starred), &k) in
            alpha_half.iter_mut().zip(alpha_star_half.iter_mut()).zip(scratch.iter())
        {
            *cell = si * k;
            *starred = -si * k;
        }
    }

    fn diag(&self, i: usize) -> f64 {
        self.diag[i]
    }
}

/// A trained ε-support-vector regressor.
///
/// The prediction is `f(x) = Σ_i beta_i K(x_i, x) + b` where
/// `beta_i = alpha_i - alpha*_i`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Svr {
    kernel: Kernel,
    support_vectors: Vec<Vec<f64>>,
    coefficients: Vec<f64>,
    /// Training-instance index of each support vector, enabling warm starts
    /// of related problems over the same training population.  Defaulted on
    /// deserialization so 0.3-era models still load (they simply cannot seed
    /// warm starts).
    #[serde(default)]
    support_indices: Vec<usize>,
    bias: f64,
    dimension: usize,
    /// SMO iterations spent training this model (0 for deserialized 0.3-era
    /// models).
    #[serde(default)]
    iterations: usize,
}

impl Svr {
    /// Trains a regressor.
    ///
    /// # Errors
    ///
    /// Returns an error when the dataset is empty, the hyper-parameters are
    /// invalid, or the SMO solver fails to converge.
    pub fn train(data: &Dataset, params: &SvrParams) -> Result<Self> {
        Svr::train_warm(data, params, None)
    }

    /// [`Svr::train`] with an optional warm start from a regressor trained
    /// on the *same training instances* (typically over an overlapping
    /// feature subset).
    ///
    /// The warm model's `beta_i = alpha_i - alpha*_i` coefficients are split
    /// back into the expanded `(alpha, alpha*)` pair on the instance that
    /// produced them, clipped to the feasible box, the equality constraint
    /// is repaired, and SMO solves from that point.  The returned model
    /// satisfies exactly the same KKT stopping tolerance as a cold start; a
    /// warm model that does not line up with `data` is ignored.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Svr::train`].
    pub fn train_warm(data: &Dataset, params: &SvrParams, warm: Option<&Svr>) -> Result<Self> {
        params.validate()?;
        if data.is_empty() {
            return Err(SvmError::EmptyDataset);
        }
        let l = data.len();
        let mut y = vec![1.0; 2 * l];
        let mut p = vec![0.0; 2 * l];
        for i in 0..l {
            let target = data.label(i);
            p[i] = params.epsilon - target;
            p[i + l] = params.epsilon + target;
            y[i + l] = -1.0;
        }
        let upper_bound = vec![params.c; 2 * l];
        let initial_alpha = match warm {
            Some(model) => model.project_alphas(l, &y, &upper_bound),
            None => vec![0.0; 2 * l],
        };
        let problem = SmoProblem { y, p, upper_bound, initial_alpha };
        let q = SvrQ::new(data, params.kernel, params.kernel_path);
        let smo_params = SmoParams {
            tolerance: params.tolerance,
            max_iterations: params.max_iterations,
            ..SmoParams::default()
        };
        let solution = smo::solve(&q, &problem, &smo_params)?;

        let mut support_vectors = Vec::new();
        let mut coefficients = Vec::new();
        let mut support_indices = Vec::new();
        for i in 0..l {
            let beta = solution.alpha[i] - solution.alpha[i + l];
            if beta.abs() > 1e-12 {
                support_vectors.push(data.features(i));
                coefficients.push(beta);
                support_indices.push(i);
            }
        }
        Ok(Svr {
            kernel: params.kernel,
            support_vectors,
            coefficients,
            support_indices,
            bias: -solution.rho,
            dimension: data.dimension(),
            iterations: solution.iterations,
        })
    }

    /// Projects this model's `beta` coefficients onto the expanded
    /// `2l`-variable dual of a related problem over the same `l` training
    /// instances (`alpha_i = max(beta_i, 0)`, `alpha*_i = max(-beta_i, 0)`,
    /// which holds at any optimum by complementarity), clips to the box and
    /// repairs the equality constraint.  Returns the zero vector when the
    /// model does not line up with the new problem.
    fn project_alphas(&self, l: usize, y: &[f64], upper_bound: &[f64]) -> Vec<f64> {
        let mut alpha = vec![0.0; 2 * l];
        for (&index, &beta) in self.support_indices.iter().zip(self.coefficients.iter()) {
            if index >= l {
                // Trained on a different (larger) population: cold start.
                return vec![0.0; 2 * l];
            }
            if beta >= 0.0 {
                alpha[index] = beta.min(upper_bound[index]);
            } else {
                alpha[index + l] = (-beta).min(upper_bound[index + l]);
            }
        }
        smo::repair_equality_constraint(&mut alpha, y);
        alpha
    }

    /// Predicted target value for `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not have [`Svr::dimension`] entries.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dimension, "feature vector has wrong dimension");
        let mut sum = self.bias;
        for (sv, &coef) in self.support_vectors.iter().zip(self.coefficients.iter()) {
            sum += coef * self.kernel.eval(sv, x);
        }
        sum
    }

    /// Root-mean-square prediction error over a dataset.
    pub fn rmse(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let sum: f64 = data
            .iter()
            .map(|s| {
                let e = self.predict(&s.features) - s.label;
                e * e
            })
            .sum();
        (sum / data.len() as f64).sqrt()
    }

    /// Number of support vectors.
    pub fn support_vector_count(&self) -> usize {
        self.support_vectors.len()
    }

    /// Expected input dimension.
    pub fn dimension(&self) -> usize {
        self.dimension
    }

    /// SMO iterations the solver spent training this model.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Training-instance indices of the support vectors, aligned with the
    /// coefficient order.
    pub fn support_indices(&self) -> &[usize] {
        &self.support_indices
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_data() -> Dataset {
        // y = 2x + 1 on [0, 1]
        let mut d = Dataset::new(1).unwrap();
        for i in 0..=20 {
            let x = i as f64 / 20.0;
            d.push(vec![x], 2.0 * x + 1.0).unwrap();
        }
        d
    }

    #[test]
    fn fits_a_line_with_linear_kernel() {
        let data = linear_data();
        let params =
            SvrParams::new().with_c(100.0).with_epsilon(0.01).with_kernel(Kernel::linear());
        let model = Svr::train(&data, &params).unwrap();
        assert!(model.rmse(&data) < 0.05, "rmse {}", model.rmse(&data));
        assert!((model.predict(&[0.5]) - 2.0).abs() < 0.1);
    }

    #[test]
    fn fits_a_smooth_nonlinear_function_with_rbf() {
        let mut d = Dataset::new(1).unwrap();
        for i in 0..=40 {
            let x = i as f64 / 40.0;
            d.push(vec![x], (2.0 * std::f64::consts::PI * x).sin()).unwrap();
        }
        let params =
            SvrParams::new().with_c(100.0).with_epsilon(0.01).with_kernel(Kernel::rbf(10.0));
        let model = Svr::train(&d, &params).unwrap();
        assert!(model.rmse(&d) < 0.1, "rmse {}", model.rmse(&d));
    }

    #[test]
    fn epsilon_tube_controls_sparsity() {
        let data = linear_data();
        let tight = Svr::train(
            &data,
            &SvrParams::new().with_c(10.0).with_epsilon(0.001).with_kernel(Kernel::linear()),
        )
        .unwrap();
        let loose = Svr::train(
            &data,
            &SvrParams::new().with_c(10.0).with_epsilon(0.5).with_kernel(Kernel::linear()),
        )
        .unwrap();
        // A wider tube tolerates more error and needs at most as many SVs.
        assert!(loose.support_vector_count() <= tight.support_vector_count());
    }

    #[test]
    fn rejects_invalid_parameters_and_empty_data() {
        let data = linear_data();
        assert!(Svr::train(&data, &SvrParams::new().with_c(0.0)).is_err());
        assert!(Svr::train(&data, &SvrParams::new().with_epsilon(-1.0)).is_err());
        let empty = Dataset::new(1).unwrap();
        assert!(matches!(Svr::train(&empty, &SvrParams::new()), Err(SvmError::EmptyDataset)));
    }

    /// Warm-starting from a regressor of the same problem converges in a
    /// small fraction of the cold iterations with matching predictions.
    #[test]
    fn warm_start_from_itself_is_nearly_free() {
        let data = linear_data();
        let params = SvrParams::new().with_c(10.0).with_epsilon(0.05).with_kernel(Kernel::rbf(3.0));
        let cold = Svr::train(&data, &params).unwrap();
        assert!(cold.iterations() > 0);
        let warm = Svr::train_warm(&data, &params, Some(&cold)).unwrap();
        assert!(
            warm.iterations() <= cold.iterations() / 4,
            "warm {} vs cold {}",
            warm.iterations(),
            cold.iterations()
        );
        for sample in data.iter() {
            assert!((warm.predict(&sample.features) - cold.predict(&sample.features)).abs() < 0.05);
        }
    }

    #[test]
    fn rmse_of_empty_dataset_is_zero() {
        let data = linear_data();
        let model = Svr::train(&data, &SvrParams::new().with_c(10.0).with_kernel(Kernel::linear()))
            .unwrap();
        assert_eq!(model.rmse(&Dataset::new(1).unwrap()), 0.0);
    }

    /// Bit-identity pin of an ε-SVR fit, whose `Q` rows each serve both
    /// halves of the 2·300-variable dual.  Any change to these numbers is a
    /// change of numerics.
    #[test]
    fn golden_fit_is_bit_identical() {
        let mut state = 13;
        let mut d = Dataset::new(2).unwrap();
        for _ in 0..300 {
            let x = [smo::uniform(&mut state), smo::uniform(&mut state)];
            let noise = 0.2 * (smo::uniform(&mut state) - 0.5);
            d.push(x.to_vec(), (3.0 * x[0]).sin() * x[1] + noise).unwrap();
        }
        let params = SvrParams::new().with_c(10.0).with_epsilon(0.05).with_kernel(Kernel::rbf(3.0));
        let model = Svr::train(&d, &params).unwrap();
        let golden = (
            model.iterations,
            model.bias.to_bits(),
            smo::fingerprint(model.coefficients.iter().map(|c| c.to_bits())),
            model.support_indices.len(),
            smo::fingerprint(model.support_indices.iter().map(|&i| i as u64)),
        );
        assert_eq!(
            golden,
            (3706, 4563955023093777071, 13423021809646738931, 150, 12013511337481402247)
        );
    }
}
