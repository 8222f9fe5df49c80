//! Nyström low-rank approximate classifier — the cheap *screening* trainer.
//!
//! Training an exact C-SVM per candidate kept set makes the SMO solve the
//! dominant cost of a compaction search even with the blocked kernel engine
//! underneath.  This module provides the approximation the screen-then-verify
//! evaluation path ranks candidates with: instead of the full `n × n` kernel
//! matrix, only `m ≪ n` **landmark** rows are assembled
//! (`C[i][j] = K(l_j, x_i)`, batched through
//! [`KernelEngine::kernel_rows`]), and a regularized least-squares fit over
//! the landmark feature map
//!
//! ```text
//! f(x) = Σ_j β_j K(l_j, x) + b
//! ```
//!
//! replaces the dual solve.  This is the classic Nyström construction in its
//! *landmark-dual* parametrization: the approximate kernel
//! `K̂ = C W⁺ Cᵀ` never needs `W^{±1/2}` explicitly because the model is fit
//! (ridge-regularized) directly in the span of the landmark columns — one
//! `(m+1) × (m+1)` normal-equation solve, assembled in a single pass over
//! the landmark rows.
//!
//! The fit optimizes squared error against the `±1` labels rather than the
//! hinge loss, so decision *values* differ from the exact SVM's — but their
//! *ranking* of closely related candidate kept sets tracks the exact model
//! closely, which is all the screen needs: winners are always re-verified
//! exactly before a frontier commit.  Property tests pin sign agreement with
//! the exact model on the bundled op-amp fixture.
//!
//! # Determinism
//!
//! Landmark selection is a seeded partial Fisher–Yates draw (SplitMix64,
//! dependency-free), and every downstream step is a pure function of the
//! dataset — results never depend on thread count or timing.

use crate::engine::{KernelEngine, KernelPath};
use crate::{Dataset, Kernel, Result, SvmError};

/// Hyper-parameters for [`NystromModel::train`].
///
/// # Example
///
/// ```
/// use stc_svm::{Kernel, NystromParams};
///
/// let params = NystromParams::new()
///     .with_landmarks(24)
///     .with_kernel(Kernel::rbf(0.5));
/// assert_eq!(params.landmarks(), 24);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NystromParams {
    landmarks: usize,
    seed: u64,
    ridge: f64,
    kernel: Kernel,
    kernel_path: KernelPath,
}

impl NystromParams {
    /// Default parameters: 32 landmarks, the default RBF kernel, a small
    /// relative ridge, and a fixed seed (screening must be reproducible).
    pub fn new() -> Self {
        NystromParams {
            landmarks: 32,
            seed: 0x57C5_CEEDu64,
            ridge: 1e-6,
            kernel: Kernel::default(),
            kernel_path: KernelPath::default(),
        }
    }

    /// Sets the number of landmark samples (capped at the dataset size).
    pub fn with_landmarks(mut self, landmarks: usize) -> Self {
        self.landmarks = landmarks;
        self
    }

    /// Sets the landmark-selection seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the ridge coefficient (scaled by the sample count before being
    /// added to the normal-equation diagonal).
    pub fn with_ridge(mut self, ridge: f64) -> Self {
        self.ridge = ridge;
        self
    }

    /// Sets the kernel.
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Selects the kernel row-assembly implementation.
    pub fn with_kernel_path(mut self, kernel_path: KernelPath) -> Self {
        self.kernel_path = kernel_path;
        self
    }

    /// The configured landmark count.
    pub fn landmarks(&self) -> usize {
        self.landmarks
    }

    /// The configured kernel.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    fn validate(&self) -> Result<()> {
        if self.landmarks == 0 {
            return Err(SvmError::InvalidParameter { name: "landmarks", value: 0.0 });
        }
        if !(self.ridge >= 0.0 && self.ridge.is_finite()) {
            return Err(SvmError::InvalidParameter { name: "ridge", value: self.ridge });
        }
        self.kernel.validate()
    }
}

impl Default for NystromParams {
    fn default() -> Self {
        NystromParams::new()
    }
}

/// A trained Nyström approximate classifier (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub struct NystromModel {
    kernel: Kernel,
    /// Feature rows of the selected landmark samples.
    landmarks: Vec<Vec<f64>>,
    /// Landmark coefficients of the decision function.
    beta: Vec<f64>,
    bias: f64,
    dimension: usize,
}

/// SplitMix64 step: cheap, dependency-free, stable across platforms.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draws `m` distinct indices from `0..n` by a partial Fisher–Yates shuffle
/// seeded with `seed` (deterministic, order-stable across platforms).
fn select_landmarks(n: usize, m: usize, seed: u64) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in 0..m {
        let j = i + (splitmix64(&mut state) % (n - i) as u64) as usize;
        pool.swap(i, j);
    }
    pool.truncate(m);
    pool
}

impl NystromModel {
    /// Trains the approximate classifier on `data` (labels must be `±1`).
    ///
    /// # Errors
    ///
    /// Returns an error when the dataset is empty, a label is not `±1`, a
    /// hyper-parameter is invalid, or the (ridge-regularized) normal
    /// equations are numerically singular.
    // Indexed loops mirror the textbook normal-equation assembly (symmetric
    // writes to `system[j][k]` and `system[k][j]`); iterator forms obscure it.
    #[allow(clippy::needless_range_loop)]
    pub fn train(data: &Dataset, params: &NystromParams) -> Result<Self> {
        params.validate()?;
        if data.is_empty() {
            return Err(SvmError::EmptyDataset);
        }
        for &label in data.labels() {
            if label != 1.0 && label != -1.0 {
                return Err(SvmError::InvalidLabel(label));
            }
        }
        let n = data.len();
        let m = params.landmarks.min(n);
        let indices = select_landmarks(n, m, params.seed);

        // One batched pass assembles every landmark row K(l_j, ·).
        let engine = KernelEngine::new(data, params.kernel, params.kernel_path);
        let mut rows = vec![0.0; m * n];
        engine.kernel_rows(&indices, &mut rows);
        let row = |j: usize| &rows[j * n..(j + 1) * n];

        // Normal equations over z_i = [K(l_0, x_i), …, K(l_{m-1}, x_i), 1]:
        // (ZᵀZ + ridge·n·I) [β; b] = Zᵀy, with the bias coordinate left
        // unregularized (its diagonal is n and never vanishes).
        let dim = m + 1;
        let mut system = vec![vec![0.0; dim + 1]; dim];
        let y = data.labels();
        for j in 0..m {
            let row_j = row(j);
            for k in j..m {
                let dot: f64 = row_j.iter().zip(row(k)).map(|(&a, &b)| a * b).sum();
                system[j][k] = dot;
                system[k][j] = dot;
            }
            system[j][m] = row_j.iter().sum();
            system[m][j] = system[j][m];
            system[j][dim] = row_j.iter().zip(y).map(|(&a, &label)| a * label).sum();
            system[j][j] += params.ridge * n as f64;
        }
        system[m][m] = n as f64;
        system[m][dim] = y.iter().sum();

        let solution = solve_dense(&mut system)?;
        let (beta, bias) = {
            let mut beta = solution;
            let bias = beta.pop().expect("system has a bias coordinate");
            (beta, bias)
        };
        Ok(NystromModel {
            kernel: params.kernel,
            landmarks: indices.iter().map(|&i| data.features(i)).collect(),
            beta,
            bias,
            dimension: data.dimension(),
        })
    }

    /// Approximate decision value of `x`; positive means the positive class.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not have [`NystromModel::dimension`] entries.
    pub fn decision_function(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dimension, "feature vector has wrong dimension");
        let mut sum = self.bias;
        for (landmark, &coefficient) in self.landmarks.iter().zip(self.beta.iter()) {
            sum += coefficient * self.kernel.eval(landmark, x);
        }
        sum
    }

    /// Predicted class label (`+1.0` or `-1.0`).
    ///
    /// # Panics
    ///
    /// Panics if `x` does not have [`NystromModel::dimension`] entries.
    pub fn predict(&self, x: &[f64]) -> f64 {
        if self.decision_function(x) >= 0.0 {
            1.0
        } else {
            -1.0
        }
    }

    /// Number of landmarks the model was fit over.
    pub fn landmark_count(&self) -> usize {
        self.landmarks.len()
    }

    /// Expected input dimension.
    pub fn dimension(&self) -> usize {
        self.dimension
    }
}

/// Solves the dense augmented system `[A | b]` (each row holding its
/// right-hand side in the last column) by Gauss–Jordan elimination with
/// partial pivoting.  The systems here are tiny (`landmarks + 1` square), so
/// a direct dense solve beats anything fancier.
#[allow(clippy::needless_range_loop)] // pivoting reads and writes across rows
fn solve_dense(system: &mut [Vec<f64>]) -> Result<Vec<f64>> {
    let dim = system.len();
    for pivot_column in 0..dim {
        let pivot_row = (pivot_column..dim)
            .max_by(|&a, &b| {
                system[a][pivot_column]
                    .abs()
                    .partial_cmp(&system[b][pivot_column].abs())
                    .expect("pivot magnitudes are finite")
            })
            .expect("system has rows left to pivot");
        system.swap(pivot_column, pivot_row);
        let pivot = system[pivot_column][pivot_column];
        if !(pivot.abs() > f64::EPSILON) {
            return Err(SvmError::InvalidParameter { name: "nystrom system", value: pivot });
        }
        for column in pivot_column..=dim {
            system[pivot_column][column] /= pivot;
        }
        for other in 0..dim {
            if other == pivot_column {
                continue;
            }
            let factor = system[other][pivot_column];
            if factor == 0.0 {
                continue;
            }
            for column in pivot_column..=dim {
                let value = system[pivot_column][column];
                system[other][column] -= factor * value;
            }
        }
    }
    Ok((0..dim).map(|row| system[row][dim]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Svc, SvcParams};

    fn ring_data() -> Dataset {
        // Positive class inside a ring, negative outside — separable by RBF.
        let mut d = Dataset::new(2).unwrap();
        for i in 0..60 {
            let angle = i as f64 * std::f64::consts::TAU / 60.0;
            let r_in = 0.4 + 0.05 * (i % 3) as f64;
            let r_out = 1.2 + 0.05 * (i % 4) as f64;
            d.push(vec![r_in * angle.cos(), r_in * angle.sin()], 1.0).unwrap();
            d.push(vec![r_out * angle.cos(), r_out * angle.sin()], -1.0).unwrap();
        }
        d
    }

    #[test]
    fn landmark_selection_is_deterministic_and_distinct() {
        let a = select_landmarks(100, 20, 7);
        let b = select_landmarks(100, 20, 7);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20);
        assert!(sorted.iter().all(|&i| i < 100));
        let c = select_landmarks(100, 20, 8);
        assert_ne!(a, c, "different seeds draw different landmarks");
    }

    #[test]
    fn approximates_the_exact_decision_boundary() {
        let data = ring_data();
        let kernel = Kernel::rbf(1.5);
        let exact = Svc::train(&data, &SvcParams::new().with_c(10.0).with_kernel(kernel)).unwrap();
        let screen = NystromModel::train(
            &data,
            &NystromParams::new().with_landmarks(40).with_kernel(kernel),
        )
        .unwrap();
        let agree = data
            .iter()
            .filter(|s| screen.predict(&s.features) == exact.predict(&s.features))
            .count();
        assert!(
            agree as f64 / data.len() as f64 >= 0.95,
            "only {agree}/{} sign agreements",
            data.len()
        );
    }

    #[test]
    fn full_rank_fit_is_still_well_posed() {
        let data = ring_data();
        // landmarks > n caps at n; the ridge keeps the solve well posed.
        let screen = NystromModel::train(
            &data,
            &NystromParams::new().with_landmarks(10_000).with_kernel(Kernel::rbf(1.5)),
        )
        .unwrap();
        assert_eq!(screen.landmark_count(), data.len());
        assert!(screen.decision_function(&[0.0, 0.0]).is_finite());
    }

    #[test]
    fn rejects_invalid_inputs() {
        let data = ring_data();
        assert!(NystromModel::train(&data, &NystromParams::new().with_landmarks(0)).is_err());
        assert!(NystromModel::train(&data, &NystromParams::new().with_ridge(f64::NAN)).is_err());
        let empty = Dataset::new(2).unwrap();
        assert!(matches!(
            NystromModel::train(&empty, &NystromParams::new()),
            Err(SvmError::EmptyDataset)
        ));
        let mut bad = Dataset::new(1).unwrap();
        bad.push(vec![0.1], 2.0).unwrap();
        assert!(matches!(
            NystromModel::train(&bad, &NystromParams::new()),
            Err(SvmError::InvalidLabel(_))
        ));
    }

    #[test]
    fn training_is_deterministic() {
        let data = ring_data();
        let params = NystromParams::new().with_landmarks(16).with_kernel(Kernel::rbf(1.0));
        let a = NystromModel::train(&data, &params).unwrap();
        let b = NystromModel::train(&data, &params).unwrap();
        assert_eq!(a, b);
    }
}
