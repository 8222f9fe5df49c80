//! Soft-margin support-vector classification (C-SVC).

use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::engine::{DotRowBank, EngineUsage, KernelEngine, KernelPath};
use crate::kernel::{distance_term, distance_term_bounds, dot_term, dot_term_bounds};
use crate::smo::{self, QMatrix, SmoParams, SmoProblem};
use crate::{Dataset, Kernel, Result, SvmError};

/// Hyper-parameters for [`Svc::train`].
///
/// # Example
///
/// ```
/// use stc_svm::{Kernel, SvcParams};
///
/// let params = SvcParams::new()
///     .with_c(10.0)
///     .with_kernel(Kernel::rbf(0.5))
///     .with_tolerance(1e-3);
/// assert_eq!(params.c(), 10.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SvcParams {
    c: f64,
    kernel: Kernel,
    tolerance: f64,
    max_iterations: usize,
    positive_weight: f64,
    negative_weight: f64,
    /// Kernel row-assembly implementation (defaulted on deserialization so
    /// pre-0.8 configs still load).
    #[serde(default)]
    kernel_path: KernelPath,
}

impl SvcParams {
    /// Default parameters: `C = 1`, RBF kernel with `gamma = 1`, LIBSVM
    /// tolerance `1e-3`.
    pub fn new() -> Self {
        SvcParams {
            c: 1.0,
            kernel: Kernel::default(),
            tolerance: 1e-3,
            max_iterations: 200_000,
            positive_weight: 1.0,
            negative_weight: 1.0,
            kernel_path: KernelPath::default(),
        }
    }

    /// Sets the soft-margin penalty `C`.
    pub fn with_c(mut self, c: f64) -> Self {
        self.c = c;
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

    /// Sets per-class weights, multiplying `C` for the positive/negative
    /// class respectively.  Useful when one class is much rarer (for example
    /// bad devices in a high-yield population).
    pub fn with_class_weights(mut self, positive: f64, negative: f64) -> Self {
        self.positive_weight = positive;
        self.negative_weight = negative;
        self
    }

    /// The soft-margin penalty.
    pub fn c(&self) -> f64 {
        self.c
    }

    /// The configured kernel.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// The SMO stopping tolerance.
    pub fn tolerance(&self) -> f64 {
        self.tolerance
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
        if !(self.positive_weight > 0.0) {
            return Err(SvmError::InvalidParameter {
                name: "positive_weight",
                value: self.positive_weight,
            });
        }
        if !(self.negative_weight > 0.0) {
            return Err(SvmError::InvalidParameter {
                name: "negative_weight",
                value: self.negative_weight,
            });
        }
        self.kernel.validate()
    }
}

impl Default for SvcParams {
    fn default() -> Self {
        SvcParams::new()
    }
}

/// `Q` matrix for classification: `Q[i][j] = y_i y_j K(x_i, x_j)`.
///
/// Kernel rows come from the [`KernelEngine`]; the label products multiply
/// exact `±1` factors on top, so the engine's numerical contract carries
/// through to `Q` unchanged.
struct SvcQ<'a> {
    engine: KernelEngine<'a>,
    labels: &'a [f64],
    diag: Vec<f64>,
}

impl<'a> SvcQ<'a> {
    fn new(data: &'a Dataset, kernel: Kernel, path: KernelPath, bank: Option<&DotRowBank>) -> Self {
        let engine = KernelEngine::with_bank(data, kernel, path, bank);
        let diag = (0..data.len()).map(|i| engine.diag(i)).collect();
        SvcQ { engine, labels: data.labels(), diag }
    }

    fn usage(&self) -> EngineUsage {
        self.engine.usage()
    }

    fn into_bank(self) -> DotRowBank {
        self.engine.into_bank()
    }
}

impl QMatrix for SvcQ<'_> {
    fn len(&self) -> usize {
        self.engine.len()
    }

    fn row(&self, i: usize, out: &mut [f64]) {
        self.engine.kernel_row(i, out);
        let yi = self.labels[i];
        for (cell, &yj) in out.iter_mut().zip(self.labels) {
            *cell *= yi * yj;
        }
    }

    fn rows(&self, indices: &[usize], out: &mut [f64]) {
        self.engine.kernel_rows(indices, out);
        let n = self.engine.len();
        for (row, &i) in out.chunks_exact_mut(n).zip(indices) {
            let yi = self.labels[i];
            for (cell, &yj) in row.iter_mut().zip(self.labels) {
                *cell *= yi * yj;
            }
        }
    }

    fn diag(&self, i: usize) -> f64 {
        self.diag[i]
    }
}

/// Support vectors per block of [`Svc::decision_function`]: the block's
/// inner quantities live in a stack buffer this long.
const SV_BLOCK: usize = 64;

/// A trained support-vector classifier.
///
/// The decision function is `f(x) = Σ_i a_i y_i K(x_i, x) - rho`; prediction
/// is `sign(f(x))` with ties broken toward the positive class.
///
/// # Storage
///
/// The support vectors are stored once, column-major: feature `j` of support
/// vector `i` sits at `j * support_vector_count() + i`.  Prediction walks
/// them in blocks of 64: one pass per feature accumulates every block
/// member's squared distance (RBF) or dot product in ascending feature order,
/// then each member gets its scalar outer function (`exp`, `powi`, `tanh`)
/// and `coef * k` is summed in support-vector order — the same operations in
/// the same order as `Σ coef · Kernel::eval(sv, x)`, so decisions are
/// bit-identical to that per-vector loop.  (The accumulators start at `0.0`
/// where `Iterator::sum` starts at `-0.0`; that can only flip the sign of a
/// zero kernel value, and the running sum, which starts at `+0.0`, is
/// unchanged by adding a zero of either sign.)  The wire format keeps the
/// row-major `support_vectors` field (see the `Deserialize` impl for what a
/// decoded model is checked for).
#[derive(Debug, Clone, PartialEq)]
pub struct Svc {
    kernel: Kernel,
    /// Support vectors, column-major (see the type docs).
    sv_columns: Vec<f64>,
    coefficients: Vec<f64>,
    /// Training-instance index of each support vector, enabling warm starts
    /// of related problems over the same training population.  Empty for
    /// deserialized 0.3-era models (they simply cannot seed warm starts).
    support_indices: Vec<usize>,
    rho: f64,
    dimension: usize,
    bias_shift: f64,
    /// SMO iterations spent training this model (0 for deserialized 0.3-era
    /// models).
    iterations: usize,
}

impl Svc {
    /// Trains a classifier on `data` (labels must be `+1`/`-1`).
    ///
    /// # Errors
    ///
    /// Returns an error when the dataset is empty or single-class, when a
    /// label is not `±1`, when hyper-parameters are invalid, or when the SMO
    /// solver fails to converge.
    pub fn train(data: &Dataset, params: &SvcParams) -> Result<Self> {
        Svc::train_warm(data, params, None)
    }

    /// [`Svc::train`] with an optional warm start from a model trained on
    /// the *same training instances* (typically over an overlapping feature
    /// subset, as in the greedy test-compaction loop where consecutive
    /// candidate kept sets differ by one measurement column).
    ///
    /// The warm model's support-vector alphas are mapped by training-instance
    /// index onto this problem, clipped to the feasible box, the equality
    /// constraint is repaired, and SMO solves from that point.  Warm starts
    /// only change the solver trajectory: the returned model satisfies
    /// exactly the same KKT stopping tolerance as a cold start.  A warm
    /// model that does not match the dataset (more instances than `data`
    /// has) is ignored and training falls back to a cold start.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Svc::train`].
    pub fn train_warm(data: &Dataset, params: &SvcParams, warm: Option<&Svc>) -> Result<Self> {
        Svc::train_with_bank(data, params, warm, None).map(|(model, _, _)| model)
    }

    /// [`Svc::train_warm`] that additionally threads the kernel engine's
    /// [`DotRowBank`] through training: `parent_bank` (dot rows recorded by
    /// the committed parent's training, if any) seeds this problem's kernel
    /// rows incrementally, and the returned bank holds the rows *this*
    /// training touched, ready for the next candidate generation.
    ///
    /// The bank is strictly an accelerator with the same contract as warm
    /// starts: an inapplicable bank (different column universe or population)
    /// is ignored, and the returned model satisfies the same stopping
    /// tolerance either way.  On [`KernelPath::Naive`] the returned bank is
    /// always empty.  The returned [`EngineUsage`] says how the parent bank
    /// fared — rows seeded versus rebuilt from scratch, and whether a
    /// supplied bank had to be ignored.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Svc::train`].
    pub fn train_with_bank(
        data: &Dataset,
        params: &SvcParams,
        warm: Option<&Svc>,
        parent_bank: Option<&DotRowBank>,
    ) -> Result<(Self, DotRowBank, EngineUsage)> {
        params.validate()?;
        if data.is_empty() {
            return Err(SvmError::EmptyDataset);
        }
        for &label in data.labels() {
            if label != 1.0 && label != -1.0 {
                return Err(SvmError::InvalidLabel(label));
            }
        }
        let positives = data.positive_count();
        if positives == 0 || positives == data.len() {
            return Err(SvmError::SingleClass);
        }

        let n = data.len();
        let y = data.labels().to_vec();
        let upper_bound: Vec<f64> = y
            .iter()
            .map(|&label| {
                if label > 0.0 {
                    params.c * params.positive_weight
                } else {
                    params.c * params.negative_weight
                }
            })
            .collect();
        let initial_alpha = match warm {
            Some(model) => model.project_alphas(&y, &upper_bound),
            None => vec![0.0; n],
        };
        let problem = SmoProblem { y: y.clone(), p: vec![-1.0; n], upper_bound, initial_alpha };
        let q = SvcQ::new(data, params.kernel, params.kernel_path, parent_bank);
        let smo_params = SmoParams {
            tolerance: params.tolerance,
            max_iterations: params.max_iterations,
            ..SmoParams::default()
        };
        let solution = smo::solve(&q, &problem, &smo_params)?;

        let mut coefficients = Vec::new();
        let mut support_indices = Vec::new();
        for (i, (&alpha, &label)) in solution.alpha.iter().zip(y.iter()).enumerate() {
            if alpha > 1e-12 {
                coefficients.push(alpha * label);
                support_indices.push(i);
            }
        }
        let sv_columns = (0..data.dimension())
            .flat_map(|j| support_indices.iter().map(move |&i| data.column(j)[i]))
            .collect();
        let model = Svc {
            kernel: params.kernel,
            sv_columns,
            coefficients,
            support_indices,
            rho: solution.rho,
            dimension: data.dimension(),
            bias_shift: 0.0,
            iterations: solution.iterations,
        };
        let usage = q.usage();
        Ok((model, q.into_bank(), usage))
    }

    /// Projects this model's dual variables onto a related problem over the
    /// same training instances: alphas land on the instance that produced
    /// them, are clipped to the new box, and the equality constraint is
    /// repaired.  Returns the zero vector (a plain cold start) when the
    /// model does not line up with the new problem.
    fn project_alphas(&self, y: &[f64], upper_bound: &[f64]) -> Vec<f64> {
        let n = y.len();
        let mut alpha = vec![0.0; n];
        for (&index, &coefficient) in self.support_indices.iter().zip(self.coefficients.iter()) {
            if index >= n {
                // Trained on a different (larger) population: cold start.
                return vec![0.0; n];
            }
            // `coefficient` is `alpha_i * y_i`, so its sign is the training
            // label; skip instances whose label changed (defensive — labels
            // are independent of the kept feature columns in the compaction
            // flow, so this should not trigger there).
            if y[index] * coefficient <= 0.0 {
                continue;
            }
            alpha[index] = coefficient.abs().min(upper_bound[index]);
        }
        smo::repair_equality_constraint(&mut alpha, y);
        alpha
    }

    /// Signed distance-like score of `x`; positive means the positive class.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not have [`Svc::dimension`] entries.
    pub fn decision_function(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dimension, "feature vector has wrong dimension");
        let mut inner = [0.0; SV_BLOCK];
        let mut sum = 0.0;
        for block in self.blocks() {
            let inner = &mut inner[..block.len()];
            inner.fill(0.0);
            for (j, &value) in x.iter().enumerate() {
                let column = self.column_block(j, &block);
                if self.kernel.uses_distance() {
                    accumulate(inner, column, |sv| distance_term(sv, value));
                } else {
                    accumulate(inner, column, |sv| dot_term(sv, value));
                }
            }
            for (&s, &coef) in inner.iter().zip(&self.coefficients[block]) {
                sum += coef * self.kernel.outer(s);
            }
        }
        sum - self.rho + self.bias_shift
    }

    /// Bounds of the decision function over the axis-aligned box
    /// `[lower, upper]`: returns `(min, max)` with
    /// `min <= f(y) <= max` for every `y` in the box, built from the
    /// per-support-vector kernel bounds ([`Kernel::eval_bounds`]) weighted
    /// by the sign of each coefficient.
    ///
    /// A strictly positive `min` proves every point of the box is
    /// classified positive; a strictly negative `max` proves every point
    /// negative — the capability behind the sequential tester's early
    /// exits.
    ///
    /// # Panics
    ///
    /// Panics if the bounds do not have [`Svc::dimension`] entries.
    pub fn decision_bounds(&self, lower: &[f64], upper: &[f64]) -> (f64, f64) {
        let mut min = 0.0;
        let mut max = 0.0;
        self.for_each_inner_bounds(lower, upper, |coef, lo, hi| {
            min += self.bound_term(coef, lo, hi, false);
            max += self.bound_term(coef, lo, hi, true);
        });
        let offset = self.bias_shift - self.rho;
        (min + offset, max + offset)
    }

    /// The upper bound of the decision function over the box
    /// `[lower, upper]`: exactly `decision_bounds(lower, upper).1` (the same
    /// terms summed in the same order), at half the outer-function cost —
    /// only the kernel bound a coefficient's sign selects is evaluated.  A
    /// strictly negative value proves every point of the box negative.
    ///
    /// # Panics
    ///
    /// Panics if the bounds do not have [`Svc::dimension`] entries.
    pub fn decision_upper_bound(&self, lower: &[f64], upper: &[f64]) -> f64 {
        let mut max = 0.0;
        self.for_each_inner_bounds(lower, upper, |coef, lo, hi| {
            max += self.bound_term(coef, lo, hi, true);
        });
        max + (self.bias_shift - self.rho)
    }

    /// One support vector's term of the decision bound: `coef` times the
    /// kernel bound that maximises (`upper`) or minimises the product.
    fn bound_term(&self, coef: f64, lo: f64, hi: f64, upper: bool) -> f64 {
        coef * self.kernel.outer_bound(lo, hi, (coef >= 0.0) == upper)
    }

    /// Calls `term(coef, lo, hi)` for every support vector in order, where
    /// `[lo, hi]` encloses the kernel's inner quantity (see
    /// [`Kernel::eval_bounds`]) as the input ranges over the box.
    fn for_each_inner_bounds(
        &self,
        lower: &[f64],
        upper: &[f64],
        mut term: impl FnMut(f64, f64, f64),
    ) {
        assert_eq!(lower.len(), self.dimension, "lower bound has wrong dimension");
        assert_eq!(upper.len(), self.dimension, "upper bound has wrong dimension");
        let mut lo = [0.0; SV_BLOCK];
        let mut hi = [0.0; SV_BLOCK];
        for block in self.blocks() {
            let (lo, hi) = (&mut lo[..block.len()], &mut hi[..block.len()]);
            lo.fill(0.0);
            hi.fill(0.0);
            for (j, (&l, &u)) in lower.iter().zip(upper).enumerate() {
                let column = self.column_block(j, &block);
                if self.kernel.uses_distance() {
                    accumulate_bounds(lo, hi, column, |sv| distance_term_bounds(sv, l, u));
                } else {
                    accumulate_bounds(lo, hi, column, |sv| dot_term_bounds(sv, l, u));
                }
            }
            for ((&coef, &lo), &hi) in self.coefficients[block].iter().zip(&*lo).zip(&*hi) {
                term(coef, lo, hi);
            }
        }
    }

    /// The support-vector index ranges of the prediction blocks.
    fn blocks(&self) -> impl Iterator<Item = Range<usize>> {
        let count = self.coefficients.len();
        (0..count).step_by(SV_BLOCK).map(move |start| start..count.min(start + SV_BLOCK))
    }

    /// Feature `j` of the support vectors in `block`.
    fn column_block(&self, j: usize, block: &Range<usize>) -> &[f64] {
        let offset = j * self.coefficients.len();
        &self.sv_columns[offset + block.start..offset + block.end]
    }

    /// Predicted class label (`+1.0` or `-1.0`).
    ///
    /// # Panics
    ///
    /// Panics if `x` does not have [`Svc::dimension`] entries.
    pub fn predict(&self, x: &[f64]) -> f64 {
        if self.decision_function(x) >= 0.0 {
            1.0
        } else {
            -1.0
        }
    }

    /// Fraction of samples in `data` whose predicted label matches the truth.
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 1.0;
        }
        let correct = data
            .iter()
            .filter(|s| (self.predict(&s.features) - s.label).abs() < f64::EPSILON)
            .count();
        correct as f64 / data.len() as f64
    }

    /// Returns a copy of this classifier whose decision threshold is shifted
    /// by `delta` (`f'(x) = f(x) + delta`).
    ///
    /// The guard-banding scheme of the paper (Section 4.2) builds two such
    /// perturbed models — one biased toward predicting *good*, one toward
    /// *bad* — and places devices on which they disagree into the guard band.
    pub fn with_bias_shift(&self, delta: f64) -> Svc {
        let mut shifted = self.clone();
        shifted.bias_shift += delta;
        shifted
    }

    /// Number of support vectors retained by training.
    pub fn support_vector_count(&self) -> usize {
        self.coefficients.len()
    }

    /// Expected input dimension.
    pub fn dimension(&self) -> usize {
        self.dimension
    }

    /// Kernel the model was trained with.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Offset `rho` of the decision function.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// SMO iterations the solver spent training this model (a warm start
    /// typically needs a small fraction of the cold-start count).
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Training-instance indices of the support vectors, aligned with the
    /// coefficient order.
    pub fn support_indices(&self) -> &[usize] {
        &self.support_indices
    }
}

/// Adds `term(sv)` to each block member's accumulator.
fn accumulate(acc: &mut [f64], column: &[f64], term: impl Fn(f64) -> f64) {
    for (a, &sv) in acc.iter_mut().zip(column) {
        *a += term(sv);
    }
}

/// Adds the bounds `term(sv)` to each block member's accumulators.
fn accumulate_bounds(
    lo: &mut [f64],
    hi: &mut [f64],
    column: &[f64],
    term: impl Fn(f64) -> (f64, f64),
) {
    for ((l, h), &sv) in lo.iter_mut().zip(hi.iter_mut()).zip(column) {
        let (t_lo, t_hi) = term(sv);
        *l += t_lo;
        *h += t_hi;
    }
}

/// The wire format of [`Svc`], unchanged by the column-major storage: one
/// `support_vectors` row per support vector, in coefficient order.
#[derive(Serialize, Deserialize)]
struct SvcWire {
    kernel: Kernel,
    support_vectors: Vec<Vec<f64>>,
    coefficients: Vec<f64>,
    /// Defaulted so 0.3-era models still load.
    #[serde(default)]
    support_indices: Vec<usize>,
    rho: f64,
    dimension: usize,
    bias_shift: f64,
    #[serde(default)]
    iterations: usize,
}

impl Serialize for Svc {
    fn serialize<S: serde::Serializer>(
        &self,
        serializer: S,
    ) -> std::result::Result<S::Ok, S::Error> {
        let count = self.coefficients.len();
        SvcWire {
            kernel: self.kernel,
            support_vectors: (0..count)
                .map(|i| (0..self.dimension).map(|j| self.sv_columns[j * count + i]).collect())
                .collect(),
            coefficients: self.coefficients.clone(),
            support_indices: self.support_indices.clone(),
            rho: self.rho,
            dimension: self.dimension,
            bias_shift: self.bias_shift,
            iterations: self.iterations,
        }
        .serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for Svc {
    /// Decodes the row-major wire format and rejects, naming the
    /// support-vector row, a model that could not predict: `support_vectors`
    /// and `coefficients` of different lengths, non-empty `support_indices`
    /// of another length, a row whose length is not `dimension`, or a
    /// non-finite value.
    fn deserialize<D: serde::Deserializer<'de>>(
        deserializer: D,
    ) -> std::result::Result<Self, D::Error> {
        Svc::from_wire(SvcWire::deserialize(deserializer)?)
            .map_err(|message| serde::de::Error::custom(format!("invalid svc model: {message}")))
    }
}

impl Svc {
    /// Validates a decoded model (see the `Deserialize` impl; an invalid
    /// kernel is rejected too) and stores its support vectors column-major.
    fn from_wire(wire: SvcWire) -> std::result::Result<Svc, String> {
        let rows = wire.support_vectors;
        let count = wire.coefficients.len();
        if rows.len() != count {
            return Err(format!(
                "support vector row {}: {} rows but {count} coefficients",
                rows.len().min(count),
                rows.len()
            ));
        }
        let indices = wire.support_indices.len();
        if indices != 0 && indices != count {
            return Err(format!(
                "support vector row {}: {indices} support indices for {count} rows",
                indices.min(count)
            ));
        }
        for (i, (row, coef)) in rows.iter().zip(&wire.coefficients).enumerate() {
            if row.len() != wire.dimension {
                return Err(format!(
                    "support vector row {i} has {} values, expected dimension {}",
                    row.len(),
                    wire.dimension
                ));
            }
            if let Some(value) = row.iter().chain([coef]).find(|v| !v.is_finite()) {
                return Err(format!("support vector row {i} holds non-finite value {value}"));
            }
        }
        if !(wire.rho.is_finite() && wire.bias_shift.is_finite()) {
            return Err(format!(
                "non-finite offset (rho {}, bias_shift {})",
                wire.rho, wire.bias_shift
            ));
        }
        wire.kernel.validate().map_err(|error| error.to_string())?;
        Ok(Svc {
            kernel: wire.kernel,
            sv_columns: (0..wire.dimension)
                .flat_map(|j| rows.iter().map(move |row| row[j]))
                .collect(),
            coefficients: wire.coefficients,
            support_indices: wire.support_indices,
            rho: wire.rho,
            dimension: wire.dimension,
            bias_shift: wire.bias_shift,
            iterations: wire.iterations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linearly_separable(n: usize) -> Dataset {
        let mut d = Dataset::new(2).unwrap();
        for i in 0..n {
            let x = i as f64 / n as f64;
            d.push(vec![x, x + 0.5], 1.0).unwrap();
            d.push(vec![x, x - 0.5], -1.0).unwrap();
        }
        d
    }

    /// XOR-like data that a linear kernel cannot separate but RBF can.
    fn xor_data() -> Dataset {
        let mut d = Dataset::new(2).unwrap();
        let centers =
            [([0.0, 0.0], 1.0), ([1.0, 1.0], 1.0), ([0.0, 1.0], -1.0), ([1.0, 0.0], -1.0)];
        for (c, label) in centers {
            for di in 0..5 {
                for dj in 0..5 {
                    let x = c[0] + 0.02 * di as f64;
                    let y = c[1] + 0.02 * dj as f64;
                    d.push(vec![x, y], label).unwrap();
                }
            }
        }
        d
    }

    #[test]
    fn separable_data_is_classified_perfectly() {
        let data = linearly_separable(30);
        let params = SvcParams::new().with_c(10.0).with_kernel(Kernel::linear());
        let model = Svc::train(&data, &params).unwrap();
        assert_eq!(model.accuracy(&data), 1.0);
        assert_eq!(model.predict(&[0.5, 1.0]), 1.0);
        assert_eq!(model.predict(&[0.5, 0.0]), -1.0);
    }

    #[test]
    fn rbf_solves_xor() {
        let data = xor_data();
        let params = SvcParams::new().with_c(50.0).with_kernel(Kernel::rbf(4.0));
        let model = Svc::train(&data, &params).unwrap();
        assert!(model.accuracy(&data) > 0.98, "accuracy {}", model.accuracy(&data));
        assert_eq!(model.predict(&[0.02, 0.02]), 1.0);
        assert_eq!(model.predict(&[0.98, 0.05]), -1.0);
    }

    #[test]
    fn training_rejects_bad_inputs() {
        let empty = Dataset::new(2).unwrap();
        let params = SvcParams::new();
        assert!(matches!(Svc::train(&empty, &params), Err(SvmError::EmptyDataset)));

        let mut single = Dataset::new(1).unwrap();
        single.push(vec![1.0], 1.0).unwrap();
        single.push(vec![2.0], 1.0).unwrap();
        assert!(matches!(Svc::train(&single, &params), Err(SvmError::SingleClass)));

        let mut bad_label = Dataset::new(1).unwrap();
        bad_label.push(vec![1.0], 2.0).unwrap();
        bad_label.push(vec![2.0], -1.0).unwrap();
        assert!(matches!(Svc::train(&bad_label, &params), Err(SvmError::InvalidLabel(_))));

        let data = linearly_separable(5);
        assert!(Svc::train(&data, &SvcParams::new().with_c(-1.0)).is_err());
        assert!(Svc::train(&data, &SvcParams::new().with_kernel(Kernel::rbf(0.0))).is_err());
        assert!(Svc::train(&data, &SvcParams::new().with_class_weights(0.0, 1.0)).is_err());
    }

    #[test]
    fn bias_shift_moves_the_boundary_monotonically() {
        let data = linearly_separable(20);
        let params = SvcParams::new().with_c(5.0).with_kernel(Kernel::linear());
        let model = Svc::train(&data, &params).unwrap();
        let x = [0.5, 0.45];
        let base = model.decision_function(&x);
        let up = model.with_bias_shift(0.3).decision_function(&x);
        let down = model.with_bias_shift(-0.3).decision_function(&x);
        assert!((up - base - 0.3).abs() < 1e-12);
        assert!((base - down - 0.3).abs() < 1e-12);
    }

    #[test]
    fn positively_shifted_model_never_predicts_bad_where_base_predicts_good() {
        let data = xor_data();
        let params = SvcParams::new().with_c(10.0).with_kernel(Kernel::rbf(2.0));
        let model = Svc::train(&data, &params).unwrap();
        let optimistic = model.with_bias_shift(0.2);
        for s in data.iter() {
            if model.predict(&s.features) > 0.0 {
                assert!(optimistic.predict(&s.features) > 0.0);
            }
        }
    }

    #[test]
    fn class_weights_bias_the_boundary_toward_the_weighted_class() {
        // Imbalanced, overlapping data: 40 positive, 8 negative.
        let mut d = Dataset::new(1).unwrap();
        for i in 0..40 {
            d.push(vec![0.4 + 0.01 * i as f64], 1.0).unwrap();
        }
        for i in 0..8 {
            d.push(vec![0.35 - 0.01 * i as f64], -1.0).unwrap();
        }
        let kernel = Kernel::rbf(2.0);
        let plain = Svc::train(&d, &SvcParams::new().with_c(1.0).with_kernel(kernel)).unwrap();
        let weighted = Svc::train(
            &d,
            &SvcParams::new().with_c(1.0).with_kernel(kernel).with_class_weights(1.0, 10.0),
        )
        .unwrap();
        // The negatively-weighted model should score the ambiguous midpoint
        // lower (more likely negative) than the unweighted model.
        let x = [0.37];
        assert!(weighted.decision_function(&x) <= plain.decision_function(&x) + 1e-9);
    }

    #[test]
    fn accuracy_of_empty_dataset_is_one() {
        let data = linearly_separable(5);
        let model = Svc::train(&data, &SvcParams::new().with_kernel(Kernel::linear())).unwrap();
        let empty = Dataset::new(2).unwrap();
        assert_eq!(model.accuracy(&empty), 1.0);
    }

    #[test]
    fn model_exposes_metadata() {
        let data = linearly_separable(10);
        let params = SvcParams::new().with_c(2.0).with_kernel(Kernel::linear());
        let model = Svc::train(&data, &params).unwrap();
        assert_eq!(model.dimension(), 2);
        assert!(model.support_vector_count() > 0);
        assert_eq!(model.support_indices().len(), model.support_vector_count());
        assert!(model.support_indices().iter().all(|&i| i < data.len()));
        assert_eq!(model.kernel(), Kernel::linear());
        assert!(model.rho().is_finite());
        assert!(model.iterations() > 0);
    }

    /// Warm-starting from a model of the *same* problem converges without
    /// iterating and reproduces the model.
    #[test]
    fn warm_start_from_itself_is_free() {
        let data = xor_data();
        let params = SvcParams::new().with_c(10.0).with_kernel(Kernel::rbf(2.0));
        let cold = Svc::train(&data, &params).unwrap();
        let warm = Svc::train_warm(&data, &params, Some(&cold)).unwrap();
        assert!(
            warm.iterations() <= cold.iterations() / 4,
            "warm {} vs cold {}",
            warm.iterations(),
            cold.iterations()
        );
        for sample in data.iter() {
            assert_eq!(warm.predict(&sample.features), cold.predict(&sample.features));
        }
    }

    /// Warm-starting across an overlapping feature subset (the compaction
    /// loop's case: same instances, one column dropped) converges to the
    /// same decisions as the cold start of the smaller problem.
    #[test]
    fn warm_start_across_a_dropped_column_matches_cold_training() {
        let data = xor_data();
        // The one-column projection of the XOR data: labels stay mixed, and
        // the instances line up index-for-index with the 2-D parent.
        let narrow = data.select_columns(&[0]).unwrap();
        let params = SvcParams::new().with_c(10.0).with_kernel(Kernel::rbf(2.0));
        let parent = Svc::train(&data, &params).unwrap();
        let cold = Svc::train(&narrow, &params).unwrap();
        let warm = Svc::train_warm(&narrow, &params, Some(&parent)).unwrap();
        assert_eq!(warm.dimension(), 1);
        // Both satisfy the same KKT tolerance; on this well-separated data
        // their decisions agree everywhere.
        for sample in narrow.iter() {
            assert_eq!(warm.predict(&sample.features), cold.predict(&sample.features));
        }
    }

    /// A warm model from an unrelated (larger) population is ignored rather
    /// than corrupting the start.
    #[test]
    fn mismatched_warm_models_fall_back_to_cold_training() {
        let big = linearly_separable(40);
        let small = linearly_separable(6);
        let params = SvcParams::new().with_c(5.0).with_kernel(Kernel::linear());
        let parent = Svc::train(&big, &params).unwrap();
        assert!(parent.support_indices().iter().any(|&i| i >= small.len()));
        let cold = Svc::train(&small, &params).unwrap();
        let warm = Svc::train_warm(&small, &params, Some(&parent)).unwrap();
        assert_eq!(warm.iterations(), cold.iterations());
        assert_eq!(warm, cold);
    }

    /// Overlapping two-class set over four uniform features: the label is a
    /// noisy nonlinear score, so RBF training needs thousands of SMO
    /// iterations on it.
    fn overlapping(n: usize) -> Dataset {
        let mut state = 2005;
        let rows: Vec<Vec<f64>> =
            (0..n).map(|_| (0..4).map(|_| smo::uniform(&mut state)).collect()).collect();
        let labels: Vec<f64> = rows
            .iter()
            .map(|x| {
                let noise = smo::uniform(&mut state) - 0.5;
                if x[0] + x[1] * x[2] - x[3] + 1.5 * noise > 0.25 {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect();
        Dataset::from_rows(&rows, &labels).unwrap()
    }

    /// Exact fingerprint of a trained model: iterations, `rho` bits, a hash
    /// of the coefficient bits, the support-vector count and a hash of the
    /// support indices.
    fn golden(model: &Svc) -> (usize, u64, u64, usize, u64) {
        (
            model.iterations,
            model.rho.to_bits(),
            smo::fingerprint(model.coefficients.iter().map(|c| c.to_bits())),
            model.support_indices.len(),
            smo::fingerprint(model.support_indices.iter().map(|&i| i as u64)),
        )
    }

    /// Bit-identity pin of the solver and kernel engine.  A cold RBF fit on
    /// 1500 overlapping samples evicts from the 512-row cache and runs long
    /// enough to shrink and unshrink; its warm child over one dropped column
    /// exercises the warm-start gradient and the parent dot-row bank.  Any
    /// change to these numbers is a change of numerics.
    #[test]
    fn golden_fits_are_bit_identical() {
        let data = overlapping(1500);
        let params = SvcParams::new().with_c(10.0).with_kernel(Kernel::rbf(2.0));
        let (cold, bank, cold_usage) = Svc::train_with_bank(&data, &params, None, None).unwrap();
        assert_eq!(
            golden(&cold),
            (4944, 13817814403611923137, 11361028990218442152, 835, 6748643591813500352)
        );
        assert_eq!(
            cold_usage,
            EngineUsage { seeded_rows: 0, rebuilt_rows: 1000, ignored_bank: false }
        );

        let child = data.select_columns(&[0, 1, 3]).unwrap();
        let (warm, _, warm_usage) =
            Svc::train_with_bank(&child, &params, Some(&cold), Some(&bank)).unwrap();
        assert_eq!(
            golden(&warm),
            (3798, 4598858106350934563, 14166495897471428820, 877, 16325809937166827943)
        );
        assert_eq!(
            warm_usage,
            EngineUsage { seeded_rows: 96, rebuilt_rows: 977, ignored_bank: false }
        );
    }

    /// The four kernel families, with parameters that keep every outer
    /// function in its interesting range on the fixtures below.
    fn kernels() -> [Kernel; 4] {
        [
            Kernel::linear(),
            Kernel::rbf(0.8),
            Kernel::polynomial(0.5, 1.0, 3),
            Kernel::sigmoid(0.3, -0.2),
        ]
    }

    /// The wire form of a model with `count` random support vectors of
    /// `dimension` features.
    fn random_wire(kernel: Kernel, count: usize, dimension: usize, state: &mut u64) -> SvcWire {
        SvcWire {
            kernel,
            support_vectors: (0..count)
                .map(|_| (0..dimension).map(|_| 3.0 * smo::uniform(state) - 1.0).collect())
                .collect(),
            coefficients: (0..count).map(|_| 20.0 * smo::uniform(state) - 10.0).collect(),
            support_indices: Vec::new(),
            rho: smo::uniform(state) - 0.5,
            dimension,
            bias_shift: 0.25,
            iterations: 0,
        }
    }

    /// A random model built through the wire-format validator, and its rows.
    fn random_model(
        kernel: Kernel,
        count: usize,
        dimension: usize,
        state: &mut u64,
    ) -> (Svc, Vec<Vec<f64>>) {
        let wire = random_wire(kernel, count, dimension, state);
        let rows = wire.support_vectors.clone();
        (Svc::from_wire(wire).unwrap(), rows)
    }

    /// Support-vector counts around the prediction block edges.
    const COUNTS: [usize; 5] = [1, SV_BLOCK - 1, SV_BLOCK, SV_BLOCK + 1, 300];
    const DIMENSIONS: [usize; 4] = [1, 2, 3, 8];

    /// The column-blocked decision is bit-identical to the per-vector loop
    /// `Σ coef · Kernel::eval(sv, x) - rho + bias_shift`, for every kernel and
    /// across the block edges (the all-zero input makes linear terms `-0.0`).
    #[test]
    fn blocked_decisions_equal_the_per_vector_loop_bitwise() {
        let mut state = 14;
        for kernel in kernels() {
            for count in COUNTS {
                for dimension in DIMENSIONS {
                    let (model, rows) = random_model(kernel, count, dimension, &mut state);
                    let mut inputs: Vec<Vec<f64>> = (0..8)
                        .map(|_| (0..dimension).map(|_| 2.0 * smo::uniform(&mut state)).collect())
                        .collect();
                    inputs.push(vec![0.0; dimension]);
                    for x in &inputs {
                        let mut sum = 0.0;
                        for (sv, &coef) in rows.iter().zip(&model.coefficients) {
                            sum += coef * kernel.eval(sv, x);
                        }
                        let reference = sum - model.rho + model.bias_shift;
                        assert_eq!(
                            model.decision_function(x).to_bits(),
                            reference.to_bits(),
                            "{kernel:?}, {count} SVs, dimension {dimension}"
                        );
                    }
                }
            }
        }
    }

    /// `decision_bounds` is bit-identical to the per-vector
    /// `Kernel::eval_bounds` loop, and `decision_upper_bound` to its upper
    /// side, on random boxes, point boxes and the tester's boxes (measured
    /// slots pinned, the rest spanning `[0, 1]`).
    #[test]
    fn blocked_bounds_equal_the_per_vector_loop_bitwise() {
        let mut state = 41;
        for kernel in kernels() {
            for count in COUNTS {
                for dimension in DIMENSIONS {
                    let (model, rows) = random_model(kernel, count, dimension, &mut state);
                    let mut boxes = Vec::new();
                    for _ in 0..4 {
                        let (a, b): (Vec<f64>, Vec<f64>) = (0..dimension)
                            .map(|_| {
                                (2.0 * smo::uniform(&mut state), 2.0 * smo::uniform(&mut state))
                            })
                            .unzip();
                        let lower = a.iter().zip(&b).map(|(x, y)| x.min(*y)).collect();
                        let upper = a.iter().zip(&b).map(|(x, y)| x.max(*y)).collect();
                        boxes.push((lower, upper));
                        boxes.push((a.clone(), a));
                    }
                    for measured in 0..=dimension {
                        let point: Vec<f64> =
                            (0..dimension).map(|_| smo::uniform(&mut state)).collect();
                        let lower =
                            (0..dimension).map(|j| if j < measured { point[j] } else { 0.0 });
                        let upper =
                            (0..dimension).map(|j| if j < measured { point[j] } else { 1.0 });
                        boxes.push((lower.collect(), upper.collect()));
                    }
                    for (lower, upper) in &boxes {
                        let (mut min, mut max) = (0.0, 0.0);
                        for (sv, &coef) in rows.iter().zip(&model.coefficients) {
                            let (k_lo, k_hi) = kernel.eval_bounds(sv, lower, upper);
                            if coef >= 0.0 {
                                min += coef * k_lo;
                                max += coef * k_hi;
                            } else {
                                min += coef * k_hi;
                                max += coef * k_lo;
                            }
                        }
                        let offset = model.bias_shift - model.rho;
                        let (lo, hi) = model.decision_bounds(lower, upper);
                        let context = format!("{kernel:?}, {count} SVs, box {lower:?}..{upper:?}");
                        assert_eq!(lo.to_bits(), (min + offset).to_bits(), "{context}");
                        assert_eq!(hi.to_bits(), (max + offset).to_bits(), "{context}");
                        assert_eq!(
                            model.decision_upper_bound(lower, upper).to_bits(),
                            hi.to_bits(),
                            "{context}"
                        );
                    }
                }
            }
        }
    }

    /// Decoded support vectors are checked row by row; the error names the
    /// offending row.  (JSON has no non-finite literals, so that case is
    /// exercised here rather than through a codec.)
    #[test]
    fn support_vector_rows_are_validated_by_row() {
        let wire = || random_wire(Kernel::rbf(1.0), 3, 2, &mut 7);
        let rejected = |edit: &dyn Fn(&mut SvcWire), expected: &[&str]| {
            let mut edited = wire();
            edit(&mut edited);
            let error = Svc::from_wire(edited).unwrap_err();
            for needle in expected {
                assert!(error.contains(needle), "`{needle}` missing from: {error}");
            }
        };
        assert!(Svc::from_wire(wire()).is_ok());
        rejected(&|w| w.support_vectors[1][0] = f64::NAN, &["row 1", "non-finite"]);
        rejected(&|w| w.coefficients[2] = f64::INFINITY, &["row 2", "non-finite"]);
        rejected(&|w| w.support_vectors[2].truncate(1), &["row 2", "dimension 2"]);
        rejected(&|w| w.support_vectors.truncate(2), &["row 2", "3 coefficients"]);
        rejected(&|w| w.support_indices = vec![0, 1], &["row 2", "2 support indices"]);
        rejected(&|w| w.rho = f64::NAN, &["non-finite offset"]);
    }
}
