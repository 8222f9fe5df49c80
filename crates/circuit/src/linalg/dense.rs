//! Dense matrices and in-place, zero-skipping LU solves (real and complex).

use std::ops::{AddAssign, Div, Mul, SubAssign};

use serde::{Deserialize, Serialize};

use super::Complex;
use crate::CircuitError;

/// A dense, row-major `n × n` matrix of generic scalars.
///
/// # Example
///
/// ```
/// use stc_circuit::linalg::{solve_real, Matrix};
///
/// # fn main() -> Result<(), stc_circuit::CircuitError> {
/// let mut a = Matrix::zeros(2);
/// a[(0, 0)] = 2.0;
/// a[(1, 1)] = 4.0;
/// let x = solve_real(a, vec![2.0, 8.0])?;
/// assert_eq!(x, vec![1.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix<T> {
    n: usize,
    values: Vec<T>,
}

impl<T: Copy + Default> Matrix<T> {
    /// Creates an `n × n` matrix filled with the default scalar (zero).
    pub fn zeros(n: usize) -> Self {
        Matrix { n, values: vec![T::default(); n * n] }
    }

    /// Matrix dimension.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Resets every entry to the default scalar, keeping the allocation.
    pub fn clear(&mut self) {
        for v in &mut self.values {
            *v = T::default();
        }
    }
}

impl<T> std::ops::Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    fn index(&self, (row, col): (usize, usize)) -> &T {
        &self.values[row * self.n + col]
    }
}

impl<T> std::ops::IndexMut<(usize, usize)> for Matrix<T> {
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut T {
        &mut self.values[row * self.n + col]
    }
}

impl<T: Copy + AddAssign> Matrix<T> {
    /// Adds `value` to entry `(row, col)` — the MNA "stamp" primitive.
    pub fn add(&mut self, row: usize, col: usize, value: T) {
        self.values[row * self.n + col] += value;
    }
}

/// The scalar arithmetic the elimination needs, implemented for the real and
/// the complex solver with exactly the operations each has always used.
pub(crate) trait Scalar:
    Copy + Default + Mul<Output = Self> + Div<Output = Self> + SubAssign
{
    /// Magnitude compared when choosing a pivot.
    fn magnitude(self) -> f64;
    /// Whether the value is exactly zero (either sign).
    fn is_zero(self) -> bool;
    /// Whether every part of the value is finite.
    fn is_finite(self) -> bool;
}

impl Scalar for f64 {
    fn magnitude(self) -> f64 {
        self.abs()
    }
    fn is_zero(self) -> bool {
        self == 0.0
    }
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
}

impl Scalar for Complex {
    fn magnitude(self) -> f64 {
        self.norm()
    }
    fn is_zero(self) -> bool {
        self.re == 0.0 && self.im == 0.0
    }
    fn is_finite(self) -> bool {
        Complex::is_finite(&self)
    }
}

/// Solves `A x = b` in place by Gaussian elimination with partial pivoting,
/// writing the solution into `x`.
///
/// `a` and `b` are overwritten by the elimination, and `cols` is scratch
/// space: callers that solve many systems of one size (every Newton
/// iteration of an analysis, every frequency of a sweep) keep all four
/// buffers and allocate nothing per solve.
///
/// Each pivot step picks the first row of largest magnitude in the pivot
/// column, gathers the pivot row's non-zero columns right of the diagonal
/// into `cols`, and updates only those columns of each lower row whose
/// factor is non-zero. Entries left of the diagonal below it are never read
/// again, so they are neither swapped nor updated. A skipped update would
/// subtract `factor·0`, which can change only the sign of a zero entry; that
/// sign never reaches `x` unless `b` holds a negative zero, which MNA
/// assembly never produces. A non-finite factor updates every column, as a
/// dense elimination does.
///
/// # Errors
///
/// Returns [`CircuitError::SingularMatrix`] when a pivot magnitude is below
/// `1e-300`, which for MNA systems indicates a floating node or an
/// inconsistent source loop.
///
/// # Panics
///
/// Panics if `b` or `x` does not have the matrix's length.
pub(crate) fn solve_into<T: Scalar>(
    a: &mut Matrix<T>,
    b: &mut [T],
    x: &mut [T],
    cols: &mut Vec<usize>,
) -> Result<(), CircuitError> {
    let n = a.size();
    assert_eq!(b.len(), n, "rhs length must match matrix size");
    assert_eq!(x.len(), n, "solution length must match matrix size");
    let values = &mut a.values;
    for k in 0..n {
        // Partial pivoting: the first row of largest magnitude in column k.
        let mut pivot_row = k;
        let mut pivot_mag = values[k * n + k].magnitude();
        for r in (k + 1)..n {
            let mag = values[r * n + k].magnitude();
            if mag > pivot_mag {
                pivot_mag = mag;
                pivot_row = r;
            }
        }
        if pivot_mag < 1e-300 {
            return Err(CircuitError::SingularMatrix { pivot: k });
        }
        if pivot_row != k {
            for c in k..n {
                values.swap(k * n + c, pivot_row * n + c);
            }
            b.swap(k, pivot_row);
        }
        let (upper, lower) = values.split_at_mut((k + 1) * n);
        let pivot_values = &upper[k * n..];
        let pivot = pivot_values[k];
        // Rows with a zero in the pivot column have a zero factor, and so
        // need neither the division nor an update, unless `0 / pivot` is NaN.
        let zero_entries_skip = (T::default() / pivot).is_zero();
        cols.clear();
        cols.extend(((k + 1)..n).filter(|&c| !pivot_values[c].is_zero()));
        let (b_upper, b_lower) = b.split_at_mut(k + 1);
        let b_pivot = b_upper[k];
        for (row, b_row) in lower.chunks_exact_mut(n).zip(b_lower) {
            if zero_entries_skip && row[k].is_zero() {
                continue;
            }
            let factor = row[k] / pivot;
            if factor.is_zero() {
                continue;
            }
            if factor.is_finite() {
                for &c in cols.iter() {
                    row[c] -= factor * pivot_values[c];
                }
            } else {
                for c in (k + 1)..n {
                    row[c] -= factor * pivot_values[c];
                }
            }
            *b_row -= factor * b_pivot;
        }
    }
    // Back substitution.
    for k in (0..n).rev() {
        let row = &values[k * n..(k + 1) * n];
        let mut sum = b[k];
        for (value, solved) in row[k + 1..].iter().zip(&x[k + 1..]) {
            sum -= *value * *solved;
        }
        x[k] = sum / row[k];
    }
    Ok(())
}

/// Solves `A x = b` for real `A` by LU factorization with partial pivoting,
/// consuming the system: a thin wrapper over the in-place, zero-skipping
/// elimination the simulator's analyses run on reused buffers.
///
/// # Errors
///
/// Returns [`CircuitError::SingularMatrix`] when a pivot is (numerically)
/// zero, which for MNA systems indicates a floating node or an inconsistent
/// source loop.
pub fn solve_real(mut a: Matrix<f64>, mut b: Vec<f64>) -> Result<Vec<f64>, CircuitError> {
    let mut x = vec![0.0; a.size()];
    solve_into(&mut a, &mut b, &mut x, &mut Vec::new())?;
    Ok(x)
}

/// Solves `A x = b` for complex `A` by LU factorization with partial
/// pivoting, consuming the system; see [`solve_real`].
///
/// # Errors
///
/// Returns [`CircuitError::SingularMatrix`] when a pivot magnitude vanishes.
pub fn solve_complex(
    mut a: Matrix<Complex>,
    mut b: Vec<Complex>,
) -> Result<Vec<Complex>, CircuitError> {
    let mut x = vec![Complex::zero(); a.size()];
    solve_into(&mut a, &mut b, &mut x, &mut Vec::new())?;
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_small_real_system() {
        // [2 1; 1 3] x = [3; 5]  =>  x = [0.8, 1.4]
        let mut a = Matrix::zeros(2);
        a[(0, 0)] = 2.0;
        a[(0, 1)] = 1.0;
        a[(1, 0)] = 1.0;
        a[(1, 1)] = 3.0;
        let x = solve_real(a, vec![3.0, 5.0]).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // [0 1; 1 0] x = [2; 3]  =>  x = [3, 2]
        let mut a = Matrix::zeros(2);
        a[(0, 1)] = 1.0;
        a[(1, 0)] = 1.0;
        let x = solve_real(a, vec![2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let mut a = Matrix::zeros(2);
        a[(0, 0)] = 1.0;
        a[(0, 1)] = 2.0;
        a[(1, 0)] = 2.0;
        a[(1, 1)] = 4.0;
        assert!(matches!(solve_real(a, vec![1.0, 2.0]), Err(CircuitError::SingularMatrix { .. })));
    }

    #[test]
    fn random_real_systems_round_trip() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for n in [1usize, 3, 7, 15] {
            let mut a = Matrix::zeros(n);
            for r in 0..n {
                for c in 0..n {
                    a[(r, c)] = rng.gen_range(-1.0..1.0);
                }
                a[(r, r)] += 3.0; // diagonally dominant => well conditioned
            }
            let x_true: Vec<f64> = (0..n).map(|i| i as f64 - 1.5).collect();
            let mut b = vec![0.0; n];
            for r in 0..n {
                for c in 0..n {
                    b[r] += a[(r, c)] * x_true[c];
                }
            }
            let x = solve_real(a, b).unwrap();
            for (xi, ti) in x.iter().zip(x_true.iter()) {
                assert!((xi - ti).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn solves_complex_system() {
        // (1 + j) x = 2j  =>  x = 1 + j
        let mut a = Matrix::zeros(1);
        a[(0, 0)] = Complex::new(1.0, 1.0);
        let x = solve_complex(a, vec![Complex::new(0.0, 2.0)]).unwrap();
        assert!((x[0].re - 1.0).abs() < 1e-12);
        assert!((x[0].im - 1.0).abs() < 1e-12);
    }

    #[test]
    fn complex_round_trip() {
        let n = 5;
        let mut a = Matrix::zeros(n);
        for r in 0..n {
            for c in 0..n {
                a[(r, c)] = Complex::new((r + c) as f64 * 0.1, (r as f64 - c as f64) * 0.2);
            }
            a[(r, r)] += Complex::real(4.0);
        }
        let x_true: Vec<Complex> =
            (0..n).map(|i| Complex::new(i as f64, -(i as f64) / 2.0)).collect();
        let mut b = vec![Complex::zero(); n];
        for r in 0..n {
            for c in 0..n {
                b[r] += a[(r, c)] * x_true[c];
            }
        }
        let x = solve_complex(a, b).unwrap();
        for (xi, ti) in x.iter().zip(x_true.iter()) {
            assert!((*xi - *ti).norm() < 1e-9);
        }
    }

    /// The dense elimination the in-place solver replaced, kept verbatim as
    /// the bit-exact reference: every column from the diagonal on is updated
    /// and whole rows are swapped.
    fn reference_real(mut a: Matrix<f64>, mut b: Vec<f64>) -> Result<Vec<f64>, CircuitError> {
        let n = a.size();
        for k in 0..n {
            let mut pivot_row = k;
            let mut pivot_mag = a[(k, k)].abs();
            for r in (k + 1)..n {
                let mag = a[(r, k)].abs();
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = r;
                }
            }
            if pivot_mag < 1e-300 {
                return Err(CircuitError::SingularMatrix { pivot: k });
            }
            if pivot_row != k {
                for c in 0..n {
                    let tmp = a[(k, c)];
                    a[(k, c)] = a[(pivot_row, c)];
                    a[(pivot_row, c)] = tmp;
                }
                b.swap(k, pivot_row);
            }
            let pivot = a[(k, k)];
            for r in (k + 1)..n {
                let factor = a[(r, k)] / pivot;
                if factor == 0.0 {
                    continue;
                }
                for c in k..n {
                    let v = a[(k, c)];
                    a[(r, c)] -= factor * v;
                }
                b[r] -= factor * b[k];
            }
        }
        let mut x = vec![0.0; n];
        for k in (0..n).rev() {
            let mut sum = b[k];
            for c in (k + 1)..n {
                sum -= a[(k, c)] * x[c];
            }
            x[k] = sum / a[(k, k)];
        }
        Ok(x)
    }

    /// The complex counterpart of [`reference_real`], verbatim.
    fn reference_complex(
        mut a: Matrix<Complex>,
        mut b: Vec<Complex>,
    ) -> Result<Vec<Complex>, CircuitError> {
        let n = a.size();
        for k in 0..n {
            let mut pivot_row = k;
            let mut pivot_mag = a[(k, k)].norm();
            for r in (k + 1)..n {
                let mag = a[(r, k)].norm();
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = r;
                }
            }
            if pivot_mag < 1e-300 {
                return Err(CircuitError::SingularMatrix { pivot: k });
            }
            if pivot_row != k {
                for c in 0..n {
                    let tmp = a[(k, c)];
                    a[(k, c)] = a[(pivot_row, c)];
                    a[(pivot_row, c)] = tmp;
                }
                b.swap(k, pivot_row);
            }
            let pivot = a[(k, k)];
            for r in (k + 1)..n {
                let factor = a[(r, k)] / pivot;
                if factor.norm() == 0.0 {
                    continue;
                }
                for c in k..n {
                    let v = a[(k, c)];
                    a[(r, c)] -= factor * v;
                }
                b[r] = b[r] - factor * b[k];
            }
        }
        let mut x = vec![Complex::zero(); n];
        for k in (0..n).rev() {
            let mut sum = b[k];
            for c in (k + 1)..n {
                sum -= a[(k, c)] * x[c];
            }
            x[k] = sum / a[(k, k)];
        }
        Ok(x)
    }

    /// The shapes the equivalence test draws: sparse, with a zero diagonal,
    /// exactly singular, or holding a non-finite entry.
    #[derive(Clone, Copy)]
    enum Shape {
        Sparse,
        ZeroDiagonal,
        Singular,
        NonFinite,
    }

    /// A random `n × n` pattern of `shape`: an entry is drawn by `value`
    /// where the pattern is set, and is exactly zero elsewhere.
    fn random_system<T: Copy + Default>(
        rng: &mut rand::rngs::StdRng,
        n: usize,
        shape: Shape,
        mut value: impl FnMut(&mut rand::rngs::StdRng) -> T,
        special: T,
    ) -> (Matrix<T>, Vec<T>) {
        use rand::Rng;
        let density = rng.gen_range(0.1..0.9);
        let mut a = Matrix::zeros(n);
        for r in 0..n {
            for c in 0..n {
                if r == c || rng.gen_range(0.0..1.0) < density {
                    a[(r, c)] = value(rng);
                }
            }
        }
        match shape {
            Shape::Sparse => {}
            Shape::ZeroDiagonal => (0..n).for_each(|i| a[(i, i)] = T::default()),
            Shape::Singular if n > 1 => {
                // A duplicated row or an empty column.
                let (from, to) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if rng.gen::<bool>() && from != to {
                    (0..n).for_each(|c| a[(to, c)] = a[(from, c)]);
                } else {
                    (0..n).for_each(|r| a[(r, to)] = T::default());
                }
            }
            Shape::Singular => a[(0, 0)] = T::default(),
            Shape::NonFinite => a[(rng.gen_range(0..n), rng.gen_range(0..n))] = special,
        }
        let b = (0..n).map(|_| value(rng)).collect();
        (a, b)
    }

    fn same_bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    #[test]
    fn in_place_elimination_matches_the_dense_reference_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let shapes = [Shape::Sparse, Shape::ZeroDiagonal, Shape::Singular, Shape::NonFinite];
        let mut rng = StdRng::seed_from_u64(2005);
        // Small integers cancel exactly, so eliminations create exact zeros
        // mid-factorisation; continuous draws exercise rounding.
        let real = |rng: &mut StdRng| {
            if rng.gen::<bool>() {
                f64::from(rng.gen_range(-3i32..4))
            } else {
                rng.gen_range(-1.0..1.0)
            }
        };
        let (mut singular, mut solved) = (0, 0);
        // One column list serves every system, as in a Newton loop.
        let mut cols = Vec::new();
        for case in 0..2000 {
            let n = 1 + case % 20;
            let shape = shapes[(case / 20) % shapes.len()];
            let special = if rng.gen::<bool>() { f64::NAN } else { f64::INFINITY };
            let (mut a, mut b) = random_system(&mut rng, n, shape, real, special);
            let expected = reference_real(a.clone(), b.clone());
            let mut x = vec![0.0; n];
            match (&expected, solve_into(&mut a, &mut b, &mut x, &mut cols)) {
                (Ok(reference), Ok(())) => {
                    solved += 1;
                    assert!(
                        reference.iter().zip(&x).all(|(e, a)| same_bits(*e, *a)),
                        "case {case}"
                    );
                }
                (Err(e), Err(a)) => {
                    singular += 1;
                    assert_eq!(*e, a, "case {case}");
                }
                (e, a) => panic!("case {case}: reference {e:?}, in place {a:?}"),
            }
        }
        assert!(singular > 100 && solved > 1000, "{singular} singular, {solved} solved");

        // `Complex::recip` debug-asserts a positive squared norm, which a NaN
        // pivot fails, so the complex systems stay finite; the real systems
        // above cover the generic non-finite path.
        let complex = |rng: &mut StdRng| Complex::new(real(rng), real(rng));
        for case in 0..1000 {
            let n = 1 + case % 20;
            let shape = shapes[(case / 20) % 3];
            let (a, b) = random_system(&mut rng, n, shape, complex, Complex::zero());
            match (reference_complex(a.clone(), b.clone()), solve_complex(a, b)) {
                (Ok(e), Ok(a)) => assert!(
                    e.iter().zip(&a).all(|(e, a)| same_bits(e.re, a.re) && same_bits(e.im, a.im)),
                    "case {case}"
                ),
                (Err(e), Err(a)) => assert_eq!(e, a, "case {case}"),
                (e, a) => panic!("case {case}: reference {e:?}, in place {a:?}"),
            }
        }
    }

    #[test]
    fn clear_resets_entries() {
        let mut a: Matrix<f64> = Matrix::zeros(2);
        a.add(0, 0, 5.0);
        a.clear();
        assert_eq!(a[(0, 0)], 0.0);
        assert_eq!(a.size(), 2);
    }
}
