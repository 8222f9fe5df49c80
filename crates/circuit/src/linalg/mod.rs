//! Minimal dense linear algebra used by the MNA solver.
//!
//! The circuits simulated in this crate have a few dozen unknowns at most and
//! are solved thousands of times per transient, so the solver is one LU
//! elimination with partial pivoting that works in place on caller-owned
//! buffers and skips the pivot row's zero columns. MNA matrices are mostly
//! zeros (the op-amp testbenches touch about a quarter of the dense update),
//! and the skipped work never changes a solution bit. The crate stays free of
//! external linear-algebra dependencies.

mod complex;
mod dense;

pub use complex::Complex;
pub(crate) use dense::solve_into;
pub use dense::{solve_complex, solve_real, Matrix};
