//! Sequential minimal optimization (SMO) solver.
//!
//! This is a LIBSVM-style dual solver for problems of the form
//!
//! ```text
//! minimize    0.5 * a' Q a + p' a
//! subject to  y' a = delta,   0 <= a_i <= C_i
//! ```
//!
//! where `Q[i][j] = y_i * y_j * K(x_i, x_j)`.  Both the C-SVC classifier
//! ([`crate::Svc`]) and the ε-SVR regressor ([`crate::Svr`]) reduce their dual
//! problems to this form and share the solver.
//!
//! The working-set selection picks the maximal violator and pairs it by
//! *second-order gain* (LIBSVM's WSS 2: maximise the two-variable objective
//! decrease); the stopping criterion is the duality-gap surrogate
//! `m(a) - M(a) <= tolerance` from Keerthi et al.  Variables pinned at a
//! bound are periodically *shrunk* out of the working set (the standard
//! LIBSVM heuristic); before the solver accepts convergence of a shrunk
//! problem it restores every variable and re-checks the stopping criterion
//! on the full set, so the returned solution always satisfies the global
//! KKT tolerance.
//!
//! Each iteration only redoes work that changed.  Every variable carries
//! its `I_up`/`I_low` membership as two bits, computed once after the warm
//! start and refreshed for the working pair alone after each update, so the
//! selection passes and the shrink filter read one byte per variable
//! instead of re-deriving membership from `y`, `a` and `C`.  The first pass
//! masks non-`I_up` values to `-∞` rather than branching on them and
//! collects the active `I_low` members — typically a fifth of the active
//! set — which are the only candidates the second-order pass scans.  The
//! gradient update is a zipped, bounds-check-free loop the compiler
//! vectorises.  `Q` rows live in an LRU cache whose recency list evicts in
//! O(1) and recycles the evicted row's buffer, so a full cache allocates
//! nothing per miss.  None of this changes the arithmetic: solutions,
//! iteration counts and the sequence of rows requested from [`QMatrix`] are
//! bit-identical to the straightforward formulation, which golden tests
//! pin.
//!
//! The solver supports **warm starts** through
//! [`SmoProblem::initial_alpha`]: any box-feasible starting point is
//! accepted, and a start near the optimum (for example the projected
//! solution of a closely related problem) converges in a small fraction of
//! the cold-start iterations.

use crate::{Result, SvmError};

/// Value used in place of a non-positive second derivative of the
/// two-variable sub-problem (guards against a numerically indefinite kernel).
const TAU: f64 = 1e-12;

/// Warm-start gradient rows fetched per batched [`QMatrix::rows`] call.
const WARM_ROW_BLOCK: usize = 8;

/// Abstract view of the `Q` matrix (`Q[i][j] = y_i y_j K(i, j)`).
///
/// Implementations compute rows on demand; the solver caches recently used
/// rows internally so implementations can stay simple.
pub trait QMatrix {
    /// Number of optimization variables.
    fn len(&self) -> usize;

    /// Returns `true` when the problem has no variables.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes row `i` of `Q` into `out` (which has length [`QMatrix::len`]).
    fn row(&self, i: usize, out: &mut [f64]);

    /// Writes every row of `indices` into `out`, row `r` occupying
    /// `out[r * len .. (r + 1) * len]`.
    ///
    /// Must be element-for-element identical to calling [`QMatrix::row`]
    /// once per index in order — the default does exactly that.
    /// Implementations backed by a batched kernel engine override it to
    /// amortize memory traffic across the rows (used by the solver's
    /// warm-start gradient reconstruction, which touches one row per
    /// initially non-zero variable).
    fn rows(&self, indices: &[usize], out: &mut [f64]) {
        let n = self.len();
        debug_assert_eq!(out.len(), indices.len() * n);
        for (row, &i) in out.chunks_exact_mut(n).zip(indices) {
            self.row(i, row);
        }
    }

    /// Diagonal entry `Q[i][i]`.
    fn diag(&self, i: usize) -> f64;
}

/// Solver configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmoParams {
    /// Stopping tolerance on the maximal KKT violation (LIBSVM default 1e-3).
    /// Must be finite and strictly positive: a NaN tolerance would silently
    /// disable the stopping test (`gap <= NaN` is always false) and burn the
    /// whole iteration budget.
    pub tolerance: f64,
    /// Hard cap on the number of SMO iterations (must be non-zero).
    pub max_iterations: usize,
    /// Number of `Q` rows kept in the internal LRU cache (must be non-zero;
    /// the solver raises it to at least 2 so the working pair always fits).
    /// A hit costs O(1); a miss computes one row into the buffer of the
    /// evicted least-recently-used row, so memory stays at `cache_rows`
    /// rows of [`QMatrix::len`] values each and a full cache allocates nothing.
    pub cache_rows: usize,
}

impl Default for SmoParams {
    fn default() -> Self {
        SmoParams { tolerance: 1e-3, max_iterations: 200_000, cache_rows: 512 }
    }
}

/// Description of one dual problem instance.
#[derive(Debug, Clone)]
pub struct SmoProblem {
    /// Sign of each variable in the equality constraint (`+1` or `-1`).
    pub y: Vec<f64>,
    /// Linear term of the objective.
    pub p: Vec<f64>,
    /// Upper bound of each variable (per-variable `C`).
    pub upper_bound: Vec<f64>,
    /// Initial values of the variables.  All zero for a cold start; a warm
    /// start supplies a box-feasible point (each entry in `[0, C_i]`), and
    /// the implied equality-constraint value `y' a` is preserved by the
    /// solver, so warm starts must also repair `y' a` to the target value
    /// before solving.
    pub initial_alpha: Vec<f64>,
}

/// Redistributes `alpha` so that `y' alpha == 0` while keeping every entry
/// inside its `[0, C]` box.  Used by warm starts that project the solution
/// of a related problem onto a new feasible region.
///
/// The heavier side is first scaled down proportionally — preserving the
/// *shape* of the projected solution, which matters for warm-start quality —
/// and the last floating-point crumbs of the surplus are then drained from
/// individual entries in index order so the constraint holds to the last
/// bit.  Both moves only shrink entries toward zero, so the box is never
/// left.
pub(crate) fn repair_equality_constraint(alpha: &mut [f64], y: &[f64]) {
    let surplus: f64 = alpha.iter().zip(y).map(|(&a, &sign)| a * sign).sum();
    if surplus != 0.0 {
        let heavy: f64 =
            alpha.iter().zip(y).filter(|&(_, &sign)| sign * surplus > 0.0).map(|(&a, _)| a).sum();
        if heavy > 0.0 {
            let factor = ((heavy - surplus.abs()) / heavy).max(0.0);
            for (a, &sign) in alpha.iter_mut().zip(y) {
                if sign * surplus > 0.0 {
                    *a *= factor;
                }
            }
        }
    }
    // Proportional scaling leaves a rounding-level residual; drain it.
    let mut residual: f64 = alpha.iter().zip(y).map(|(&a, &sign)| a * sign).sum();
    for (a, &sign) in alpha.iter_mut().zip(y) {
        if residual == 0.0 {
            break;
        }
        if *a > 0.0 && sign * residual > 0.0 {
            let take = (*a).min(residual.abs());
            *a -= take;
            residual -= sign * take;
        }
    }
}

/// Result of a successful SMO run.
#[derive(Debug, Clone)]
pub struct SmoSolution {
    /// Optimal dual variables.
    pub alpha: Vec<f64>,
    /// Offset `rho` of the decision function (`f(x) = sum_i a_i y_i K(x_i,x) - rho`).
    pub rho: f64,
    /// Final objective value.
    pub objective: f64,
    /// Iterations performed.
    pub iterations: usize,
}

/// LRU row cache keyed by row index.
///
/// Every access moves a row to the most-recent end of an intrusive recency
/// list, so the rows of the current working pair — touched on every
/// iteration — survive arbitrary cache pressure while cold rows are evicted
/// first.  Eviction takes the least-recently-used row off the other end in
/// O(1) — the same row an O(n) scan for the oldest last-use stamp would
/// pick — and the evicted row's buffer is recycled for the row that
/// replaces it, so a full cache allocates nothing per miss.
///
/// Residency ([`RowCache::ensure`]) is separated from access
/// ([`RowCache::row`]) so the solver can hold shared borrows of several rows
/// at once instead of copying them out.
struct RowCache {
    capacity: usize,
    resident: usize,
    /// Row values per index, `Some` when resident.
    rows: Vec<Option<Vec<f64>>>,
    /// Circular doubly linked recency list over the resident rows, threaded
    /// through `prev`/`next` with node `n` as the sentinel: `next[n]` is the
    /// least-recently-used row and `prev[n]` the most recently used.
    prev: Vec<usize>,
    next: Vec<usize>,
    /// Fetch buffer of [`RowCache::ensure_batch`], reused across calls.
    batch: Vec<f64>,
}

impl RowCache {
    fn new(capacity: usize, n: usize) -> Self {
        RowCache {
            capacity: capacity.max(2),
            resident: 0,
            rows: vec![None; n],
            prev: vec![n; n + 1],
            next: vec![n; n + 1],
            batch: Vec::new(),
        }
    }

    fn unlink(&mut self, i: usize) {
        let (before, after) = (self.prev[i], self.next[i]);
        self.next[before] = after;
        self.prev[after] = before;
    }

    fn push_most_recent(&mut self, i: usize) {
        let sentinel = self.rows.len();
        let last = self.prev[sentinel];
        self.next[last] = i;
        self.prev[i] = last;
        self.next[i] = sentinel;
        self.prev[sentinel] = i;
    }

    /// Refreshes the recency of row `i`; returns `false` if it is not
    /// resident.
    fn touch(&mut self, i: usize) -> bool {
        if self.rows[i].is_none() {
            return false;
        }
        self.unlink(i);
        self.push_most_recent(i);
        true
    }

    /// Makes `i` the most recent resident row and returns its buffer for
    /// the caller to fill: the evicted least-recently-used row's buffer when
    /// the cache is full, a fresh one otherwise.
    fn admit(&mut self, i: usize, len: usize) -> &mut [f64] {
        let buffer = if self.resident == self.capacity {
            let lru = self.next[self.rows.len()];
            self.unlink(lru);
            self.rows[lru].take().expect("listed rows are resident")
        } else {
            self.resident += 1;
            vec![0.0; len]
        };
        self.push_most_recent(i);
        self.rows[i].insert(buffer)
    }

    /// Makes row `i` resident (computing it if needed, evicting the
    /// least-recently-used row when at capacity) and refreshes its recency.
    fn ensure<Q: QMatrix>(&mut self, q: &Q, i: usize) {
        if !self.touch(i) {
            let row = self.admit(i, q.len());
            q.row(i, row);
        }
    }

    /// Makes every row of `batch` resident with one batched
    /// [`QMatrix::rows`] fetch.
    ///
    /// `batch` must hold distinct rows that are not resident (the solver's
    /// warm-start rows, each fetched once into a fresh cache) and be no
    /// longer than the cache capacity, so no row of the batch can evict
    /// another.  Bookkeeping — recency order, eviction order, resident set —
    /// is then identical to calling [`RowCache::ensure`] on each index in
    /// order, because the fetch is a pure function of the index.
    fn ensure_batch<Q: QMatrix>(&mut self, q: &Q, batch: &[usize]) {
        debug_assert!(batch.len() <= self.capacity);
        debug_assert!(batch.iter().all(|&i| self.rows[i].is_none()));
        let n = q.len();
        let mut fetched = std::mem::take(&mut self.batch);
        fetched.resize(batch.len() * n, 0.0);
        q.rows(batch, &mut fetched);
        for (&i, row) in batch.iter().zip(fetched.chunks_exact(n)) {
            self.admit(i, n).copy_from_slice(row);
        }
        self.batch = fetched;
    }

    /// Borrows a row previously made resident with [`RowCache::ensure`].
    ///
    /// # Panics
    ///
    /// Panics if the row is not resident.
    fn row(&self, i: usize) -> &[f64] {
        self.rows[i].as_deref().expect("row is resident")
    }
}

/// Membership bit of the index set `I_up` (Keerthi et al.): the variable
/// can move so that `y_t a_t` grows.
const UP: u8 = 1;
/// Membership bit of `I_low`: the variable can move so that `y_t a_t`
/// shrinks.
const LOW: u8 = 2;

/// `I_up`/`I_low` membership bits of a variable with sign `y`, value `a`
/// and upper bound `c`.
fn membership(y: f64, a: f64, c: f64) -> u8 {
    let up = (y > 0.0 && a < c) || (y < 0.0 && a > 0.0);
    let low = (y > 0.0 && a > 0.0) || (y < 0.0 && a < c);
    (u8::from(up) * UP) | (u8::from(low) * LOW)
}

/// Validates the solver configuration.
fn validate_params(params: &SmoParams) -> Result<()> {
    if !(params.tolerance > 0.0 && params.tolerance.is_finite()) {
        return Err(SvmError::InvalidParameter { name: "tolerance", value: params.tolerance });
    }
    if params.max_iterations == 0 {
        return Err(SvmError::InvalidParameter { name: "max_iterations", value: 0.0 });
    }
    if params.cache_rows == 0 {
        return Err(SvmError::InvalidParameter { name: "cache_rows", value: 0.0 });
    }
    Ok(())
}

/// Solves the dual problem.
///
/// The equality-constraint constant `delta` is *implied by the starting
/// point* (`delta = y' initial_alpha`) and preserved by every pair update:
/// a cold start solves the `delta = 0` problem of the SVC/SVR duals, and a
/// warm start must repair its projected alphas to the intended constant
/// (see [`SmoProblem::initial_alpha`]) — the solver cannot distinguish a
/// deliberate non-zero `delta` from an unrepaired one.
///
/// # Errors
///
/// Returns [`SvmError::EmptyDataset`] for a zero-variable problem,
/// [`SvmError::InvalidParameter`] if the problem vectors have inconsistent
/// lengths, if a solver parameter is outside its domain (non-finite or
/// non-positive `tolerance`, zero `max_iterations` or `cache_rows`) or if
/// the starting point is not box-feasible, and [`SvmError::NotConverged`] if
/// the iteration budget is exhausted before the KKT conditions are met.
pub fn solve<Q: QMatrix>(q: &Q, problem: &SmoProblem, params: &SmoParams) -> Result<SmoSolution> {
    let n = q.len();
    if n == 0 {
        return Err(SvmError::EmptyDataset);
    }
    if problem.y.len() != n
        || problem.p.len() != n
        || problem.upper_bound.len() != n
        || problem.initial_alpha.len() != n
    {
        return Err(SvmError::InvalidParameter { name: "problem size", value: n as f64 });
    }
    validate_params(params)?;
    for (&a, &upper) in problem.initial_alpha.iter().zip(problem.upper_bound.iter()) {
        if !(a >= 0.0 && a <= upper) {
            return Err(SvmError::InvalidParameter { name: "initial_alpha", value: a });
        }
    }

    let y = &problem.y;
    let p = &problem.p;
    let c = &problem.upper_bound;
    let mut alpha = problem.initial_alpha.clone();
    let mut cache = RowCache::new(params.cache_rows, n);

    // Gradient of the objective: G_t = sum_s Q[t][s] alpha_s + p_t.  For a
    // cold start this is just `p`; a warm start pays one row per initially
    // non-zero variable, which a start near the optimum amortises many times
    // over in saved iterations.
    let mut grad: Vec<f64> = p.clone();
    let warm_rows: Vec<usize> =
        alpha.iter().enumerate().filter(|(_, &a)| a != 0.0).map(|(s, _)| s).collect();
    let warm = !warm_rows.is_empty();
    // Rows are fetched in blocks through `QMatrix::rows` so a batched
    // backend amortizes its column traffic; the block never exceeds the
    // cache capacity, so every row of a block is still resident when its
    // gradient contribution is accumulated.
    for block in warm_rows.chunks(WARM_ROW_BLOCK.min(cache.capacity)) {
        cache.ensure_batch(q, block);
        for &s in block {
            let alpha_s = alpha[s];
            let row = cache.row(s);
            for (g, &value) in grad.iter_mut().zip(row.iter()) {
                *g += value * alpha_s;
            }
        }
    }

    // A projected warm start can land *uphill* of the zero start when the
    // related problem it came from differs too much.  The objective along
    // the ray `t * alpha0` is the exact quadratic `0.5 t^2 (a'Qa) + t (p'a)`
    // and the gradient rescales linearly along it, so the best point of the
    // segment — cold start, full warm start, or anywhere between — costs
    // nothing beyond the gradient already computed.  Scaling preserves the
    // box (t <= 1) and, for the zero-delta problems warm starts arise from
    // (`y' a = 0`), the equality constraint.
    if warm {
        let delta: f64 = alpha.iter().zip(y.iter()).map(|(&a, &sign)| a * sign).sum();
        let quadratic: f64 =
            alpha.iter().zip(grad.iter().zip(p.iter())).map(|(&a, (&g, &pp))| a * (g - pp)).sum();
        let linear: f64 = alpha.iter().zip(p.iter()).map(|(&a, &pp)| a * pp).sum();
        if delta.abs() < 1e-9 {
            let t = if quadratic > 0.0 {
                (-linear / quadratic).clamp(0.0, 1.0)
            } else if linear >= 0.0 {
                0.0
            } else {
                1.0
            };
            if t < 1.0 {
                for a in alpha.iter_mut() {
                    *a *= t;
                }
                for (g, &pp) in grad.iter_mut().zip(p.iter()) {
                    *g = t * (*g - pp) + pp;
                }
            }
        }
    }

    // `I_up`/`I_low` membership of every variable.  Only the working pair
    // moves per iteration, so the bits are refreshed for `i` and `j` alone
    // instead of being re-derived from `y`, `alpha` and `C` in every pass.
    let mut flags: Vec<u8> = (0..n).map(|t| membership(y[t], alpha[t], c[t])).collect();

    // Shrinking (LIBSVM heuristic): variables pinned at a bound whose
    // gradient keeps them out of every violating pair are periodically
    // dropped from the selection scan.  Gradients are maintained for all
    // variables, so restoring the full set is free and convergence is always
    // re-verified on the full problem before the solver returns.
    let mut active: Vec<usize> = (0..n).collect();
    let shrink_interval = n.clamp(1, 1000);
    let mut since_shrink = 0usize;

    // The active "low" variables in ascending order, collected by the first
    // selection pass: only they can pair with `i` in the second.
    let mut low: Vec<usize> = Vec::with_capacity(n);

    let mut iterations = 0;
    loop {
        // Working-set selection, first pass: the maximal violator `i` over
        // the active set's "up" index set, plus the minimal "low" value for
        // the stopping test (`m(a) - M(a) <= tolerance`, Keerthi et al.).
        // Non-"up" values are masked to the `-∞` that can never win the
        // strict comparison instead of being branched around; `usize::MAX`
        // marks an empty index set.
        let mut g_max = f64::NEG_INFINITY;
        let mut g_min = f64::INFINITY;
        let mut i_sel = usize::MAX;
        let mut low_sel = usize::MAX;
        low.clear();
        for &t in &active {
            let value = -y[t] * grad[t];
            let up_value = if flags[t] & UP != 0 { value } else { f64::NEG_INFINITY };
            if up_value > g_max {
                g_max = up_value;
                i_sel = t;
            }
            if flags[t] & LOW != 0 {
                low.push(t);
                if value < g_min {
                    g_min = value;
                    low_sel = t;
                }
            }
        }

        // An empty index set means every variable is stuck at a bound in a
        // way that leaves no violating pair — the current point is optimal
        // for the feasible region.
        let converged =
            i_sel == usize::MAX || low_sel == usize::MAX || g_max - g_min <= params.tolerance;
        if converged {
            if active.len() == n {
                break;
            }
            // The *shrunk* problem converged; restore every variable and
            // re-check optimality on the full set before accepting.
            active = (0..n).collect();
            since_shrink = 0;
            continue;
        }
        let i = i_sel;

        if iterations >= params.max_iterations {
            return Err(SvmError::NotConverged { iterations });
        }
        iterations += 1;

        // Second pass, over the active "low" variables only: second-order
        // selection of `j` (LIBSVM's WSS 2).
        // Among the "low" variables violating against `i`, pick the one whose
        // two-variable sub-problem yields the largest objective decrease
        // `(g_max - value_t)^2 / a_it` — far fewer iterations than the
        // first-order maximal-violating-pair rule, especially from a
        // warm-started point whose remaining violations are diffuse.  The
        // stopping test failed, so the minimal "low" value violates against
        // `i` by more than the tolerance and is always a valid fallback.
        cache.ensure(q, i);
        let j = {
            let q_i = cache.row(i);
            let diag_i = q.diag(i);
            let mut j_sel = low_sel;
            let mut best_gain = f64::NEG_INFINITY;
            for &t in &low {
                let grad_diff = g_max + y[t] * grad[t];
                // `a_it = K_ii + K_tt - 2 K_it`; `Q[i][t] = y_i y_t K_it`.
                let mut quad = diag_i + q.diag(t) - 2.0 * y[i] * y[t] * q_i[t];
                if quad <= 0.0 {
                    quad = TAU;
                }
                let gain =
                    if grad_diff > 0.0 { grad_diff * grad_diff / quad } else { f64::NEG_INFINITY };
                if gain > best_gain {
                    best_gain = gain;
                    j_sel = t;
                }
            }
            j_sel
        };

        // Periodically shrink bound variables that cannot join a violating
        // pair (their `value` lies strictly outside the current
        // `[g_min, g_max]` violation window on their only side).
        since_shrink += 1;
        if since_shrink >= shrink_interval {
            since_shrink = 0;
            active.retain(|&t| {
                let value = -y[t] * grad[t];
                match (flags[t] & UP != 0, flags[t] & LOW != 0) {
                    (true, true) => true,
                    (true, false) => value >= g_min,
                    (false, true) => value <= g_max,
                    (false, false) => false,
                }
            });
        }

        cache.ensure(q, j);
        cache.ensure(q, i);
        let (q_i, q_j) = (cache.row(i), cache.row(j));
        let old_ai = alpha[i];
        let old_aj = alpha[j];

        if (y[i] - y[j]).abs() > f64::EPSILON {
            // Opposite signs.
            let mut quad = q.diag(i) + q.diag(j) + 2.0 * q_i[j];
            if quad <= 0.0 {
                quad = TAU;
            }
            let delta = (-grad[i] - grad[j]) / quad;
            let diff = alpha[i] - alpha[j];
            alpha[i] += delta;
            alpha[j] += delta;
            if diff > 0.0 {
                if alpha[j] < 0.0 {
                    alpha[j] = 0.0;
                    alpha[i] = diff;
                }
            } else if alpha[i] < 0.0 {
                alpha[i] = 0.0;
                alpha[j] = -diff;
            }
            if diff > c[i] - c[j] {
                if alpha[i] > c[i] {
                    alpha[i] = c[i];
                    alpha[j] = c[i] - diff;
                }
            } else if alpha[j] > c[j] {
                alpha[j] = c[j];
                alpha[i] = c[j] + diff;
            }
        } else {
            // Same sign.
            let mut quad = q.diag(i) + q.diag(j) - 2.0 * q_i[j];
            if quad <= 0.0 {
                quad = TAU;
            }
            let delta = (grad[i] - grad[j]) / quad;
            let sum = alpha[i] + alpha[j];
            alpha[i] -= delta;
            alpha[j] += delta;
            if sum > c[i] {
                if alpha[i] > c[i] {
                    alpha[i] = c[i];
                    alpha[j] = sum - c[i];
                }
            } else if alpha[j] < 0.0 {
                alpha[j] = 0.0;
                alpha[i] = sum;
            }
            if sum > c[j] {
                if alpha[j] > c[j] {
                    alpha[j] = c[j];
                    alpha[i] = sum - c[j];
                }
            } else if alpha[i] < 0.0 {
                alpha[i] = 0.0;
                alpha[j] = sum;
            }
        }

        flags[i] = membership(y[i], alpha[i], c[i]);
        flags[j] = membership(y[j], alpha[j], c[j]);
        let delta_i = alpha[i] - old_ai;
        let delta_j = alpha[j] - old_aj;
        if delta_i == 0.0 && delta_j == 0.0 {
            // Numerically stuck pair; the violating gap is below what the
            // arithmetic can resolve.  Restore any shrunk variables first so
            // the conclusion is reached on the full problem.
            if active.len() == n {
                break;
            }
            active = (0..n).collect();
            since_shrink = 0;
            continue;
        }
        // Zipped iterators drop the bounds checks, so the update vectorises;
        // the expression is kept as is (no fused multiply-add) to stay
        // bit-identical.
        for ((g, &qi), &qj) in grad.iter_mut().zip(q_i).zip(q_j) {
            *g += qi * delta_i + qj * delta_j;
        }
    }

    // rho (decision-function offset).
    let mut upper = f64::INFINITY;
    let mut lower = f64::NEG_INFINITY;
    let mut sum_free = 0.0;
    let mut count_free = 0usize;
    for t in 0..n {
        let yg = y[t] * grad[t];
        if alpha[t] >= c[t] - f64::EPSILON {
            if y[t] < 0.0 {
                upper = upper.min(yg);
            } else {
                lower = lower.max(yg);
            }
        } else if alpha[t] <= f64::EPSILON {
            if y[t] > 0.0 {
                upper = upper.min(yg);
            } else {
                lower = lower.max(yg);
            }
        } else {
            count_free += 1;
            sum_free += yg;
        }
    }
    let rho = if count_free > 0 {
        sum_free / count_free as f64
    } else if upper.is_finite() && lower.is_finite() {
        (upper + lower) / 2.0
    } else if upper.is_finite() {
        upper
    } else if lower.is_finite() {
        lower
    } else {
        0.0
    };

    // Objective value: 0.5 * a'(G + p) = 0.5 * (a'Qa) + a'p + 0.5*a'p - 0.5*a'p
    let objective = 0.5
        * alpha
            .iter()
            .zip(grad.iter().zip(p.iter()))
            .map(|(&a, (&g, &pp))| a * (g + pp))
            .sum::<f64>();

    Ok(SmoSolution { alpha, rho, objective, iterations })
}

/// Dense `Q` matrix backed by an explicit kernel evaluation closure.
///
/// Useful for tests and small problems; the SVC/SVR wrappers provide their own
/// implementations that work directly from datasets.
pub struct DenseQ {
    n: usize,
    values: Vec<f64>,
}

impl DenseQ {
    /// Builds the full matrix from `q(i, j)`.
    pub fn from_fn<F: Fn(usize, usize) -> f64>(n: usize, q: F) -> Self {
        let mut values = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                values[i * n + j] = q(i, j);
            }
        }
        DenseQ { n, values }
    }
}

impl QMatrix for DenseQ {
    fn len(&self) -> usize {
        self.n
    }

    fn row(&self, i: usize, out: &mut [f64]) {
        out.copy_from_slice(&self.values[i * self.n..(i + 1) * self.n]);
    }

    fn diag(&self, i: usize) -> f64 {
        self.values[i * self.n + i]
    }
}

/// FNV-1a over a stream of 64-bit words: the golden tests' fingerprint of
/// exact solution bits (`f64::to_bits`) and index sequences.
#[cfg(test)]
pub(crate) fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().flat_map(u64::to_le_bytes).fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Deterministic uniform draw from `[0, 1)` for test fixtures.
#[cfg(test)]
pub(crate) fn uniform(state: &mut u64) -> f64 {
    (crate::nystrom::splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Kernel;

    /// Tiny hand-checkable SVC problem: two points at -1 and +1 on a line.
    /// The optimal separating hyperplane is x = 0 with margin 1, which for the
    /// linear kernel gives alpha_1 = alpha_2 = 0.5 (when C is large).
    #[test]
    fn two_point_classification_recovers_known_alphas() {
        let xs = [vec![-1.0], vec![1.0]];
        let ys = [-1.0, 1.0];
        let kernel = Kernel::linear();
        let q = DenseQ::from_fn(2, |i, j| ys[i] * ys[j] * kernel.eval(&xs[i], &xs[j]));
        let problem = SmoProblem {
            y: ys.to_vec(),
            p: vec![-1.0; 2],
            upper_bound: vec![100.0; 2],
            initial_alpha: vec![0.0; 2],
        };
        let solution = solve(&q, &problem, &SmoParams::default()).unwrap();
        assert!((solution.alpha[0] - 0.5).abs() < 1e-3, "{:?}", solution.alpha);
        assert!((solution.alpha[1] - 0.5).abs() < 1e-3);
        // Decision boundary exactly between the points => rho = 0.
        assert!(solution.rho.abs() < 1e-6);
    }

    #[test]
    fn equality_constraint_is_preserved() {
        // Four points, alternating labels.
        let xs = [vec![0.0], vec![0.4], vec![0.6], vec![1.0]];
        let ys = [-1.0, -1.0, 1.0, 1.0];
        let kernel = Kernel::rbf(1.0);
        let q = DenseQ::from_fn(4, |i, j| ys[i] * ys[j] * kernel.eval(&xs[i], &xs[j]));
        let problem = SmoProblem {
            y: ys.to_vec(),
            p: vec![-1.0; 4],
            upper_bound: vec![10.0; 4],
            initial_alpha: vec![0.0; 4],
        };
        let solution = solve(&q, &problem, &SmoParams::default()).unwrap();
        let balance: f64 = solution.alpha.iter().zip(ys.iter()).map(|(a, y)| a * y).sum();
        assert!(balance.abs() < 1e-9, "constraint violated: {balance}");
        for (a, &c) in solution.alpha.iter().zip(problem.upper_bound.iter()) {
            assert!(*a >= -1e-12 && *a <= c + 1e-12);
        }
    }

    #[test]
    fn empty_problem_is_rejected() {
        let q = DenseQ::from_fn(0, |_, _| 0.0);
        let problem =
            SmoProblem { y: vec![], p: vec![], upper_bound: vec![], initial_alpha: vec![] };
        assert!(matches!(solve(&q, &problem, &SmoParams::default()), Err(SvmError::EmptyDataset)));
    }

    #[test]
    fn inconsistent_lengths_are_rejected() {
        let q = DenseQ::from_fn(2, |_, _| 1.0);
        let problem = SmoProblem {
            y: vec![1.0, -1.0],
            p: vec![-1.0],
            upper_bound: vec![1.0, 1.0],
            initial_alpha: vec![0.0, 0.0],
        };
        assert!(solve(&q, &problem, &SmoParams::default()).is_err());
    }

    fn tiny_problem() -> (DenseQ, SmoProblem) {
        let q = DenseQ::from_fn(2, |i, j| if i == j { 1.0 } else { 0.0 });
        let problem = SmoProblem {
            y: vec![1.0, -1.0],
            p: vec![-1.0, -1.0],
            upper_bound: vec![1.0, 1.0],
            initial_alpha: vec![0.0, 0.0],
        };
        (q, problem)
    }

    #[test]
    fn bad_tolerance_is_rejected() {
        let (q, problem) = tiny_problem();
        for tolerance in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let params = SmoParams { tolerance, ..SmoParams::default() };
            assert!(
                matches!(
                    solve(&q, &problem, &params),
                    Err(SvmError::InvalidParameter { name: "tolerance", .. })
                ),
                "tolerance {tolerance} must be rejected"
            );
        }
    }

    /// Regression test: a NaN tolerance used to pass the `<= 0.0` validation
    /// and silently disable the stopping test (`gap <= NaN` is always
    /// false), burning the entire iteration budget before failing with
    /// `NotConverged`.  It must be rejected up front instead.
    #[test]
    fn nan_tolerance_fails_fast_instead_of_burning_the_budget() {
        let (q, problem) = tiny_problem();
        let params = SmoParams { tolerance: f64::NAN, ..SmoParams::default() };
        match solve(&q, &problem, &params) {
            Err(SvmError::InvalidParameter { name: "tolerance", value }) => {
                assert!(value.is_nan());
            }
            other => panic!("expected InvalidParameter, got {other:?}"),
        }
    }

    #[test]
    fn zero_iteration_budget_and_zero_cache_are_rejected() {
        let (q, problem) = tiny_problem();
        let no_budget = SmoParams { max_iterations: 0, ..SmoParams::default() };
        assert!(matches!(
            solve(&q, &problem, &no_budget),
            Err(SvmError::InvalidParameter { name: "max_iterations", .. })
        ));
        let no_cache = SmoParams { cache_rows: 0, ..SmoParams::default() };
        assert!(matches!(
            solve(&q, &problem, &no_cache),
            Err(SvmError::InvalidParameter { name: "cache_rows", .. })
        ));
    }

    #[test]
    fn box_infeasible_starting_points_are_rejected() {
        let (q, mut problem) = tiny_problem();
        problem.initial_alpha = vec![-0.1, 0.0];
        assert!(matches!(
            solve(&q, &problem, &SmoParams::default()),
            Err(SvmError::InvalidParameter { name: "initial_alpha", .. })
        ));
        problem.initial_alpha = vec![0.0, 1.5];
        assert!(solve(&q, &problem, &SmoParams::default()).is_err());
        problem.initial_alpha = vec![f64::NAN, 0.0];
        assert!(solve(&q, &problem, &SmoParams::default()).is_err());
    }

    #[test]
    fn iteration_budget_is_enforced() {
        // A moderately sized separable problem with a budget of one iteration
        // cannot converge.
        let n = 40;
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / n as f64]).collect();
        let ys: Vec<f64> = (0..n).map(|i| if i < n / 2 { -1.0 } else { 1.0 }).collect();
        let kernel = Kernel::rbf(5.0);
        let q = DenseQ::from_fn(n, |i, j| ys[i] * ys[j] * kernel.eval(&xs[i], &xs[j]));
        let problem = SmoProblem {
            y: ys,
            p: vec![-1.0; n],
            upper_bound: vec![10.0; n],
            initial_alpha: vec![0.0; n],
        };
        let params = SmoParams { max_iterations: 1, ..SmoParams::default() };
        assert!(matches!(solve(&q, &problem, &params), Err(SvmError::NotConverged { .. })));
    }

    /// Regression test: the pre-0.4 row cache evicted in pure FIFO insertion
    /// order without refreshing recency, so a row touched on every access
    /// could be evicted while one-shot rows survived.  Eviction is LRU now.
    #[test]
    fn row_cache_keeps_hot_rows_under_pressure() {
        let q = DenseQ::from_fn(8, |i, j| (i * 8 + j) as f64);
        let mut cache = RowCache::new(2, 8);
        cache.ensure(&q, 0); // hot row
        cache.ensure(&q, 1);
        for cold in 2..8 {
            // Touch the hot row, then fault in a cold one: the cold rows must
            // evict each other while row 0 stays resident throughout.
            cache.ensure(&q, 0);
            cache.ensure(&q, cold);
            assert!(cache.rows[0].is_some(), "hot row evicted by cold row {cold}");
            assert_eq!(cache.row(0)[3], 3.0);
        }
        // Only the capacity's worth of rows is resident.
        assert_eq!(cache.resident, 2);
        assert_eq!(cache.rows.iter().filter(|slot| slot.is_some()).count(), 2);
    }

    /// The O(1) recency list evicts exactly the row a scan for the oldest
    /// last-use stamp picks, through single and batched accesses, and every
    /// recycled buffer holds the row it is resident for.
    #[test]
    fn row_cache_evicts_like_a_min_stamp_scan() {
        let (n, capacity) = (64, 7);
        let q = DenseQ::from_fn(n, |i, j| (i * n + j) as f64);
        let mut cache = RowCache::new(capacity, n);
        let mut stamps: Vec<Option<u64>> = vec![None; n];
        let mut clock = 0;
        let (mut expected, mut observed) = (Vec::new(), Vec::new());
        let mut state = 3;
        let mut fresh = vec![0.0; n];
        for step in 0..10_000 {
            // Skewed toward a hot subset; every tenth access is a batch of
            // four distinct non-resident rows, the shape warm starts fetch.
            let size = if step % 10 == 0 { 4 } else { 1 };
            let mut batch: Vec<usize> = Vec::new();
            while batch.len() < size {
                let range = if uniform(&mut state) < 0.5 { 8.0 } else { n as f64 };
                let i = (uniform(&mut state) * range) as usize;
                if size == 1 || (cache.rows[i].is_none() && !batch.contains(&i)) {
                    batch.push(i);
                }
            }
            let before: Vec<bool> = cache.rows.iter().map(Option::is_some).collect();
            match batch.as_slice() {
                [i] => cache.ensure(&q, *i),
                _ => cache.ensure_batch(&q, &batch),
            }
            observed.extend((0..n).filter(|&t| before[t] && cache.rows[t].is_none()));

            let mut evicted = Vec::new();
            for &i in &batch {
                clock += 1;
                if stamps[i].is_none() && stamps.iter().flatten().count() == capacity {
                    let lru = (0..n).filter(|&t| stamps[t].is_some()).min_by_key(|&t| stamps[t]);
                    let lru = lru.expect("a full cache has a least-recently-used row");
                    stamps[lru] = None;
                    evicted.push(lru);
                }
                stamps[i] = Some(clock);
            }
            evicted.sort_unstable();
            expected.extend(evicted);

            for t in (0..n).filter(|&t| cache.rows[t].is_some()) {
                q.row(t, &mut fresh);
                assert_eq!(cache.row(t), fresh.as_slice(), "row {t} at step {step}");
            }
        }
        assert!(expected.len() > 5_000, "{} evictions", expected.len());
        assert_eq!(observed, expected);
        assert_eq!(cache.resident, capacity);
    }

    /// The two rows of the working pair are touched every iteration, so even
    /// a minimal cache must not recompute them per iteration: the number of
    /// `QMatrix::row` evaluations stays far below one per iteration.
    #[test]
    fn hot_rows_are_not_recomputed_every_iteration() {
        use std::cell::Cell;

        struct CountingQ {
            inner: DenseQ,
            row_calls: Cell<usize>,
        }
        impl QMatrix for CountingQ {
            fn len(&self) -> usize {
                self.inner.len()
            }
            fn row(&self, i: usize, out: &mut [f64]) {
                self.row_calls.set(self.row_calls.get() + 1);
                self.inner.row(i, out);
            }
            fn diag(&self, i: usize) -> f64 {
                self.inner.diag(i)
            }
        }

        let n = 60;
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![(i as f64 / n as f64).sin()]).collect();
        let ys: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { -1.0 } else { 1.0 }).collect();
        let kernel = Kernel::rbf(4.0);
        let q = CountingQ {
            inner: DenseQ::from_fn(n, |i, j| ys[i] * ys[j] * kernel.eval(&xs[i], &xs[j])),
            row_calls: Cell::new(0),
        };
        let problem = SmoProblem {
            y: ys,
            p: vec![-1.0; n],
            upper_bound: vec![10.0; n],
            initial_alpha: vec![0.0; n],
        };
        // A cache smaller than the problem still absorbs the per-iteration
        // row traffic of the working pairs: the old per-iteration full-row
        // copies amounted to two row materialisations every iteration, while
        // the shared-borrow cache recomputes a row only on a genuine miss.
        let params = SmoParams { cache_rows: 8, ..SmoParams::default() };
        let solution = solve(&q, &problem, &params).unwrap();
        assert!(solution.iterations > 0);
        assert!(
            q.row_calls.get() <= solution.iterations + n,
            "{} row computations for {} iterations",
            q.row_calls.get(),
            solution.iterations
        );
    }

    /// Warm-starting from (a projection of) the converged solution must
    /// satisfy the stopping test essentially immediately and reproduce the
    /// same solution.
    #[test]
    fn warm_start_from_the_optimum_converges_immediately() {
        let n = 40;
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / n as f64]).collect();
        let ys: Vec<f64> = (0..n).map(|i| if i < n / 2 { -1.0 } else { 1.0 }).collect();
        let kernel = Kernel::rbf(5.0);
        let q = DenseQ::from_fn(n, |i, j| ys[i] * ys[j] * kernel.eval(&xs[i], &xs[j]));
        let cold_problem = SmoProblem {
            y: ys.clone(),
            p: vec![-1.0; n],
            upper_bound: vec![10.0; n],
            initial_alpha: vec![0.0; n],
        };
        let cold = solve(&q, &cold_problem, &SmoParams::default()).unwrap();
        assert!(cold.iterations > 0);

        let warm_problem = SmoProblem { initial_alpha: cold.alpha.clone(), ..cold_problem };
        let warm = solve(&q, &warm_problem, &SmoParams::default()).unwrap();
        assert_eq!(warm.iterations, 0, "restart from the optimum must not iterate");
        assert_eq!(warm.alpha, cold.alpha);
        assert!((warm.objective - cold.objective).abs() < 1e-9);
    }

    /// The equality-constraint repair drains surplus while staying in the
    /// box, whatever the surplus sign.  (The balance lands within absorption
    /// distance of zero — the last crumbs of the residual can be smaller
    /// than one ulp of the entries they are drained from.)
    #[test]
    fn equality_repair_restores_feasibility() {
        let y = [1.0, 1.0, -1.0, -1.0];
        let mut alpha = [0.9, 0.4, 0.2, 0.1];
        repair_equality_constraint(&mut alpha, &y);
        let balance: f64 = alpha.iter().zip(y.iter()).map(|(a, s)| a * s).sum();
        assert!(balance.abs() < 1e-12, "balance {balance}");
        assert!(alpha.iter().all(|&a| (0.0..=1.0).contains(&a)));
        // The lighter side is untouched.
        assert_eq!(&alpha[2..], &[0.2, 0.1]);

        let mut negative_surplus = [0.1, 0.0, 0.8, 0.5];
        repair_equality_constraint(&mut negative_surplus, &y);
        let balance: f64 = negative_surplus.iter().zip(y.iter()).map(|(a, s)| a * s).sum();
        assert!(balance.abs() < 1e-12, "balance {balance}");
        assert!(negative_surplus.iter().all(|&a| (0.0..=1.0).contains(&a)));
    }

    #[test]
    fn objective_decreases_with_more_freedom() {
        // With larger C the optimum can only get better (more feasible space).
        let xs = [vec![0.0], vec![0.3], vec![0.7], vec![1.0]];
        let ys = [-1.0, 1.0, -1.0, 1.0];
        let kernel = Kernel::rbf(2.0);
        let q = DenseQ::from_fn(4, |i, j| ys[i] * ys[j] * kernel.eval(&xs[i], &xs[j]));
        let solve_with_c = |c: f64| {
            let problem = SmoProblem {
                y: ys.to_vec(),
                p: vec![-1.0; 4],
                upper_bound: vec![c; 4],
                initial_alpha: vec![0.0; 4],
            };
            solve(&q, &problem, &SmoParams::default()).unwrap().objective
        };
        assert!(solve_with_c(10.0) <= solve_with_c(0.5) + 1e-9);
    }

    /// A `QMatrix` that logs every row it is asked for, in request order.
    struct LoggingQ {
        inner: DenseQ,
        log: std::cell::RefCell<Vec<usize>>,
    }

    impl QMatrix for LoggingQ {
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn row(&self, i: usize, out: &mut [f64]) {
            self.log.borrow_mut().push(i);
            self.inner.row(i, out);
        }
        fn diag(&self, i: usize) -> f64 {
            self.inner.diag(i)
        }
    }

    /// Exact fingerprint of a solve and of the rows it requested.
    fn golden(q: &LoggingQ, solution: &SmoSolution) -> [u64; 6] {
        let log = q.log.borrow();
        [
            solution.iterations as u64,
            solution.rho.to_bits(),
            solution.objective.to_bits(),
            fingerprint(solution.alpha.iter().map(|a| a.to_bits())),
            log.len() as u64,
            fingerprint(log.iter().map(|&i| i as u64)),
        ]
    }

    /// Bit-identity pin of the solver's trajectory, including the order of
    /// `Q` rows it requests: a cold solve under a 24-row cache (evictions,
    /// shrinking, unshrinking), then a warm solve from a perturbed, repaired
    /// copy of that optimum (batched gradient reconstruction, ray scaling).
    /// Any change to these numbers is a change of numerics or of row traffic.
    #[test]
    fn golden_trajectory_and_row_requests_are_bit_identical() {
        let n = 300;
        let mut state = 7;
        let xs: Vec<[f64; 3]> = (0..n)
            .map(|_| [uniform(&mut state), uniform(&mut state), uniform(&mut state)])
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| {
                if x[0] - x[1] * x[2] + 0.8 * (uniform(&mut state) - 0.5) > 0.2 {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect();
        let kernel = Kernel::rbf(3.0);
        let logging = || LoggingQ {
            inner: DenseQ::from_fn(n, |i, j| ys[i] * ys[j] * kernel.eval(&xs[i], &xs[j])),
            log: Default::default(),
        };
        let params = SmoParams { cache_rows: 24, ..SmoParams::default() };
        let problem = SmoProblem {
            y: ys.clone(),
            p: vec![-1.0; n],
            upper_bound: vec![50.0; n],
            initial_alpha: vec![0.0; n],
        };
        let q = logging();
        let cold = solve(&q, &problem, &params).unwrap();
        assert_eq!(
            golden(&q, &cold),
            [
                1983,
                4602862335695647745,
                13886108583115962270,
                2814344514694284524,
                858,
                11566040192524442420
            ]
        );

        let mut start: Vec<f64> =
            cold.alpha.iter().map(|&a| (a * (1.5 + uniform(&mut state))).min(50.0)).collect();
        repair_equality_constraint(&mut start, &ys);
        let q = logging();
        let warm = solve(&q, &SmoProblem { initial_alpha: start, ..problem }, &params).unwrap();
        assert_eq!(
            golden(&q, &warm),
            [
                1477,
                4602863700138355561,
                13886108583137249224,
                3028608553789445867,
                711,
                4654561147566798918
            ]
        );
    }
}
