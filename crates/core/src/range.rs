//! Range-query workloads and their strategies: identity, hierarchical,
//! wavelet and sketch.
//!
//! Section 3.1 of the paper lists hierarchical structures \[14\] and the Haar
//! wavelet \[23\] among the groupable strategies its budget optimizer
//! improves: a binary tree over `x` groups rows by level (grouping number
//! `⌈log₂N⌉ + 1` counting the leaf level), and the 1-D Haar matrix groups
//! by resolution level. This module instantiates the framework for interval
//! (range-count) workloads over a 1-D domain, showing that the pipeline is
//! not marginal-specific.
//!
//! Each range strategy is one strategy object (`RangeStrategyOp`, see
//! [`crate::strategy`]) that decides everything about it: its group
//! structure, its observations `z = S·x` through a matrix-free
//! [`LinearOperator`] (tree sums, Haar transforms, CSR products), the
//! sparse column a one-record delta adds, its recovery and its variance
//! predictions. Noise and budgets are shared with every other strategy.
//!
//! Planning and recovery are matrix-free for the identity, tree and Haar
//! strategies: their weighted normal matrices are diagonal in the Haar
//! basis (see the planning section below), so group specs, per-query GLS
//! variances and each range's GLS answer are exact `O(log n)` sums over
//! Haar coefficients, and plans compile for domains far beyond the dense
//! oracle's `n ≲ 4096`. The sketch has no such structure: it is planned by
//! the dense [`crate::framework`] path (which is also the test oracle) and
//! recovers by conjugate gradients on its weighted normal equations.

use crate::api::Answers;
use crate::framework::{gls_recovery, output_variances, Decomposition};
use crate::grouping::{detect_grouping, Grouping};
use crate::strategy::StrategyOperator;
use crate::CoreError;
use dp_linalg::{
    CgOptions, CsrMatrix, HaarOperator, HierarchicalOperator, IdentityOperator, LinearOperator,
    Matrix,
};
use dp_opt::budget::GroupSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// A workload of half-open interval counts `[lo, hi)` over domain `[0, n)`.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeWorkload {
    n: usize,
    ranges: Vec<(usize, usize)>,
}

impl RangeWorkload {
    /// Validates and builds a range workload.
    pub fn new(n: usize, ranges: Vec<(usize, usize)>) -> Result<Self, CoreError> {
        if !n.is_power_of_two() {
            return Err(CoreError::Singular("range domain must be a power of two"));
        }
        for &(lo, hi) in &ranges {
            if lo >= hi || hi > n {
                return Err(CoreError::Shape {
                    context: "range bounds",
                    expected: n,
                    actual: hi,
                });
            }
        }
        if ranges.is_empty() {
            return Err(CoreError::Singular("range workload is empty"));
        }
        Ok(RangeWorkload { n, ranges })
    }

    /// All `n(n+1)/2`-ish prefix ranges `[0, i)` for `i = 1..=n`.
    pub fn all_prefixes(n: usize) -> Result<Self, CoreError> {
        RangeWorkload::new(n, (1..=n).map(|i| (0, i)).collect())
    }

    /// A fixed-width sliding-window workload.
    pub fn sliding_windows(n: usize, width: usize) -> Result<Self, CoreError> {
        if width == 0 || width > n {
            return Err(CoreError::Shape {
                context: "window width",
                expected: n,
                actual: width,
            });
        }
        RangeWorkload::new(n, (0..=n - width).map(|lo| (lo, lo + width)).collect())
    }

    /// Domain size.
    pub fn domain(&self) -> usize {
        self.n
    }

    /// The interval list.
    pub fn ranges(&self) -> &[(usize, usize)] {
        &self.ranges
    }

    /// Materializes the explicit query matrix `Q` (one indicator row per
    /// range).
    pub fn query_matrix(&self) -> Matrix {
        let mut q = Matrix::zeros(self.ranges.len(), self.n);
        for (r, &(lo, hi)) in self.ranges.iter().enumerate() {
            for j in lo..hi {
                q[(r, j)] = 1.0;
            }
        }
        q
    }

    /// Exact answers on a histogram — the matrix-free application of `Q`
    /// via a prefix-sum pass, `O(n + q)` for any number of ranges.
    pub fn true_answers(&self, hist: &[f64]) -> Result<Vec<f64>, CoreError> {
        if hist.len() != self.n {
            return Err(CoreError::Shape {
                context: "range answers",
                expected: self.n,
                actual: hist.len(),
            });
        }
        let mut prefix = vec![0.0; self.n + 1];
        for (i, &h) in hist.iter().enumerate() {
            prefix[i + 1] = prefix[i] + h;
        }
        Ok(self
            .ranges
            .iter()
            .map(|&(lo, hi)| prefix[hi] - prefix[lo])
            .collect())
    }
}

/// Which strategy matrix to use for a range workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeStrategy {
    /// Noisy base counts (`S = I`).
    Identity,
    /// The full binary-tree hierarchy of \[14\] (all levels, root to leaves).
    Hierarchical,
    /// The orthonormal Haar wavelet of \[23\].
    Wavelet,
    /// Sparse random projections / sketches \[5\]: the domain is hashed into
    /// buckets with random ±1 signs, repeated `repetitions` times. Each
    /// repetition's rows have disjoint supports and unit magnitude, so the
    /// grouping number is the repetition count `t` (paper, Section 3.1).
    /// The seed makes the strategy reproducible.
    Sketch {
        /// Number of independent repetitions `t` (= groups).
        repetitions: usize,
        /// Buckets per repetition.
        buckets: usize,
        /// RNG seed for the hash/sign draws.
        seed: u64,
    },
}

impl RangeStrategy {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            RangeStrategy::Identity => "I",
            RangeStrategy::Hierarchical => "H",
            RangeStrategy::Wavelet => "W",
            RangeStrategy::Sketch { .. } => "S",
        }
    }
}

/// Builds the explicit strategy matrix for a domain of size `n` — the
/// planning/oracle representation; releases use [`strategy_operator`].
pub fn strategy_matrix(strategy: RangeStrategy, n: usize) -> Matrix {
    assert!(n.is_power_of_two());
    match strategy {
        RangeStrategy::Identity => Matrix::identity(n),
        RangeStrategy::Hierarchical => {
            // One row per tree node: levels from the root (width n) down to
            // the leaves (width 1); m = 2n − 1 rows.
            let levels = n.trailing_zeros() as usize;
            let mut rows: Vec<Vec<f64>> = Vec::with_capacity(2 * n - 1);
            for level in 0..=levels {
                let width = n >> level;
                for start in (0..n).step_by(width) {
                    let mut row = vec![0.0; n];
                    for r in row.iter_mut().skip(start).take(width) {
                        *r = 1.0;
                    }
                    rows.push(row);
                }
            }
            Matrix::from_rows(&rows.iter().map(|r| r.as_slice()).collect::<Vec<_>>())
                .expect("tree rows are rectangular")
        }
        RangeStrategy::Wavelet => {
            let mut m = Matrix::zeros(n, n);
            for j in 0..n {
                let mut e = vec![0.0; n];
                e[j] = 1.0;
                dp_linalg::haar_forward(&mut e);
                for (i, &v) in e.iter().enumerate() {
                    m[(i, j)] = v;
                }
            }
            m
        }
        RangeStrategy::Sketch {
            repetitions,
            buckets,
            seed,
        } => {
            assert!(repetitions > 0 && buckets > 0, "sketch needs t, b ≥ 1");
            let mut rng = StdRng::seed_from_u64(seed);
            let mut rows = vec![vec![0.0; n]; repetitions * buckets];
            for rep in 0..repetitions {
                // The bucket (row) is drawn per column, so the column loop
                // cannot become a row iterator.
                #[allow(clippy::needless_range_loop)]
                for col in 0..n {
                    let bucket = rng.gen_range(0..buckets);
                    let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
                    rows[rep * buckets + bucket][col] = sign;
                }
            }
            // Buckets that received no columns are all-zero rows: they
            // carry no information and would defeat the grouping property,
            // so drop them.
            rows.retain(|r| r.iter().any(|&v| v != 0.0));
            Matrix::from_rows(&rows.iter().map(|r| r.as_slice()).collect::<Vec<_>>())
                .expect("sketch rows are rectangular")
        }
    }
}

/// The matrix-free release-path operator for a range strategy, with row
/// order identical to [`strategy_matrix`].
pub fn strategy_operator(
    strategy: RangeStrategy,
    n: usize,
) -> Box<dyn LinearOperator + Send + Sync> {
    assert!(n.is_power_of_two());
    match strategy {
        RangeStrategy::Identity => Box::new(IdentityOperator { n }),
        RangeStrategy::Hierarchical => Box::new(HierarchicalOperator::new(n)),
        RangeStrategy::Wavelet => Box::new(HaarOperator::new(n)),
        RangeStrategy::Sketch { .. } => Box::new(sketch_csr(strategy, n)),
    }
}

/// The sketch strategy matrix in CSR form (sketches are genuinely sparse
/// unstructured matrices; everything else stays matrix-free).
fn sketch_csr(strategy: RangeStrategy, n: usize) -> CsrMatrix {
    let dense = strategy_matrix(strategy, n);
    let mut triplets = Vec::new();
    for i in 0..dense.rows() {
        for (j, &v) in dense.row(i).iter().enumerate() {
            if v != 0.0 {
                triplets.push((i, j, v));
            }
        }
    }
    CsrMatrix::from_triplets(dense.rows(), n, &triplets)
        .expect("triplets are in range by construction")
}

/// A range strategy compiled **without data**: the matrix-free operator
/// `S`, the group structure and, for the sketch, the transposed matrix for
/// per-record deltas. The identity, tree and Haar strategies compile
/// analytically (no dense matrix at any size) and recover in closed form
/// through the Haar diagonalization of their normal matrices (see
/// [`haar_diagonal_sum`]); the sketch is planned by the dense oracle and
/// recovers by CG on the weighted normal equations, then answers via the
/// prefix-sum application of `Q`.
pub(crate) struct RangeStrategyOp {
    strategy: RangeStrategy,
    operator: Box<dyn LinearOperator + Send + Sync>,
    /// The transposed sketch (row `j` lists `(i, S[i, j])`), for
    /// `O(column nnz)` deltas; `None` for the structured strategies, whose
    /// columns are computed on the fly.
    sketch_columns: Option<CsrMatrix>,
    workload: RangeWorkload,
    specs: Vec<GroupSpec>,
    row_groups: Vec<u32>,
}

impl RangeStrategyOp {
    /// Compiles the strategy for a workload (data-independent).
    pub(crate) fn build(
        workload: &RangeWorkload,
        strategy: RangeStrategy,
    ) -> Result<Self, CoreError> {
        let n = workload.domain();
        let (specs, grouping) = match analytic_range_structure(workload, strategy) {
            Some(parts) => parts,
            None => dense_range_structure(workload, strategy)?,
        };
        let sketch_columns = match strategy {
            RangeStrategy::Sketch { .. } => Some(sketch_csr(strategy, n).transposed()),
            _ => None,
        };
        Ok(RangeStrategyOp {
            strategy,
            operator: strategy_operator(strategy, n),
            sketch_columns,
            workload: workload.clone(),
            specs,
            row_groups: grouping.assignment().iter().map(|&g| g as u32).collect(),
        })
    }
}

impl StrategyOperator for RangeStrategyOp {
    fn group_specs(&self) -> &[GroupSpec] {
        &self.specs
    }

    fn row_groups(&self) -> &[u32] {
        &self.row_groups
    }

    fn domain(&self) -> usize {
        self.workload.domain()
    }

    fn observe(&self, hist: &[f64]) -> Result<Vec<f64>, CoreError> {
        Ok(self.operator.apply(hist))
    }

    fn add_column(&self, z: &mut [f64], cell: usize, delta: f64) {
        let n = self.workload.domain();
        match self.strategy {
            RangeStrategy::Identity => z[cell] += delta,
            // Level ℓ of the tree contributes row `2^ℓ − 1 + (j >> (levels
            // − ℓ))` (the dyadic block of width `n/2^ℓ` containing `j`).
            RangeStrategy::Hierarchical => {
                let levels = n.trailing_zeros() as usize;
                for level in 0..=levels {
                    z[(1usize << level) - 1 + (cell >> (levels - level))] += delta;
                }
            }
            // Column `j` of the Haar analysis = the coefficients of the
            // unit indicator `[j, j+1)`.
            RangeStrategy::Wavelet => {
                for (i, c) in haar_range_coeffs(n, cell, cell + 1) {
                    z[i] += delta * c;
                }
            }
            RangeStrategy::Sketch { .. } => {
                let transposed = self
                    .sketch_columns
                    .as_ref()
                    .expect("a sketch keeps its transposed matrix");
                for (i, v) in transposed.row_entries(cell) {
                    z[i] += delta * v;
                }
            }
        }
    }

    fn recover(&self, noisy: &[f64], group_weights: &[f64]) -> Result<Answers, CoreError> {
        let row_weights = self.row_groups.iter().map(|&g| group_weights[g as usize]);
        let n = self.workload.domain();
        let Some(lam) = haar_eigenvalues(self.strategy, n, group_weights) else {
            let row_weights: Vec<f64> = row_weights.collect();
            let x_hat = dp_linalg::gls_normal_solve(
                &self.operator,
                &row_weights,
                noisy,
                CgOptions::default(),
            )?;
            return self.workload.true_answers(&x_hat).map(Answers::Ranges);
        };
        let weighted: Vec<f64> = noisy.iter().zip(row_weights).map(|(v, w)| v * w).collect();
        // y = H·Sᵀ(W ⊙ z̃): the Haar coefficients of the normal equations'
        // right-hand side. The Haar strategy is its own basis (H·Hᵀ = I), so
        // its y is W ⊙ z̃ as is.
        let y = if self.strategy == RangeStrategy::Wavelet {
            weighted
        } else {
            let mut y = self.operator.apply_transpose(&weighted);
            dp_linalg::haar_forward(&mut y);
            y
        };
        self.workload
            .ranges()
            .par_iter()
            .map(|&(lo, hi)| haar_diagonal_sum(n, lo, hi, &lam, |i, c| c * y[i]))
            .collect::<Result<_, _>>()
            .map(Answers::Ranges)
    }

    /// Exact per-query output variances of the final GLS recovery:
    /// `Var(y_j) = q_jᵀ (SᵀΣ⁻¹S)⁻¹ q_j`, in closed form through the Haar
    /// diagonalization for the structured strategies and via the dense
    /// oracle for sketches. A structured-strategy query that reads a
    /// withheld Haar level is [`CoreError::Singular`]; the sketch's CG needs
    /// every row, so it refuses any withheld group.
    fn query_variances(&self, group_sigma2: &[f64]) -> Result<Vec<f64>, CoreError> {
        let n = self.workload.domain();
        let weights: Vec<f64> = group_sigma2.iter().map(|&v| 1.0 / v).collect();
        if let Some(lam) = haar_eigenvalues(self.strategy, n, &weights) {
            return self
                .workload
                .ranges()
                .par_iter()
                .map(|&(lo, hi)| haar_diagonal_sum(n, lo, hi, &lam, |_, c| c * c))
                .collect();
        }
        if group_sigma2.iter().any(|v| !v.is_finite()) {
            return Err(CoreError::Singular(
                "a strategy row received zero budget; drop unused rows first",
            ));
        }
        let row_variances: Vec<f64> = self
            .row_groups
            .iter()
            .map(|&g| group_sigma2[g as usize])
            .collect();
        let q = self.workload.query_matrix();
        let s = strategy_matrix(self.strategy, n);
        let r = gls_recovery(&q, &s, &row_variances)?;
        output_variances(&r, &row_variances)
    }
}

// ---------------------------------------------------------------------------
// Matrix-free planning: closed-form group structure and variances.
//
// The key structural fact: every matrix this module groups by *levels* is
// diagonalized by the orthonormal Haar basis. Writing `H` for the Haar
// analysis transform,
//
// * the Haar strategy itself satisfies `SᵀΣ⁻¹S = Hᵀ diag(w_level(i)) H`
//   (rows are the basis, weights constant per level), and
// * the tree strategy's level-`t` rows are the indicators of the width
//   `n/2^t` dyadic blocks, whose outer-product sum is the block-ones matrix
//   `J_{n/2^t}` — and every `J_w` has the Haar vectors as eigenvectors
//   (eigenvalue `w` for basis vectors constant on `w`-blocks, 0 otherwise),
//   so `SᵀΣ⁻¹S = Σ_t w_t J_{n/2^t} = Hᵀ diag(λ) H` with the closed form
//   `λ_i = Σ_{t : n/2^t ≤ p_i} w_t · n/2^t` (`p_i` = the constant-piece
//   width of Haar vector `i`; uniform weights give `λ_i = 2p_i − 1`).
//
// Combined with the fact that a range indicator has only `O(log n)` nonzero
// Haar coefficients (a mean-zero basis vector whose support does not
// straddle an endpoint integrates to 0 over the range), group specs and
// exact per-query GLS variances follow without materializing `Q` or `S` —
// planning is `O(q log² n)` and works for domains far beyond the dense
// oracle's reach. Tests cross-check everything against the dense path.
// ---------------------------------------------------------------------------

/// The nonzero orthonormal-Haar coefficients of the indicator of `[lo, hi)`
/// over `[0, n)`, as `(coefficient index, value)` pairs — at most
/// `2·log₂ n + 1` of them, in index order per level.
fn haar_range_coeffs(n: usize, lo: usize, hi: usize) -> Vec<(usize, f64)> {
    debug_assert!(lo < hi && hi <= n);
    let overlap = |a: usize, b: usize| -> f64 { hi.min(b).saturating_sub(lo.max(a)) as f64 };
    let mut out = vec![(0usize, (hi - lo) as f64 / (n as f64).sqrt())];
    let levels = n.trailing_zeros() as usize;
    for level in 1..=levels {
        let support = n >> (level - 1);
        let half = support / 2;
        let mag = 1.0 / (support as f64).sqrt();
        let base = 1usize << (level - 1);
        let k_lo = lo / support;
        let k_hi = (hi - 1) / support;
        for k in [k_lo, k_hi] {
            if k == k_hi && k_hi == k_lo && out.last().map(|&(i, _)| i) == Some(base + k) {
                continue; // both endpoints in the same support: emit once
            }
            let start = k * support;
            let v = mag * (overlap(start, start + half) - overlap(start + half, start + support));
            if v != 0.0 {
                out.push((base + k, v));
            }
        }
    }
    out
}

/// Haar level → constant-piece width `p`: the average vector is constant
/// over all `n` cells; a detail vector at level `ℓ ≥ 1` has two constant
/// pieces of width `n/2^ℓ` each.
fn haar_piece_width(n: usize, haar_level: usize) -> usize {
    if haar_level == 0 {
        n
    } else {
        n >> haar_level
    }
}

/// Eigenvalues of the tree normal matrix `Σ_t w_t J_{n/2^t}` in the Haar
/// basis, indexed by Haar *level* (see the module comment): one entry per
/// level `0 ..= log₂ n`, with `level_weights[t]` the weight of tree level
/// `t` (root first).
fn tree_haar_eigenvalues(n: usize, level_weights: &[f64]) -> Vec<f64> {
    let levels = n.trailing_zeros() as usize;
    debug_assert_eq!(level_weights.len(), levels + 1);
    (0..=levels)
        .map(|h| {
            let p = haar_piece_width(n, h);
            (0..=levels)
                .filter(|&t| (n >> t) <= p)
                .map(|t| level_weights[t] * (n >> t) as f64)
                .sum()
        })
        .collect()
}

/// The Haar-basis eigenvalues `λ` (one per Haar level) of the weighted
/// normal matrix `SᵀWS = Hᵀ diag(λ) H` for per-group weights `w`: `w₀` at
/// every level for the identity, [`tree_haar_eigenvalues`] for the tree,
/// and `w` itself for the Haar strategy (its groups are the Haar levels).
/// `None` for the sketch, which has no such diagonalization.
fn haar_eigenvalues(strategy: RangeStrategy, n: usize, group_weights: &[f64]) -> Option<Vec<f64>> {
    let levels = n.trailing_zeros() as usize;
    match strategy {
        RangeStrategy::Identity => Some(vec![group_weights[0]; levels + 1]),
        RangeStrategy::Hierarchical => Some(tree_haar_eigenvalues(n, group_weights)),
        RangeStrategy::Wavelet => Some(group_weights.to_vec()),
        RangeStrategy::Sketch { .. } => None,
    }
}

/// `Σ_i term(i, c_i) / λ_level(i)` over the nonzero Haar coefficients
/// `(i, c_i)` of the indicator of `[lo, hi)`. With `term = c·y_i` this is
/// the range's GLS answer `qᵀ(SᵀWS)⁺SᵀW z̃` (`y = H·SᵀW z̃`); with
/// `term = c²` and `λ` from inverse noise variances, its variance
/// `qᵀ(SᵀΣ⁻¹S)⁺q`. Only coefficients the range reads are touched, so
/// withheld (zero-weight) levels are harmless unless the range needs one:
/// then the system is singular for it and the sum is refused.
fn haar_diagonal_sum(
    n: usize,
    lo: usize,
    hi: usize,
    lam: &[f64],
    term: impl Fn(usize, f64) -> f64,
) -> Result<f64, CoreError> {
    haar_range_coeffs(n, lo, hi)
        .into_iter()
        .map(|(i, c)| match lam[dp_linalg::haar_level(i)] {
            l if l > 0.0 => Ok(term(i, c) / l),
            _ => Err(CoreError::Singular(
                "a range reads a Haar level that received zero budget",
            )),
        })
        .sum()
}

/// A piecewise-constant function on `[0, n)` with its prefix integral —
/// the representation of `R₀`'s per-query input `u = (SᵀS)⁻¹ q_j` for the
/// tree strategy (a sparse Haar synthesis).
struct PiecewiseConstant {
    /// Sorted breakpoints `0 = b_0 < … < b_K = n`.
    bounds: Vec<usize>,
    /// Value on `[b_k, b_{k+1})`.
    values: Vec<f64>,
    /// `P(b_k)` — prefix integral at each breakpoint.
    prefix: Vec<f64>,
}

impl PiecewiseConstant {
    /// Synthesizes `Σ (index, coeff) · h_index` from sparse Haar
    /// coefficients.
    fn from_haar(n: usize, coeffs: &[(usize, f64)]) -> PiecewiseConstant {
        let mut bounds = vec![0, n];
        for &(i, _) in coeffs {
            if i > 0 {
                let level = dp_linalg::haar_level(i);
                let support = n >> (level - 1);
                let start = (i - (1 << (level - 1))) * support;
                bounds.extend([start, start + support / 2, start + support]);
            }
        }
        bounds.sort_unstable();
        bounds.dedup();
        // Evaluate the synthesis at each piece's left edge.
        let values: Vec<f64> = bounds[..bounds.len() - 1]
            .iter()
            .map(|&x| {
                coeffs
                    .iter()
                    .map(|&(i, c)| {
                        if i == 0 {
                            return c / (n as f64).sqrt();
                        }
                        let level = dp_linalg::haar_level(i);
                        let support = n >> (level - 1);
                        let start = (i - (1 << (level - 1))) * support;
                        let mag = 1.0 / (support as f64).sqrt();
                        if x >= start && x < start + support / 2 {
                            c * mag
                        } else if x >= start + support / 2 && x < start + support {
                            -c * mag
                        } else {
                            0.0
                        }
                    })
                    .sum()
            })
            .collect();
        let mut prefix = vec![0.0; bounds.len()];
        for k in 0..values.len() {
            prefix[k + 1] = prefix[k] + values[k] * (bounds[k + 1] - bounds[k]) as f64;
        }
        PiecewiseConstant {
            bounds,
            values,
            prefix,
        }
    }

    /// The prefix integral `P(t) = ∫₀ᵗ u`.
    fn integral_to(&self, t: usize) -> f64 {
        let k = self.bounds.partition_point(|&b| b <= t) - 1;
        self.prefix[k] + self.values.get(k).copied().unwrap_or(0.0) * (t - self.bounds[k]) as f64
    }

    /// `Σ_k (∫ over dyadic node k of width w)²` for all `n/w` nodes: nodes
    /// containing an interior breakpoint are evaluated directly; maximal
    /// runs of nodes inside one piece contribute `count · (w·v)²` at once.
    fn node_sum_of_squares(&self, w: usize) -> f64 {
        let mut total = 0.0;
        // Nodes with a breakpoint strictly inside.
        let n = *self.bounds.last().expect("bounds non-empty");
        let mut last_special = usize::MAX;
        for &b in &self.bounds {
            if b == 0 || b >= n || b % w == 0 {
                continue;
            }
            let k = b / w;
            if k != last_special {
                let v = self.integral_to((k + 1) * w) - self.integral_to(k * w);
                total += v * v;
                last_special = k;
            }
        }
        // Runs of nodes fully inside one constant piece.
        for (k, &v) in self.values.iter().enumerate() {
            let first = self.bounds[k].div_ceil(w);
            let last = self.bounds[k + 1] / w;
            if last > first {
                total += (last - first) as f64 * (w as f64 * v) * (w as f64 * v);
            }
        }
        total
    }
}

/// Closed-form group structure of a range strategy: the grouping (levels)
/// and the per-group specs `(C_r, s_r)` with `s_r` from the uniform-noise
/// initial recovery `R₀` — all without materializing `Q` or `S`. `None`
/// for [`RangeStrategy::Sketch`], whose structure is data-driven.
fn analytic_range_structure(
    workload: &RangeWorkload,
    strategy: RangeStrategy,
) -> Option<(Vec<GroupSpec>, Grouping)> {
    let n = workload.domain();
    let levels = n.trailing_zeros() as usize;
    match strategy {
        RangeStrategy::Identity => {
            // R₀ = Q: b_i counts the ranges covering cell i, so the single
            // group's weight is the total covered length.
            let s: usize = workload.ranges().iter().map(|&(lo, hi)| hi - lo).sum();
            Some((
                vec![GroupSpec {
                    c: 1.0,
                    s: s as f64,
                }],
                Grouping::from_parts(vec![0; n], vec![1.0]),
            ))
        }
        RangeStrategy::Wavelet => {
            // R₀ = Q Hᵀ (Observation 1): row j of R₀ is exactly the sparse
            // Haar analysis of range j's indicator.
            let mut s_per_level = vec![0.0; levels + 1];
            for &(lo, hi) in workload.ranges() {
                for (i, c) in haar_range_coeffs(n, lo, hi) {
                    s_per_level[dp_linalg::haar_level(i)] += c * c;
                }
            }
            let assignment: Vec<usize> = (0..n).map(dp_linalg::haar_level).collect();
            let magnitudes: Vec<f64> = (0..=levels)
                .map(|h| {
                    if h == 0 {
                        1.0 / (n as f64).sqrt()
                    } else {
                        1.0 / ((n >> (h - 1)) as f64).sqrt()
                    }
                })
                .collect();
            let specs = magnitudes
                .iter()
                .zip(&s_per_level)
                .map(|(&c, &s)| GroupSpec { c, s })
                .collect();
            Some((specs, Grouping::from_parts(assignment, magnitudes)))
        }
        RangeStrategy::Hierarchical => {
            // R₀ = Q(SᵀS)⁻¹Sᵀ: per query, u = (SᵀS)⁻¹q_j is a sparse Haar
            // synthesis (closed-form eigenvalues 2p − 1), and row j of R₀
            // restricted to tree level t is the node sums of u at width
            // n/2^t.
            let lam = tree_haar_eigenvalues(n, &vec![1.0; levels + 1]);
            let mut s_per_level = vec![0.0; levels + 1];
            let level_sums: Vec<Vec<f64>> = workload
                .ranges()
                .par_iter()
                .map(|&(lo, hi)| {
                    let scaled: Vec<(usize, f64)> = haar_range_coeffs(n, lo, hi)
                        .into_iter()
                        .map(|(i, c)| (i, c / lam[dp_linalg::haar_level(i)]))
                        .collect();
                    let u = PiecewiseConstant::from_haar(n, &scaled);
                    (0..=levels)
                        .map(|t| u.node_sum_of_squares(n >> t))
                        .collect()
                })
                .collect();
            for sums in level_sums {
                for (acc, v) in s_per_level.iter_mut().zip(sums) {
                    *acc += v;
                }
            }
            let mut assignment = Vec::with_capacity(2 * n - 1);
            for t in 0..=levels {
                assignment.extend(std::iter::repeat_n(t, 1usize << t));
            }
            let specs = s_per_level
                .iter()
                .map(|&s| GroupSpec { c: 1.0, s })
                .collect();
            Some((
                specs,
                Grouping::from_parts(assignment, vec![1.0; levels + 1]),
            ))
        }
        RangeStrategy::Sketch { .. } => None,
    }
}

/// Dense group-structure oracle: materializes `S`, detects the grouping and
/// derives `s_r` from the dense uniform-noise `R₀`. Used for the sketch
/// strategy (whose structure is data-driven) and by tests as the
/// cross-check for [`analytic_range_structure`].
pub(crate) fn dense_range_structure(
    workload: &RangeWorkload,
    strategy: RangeStrategy,
) -> Result<(Vec<GroupSpec>, Grouping), CoreError> {
    let n = workload.domain();
    let q = workload.query_matrix();
    let s = strategy_matrix(strategy, n);
    let grouping =
        detect_grouping(&s).ok_or(CoreError::Singular("strategy matrix is not groupable"))?;
    // Initial recovery R₀ for the budget weights: least squares under
    // uniform noise (this matches prior work's recovery for each strategy).
    let r0 = gls_recovery(&q, &s, &vec![1.0; s.rows()])?;
    let dec0 = Decomposition { q, s, r: r0 };
    // For non-marginal recoveries R₀ may violate exact per-group weight
    // equality (Definition 3.2); group_specs enforces it strictly, so fall
    // back to summing weights per group when it does not hold exactly.
    let specs: Vec<GroupSpec> = match dec0.group_specs(&grouping, &vec![1.0; dec0.q.rows()]) {
        Ok(s) => s,
        Err(_) => {
            let b = dec0.recovery_weights(&vec![1.0; dec0.q.rows()])?;
            let g = grouping.num_groups();
            let mut specs = vec![GroupSpec { c: 0.0, s: 0.0 }; g];
            for (i, &gid) in grouping.assignment().iter().enumerate() {
                specs[gid].c = grouping.magnitudes()[gid];
                specs[gid].s += b[i];
            }
            specs
        }
    };
    Ok((specs, grouping))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Plan, PlanBuilder, Session};
    use crate::strategy::{noise_variance, perturb_observations, solve_budgets, Budgeting};
    use dp_mech::{LaplaceMechanism, NoiseMechanism, PrivacyLevel};

    fn hist(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 13) % 7) as f64).collect()
    }

    fn compile(w: &RangeWorkload, strategy: RangeStrategy, budgeting: Budgeting, eps: f64) -> Plan {
        PlanBuilder::ranges(w.clone(), strategy)
            .budgeting(budgeting)
            .privacy(PrivacyLevel::Pure { epsilon: eps })
            .compile()
            .unwrap()
    }

    fn release(plan: &Plan, h: &[f64], seed: u64) -> Vec<f64> {
        let session = Session::bind_histogram(plan, h).unwrap();
        session
            .release(seed)
            .unwrap()
            .answers
            .into_ranges()
            .unwrap()
    }

    fn total_variance(plan: &Plan) -> f64 {
        plan.query_variances().iter().sum()
    }

    /// The dense decomposition `(Q, S, R)` with `R` the GLS recovery at the
    /// plan's per-row noise variances.
    fn dense_decomposition(
        w: &RangeWorkload,
        strategy: RangeStrategy,
        plan: &Plan,
    ) -> Decomposition {
        let q = w.query_matrix();
        let s = strategy_matrix(strategy, w.domain());
        let grouping = detect_grouping(&s).unwrap();
        let budgets = &plan.solution().group_budgets;
        let row_variances: Vec<f64> = grouping
            .assignment()
            .iter()
            .map(|&g| noise_variance(plan.privacy(), budgets[g]))
            .collect();
        let r = gls_recovery(&q, &s, &row_variances).unwrap();
        Decomposition { q, s, r }
    }

    #[test]
    fn workload_builders() {
        let w = RangeWorkload::all_prefixes(8).unwrap();
        assert_eq!(w.ranges().len(), 8);
        let w = RangeWorkload::sliding_windows(8, 3).unwrap();
        assert_eq!(w.ranges().len(), 6);
        assert!(RangeWorkload::new(6, vec![(0, 1)]).is_err()); // not a power of two
        assert!(RangeWorkload::new(8, vec![(3, 2)]).is_err());
        assert!(RangeWorkload::new(8, vec![(0, 9)]).is_err());
        assert!(RangeWorkload::new(8, vec![]).is_err());
        assert!(RangeWorkload::sliding_windows(8, 0).is_err());
    }

    #[test]
    fn true_answers_match_query_matrix() {
        let w = RangeWorkload::new(8, vec![(0, 4), (2, 7), (5, 6)]).unwrap();
        let h = hist(8);
        let direct = w.true_answers(&h).unwrap();
        let via_q = w.query_matrix().matvec(&h).unwrap();
        for (a, b) in direct.iter().zip(&via_q) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn strategy_matrices_shapes_and_groupings() {
        let n = 16;
        let s_i = strategy_matrix(RangeStrategy::Identity, n);
        assert_eq!(detect_grouping(&s_i).unwrap().num_groups(), 1);
        let s_h = strategy_matrix(RangeStrategy::Hierarchical, n);
        assert_eq!(s_h.rows(), 2 * n - 1);
        // Tree: one group per level = log2(n) + 1 (paper, Section 3.1).
        assert_eq!(detect_grouping(&s_h).unwrap().num_groups(), 5);
        let s_w = strategy_matrix(RangeStrategy::Wavelet, n);
        // Haar: log2(n) + 1 levels (paper: "g = ⌈log₂N⌉ + 1").
        assert_eq!(detect_grouping(&s_w).unwrap().num_groups(), 5);
    }

    #[test]
    fn operators_match_strategy_matrices() {
        // The matrix-free release operators must agree row-for-row with the
        // dense planning matrices for every strategy.
        let n = 16;
        let x = hist(n);
        for strategy in [
            RangeStrategy::Identity,
            RangeStrategy::Hierarchical,
            RangeStrategy::Wavelet,
            RangeStrategy::Sketch {
                repetitions: 3,
                buckets: 8,
                seed: 42,
            },
        ] {
            let dense = strategy_matrix(strategy, n);
            let op = strategy_operator(strategy, n);
            assert_eq!(op.rows(), dense.rows(), "{strategy:?}");
            assert_eq!(op.cols(), dense.cols(), "{strategy:?}");
            let via_op = op.apply(&x);
            let via_dense = dense.matvec(&x).unwrap();
            for (a, b) in via_op.iter().zip(&via_dense) {
                assert!((a - b).abs() < 1e-10, "{strategy:?}: {a} vs {b}");
            }
            let y: Vec<f64> = (0..dense.rows()).map(|i| ((i * 3) % 5) as f64).collect();
            let t_op = op.apply_transpose(&y);
            let t_dense = dense.matvec_transposed(&y).unwrap();
            for (a, b) in t_op.iter().zip(&t_dense) {
                assert!((a - b).abs() < 1e-10, "{strategy:?} transpose: {a} vs {b}");
            }
        }
    }

    #[test]
    fn plans_are_unbiased_and_noise_scales() {
        let w = RangeWorkload::all_prefixes(16).unwrap();
        let h = hist(16);
        let exact = w.true_answers(&h).unwrap();
        let plan = compile(&w, RangeStrategy::Hierarchical, Budgeting::Optimal, 1.0);
        let session = Session::bind_histogram(&plan, &h).unwrap();
        let trials = 800;
        let seeds: Vec<u64> = (0..trials).collect();
        let mut mean = vec![0.0; exact.len()];
        for r in session.release_batch(&seeds).unwrap() {
            for (m, v) in mean.iter_mut().zip(r.answers.ranges().unwrap()) {
                *m += v / trials as f64;
            }
        }
        for (m, e) in mean.iter().zip(&exact) {
            assert!((m - e).abs() < 2.0, "mean {m} vs exact {e}");
        }
    }

    #[test]
    fn release_matches_dense_gls_recovery() {
        // The closed-form recovery through the release step must match the
        // dense R·z̃ oracle on the identical noisy observations: replay the
        // release's noise with `perturb_observations` from the same seed
        // and apply the dense GLS recovery matrix to it.
        for n in [16usize, 256] {
            let w = RangeWorkload::new(
                n,
                vec![(0, 5), (3, 11), (8, n), (n / 2, n / 2 + 1), (1, n - 1)],
            )
            .unwrap();
            let h = hist(n);
            for strategy in [
                RangeStrategy::Identity,
                RangeStrategy::Hierarchical,
                RangeStrategy::Wavelet,
            ] {
                for budgeting in [Budgeting::Uniform, Budgeting::Optimal] {
                    let plan = compile(&w, strategy, budgeting, 0.9);
                    let seed = 5;
                    let fast = release(&plan, &h, seed);
                    let dec = dense_decomposition(&w, strategy, &plan);
                    let row_groups: Vec<u32> = detect_grouping(&dec.s)
                        .unwrap()
                        .assignment()
                        .iter()
                        .map(|&g| g as u32)
                        .collect();
                    let noisy = perturb_observations(
                        &dec.s.matvec(&h).unwrap(),
                        &row_groups,
                        &plan.solution().group_budgets,
                        plan.privacy(),
                        &mut StdRng::seed_from_u64(seed),
                    );
                    let oracle = dec.r.matvec(&noisy).unwrap();
                    for (a, b) in fast.iter().zip(&oracle) {
                        assert!(
                            (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                            "{strategy:?}/{budgeting:?} n={n}: release {a} vs dense oracle {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zero_budget_levels_compile_and_release_for_structured_strategies() {
        // Optimal budgets withhold every group no range reads (s = 0): W+
        // on these workloads spends everything on Haar levels 0 (and 1).
        // The closed-form recovery never touches a withheld level, so the
        // plans compile, release finite answers, are exact as ε → ∞, and
        // vary as predicted.
        let n = 16;
        let h = hist(n);
        for ranges in [vec![(0, 16)], vec![(0, 8), (8, 16)]] {
            let w = RangeWorkload::new(n, ranges).unwrap();
            let exact = w.true_answers(&h).unwrap();
            for strategy in [RangeStrategy::Wavelet, RangeStrategy::Hierarchical] {
                let plan = compile(&w, strategy, Budgeting::Optimal, 1.0);
                if strategy == RangeStrategy::Wavelet {
                    assert!(plan.solution().group_budgets.contains(&0.0));
                }
                let trials = 4000u64;
                let seeds: Vec<u64> = (0..trials).collect();
                let session = Session::bind_histogram(&plan, &h).unwrap();
                let mut sq_err = vec![0.0; exact.len()];
                for r in session.release_batch(&seeds).unwrap() {
                    for ((acc, a), e) in sq_err
                        .iter_mut()
                        .zip(r.answers.ranges().unwrap())
                        .zip(&exact)
                    {
                        assert!(a.is_finite(), "{strategy:?}: non-finite answer");
                        *acc += (a - e) * (a - e) / trials as f64;
                    }
                }
                // Laplace's kurtosis is 6, so the relative standard error
                // of a 4000-sample variance is ≈ √(5/4000) ≈ 3.5%.
                for (j, (v, p)) in sq_err.iter().zip(plan.query_variances()).enumerate() {
                    assert!(
                        (v - p).abs() < 0.15 * p,
                        "{strategy:?} query {j}: empirical variance {v} vs predicted {p}"
                    );
                }
                let sharp = compile(&w, strategy, Budgeting::Optimal, 1e9);
                for (a, b) in release(&sharp, &h, 3).iter().zip(&exact) {
                    assert!((a - b).abs() < 1e-6, "{strategy:?}: ε→∞ {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn a_range_reading_a_withheld_level_is_singular_not_nan() {
        // Defense in depth below the planner: if a range ever needs a Haar
        // level whose weight is zero, recovery and variance prediction both
        // refuse with a typed error instead of dividing by zero.
        let n = 16;
        let w = RangeWorkload::new(n, vec![(0, 8), (3, 5)]).unwrap();
        for strategy in [RangeStrategy::Wavelet, RangeStrategy::Hierarchical] {
            let op = RangeStrategyOp::build(&w, strategy).unwrap();
            let groups = op.group_specs().len();
            // Withhold the finest level: (3, 5) reads it under both
            // strategies (the tree's finest Haar level sees only leaves).
            let mut weights = vec![1.0; groups];
            weights[groups - 1] = 0.0;
            let noisy = vec![1.0; op.row_groups().len()];
            assert!(matches!(
                op.recover(&noisy, &weights),
                Err(CoreError::Singular(_))
            ));
            let mut sigma2 = vec![1.0; groups];
            sigma2[groups - 1] = f64::INFINITY;
            assert!(matches!(
                op.query_variances(&sigma2),
                Err(CoreError::Singular(_))
            ));
        }
    }

    #[test]
    fn releases_are_deterministic_per_seed() {
        let w = RangeWorkload::all_prefixes(32).unwrap();
        let h = hist(32);
        let plan = compile(&w, RangeStrategy::Wavelet, Budgeting::Optimal, 1.0);
        let run = |seed: u64| release(&plan, &h, seed);
        assert_eq!(run(77), run(77));
        assert_ne!(run(77), run(78));
    }

    #[test]
    fn optimal_budgets_beat_uniform_for_prefix_workloads() {
        let w = RangeWorkload::all_prefixes(32).unwrap();
        for strategy in [RangeStrategy::Hierarchical, RangeStrategy::Wavelet] {
            let uni = total_variance(&compile(&w, strategy, Budgeting::Uniform, 1.0));
            let opt = total_variance(&compile(&w, strategy, Budgeting::Optimal, 1.0));
            assert!(opt <= uni * (1.0 + 1e-9), "{strategy:?}: {opt} vs {uni}");
        }
    }

    #[test]
    fn hierarchy_scales_polylog_while_identity_scales_linearly() {
        // The classic result [14] holds asymptotically: the tree's total
        // prefix variance grows like n·log³n while identity grows like n².
        // (The crossover sits beyond dense-test sizes, so we assert the
        // growth *rates* rather than absolute dominance.)
        let totals = |n: usize| -> (f64, f64) {
            let w = RangeWorkload::all_prefixes(n).unwrap();
            let ident = compile(&w, RangeStrategy::Identity, Budgeting::Optimal, 1.0);
            let tree = compile(&w, RangeStrategy::Hierarchical, Budgeting::Optimal, 1.0);
            (total_variance(&ident), total_variance(&tree))
        };
        let (i32_, t32) = totals(32);
        let (i128, t128) = totals(128);
        let ident_growth = i128 / i32_;
        let tree_growth = t128 / t32;
        assert!(
            tree_growth < 0.8 * ident_growth,
            "tree growth {tree_growth} vs identity growth {ident_growth}"
        );
    }

    #[test]
    fn wavelet_recovery_uses_orthonormal_shortcut_semantics() {
        // For the invertible Haar strategy, Q = RS must hold exactly and
        // the noiseless release must be exact.
        let w = RangeWorkload::new(16, vec![(0, 5), (3, 11)]).unwrap();
        let plan = compile(&w, RangeStrategy::Wavelet, Budgeting::Optimal, 1.0);
        let dec = dense_decomposition(&w, RangeStrategy::Wavelet, &plan);
        dec.validate(1e-8).unwrap();
        let h = hist(16);
        // Zero-noise check through the recovery path: apply R·S directly.
        let z = dec.s.matvec(&h).unwrap();
        let y = dec.r.matvec(&z).unwrap();
        let exact = w.true_answers(&h).unwrap();
        for (a, b) in y.iter().zip(&exact) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn labels() {
        assert_eq!(RangeStrategy::Identity.label(), "I");
        assert_eq!(RangeStrategy::Hierarchical.label(), "H");
        assert_eq!(RangeStrategy::Wavelet.label(), "W");
        assert_eq!(
            RangeStrategy::Sketch {
                repetitions: 2,
                buckets: 4,
                seed: 0
            }
            .label(),
            "S"
        );
    }

    #[test]
    fn sketch_strategy_is_groupable_with_t_groups() {
        // The paper's Section-3.1 claim: g = t for sketches.
        let s = strategy_matrix(
            RangeStrategy::Sketch {
                repetitions: 3,
                buckets: 8,
                seed: 42,
            },
            16,
        );
        // At most t·b rows; empty buckets are dropped.
        assert!(s.rows() <= 24 && s.rows() >= 8, "{} rows", s.rows());
        // Each repetition's rows jointly cover every column, so rows from
        // different repetitions always collide: exactly t groups.
        let g = detect_grouping(&s).unwrap();
        assert_eq!(g.num_groups(), 3);
        assert!(g.magnitudes().iter().all(|&c| c == 1.0));
    }

    #[test]
    fn sketch_release_pipeline_runs_when_full_rank() {
        // Enough repetitions × buckets make S full column rank with high
        // probability; the full Step-1..3 pipeline then applies unchanged.
        let w = RangeWorkload::new(16, vec![(0, 4), (3, 9), (10, 16)]).unwrap();
        let strategy = RangeStrategy::Sketch {
            repetitions: 8,
            buckets: 16,
            seed: 7,
        };
        let plan = compile(&w, strategy, Budgeting::Optimal, 1.0);
        dense_decomposition(&w, strategy, &plan)
            .validate(1e-6)
            .unwrap();
        let y = release(&plan, &hist(16), 1);
        assert_eq!(y.len(), 3);
        assert!(total_variance(&plan).is_finite());
    }

    #[test]
    fn underdetermined_sketch_is_rejected_not_silently_wrong() {
        let w = RangeWorkload::new(16, vec![(0, 8)]).unwrap();
        let strategy = RangeStrategy::Sketch {
            repetitions: 1,
            buckets: 4, // 4 rows < N = 16: rank deficient by construction
            seed: 3,
        };
        assert!(PlanBuilder::ranges(w, strategy).compile().is_err());
    }

    #[test]
    fn haar_range_coeffs_match_dense_transform() {
        // The sparse closed-form Haar analysis of a range indicator must
        // equal haar_forward applied to the dense indicator, for a battery
        // of ranges including edge-touching and single-cell ones.
        for n in [8usize, 16, 32] {
            let cases = [
                (0, n),
                (0, 1),
                (n - 1, n),
                (1, n - 1),
                (3, 7),
                (n / 4, 3 * n / 4),
                (n / 2 - 1, n / 2 + 1),
            ];
            for &(lo, hi) in &cases {
                if lo >= hi || hi > n {
                    continue;
                }
                let mut dense = vec![0.0; n];
                for v in dense.iter_mut().take(hi).skip(lo) {
                    *v = 1.0;
                }
                dp_linalg::haar_forward(&mut dense);
                let mut sparse = vec![0.0; n];
                for (i, c) in haar_range_coeffs(n, lo, hi) {
                    assert_eq!(sparse[i], 0.0, "coefficient {i} emitted twice");
                    sparse[i] = c;
                }
                for (i, (a, b)) in sparse.iter().zip(&dense).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-12,
                        "n={n} [{lo},{hi}) coeff {i}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn analytic_structure_matches_dense_oracle() {
        // The matrix-free group specs must agree with the dense R₀-based
        // derivation (same grouping, same C_r, same s_r).
        for n in [16usize, 64] {
            let workloads = [
                RangeWorkload::all_prefixes(n).unwrap(),
                RangeWorkload::new(n, vec![(0, 5), (3, 11), (8, n), (n / 2, n / 2 + 1)]).unwrap(),
                RangeWorkload::sliding_windows(n, 3).unwrap(),
            ];
            for w in &workloads {
                for strategy in [
                    RangeStrategy::Identity,
                    RangeStrategy::Hierarchical,
                    RangeStrategy::Wavelet,
                ] {
                    let (fast_specs, fast_grouping) =
                        analytic_range_structure(w, strategy).expect("structured strategy");
                    let (dense_specs, dense_grouping) = dense_range_structure(w, strategy).unwrap();
                    assert_eq!(fast_grouping.assignment(), dense_grouping.assignment());
                    for (a, b) in fast_grouping
                        .magnitudes()
                        .iter()
                        .zip(dense_grouping.magnitudes())
                    {
                        assert!((a - b).abs() < 1e-12, "{strategy:?}: C {a} vs {b}");
                    }
                    assert_eq!(fast_specs.len(), dense_specs.len());
                    for (g, (a, b)) in fast_specs.iter().zip(&dense_specs).enumerate() {
                        assert!((a.c - b.c).abs() < 1e-12, "{strategy:?} group {g}");
                        assert!(
                            (a.s - b.s).abs() < 1e-8 * b.s.abs().max(1.0),
                            "{strategy:?} n={n} group {g}: s {} vs {}",
                            a.s,
                            b.s
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn analytic_query_variances_match_dense_oracle() {
        // The closed-form per-query GLS variances must match the dense
        // R/output_variances oracle for both budgeting modes.
        let n = 32;
        let w = RangeWorkload::all_prefixes(n).unwrap();
        for strategy in [
            RangeStrategy::Identity,
            RangeStrategy::Hierarchical,
            RangeStrategy::Wavelet,
        ] {
            for budgeting in [Budgeting::Uniform, Budgeting::Optimal] {
                let op = RangeStrategyOp::build(&w, strategy).unwrap();
                let solution = solve_budgets(
                    op.group_specs(),
                    PrivacyLevel::Pure { epsilon: 0.7 },
                    budgeting,
                )
                .unwrap();
                let sigma2: Vec<f64> = solution
                    .group_budgets
                    .iter()
                    .map(|&e| LaplaceMechanism.variance(e))
                    .collect();
                let fast = op.query_variances(&sigma2).unwrap();
                let row_variances: Vec<f64> = op
                    .row_groups()
                    .iter()
                    .map(|&g| sigma2[g as usize])
                    .collect();
                let q = w.query_matrix();
                let s = strategy_matrix(strategy, n);
                let r = gls_recovery(&q, &s, &row_variances).unwrap();
                let oracle = output_variances(&r, &row_variances).unwrap();
                for (j, (a, b)) in fast.iter().zip(&oracle).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-6 * b.max(1e-12),
                        "{strategy:?}/{budgeting:?} query {j}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn matrix_free_planning_scales_past_the_dense_oracle() {
        // A domain of 2^14 would need a 16384×32767-entry dense S (and an
        // O(n³) GLS) under the old planner; the analytic path compiles the
        // full prefix workload in well under a second.
        let n = 1usize << 14;
        let w = RangeWorkload::all_prefixes(n).unwrap();
        for strategy in [RangeStrategy::Hierarchical, RangeStrategy::Wavelet] {
            let op = RangeStrategyOp::build(&w, strategy).unwrap();
            let groups = op.group_specs().len();
            assert_eq!(groups, 15, "{strategy:?}: log2(n)+1 level groups");
            assert!(op.group_specs().iter().all(|g| g.s > 0.0 && g.c > 0.0));
            let solution = solve_budgets(
                op.group_specs(),
                PrivacyLevel::Pure { epsilon: 1.0 },
                Budgeting::Optimal,
            )
            .unwrap();
            let sigma2: Vec<f64> = solution
                .group_budgets
                .iter()
                .map(|&e| LaplaceMechanism.variance(e))
                .collect();
            let vars = op.query_variances(&sigma2).unwrap();
            assert_eq!(vars.len(), n);
            assert!(vars.iter().all(|v| v.is_finite() && *v > 0.0));
        }
    }

    #[test]
    fn histogram_shape_is_validated() {
        let w = RangeWorkload::all_prefixes(16).unwrap();
        let plan = compile(&w, RangeStrategy::Hierarchical, Budgeting::Optimal, 1.0);
        assert!(matches!(
            Session::bind_histogram(&plan, &[1.0; 8]),
            Err(CoreError::Shape { .. })
        ));
    }
}
