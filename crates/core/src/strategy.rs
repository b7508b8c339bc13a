//! The strategy layer: one object per strategy, and the Steps 2–3 shared
//! by all of them.
//!
//! A strategy of the paper's Figure-3 pipeline is one `StrategyOperator`:
//!
//! 1. its **group structure** (`C_r`, `s_r` per group and a group id per
//!    observation row), which feeds the Step-2 budget optimizer of `dp-opt`;
//! 2. its **observations** `z = S·x` of a data vector, and the sparse
//!    column `S[·, j]` that a one-record delta at cell `j` adds to them;
//! 3. its **recovery map** from noisy observations back to workload
//!    answers — generalized least squares, carried out in diagonal
//!    Fourier-coefficient space (marginal strategies, Section 4.3), in
//!    diagonal Haar-coefficient space (identity, tree and wavelet range
//!    strategies), or by matrix-free conjugate gradients over a
//!    [`dp_linalg::LinearOperator`] (the sketch range strategy);
//! 4. its **per-query variance prediction** at given per-group noise
//!    variances.
//!
//! The marginal strategies live in [`crate::release`] and the range
//! strategies in [`crate::range`]. Everything else is shared and lives
//! here: solving for uniform/optimal budgets (`solve_budgets`), the
//! achieved ε of a budget vector (Proposition 3.1, `achieved_epsilon`),
//! and one release step that re-checks feasibility, draws calibrated noise
//! (parallelized over observation chunks with deterministic per-chunk
//! substreams) and hands the noisy rows to the strategy's recovery.
//! [`crate::api::Plan`] holds one strategy object and drives every release
//! of it through that step.

use crate::api::Answers;
use crate::cluster::Clustering;
use crate::CoreError;
use dp_mech::{
    add_gaussian_into, add_laplace_into, GaussianMechanism, LaplaceMechanism, Neighboring,
    NoiseMechanism, PrivacyLevel,
};
use dp_opt::budget::{
    optimal_group_budgets, optimal_group_budgets_gaussian, uniform_group_budgets,
    uniform_group_budgets_gaussian, BudgetSolution, GroupSpec,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::sync::{Arc, Mutex};

/// Noise-budget allocation mode (Step 2 of the framework).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budgeting {
    /// One equal budget per group — what prior work does implicitly.
    Uniform,
    /// The paper's optimal non-uniform allocation (closed form).
    Optimal,
}

/// One compiled strategy: everything the shared release step cannot
/// provide (see the module docs). Implemented by the marginal strategies
/// of [`crate::release`] and the range strategies of [`crate::range`].
pub(crate) trait StrategyOperator {
    /// Per-group `(C_r, s_r)` for the budget optimizer, in group order.
    fn group_specs(&self) -> &[GroupSpec];

    /// Group id of each observation row (one per row of `S`; values index
    /// into [`StrategyOperator::group_specs`]).
    fn row_groups(&self) -> &[u32];

    /// Number of data cells (columns of `S`): `2^d` for a marginal
    /// strategy, the histogram length for a range strategy.
    fn domain(&self) -> usize;

    /// The exact observations `z = S·x` of a data vector of length
    /// [`StrategyOperator::domain`] (the caller checks the length).
    fn observe(&self, counts: &[f64]) -> Result<Vec<f64>, CoreError>;

    /// `z += delta · S[·, cell]` for `cell < domain()`: the sparse column a
    /// one-record delta adds to the observations, in `O(|column|)`.
    fn add_column(&self, z: &mut [f64], cell: usize, delta: f64);

    /// Recovers workload answers from noisy observations.
    ///
    /// `group_weights[r]` is the GLS weight (inverse noise variance) of
    /// group `r`'s rows; groups with budget 0 carry weight 0 and were not
    /// released — the release step zeroes their entries of `noisy` before
    /// the call, so even a weights-unaware recovery cannot leak exact
    /// values.
    fn recover(&self, noisy: &[f64], group_weights: &[f64]) -> Result<Answers, CoreError>;

    /// Per-query output variances, in workload order, given per-group noise
    /// variances (`∞` for a withheld group).
    fn query_variances(&self, group_sigma2: &[f64]) -> Result<Vec<f64>, CoreError>;

    /// The greedy clustering, for the cluster strategy.
    fn clustering(&self) -> Option<&Clustering> {
        None
    }
}

/// A compiled strategy as a plan holds it: shared, so a plan re-solved at
/// another privacy level reuses it.
pub(crate) type SharedStrategy = Arc<dyn StrategyOperator + Send + Sync>;

/// Checks a strategy's internal consistency: every row's group id names
/// one of its groups.
pub(crate) fn check_strategy(strategy: &dyn StrategyOperator) -> Result<(), CoreError> {
    let groups = strategy.group_specs().len();
    match strategy
        .row_groups()
        .iter()
        .find(|&&g| g as usize >= groups)
    {
        Some(&bad) => Err(CoreError::Shape {
            context: "strategy group id",
            expected: groups,
            actual: bad as usize,
        }),
        None => Ok(()),
    }
}

/// Solves Step 2 for a privacy level and budgeting mode over a strategy's
/// group specs (no noise drawn).
pub(crate) fn solve_budgets(
    specs: &[GroupSpec],
    privacy: PrivacyLevel,
    budgeting: Budgeting,
) -> Result<BudgetSolution, CoreError> {
    privacy.validate()?;
    let eps = privacy.epsilon();
    let sol = match (privacy, budgeting) {
        (PrivacyLevel::Pure { .. }, Budgeting::Uniform) => uniform_group_budgets(specs, eps)?,
        (PrivacyLevel::Pure { .. }, Budgeting::Optimal) => optimal_group_budgets(specs, eps)?,
        (PrivacyLevel::Approx { .. }, Budgeting::Uniform) => {
            uniform_group_budgets_gaussian(specs, eps)?
        }
        (PrivacyLevel::Approx { .. }, Budgeting::Optimal) => {
            optimal_group_budgets_gaussian(specs, eps)?
        }
    };
    Ok(sol)
}

/// The ε achieved by concrete group budgets: every column of a grouped
/// strategy has exactly one entry of magnitude `C_r` per group, so the
/// pure-DP constraint value is `Σ_r C_r η_r` and the approximate-DP one is
/// `√(Σ_r C_r² η_r²)` (Proposition 3.1).
pub(crate) fn achieved_epsilon(specs: &[GroupSpec], privacy: PrivacyLevel, budgets: &[f64]) -> f64 {
    match privacy {
        PrivacyLevel::Pure { .. } => specs.iter().zip(budgets).map(|(g, &e)| g.c * e).sum(),
        PrivacyLevel::Approx { .. } => specs
            .iter()
            .zip(budgets)
            .map(|(g, &e)| g.c * g.c * e * e)
            .sum::<f64>()
            .sqrt(),
    }
}

/// Writes the budgets noise is drawn at — the solved `η_r` divided by the
/// neighbouring sensitivity factor — into `budgets`, and returns the ε
/// they achieve. Fails when the solution does not fit the specs, or when
/// that ε exceeds the requested one: a plan checks this once when it is
/// built, and every release checks it again before drawing noise.
pub(crate) fn feasible_budgets_into(
    specs: &[GroupSpec],
    privacy: PrivacyLevel,
    solution: &BudgetSolution,
    neighboring: Neighboring,
    budgets: &mut Vec<f64>,
) -> Result<f64, CoreError> {
    if solution.group_budgets.len() != specs.len() {
        return Err(CoreError::Shape {
            context: "budget solution",
            expected: specs.len(),
            actual: solution.group_budgets.len(),
        });
    }
    let factor = neighboring.sensitivity_factor();
    budgets.clear();
    budgets.extend(solution.group_budgets.iter().map(|&e| e / factor));
    let achieved = achieved_epsilon(specs, privacy, budgets) * factor;
    if achieved > privacy.epsilon() * (1.0 + 1e-9) {
        return Err(CoreError::InfeasibleBudgets {
            achieved,
            requested: privacy.epsilon(),
        });
    }
    Ok(achieved)
}

/// Predicted total output variance of the *initial* recovery `R₀`: the
/// Step-2 objective times the mechanism constant, scaled by the square of
/// the neighbouring factor. The GLS recovery of Step 3 can only improve on
/// it.
pub(crate) fn predicted_variance(
    privacy: PrivacyLevel,
    solution: &BudgetSolution,
    neighboring: Neighboring,
) -> f64 {
    let factor = neighboring.sensitivity_factor();
    mechanism_factor(privacy) * solution.objective * factor * factor
}

/// Noise chunk size: one RNG substream (and one unit of parallel work) per
/// this many observation rows. Public because it is part of the replay
/// contract of [`perturb_observations`] (and because the `hot_path` bench
/// replicates the chunking to prove byte identity against a reference
/// implementation).
pub const NOISE_CHUNK: usize = 4096;

/// Runs Step 3 for one release at an already solved budget allocation (a
/// plan solves once, when it is built): re-checks feasibility, adds
/// calibrated per-row noise to `observations` (the exact strategy answers
/// `z = S x`), then runs the strategy's GLS recovery. Returns the answers
/// and the per-group budgets the noise was drawn at.
///
/// Noise is drawn in `NOISE_CHUNK`-row chunks, each from its own
/// [`StdRng`] substream seeded sequentially from `rng` — so the output is
/// deterministic in `rng`'s seed regardless of how many threads the chunks
/// land on. Scratch buffers come from a process-wide pool, so K releases
/// (e.g. a `release_batch` fan-out) allocate O(workers) buffers rather than
/// O(K).
pub(crate) fn noise_and_recover<R: Rng + ?Sized>(
    strategy: &dyn StrategyOperator,
    observations: &[f64],
    privacy: PrivacyLevel,
    solution: &BudgetSolution,
    neighboring: Neighboring,
    rng: &mut R,
) -> Result<(Answers, Vec<f64>), CoreError> {
    let mut scratch = acquire_scratch();
    let out = noise_and_recover_into(
        strategy,
        observations,
        privacy,
        solution,
        neighboring,
        rng,
        &mut scratch,
    );
    recycle_scratch(scratch);
    out
}

/// [`noise_and_recover`] over caller-provided scratch: the noisy-observation
/// buffer, substream seeds, budgets, weights and noise parameters are all
/// written into `scratch`'s reusable arenas, so only the recovered answers
/// (the output) and a copy of the budgets are freshly allocated.
fn noise_and_recover_into<R: Rng + ?Sized>(
    strategy: &dyn StrategyOperator,
    observations: &[f64],
    privacy: PrivacyLevel,
    solution: &BudgetSolution,
    neighboring: Neighboring,
    rng: &mut R,
    scratch: &mut Scratch,
) -> Result<(Answers, Vec<f64>), CoreError> {
    let row_groups = strategy.row_groups();
    if observations.len() != row_groups.len() {
        return Err(CoreError::Shape {
            context: "release observations",
            expected: row_groups.len(),
            actual: observations.len(),
        });
    }
    // Defense in depth: re-derive the achieved ε and fail loudly if the
    // budgets ever stopped being feasible.
    feasible_budgets_into(
        strategy.group_specs(),
        privacy,
        solution,
        neighboring,
        &mut scratch.budgets,
    )?;

    // Step "2.5": per-row noise at the group budgets — fused into one
    // in-place pass over the scratch buffer, chunk-parallel.
    scratch.params.compute_into(privacy, &scratch.budgets);
    perturb_observations_into(
        observations,
        row_groups,
        &scratch.params,
        rng,
        &mut scratch.noisy,
        &mut scratch.seeds,
    );

    // Step 3: the strategy's recovery, weighted by inverse variances.
    scratch.weights.clear();
    scratch.weights.extend(scratch.budgets.iter().map(|&eta| {
        if eta > 0.0 {
            1.0 / noise_variance(privacy, eta)
        } else {
            0.0
        }
    }));
    let answers = strategy.recover(&scratch.noisy, &scratch.weights)?;
    Ok((answers, scratch.budgets.clone()))
}

/// Reusable buffers for one in-flight release: the noisy-observation vector
/// (`m` rows), the per-chunk substream seeds, and the per-group budget,
/// weight, and noise-parameter vectors.
#[derive(Debug, Default)]
struct Scratch {
    budgets: Vec<f64>,
    weights: Vec<f64>,
    params: NoiseParams,
    noisy: Vec<f64>,
    seeds: Vec<u64>,
}

/// Process-wide pool backing [`noise_and_recover`]. A
/// plain mutexed free-list (one uncontended lock/unlock pair per release,
/// trivial next to the release itself) rather than a thread-local: rayon
/// workers blocked in a parallel section can steal and run another
/// release's closure on the same OS thread, which would alias a
/// thread-local arena mid-release.
static SCRATCH_POOL: Mutex<Vec<Scratch>> = Mutex::new(Vec::new());

/// Upper bound on pooled arenas, so a one-off wide fan-out cannot pin an
/// unbounded amount of buffer memory for the life of the process.
const SCRATCH_POOL_CAP: usize = 64;

fn acquire_scratch() -> Scratch {
    SCRATCH_POOL
        .lock()
        .map(|mut pool| pool.pop())
        .ok()
        .flatten()
        .unwrap_or_default()
}

fn recycle_scratch(scratch: Scratch) {
    if let Ok(mut pool) = SCRATCH_POOL.lock() {
        if pool.len() < SCRATCH_POOL_CAP {
            pool.push(scratch);
        }
    }
}

/// The mechanism's constant factor relating the Step-2 objective
/// `Σ s_r/η_r²` to an output variance.
pub fn mechanism_factor(privacy: PrivacyLevel) -> f64 {
    match privacy {
        PrivacyLevel::Pure { .. } => 2.0,
        PrivacyLevel::Approx { delta, .. } => 2.0 * (2.0 / delta).ln(),
    }
}

/// Noise variance of a row with budget `eps_i` under the level's mechanism.
pub fn noise_variance(privacy: PrivacyLevel, eps_i: f64) -> f64 {
    match privacy {
        PrivacyLevel::Pure { .. } => LaplaceMechanism.variance(eps_i),
        PrivacyLevel::Approx { delta, .. } => GaussianMechanism { delta }.variance(eps_i),
    }
}

/// Which mechanism a [`NoiseParams`] was calibrated for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum MechKind {
    #[default]
    Laplace,
    Gaussian,
}

/// Per-group noise parameters, precomputed once per release so the hot
/// perturbation loop never re-derives them per value: the Laplace scale
/// `1/η_r` (pure DP) or the Gaussian `σ_r` (approximate DP) of every group,
/// with `0.0` marking a withheld (zero-budget) group.
///
/// The parameters are computed with the **exact same expressions** the
/// per-value mechanism objects use, so samples drawn from them are bitwise
/// identical to per-value sampling.
#[derive(Debug, Clone, Default)]
pub struct NoiseParams {
    mech: MechKind,
    per_group: Vec<f64>,
}

impl NoiseParams {
    /// Calibrates parameters for `group_budgets` under `privacy`.
    pub fn compute(privacy: PrivacyLevel, group_budgets: &[f64]) -> NoiseParams {
        let mut params = NoiseParams::default();
        params.compute_into(privacy, group_budgets);
        params
    }

    /// [`NoiseParams::compute`] into `self`, reusing its buffer.
    pub fn compute_into(&mut self, privacy: PrivacyLevel, group_budgets: &[f64]) {
        self.per_group.clear();
        match privacy {
            PrivacyLevel::Pure { .. } => {
                self.mech = MechKind::Laplace;
                self.per_group.extend(group_budgets.iter().map(|&eta| {
                    if eta > 0.0 {
                        1.0 / eta
                    } else {
                        0.0
                    }
                }));
            }
            PrivacyLevel::Approx { delta, .. } => {
                self.mech = MechKind::Gaussian;
                let mechanism = GaussianMechanism { delta };
                self.per_group.extend(group_budgets.iter().map(|&eta| {
                    if eta > 0.0 {
                        mechanism.variance(eta).sqrt()
                    } else {
                        0.0
                    }
                }));
            }
        }
    }
}

/// Adds calibrated noise to every row with a positive group budget,
/// chunk-parallel with deterministic per-chunk substreams. Rows of groups
/// with budget 0 are **withheld** — zeroed, not passed through — so a
/// recovery that forgets to honour its zero weights can never leak exact
/// private values (the release step enforces this, not each strategy).
///
/// Public so oracle tests can replay the exact noise a release drew: the
/// chunk seeds are the first `⌈m/NOISE_CHUNK⌉` `u64`s of `rng` (at least
/// one, even for empty observations), and each chunk's noise comes from an
/// [`StdRng`] seeded with its seed.
///
/// This is a convenience wrapper over [`perturb_observations_into`] that
/// allocates fresh buffers; the release hot path reuses scratch instead.
pub fn perturb_observations<R: Rng + ?Sized>(
    observations: &[f64],
    row_groups: &[u32],
    group_budgets: &[f64],
    privacy: PrivacyLevel,
    rng: &mut R,
) -> Vec<f64> {
    let params = NoiseParams::compute(privacy, group_budgets);
    let mut noisy = Vec::new();
    let mut seeds = Vec::new();
    perturb_observations_into(
        observations,
        row_groups,
        &params,
        rng,
        &mut noisy,
        &mut seeds,
    );
    noisy
}

/// The fused, in-place form of [`perturb_observations`]: copies
/// `observations` into the reusable `noisy` buffer and perturbs it in one
/// pass, with per-chunk batched samplers. `seeds` is the reusable substream
/// seed buffer. The RNG stream is consumed value-for-value identically to
/// per-value sampling — same seed layout, same draws per row, no draws for
/// withheld rows — so outputs are byte-identical per seed.
pub fn perturb_observations_into<R: Rng + ?Sized>(
    observations: &[f64],
    row_groups: &[u32],
    params: &NoiseParams,
    rng: &mut R,
    noisy: &mut Vec<f64>,
    seeds: &mut Vec<u64>,
) {
    noisy.clear();
    noisy.extend_from_slice(observations);
    let chunks = noisy.len().div_ceil(NOISE_CHUNK).max(1);
    // Substream seeds are drawn sequentially from the caller's RNG, so the
    // result depends only on its state — never on thread scheduling.
    seeds.clear();
    seeds.extend((0..chunks).map(|_| rng.gen::<u64>()));
    let seeds = &seeds[..];
    // Chunks are independent substreams, so they can run in any order on any
    // thread; skip the rayon dispatch entirely when there is nothing to fan
    // out (one chunk, or a single-threaded pool) — the per-call overhead is
    // measurable on short observation vectors.
    let work = |(c, chunk): (usize, &mut [f64])| {
        let mut sub = StdRng::seed_from_u64(seeds[c]);
        let base = c * NOISE_CHUNK;
        perturb_chunk(
            chunk,
            &row_groups[base..base + chunk.len()],
            params,
            &mut sub,
        );
    };
    if chunks == 1 || rayon::current_num_threads() == 1 {
        noisy.chunks_mut(NOISE_CHUNK).enumerate().for_each(work);
    } else {
        noisy.par_chunks_mut(NOISE_CHUNK).enumerate().for_each(work);
    }
    #[cfg(debug_assertions)]
    assert_chunk_pass_covered_every_row(observations, row_groups, params, noisy);
}

/// Perturbs one chunk by walking its runs of equal group id (row groups are
/// long consecutive runs by construction) and dispatching the mechanism
/// once per run over the batched samplers — instead of a per-value
/// mechanism match plus per-value parameter derivation.
fn perturb_chunk(chunk: &mut [f64], groups: &[u32], params: &NoiseParams, sub: &mut StdRng) {
    let mut i = 0;
    while i < chunk.len() {
        let g = groups[i];
        let mut j = i + 1;
        while j < chunk.len() && groups[j] == g {
            j += 1;
        }
        let p = params.per_group[g as usize];
        let run = &mut chunk[i..j];
        if p > 0.0 {
            match params.mech {
                MechKind::Laplace => add_laplace_into(sub, p, run),
                MechKind::Gaussian => add_gaussian_into(sub, p, run),
            }
        } else {
            // Unreleased rows: withhold the exact values (and draw nothing).
            run.fill(0.0);
        }
        i = j;
    }
}

/// Debug-build guard against scratch reuse leaking stale or exact data: a
/// skipped row would either carry a previous release's value (caught for
/// withheld rows, which must be exactly zero) or the unperturbed exact
/// value plus nothing (caught by re-checking length and finiteness — noise
/// is always finite, so a noised row is finite whenever its observation
/// was).
#[cfg(debug_assertions)]
fn assert_chunk_pass_covered_every_row(
    observations: &[f64],
    row_groups: &[u32],
    params: &NoiseParams,
    noisy: &[f64],
) {
    assert_eq!(noisy.len(), observations.len());
    for (i, (&v, &g)) in noisy.iter().zip(row_groups).enumerate() {
        if params.per_group[g as usize] > 0.0 {
            assert!(
                v.is_finite() || !observations[i].is_finite(),
                "noised row {i} is not finite"
            );
        } else {
            assert!(v == 0.0, "withheld row {i} leaked value {v}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy strategy: two groups, identity recovery (answers = noisy rows).
    struct Echo {
        specs: Vec<GroupSpec>,
        rows: Vec<u32>,
    }

    impl StrategyOperator for Echo {
        fn group_specs(&self) -> &[GroupSpec] {
            &self.specs
        }

        fn row_groups(&self) -> &[u32] {
            &self.rows
        }

        fn domain(&self) -> usize {
            self.rows.len()
        }

        fn observe(&self, counts: &[f64]) -> Result<Vec<f64>, CoreError> {
            Ok(counts.to_vec())
        }

        fn add_column(&self, z: &mut [f64], cell: usize, delta: f64) {
            z[cell] += delta;
        }

        fn recover(&self, noisy: &[f64], _w: &[f64]) -> Result<Answers, CoreError> {
            Ok(Answers::Ranges(noisy.to_vec()))
        }

        fn query_variances(&self, group_sigma2: &[f64]) -> Result<Vec<f64>, CoreError> {
            Ok(self
                .rows
                .iter()
                .map(|&g| group_sigma2[g as usize])
                .collect())
        }
    }

    fn echo() -> Echo {
        Echo {
            specs: vec![GroupSpec { c: 1.0, s: 4.0 }, GroupSpec { c: 1.0, s: 1.0 }],
            rows: vec![0, 0, 1, 1],
        }
    }

    /// One echo release: the answers and the budgets they were drawn at.
    struct Echoed {
        answer: Vec<f64>,
        group_budgets: Vec<f64>,
    }

    fn echoed((answers, group_budgets): (Answers, Vec<f64>)) -> Echoed {
        Echoed {
            answer: answers.into_ranges().expect("echo answers are plain rows"),
            group_budgets,
        }
    }

    /// Solves the budgets, then draws one release from `seed`.
    fn release(
        strategy: &Echo,
        obs: &[f64],
        privacy: PrivacyLevel,
        budgeting: Budgeting,
        neighboring: Neighboring,
        seed: u64,
    ) -> Result<Echoed, CoreError> {
        let solution = solve_budgets(strategy.group_specs(), privacy, budgeting)?;
        let mut rng = StdRng::seed_from_u64(seed);
        noise_and_recover(strategy, obs, privacy, &solution, neighboring, &mut rng).map(echoed)
    }

    #[test]
    fn engine_releases_are_deterministic_per_seed() {
        let strategy = echo();
        let obs = vec![10.0, 20.0, 30.0, 40.0];
        let p = PrivacyLevel::Pure { epsilon: 1.0 };
        let run = |seed: u64| {
            release(
                &strategy,
                &obs,
                p,
                Budgeting::Optimal,
                Neighboring::AddRemove,
                seed,
            )
            .unwrap()
        };
        let a = run(9);
        let b = run(9);
        assert_eq!(a.answer, b.answer);
        assert_eq!(a.group_budgets, b.group_budgets);
        let c = run(10);
        assert_ne!(a.answer, c.answer);
    }

    #[test]
    fn achieved_epsilon_is_tight_and_validated() {
        let strategy = echo();
        let p = PrivacyLevel::Pure { epsilon: 0.7 };
        let r = release(
            &strategy,
            &[0.0; 4],
            p,
            Budgeting::Optimal,
            Neighboring::AddRemove,
            1,
        )
        .unwrap();
        assert!((achieved_epsilon(&strategy.specs, p, &r.group_budgets) - 0.7).abs() < 1e-9);
        let solution = solve_budgets(&strategy.specs, p, Budgeting::Optimal).unwrap();
        assert!(predicted_variance(p, &solution, Neighboring::AddRemove) > 0.0);
        // An infeasible allocation is refused before any noise is drawn.
        let inflated = BudgetSolution {
            group_budgets: solution.group_budgets.iter().map(|e| 2.0 * e).collect(),
            objective: solution.objective,
        };
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            noise_and_recover(
                &strategy,
                &[0.0; 4],
                p,
                &inflated,
                Neighboring::AddRemove,
                &mut rng
            ),
            Err(CoreError::InfeasibleBudgets { .. })
        ));
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let strategy = echo();
        assert!(matches!(
            release(
                &strategy,
                &[1.0; 3],
                PrivacyLevel::Pure { epsilon: 1.0 },
                Budgeting::Uniform,
                Neighboring::AddRemove,
                2,
            ),
            Err(CoreError::Shape { .. })
        ));
        let bad = Echo {
            specs: vec![GroupSpec { c: 1.0, s: 1.0 }],
            rows: vec![0, 1],
        };
        assert!(check_strategy(&bad).is_err());
        assert!(check_strategy(&strategy).is_ok());
    }

    #[test]
    fn zero_weight_groups_are_withheld_not_leaked() {
        let strategy = Echo {
            specs: vec![GroupSpec { c: 1.0, s: 4.0 }, GroupSpec { c: 1.0, s: 0.0 }],
            rows: vec![0, 0, 1, 1],
        };
        let r = release(
            &strategy,
            &[5.0, 6.0, 7.0, 8.0],
            PrivacyLevel::Pure { epsilon: 1.0 },
            Budgeting::Optimal,
            Neighboring::AddRemove,
            3,
        )
        .unwrap();
        // Group 1 has zero recovery weight → budget 0 → its rows are
        // zeroed by the release step, so even this weights-unaware echo
        // recovery cannot leak the exact values 7.0/8.0.
        assert_eq!(r.group_budgets[1], 0.0);
        assert_eq!(&r.answer[2..], &[0.0, 0.0]);
        assert_ne!(&r.answer[..2], &[5.0, 6.0]);
    }

    #[test]
    fn scratch_reuse_is_byte_identical_to_fresh_buffers() {
        // Interleave releases with different seeds, observations, and
        // privacy levels through ONE reused scratch arena; each must match
        // the pooled noise_and_recover path bit-for-bit — proving no stale
        // state survives between releases.
        let strategy = echo();
        let mut scratch = Scratch::default();
        let cases: [(u64, [f64; 4], PrivacyLevel); 4] = [
            (
                1,
                [10.0, 20.0, 30.0, 40.0],
                PrivacyLevel::Pure { epsilon: 1.0 },
            ),
            (
                2,
                [-5.0, 0.0, 2.5, 9.0],
                PrivacyLevel::Approx {
                    epsilon: 0.8,
                    delta: 1e-6,
                },
            ),
            (
                1,
                [10.0, 20.0, 30.0, 40.0],
                PrivacyLevel::Pure { epsilon: 1.0 },
            ),
            (7, [0.0, 0.0, 0.0, 0.0], PrivacyLevel::Pure { epsilon: 0.3 }),
        ];
        for (seed, obs, privacy) in cases {
            let solution = solve_budgets(&strategy.specs, privacy, Budgeting::Optimal).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let reused = echoed(
                noise_and_recover_into(
                    &strategy,
                    &obs,
                    privacy,
                    &solution,
                    Neighboring::AddRemove,
                    &mut rng,
                    &mut scratch,
                )
                .unwrap(),
            );
            let mut rng = StdRng::seed_from_u64(seed);
            let fresh = echoed(
                noise_and_recover(
                    &strategy,
                    &obs,
                    privacy,
                    &solution,
                    Neighboring::AddRemove,
                    &mut rng,
                )
                .unwrap(),
            );
            assert_eq!(reused.answer, fresh.answer);
            assert_eq!(reused.group_budgets, fresh.group_budgets);
            assert_eq!(
                achieved_epsilon(&strategy.specs, privacy, &reused.group_budgets),
                achieved_epsilon(&strategy.specs, privacy, &fresh.group_budgets)
            );
        }
    }

    #[test]
    fn fused_perturbation_matches_wrapper_across_shrinking_buffers() {
        // Reuse one (noisy, seeds) pair across perturbations of very
        // different lengths — including shrinking from multi-chunk to tiny
        // and an empty vector (which still draws one seed) — and compare
        // each against the allocating wrapper.
        let mut noisy = Vec::new();
        let mut seeds = Vec::new();
        for (seed, len) in [(11u64, 3 * NOISE_CHUNK + 17), (12, 5), (13, 0), (14, 100)] {
            let observations: Vec<f64> = (0..len).map(|i| (i % 23) as f64).collect();
            let row_groups: Vec<u32> = (0..len).map(|i| (i * 3 / len.max(1)) as u32).collect();
            let group_budgets = [0.5, 0.0, 1.25];
            let privacy = PrivacyLevel::Pure { epsilon: 1.0 };
            let params = NoiseParams::compute(privacy, &group_budgets);
            let mut rng = StdRng::seed_from_u64(seed);
            perturb_observations_into(
                &observations,
                &row_groups,
                &params,
                &mut rng,
                &mut noisy,
                &mut seeds,
            );
            let mut rng = StdRng::seed_from_u64(seed);
            let fresh = perturb_observations(
                &observations,
                &row_groups,
                &group_budgets,
                privacy,
                &mut rng,
            );
            assert_eq!(noisy, fresh, "len {len}");
            // Both paths must have consumed the identical number of RNG
            // words from the caller (the seed draws).
            assert_eq!(seeds.len(), len.div_ceil(NOISE_CHUNK).max(1));
        }
    }

    #[test]
    fn replace_neighboring_halves_budgets() {
        let strategy = echo();
        let p = PrivacyLevel::Pure { epsilon: 1.0 };
        let run =
            |n: Neighboring| release(&strategy, &[0.0; 4], p, Budgeting::Uniform, n, 4).unwrap();
        let add = run(Neighboring::AddRemove);
        let rep = run(Neighboring::Replace);
        for (a, b) in add.group_budgets.iter().zip(&rep.group_budgets) {
            assert!((a - 2.0 * b).abs() < 1e-12);
        }
        let solution = solve_budgets(&strategy.specs, p, Budgeting::Uniform).unwrap();
        let variance = |n: Neighboring| predicted_variance(p, &solution, n);
        assert!(
            (variance(Neighboring::Replace) - 4.0 * variance(Neighboring::AddRemove)).abs() < 1e-9
        );
    }
}
