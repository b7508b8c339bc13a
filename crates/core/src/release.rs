//! The marginal strategies: the paper's four strategy families for
//! marginal workloads (Sections 4–5), each one strategy object.
//!
//! A marginal strategy is compiled **without data** from a workload and a
//! [`StrategyKind`]: its group structure, its coefficient space and
//! recovery map, and (for `Cluster`) the greedy clustering. Each of the
//! three types below decides everything about its strategy in one place —
//! how a table is observed, which observation rows a record touches, how
//! noisy rows are recovered into consistent marginals and what variance
//! each marginal is predicted to have. Budgets, noise and the release loop
//! are shared by every strategy and live in [`crate::strategy`]; binding a
//! plan to a table and drawing releases is the job of
//! [`crate::api::Session`].

use crate::api::Answers;
use crate::cluster::{greedy_cluster_with_config, ClusterConfig, Clustering};
use crate::fourier::{CoefficientSpace, ObservationOperator};
use crate::marginal::MarginalTable;
use crate::mask::AttrMask;
use crate::strategy::{SharedStrategy, StrategyOperator};
use crate::table::marginals_of;
use crate::workload::Workload;
use crate::CoreError;
use dp_opt::budget::GroupSpec;
use rayon::prelude::*;
use std::sync::Arc;

pub use crate::strategy::Budgeting;

/// Which strategy matrix `S` to use (Step 1 of the framework).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// `S = I`: release noisy base counts and aggregate (the paper's `I`).
    Identity,
    /// `S = Q`: noise each workload marginal directly (`Q`/`Q+`).
    Workload,
    /// `S =` Fourier coefficients of the workload's support (`F`/`F+`).
    Fourier,
    /// `S =` greedy cluster centroids of Ding et al. \[6\] (`C`/`C+`).
    Cluster,
}

impl StrategyKind {
    /// Short display name matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            StrategyKind::Identity => "I",
            StrategyKind::Workload => "Q",
            StrategyKind::Fourier => "F",
            StrategyKind::Cluster => "C",
        }
    }

    /// The strategy's word in plan-cache keys and fingerprints.
    pub(crate) fn key_word(self) -> u64 {
        match self {
            StrategyKind::Identity => 0,
            StrategyKind::Workload => 1,
            StrategyKind::Fourier => 2,
            StrategyKind::Cluster => 3,
        }
    }
}

/// Compiles a marginal strategy for a workload: runs the strategy search
/// (for `Cluster`, under the given [`ClusterConfig`]) and derives the group
/// structure and the recovery map. No table is consulted.
pub(crate) fn marginal_strategy(
    workload: &Workload,
    strategy: StrategyKind,
    cluster: ClusterConfig,
) -> Result<SharedStrategy, CoreError> {
    let d = workload.domain_bits();
    let targets = workload.marginals().to_vec();
    Ok(match strategy {
        StrategyKind::Identity => {
            // One group of all N base cells, C = 1. Recovery weight per
            // cell is the number of workload marginals (each uses every
            // cell exactly once), so s = ℓ·N.
            let n = 1usize << d;
            Arc::new(IdentityStrategy {
                d,
                specs: vec![GroupSpec {
                    c: 1.0,
                    s: (targets.len() * n) as f64,
                }],
                targets,
                row_groups: vec![0; n],
            })
        }
        StrategyKind::Workload => {
            // R₀ = I: b_i = 1 per released cell, s_r = 2^{‖α_r‖}; each
            // marginal is answered from its own group.
            let weights = targets.iter().map(|m| m.cell_count() as f64).collect();
            let assignment = (0..targets.len()).collect();
            let observed = targets.clone();
            Arc::new(MarginalsStrategy::new(
                d, targets, observed, assignment, weights, None,
            )?)
        }
        StrategyKind::Cluster => {
            let clustering = greedy_cluster_with_config(workload, cluster);
            // R₀ aggregates the centroid's cells into each assigned
            // marginal: each centroid cell is used once per assigned
            // marginal, so s_c = ℓ_c · 2^{‖u_c‖} (cell counts memoized by
            // the clustering).
            let weights = clustering
                .cell_counts()
                .iter()
                .zip(clustering.cluster_sizes())
                .map(|(&cells, lc)| (lc * cells) as f64)
                .collect();
            Arc::new(MarginalsStrategy::new(
                d,
                targets,
                clustering.centroids().to_vec(),
                clustering.assignment().to_vec(),
                weights,
                Some(clustering),
            )?)
        }
        StrategyKind::Fourier => {
            let space = CoefficientSpace::from_marginals(d, &targets);
            // b_β = Σ_{α ⊇ β, α ∈ W} 2^{‖α‖} · (2^{d/2−‖α‖})²
            //     = Σ 2^{d−‖α‖}; singleton groups with C = 2^{−d/2}.
            let c = 2f64.powf(-(d as f64) / 2.0);
            let specs: Vec<GroupSpec> = space
                .support()
                .par_iter()
                .map(|&beta| {
                    let s = targets
                        .iter()
                        .filter(|&&alpha| beta.dominated_by(alpha))
                        .map(|&alpha| 2f64.powi((d as u32 - alpha.weight()) as i32))
                        .sum();
                    GroupSpec { c, s }
                })
                .collect();
            Arc::new(FourierStrategy {
                d,
                targets,
                row_groups: (0..space.len() as u32).collect(),
                space,
                specs,
            })
        }
    })
}

/// `S = I`: observe every base cell once (one group), recover each
/// workload marginal by aggregating the noisy counts.
struct IdentityStrategy {
    d: usize,
    targets: Vec<AttrMask>,
    specs: Vec<GroupSpec>,
    row_groups: Vec<u32>,
}

impl StrategyOperator for IdentityStrategy {
    fn group_specs(&self) -> &[GroupSpec] {
        &self.specs
    }

    fn row_groups(&self) -> &[u32] {
        &self.row_groups
    }

    fn domain(&self) -> usize {
        1usize << self.d
    }

    fn observe(&self, counts: &[f64]) -> Result<Vec<f64>, CoreError> {
        Ok(counts.to_vec())
    }

    fn add_column(&self, z: &mut [f64], cell: usize, delta: f64) {
        z[cell] += delta;
    }

    fn recover(&self, noisy: &[f64], _weights: &[f64]) -> Result<Answers, CoreError> {
        // `x̂ = z` is the GLS estimate for S = I; aggregating one noisy
        // table is automatically consistent. One fold per marginal, folds
        // in parallel.
        let d = self.d;
        Ok(Answers::Marginals(
            self.targets
                .par_iter()
                .map(|&alpha| MarginalTable::new(alpha, crate::table::marginalize(noisy, d, alpha)))
                .collect(),
        ))
    }

    fn query_variances(&self, group_sigma2: &[f64]) -> Result<Vec<f64>, CoreError> {
        // Each marginal cell sums 2^{d−‖α‖} base cells of variance σ₀²;
        // over 2^{‖α‖} cells: 2^d σ₀² per marginal.
        let v = (1u64 << self.d) as f64 * group_sigma2[0];
        Ok(vec![v; self.targets.len()])
    }
}

/// `S` = a set of observed marginals: the workload itself (`Q`) or cluster
/// centroids (`C`). Recovery is GLS in Fourier-coefficient space, where the
/// normal equations are diagonal (Section 4.3).
struct MarginalsStrategy {
    d: usize,
    targets: Vec<AttrMask>,
    /// The observed marginals, one group each, in group order.
    observed: Vec<AttrMask>,
    /// Per target, the observed marginal the initial recovery `R₀` answers
    /// it from (the identity for `Q`, the cluster assignment for `C`).
    assignment: Vec<usize>,
    space: CoefficientSpace,
    op: ObservationOperator,
    specs: Vec<GroupSpec>,
    row_groups: Vec<u32>,
    clustering: Option<Clustering>,
}

impl MarginalsStrategy {
    /// Coefficient space, observation operator and one group per observed
    /// marginal with `s_r` given by `weights` (aligned index-for-index with
    /// `observed`).
    fn new(
        d: usize,
        targets: Vec<AttrMask>,
        observed: Vec<AttrMask>,
        assignment: Vec<usize>,
        weights: Vec<f64>,
        clustering: Option<Clustering>,
    ) -> Result<Self, CoreError> {
        let space = CoefficientSpace::from_marginals(d, &observed);
        let op = ObservationOperator::new(&space, &observed)?;
        let specs = weights
            .into_iter()
            .map(|s| GroupSpec { c: 1.0, s })
            .collect();
        let mut row_groups = Vec::new();
        for (g, m) in observed.iter().enumerate() {
            row_groups.extend(std::iter::repeat_n(g as u32, m.cell_count()));
        }
        Ok(MarginalsStrategy {
            d,
            targets,
            observed,
            assignment,
            space,
            op,
            specs,
            row_groups,
            clustering,
        })
    }
}

impl StrategyOperator for MarginalsStrategy {
    fn group_specs(&self) -> &[GroupSpec] {
        &self.specs
    }

    fn row_groups(&self) -> &[u32] {
        &self.row_groups
    }

    fn domain(&self) -> usize {
        1usize << self.d
    }

    fn observe(&self, counts: &[f64]) -> Result<Vec<f64>, CoreError> {
        Ok(marginals_of(counts, self.d, &self.observed)
            .iter()
            .flat_map(|m| m.values().iter().copied())
            .collect())
    }

    fn add_column(&self, z: &mut [f64], cell: usize, delta: f64) {
        // A tuple at `cell` lands in exactly one cell of each observed
        // marginal: the one indexed by its bits under α.
        let cell = cell as u64;
        let mut offset = 0usize;
        for &alpha in &self.observed {
            z[offset + alpha.compress_cell(cell & alpha.0)] += delta;
            offset += alpha.cell_count();
        }
    }

    fn recover(&self, noisy: &[f64], weights: &[f64]) -> Result<Answers, CoreError> {
        // Diagonal GLS in coefficient space, then one block WHT per target
        // marginal (reconstructions in parallel).
        let coeffs = self.op.gls_solve(noisy, weights)?;
        self.targets
            .par_iter()
            .map(|&alpha| self.space.reconstruct(&coeffs, alpha))
            .collect::<Result<_, _>>()
            .map(Answers::Marginals)
    }

    fn query_variances(&self, group_sigma2: &[f64]) -> Result<Vec<f64>, CoreError> {
        // A target answered from observed marginal u: each of its 2^{‖α‖}
        // cells sums 2^{‖u‖−‖α‖} cells of u → 2^{‖u‖} σ_u² in total.
        Ok(self
            .assignment
            .iter()
            .map(|&g| self.observed[g].cell_count() as f64 * group_sigma2[g])
            .collect())
    }

    fn clustering(&self) -> Option<&Clustering> {
        self.clustering.as_ref()
    }
}

/// `S =` the Fourier coefficients of the workload support. Every
/// coefficient is observed exactly once, so GLS degenerates to the noisy
/// observations themselves (the diagonal specialization of Section 4.3).
struct FourierStrategy {
    d: usize,
    targets: Vec<AttrMask>,
    space: CoefficientSpace,
    specs: Vec<GroupSpec>,
    row_groups: Vec<u32>,
}

impl StrategyOperator for FourierStrategy {
    fn group_specs(&self) -> &[GroupSpec] {
        &self.specs
    }

    fn row_groups(&self) -> &[u32] {
        &self.row_groups
    }

    fn domain(&self) -> usize {
        1usize << self.d
    }

    fn observe(&self, counts: &[f64]) -> Result<Vec<f64>, CoreError> {
        // Exact coefficients from the workload marginals (one fold pass per
        // marginal plus per-block WHTs), with one shared WHT buffer across
        // all marginals.
        let mut coeffs = vec![0.0; self.space.len()];
        let mut scratch = Vec::new();
        for m in marginals_of(counts, self.d, &self.targets) {
            self.space
                .fill_from_marginal_with(&mut coeffs, &m, &mut scratch)?;
        }
        Ok(coeffs)
    }

    fn add_column(&self, z: &mut [f64], cell: usize, delta: f64) {
        // fᵝ(cell) = (−1)^{⟨β,cell⟩} · 2^{−d/2} for every β in the support
        // (the column of the Fourier observation matrix).
        let scale = 2f64.powf(-(self.d as f64) / 2.0);
        let cell_mask = AttrMask(cell as u64);
        for (i, &beta) in self.space.support().iter().enumerate() {
            z[i] += delta * cell_mask.sign(beta) * scale;
        }
    }

    fn recover(&self, noisy: &[f64], _weights: &[f64]) -> Result<Answers, CoreError> {
        self.targets
            .par_iter()
            .map(|&alpha| self.space.reconstruct(noisy, alpha))
            .collect::<Result<_, _>>()
            .map(Answers::Marginals)
    }

    fn query_variances(&self, group_sigma2: &[f64]) -> Result<Vec<f64>, CoreError> {
        // Marginal α reconstructs from the coefficients β ≼ α, each
        // contributing 2^{d−‖α‖} σ_β² (the same per-(α,β) weight that
        // builds the group specs).
        let d = self.d;
        Ok(self
            .targets
            .par_iter()
            .map(|&alpha| {
                let scale = 2f64.powi((d as u32 - alpha.weight()) as i32);
                alpha
                    .subsets()
                    .map(|beta| {
                        let pos = self
                            .space
                            .position(beta)
                            .expect("support contains every workload downset");
                        scale * group_sigma2[pos]
                    })
                    .sum()
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{PlanBuilder, Session, SessionRelease};
    use crate::table::ContingencyTable;
    use dp_mech::{Neighboring, PrivacyLevel};

    const ALL: [StrategyKind; 4] = [
        StrategyKind::Identity,
        StrategyKind::Workload,
        StrategyKind::Fourier,
        StrategyKind::Cluster,
    ];

    fn small_table() -> ContingencyTable {
        // 4-bit table with 100 tuples in a skewed pattern.
        let mut counts = vec![0.0; 16];
        for (i, c) in counts.iter_mut().enumerate() {
            *c = ((i * 7) % 13) as f64;
        }
        ContingencyTable::from_counts(counts)
    }

    fn workload2() -> Workload {
        let schema = crate::schema::Schema::binary(4).unwrap();
        Workload::all_k_way(&schema, 2).unwrap()
    }

    fn builder(w: &Workload, strategy: StrategyKind, budgeting: Budgeting) -> PlanBuilder {
        PlanBuilder::marginals(w.clone(), strategy).budgeting(budgeting)
    }

    /// Compiles `builder` at `privacy` and draws one release per seed from
    /// the small table.
    fn releases(builder: PlanBuilder, privacy: PrivacyLevel, seeds: &[u64]) -> Vec<SessionRelease> {
        let plan = builder.privacy(privacy).compile().unwrap();
        let session = Session::bind(&plan, &small_table()).unwrap();
        session.release_batch(seeds).unwrap()
    }

    fn release(builder: PlanBuilder, privacy: PrivacyLevel, seed: u64) -> SessionRelease {
        releases(builder, privacy, &[seed]).remove(0)
    }

    fn check_consistent(answers: &[MarginalTable]) {
        // Every pair of answers must agree on the marginal of their
        // intersection (a necessary and, for downward-closed recovery from
        // a single coefficient vector, sufficient consistency condition).
        for i in 0..answers.len() {
            for j in (i + 1)..answers.len() {
                let common = answers[i].mask().intersect(answers[j].mask());
                let a = answers[i].aggregate_to(common).unwrap();
                let b = answers[j].aggregate_to(common).unwrap();
                for (x, y) in a.values().iter().zip(b.values()) {
                    assert!((x - y).abs() < 1e-6, "inconsistent at {common}: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn all_strategies_release_and_are_consistent() {
        let w = workload2();
        for strategy in ALL {
            for budgeting in [Budgeting::Uniform, Budgeting::Optimal] {
                let r = release(
                    builder(&w, strategy, budgeting),
                    PrivacyLevel::Pure { epsilon: 1.0 },
                    5,
                );
                let answers = r.answers.marginals().unwrap();
                assert_eq!(answers.len(), w.len());
                assert!(r.achieved_epsilon <= 1.0 + 1e-9, "{strategy:?}");
                assert!(r.predicted_variance > 0.0);
                check_consistent(answers);
            }
        }
    }

    #[test]
    fn gaussian_release_works() {
        let w = workload2();
        for strategy in [StrategyKind::Workload, StrategyKind::Fourier] {
            let r = release(
                builder(&w, strategy, Budgeting::Optimal),
                PrivacyLevel::Approx {
                    epsilon: 1.0,
                    delta: 1e-5,
                },
                6,
            );
            assert!(r.achieved_epsilon <= 1.0 + 1e-9);
            check_consistent(r.answers.marginals().unwrap());
        }
    }

    #[test]
    fn labels() {
        let w = workload2();
        let p = builder(&w, StrategyKind::Fourier, Budgeting::Optimal)
            .compile()
            .unwrap();
        assert_eq!(p.label(), "F+");
        let p = builder(&w, StrategyKind::Cluster, Budgeting::Uniform)
            .compile()
            .unwrap();
        assert_eq!(p.label(), "C");
        assert!(p.clustering().is_some());
        assert_eq!(p.spec().num_queries(), w.len());
    }

    #[test]
    fn optimal_budgets_never_increase_predicted_variance() {
        // A workload with heterogeneous marginal sizes so budgets matter.
        let w = Workload::new(
            4,
            vec![AttrMask(0b0001), AttrMask(0b0111), AttrMask(0b1100)],
        )
        .unwrap();
        let privacy = PrivacyLevel::Pure { epsilon: 0.5 };
        for strategy in [
            StrategyKind::Workload,
            StrategyKind::Fourier,
            StrategyKind::Cluster,
        ] {
            let uni = release(builder(&w, strategy, Budgeting::Uniform), privacy, 7);
            let opt = release(builder(&w, strategy, Budgeting::Optimal), privacy, 7);
            assert!(
                opt.predicted_variance <= uni.predicted_variance * (1.0 + 1e-9),
                "{strategy:?}: {} vs {}",
                opt.predicted_variance,
                uni.predicted_variance
            );
        }
    }

    #[test]
    fn replace_neighboring_doubles_noise_scale() {
        let w = workload2();
        let privacy = PrivacyLevel::Pure { epsilon: 1.0 };
        let neighbours = |n: Neighboring| {
            let b = builder(&w, StrategyKind::Workload, Budgeting::Uniform).neighboring(n);
            release(b, privacy, 8)
        };
        let add_remove = neighbours(Neighboring::AddRemove);
        let replace = neighbours(Neighboring::Replace);
        for (a, b) in add_remove.group_budgets.iter().zip(&replace.group_budgets) {
            assert!((a - 2.0 * b).abs() < 1e-12);
        }
        assert!((replace.predicted_variance - 4.0 * add_remove.predicted_variance).abs() < 1e-6);
    }

    #[test]
    fn identity_strategy_uniform_equals_optimal() {
        // Single group ⇒ budgeting mode is irrelevant (paper: "for I the
        // optimal noise allocation is always uniform").
        let w = workload2();
        let privacy = PrivacyLevel::Pure { epsilon: 1.0 };
        let uni = release(
            builder(&w, StrategyKind::Identity, Budgeting::Uniform),
            privacy,
            9,
        );
        let opt = release(
            builder(&w, StrategyKind::Identity, Budgeting::Optimal),
            privacy,
            9,
        );
        assert_eq!(uni.group_budgets, opt.group_budgets);
        assert!((uni.predicted_variance - opt.predicted_variance).abs() < 1e-9);
    }

    #[test]
    fn releases_are_deterministic_per_seed() {
        let w = workload2();
        for strategy in ALL {
            let rs = releases(
                builder(&w, strategy, Budgeting::Optimal),
                PrivacyLevel::Pure { epsilon: 1.0 },
                &[1234, 1234],
            );
            let (a, b) = (rs[0].answers.marginals(), rs[1].answers.marginals());
            for (ma, mb) in a.unwrap().iter().zip(b.unwrap()) {
                assert_eq!(ma.values(), mb.values(), "{strategy:?}");
            }
        }
    }

    #[test]
    fn noise_magnitude_tracks_epsilon() {
        // Smaller ε must yield larger error on average.
        let w = workload2();
        let exact = w.true_answers(&small_table());
        let seeds: Vec<u64> = (1..31).collect();
        let err = |eps: f64| -> f64 {
            let b = builder(&w, StrategyKind::Fourier, Budgeting::Optimal);
            let mut total = 0.0;
            for r in releases(b, PrivacyLevel::Pure { epsilon: eps }, &seeds) {
                for (a, e) in r.answers.marginals().unwrap().iter().zip(&exact) {
                    total += a.l1_distance(e).unwrap();
                }
            }
            total
        };
        let loose = err(10.0);
        let tight = err(0.1);
        assert!(
            tight > 10.0 * loose,
            "ε=0.1 error {tight} vs ε=10 error {loose}"
        );
    }

    #[test]
    fn mismatched_domain_rejected() {
        let plan = builder(&workload2(), StrategyKind::Identity, Budgeting::Uniform)
            .compile()
            .unwrap();
        assert!(matches!(
            Session::bind(&plan, &ContingencyTable::zeros(3)),
            Err(CoreError::Shape { .. })
        ));
    }

    #[test]
    fn unbiasedness_of_marginal_strategies() {
        // Average of many releases approaches the exact answers
        // (Lemma 3.5: GLS recovery is unbiased).
        let w = Workload::new(4, vec![AttrMask(0b0011), AttrMask(0b0110)]).unwrap();
        let exact = w.true_answers(&small_table());
        let trials = 3000;
        let seeds: Vec<u64> = (0..trials).collect();
        let mut mean = [vec![0.0; 4], vec![0.0; 4]];
        let b = builder(&w, StrategyKind::Workload, Budgeting::Optimal);
        for r in releases(b, PrivacyLevel::Pure { epsilon: 2.0 }, &seeds) {
            for (acc, ans) in mean.iter_mut().zip(r.answers.marginals().unwrap()) {
                for (a, v) in acc.iter_mut().zip(ans.values()) {
                    *a += v / trials as f64;
                }
            }
        }
        for (acc, ex) in mean.iter().zip(&exact) {
            for (a, e) in acc.iter().zip(ex.values()) {
                assert!((a - e).abs() < 0.5, "mean {a} vs exact {e}");
            }
        }
    }
}
