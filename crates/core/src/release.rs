//! The marginal release pipeline: the paper's Figure-3 pipeline for
//! marginal workloads, expressed as [`StrategyOperator`] implementations
//! over the shared [`ReleaseEngine`].
//!
//! `CompiledMarginalStrategy` compiles a workload + strategy into the
//! fully **data-independent** half of the pipeline (group structure,
//! coefficient spaces, recovery map, observation recipe); binding it to a
//! table and drawing releases is the job of [`crate::api::Session`]. Steps
//! 2–3 — budgets, noise, generalized-least-squares recovery — live in the
//! engine in [`crate::strategy`]; the types here only encode what is
//! specific to each marginal strategy: its group structure and its
//! (Fourier-space) recovery.

use crate::cluster::{greedy_cluster_with_config, ClusterConfig, Clustering};
use crate::fourier::{CoefficientSpace, ObservationOperator};
use crate::marginal::MarginalTable;
use crate::mask::AttrMask;
use crate::strategy::{ReleaseEngine, StrategyOperator};
use crate::table::marginals_of;
use crate::workload::Workload;
use crate::CoreError;
use dp_opt::budget::GroupSpec;
use rayon::prelude::*;

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
}

/// A finished differentially private release.
#[derive(Debug, Clone)]
pub struct Release {
    /// Consistent noisy answers, one per workload marginal, workload order.
    pub answers: Vec<MarginalTable>,
    /// Per-group noise budgets `η_r` actually used.
    pub group_budgets: Vec<f64>,
    /// Predicted total output variance of the *initial* recovery `R₀`
    /// (the Step-2 objective scaled by the mechanism constant); the GLS
    /// recovery of Step 3 can only improve on this.
    pub predicted_variance: f64,
    /// Achieved ε implied by the budgets (must be ≤ the requested ε).
    pub achieved_epsilon: f64,
    /// Strategy label, e.g. `"F+"` for Fourier with optimal budgets.
    pub label: String,
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
    type Answer = Vec<MarginalTable>;

    fn num_rows(&self) -> usize {
        1usize << self.d
    }

    fn group_specs(&self) -> &[GroupSpec] {
        &self.specs
    }

    fn row_groups(&self) -> &[u32] {
        &self.row_groups
    }

    fn recover(&self, noisy: &[f64], _weights: &[f64]) -> Result<Self::Answer, CoreError> {
        // `x̂ = z` is the GLS estimate for S = I; aggregating one noisy
        // table is automatically consistent. One fold per marginal, folds
        // in parallel.
        let d = self.d;
        self.targets
            .par_iter()
            .map(|&alpha| {
                Ok(MarginalTable::new(
                    alpha,
                    crate::table::marginalize(noisy, d, alpha),
                ))
            })
            .collect()
    }
}

/// `S` = a set of observed marginals: the workload itself (`Q`) or cluster
/// centroids (`C`). Recovery is GLS in Fourier-coefficient space, where the
/// normal equations are diagonal (Section 4.3).
struct MarginalsStrategy {
    targets: Vec<AttrMask>,
    space: CoefficientSpace,
    op: ObservationOperator,
    specs: Vec<GroupSpec>,
    row_groups: Vec<u32>,
}

impl StrategyOperator for MarginalsStrategy {
    type Answer = Vec<MarginalTable>;

    fn num_rows(&self) -> usize {
        self.row_groups.len()
    }

    fn group_specs(&self) -> &[GroupSpec] {
        &self.specs
    }

    fn row_groups(&self) -> &[u32] {
        &self.row_groups
    }

    fn recover(&self, noisy: &[f64], weights: &[f64]) -> Result<Self::Answer, CoreError> {
        // Diagonal GLS in coefficient space, then one block WHT per target
        // marginal (reconstructions in parallel).
        let coeffs = self.op.gls_solve(noisy, weights)?;
        self.targets
            .par_iter()
            .map(|&alpha| self.space.reconstruct(&coeffs, alpha))
            .collect()
    }
}

/// `S =` the Fourier coefficients of the workload support. Every
/// coefficient is observed exactly once, so GLS degenerates to the noisy
/// observations themselves (the diagonal specialization of Section 4.3).
struct FourierStrategy {
    targets: Vec<AttrMask>,
    space: CoefficientSpace,
    specs: Vec<GroupSpec>,
    row_groups: Vec<u32>,
}

impl StrategyOperator for FourierStrategy {
    type Answer = Vec<MarginalTable>;

    fn num_rows(&self) -> usize {
        self.row_groups.len()
    }

    fn group_specs(&self) -> &[GroupSpec] {
        &self.specs
    }

    fn row_groups(&self) -> &[u32] {
        &self.row_groups
    }

    fn recover(&self, noisy: &[f64], _weights: &[f64]) -> Result<Self::Answer, CoreError> {
        self.targets
            .par_iter()
            .map(|&alpha| self.space.reconstruct(noisy, alpha))
            .collect()
    }
}

/// The marginal strategies behind one object-safe interface — proof that
/// the planner is open to new strategy plugins.
pub(crate) type MarginalStrategyBox =
    Box<dyn StrategyOperator<Answer = Vec<MarginalTable>> + Send + Sync>;

/// How a compiled marginal strategy turns a concrete table into its exact
/// observation vector `z = S x` — the *only* data-dependent step of the
/// pipeline, deferred to [`CompiledMarginalStrategy::observe`].
enum ObserveKind {
    /// `z` = the raw base counts (`S = I`).
    BaseCounts,
    /// `z` = the concatenated cells of the observed marginals.
    MarginalCells(Vec<AttrMask>),
    /// `z` = the Fourier coefficients of the support, filled from the
    /// listed (workload) marginals.
    FourierCoefficients {
        space: CoefficientSpace,
        fill_from: Vec<AttrMask>,
    },
}

/// A marginal strategy compiled **without data**: the shared release engine
/// (group structure + recovery map), the clustering (for `Cluster`), and
/// the recipe for computing observations once a table arrives. This is
/// what [`crate::api::Plan`] embeds for marginal workloads.
pub(crate) struct CompiledMarginalStrategy {
    pub(crate) engine: ReleaseEngine<MarginalStrategyBox>,
    pub(crate) clustering: Option<Clustering>,
    observe: ObserveKind,
    d: usize,
}

impl CompiledMarginalStrategy {
    /// Compiles the strategy for a workload: runs the strategy search (for
    /// `Cluster`, under the given [`ClusterConfig`]), derives the group
    /// structure and the recovery map. No table is consulted.
    pub(crate) fn build(
        workload: &Workload,
        strategy: StrategyKind,
        cluster: ClusterConfig,
    ) -> Result<Self, CoreError> {
        let d = workload.domain_bits();
        let ell = workload.len() as f64;
        let targets = workload.marginals().to_vec();

        let (boxed, observe, clustering): (MarginalStrategyBox, ObserveKind, _) = match strategy {
            StrategyKind::Identity => {
                // One group of all N base cells, C = 1. Recovery weight
                // per cell is the number of workload marginals (each
                // uses every cell exactly once), so s = ℓ·N.
                let n = 1usize << d;
                let specs = vec![GroupSpec {
                    c: 1.0,
                    s: ell * n as f64,
                }];
                let inner = IdentityStrategy {
                    d,
                    targets,
                    specs,
                    row_groups: vec![0; n],
                };
                (Box::new(inner), ObserveKind::BaseCounts, None)
            }
            StrategyKind::Workload => {
                let observed = workload.marginals().to_vec();
                // R₀ = I: b_i = 1 per released cell, s_r = 2^{‖α_r‖}.
                let weights: Vec<f64> = observed.iter().map(|m| m.cell_count() as f64).collect();
                let inner = marginals_strategy(d, observed.clone(), targets, weights)?;
                (Box::new(inner), ObserveKind::MarginalCells(observed), None)
            }
            StrategyKind::Cluster => {
                let clustering = greedy_cluster_with_config(workload, cluster);
                let observed = clustering.centroids().to_vec();
                // R₀ aggregates the centroid's cells into each assigned
                // marginal: each centroid cell is used once per assigned
                // marginal, so s_c = ℓ_c · 2^{‖u_c‖} (cell counts memoized
                // by the clustering).
                let weights: Vec<f64> = clustering
                    .cell_counts()
                    .iter()
                    .zip(clustering.cluster_sizes())
                    .map(|(&cells, lc)| (lc * cells) as f64)
                    .collect();
                let inner = marginals_strategy(d, observed.clone(), targets, weights)?;
                (
                    Box::new(inner),
                    ObserveKind::MarginalCells(observed),
                    Some(clustering),
                )
            }
            StrategyKind::Fourier => {
                let space = CoefficientSpace::from_marginals(d, workload.marginals());
                // b_β = Σ_{α ⊇ β, α ∈ W} 2^{‖α‖} · (2^{d/2−‖α‖})²
                //     = Σ 2^{d−‖α‖}; singleton groups with C = 2^{−d/2}.
                let c = 2f64.powf(-(d as f64) / 2.0);
                let specs: Vec<GroupSpec> = space
                    .support()
                    .par_iter()
                    .map(|&beta| {
                        let s = workload
                            .marginals()
                            .iter()
                            .filter(|&&alpha| beta.dominated_by(alpha))
                            .map(|&alpha| 2f64.powi((d as u32 - alpha.weight()) as i32))
                            .sum();
                        GroupSpec { c, s }
                    })
                    .collect();
                let row_groups = (0..space.len() as u32).collect();
                let inner = FourierStrategy {
                    targets,
                    space: space.clone(),
                    specs,
                    row_groups,
                };
                let observe = ObserveKind::FourierCoefficients {
                    space,
                    fill_from: workload.marginals().to_vec(),
                };
                (Box::new(inner), observe, None)
            }
        };

        Ok(CompiledMarginalStrategy {
            engine: ReleaseEngine::new(boxed)?,
            clustering,
            observe,
            d,
        })
    }

    /// Computes the exact observation vector `z = S x` for a table's count
    /// vector — the data-dependent step, run once per bound dataset.
    pub(crate) fn observe(&self, counts: &[f64]) -> Result<Vec<f64>, CoreError> {
        if counts.len() != 1usize << self.d {
            return Err(CoreError::Shape {
                context: "planner domain size",
                expected: 1usize << self.d,
                actual: counts.len(),
            });
        }
        match &self.observe {
            ObserveKind::BaseCounts => Ok(counts.to_vec()),
            ObserveKind::MarginalCells(observed) => Ok(marginals_of(counts, self.d, observed)
                .iter()
                .flat_map(|m| m.values().iter().copied())
                .collect()),
            ObserveKind::FourierCoefficients { space, fill_from } => {
                // Exact coefficients from the workload marginals (one fold
                // pass per marginal plus per-block WHTs), with one shared
                // WHT buffer across all marginals.
                let mut coeffs = vec![0.0; space.len()];
                let mut scratch = Vec::new();
                for m in marginals_of(counts, self.d, fill_from) {
                    space.fill_from_marginal_with(&mut coeffs, &m, &mut scratch)?;
                }
                Ok(coeffs)
            }
        }
    }

    /// Adds `delta` tuples at linearized cell `cell` directly to an
    /// observation vector `z`: since `z = S x` is linear in `x`, the update
    /// is the sparse column `delta · S[·, cell]` — O(#observed marginals)
    /// or O(|support|) work, never O(2^d). The incremental twin of
    /// [`CompiledMarginalStrategy::observe`].
    pub(crate) fn apply_delta(
        &self,
        z: &mut [f64],
        cell: u64,
        delta: f64,
    ) -> Result<(), CoreError> {
        if cell >= 1u64 << self.d {
            return Err(CoreError::Shape {
                context: "streaming delta cell",
                expected: 1usize << self.d,
                actual: cell as usize,
            });
        }
        match &self.observe {
            ObserveKind::BaseCounts => {
                z[cell as usize] += delta;
            }
            ObserveKind::MarginalCells(observed) => {
                // A tuple at `cell` lands in exactly one cell of each
                // observed marginal: the one indexed by its bits under α.
                let mut offset = 0usize;
                for &alpha in observed {
                    z[offset + alpha.compress_cell(cell & alpha.0)] += delta;
                    offset += alpha.cell_count();
                }
            }
            ObserveKind::FourierCoefficients { space, .. } => {
                // fᵝ(cell) = (−1)^{⟨β,cell⟩} · 2^{−d/2} for every β in the
                // support (the column of the Fourier observation matrix).
                let scale = 2f64.powf(-(self.d as f64) / 2.0);
                let cell_mask = AttrMask(cell);
                for (i, &beta) in space.support().iter().enumerate() {
                    z[i] += delta * cell_mask.sign(beta) * scale;
                }
            }
        }
        Ok(())
    }

    /// Predicted per-marginal output variance of the *initial* recovery
    /// `R₀`, given the per-group noise variances `group_sigma2` (one per
    /// group, in group order). The entries sum to the engine's
    /// `predicted_variance` total.
    pub(crate) fn predict_query_variances(
        &self,
        workload: &Workload,
        strategy: StrategyKind,
        group_sigma2: &[f64],
    ) -> Vec<f64> {
        let d = self.d;
        match strategy {
            // Each marginal cell sums 2^{d−‖α‖} base cells of variance σ₀²;
            // over 2^{‖α‖} cells: 2^d σ₀² per marginal.
            StrategyKind::Identity => {
                let v = (1u64 << d) as f64 * group_sigma2[0];
                vec![v; workload.len()]
            }
            // Group g observes marginal α_g directly: 2^{‖α‖} σ_g².
            StrategyKind::Workload => workload
                .marginals()
                .iter()
                .enumerate()
                .map(|(g, m)| m.cell_count() as f64 * group_sigma2[g])
                .collect(),
            // Marginal α answered from centroid u: each of its 2^{‖α‖}
            // cells sums 2^{‖u‖−‖α‖} centroid cells → 2^{‖u‖} σ_c² total.
            StrategyKind::Cluster => {
                let clustering = self
                    .clustering
                    .as_ref()
                    .expect("cluster strategy always retains its clustering");
                clustering
                    .assignment()
                    .iter()
                    .map(|&c| clustering.cell_counts()[c] as f64 * group_sigma2[c])
                    .collect()
            }
            // Marginal α reconstructs from the coefficients β ≼ α, each
            // contributing 2^{d−‖α‖} σ_β² (the same per-(α,β) weight that
            // builds the group specs).
            StrategyKind::Fourier => {
                let ObserveKind::FourierCoefficients { space, .. } = &self.observe else {
                    unreachable!("Fourier strategy always observes coefficients");
                };
                workload
                    .marginals()
                    .par_iter()
                    .map(|&alpha| {
                        let scale = 2f64.powi((d as u32 - alpha.weight()) as i32);
                        alpha
                            .subsets()
                            .map(|beta| {
                                let pos = space
                                    .position(beta)
                                    .expect("support contains every workload downset");
                                scale * group_sigma2[pos]
                            })
                            .sum()
                    })
                    .collect()
            }
        }
    }
}

/// Shared construction for the `Workload` and `Cluster` strategies:
/// coefficient space, observation operator and one group per observed
/// marginal with `s_r` given by `weights` (aligned index-for-index with
/// `observed`). Data-independent — exact cells are computed at bind time.
fn marginals_strategy(
    d: usize,
    observed: Vec<AttrMask>,
    targets: Vec<AttrMask>,
    weights: Vec<f64>,
) -> Result<MarginalsStrategy, CoreError> {
    if weights.len() != observed.len() {
        return Err(CoreError::Shape {
            context: "marginals_strategy weights",
            expected: observed.len(),
            actual: weights.len(),
        });
    }
    let space = CoefficientSpace::from_marginals(d, &observed);
    let op = ObservationOperator::new(&space, &observed)?;
    let specs: Vec<GroupSpec> = weights.iter().map(|&s| GroupSpec { c: 1.0, s }).collect();
    let mut row_groups = Vec::new();
    for (g, m) in observed.iter().enumerate() {
        row_groups.extend(std::iter::repeat_n(g as u32, m.cell_count()));
    }
    Ok(MarginalsStrategy {
        targets,
        space,
        op,
        specs,
        row_groups,
    })
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
