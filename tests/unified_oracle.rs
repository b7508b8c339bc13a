//! Oracle tests for the unified `StrategyOperator` planner: with a seeded
//! release the plan/session path must match the literal dense-matrix
//! framework (`dp_core::framework`, explicit `Q`/`S`, Eq.-(7) GLS) applied
//! to the *identical* noisy observations — for every marginal and range
//! strategy, under both budgeting modes — and the fast Walsh–Hadamard
//! transform must be an involution.
//!
//! The noisy observations are replayed from the release's seed through the
//! engine's public perturbation contract ([`perturb_observations`]), so a
//! release that drew any other noise fails the comparison.

use datacube_dp::prelude::*;
use dp_core::fourier::CoefficientSpace;
use dp_core::framework::{gls_recovery, output_variances};
use dp_core::grouping::detect_grouping;
use dp_core::range::strategy_matrix;
use dp_core::strategy::{noise_variance, perturb_observations};
use dp_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::iter::repeat_n;

fn random_table(d: usize, seed: u64) -> ContingencyTable {
    let mut rng = StdRng::seed_from_u64(seed);
    ContingencyTable::from_counts((0..1usize << d).map(|_| rng.gen_range(0.0..9.0)).collect())
}

/// The explicit strategy matrix `S` of a compiled marginal plan and the
/// group id of each of its rows, in the row order the engine noises.
fn dense_marginal_strategy(
    plan: &Plan,
    w: &Workload,
    strategy: StrategyKind,
) -> (Matrix, Vec<u32>) {
    let d = w.domain_bits();
    let n = 1usize << d;
    let observed_marginals = |masks: &[AttrMask]| {
        let s = Workload::new(d, masks.to_vec()).unwrap().query_matrix();
        let groups = masks
            .iter()
            .enumerate()
            .flat_map(|(g, m)| repeat_n(g as u32, m.cell_count()))
            .collect();
        (s, groups)
    };
    match strategy {
        StrategyKind::Identity => (Matrix::identity(n), vec![0; n]),
        StrategyKind::Workload => observed_marginals(w.marginals()),
        StrategyKind::Cluster => observed_marginals(plan.clustering().unwrap().centroids()),
        StrategyKind::Fourier => {
            let space = CoefficientSpace::from_marginals(d, w.marginals());
            let scale = 2f64.powf(-(d as f64) / 2.0);
            let mut s = Matrix::zeros(space.len(), n);
            for (i, &beta) in space.support().iter().enumerate() {
                for col in 0..n {
                    s[(i, col)] = beta.sign(AttrMask(col as u64)) * scale;
                }
            }
            (s, (0..space.len() as u32).collect())
        }
    }
}

/// Dense Eq.-(7) GLS answers `Q (SᵀΣ⁻¹S)⁻¹ SᵀΣ⁻¹ z`. Marginal strategies
/// are rank-deficient over the full domain, so `S` is augmented with a
/// huge-variance identity block (negligible influence).
fn dense_gls_answers(q: &Matrix, s: &Matrix, row_vars: &[f64], noisy: &[f64]) -> Vec<f64> {
    let n = s.cols();
    let mut rows: Vec<Vec<f64>> = (0..s.rows()).map(|i| s.row(i).to_vec()).collect();
    for i in 0..n {
        let mut r = vec![0.0; n];
        r[i] = 1.0;
        rows.push(r);
    }
    let s_aug = Matrix::from_rows(&rows.iter().map(|r| r.as_slice()).collect::<Vec<_>>()).unwrap();
    let mut vars_aug = row_vars.to_vec();
    vars_aug.extend(repeat_n(1e9, n));
    let mut z_aug = noisy.to_vec();
    z_aug.extend(repeat_n(0.0, n));
    gls_recovery(q, &s_aug, &vars_aug)
        .unwrap()
        .matvec(&z_aug)
        .unwrap()
}

#[test]
fn marginal_planner_matches_dense_gls_oracle_with_seeded_rng() {
    // Release through a compiled plan, then recompute the answers with the
    // dense Eq.-(7) GLS applied to the identical noisy observations.
    let schema = Schema::binary(6).unwrap();
    let cases = [
        (
            random_table(4, 1),
            Workload::new(
                4,
                vec![AttrMask(0b0011), AttrMask(0b0110), AttrMask(0b1001)],
            )
            .unwrap(),
            20130402,
        ),
        (
            random_table(6, 2),
            Workload::all_k_way(&schema, 2).unwrap(),
            4242,
        ),
    ];
    for (table, w, seed) in &cases {
        for strategy in [
            StrategyKind::Identity,
            StrategyKind::Workload,
            StrategyKind::Fourier,
            StrategyKind::Cluster,
        ] {
            for budgeting in [Budgeting::Uniform, Budgeting::Optimal] {
                for privacy in [
                    PrivacyLevel::Pure { epsilon: 1.0 },
                    PrivacyLevel::Approx {
                        epsilon: 0.5,
                        delta: 1e-6,
                    },
                ] {
                    let plan = PlanBuilder::marginals(w.clone(), strategy)
                        .budgeting(budgeting)
                        .privacy(privacy)
                        .compile()
                        .unwrap();
                    let release = Session::bind(&plan, table).unwrap().release(*seed).unwrap();
                    let case = format!("{strategy:?}/{budgeting:?}/{privacy:?}");

                    // The release draws at exactly the budgets the plan
                    // published, and reports the plan's accounting.
                    assert_eq!(
                        release.group_budgets,
                        plan.solution().group_budgets,
                        "{case}"
                    );
                    assert_eq!(release.achieved_epsilon, plan.achieved_epsilon(), "{case}");
                    let plus = if budgeting == Budgeting::Optimal {
                        "+"
                    } else {
                        ""
                    };
                    assert_eq!(release.label, format!("{}{plus}", strategy.label()));
                    let answers = release.answers.marginals().unwrap();
                    let masks: Vec<AttrMask> = answers.iter().map(|m| m.mask()).collect();
                    assert_eq!(masks, w.marginals(), "{case}");
                    let fast: Vec<f64> = answers.iter().flat_map(|m| m.values().to_vec()).collect();

                    // Identical noisy z, replayed from the same seed and
                    // the returned budgets.
                    let (s, row_groups) = dense_marginal_strategy(&plan, w, strategy);
                    let exact = s.matvec(table.counts()).unwrap();
                    let mut rng = StdRng::seed_from_u64(*seed);
                    let noisy = perturb_observations(
                        &exact,
                        &row_groups,
                        &release.group_budgets,
                        privacy,
                        &mut rng,
                    );
                    let row_vars: Vec<f64> = row_groups
                        .iter()
                        .map(|&g| noise_variance(privacy, release.group_budgets[g as usize]))
                        .collect();
                    let oracle = dense_gls_answers(&w.query_matrix(), &s, &row_vars, &noisy);

                    assert_eq!(fast.len(), oracle.len());
                    for (a, b) in fast.iter().zip(&oracle) {
                        assert!(
                            (a - b).abs() < 1e-3,
                            "{case}: unified path {a} vs dense oracle {b}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn marginal_releases_are_bitwise_deterministic_per_seed() {
    let d = 6;
    let table = random_table(d, 2);
    let schema = Schema::binary(d).unwrap();
    let w = Workload::all_k_way(&schema, 2).unwrap();
    for strategy in [
        StrategyKind::Identity,
        StrategyKind::Workload,
        StrategyKind::Fourier,
        StrategyKind::Cluster,
    ] {
        let plan = PlanBuilder::marginals(w.clone(), strategy)
            .privacy(PrivacyLevel::Pure { epsilon: 0.5 })
            .compile()
            .unwrap();
        let session = Session::bind(&plan, &table).unwrap();
        let a = session.release(99).unwrap();
        let b = session.release(99).unwrap();
        for (ma, mb) in a
            .answers
            .marginals()
            .unwrap()
            .iter()
            .zip(b.answers.marginals().unwrap())
        {
            // Bit-for-bit: the parallel noise path must not depend on
            // scheduling.
            assert_eq!(ma.values(), mb.values(), "{strategy:?}");
        }
        assert_eq!(a.group_budgets, b.group_budgets);
    }
}

#[test]
fn range_planner_matches_dense_gls_oracle_with_seeded_rng() {
    // The range recovery must match the dense GLS recovery matrix applied
    // to the identical noisy observations — to 1e-9 relative for the
    // closed-form identity/tree/Haar solve, to CG's tolerance for the
    // sketch — and the matrix-free per-query variance predictions must
    // match the dense ones.
    let privacy = PrivacyLevel::Pure { epsilon: 0.8 };
    for n in [32, 64] {
        let w = RangeWorkload::all_prefixes(n).unwrap();
        let hist: Vec<f64> = (0..n).map(|i| ((i * 13) % 7) as f64).collect();
        for strategy in [
            RangeStrategy::Identity,
            RangeStrategy::Hierarchical,
            RangeStrategy::Wavelet,
            RangeStrategy::Sketch {
                repetitions: 8,
                buckets: 64,
                seed: 7,
            },
        ] {
            for budgeting in [Budgeting::Uniform, Budgeting::Optimal] {
                let plan = PlanBuilder::ranges(w.clone(), strategy)
                    .budgeting(budgeting)
                    .privacy(privacy)
                    .compile()
                    .unwrap();
                let seed = 7_654_321;
                let release = Session::bind_histogram(&plan, &hist)
                    .unwrap()
                    .release(seed)
                    .unwrap();
                assert_eq!(release.group_budgets, plan.solution().group_budgets);
                let fast = release.answers.ranges().unwrap();

                // Replay the identical noisy z over the dense strategy
                // matrix and its detected grouping.
                let s = strategy_matrix(strategy, n);
                let grouping = detect_grouping(&s).unwrap();
                let row_groups: Vec<u32> =
                    grouping.assignment().iter().map(|&g| g as u32).collect();
                let z = s.matvec(&hist).unwrap();
                let mut replay_rng = StdRng::seed_from_u64(seed);
                let noisy = perturb_observations(
                    &z,
                    &row_groups,
                    &release.group_budgets,
                    privacy,
                    &mut replay_rng,
                );
                let row_vars: Vec<f64> = grouping
                    .assignment()
                    .iter()
                    .map(|&g| noise_variance(privacy, release.group_budgets[g]))
                    .collect();
                let r = gls_recovery(&w.query_matrix(), &s, &row_vars).unwrap();

                let oracle = r.matvec(&noisy).unwrap();
                let tol = |b: f64| match strategy {
                    RangeStrategy::Sketch { .. } => 1e-5,
                    _ => 1e-9 * b.abs().max(1.0),
                };
                for (a, b) in fast.iter().zip(&oracle) {
                    assert!(
                        (a - b).abs() <= tol(*b),
                        "{strategy:?}/{budgeting:?}: unified {a} vs dense oracle {b}"
                    );
                }
                let dense_variances = output_variances(&r, &row_vars).unwrap();
                for (a, b) in plan.query_variances().iter().zip(&dense_variances) {
                    assert!(
                        (a - b).abs() < 1e-6 * b.max(1e-12),
                        "{strategy:?}: {a} vs {b}"
                    );
                }
            }
        }
    }
}

proptest::proptest! {
    /// `fwht_normalized` is an involution on random vectors up to d = 12.
    #[test]
    fn fwht_normalized_is_involution_up_to_d12(
        d in 1usize..13,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 1usize << d;
        let x0: Vec<f64> = (0..n).map(|_| rng.gen_range(-50.0..50.0)).collect();
        let mut x = x0.clone();
        dp_linalg::fwht_normalized(&mut x);
        dp_linalg::fwht_normalized(&mut x);
        for (a, b) in x.iter().zip(&x0) {
            proptest::prop_assert!(
                (a - b).abs() < 1e-9 * b.abs().max(1.0),
                "involution broke at d={}: {} vs {}", d, a, b
            );
        }
    }

    /// Parseval over random vectors: the orthonormal WHT preserves energy.
    #[test]
    fn fwht_normalized_preserves_energy(
        d in 1usize..13,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 1usize << d;
        let x0: Vec<f64> = (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let e0: f64 = x0.iter().map(|v| v * v).sum();
        let mut x = x0;
        dp_linalg::fwht_normalized(&mut x);
        let e1: f64 = x.iter().map(|v| v * v).sum();
        proptest::prop_assert!((e0 - e1).abs() < 1e-8 * e0.max(1.0));
    }
}
