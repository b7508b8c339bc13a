//! Datacube release on the Adult census schema (the paper's Section 5.1
//! scenario): compare all seven methods on the 2-way marginal workload at a
//! few privacy levels, with every (method, ε) plan compiled once through
//! the [`PlanCache`] and its trials batched over one [`Session`].
//!
//! Run with `cargo run --release --example adult_datacube`.
//! If `data/adult.data` (the real UCI file) exists it is used; otherwise
//! the synthetic stand-in is generated.

use datacube_dp::prelude::*;

fn main() {
    let schema = dp_data::adult_schema();
    let (records, real) =
        dp_data::csv::adult_records_or_synthetic(std::path::Path::new("data/adult.data"), 20130401)
            .expect("synthesis cannot fail");
    println!(
        "Adult: {} records over {} attributes → {}-bit domain ({})",
        records.len(),
        schema.num_attributes(),
        schema.domain_bits(),
        if real {
            "real data"
        } else {
            "synthetic stand-in"
        },
    );
    let table = ContingencyTable::from_records(&schema, &records).expect("records fit schema");

    let workload = Workload::all_k_way(&schema, 2).expect("2-way workload");
    let exact = workload.true_answers(&table);
    println!(
        "workload Q2: {} marginals, {} cells\n",
        workload.len(),
        workload.total_cells()
    );

    let methods = [
        (StrategyKind::Fourier, Budgeting::Uniform),
        (StrategyKind::Fourier, Budgeting::Optimal),
        (StrategyKind::Cluster, Budgeting::Uniform),
        (StrategyKind::Cluster, Budgeting::Optimal),
        (StrategyKind::Workload, Budgeting::Uniform),
        (StrategyKind::Workload, Budgeting::Optimal),
        (StrategyKind::Identity, Budgeting::Uniform),
    ];

    let cache = PlanCache::new();
    println!(
        "{:>6} {:>12} {:>12} {:>12}",
        "method", "eps=0.1", "eps=0.5", "eps=1.0"
    );
    for (strategy, budgeting) in methods {
        for (col, eps) in [0.1, 0.5, 1.0].into_iter().enumerate() {
            let plan = cache
                .get_or_compile(
                    PlanBuilder::marginals(workload.clone(), strategy)
                        .budgeting(budgeting)
                        .privacy(PrivacyLevel::Pure { epsilon: eps })
                        .for_schema(&schema),
                )
                .expect("planning succeeds");
            if col == 0 {
                print!("{:>6}", plan.label());
            }
            let trials = if strategy == StrategyKind::Identity {
                1
            } else {
                3
            };
            let session = Session::bind(plan, &table).expect("table matches");
            let seeds: Vec<u64> = (0..trials).map(|t| 7 + (eps * 10.0) as u64 + t).collect();
            let err: f64 = session
                .release_batch(&seeds)
                .expect("release succeeds")
                .into_iter()
                .map(|r| {
                    let answers = r.answers.into_marginals().expect("marginal plan");
                    average_relative_error(&answers, &exact).expect("aligned") / trials as f64
                })
                .sum();
            print!(" {err:>12.4}");
        }
        println!();
    }
    println!(
        "\nplan cache: {} compiles for {} (method, ε) requests",
        cache.misses(),
        cache.misses() + cache.hits()
    );

    // Show what the cluster strategy chose (the plan retains it).
    let plan = cache
        .get_or_compile(
            PlanBuilder::marginals(workload.clone(), StrategyKind::Cluster)
                .budgeting(Budgeting::Optimal)
                .privacy(PrivacyLevel::Pure { epsilon: 1.0 })
                .for_schema(&schema),
        )
        .expect("cache hit");
    if let Some(clustering) = plan.clustering() {
        println!(
            "\ncluster strategy materializes {} centroid marginals (from {} queries):",
            clustering.num_clusters(),
            workload.len()
        );
        for (c, size) in clustering
            .centroids()
            .iter()
            .zip(clustering.cluster_sizes())
        {
            println!(
                "  centroid {c} covering {size} queries ({} cells)",
                c.cell_count()
            );
        }
    }
}
