//! The acceptance criterion for the plan cache, isolated in its own
//! integration-test binary (= its own process) so the process-wide budget
//! solve counter is not perturbed by concurrent tests: `K` releases over
//! one cached plan perform **exactly one** Step-2 budget solve.

use datacube_dp::prelude::*;

#[test]
fn a_batch_over_a_cached_plan_performs_exactly_one_budget_solve() {
    let schema = Schema::binary(6).unwrap();
    let workload = Workload::k_way_plus_half(&schema, 1).unwrap();
    let counts: Vec<f64> = (0..64).map(|i| ((i * 7) % 11) as f64).collect();
    let table = ContingencyTable::from_counts(counts);

    let cache = PlanCache::new();
    let build = || {
        PlanBuilder::marginals(workload.clone(), StrategyKind::Fourier)
            .budgeting(Budgeting::Optimal)
            .privacy(PrivacyLevel::Pure { epsilon: 0.5 })
            .for_schema(&schema)
    };

    let before = dp_opt::budget::solve_count();
    // 16 requests hit the cache; the single miss compiles (and solves) once.
    let mut plan = cache.get_or_compile(build()).unwrap();
    for _ in 1..16 {
        plan = cache.get_or_compile(build()).unwrap();
    }
    let session = Session::bind(plan, &table).unwrap();
    let seeds: Vec<u64> = (0..16).collect();
    let releases = session.release_batch(&seeds).unwrap();
    let after = dp_opt::budget::solve_count();

    assert_eq!(releases.len(), 16);
    assert_eq!(cache.misses(), 1);
    assert_eq!(cache.hits(), 15);
    assert_eq!(
        after - before,
        1,
        "16 cached requests + 16 releases must solve budgets exactly once"
    );

    // Releases themselves never solve: a second batch adds zero solves.
    let more = session
        .release_batch(&(16..48).collect::<Vec<u64>>())
        .unwrap();
    assert_eq!(more.len(), 32);
    assert_eq!(dp_opt::budget::solve_count(), after);
}
