//! Integration tests for the two-phase plan/session API: determinism,
//! batch invariance, serde round-trips and cache behavior. Agreement with
//! the dense framework oracle is pinned in `unified_oracle.rs`.

use datacube_dp::prelude::*;
use std::sync::Arc;

fn small_table(d: usize, seed: u64) -> ContingencyTable {
    let mut counts = vec![0.0; 1usize << d];
    for (i, c) in counts.iter_mut().enumerate() {
        *c = ((i as u64).wrapping_mul(7919).wrapping_add(seed) % 13) as f64;
    }
    ContingencyTable::from_counts(counts)
}

fn hist(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 13) % 7) as f64).collect()
}

#[test]
fn batch_output_is_independent_of_batch_size_and_thread_count() {
    let d = 6;
    let table = small_table(d, 3);
    let schema = Schema::binary(d).unwrap();
    let w = Workload::all_k_way(&schema, 2).unwrap();
    let plan = PlanBuilder::marginals(w, StrategyKind::Fourier)
        .privacy(PrivacyLevel::Pure { epsilon: 1.0 })
        .compile()
        .unwrap();
    let session = Session::bind(&plan, &table).unwrap();

    let flat = |r: &SessionRelease| -> Vec<f64> {
        r.answers
            .marginals()
            .unwrap()
            .iter()
            .flat_map(|m| m.values().to_vec())
            .collect()
    };

    // The full batch, a prefix batch, a shuffled batch and singles must all
    // produce the same bytes per seed — batch composition cannot leak into
    // the noise.
    let seeds: Vec<u64> = (100..132).collect();
    let full = session.release_batch(&seeds).unwrap();
    let prefix = session.release_batch(&seeds[..5]).unwrap();
    let mut shuffled: Vec<u64> = seeds.clone();
    shuffled.reverse();
    let reversed = session.release_batch(&shuffled).unwrap();
    for (i, &seed) in seeds.iter().enumerate() {
        let single = session.release(seed).unwrap();
        assert_eq!(flat(&full[i]), flat(&single));
        if i < 5 {
            assert_eq!(flat(&prefix[i]), flat(&single));
        }
        assert_eq!(flat(&reversed[seeds.len() - 1 - i]), flat(&single));
    }
}

proptest::proptest! {
    /// Property: for random seed lists and random ε, every batch element
    /// equals its single-shot release, and repeated batches are identical.
    #[test]
    fn proptest_batches_reproduce_single_releases(
        seeds in proptest::collection::vec(0u64..1_000_000, 1..12),
        eps in 0.05f64..5.0,
    ) {
        let table = small_table(4, 9);
        let schema = Schema::binary(4).unwrap();
        let w = Workload::all_k_way(&schema, 2).unwrap();
        let plan = PlanBuilder::marginals(w, StrategyKind::Workload)
            .privacy(PrivacyLevel::Pure { epsilon: eps })
            .compile()
            .unwrap();
        let session = Session::bind(&plan, &table).unwrap();
        let batch_a = session.release_batch(&seeds).unwrap();
        let batch_b = session.release_batch(&seeds).unwrap();
        for ((a, b), &seed) in batch_a.iter().zip(&batch_b).zip(&seeds) {
            let single = session.release(seed).unwrap();
            let fa: Vec<f64> = a.answers.marginals().unwrap().iter().flat_map(|m| m.values().to_vec()).collect();
            let fb: Vec<f64> = b.answers.marginals().unwrap().iter().flat_map(|m| m.values().to_vec()).collect();
            let fs: Vec<f64> = single.answers.marginals().unwrap().iter().flat_map(|m| m.values().to_vec()).collect();
            proptest::prop_assert_eq!(&fa, &fb);
            proptest::prop_assert_eq!(&fa, &fs);
        }
    }
}

#[test]
fn cached_plans_serve_byte_identical_releases() {
    let table = small_table(5, 2);
    let schema = Schema::binary(5).unwrap();
    let w = Workload::k_way_plus_half(&schema, 1).unwrap();
    let cache = PlanCache::new();
    let build = || {
        PlanBuilder::marginals(w.clone(), StrategyKind::Fourier)
            .privacy(PrivacyLevel::Pure { epsilon: 0.5 })
            .for_schema(&schema)
    };
    let first = cache.get_or_compile(build()).unwrap();
    let second = cache.get_or_compile(build()).unwrap();
    assert!(Arc::ptr_eq(&first, &second));
    assert_eq!(cache.misses(), 1);
    assert_eq!(cache.hits(), 1);

    // A cached plan serves the same bytes as a freshly compiled one.
    let fresh = build().compile().unwrap();
    let from_cache = Session::bind(&first, &table).unwrap().release(11).unwrap();
    let from_fresh = Session::bind(&fresh, &table).unwrap().release(11).unwrap();
    for (a, b) in from_cache
        .answers
        .marginals()
        .unwrap()
        .iter()
        .zip(from_fresh.answers.marginals().unwrap())
    {
        assert_eq!(a.values(), b.values());
    }
}

#[test]
fn plans_round_trip_through_serde_json_and_release_identically() {
    let table = small_table(5, 4);
    let schema = Schema::binary(5).unwrap();
    let w = Workload::all_k_way(&schema, 2).unwrap();
    let plan = PlanBuilder::marginals(w, StrategyKind::Fourier)
        .privacy(PrivacyLevel::Approx {
            epsilon: 0.9,
            delta: 1e-5,
        })
        .for_schema(&schema)
        .compile()
        .unwrap();
    let doc = serde_json::to_string_pretty(&plan).unwrap();
    let shipped: Plan = serde_json::from_str(&doc).unwrap();
    assert_eq!(shipped, plan);
    assert_eq!(shipped.query_variances(), plan.query_variances());

    // The shipped plan releases the exact same bytes: budgets were carried
    // over, not re-solved, and the operator recompiles deterministically.
    let a = Session::bind(&plan, &table).unwrap().release(99).unwrap();
    let b = Session::bind(&shipped, &table)
        .unwrap()
        .release(99)
        .unwrap();
    for (ma, mb) in a
        .answers
        .marginals()
        .unwrap()
        .iter()
        .zip(b.answers.marginals().unwrap())
    {
        assert_eq!(ma.values(), mb.values());
    }

    // Range plans (including sketches, whose seed travels exactly) too.
    let rw = RangeWorkload::new(32, vec![(0, 7), (5, 20), (16, 32)]).unwrap();
    let rplan = PlanBuilder::ranges(
        rw,
        RangeStrategy::Sketch {
            repetitions: 8,
            buckets: 32,
            seed: u64::MAX - 3, // exercises the above-2^53 string path
        },
    )
    .compile()
    .unwrap();
    let rdoc = serde_json::to_string(&rplan).unwrap();
    let rshipped: Plan = serde_json::from_str(&rdoc).unwrap();
    assert_eq!(rshipped, rplan);
    let h = hist(32);
    let ra = Session::bind_histogram(&rplan, &h)
        .unwrap()
        .release(5)
        .unwrap();
    let rb = Session::bind_histogram(&rshipped, &h)
        .unwrap()
        .release(5)
        .unwrap();
    assert_eq!(ra.answers.ranges().unwrap(), rb.answers.ranges().unwrap());
}

#[test]
fn approximate_privacy_ranges_match_engine_accounting() {
    // Satellite: PrivacyLevel::Approx now threads through range planning.
    let w = RangeWorkload::sliding_windows(64, 8).unwrap();
    let plan = PlanBuilder::ranges(w.clone(), RangeStrategy::Hierarchical)
        .privacy(PrivacyLevel::Approx {
            epsilon: 0.6,
            delta: 1e-7,
        })
        .compile()
        .unwrap();
    assert!(plan.achieved_epsilon() <= 0.6 + 1e-9);
    assert!(
        (plan.achieved_epsilon() - 0.6).abs() < 1e-9,
        "quadratic constraint tight"
    );
    let h = hist(64);
    let session = Session::bind_histogram(&plan, &h).unwrap();
    let releases = session.release_batch(&[1, 2, 3, 4]).unwrap();
    assert!(releases
        .iter()
        .all(|r| r.answers.ranges().unwrap().len() == w.ranges().len()));
    // Gaussian noise differs from a Laplace plan at the same ε.
    let laplace = PlanBuilder::ranges(w, RangeStrategy::Hierarchical)
        .privacy(PrivacyLevel::Pure { epsilon: 0.6 })
        .compile()
        .unwrap();
    assert_ne!(
        laplace.solution().group_budgets,
        plan.solution().group_budgets
    );
}
