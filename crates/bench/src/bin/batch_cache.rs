//! Batched-release benchmark: `K` releases served from **one cached plan**
//! (one strategy compilation + one Step-2 budget solve, releases fanned out
//! with rayon) versus `K` cold plans (compile + solve + bind per release) —
//! the service-traffic scenario the plan/session split exists for.
//!
//! Usage: `cargo run -p dp-bench --release --bin batch_cache`.

use dp_core::prelude::*;
use serde::Serialize;
use std::time::Instant;

/// One measured mode of the batch benchmark.
#[derive(Debug, Clone, Serialize)]
pub struct BatchPoint {
    /// `"cold"` (plan per release) or `"cached"` (one plan, batched).
    pub mode: String,
    /// Number of releases drawn.
    pub releases: usize,
    /// Wall-clock seconds for all releases.
    pub seconds: f64,
    /// Step-2 budget solves performed.
    pub budget_solves: u64,
}

fn main() {
    let schema = dp_data::nltcs_schema();
    let (records, _) =
        dp_data::csv::nltcs_records_or_synthetic(std::path::Path::new("data/nltcs.csv"), 20130402)
            .expect("dataset synthesis cannot fail");
    let table = ContingencyTable::from_records(&schema, &records).expect("records fit schema");
    let workload = Workload::all_k_way(&schema, 2).expect("Q2 builds over NLTCS");
    let k = 32usize;
    let privacy = PrivacyLevel::Pure { epsilon: 1.0 };
    let build = || {
        PlanBuilder::marginals(workload.clone(), StrategyKind::Fourier)
            .budgeting(Budgeting::Optimal)
            .privacy(privacy)
            .for_schema(&schema)
    };

    // Cold: every request compiles its own plan and binds its own session.
    let solves_before = dp_opt::budget::solve_count();
    let start = Instant::now();
    for seed in 0..k as u64 {
        let plan = build().compile().expect("plan compiles");
        let session = Session::bind(&plan, &table).expect("table matches");
        let _ = session.release(seed).expect("release succeeds");
    }
    let cold = BatchPoint {
        mode: "cold".into(),
        releases: k,
        seconds: start.elapsed().as_secs_f64(),
        budget_solves: dp_opt::budget::solve_count() - solves_before,
    };

    // Cached: the plan cache compiles once; one session serves the batch.
    let cache = PlanCache::new();
    let solves_before = dp_opt::budget::solve_count();
    let start = Instant::now();
    let mut plan = cache.get_or_compile(build()).expect("plan compiles");
    for _ in 1..k {
        plan = cache.get_or_compile(build()).expect("cache hit");
    }
    let session = Session::bind(plan, &table).expect("table matches");
    let seeds: Vec<u64> = (0..k as u64).collect();
    let releases = session.release_batch(&seeds).expect("batch succeeds");
    let cached = BatchPoint {
        mode: "cached".into(),
        releases: releases.len(),
        seconds: start.elapsed().as_secs_f64(),
        budget_solves: dp_opt::budget::solve_count() - solves_before,
    };

    println!("\n== batched releases over one cached plan vs cold plans (NLTCS Q2, F+) ==");
    println!(
        "{:>8} {:>10} {:>12} {:>14}",
        "mode", "releases", "seconds", "budget solves"
    );
    for p in [&cold, &cached] {
        println!(
            "{:>8} {:>10} {:>12.4} {:>14}",
            p.mode, p.releases, p.seconds, p.budget_solves
        );
    }
    println!(
        "speedup: {:.2}× (cache hits: {}, misses: {})",
        cold.seconds / cached.seconds,
        cache.hits(),
        cache.misses()
    );
    match dp_bench::write_jsonl("batch_cache.jsonl", &[cold, cached]) {
        Ok(p) => eprintln!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write results file: {e}"),
    }
}
