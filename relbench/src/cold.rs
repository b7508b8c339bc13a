//! The cold marginal path, probed by every traced run: in process, with
//! no service and no `PlanCache`, fresh `PlanBuilder::compile` →
//! `Session::bind` → one `release` cycles over a few NLTCS combinations
//! with optimal budgets, then the cluster search and the noising of as
//! many cells as the identity strategy observes. It is not a declared
//! workload (see README).

use dp_core::metrics::average_relative_error;
use dp_core::prelude::*;

use crate::stats::Tally;
use crate::{mix, trace, Check, Outcome};

const EPSILON: f64 = 1.0;
const STRATEGIES: [(StrategyKind, &str); 4] = [
    (StrategyKind::Fourier, "F+"),
    (StrategyKind::Cluster, "C+"),
    (StrategyKind::Workload, "Q+"),
    (StrategyKind::Identity, "I+"),
];
/// The (workload, strategy) combinations a probe cycles through.
const PROBE_MIX: [(usize, usize); 3] = [(1, 0), (1, 1), (0, 3)];

struct Entry {
    label: &'static str,
    workload: Workload,
    exact: Vec<MarginalTable>,
}

struct Ctx {
    table: ContingencyTable,
    entries: Vec<Entry>,
}

fn setup(seed: u64) -> Ctx {
    let schema = dp_data::nltcs_schema();
    let records = dp_data::synthesize_nltcs(dp_data::nltcs::NLTCS_RECORDS, seed);
    let table = ContingencyTable::from_records(&schema, &records).expect("records fit the schema");
    let entries = [
        ("Q1", Workload::all_k_way(&schema, 1)),
        ("Q2", Workload::all_k_way(&schema, 2)),
        ("Q2*", Workload::k_way_plus_half(&schema, 2)),
        ("Q2a", Workload::k_way_plus_attr(&schema, 2, 0)),
    ]
    .into_iter()
    .map(|(label, workload)| {
        let workload = workload.expect("NLTCS workloads are valid");
        let exact = table.marginals(workload.marginals());
        Entry {
            label,
            workload,
            exact,
        }
    })
    .collect();
    Ctx { table, entries }
}

#[derive(Default)]
struct Cycles {
    scored: u64,
    tally: Tally,
    over_epsilon: usize,
}

/// One cold compile → bind → release of workload `w` under strategy `s`.
fn cycle(ctx: &Ctx, w: usize, s: usize, seed: u64, out: &mut Cycles) {
    let entry = &ctx.entries[w];
    let (strategy, label) = STRATEGIES[s];
    let name = |layer: &str| format!("core.{layer}.{}.{label}", entry.label);
    let rid = mix(seed, (w * STRATEGIES.len() + s) as u64);
    let root = trace::open("cycle", rid);
    let result = trace::time(&name("compile"), rid, root, || {
        PlanBuilder::marginals(entry.workload.clone(), strategy)
            .budgeting(Budgeting::Optimal)
            .privacy(PrivacyLevel::Pure { epsilon: EPSILON })
            .compile()
    })
    .and_then(|plan| {
        let session = trace::time(&name("bind"), rid, root, || {
            Session::bind(&plan, &ctx.table)
        })?;
        let release = trace::time(&name("release"), rid, root, || session.release(rid))?;
        Ok((plan.achieved_epsilon(), release))
    });
    trace::close(root);
    match result {
        Ok((achieved, release)) => {
            out.tally.ok();
            if achieved > EPSILON * (1.0 + 1e-9) {
                out.over_epsilon += 1;
            }
            let scored = release
                .answers
                .marginals()
                .and_then(|answers| average_relative_error(answers, &entry.exact).ok());
            out.scored += u64::from(scored.is_some_and(f64::is_finite));
        }
        Err(e) => {
            eprintln!("cycle {} {label}: {e}", entry.label);
            out.tally.fail();
        }
    }
}

/// Cycles through the probe mix once, then times the cluster search on
/// every workload of the mix and noising 2^16 cells.
pub fn probe(seed: u64) -> Outcome {
    let ctx = setup(seed);
    let mut c = Cycles::default();
    trace::set_enabled(true);
    for &(w, s) in &PROBE_MIX {
        cycle(&ctx, w, s, seed, &mut c);
    }
    for entry in &ctx.entries {
        let clustering = trace::time("cluster.search", 0, None, || {
            dp_core::cluster::greedy_cluster_with_config(&entry.workload, ClusterConfig::default())
        });
        std::hint::black_box(clustering);
    }
    let cells = vec![1.0; ctx.table.counts().len()];
    crate::stream::noise_ms(&cells, seed, 4);
    trace::set_enabled(false);

    let mut out = Outcome {
        phases: vec![("cycles".into(), c.tally)],
        ..Outcome::default()
    };
    out.checks.push(Check::new(
        "achieved_epsilon <= epsilon",
        c.over_epsilon == 0,
        format!(
            "{} plans, {} over ε = {EPSILON}",
            c.tally.succeeded, c.over_epsilon
        ),
    ));
    out.checks.push(Check::new(
        "releases are marginals of the workload",
        c.scored == c.tally.succeeded,
        format!("{} of {} releases scored", c.scored, c.tally.succeeded),
    ));
    out
}
