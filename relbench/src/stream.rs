//! `stream_range_tcp`: one publisher over loopback TCP alternates between
//! an H+ and a W+ stream, both opened over a loaded 2^20-cell histogram
//! with 128 random ranges. Each epoch is 4096 single-record `ingest`s
//! followed by one keyed `release_current`. Epochs run in H+/W+ pairs, so
//! every run measures both strategies equally often.

use std::sync::Arc;
use std::time::Instant;

use dp_core::prelude::*;
use dp_service::protocol::{parse_line, render_line, Request};
use dp_service::transport::TcpConnection;
use dp_service::{Accountant, Client, DpService};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::net::{self, RunningServer, TempDir};
use crate::stats::{Metric, Samples, Tally};
use crate::{heap, mix, timed_setup, trace, Check, Mode, Outcome};

const TENANT: &str = "publisher";
/// A second tenant whose own streams the in-process layer calls use, so
/// they leave the publisher's streams untouched.
const PROBE_TENANT: &str = "probe";
const EPSILON: f64 = 1.0;
const TENANT_BUDGET: f64 = 1e9;
const RANGES: usize = 128;
const FULL_BITS: u32 = 20;
const FULL_INGESTS: usize = 4096;
const PROBE_BITS: u32 = 16;
const PROBE_INGESTS: usize = 512;
/// Ingests per throughput sample; both ingest counts are multiples.
const INGEST_CHUNK: usize = 512;
const SETUP_REPS: usize = 21;
const STRATEGIES: [(RangeStrategy, &str); 2] = [
    (RangeStrategy::Hierarchical, "hierarchical"),
    (RangeStrategy::Wavelet, "wavelet"),
];

struct Ctx {
    publisher: TcpConnection,
    admin: Client,
    server: RunningServer,
    _wal: TempDir,
    streams: Vec<String>,
    workload: RangeWorkload,
    /// The bench's own copy of each stream's counts, for exact answers.
    counts: Vec<Vec<f64>>,
    /// Cells the next ingests hit.
    cells: StdRng,
}

/// A loaded histogram: every cell holds 0–7 records.
fn histogram(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 1));
    (0..n).map(|_| (rng.gen::<u64>() >> 61) as f64).collect()
}

/// 128 random half-open ranges `[lo, hi)`. Their lengths follow the law
/// of `|a - b| + 1` for two uniform cells `a` and `b`, stratified: the
/// i-th range takes the (i + 1/2)/128 quantile of it. So every seed has
/// the same mix of short and long ranges and only their positions vary;
/// with independent draws, the mean length alone moved the relative
/// error by 6% (one standard deviation) from seed to seed.
fn ranges(n: usize, seed: u64) -> RangeWorkload {
    let mut rng = StdRng::seed_from_u64(mix(seed, 2));
    let ranges = (0..RANGES)
        .map(|i| {
            let u = (i as f64 + 0.5) / RANGES as f64;
            let len = ((n as f64 * (1.0 - (1.0 - u).sqrt())) as usize + 1).min(n);
            let lo = rng.gen_range(0..=n - len);
            (lo, lo + len)
        })
        .collect();
    RangeWorkload::new(n, ranges).expect("ranges lie in the domain")
}

fn setup(seed: u64, bits: u32) -> Ctx {
    let n = 1usize << bits;
    let loaded = histogram(n, seed);
    let workload = ranges(n, seed);
    let wal = TempDir::new("stream");
    let accountant =
        Accountant::with_wal(&wal.path().join("wal.jsonl")).expect("open a fresh group-commit WAL");
    let service = DpService::new(accountant);
    service.data().insert_histogram("hist", loaded.clone());
    let server = RunningServer::start(service);
    let addr = server.addr();
    let mut admin = Client::connect(&addr).expect("admin connection");
    admin
        .open_tenant(
            TENANT,
            PrivacyLevel::Pure {
                epsilon: TENANT_BUDGET,
            },
        )
        .expect("open the publisher tenant");
    let mut streams = Vec::new();
    for (strategy, _) in STRATEGIES {
        let plan = admin
            .register_compile(
                TENANT,
                WorkloadSpec::Ranges {
                    workload: workload.clone(),
                    strategy,
                },
                Budgeting::Optimal,
                PrivacyLevel::Pure { epsilon: EPSILON },
                Neighboring::AddRemove,
            )
            .expect("register the range plan");
        streams.push(
            admin
                .stream_open(TENANT, &plan, Some("hist"))
                .expect("open the stream"),
        );
    }
    let publisher = net::connect(&addr);
    Ctx {
        publisher,
        admin,
        server,
        _wal: wal,
        streams,
        workload,
        counts: vec![loaded; STRATEGIES.len()],
        cells: StdRng::seed_from_u64(mix(seed, 3)),
    }
}

fn ingest_line(tenant: &str, stream: &str, cell: u64) -> String {
    render_line(
        &Request::Ingest {
            tenant: tenant.into(),
            stream: stream.into(),
            cell,
            delta: 1.0,
        }
        .to_value(),
    )
}

fn release_line(tenant: &str, stream: &str, seed: u64, id: &str) -> String {
    render_line(
        &Request::ReleaseCurrent {
            tenant: tenant.into(),
            stream: stream.into(),
            seeds: vec![mix(seed, trace::rid_of(id))],
            request_id: Some(id.into()),
        }
        .to_value(),
    )
}

#[derive(Default)]
struct Epochs {
    ingest_ms: Samples,
    /// Ingests per second over each [`INGEST_CHUNK`] consecutive ingests.
    ingest_rate: Samples,
    release_ms: Samples,
    /// Release round trips per strategy, in `STRATEGIES` order.
    release_ms_by: [Samples; 2],
    epoch_ms: Samples,
    loop_s: f64,
    ingests: Tally,
    releases: Tally,
    /// (request line, response) of every release, for the checks.
    kept: Vec<(String, String)>,
    rel_error: Samples,
    bad_answers: usize,
}

/// Runs H+/W+ epoch pairs until `seconds` have passed (at least one).
fn epochs(ctx: &mut Ctx, seed: u64, tag: &str, ingests: usize, seconds: f64, out: &mut Epochs) {
    let start = Instant::now();
    let mut k = 0;
    while k == 0 || start.elapsed().as_secs_f64() < seconds {
        for s in 0..STRATEGIES.len() {
            // Lines are rendered before the epoch's clock starts.
            let cells: Vec<u64> = (0..ingests)
                .map(|_| ctx.cells.gen_range(0..ctx.workload.domain() as u64))
                .collect();
            let lines: Vec<String> = cells
                .iter()
                .map(|&c| ingest_line(TENANT, &ctx.streams[s], c))
                .collect();
            let id = format!("{tag}{k}-{s}");
            let release = release_line(TENANT, &ctx.streams[s], seed, &id);

            let epoch_start = Instant::now();
            let mut chunk_start = epoch_start;
            for (i, (line, &cell)) in lines.iter().zip(&cells).enumerate() {
                let sent = Instant::now();
                match net::call(&mut ctx.publisher, line) {
                    Ok(response) => {
                        out.ingests.record(&response);
                        if net::is_ok(&response) {
                            ctx.counts[s][cell as usize] += 1.0;
                            out.ingest_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                        }
                    }
                    Err(_) => out.ingests.fail(),
                }
                if (i + 1) % INGEST_CHUNK == 0 {
                    let now = Instant::now();
                    out.ingest_rate
                        .push(INGEST_CHUNK as f64 / (now - chunk_start).as_secs_f64());
                    chunk_start = now;
                }
            }
            let ingest_end = Instant::now();
            let t0 = trace::now_ns();
            let response = net::call(&mut ctx.publisher, &release);
            let end = Instant::now();
            trace::record(
                "client.rtt.release_current",
                t0,
                trace::now_ns(),
                trace::rid_of(&id),
                0,
            );
            out.loop_s += (end - epoch_start).as_secs_f64();
            match response {
                Ok(response) => {
                    out.releases.record(&response);
                    if net::is_ok(&response) {
                        out.release_ms.push((end - ingest_end).as_secs_f64() * 1e3);
                        out.release_ms_by[s].push((end - ingest_end).as_secs_f64() * 1e3);
                        out.epoch_ms.push((end - epoch_start).as_secs_f64() * 1e3);
                        match range_error(ctx, s, &response) {
                            Some(e) => out.rel_error.push(e),
                            None => out.bad_answers += 1,
                        }
                    }
                    out.kept.push((release, response));
                }
                Err(_) => out.releases.fail(),
            }
        }
        k += 1;
    }
}

/// Mean absolute error over mean true answer, when the release holds
/// one finite answer per range.
fn range_error(ctx: &Ctx, stream: usize, response: &str) -> Option<f64> {
    let value = parse_line(response).ok()?;
    let release = value.get_field("releases")?.as_array()?.first()?.clone();
    let answers: Vec<f64> = release
        .get_field("ranges")?
        .as_array()?
        .iter()
        .map(|v| v.as_f64())
        .collect::<Option<_>>()?;
    if answers.len() != RANGES || answers.iter().any(|a| !a.is_finite()) {
        return None;
    }
    let exact = ctx.workload.true_answers(&ctx.counts[stream]).ok()?;
    let abs: f64 = answers.iter().zip(&exact).map(|(a, e)| (a - e).abs()).sum();
    let mean_true = exact.iter().sum::<f64>() / exact.len() as f64;
    Some(abs / mean_true.max(1.0))
}

/// Re-drives every release id (byte-identical replays) and checks one
/// charge per id and 128 finite answers per release.
fn check_outputs(ctx: &mut Ctx, e: &Epochs, out: &mut Outcome) {
    let mut mismatched = 0;
    for (line, response) in &e.kept {
        match net::call(&mut ctx.publisher, line) {
            Ok(again) if &again == response => {}
            _ => mismatched += 1,
        }
    }
    out.checks.push(Check::new(
        "release_current re-drive byte-identical",
        mismatched == 0 && !e.kept.is_empty(),
        format!("{} re-driven, {mismatched} differ", e.kept.len()),
    ));
    out.checks.push(Check::new(
        "128 finite answers per release",
        e.bad_answers == 0,
        format!("{} releases, {} malformed", e.kept.len(), e.bad_answers),
    ));
    let granted = e.releases.succeeded;
    let (passed, detail) = match ctx.admin.budget_status(TENANT) {
        Ok(s) => (
            s.charges as u64 == granted,
            format!("{} charges, {granted} granted ids", s.charges),
        ),
        Err(err) => (false, err.to_string()),
    };
    out.checks
        .push(Check::new("one charge per release id", passed, detail));
}

pub fn run(seed: u64, seconds: f64, mode: Mode) -> Outcome {
    let (bits, ingests, reps) = match mode {
        Mode::Probe => (PROBE_BITS, PROBE_INGESTS, 1),
        _ => (FULL_BITS, FULL_INGESTS, SETUP_REPS),
    };
    let (mut ctx, setup_s) = timed_setup(reps, || setup(seed, bits));
    let mut out = Outcome::default();
    let mut e = Epochs::default();
    if mode == Mode::Untraced {
        epochs(&mut ctx, seed, "s", ingests, seconds, &mut e);
        let bench_bytes = ctx
            .counts
            .iter()
            .map(|c| std::mem::size_of_val(&c[..]))
            .sum();
        out.peak_heap_mb = heap::peak_mb(bench_bytes);
    } else {
        traced(&mut ctx, seed, ingests, &mut e, &mut out);
    }
    out.phases.insert(0, ("ingest".into(), e.ingests));
    out.phases.insert(1, ("release_current".into(), e.releases));
    check_outputs(&mut ctx, &e, &mut out);
    if mode != Mode::Untraced {
        return out;
    }

    // The median over runs of ingests, so a stall in a few of them moves
    // it less.
    let ingests_per_s = e.ingest_rate.p50();
    let releases_per_s = e.release_ms.len() as f64 / e.loop_s;
    // Half the releases are H+ and half W+, so the pooled median falls
    // between the two modes; the mean of the per-strategy medians does not.
    let release_p50 = e.release_ms_by.iter().map(Samples::p50).sum::<f64>() / 2.0;
    let (n_rel, n_ingest) = (e.release_ms.len(), e.ingest_ms.len());
    let by = &e.release_ms_by;
    out.info = vec![
        Metric::higher("releases_per_s", releases_per_s, "1/s", n_rel)
            .note("per second of epoch loop"),
        Metric::lower("latency_p50_ms", release_p50, "ms", n_rel)
            .note("release_current round trip, mean of the H+ and W+ medians"),
        Metric::lower("release_p50_ms.H+", by[0].p50(), "ms", by[0].len()),
        Metric::lower("release_p50_ms.W+", by[1].p50(), "ms", by[1].len()),
        Metric::higher("ingests_per_s", ingests_per_s, "1/s", e.ingest_rate.len())
            .note("median over runs of 512 ingests"),
        Metric::lower("ingest_p99_ms", e.ingest_ms.p99(), "ms", n_ingest),
        Metric::lower("epoch_p50_ms", e.epoch_ms.p50(), "ms", e.epoch_ms.len()),
    ];
    out.finish_e2e(
        &setup_s,
        Metric::higher(
            "throughput_per_s",
            ingests_per_s,
            "1/s",
            e.ingest_rate.len(),
        )
        .note("= ingests_per_s"),
        Metric::lower("latency_p50_ms", release_p50, "ms", n_rel).note("= latency_p50_ms"),
        Metric::lower("latency_p90_ms", e.ingest_ms.quantile(0.9), "ms", n_ingest)
            .note("ingest round trip"),
        Metric::lower(
            "avg_rel_error",
            e.rel_error.mean(),
            "ratio",
            e.rel_error.len(),
        ),
    );
    out
}

fn traced(ctx: &mut Ctx, seed: u64, ingests: usize, e: &mut Epochs, out: &mut Outcome) {
    let solves0 = dp_opt::budget::solve_count();
    // One pair with spans off, one with spans on: tracing overhead.
    let mut plain = Epochs::default();
    epochs(ctx, seed, "u", ingests, 0.0, &mut plain);
    trace::set_enabled(true);
    epochs(ctx, seed, "s", ingests, 0.0, e);
    let overhead = e.epoch_ms.p50() / plain.epoch_ms.p50();
    e.ingests.add(plain.ingests);
    e.releases.add(plain.releases);
    e.kept.extend(plain.kept);
    e.bad_answers += plain.bad_answers;

    // The service layers in process, on the probe tenant's own streams.
    let service = ctx.server.service();
    let mut inproc = Tally::default();
    let mut handle = |line: &str, op: &str, rid: u64| {
        if net::handle_in_process(service, line, op, rid) {
            inproc.ok();
        } else {
            inproc.fail();
        }
    };
    service
        .open_tenant(
            PROBE_TENANT,
            PrivacyLevel::Pure {
                epsilon: TENANT_BUDGET,
            },
        )
        .expect("open the probe tenant");
    let mut probe_streams = Vec::new();
    for (strategy, _) in STRATEGIES {
        let builder = PlanBuilder::ranges(ctx.workload.clone(), strategy)
            .privacy(PrivacyLevel::Pure { epsilon: EPSILON });
        let plan = service
            .register_compiled(PROBE_TENANT, builder)
            .expect("register");
        probe_streams.push(
            service
                .stream_open(PROBE_TENANT, &plan, Some("hist"))
                .expect("open"),
        );
    }
    for (s, stream) in probe_streams.iter().enumerate() {
        for _ in 0..ingests {
            let cell = ctx.cells.gen_range(0..ctx.workload.domain() as u64);
            handle(&ingest_line(PROBE_TENANT, stream, cell), "ingest", 0);
        }
        let id = format!("p-{s}");
        handle(
            &release_line(PROBE_TENANT, stream, seed, &id),
            "release_current",
            trace::rid_of(&id),
        );
    }
    out.phases.push(("in_process".into(), inproc));
    core_probe(ctx, seed, ingests, out);
    trace::set_enabled(false);

    out.push_trace_extras(overhead, e.epoch_ms.len(), "epoch p50", solves0);
    let wal = service.accountant().wal_stats().unwrap_or_default();
    out.layer.push(
        Metric::higher(
            "accountant.wal_records_per_sync",
            wal.mean_batch(),
            "count",
            wal.batches as usize,
        )
        .note("server WAL over the run"),
    );
}

/// Compile, bind, ingest, noise and release of each range strategy in
/// process, at the workload's domain size. Recovery time is derived as
/// the median release minus the median noising of as many observations.
fn core_probe(ctx: &Ctx, seed: u64, ingests: usize, out: &mut Outcome) {
    for (s, (strategy, name)) in STRATEGIES.into_iter().enumerate() {
        let label = if strategy == RangeStrategy::Hierarchical {
            "H+"
        } else {
            "W+"
        };
        let plan = Arc::new(trace::time(
            &format!("core.compile.{label}"),
            0,
            None,
            || {
                PlanBuilder::ranges(ctx.workload.clone(), strategy)
                    .privacy(PrivacyLevel::Pure { epsilon: EPSILON })
                    .compile()
                    .expect("range plan compiles")
            },
        ));
        let mut session = trace::time(&format!("core.bind.{label}"), 0, None, || {
            StreamingSession::bind_histogram(Arc::clone(&plan), &ctx.counts[s])
                .expect("bind the histogram")
        });
        let mut cells = StdRng::seed_from_u64(mix(seed, 4));
        for _ in 0..ingests {
            let cell = cells.gen_range(0..ctx.workload.domain() as u64);
            trace::time("core.ingest", 0, None, || session.ingest_count(cell, 1.0))
                .expect("ingest");
        }
        let obs = session.observations().to_vec();
        let noise = noise_ms(&obs, seed, 3);
        let mut release = Samples::new();
        for i in 0..2 {
            let start = Instant::now();
            let r = trace::time(&format!("core.release.{label}"), 0, None, || {
                session.release(mix(seed, i))
            });
            release.push(start.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(r.expect("range release"));
        }
        let recover = release.p50() - noise.p50();
        let note = format!(
            "derived: release minus noise, n = {}",
            ctx.workload.domain()
        );
        out.layer.push(
            Metric::lower(
                &format!("core.recover_ms.p50.{name}"),
                recover,
                "ms",
                release.len(),
            )
            .note(&note),
        );
    }
}

/// Times `perturb_observations_into` over `obs` (one budget group) as
/// `core.noise` spans counting the cells noised.
pub fn noise_ms(obs: &[f64], seed: u64, reps: usize) -> Samples {
    let params = NoiseParams::compute(PrivacyLevel::Pure { epsilon: EPSILON }, &[1.0]);
    let groups = vec![0u32; obs.len()];
    let mut noisy = Vec::new();
    let mut seeds = Vec::new();
    let mut times = Samples::new();
    for i in 0..reps {
        let mut rng = StdRng::seed_from_u64(mix(seed, 100 + i as u64));
        let t0 = trace::now_ns();
        let start = Instant::now();
        dp_core::strategy::perturb_observations_into(
            obs, &groups, &params, &mut rng, &mut noisy, &mut seeds,
        );
        times.push(start.elapsed().as_secs_f64() * 1e3);
        trace::record("core.noise", t0, trace::now_ns(), 0, obs.len() as u64);
        std::hint::black_box(&noisy);
    }
    times
}
