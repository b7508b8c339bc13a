//! One benchmark for the datacube-dp release paths, end to end and layer
//! by layer. See `README.md` beside this crate for the workloads, the
//! metrics and how to cite them.
//!
//! ```text
//! cargo run --release --manifest-path relbench/Cargo.toml -- \
//!     --workload keyed_tcp --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints a human-readable report, then one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. Exits non-zero when an output check fails.

mod cold;
mod heap;
mod keyed;
mod layers;
mod net;
mod stats;
mod stream;
mod trace;

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use stats::{Better, Metric, Samples, Tally};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// The workloads `BENCHMARK.json` declares.
const WORKLOADS: [&str; 2] = ["keyed_tcp", "stream_range_tcp"];
/// The paths a traced run probes for layers its own path skips: the
/// declared workloads and the cold marginal path, which only runs as a
/// probe (see README).
const PROBES: [&str; 3] = ["keyed_tcp", "stream_range_tcp", "cold_marginals"];

/// How a workload is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end measurement, tracing off.
    Untraced,
    /// The workload's own path with spans, plus layer timings.
    Traced,
    /// A short, small traced run of another workload's path, so a traced
    /// run reports every layer even when its own path skips some.
    Probe,
}

/// One output check.
pub struct Check {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &str, passed: bool, detail: String) -> Check {
        Check {
            name: name.to_string(),
            passed,
            detail,
        }
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// The end-to-end metrics `BENCHMARK.json` declares (untraced runs).
    pub e2e: Vec<Metric>,
    /// Further figures this workload prints beside them, not gated.
    pub info: Vec<Metric>,
    /// Per-layer figures that do not come from spans.
    pub layer: Vec<Metric>,
    /// Op accounting per phase.
    pub phases: Vec<(String, Tally)>,
    /// `peak_heap_mb`, read by the workload when its gated phase ends.
    pub peak_heap_mb: f64,
    pub checks: Vec<Check>,
}

impl Outcome {
    pub fn tally(&self) -> Tally {
        let mut all = Tally::default();
        for (_, t) in &self.phases {
            all.add(*t);
        }
        all
    }

    /// Appends the metrics every workload shares: set-up time, success
    /// share and peak memory (in `BENCHMARK.json` order around the
    /// workload's own). The `tail` latency is printed with the workload
    /// figures but not gated: host stalls set it (see README).
    pub fn finish_e2e(
        &mut self,
        setup: &Samples,
        throughput: Metric,
        p50: Metric,
        tail: Metric,
        error: Metric,
    ) {
        let tally = self.tally();
        let ok_share = tally.succeeded as f64 / tally.attempted.max(1) as f64;
        let failed_share = tally.unsuccessful() as f64 / tally.attempted.max(1) as f64;
        self.e2e = vec![
            Metric::new("setup_s", setup.p50(), "s", Better::Lower, setup.len()),
            throughput,
            p50,
            error,
            Metric::new(
                "ok_share",
                ok_share,
                "ratio",
                Better::Higher,
                tally.attempted as usize,
            ),
            Metric::new("peak_heap_mb", self.peak_heap_mb, "MB", Better::Lower, 1),
        ];
        self.info.push(tail);
        self.info.push(Metric::new(
            "peak_rss_mb",
            peak_rss_mb(),
            "MB",
            Better::Lower,
            1,
        ));
        self.info.push(Metric::new(
            "failed_share",
            failed_share,
            "ratio",
            Better::Lower,
            tally.attempted as usize,
        ));
    }
}

impl Outcome {
    /// Records the traced run's own cost (`overhead`: traced over untraced
    /// median of `what`, from `samples` traced samples) and the budget
    /// solves since `solves_before`.
    pub fn push_trace_extras(
        &mut self,
        overhead: f64,
        samples: usize,
        what: &str,
        solves_before: u64,
    ) {
        self.layer.push(
            Metric::lower("trace.overhead_ratio", overhead, "ratio", samples)
                .note(&format!("traced / untraced {what}")),
        );
        let solves = dp_opt::budget::solve_count() - solves_before;
        self.layer.push(
            Metric::lower("opt.budget_solves", solves as f64, "count", 1)
                .note("during the traced phases"),
        );
    }
}

/// Runs `f` `reps` times, timing each run; keeps the last result (earlier
/// ones are dropped outside the timing). The heap peak starts over after
/// it.
pub fn timed_setup<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, Samples) {
    let mut times = Samples::new();
    let mut kept = None;
    for _ in 0..reps {
        drop(kept.take());
        let start = Instant::now();
        let value = f();
        times.push(start.elapsed().as_secs_f64());
        kept = Some(value);
    }
    heap::reset_peak();
    (kept.expect("at least one set-up"), times)
}

/// splitmix64 finalizer: derives independent values from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn run_workload(name: &str, seed: u64, seconds: f64, mode: Mode) -> Outcome {
    match name {
        "keyed_tcp" => keyed::run(seed, seconds, mode),
        "stream_range_tcp" => stream::run(seed, seconds, mode),
        "cold_marginals" => cold::probe(seed),
        other => unreachable!("workload {other} was validated"),
    }
}

/// The environment a result was measured in.
fn environment(seed: u64) -> Vec<(&'static str, String)> {
    let command_line = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        (
            "rustc",
            command_line(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into()),
        ),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        (
            "commit",
            command_line("git", &["rev-parse", "--short=12", "HEAD"])
                .unwrap_or_else(|| "none (not a git checkout)".into()),
        ),
        ("source_fnv", format!("{:016x}", source_fingerprint())),
        ("seed", seed.to_string()),
    ]
}

/// FNV-1a over the paths and bytes of every Rust source and manifest
/// under `crates/` and `vendor/`, so a result names the code it measured
/// even where no commit id is available.
fn source_fingerprint() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs") | Some("toml")
            ) {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("vendor"), &mut files);
    files.sort();
    let mut h = 0xcbf29ce484222325u64;
    for path in files {
        let bytes = std::fs::read(&path).unwrap_or_default();
        for b in path.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    println!(
        "  {:<40} {:>16} {:<6} {:<7} {:>8}  note",
        "metric", "value", "unit", "better", "samples"
    );
    for m in metrics {
        println!(
            "  {:<40} {:>16.6} {:<6} {:<7} {:>8}  {}",
            m.name,
            m.value,
            m.unit,
            m.better.label(),
            m.samples,
            m.note
        );
    }
}

fn json_line(correct: bool, tally: Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // A non-finite value already fails the run; `null` keeps the
            // line valid JSON.
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".into()
            };
            format!(
                "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted,
        tally.unsuccessful(),
        body.join(",")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("relbench: {e}");
            std::process::exit(2);
        }
    };
    let env = environment(args.seed);
    println!(
        "relbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "environment: {}",
        env.iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );

    let mode = if args.trace {
        Mode::Traced
    } else {
        Mode::Untraced
    };
    let mut outcome = run_workload(&args.workload, args.seed, args.seconds, mode);
    let mut layer_metrics = Vec::new();
    let mut self_table = Vec::new();
    if args.trace {
        // Layers this workload's path skips are timed on short, small
        // runs of the other workloads' paths, marked as probes.
        let mut extras = outcome.layer.clone();
        trace::set_probe(true);
        for other in PROBES.iter().filter(|w| **w != args.workload) {
            let probe = run_workload(other, args.seed, args.seconds, Mode::Probe);
            outcome
                .checks
                .extend(probe.checks.into_iter().map(|c| Check {
                    name: format!("probe:{other} {}", c.name),
                    ..c
                }));
            extras.extend(probe.layer.into_iter().map(|m| {
                let note = format!("probe:{other} {}", m.note);
                m.note(note.trim_end())
            }));
        }
        trace::set_probe(false);
        let spans = trace::take_linked(layers::LINKS);
        let selfs = trace::self_times(&spans);
        layer_metrics = layers::metrics(&spans, &selfs, &extras);
        self_table = layers::self_time_table(&spans, &selfs);
        let dir = Path::new(".relbench").join("traces");
        let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match std::fs::create_dir_all(&dir).and_then(|_| trace::write_jsonl(&path, &spans, &selfs))
        {
            Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("could not write spans: {e}"),
        }
    }

    for (phase, t) in &outcome.phases {
        println!(
            "phase {phase:<16} attempted={} succeeded={} failed={} refused={}",
            t.attempted, t.succeeded, t.failed, t.refused
        );
    }
    for c in &outcome.checks {
        println!(
            "check {:<40} {} {}",
            c.name,
            if c.passed { "ok  " } else { "FAIL" },
            c.detail
        );
    }
    let metrics = if args.trace {
        println!("layer self time (per span name: count, total and self ms, self share):");
        for line in &self_table {
            println!("  {line}");
        }
        print_metrics("per-layer metrics:", &layer_metrics);
        layer_metrics
    } else {
        print_metrics("end-to-end metrics:", &outcome.e2e);
        print_metrics("workload figures:", &outcome.info);
        outcome.e2e.clone()
    };

    let finite = metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        println!("check all metrics finite                    FAIL");
    }
    let correct = finite && outcome.checks.iter().all(|c| c.passed);
    let line = json_line(correct, outcome.tally(), &metrics);
    write_result(&args, &env, &line);
    println!("{line}");
    let _ = std::io::stdout().flush();
    std::process::exit(if correct { 0 } else { 1 });
}

/// Keeps each run's environment and result line under `.relbench/results`.
fn write_result(args: &Args, env: &[(&'static str, String)], line: &str) {
    let dir = Path::new(".relbench").join("results");
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let env_json: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("\"{k}\":\"{}\"", v.replace('"', "'")))
        .collect();
    let doc = format!(
        "{{\"workload\":\"{}\",\"seconds\":{},\"environment\":{{{}}},\"result\":{line}}}\n",
        args.workload,
        args.seconds,
        env_json.join(",")
    );
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, doc)) {
        eprintln!("could not write {}: {e}", path.display());
    }
}
