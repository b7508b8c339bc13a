//! The per-layer metrics of a traced run, computed from its spans.
//!
//! Each metric reads the spans of one layer boundary. Spans from the
//! run's own workload path are preferred; a layer that path never enters
//! is read from the probe runs instead, and the report says so.

use std::collections::BTreeMap;

use crate::stats::{Better, Metric, Samples};
use crate::trace::Span;

/// Server-side spans carry the request id of the client span that caused
/// them; these (child, parent) pairs are linked after the run.
pub const LINKS: &[(&str, &str)] = &[
    ("server.turnaround.release", "client.rtt.release"),
    (
        "server.turnaround.release_current",
        "client.rtt.release_current",
    ),
];

/// What a metric reads from the spans selected by its name pattern.
#[derive(Clone, Copy)]
enum Read {
    /// A quantile of span durations, in `unit_ns` units.
    Dur(f64),
    /// A quantile of span self times.
    SelfDur(f64),
    /// Mean work count per span.
    WorkMean,
    /// Total work per second of span time.
    WorkRate,
    /// Not from spans: supplied by the workload.
    Extra,
}

struct Spec {
    name: &'static str,
    unit: &'static str,
    better: Better,
    /// Span name, or prefix when it ends in `*`.
    spans: &'static str,
    read: Read,
    note: &'static str,
}

const fn spec(
    name: &'static str,
    unit: &'static str,
    better: Better,
    spans: &'static str,
    read: Read,
    note: &'static str,
) -> Spec {
    Spec {
        name,
        unit,
        better,
        spans,
        read,
        note,
    }
}

use Better::{Higher, Lower};
use Read::{Dur, Extra, SelfDur, WorkMean, WorkRate};

/// Every per-layer metric, in `BENCHMARK.json` order.
#[rustfmt::skip]
const SPECS: &[Spec] = &[
    spec("server.turnaround_us.p50", "us", Lower, "server.turnaround.release*", Dur(0.5), ""),
    spec("server.turnaround_us.p99", "us", Lower, "server.turnaround.release*", Dur(0.99), ""),
    spec("server.turnaround_self_us.p50", "us", Lower, "server.turnaround.release*", SelfDur(0.5), "turnaround minus send"),
    spec("transport.send_us.p50", "us", Lower, "transport.send.release*", Dur(0.5), ""),
    spec("transport.bytes_out_per_release", "bytes", Lower, "transport.send.release*", WorkMean, ""),
    spec("wire.gap_us.p50", "us", Lower, "client.rtt.release*", SelfDur(0.5), "derived: client round trip minus server turnaround"),
    spec("protocol.parse_us.p50", "us", Lower, "protocol.parse.*", Dur(0.5), "parse_line + Request::from_value"),
    spec("protocol.render_us.p50", "us", Lower, "protocol.render.release*", Dur(0.5), "render_line on release responses"),
    spec("service.handle_us.p50.release", "us", Lower, "service.handle.release", Dur(0.5), ""),
    spec("service.handle_us.p99.release", "us", Lower, "service.handle.release", Dur(0.99), ""),
    spec("service.handle_us.p50.ingest", "us", Lower, "service.handle.ingest", Dur(0.5), ""),
    spec("service.handle_us.p99.ingest", "us", Lower, "service.handle.ingest", Dur(0.99), ""),
    spec("service.handle_us.p50.release_current", "us", Lower, "service.handle.release_current", Dur(0.5), ""),
    spec("service.handle_us.p99.release_current", "us", Lower, "service.handle.release_current", Dur(0.99), ""),
    spec("accountant.admit_us.p50", "us", Lower, "accountant.admit", Dur(0.5), "bench-owned group-commit WAL"),
    spec("accountant.admit_us.p99", "us", Lower, "accountant.admit", Dur(0.99), "bench-owned group-commit WAL"),
    spec("accountant.wal_records_per_sync", "count", Higher, "", Extra, ""),
    spec("core.release_us.p50", "us", Lower, "core.release.Q2.F+", Dur(0.5), "Q2 F+"),
    spec("core.noise_cells_per_s", "1/s", Higher, "core.noise", WorkRate, "perturb_observations_into"),
    spec("core.recover_ms.p50.hierarchical", "ms", Lower, "", Extra, ""),
    spec("core.recover_ms.p50.wavelet", "ms", Lower, "", Extra, ""),
    spec("core.ingest_us.p50", "us", Lower, "core.ingest", Dur(0.5), "StreamingSession::ingest_count"),
    spec("core.compile_ms", "ms", Lower, "core.compile.*", Dur(0.5), "PlanBuilder::compile"),
    spec("core.bind_ms", "ms", Lower, "core.bind.*", Dur(0.5), ""),
    spec("cluster.search_ms", "ms", Lower, "cluster.search", Dur(0.5), "greedy_cluster_with_config"),
    spec("opt.budget_solves", "count", Lower, "", Extra, ""),
    spec("trace.overhead_ratio", "ratio", Lower, "", Extra, ""),
];

fn matches(pattern: &str, name: &str) -> bool {
    match pattern.strip_suffix('*') {
        Some(prefix) => name.starts_with(prefix),
        None => name == pattern,
    }
}

fn unit_ns(unit: &str) -> f64 {
    match unit {
        "us" => 1e3,
        "ms" => 1e6,
        "s" => 1e9,
        _ => 1.0,
    }
}

/// Computes every declared per-layer metric; one that neither the path
/// nor a probe produced is NaN, which fails the run.
pub fn metrics(spans: &[Span], selfs: &[u64], extras: &[Metric]) -> Vec<Metric> {
    SPECS
        .iter()
        .map(|spec| {
            if let Read::Extra = spec.read {
                let pick = extras
                    .iter()
                    .find(|m| m.name == spec.name && !m.note.starts_with("probe"))
                    .or_else(|| extras.iter().find(|m| m.name == spec.name));
                return match pick {
                    Some(m) => {
                        let mut m = m.clone();
                        m.better = spec.better;
                        m
                    }
                    None => {
                        Metric::new(spec.name, f64::NAN, spec.unit, spec.better, 0).note("missing")
                    }
                };
            }
            let select = |probe: bool| -> Vec<usize> {
                (0..spans.len())
                    .filter(|&i| spans[i].probe == probe && matches(spec.spans, &spans[i].name))
                    .collect()
            };
            let own = select(false);
            let (picked, source) = if own.is_empty() {
                (select(true), "probe")
            } else {
                (own, "path")
            };
            let scale = unit_ns(spec.unit);
            let quantile = |values: Samples, q: f64| values.quantile(q);
            let value = match spec.read {
                Read::Dur(q) => quantile(
                    picked
                        .iter()
                        .map(|&i| spans[i].dur_ns() as f64 / scale)
                        .collect(),
                    q,
                ),
                Read::SelfDur(q) => {
                    quantile(picked.iter().map(|&i| selfs[i] as f64 / scale).collect(), q)
                }
                Read::WorkMean => {
                    let work: u64 = picked.iter().map(|&i| spans[i].work).sum();
                    work as f64 / picked.len() as f64
                }
                Read::WorkRate => {
                    let work: u64 = picked.iter().map(|&i| spans[i].work).sum();
                    let ns: u64 = picked.iter().map(|&i| spans[i].dur_ns()).sum();
                    work as f64 / (ns as f64 / 1e9)
                }
                Read::Extra => unreachable!("handled above"),
            };
            let note = if spec.note.is_empty() {
                source.to_string()
            } else {
                format!("{source}; {}", spec.note)
            };
            Metric::new(spec.name, value, spec.unit, spec.better, picked.len()).note(&note)
        })
        .collect()
}

/// One line per span name: count, total and self time, and the self
/// time's share of the total.
pub fn self_time_table(spans: &[Span], selfs: &[u64]) -> Vec<String> {
    let mut by_name: BTreeMap<(bool, &str), (usize, u64, u64)> = BTreeMap::new();
    for (s, &self_ns) in spans.iter().zip(selfs) {
        let e = by_name.entry((s.probe, &s.name)).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += self_ns;
    }
    let mut lines = vec![format!(
        "{:<44} {:>7} {:>12} {:>12} {:>7}",
        "span", "n", "total_ms", "self_ms", "self%"
    )];
    for ((probe, name), (n, total, own)) in by_name {
        lines.push(format!(
            "{:<44} {:>7} {:>12.3} {:>12.3} {:>6.1}%",
            if probe {
                format!("{name} (probe)")
            } else {
                name.to_string()
            },
            n,
            total as f64 / 1e6,
            own as f64 / 1e6,
            100.0 * own as f64 / total.max(1) as f64
        ));
    }
    lines
}
