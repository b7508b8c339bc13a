//! In-memory spans recorded around calls into each layer's public
//! functions, written out when the run ends.
//!
//! A span has a name, start and end (nanoseconds since the run's clock
//! origin), an optional parent, a request id shared by all spans of one
//! request, and a work count (cells noised, bytes sent). Spans recorded on
//! another thread than their parent's (the server side of a TCP request)
//! are linked to it afterwards by request id. A span's self time is its
//! duration minus the part of it that its children cover.
//!
//! Recording is off until [`set_enabled`] turns it on, so the untraced run pays
//! one relaxed load per call site.

use std::collections::HashMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rid: u64,
    pub work: u64,
    /// Recorded while running another workload's path as a probe.
    pub probe: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static PROBE: AtomicBool = AtomicBool::new(false);
static ORIGIN: OnceLock<Instant> = OnceLock::new();
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Marks spans recorded from now on as coming from a probe run.
pub fn set_probe(on: bool) {
    PROBE.store(on, Ordering::SeqCst);
}

pub fn now_ns() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A stable 64-bit id for a request-id string (FNV-1a).
pub fn rid_of(id: &str) -> u64 {
    id.bytes().fold(0xcbf29ce484222325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// Records a finished span; returns its index, or `None` when tracing is
/// off.
pub fn record(name: &str, start_ns: u64, end_ns: u64, rid: u64, work: u64) -> Option<usize> {
    record_child(name, start_ns, end_ns, rid, work, None)
}

pub fn record_child(
    name: &str,
    start_ns: u64,
    end_ns: u64,
    rid: u64,
    work: u64,
    parent: Option<usize>,
) -> Option<usize> {
    if !enabled() {
        return None;
    }
    let mut spans = SPANS.lock().expect("span buffer mutex poisoned");
    spans.push(Span {
        name: name.to_string(),
        start_ns,
        end_ns,
        parent,
        rid,
        work,
        probe: PROBE.load(Ordering::Relaxed),
    });
    Some(spans.len() - 1)
}

/// Opens a span whose children are recorded before it ends; close it
/// with [`close`].
pub fn open(name: &str, rid: u64) -> Option<usize> {
    let now = now_ns();
    record(name, now, now, rid, 0)
}

pub fn close(span: Option<usize>) {
    if let Some(i) = span {
        let now = now_ns();
        SPANS.lock().expect("span buffer mutex poisoned")[i].end_ns = now;
    }
}

/// Times `f` as a span (a child of `parent` when given).
pub fn time<T>(name: &str, rid: u64, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let start = now_ns();
    let out = f();
    record_child(name, start, now_ns(), rid, 0, parent);
    out
}

/// Takes every recorded span, linking orphans named `child` to the span
/// named `parent` with the same request id, for each `(child, parent)`
/// rule in order.
pub fn take_linked(rules: &[(&str, &str)]) -> Vec<Span> {
    let mut spans = std::mem::take(&mut *SPANS.lock().expect("span buffer mutex poisoned"));
    for &(child, parent) in rules {
        let by_rid: HashMap<u64, usize> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == parent)
            .map(|(i, s)| (s.rid, i))
            .collect();
        for span in spans
            .iter_mut()
            .filter(|s| s.name == child && s.parent.is_none())
        {
            span.parent = by_rid.get(&span.rid).copied();
        }
    }
    spans
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to its own).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Writes the spans as JSON lines (name, start, end, parent, request id,
/// work, probe, self time).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span], selfs: &[u64]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
             \"rid\":{},\"work\":{},\"probe\":{},\"self_ns\":{self_ns}}}",
            s.name, s.start_ns, s.end_ns, s.rid, s.work, s.probe
        )?;
    }
    out.flush()
}
