//! Sample summaries and the report a run prints.

use crate::heap;

/// A set of timing (or other) samples. Its storage is allocated and freed
/// outside the heap count (see [`heap::uncounted`]).
#[derive(Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new() -> Samples {
        Samples(Vec::new())
    }

    pub fn push(&mut self, value: f64) {
        heap::uncounted(|| self.0.push(value));
    }

    pub fn extend(&mut self, other: &Samples) {
        heap::uncounted(|| self.0.extend_from_slice(&other.0));
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            f64::NAN
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1), interpolating linearly between the
    /// closest ranks; NaN when there are no samples.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        heap::uncounted(|| {
            let mut sorted = self.0.clone();
            sorted.sort_by(f64::total_cmp);
            let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        })
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// The median over consecutive windows of `per` values of `f(window)`,
/// with the number of windows. A trailing partial window is dropped
/// unless it is the only one. Robust to a stall that hits a few windows.
pub fn windowed_median(values: &[f64], per: usize, f: impl Fn(&Samples) -> f64) -> (f64, usize) {
    let per = per.max(1);
    let full = values.len() / per;
    let windows: Samples = if full == 0 {
        std::iter::once(f(&values.iter().copied().collect())).collect()
    } else {
        values[..full * per]
            .chunks(per)
            .map(|w| f(&w.iter().copied().collect()))
            .collect()
    };
    (windows.p50(), windows.len())
}

/// Completions per second in each whole `window_s` window of `[0,
/// span_s)`, given completion times in seconds from the start; the median
/// window and the number of windows.
pub fn windowed_rate(done_s: &[f64], span_s: f64, window_s: f64) -> (f64, usize) {
    let windows = ((span_s / window_s).floor() as usize).max(1);
    let mut counts = vec![0usize; windows];
    for &t in done_s {
        let w = (t / window_s) as usize;
        if w < windows {
            counts[w] += 1;
        }
    }
    let rates: Samples = counts.iter().map(|&c| c as f64 / window_s).collect();
    (rates.p50(), windows)
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Samples {
        heap::uncounted(|| Samples(iter.into_iter().collect()))
    }
}

impl Drop for Samples {
    fn drop(&mut self) {
        heap::uncounted(|| drop(std::mem::take(&mut self.0)));
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported figure: value, unit, direction and the number of samples
/// it summarizes.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub better: Better,
    pub samples: usize,
    /// Free-text provenance shown in the report (e.g. `derived`, `probe`).
    pub note: String,
}

impl Metric {
    pub fn new(
        name: &str,
        value: f64,
        unit: &'static str,
        better: Better,
        samples: usize,
    ) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            better,
            samples,
            note: String::new(),
        }
    }

    pub fn lower(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric::new(name, value, unit, Better::Lower, samples)
    }

    pub fn higher(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric::new(name, value, unit, Better::Higher, samples)
    }

    pub fn note(mut self, note: &str) -> Metric {
        self.note = note.to_string();
        self
    }
}

/// Attempted/failed/refused counts of one phase of a workload.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub succeeded: u64,
    /// Failed for a reason other than a refusal.
    pub failed: u64,
    /// Refused by the service (`budget_exhausted`, `overloaded`).
    pub refused: u64,
}

impl Tally {
    /// Classifies one response line.
    pub fn record(&mut self, response: &str) {
        self.attempted += 1;
        if response.starts_with("{\"ok\":true") {
            self.succeeded += 1;
        } else if response.contains("\"budget_exhausted\"") || response.contains("\"overloaded\"") {
            self.refused += 1;
        } else {
            self.failed += 1;
        }
    }

    pub fn ok(&mut self) {
        self.attempted += 1;
        self.succeeded += 1;
    }

    pub fn fail(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
        self.refused += other.refused;
    }

    /// Failed plus refused: a refusal is a failure for the caller.
    pub fn unsuccessful(&self) -> u64 {
        self.failed + self.refused
    }
}
