//! The metrics registry: named counters and fixed-bucket histograms.
//!
//! Handles ([`Counter`], [`Histogram`]) are cheap `Arc`-backed clones;
//! callers on hot paths register once and increment lock-free afterwards.
//! Families follow the Prometheus naming scheme (`mao_<subsystem>_<what>`
//! with a `_total` suffix for counters and a unit suffix like `_us` for
//! histograms); [`Metrics::render_prometheus`] emits the whole registry in
//! text exposition format.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::prom::PromText;

/// A label set: sorted `(key, value)` pairs. Kept sorted so the same labels
/// in any order address the same time series.
type Labels = Vec<(String, String)>;

/// A monotonic counter handle.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Inclusive upper bounds, ascending; an implicit `+Inf` bucket follows.
    bounds: Vec<u64>,
    /// Cumulative-format storage is computed at render time; these are
    /// per-bucket (non-cumulative) hit counts, one per bound plus `+Inf`.
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket histogram handle.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

/// Default bucket bounds for microsecond-scale durations: 100 µs to 10 s,
/// one decade per bucket.
pub const US_BUCKETS: &[u64] = &[100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// Point-in-time copy of a histogram's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds, ascending (the `+Inf` bucket is implicit).
    pub bounds: Vec<u64>,
    /// Per-bucket hit counts (not cumulative), one per bound plus `+Inf`.
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascending");
        Histogram {
            inner: Arc::new(HistogramInner {
                bounds: bounds.to_vec(),
                counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                sum: AtomicU64::new(0),
                count: AtomicU64::new(0),
            }),
        }
    }

    /// Record one observation.
    pub fn observe(&self, value: u64) {
        let i = self
            .inner
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.inner.bounds.len());
        self.inner.counts[i].fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(value, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Copy out the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.inner.bounds.clone(),
            counts: self
                .inner
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: self.inner.sum.load(Ordering::Relaxed),
            count: self.inner.count.load(Ordering::Relaxed),
        }
    }
}

#[derive(Debug, Default)]
struct Registry {
    /// Family → label set → handle. A family holds either counters or
    /// histograms, never both (the first registration wins the kind).
    counters: BTreeMap<String, BTreeMap<Labels, Counter>>,
    histograms: BTreeMap<String, BTreeMap<Labels, Histogram>>,
}

/// The thread-safe metrics registry.
#[derive(Debug, Default)]
pub struct Metrics {
    registry: Mutex<Registry>,
}

fn sorted_labels(labels: &[(&str, &str)]) -> Labels {
    let mut out: Labels = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    out.sort();
    out
}

impl Metrics {
    /// Empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// The counter for `family` with no labels (registered on first use).
    pub fn counter(&self, family: &str) -> Counter {
        self.counter_with(family, &[])
    }

    /// The counter for `family` with the given labels.
    pub fn counter_with(&self, family: &str, labels: &[(&str, &str)]) -> Counter {
        let mut reg = self.registry.lock().unwrap();
        reg.counters
            .entry(family.to_string())
            .or_default()
            .entry(sorted_labels(labels))
            .or_default()
            .clone()
    }

    /// Register `counter` itself as the `family{labels}` series, so a
    /// subsystem that owns its counter cells (a cache, a store) exposes
    /// them here without a second copy: the registry renders the caller's
    /// cell, including whatever it counted before adoption. Adopting the
    /// cell a series already holds is a no-op; the series must not hold
    /// another cell.
    pub fn adopt(&self, family: &str, labels: &[(&str, &str)], counter: &Counter) {
        let mut reg = self.registry.lock().unwrap();
        let previous = reg
            .counters
            .entry(family.to_string())
            .or_default()
            .insert(sorted_labels(labels), counter.clone());
        debug_assert!(
            previous.is_none_or(|p| Arc::ptr_eq(&p.value, &counter.value)),
            "series {family}{labels:?} already holds another counter"
        );
    }

    /// The histogram for `family` with no labels; `bounds` applies only on
    /// first registration.
    pub fn histogram(&self, family: &str, bounds: &[u64]) -> Histogram {
        let mut reg = self.registry.lock().unwrap();
        reg.histograms
            .entry(family.to_string())
            .or_default()
            .entry(Vec::new())
            .or_insert_with(|| Histogram::new(bounds))
            .clone()
    }

    /// Current value of an unlabeled counter (0 when never registered).
    pub fn counter_value(&self, family: &str) -> u64 {
        let reg = self.registry.lock().unwrap();
        reg.counters
            .get(family)
            .and_then(|series| series.get(&Vec::new()))
            .map(Counter::get)
            .unwrap_or(0)
    }

    /// Render every registered family as Prometheus text exposition.
    pub fn render_prometheus(&self) -> String {
        let mut out = PromText::new();
        self.render_into(&mut out);
        out.finish()
    }

    /// Render into an existing builder (lets callers append scrape-time
    /// families afterwards).
    pub fn render_into(&self, out: &mut PromText) {
        let reg = self.registry.lock().unwrap();
        for (family, series) in &reg.counters {
            out.type_line(family, "counter");
            for (labels, counter) in series {
                out.sample(family, labels, counter.get());
            }
        }
        for (family, series) in &reg.histograms {
            out.type_line(family, "histogram");
            for (labels, histogram) in series {
                let snap = histogram.snapshot();
                let mut cumulative = 0u64;
                for (i, n) in snap.counts.iter().enumerate() {
                    cumulative += n;
                    let le = match snap.bounds.get(i) {
                        Some(b) => b.to_string(),
                        None => "+Inf".to_string(),
                    };
                    let mut with_le = labels.clone();
                    with_le.push(("le".to_string(), le));
                    out.sample(&format!("{family}_bucket"), &with_le, cumulative);
                }
                out.sample(&format!("{family}_sum"), labels, snap.sum);
                out.sample(&format!("{family}_count"), labels, snap.count);
            }
        }
    }

    /// Deterministic `family{labels} value` lines for every *counter* in the
    /// registry (histograms carry wall-clock content and are excluded).
    /// Two runs of the same deterministic workload must produce identical
    /// output — the `--jobs` determinism test diffs exactly this.
    pub fn counter_lines(&self) -> String {
        let mut out = PromText::new();
        let reg = self.registry.lock().unwrap();
        for (family, series) in &reg.counters {
            for (labels, counter) in series {
                out.sample(family, labels, counter.get());
            }
        }
        out.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prom;

    #[test]
    fn counters_register_once_and_accumulate() {
        let m = Metrics::new();
        let a = m.counter("mao_things_total");
        let b = m.counter("mao_things_total");
        a.inc();
        b.add(2);
        assert_eq!(m.counter_value("mao_things_total"), 3);
        assert_eq!(a.get(), 3, "handles share one cell");
    }

    #[test]
    fn adopted_cells_render_counts_made_before_adoption() {
        let m = Metrics::new();
        let own = Counter::default();
        own.add(4);
        m.adopt("mao_owned_total", &[("shard", "0")], &own);
        m.adopt("mao_owned_total", &[("shard", "0")], &own);
        own.inc();
        assert_eq!(
            m.counter_with("mao_owned_total", &[("shard", "0")]).get(),
            5
        );
        assert!(m.counter_lines().contains("mao_owned_total{shard=\"0\"} 5"));
    }

    #[test]
    fn labeled_counters_are_distinct_series() {
        let m = Metrics::new();
        m.counter_with("mao_pass_total", &[("pass", "REDTEST")])
            .inc();
        m.counter_with("mao_pass_total", &[("pass", "DCE")]).add(2);
        let text = m.render_prometheus();
        assert!(text.contains("mao_pass_total{pass=\"DCE\"} 2"), "{text}");
        assert!(
            text.contains("mao_pass_total{pass=\"REDTEST\"} 1"),
            "{text}"
        );
        // One TYPE line per family, not per series.
        assert_eq!(text.matches("# TYPE mao_pass_total counter").count(), 1);
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_render() {
        let m = Metrics::new();
        let h = m.histogram("mao_wait_us", &[10, 100]);
        h.observe(5);
        h.observe(50);
        h.observe(500);
        let snap = h.snapshot();
        assert_eq!(snap.counts, vec![1, 1, 1]);
        assert_eq!(snap.sum, 555);
        assert_eq!(snap.count, 3);
        let text = m.render_prometheus();
        assert!(text.contains("mao_wait_us_bucket{le=\"10\"} 1"), "{text}");
        assert!(text.contains("mao_wait_us_bucket{le=\"100\"} 2"), "{text}");
        assert!(text.contains("mao_wait_us_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("mao_wait_us_sum 555"), "{text}");
        assert!(text.contains("mao_wait_us_count 3"), "{text}");
    }

    #[test]
    fn render_is_valid_prometheus_text() {
        let m = Metrics::new();
        m.counter("mao_requests_total").inc();
        m.counter_with("mao_pass_us_total", &[("pass", "A\"B\\C")])
            .add(7);
        m.histogram("mao_service_us", US_BUCKETS).observe(1234);
        prom::validate(&m.render_prometheus()).expect("valid exposition");
    }

    #[test]
    fn counter_lines_exclude_histograms() {
        let m = Metrics::new();
        m.counter("mao_a_total").inc();
        m.histogram("mao_h_us", &[1]).observe(9);
        let lines = m.counter_lines();
        assert!(lines.contains("mao_a_total 1"));
        assert!(!lines.contains("mao_h_us"), "{lines}");
    }
}
