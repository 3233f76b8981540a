//! The metrics registry: counters, gauges, and fixed-bucket histograms
//! keyed by `(name, labels)` within a clock domain, with a deterministic
//! Prometheus-style text exposition.
//!
//! Determinism is the whole point: series are stored in a `BTreeMap` keyed
//! by `(name, clock, sorted labels)`, values carry no timestamps, and the
//! encoder walks that order — so two registries fed the same updates
//! expose byte-identical text regardless of insertion order or thread
//! interleavings upstream.

use crate::Clock;
use std::collections::BTreeMap;

/// Default histogram bucket upper bounds (seconds), log-spaced from 1 µs
/// to 10 ks. Fixed — identical bounds for every histogram — so merged and
/// compared expositions always line up bucket for bucket.
pub const DEFAULT_BUCKETS: [f64; 11] = [
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1e3, 1e4,
];

/// Series identity: name, clock domain, and sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct SeriesKey {
    name: String,
    clock: Clock,
    labels: Vec<(String, String)>,
}

impl SeriesKey {
    fn new(clock: Clock, name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        SeriesKey {
            name: name.to_string(),
            clock,
            labels,
        }
    }
}

#[derive(Debug, Clone)]
enum Series {
    Counter(u64),
    Gauge(f64),
    Histogram(Hist),
}

impl Series {
    fn kind(&self) -> &'static str {
        match self {
            Series::Counter(_) => "counter",
            Series::Gauge(_) => "gauge",
            Series::Histogram(_) => "histogram",
        }
    }
}

/// Fixed-bucket histogram.
#[derive(Debug, Clone)]
struct Hist {
    /// Cumulative-style per-bucket counts; `counts[i]` counts samples
    /// `<= DEFAULT_BUCKETS[i]` exclusively of earlier buckets, and the
    /// final slot is the `+Inf` overflow.
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Hist {
    fn new() -> Self {
        Hist {
            counts: vec![0; DEFAULT_BUCKETS.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    fn observe(&mut self, v: f64) {
        let idx = DEFAULT_BUCKETS
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(DEFAULT_BUCKETS.len());
        self.counts[idx] += 1;
        self.sum += v;
        self.count += 1;
    }
}

/// The registry. Single-threaded by itself; [`crate::Obs`] wraps it in a
/// mutex for sharing.
#[derive(Debug, Default)]
pub struct Registry {
    series: BTreeMap<SeriesKey, Series>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `v` to a counter, creating it at zero. Panics if the series
    /// exists with a different kind (a programming error, not input).
    pub fn counter_add(&mut self, clock: Clock, name: &str, labels: &[(&str, &str)], v: u64) {
        let key = SeriesKey::new(clock, name, labels);
        match self.series.entry(key).or_insert_with(|| Series::Counter(0)) {
            Series::Counter(c) => *c += v,
            other => panic!("series {name} already registered as a {}", other.kind()),
        }
    }

    /// Sets a gauge to `v`.
    pub fn gauge_set(&mut self, clock: Clock, name: &str, labels: &[(&str, &str)], v: f64) {
        let key = SeriesKey::new(clock, name, labels);
        match self.series.entry(key).or_insert_with(|| Series::Gauge(0.0)) {
            Series::Gauge(g) => *g = v,
            other => panic!("series {name} already registered as a {}", other.kind()),
        }
    }

    /// Records `v` into a histogram.
    pub fn observe(&mut self, clock: Clock, name: &str, labels: &[(&str, &str)], v: f64) {
        let key = SeriesKey::new(clock, name, labels);
        match self
            .series
            .entry(key)
            .or_insert_with(|| Series::Histogram(Hist::new()))
        {
            Series::Histogram(h) => h.observe(v),
            other => panic!("series {name} already registered as a {}", other.kind()),
        }
    }

    /// Current counter value (0 if absent).
    pub fn counter(&self, clock: Clock, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.series.get(&SeriesKey::new(clock, name, labels)) {
            Some(Series::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Current gauge value, if set.
    pub fn gauge(&self, clock: Clock, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.series.get(&SeriesKey::new(clock, name, labels)) {
            Some(Series::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// Prometheus-style text exposition of every series in `filter`'s
    /// clock domain (both when `None`). Series print in `(name, clock,
    /// labels)` order with one `# TYPE` header per name; label values are
    /// escaped; the clock domain appears as a `clock="sim"|"wall"` label.
    pub fn expose(&self, filter: Option<Clock>) -> String {
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for (key, series) in &self.series {
            if filter.is_some_and(|f| f != key.clock) {
                continue;
            }
            if last_name != Some(key.name.as_str()) {
                out.push_str(&format!("# TYPE {} {}\n", key.name, series.kind()));
                last_name = Some(key.name.as_str());
            }
            let base = full_labels(key, &[]);
            match series {
                Series::Counter(c) => {
                    out.push_str(&format!("{}{} {}\n", key.name, base, c));
                }
                Series::Gauge(g) => {
                    out.push_str(&format!("{}{} {}\n", key.name, base, fmt_f64(*g)));
                }
                Series::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (i, bound) in DEFAULT_BUCKETS.iter().enumerate() {
                        cumulative += h.counts[i];
                        let labels = full_labels(key, &[("le", &fmt_f64(*bound))]);
                        out.push_str(&format!("{}_bucket{} {}\n", key.name, labels, cumulative));
                    }
                    cumulative += h.counts[DEFAULT_BUCKETS.len()];
                    let labels = full_labels(key, &[("le", "+Inf")]);
                    out.push_str(&format!("{}_bucket{} {}\n", key.name, labels, cumulative));
                    out.push_str(&format!("{}_sum{} {}\n", key.name, base, fmt_f64(h.sum)));
                    out.push_str(&format!("{}_count{} {}\n", key.name, base, h.count));
                }
            }
        }
        out
    }
}

/// Formats a float the way the exposition does: Rust's shortest
/// round-trip `Display`, which prints integral values without a fraction
/// (`3`, not `3.0`) — deterministic and Prometheus-parseable.
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

/// Escapes a label value per the Prometheus text format.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders the full `{k="v",...}` label set: the series labels plus the
/// `clock` domain label plus any extras (`le`), merged and sorted by key.
fn full_labels(key: &SeriesKey, extra: &[(&str, &str)]) -> String {
    let mut pairs: Vec<(String, String)> = key.labels.clone();
    pairs.push(("clock".to_string(), key.clock.label().to_string()));
    for (k, v) in extra {
        pairs.push((k.to_string(), v.to_string()));
    }
    pairs.sort();
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", k, escape_label(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let mut r = Registry::new();
        r.counter_add(Clock::Sim, "c", &[("kind", "a")], 1);
        r.counter_add(Clock::Sim, "c", &[("kind", "a")], 2);
        r.counter_add(Clock::Sim, "c", &[("kind", "b")], 5);
        assert_eq!(r.counter(Clock::Sim, "c", &[("kind", "a")]), 3);
        assert_eq!(r.counter(Clock::Sim, "c", &[("kind", "b")]), 5);
        assert_eq!(r.counter(Clock::Wall, "c", &[("kind", "a")]), 0);
    }

    #[test]
    fn label_order_is_immaterial() {
        let mut r = Registry::new();
        r.counter_add(Clock::Sim, "c", &[("a", "1"), ("b", "2")], 1);
        r.counter_add(Clock::Sim, "c", &[("b", "2"), ("a", "1")], 1);
        assert_eq!(r.counter(Clock::Sim, "c", &[("b", "2"), ("a", "1")]), 2);
    }

    #[test]
    fn histogram_buckets_count_every_observation() {
        let mut r = Registry::new();
        for v in [0.5e-6, 2e-6, 3e-3, 0.2, 5.0, 2e4] {
            r.observe(Clock::Wall, "h", &[], v);
        }
        let text = r.expose(Some(Clock::Wall));
        // 0.5e-6 <= 1e-6; 2e-6 <= 1e-5; overflow bucket catches 2e4.
        assert!(text.contains("h_bucket{clock=\"wall\",le=\"0.000001\"} 1\n"));
        assert!(text.contains("h_bucket{clock=\"wall\",le=\"0.00001\"} 2\n"));
        assert!(text.contains("h_bucket{clock=\"wall\",le=\"+Inf\"} 6\n"));
        assert!(text.contains("h_count{clock=\"wall\"} 6\n"));
    }

    #[test]
    fn exposition_is_ordered_and_escaped() {
        let mut r = Registry::new();
        r.gauge_set(Clock::Sim, "zz", &[], 1.5);
        r.counter_add(Clock::Sim, "aa", &[("q", "say \"hi\"\\\n")], 1);
        let text = r.expose(None);
        let aa = text.find("# TYPE aa counter").expect("aa header");
        let zz = text.find("# TYPE zz gauge").expect("zz header");
        assert!(aa < zz, "series must print in name order");
        assert!(text.contains("aa{clock=\"sim\",q=\"say \\\"hi\\\"\\\\\\n\"} 1\n"));
        assert!(text.contains("zz{clock=\"sim\"} 1.5\n"));
    }

    #[test]
    fn sim_and_wall_expositions_are_disjoint() {
        let mut r = Registry::new();
        r.counter_add(Clock::Sim, "s", &[], 1);
        r.counter_add(Clock::Wall, "w", &[], 1);
        assert!(!r.expose(Some(Clock::Sim)).contains("w{"));
        assert!(!r.expose(Some(Clock::Wall)).contains("s{"));
        let both = r.expose(None);
        assert!(both.contains("s{") && both.contains("w{"));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let mut r = Registry::new();
        r.counter_add(Clock::Sim, "x", &[], 1);
        r.gauge_set(Clock::Sim, "x", &[], 1.0);
    }
}
