//! A process-wide metrics registry: counters, gauges, and fixed-bucket
//! integer-µs histograms, rendered in Prometheus text exposition format.
//!
//! Handles are registered by name — [`counter`], [`gauge`], [`histogram`]
//! — taking one mutex hit on first lookup and returning a `&'static` of
//! lock-free atomics, so recording is a handful of relaxed atomic ops.
//! Names may embed Prometheus labels verbatim, e.g.
//! `snip_frame_tx_bytes_total{transport="tcp"}`; series sharing a base
//! name get one `# TYPE` line.
//!
//! All durations are integer microseconds, matching the workspace's exact
//! integer-µs metrics ledgers. Everything here observes wall-clock time
//! and byte counts only — never simulation state — so enabling metrics
//! cannot perturb deterministic output.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// Histogram bucket upper bounds, in microseconds. The last implicit
/// bucket is `+Inf`. The range spans sub-µs events to a minute, matching
/// the latencies this workspace produces (frame codecs to fleet runs).
pub const BUCKET_BOUNDS_US: [u64; 15] = [
    1, 10, 50, 100, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000, 5_000_000,
    10_000_000, 60_000_000,
];

/// Converts a [`Duration`] to whole microseconds, saturating at `u64::MAX`.
#[must_use]
pub fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    #[must_use]
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (or be set outright).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Creates a gauge at zero.
    #[must_use]
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one, saturating at zero.
    pub fn dec(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram of integer microseconds (see
/// [`BUCKET_BOUNDS_US`]), tracking per-bucket counts plus an exact sum and
/// count.
#[derive(Debug, Default)]
pub struct Histogram {
    /// One slot per bound, plus the trailing `+Inf` bucket.
    buckets: [AtomicU64; BUCKET_BOUNDS_US.len() + 1],
    sum_us: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation of `us` microseconds.
    pub fn observe_us(&self, us: u64) {
        let idx = BUCKET_BOUNDS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(BUCKET_BOUNDS_US.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one observation of an elapsed [`Duration`].
    pub fn observe(&self, d: Duration) {
        self.observe_us(duration_us(d));
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, in microseconds.
    #[must_use]
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Mean observation in microseconds (0 when empty).
    #[must_use]
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_us() as f64 / n as f64
        }
    }

    /// Per-bucket counts, one per [`BUCKET_BOUNDS_US`] entry plus the
    /// trailing `+Inf` bucket — non-cumulative.
    #[must_use]
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// One registered series.
enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

/// Locks the registry. A panic elsewhere while the guard was held cannot
/// tear it — the map only ever gains leaked atomics — so a poisoned lock
/// is recovered rather than taking every later metric call down with it.
fn registry() -> MutexGuard<'static, BTreeMap<String, Metric>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Metric>>> = OnceLock::new();
    REGISTRY
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Looks `name` up, registering `make()` on first use, and returns the
/// handle `pick` finds in the entry. The kind-mismatch panic is raised
/// only after the registry guard is dropped.
fn register<T>(
    name: &str,
    kind: &str,
    make: fn() -> Metric,
    pick: fn(&Metric) -> Option<&'static T>,
) -> &'static T {
    let found = pick(registry().entry(name.to_string()).or_insert_with(make));
    found.unwrap_or_else(|| panic!("metric `{name}` is registered as a non-{kind}"))
}

/// Returns the registered counter `name`, creating it on first use.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric type.
pub fn counter(name: &str) -> &'static Counter {
    register(
        name,
        "counter",
        || Metric::Counter(Box::leak(Box::new(Counter::new()))),
        |m| match m {
            Metric::Counter(c) => Some(*c),
            _ => None,
        },
    )
}

/// Returns the registered gauge `name`, creating it on first use.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric type.
pub fn gauge(name: &str) -> &'static Gauge {
    register(
        name,
        "gauge",
        || Metric::Gauge(Box::leak(Box::new(Gauge::new()))),
        |m| match m {
            Metric::Gauge(g) => Some(*g),
            _ => None,
        },
    )
}

/// Returns the registered histogram `name`, creating it on first use.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric type.
pub fn histogram(name: &str) -> &'static Histogram {
    register(
        name,
        "histogram",
        || Metric::Histogram(Box::leak(Box::new(Histogram::new()))),
        |m| match m {
            Metric::Histogram(h) => Some(*h),
            _ => None,
        },
    )
}

/// Splits `name{label="x"}` into `("name", "label=\"x\"")`; the label part
/// is empty when the name carries none.
fn split_name(name: &str) -> (&str, &str) {
    match name.split_once('{') {
        Some((base, rest)) => (base, rest.strip_suffix('}').unwrap_or(rest)),
        None => (name, ""),
    }
}

/// The exact value of counter `name` (0 when unregistered).
#[must_use]
pub fn counter_value(name: &str) -> u64 {
    let map = registry();
    match map.get(name) {
        Some(Metric::Counter(c)) => c.get(),
        _ => 0,
    }
}

/// The exact value of gauge `name` (0 when unregistered).
#[must_use]
pub fn gauge_value(name: &str) -> u64 {
    let map = registry();
    match map.get(name) {
        Some(Metric::Gauge(g)) => g.get(),
        _ => 0,
    }
}

/// Sums every counter whose base name (labels stripped) equals `base` —
/// e.g. `sum_counters("snip_frame_tx_bytes_total")` totals all transports.
#[must_use]
pub fn sum_counters(base: &str) -> u64 {
    let map = registry();
    map.iter()
        .filter(|(name, _)| split_name(name).0 == base)
        .map(|(_, m)| match m {
            Metric::Counter(c) => c.get(),
            _ => 0,
        })
        .sum()
}

/// Sums `(count, sum_us)` over every histogram whose base name (labels
/// stripped) equals `base`.
#[must_use]
pub fn sum_histograms(base: &str) -> (u64, u64) {
    let map = registry();
    let mut totals = (0u64, 0u64);
    for (name, metric) in map.iter() {
        if split_name(name).0 == base {
            if let Metric::Histogram(h) = metric {
                totals.0 += h.count();
                totals.1 += h.sum_us();
            }
        }
    }
    totals
}

fn type_line(out: &mut String, last_base: &mut String, base: &str, kind: &str) {
    if last_base != base {
        let _ = writeln!(out, "# TYPE {base} {kind}");
        last_base.clear();
        last_base.push_str(base);
    }
}

/// Renders the whole registry in Prometheus text exposition format
/// (`text/plain; version=0.0.4`). Series are sorted by name; histograms
/// emit cumulative `_bucket{le=...}` lines plus `_sum` and `_count`.
#[must_use]
pub fn render_prometheus() -> String {
    let map = registry();
    let mut out = String::new();
    let mut last_base = String::new();
    for (name, metric) in map.iter() {
        let (base, labels) = split_name(name);
        match metric {
            Metric::Counter(c) => {
                type_line(&mut out, &mut last_base, base, "counter");
                let _ = writeln!(out, "{name} {}", c.get());
            }
            Metric::Gauge(g) => {
                type_line(&mut out, &mut last_base, base, "gauge");
                let _ = writeln!(out, "{name} {}", g.get());
            }
            Metric::Histogram(h) => {
                type_line(&mut out, &mut last_base, base, "histogram");
                let prefix = if labels.is_empty() {
                    String::new()
                } else {
                    format!("{labels},")
                };
                let mut cumulative = 0u64;
                for (i, count) in h.bucket_counts().into_iter().enumerate() {
                    cumulative += count;
                    let le = BUCKET_BOUNDS_US
                        .get(i)
                        .map_or_else(|| "+Inf".to_string(), u64::to_string);
                    let _ = writeln!(out, "{base}_bucket{{{prefix}le=\"{le}\"}} {cumulative}");
                }
                let _ = writeln!(out, "{base}_sum{{{labels}}} {}", h.sum_us());
                let _ = writeln!(out, "{base}_count{{{labels}}} {}", h.count());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        g.inc();
        g.dec();
        g.dec();
        assert_eq!(g.get(), 6);
        let empty = Gauge::new();
        empty.dec();
        assert_eq!(empty.get(), 0, "dec saturates at zero");
    }

    #[test]
    fn histogram_buckets_and_totals() {
        let h = Histogram::new();
        h.observe_us(1); // first bucket (≤ 1)
        h.observe_us(7); // ≤ 10
        h.observe_us(10); // ≤ 10 (bounds are inclusive)
        h.observe_us(999_999_999); // +Inf
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum_us(), 1 + 7 + 10 + 999_999_999);
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[1], 2);
        assert_eq!(counts[BUCKET_BOUNDS_US.len()], 1);
        assert!((h.mean_us() - (h.sum_us() as f64 / 4.0)).abs() < 1e-9);
    }

    #[test]
    fn duration_us_is_whole_microseconds() {
        assert_eq!(duration_us(Duration::from_micros(123)), 123);
        assert_eq!(duration_us(Duration::from_nanos(1_999)), 1);
        assert_eq!(duration_us(Duration::ZERO), 0);
    }

    #[test]
    fn registry_hands_out_stable_static_handles() {
        let a = counter("test_registry_counter_total");
        let b = counter("test_registry_counter_total");
        a.inc();
        b.inc();
        assert_eq!(counter_value("test_registry_counter_total"), 2);
        assert!(std::ptr::eq(a, b), "same name must be the same counter");
    }

    #[test]
    #[should_panic(expected = "non-counter")]
    fn type_mismatch_panics() {
        let _ = gauge("test_registry_mismatch");
        let _ = counter("test_registry_mismatch");
    }

    #[test]
    fn registry_still_serves_after_a_kind_collision() {
        let _ = gauge("test_registry_collision");
        let collided = std::panic::catch_unwind(|| counter("test_registry_collision"));
        assert!(collided.is_err(), "a kind collision must still panic");
        counter("test_registry_after_collision_total").add(3);
        assert_eq!(counter_value("test_registry_after_collision_total"), 3);
        assert!(render_prometheus().contains("test_registry_after_collision_total 3"));
    }

    #[test]
    fn labeled_series_sum_by_base_name() {
        counter("test_tx_total{transport=\"pipe\"}").add(3);
        counter("test_tx_total{transport=\"tcp\"}").add(4);
        assert_eq!(sum_counters("test_tx_total"), 7);
        histogram("test_lat_us{transport=\"pipe\"}").observe_us(10);
        histogram("test_lat_us{transport=\"tcp\"}").observe_us(20);
        assert_eq!(sum_histograms("test_lat_us"), (2, 30));
    }

    #[test]
    fn prometheus_rendering_covers_all_types() {
        counter("test_render_events_total").add(2);
        gauge("test_render_workers").set(3);
        histogram("test_render_us{kind=\"a\"}").observe_us(5);
        histogram("test_render_us{kind=\"a\"}").observe_us(2_000_000_000);
        let text = render_prometheus();
        assert!(text.contains("# TYPE test_render_events_total counter"));
        assert!(text.contains("test_render_events_total 2"));
        assert!(text.contains("# TYPE test_render_workers gauge"));
        assert!(text.contains("test_render_workers 3"));
        assert!(text.contains("# TYPE test_render_us histogram"));
        assert!(text.contains("test_render_us_bucket{kind=\"a\",le=\"10\"} 1"));
        assert!(text.contains("test_render_us_bucket{kind=\"a\",le=\"+Inf\"} 2"));
        assert!(text.contains("test_render_us_sum{kind=\"a\"} 2000000005"));
        assert!(text.contains("test_render_us_count{kind=\"a\"} 2"));
        // One TYPE line per base name even with multiple labeled series.
        histogram("test_render_us{kind=\"b\"}").observe_us(1);
        let text = render_prometheus();
        assert_eq!(text.matches("# TYPE test_render_us histogram").count(), 1);
    }
}
