//! The benchmark's own spans: recorded around each call into a layer, kept
//! in memory, summed by name into a self-time table at the end.
//!
//! Spans nest on one thread. A span's self time is its duration minus the
//! durations of its direct children, so the self times of every span in a
//! run add up to the time the outermost spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Static layer name, e.g. `sim.step`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder for one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name`; spans `f` opens become its
    /// children.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Self time per span name, seconds, by name.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut self_ns: Vec<i128> = self.spans.iter().map(|s| s.duration_ns().into()).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                self_ns[parent] -= i128::from(span.duration_ns());
            }
        }
        let mut table = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self_ns) {
            *table.entry(span.name).or_insert(0.0) += ns as f64 * 1e-9;
        }
        table
    }

    /// Number of spans called `name`.
    #[must_use]
    pub fn count(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// The spans as a chrome://tracing JSON array of complete events.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3}}}",
                    s.name,
                    s.start_ns as f64 / 1e3,
                    s.duration_ns() as f64 / 1e3
                )
            })
            .collect();
        format!("[{}]\n", events.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < u128::from(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_subtract_children_and_sum_to_the_outer_span() {
        let mut tracer = Tracer::new();
        tracer.time("job", |t| {
            spin(2);
            t.time("inner", |_| spin(3));
            t.time("inner", |_| spin(3));
        });
        let table = tracer.self_times();
        assert_eq!(tracer.count("inner"), 2);
        assert!(table["inner"] >= 0.006, "{table:?}");
        assert!(
            table["job"] >= 0.002 && table["job"] < table["inner"],
            "{table:?}"
        );
        let outer = tracer.spans[0].duration_ns() as f64 * 1e-9;
        let sum: f64 = table.values().sum();
        assert!((sum - outer).abs() < 1e-9, "{sum} vs {outer}");
        assert_eq!(tracer.spans[1].parent, Some(0));
    }

    #[test]
    fn chrome_json_lists_every_span() {
        let mut tracer = Tracer::new();
        tracer.time("a", |t| t.time("b", |_| ()));
        let json = tracer.to_chrome_json();
        let value = serde::json::from_str(&json).expect("valid JSON");
        assert_eq!(value.as_seq().map(<[_]>::len), Some(2));
    }
}
