//! Importing external DTN contact traces.
//!
//! The paper's future work proposes evaluating SNIP-RH "through trace-based
//! simulations". Public DTN contact traces (CRAWDAD-style) are commonly
//! distributed as whitespace-separated event lines:
//!
//! ```text
//! # start_time  end_time  node_a  node_b
//! 3600.5  3602.5  0  17
//! 3912.0  3915.1  0  23
//! ```
//!
//! [`ExternalTrace`] parses that format, and [`ExternalTrace::contacts_at`]
//! extracts the contact process *one static node observes* — the sensor's
//! view that the rest of this workspace consumes. Overlapping sightings at
//! the same node (several mobiles in range) are merged, matching the §II
//! reference model in which the sensor talks to one mobile at a time.

use std::error::Error;
use std::fmt;
use std::str::FromStr;

use snip_units::{SimDuration, SimTime};

use crate::trace::{Contact, ContactTrace};

/// One sighting between two nodes in an external trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sighting {
    /// Start of the sighting, seconds from the trace origin.
    pub start: f64,
    /// End of the sighting, seconds from the trace origin.
    pub end: f64,
    /// First node id.
    pub node_a: u32,
    /// Second node id.
    pub node_b: u32,
}

/// A parsed external contact trace (all node pairs).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExternalTrace {
    sightings: Vec<Sighting>,
}

/// Error parsing an external trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ExternalTraceError {
    line: usize,
    reason: &'static str,
}

impl ExternalTraceError {
    /// The 1-based line number that failed.
    #[must_use]
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ExternalTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid trace line {}: {}", self.line, self.reason)
    }
}

impl Error for ExternalTraceError {}

impl FromStr for ExternalTrace {
    type Err = ExternalTraceError;

    /// Parses the whitespace-separated `start end a b` format. Blank lines
    /// and `#` comments are ignored; sightings need not be sorted.
    fn from_str(s: &str) -> Result<Self, ExternalTraceError> {
        let mut sightings = Vec::new();
        for (lineno, raw) in s.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |reason| ExternalTraceError {
                line: lineno + 1,
                reason,
            };
            let mut parts = line.split_whitespace();
            let start: f64 = parts
                .next()
                .ok_or(err("missing start time"))?
                .parse()
                .map_err(|_| err("bad start time"))?;
            let end: f64 = parts
                .next()
                .ok_or(err("missing end time"))?
                .parse()
                .map_err(|_| err("bad end time"))?;
            let node_a: u32 = parts
                .next()
                .ok_or(err("missing node a"))?
                .parse()
                .map_err(|_| err("bad node a"))?;
            let node_b: u32 = parts
                .next()
                .ok_or(err("missing node b"))?
                .parse()
                .map_err(|_| err("bad node b"))?;
            if parts.next().is_some() {
                return Err(err("trailing fields"));
            }
            if !(start.is_finite() && end.is_finite()) || start < 0.0 || end <= start {
                return Err(err("times must satisfy 0 ≤ start < end"));
            }
            sightings.push(Sighting {
                start,
                end,
                node_a,
                node_b,
            });
        }
        Ok(ExternalTrace { sightings })
    }
}

impl ExternalTrace {
    /// Builds a trace from in-memory sightings (the synthetic generator's
    /// path; files go through [`FromStr`]).
    ///
    /// # Panics
    ///
    /// Panics if any sighting has non-finite times or `end <= start` — the
    /// invariants the text parser enforces line-by-line.
    #[must_use]
    pub fn from_sightings(sightings: Vec<Sighting>) -> Self {
        for (i, s) in sightings.iter().enumerate() {
            assert!(
                s.start.is_finite() && s.end.is_finite() && s.start >= 0.0 && s.end > s.start,
                "sighting {i} must satisfy 0 ≤ start < end (start {}, end {})",
                s.start,
                s.end
            );
        }
        ExternalTrace { sightings }
    }

    /// All sightings, in file order.
    #[must_use]
    pub fn sightings(&self) -> &[Sighting] {
        &self.sightings
    }

    /// Number of sightings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sightings.len()
    }

    /// `true` if the trace holds no sightings.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sightings.is_empty()
    }

    /// The distinct node ids appearing in the trace, sorted.
    #[must_use]
    pub fn node_ids(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self
            .sightings
            .iter()
            .flat_map(|s| [s.node_a, s.node_b])
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Extracts the contact process observed by one node: every sighting
    /// involving `node`, with overlapping sightings merged into single
    /// contacts (the sensor serves one mobile at a time, §II).
    #[must_use]
    pub fn contacts_at(&self, node: u32) -> ContactTrace {
        let mut intervals: Vec<(f64, f64)> = self
            .sightings
            .iter()
            .filter(|s| s.node_a == node || s.node_b == node)
            .map(|s| (s.start, s.end))
            .collect();
        intervals.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));

        let mut merged: Vec<(f64, f64)> = Vec::with_capacity(intervals.len());
        for (start, end) in intervals {
            match merged.last_mut() {
                Some(last) if start <= last.1 => last.1 = last.1.max(end),
                _ => merged.push((start, end)),
            }
        }
        merged
            .into_iter()
            .map(|(start, end)| {
                Contact::new(
                    SimTime::from_secs_f64(start),
                    SimDuration::from_secs_f64(end - start).max(SimDuration::from_micros(1)),
                )
            })
            .collect()
    }

    /// Renders the trace back to its text format (one sighting per line).
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(self.sightings.len() * 32);
        out.push_str("# start_time end_time node_a node_b\n");
        for s in &self.sightings {
            out.push_str(&format!(
                "{:.6} {:.6} {} {}\n",
                s.start, s.end, s.node_a, s.node_b
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# a comment
100.0 102.0 0 7

200.5 203.0 7 1
150.0 151.0 0 9
";

    #[test]
    fn parses_sightings_with_comments_and_blanks() {
        let t: ExternalTrace = SAMPLE.parse().unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.sightings()[0].node_b, 7);
        assert_eq!(t.node_ids(), vec![0, 1, 7, 9]);
        assert!(!t.is_empty());
    }

    #[test]
    fn rejects_malformed_lines() {
        let cases = [
            ("1.0 2.0 0", "missing node b"),
            ("abc 2.0 0 1", "bad start time"),
            ("1.0 2.0 0 1 extra", "trailing fields"),
            ("5.0 4.0 0 1", "times must satisfy 0 ≤ start < end"),
            ("-1.0 4.0 0 1", "times must satisfy 0 ≤ start < end"),
            ("3.0 3.0 0 1", "times must satisfy 0 ≤ start < end"),
        ];
        for (text, reason) in cases {
            let err = text.parse::<ExternalTrace>().unwrap_err();
            assert_eq!(err.reason, reason, "input {text:?}");
            assert_eq!(err.line(), 1);
        }
    }

    #[test]
    fn contacts_at_filters_by_node() {
        let t: ExternalTrace = SAMPLE.parse().unwrap();
        let at0 = t.contacts_at(0);
        assert_eq!(at0.len(), 2); // sightings with nodes 7 and 9
        assert_eq!(at0.contacts()[0].start, SimTime::from_secs(100));
        let at7 = t.contacts_at(7);
        assert_eq!(at7.len(), 2);
        let at42 = t.contacts_at(42);
        assert!(at42.is_empty());
    }

    #[test]
    fn overlapping_sightings_merge() {
        let text = "10.0 20.0 0 1\n15.0 25.0 0 2\n25.0 30.0 0 3\n";
        let t: ExternalTrace = text.parse().unwrap();
        let merged = t.contacts_at(0);
        // [10,20] ∪ [15,25] ∪ [25,30] → [10,30] (touching merges too).
        assert_eq!(merged.len(), 1);
        assert_eq!(merged.contacts()[0].start, SimTime::from_secs(10));
        assert_eq!(merged.contacts()[0].length, SimDuration::from_secs(20));
    }

    #[test]
    fn unsorted_input_is_sorted_per_node() {
        let t: ExternalTrace = SAMPLE.parse().unwrap();
        let at0 = t.contacts_at(0);
        assert!(at0.contacts()[0].start < at0.contacts()[1].start);
    }

    #[test]
    fn text_roundtrip() {
        let t: ExternalTrace = SAMPLE.parse().unwrap();
        let back: ExternalTrace = t.to_text().parse().unwrap();
        assert_eq!(back.len(), t.len());
        assert_eq!(back.node_ids(), t.node_ids());
    }

    #[test]
    fn a_generated_trace_rendered_as_sightings_imports_back_exactly() {
        use rand::SeedableRng;
        // The roadside trace written out as one sighting per contact, each
        // with its own mobile, at the microsecond precision of the clock.
        let trace = crate::TraceGenerator::new(crate::EpochProfile::roadside())
            .epochs(2)
            .generate(&mut rand::rngs::StdRng::seed_from_u64(1));
        let text: String = trace
            .iter()
            .enumerate()
            .map(|(i, c)| {
                format!(
                    "{:.6} {:.6} 0 {}\n",
                    c.start.as_secs_f64(),
                    c.end().as_secs_f64(),
                    i + 1
                )
            })
            .collect();
        let parsed: ExternalTrace = text.parse().expect("valid sightings");
        assert_eq!(parsed.len(), trace.len());
        assert_eq!(parsed.contacts_at(0), trace);
    }

    #[test]
    fn empty_input_is_empty_trace() {
        let t: ExternalTrace = "# only comments\n".parse().unwrap();
        assert!(t.is_empty());
        assert!(t.node_ids().is_empty());
    }
}
