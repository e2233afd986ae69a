//! Concrete contact traces: generation, replay, statistics, serialization.
//!
//! A [`ContactTrace`] is the ground truth a simulation runs against: the
//! ordered, non-overlapping list of intervals during which a mobile node is
//! within radio range of the sensor. The reference model (§II) allows at most
//! one mobile node in range at a time, so overlapping arrivals are pushed
//! back during generation.

use std::fmt;
use std::str::FromStr;

use rand::Rng;
use serde::{Deserialize, Serialize};
use snip_model::LengthDistribution;
use snip_units::{SimDuration, SimTime};

use crate::arrival::ArrivalProcess;
use crate::profile::EpochProfile;
use crate::sampler::{NormalStream, Sampler};

/// One contact: a mobile node within range of the sensor node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Contact {
    /// When the mobile node enters range.
    pub start: SimTime,
    /// How long it stays in range (`Tcontact`).
    pub length: SimDuration,
}

impl Contact {
    /// Creates a contact.
    ///
    /// # Panics
    ///
    /// Panics if `length` is zero.
    #[must_use]
    pub fn new(start: SimTime, length: SimDuration) -> Self {
        assert!(!length.is_zero(), "contact length must be positive");
        Contact { start, length }
    }

    /// When the mobile node leaves range.
    #[must_use]
    pub fn end(&self) -> SimTime {
        self.start + self.length
    }

    /// `true` if the contact covers instant `t` (half-open `[start, end)`).
    #[must_use]
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end()
    }

    /// `true` if two contacts overlap in time.
    #[must_use]
    pub fn overlaps(&self, other: &Contact) -> bool {
        self.start < other.end() && other.start < self.end()
    }
}

impl fmt::Display for Contact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "contact@{:.3}s+{:.3}s",
            self.start.as_secs_f64(),
            self.length.as_secs_f64()
        )
    }
}

/// An ordered, non-overlapping sequence of contacts.
///
/// # Examples
///
/// ```
/// use snip_mobility::{Contact, ContactTrace};
/// use snip_units::{SimDuration, SimTime};
///
/// let mut trace = ContactTrace::new();
/// trace.push(Contact::new(SimTime::from_secs(10), SimDuration::from_secs(2)));
/// trace.push(Contact::new(SimTime::from_secs(40), SimDuration::from_secs(3)));
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.total_capacity(), SimDuration::from_secs(5));
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ContactTrace {
    contacts: Vec<Contact>,
}

impl ContactTrace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        ContactTrace::default()
    }

    /// Appends a contact.
    ///
    /// # Panics
    ///
    /// Panics if the contact starts before the previous one ends (traces are
    /// ordered and non-overlapping by construction).
    pub fn push(&mut self, contact: Contact) {
        if let Some(last) = self.contacts.last() {
            assert!(
                contact.start >= last.end(),
                "contacts must be ordered and non-overlapping: {contact} begins before {last} ends"
            );
        }
        self.contacts.push(contact);
    }

    /// The contacts in order.
    #[must_use]
    pub fn contacts(&self) -> &[Contact] {
        &self.contacts
    }

    /// Iterates over the contacts.
    pub fn iter(&self) -> std::slice::Iter<'_, Contact> {
        self.contacts.iter()
    }

    /// Number of contacts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.contacts.len()
    }

    /// `true` if the trace has no contacts.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.contacts.is_empty()
    }

    /// Total contact capacity `Σ Tcontact`.
    #[must_use]
    pub fn total_capacity(&self) -> SimDuration {
        self.contacts.iter().map(|c| c.length).sum()
    }

    /// The end of the last contact, or the origin for an empty trace.
    #[must_use]
    pub fn horizon(&self) -> SimTime {
        self.contacts.last().map_or(SimTime::ZERO, Contact::end)
    }

    /// The contact covering instant `t`, if any (binary search).
    #[must_use]
    pub fn contact_at(&self, t: SimTime) -> Option<&Contact> {
        let idx = self.contacts.partition_point(|c| c.end() <= t);
        self.contacts.get(idx).filter(|c| c.contains(t))
    }

    /// The first contact starting at or after `t`, if any.
    #[must_use]
    pub fn next_contact_at_or_after(&self, t: SimTime) -> Option<&Contact> {
        let idx = self.contacts.partition_point(|c| c.start < t);
        self.contacts.get(idx)
    }

    /// The contacts whose start lies in `[from, to)`.
    #[must_use]
    pub fn starting_in(&self, from: SimTime, to: SimTime) -> &[Contact] {
        let lo = self.contacts.partition_point(|c| c.start < from);
        let hi = self.contacts.partition_point(|c| c.start < to);
        &self.contacts[lo..hi]
    }

    /// Per-slot statistics over an epoch structure.
    ///
    /// # Panics
    ///
    /// Panics if `slot_count` is zero or `epoch` is zero.
    #[must_use]
    pub fn stats(&self, epoch: SimDuration, slot_count: usize) -> TraceStats {
        TraceStats::from_trace(self, epoch, slot_count)
    }

    /// Serializes to the plain-text interchange format: one
    /// `start_µs,length_µs` line per contact.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(self.contacts.len() * 24);
        for c in &self.contacts {
            out.push_str(&format!(
                "{},{}\n",
                c.start.as_micros(),
                c.length.as_micros()
            ));
        }
        out
    }
}

impl FromStr for ContactTrace {
    type Err = TraceParseError;

    /// Parses the `to_csv` format. Blank lines and `#` comments are ignored.
    fn from_str(s: &str) -> Result<Self, TraceParseError> {
        let mut trace = ContactTrace::new();
        for (lineno, line) in s.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split(',');
            let (start, length) = (|| {
                let start: u64 = parts.next()?.trim().parse().ok()?;
                let length: u64 = parts.next()?.trim().parse().ok()?;
                if parts.next().is_some() || length == 0 {
                    return None;
                }
                Some((start, length))
            })()
            .ok_or(TraceParseError { line: lineno + 1 })?;
            let contact = Contact::new(
                SimTime::from_micros(start),
                SimDuration::from_micros(length),
            );
            if let Some(last) = trace.contacts.last() {
                if contact.start < last.end() {
                    return Err(TraceParseError { line: lineno + 1 });
                }
            }
            trace.push(contact);
        }
        Ok(trace)
    }
}

impl<'a> IntoIterator for &'a ContactTrace {
    type Item = &'a Contact;
    type IntoIter = std::slice::Iter<'a, Contact>;

    fn into_iter(self) -> Self::IntoIter {
        self.contacts.iter()
    }
}

impl FromIterator<Contact> for ContactTrace {
    /// Collects contacts into a trace.
    ///
    /// # Panics
    ///
    /// Panics if the contacts are not ordered and non-overlapping.
    fn from_iter<I: IntoIterator<Item = Contact>>(iter: I) -> Self {
        let mut trace = ContactTrace::new();
        for c in iter {
            trace.push(c);
        }
        trace
    }
}

/// Error parsing a trace from its text format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceParseError {
    line: usize,
}

impl TraceParseError {
    /// The 1-based line number that failed to parse.
    #[must_use]
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid trace line {}", self.line)
    }
}

impl std::error::Error for TraceParseError {}

/// Generates traces by walking an [`EpochProfile`] through simulated time.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: EpochProfile,
    epochs: u64,
}

impl TraceGenerator {
    /// Creates a generator over one epoch of the profile.
    #[must_use]
    pub fn new(profile: EpochProfile) -> Self {
        TraceGenerator { profile, epochs: 1 }
    }

    /// Sets the number of epochs to generate (the paper simulates 14).
    ///
    /// # Panics
    ///
    /// Panics if `epochs` is zero.
    #[must_use]
    pub fn epochs(mut self, epochs: u64) -> Self {
        assert!(epochs > 0, "must generate at least one epoch");
        self.epochs = epochs;
        self
    }

    /// Generates the trace.
    ///
    /// Arrivals advance by the slot-local inter-contact interval; a slot with
    /// no contact process is skipped to its end. Contacts that would overlap
    /// the previous one are pushed back to its end (the §II single-mobile
    /// assumption).
    ///
    /// When every sampler of the profile is Fixed, Normal or LogNormal, the
    /// normals are drawn ahead in blocks (see [`crate::sampler`]); the
    /// trace is bit-identical either way. The RNG ends in the same state
    /// either way too, which the block draw reaches by restoring a clone:
    /// hence `R: Clone`.
    #[must_use]
    pub fn generate<R: Rng + Clone>(&self, rng: &mut R) -> ContactTrace {
        let samplers = self.samplers();
        if all_stream(&samplers) {
            let mut stream = NormalStream::new(rng);
            let trace = self.walk(&samplers, |s| stream.sample(s));
            stream.finish();
            trace
        } else {
            self.walk(&samplers, |s| s.sample(rng))
        }
    }

    /// Each slot's arrival and contact-length samplers, with their
    /// constants worked out once.
    fn samplers(&self) -> Vec<(Option<Sampler>, Sampler)> {
        self.profile
            .slots()
            .iter()
            .map(|s| {
                let arrivals = s.arrivals.map(|a| match a {
                    ArrivalProcess::Periodic { interval } => Sampler::Fixed(interval),
                    ArrivalProcess::Renewal { interval } => Sampler::new(&interval),
                    ArrivalProcess::Poisson { mean_interval } => {
                        Sampler::new(&LengthDistribution::exponential(mean_interval))
                    }
                });
                (arrivals, Sampler::new(&s.contact_length))
            })
            .collect()
    }

    /// The contact loop, taking each draw from `draw`.
    fn walk(
        &self,
        samplers: &[(Option<Sampler>, Sampler)],
        mut draw: impl FnMut(&Sampler) -> SimDuration,
    ) -> ContactTrace {
        let mut trace = ContactTrace::new();
        let horizon = SimTime::ZERO + self.profile.epoch() * self.epochs;
        let floor = SimDuration::from_micros(1);
        let mut slot = SlotWalk::new(&self.profile);
        let mut cursor = SimTime::ZERO;
        while cursor < horizon {
            // `cursor` only moves forward, so the slot holding it is found
            // by stepping, not by division.
            slot.seek(cursor);
            let Some(arrivals) = &samplers[slot.index].0 else {
                // Skip to the end of a slot without arrivals.
                cursor = slot.end;
                continue;
            };
            let mut start = cursor + draw(arrivals).max(floor);
            if start >= horizon {
                break;
            }
            // Enforce the single-mobile-node reference model.
            if let Some(last) = trace.contacts().last() {
                if start < last.end() {
                    start = last.end();
                }
            }
            if start >= horizon {
                break;
            }
            slot.seek(start);
            let length = draw(&samplers[slot.index].1).max(floor);
            trace.push(Contact::new(start, length));
            cursor = start;
        }
        trace
    }
}

/// `true` if a `NormalStream` can draw for every sampler.
fn all_stream(samplers: &[(Option<Sampler>, Sampler)]) -> bool {
    samplers
        .iter()
        .all(|(arrivals, length)| arrivals.is_none_or(|a| a.streams()) && length.streams())
}

/// The slot of an epoch profile that holds a forward-moving instant,
/// tracked across epochs.
struct SlotWalk {
    slot_length: SimDuration,
    slots: usize,
    epoch: SimDuration,
    /// Index of the current slot within its epoch.
    index: usize,
    /// Absolute end of the current slot.
    end: SimTime,
}

impl SlotWalk {
    fn new(profile: &EpochProfile) -> SlotWalk {
        SlotWalk {
            slot_length: profile.slot_length(),
            slots: profile.slot_count(),
            epoch: profile.epoch(),
            index: 0,
            end: SimTime::ZERO + profile.slot_length(),
        }
    }

    /// Moves to the slot holding `t`, which must not precede the current
    /// slot.
    fn seek(&mut self, t: SimTime) {
        if t < self.end {
            return;
        }
        if t < self.end + self.slot_length {
            self.index = if self.index + 1 == self.slots {
                0
            } else {
                self.index + 1
            };
            self.end += self.slot_length;
            return;
        }
        let into_slot = t.time_in_epoch(self.epoch) % self.slot_length;
        self.index = (t.time_in_epoch(self.epoch) / self.slot_length) as usize;
        self.end = t + (self.slot_length - into_slot);
    }
}

/// Per-slot statistics of a trace, aggregated over epochs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    epoch: SimDuration,
    slot_count: usize,
    counts: Vec<u64>,
    capacity: Vec<SimDuration>,
    epochs_observed: u64,
}

impl TraceStats {
    /// Computes stats by folding every contact into its slot-of-epoch.
    ///
    /// # Panics
    ///
    /// Panics if `slot_count` or `epoch` is zero.
    #[must_use]
    pub fn from_trace(trace: &ContactTrace, epoch: SimDuration, slot_count: usize) -> Self {
        assert!(slot_count > 0, "need at least one slot");
        assert!(!epoch.is_zero(), "epoch must be positive");
        let slot_len = epoch / slot_count as u64;
        let mut counts = vec![0u64; slot_count];
        let mut capacity = vec![SimDuration::ZERO; slot_count];
        for c in trace.iter() {
            let idx = ((c.start.time_in_epoch(epoch) / slot_len) as usize).min(slot_count - 1);
            counts[idx] += 1;
            capacity[idx] += c.length;
        }
        let epochs_observed = if trace.is_empty() {
            1
        } else {
            trace.horizon().epoch_index(epoch) + 1
        };
        TraceStats {
            epoch,
            slot_count,
            counts,
            capacity,
            epochs_observed,
        }
    }

    /// Contacts observed per slot (aggregate over all epochs).
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Contact capacity per slot (aggregate over all epochs).
    #[must_use]
    pub fn capacity(&self) -> &[SimDuration] {
        &self.capacity
    }

    /// Number of (possibly partial) epochs the trace spans.
    #[must_use]
    pub fn epochs_observed(&self) -> u64 {
        self.epochs_observed
    }

    /// Mean contact capacity per slot per epoch, in seconds.
    #[must_use]
    pub fn capacity_per_epoch(&self) -> Vec<f64> {
        self.capacity
            .iter()
            .map(|c| c.as_secs_f64() / self.epochs_observed as f64)
            .collect()
    }

    /// Slot indices ordered by descending observed capacity — what adaptive
    /// SNIP-RH learns.
    #[must_use]
    pub fn slots_by_capacity(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.slot_count).collect();
        idx.sort_by(|&a, &b| self.capacity[b].cmp(&self.capacity[a]).then(a.cmp(&b)));
        idx
    }

    /// Marks the `k` highest-capacity slots as rush hours.
    ///
    /// # Panics
    ///
    /// Panics if `k > slot_count`.
    #[must_use]
    pub fn top_k_marks(&self, k: usize) -> Vec<bool> {
        assert!(k <= self.slot_count, "cannot mark more slots than exist");
        let mut marks = vec![false; self.slot_count];
        for &i in self.slots_by_capacity().iter().take(k) {
            marks[i] = true;
        }
        marks
    }

    /// Mean observed contact length, or `None` for an empty trace.
    #[must_use]
    pub fn mean_contact_length(&self) -> Option<SimDuration> {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return None;
        }
        let capacity: SimDuration = self.capacity.iter().copied().sum();
        Some(capacity / total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{EpochProfile, ProfileSlot, SlotKind};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn dur(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    impl TraceGenerator {
        /// The trace with every draw taken directly, one at a time.
        fn generate_direct<R: Rng>(&self, rng: &mut R) -> ContactTrace {
            self.walk(&self.samplers(), |s| s.sample(rng))
        }
    }

    /// Fails unless `profile` streams, and its streamed trace over
    /// `epochs` and the RNG state after it equal the direct path's.
    fn streams_as_direct(
        profile: EpochProfile,
        epochs: u64,
        seed: u64,
    ) -> Result<(), proptest::TestCaseError> {
        let gen = TraceGenerator::new(profile).epochs(epochs);
        prop_assert!(all_stream(&gen.samplers()), "profile does not stream");
        let (mut streamed_rng, mut direct_rng) =
            (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        let streamed = gen.generate(&mut streamed_rng);
        let direct = gen.generate_direct(&mut direct_rng);
        prop_assert_eq!(streamed.len(), direct.len());
        prop_assert!(
            streamed == direct,
            "traces differ (seed {seed}, {epochs} epochs)"
        );
        prop_assert_eq!(streamed_rng.next_u64(), direct_rng.next_u64());
        Ok(())
    }

    fn between(rng: &mut StdRng, lo: f64, hi: f64) -> SimDuration {
        SimDuration::from_secs_f64(lo + (hi - lo) * rng.gen::<f64>())
    }

    /// A roadside-shaped profile with its own intervals and contact
    /// length, ±20% around 300 s / 1800 s / 2 s.
    fn random_roadside(rng: &mut StdRng) -> EpochProfile {
        EpochProfile::roadside_with(
            between(rng, 240.0, 360.0),
            between(rng, 1440.0, 2160.0),
            LengthDistribution::paper_normal(between(rng, 1.6, 2.4)),
        )
    }

    /// A Normal with mean 1 µs and sd 10 s: half its draws are rejected,
    /// and every rejection goes through the libm fallback.
    fn hostile() -> LengthDistribution {
        LengthDistribution::normal(SimDuration::from_micros(1), dur(10))
    }

    /// Hourly slots mixing every streaming sampler: no arrivals, periodic,
    /// Normal, LogNormal and hostile renewals; Fixed, Normal, LogNormal
    /// and hostile lengths.
    fn mixed(rng: &mut StdRng) -> EpochProfile {
        let slots = (0..24)
            .map(|_| {
                let interval = between(rng, 60.0, 3600.0);
                let arrivals = match rng.gen_range(0..6u32) {
                    0 => None,
                    1 => Some(ArrivalProcess::periodic(interval)),
                    2 => Some(ArrivalProcess::renewal(LengthDistribution::log_normal(
                        interval,
                        interval / 3,
                    ))),
                    3 => Some(ArrivalProcess::renewal(hostile())),
                    _ => Some(ArrivalProcess::paper_normal(interval)),
                };
                let length = between(rng, 0.5, 30.0);
                let contact_length = match rng.gen_range(0..4u32) {
                    0 => LengthDistribution::fixed(length),
                    1 => LengthDistribution::log_normal(length, length / 2),
                    2 => hostile(),
                    _ => LengthDistribution::paper_normal(length),
                };
                ProfileSlot {
                    kind: SlotKind::OffPeak,
                    arrivals,
                    contact_length,
                }
            })
            .collect();
        EpochProfile::new(SimDuration::from_hours(1), slots)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn paper_profiles_stream_as_direct(epochs in 1u64..=20, seed in any::<u64>()) {
            streams_as_direct(EpochProfile::roadside(), epochs, seed)?;
            streams_as_direct(EpochProfile::roadside_deterministic(), epochs, seed)?;
        }

        #[test]
        fn random_roadside_streams_as_direct(epochs in 1u64..=20, seed in any::<u64>()) {
            let profile = random_roadside(&mut StdRng::seed_from_u64(!seed));
            streams_as_direct(profile, epochs, seed)?;
        }

        #[test]
        fn mixed_and_hostile_slots_stream_as_direct(epochs in 1u64..=20, seed in any::<u64>()) {
            let profile = mixed(&mut StdRng::seed_from_u64(!seed));
            streams_as_direct(profile, epochs, seed)?;
        }
    }

    #[test]
    fn exponential_and_uniform_profiles_draw_directly() {
        let slot = ProfileSlot {
            kind: SlotKind::OffPeak,
            arrivals: Some(ArrivalProcess::poisson(dur(600))),
            contact_length: LengthDistribution::paper_normal(dur(2)),
        };
        let poisson = EpochProfile::new(SimDuration::from_hours(1), vec![slot; 24]);
        let uniform_lengths = EpochProfile::roadside_with(
            dur(300),
            dur(1800),
            LengthDistribution::uniform(dur(1), dur(3)),
        );
        for profile in [poisson, uniform_lengths] {
            let gen = TraceGenerator::new(profile).epochs(3);
            assert!(!all_stream(&gen.samplers()));
            let (mut a, mut b) = (StdRng::seed_from_u64(3), StdRng::seed_from_u64(3));
            assert_eq!(gen.generate(&mut a), gen.generate_direct(&mut b));
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// The long-fleet shape at full size: 500 roadside-shaped profiles of
    /// 140 epochs, about 5.9 M contacts. Run with
    /// `cargo test --release -p snip-mobility -- --ignored`.
    #[test]
    #[ignore = "5.9 M contacts; run in release"]
    fn long_fleet_shape_streams_as_direct() {
        let mut profiles = StdRng::seed_from_u64(5150);
        for node in 0..500 {
            let profile = random_roadside(&mut profiles);
            if let Err(e) = streams_as_direct(profile, 140, node) {
                panic!("node {node}: {}", e.message);
            }
        }
    }

    #[test]
    fn contact_geometry() {
        let c = Contact::new(secs(10), dur(2));
        assert_eq!(c.end(), secs(12));
        assert!(c.contains(secs(10)));
        assert!(c.contains(secs(11)));
        assert!(!c.contains(secs(12)), "end is exclusive");
        assert!(!c.contains(secs(9)));
    }

    #[test]
    fn contact_overlap() {
        let a = Contact::new(secs(10), dur(5));
        assert!(a.overlaps(&Contact::new(secs(12), dur(1))));
        assert!(a.overlaps(&Contact::new(secs(14), dur(10))));
        assert!(
            !a.overlaps(&Contact::new(secs(15), dur(1))),
            "touching is not overlap"
        );
        assert!(!a.overlaps(&Contact::new(secs(2), dur(8))));
    }

    #[test]
    #[should_panic(expected = "ordered and non-overlapping")]
    fn push_rejects_overlap() {
        let mut t = ContactTrace::new();
        t.push(Contact::new(secs(10), dur(5)));
        t.push(Contact::new(secs(12), dur(1)));
    }

    #[test]
    fn lookup_by_time() {
        let trace: ContactTrace = [
            Contact::new(secs(10), dur(2)),
            Contact::new(secs(40), dur(3)),
            Contact::new(secs(100), dur(1)),
        ]
        .into_iter()
        .collect();
        assert_eq!(trace.contact_at(secs(11)).unwrap().start, secs(10));
        assert!(trace.contact_at(secs(20)).is_none());
        assert_eq!(
            trace.next_contact_at_or_after(secs(20)).unwrap().start,
            secs(40)
        );
        assert_eq!(
            trace.next_contact_at_or_after(secs(40)).unwrap().start,
            secs(40)
        );
        assert!(trace.next_contact_at_or_after(secs(101)).is_none());
        assert_eq!(trace.starting_in(secs(0), secs(50)).len(), 2);
        assert_eq!(trace.starting_in(secs(41), secs(99)).len(), 0);
    }

    #[test]
    fn csv_roundtrip() {
        let trace: ContactTrace = [
            Contact::new(secs(10), dur(2)),
            Contact::new(secs(40), dur(3)),
        ]
        .into_iter()
        .collect();
        let text = trace.to_csv();
        let back: ContactTrace = text.parse().unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn csv_parse_tolerates_comments_and_blanks() {
        let text = "# header\n\n10000000,2000000\n\n# more\n40000000,3000000\n";
        let trace: ContactTrace = text.parse().unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.contacts()[0].start, secs(10));
    }

    #[test]
    fn csv_parse_rejects_garbage() {
        assert!(ContactTrace::from_str("not,a,trace").is_err());
        assert!(ContactTrace::from_str("123").is_err());
        let err = ContactTrace::from_str("5,0").unwrap_err();
        assert_eq!(err.line(), 1);
        // Out-of-order contacts rejected too.
        assert!(ContactTrace::from_str("100,50\n20,10").is_err());
    }

    #[test]
    fn roadside_trace_has_paper_contact_counts() {
        let gen = TraceGenerator::new(EpochProfile::roadside()).epochs(14);
        let mut rng = StdRng::seed_from_u64(11);
        let trace = gen.generate(&mut rng);
        // ~88 contacts/day: 48 rush (4 h / 300 s) + 40 off-peak (20 h / 1800 s).
        let per_day = trace.len() as f64 / 14.0;
        assert!(per_day > 80.0 && per_day < 96.0, "{per_day}/day");
        // Capacity ~176 s/day.
        let cap_per_day = trace.total_capacity().as_secs_f64() / 14.0;
        assert!(
            cap_per_day > 160.0 && cap_per_day < 195.0,
            "{cap_per_day}s/day"
        );
    }

    #[test]
    fn deterministic_roadside_trace_is_exact() {
        let gen = TraceGenerator::new(EpochProfile::roadside_deterministic());
        let mut rng = StdRng::seed_from_u64(0);
        let trace = gen.generate(&mut rng);
        // Exactly: rush slots yield 3600/300 = 12 each (first at slot start +
        // 300), off-peak 2 each. 4×12 + 20×2 = 88; minus edge effects at slot
        // boundaries (interval straddles change of rate).
        let n = trace.len() as i64;
        assert!((n - 88).abs() <= 4, "{n} contacts");
        for c in trace.iter() {
            assert_eq!(c.length, dur(2));
        }
    }

    #[test]
    fn generated_trace_is_reproducible() {
        let gen = TraceGenerator::new(EpochProfile::roadside()).epochs(2);
        let a = gen.generate(&mut StdRng::seed_from_u64(5));
        let b = gen.generate(&mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
        let c = gen.generate(&mut StdRng::seed_from_u64(6));
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn stats_bucket_contacts_into_slots() {
        let gen = TraceGenerator::new(EpochProfile::roadside()).epochs(14);
        let mut rng = StdRng::seed_from_u64(13);
        let trace = gen.generate(&mut rng);
        let stats = trace.stats(SimDuration::from_hours(24), 24);
        assert_eq!(stats.epochs_observed(), 14);
        // Rush slots dominate.
        let order = stats.slots_by_capacity();
        let mut top4: Vec<usize> = order[..4].to_vec();
        top4.sort_unstable();
        assert_eq!(top4, vec![7, 8, 17, 18]);
        let marks = stats.top_k_marks(4);
        assert!(marks[7] && marks[8] && marks[17] && marks[18]);
        // Mean contact length ≈ 2 s.
        let mean = stats.mean_contact_length().unwrap().as_secs_f64();
        assert!((mean - 2.0).abs() < 0.1, "{mean}");
    }

    #[test]
    fn stats_capacity_per_epoch_scale() {
        let gen = TraceGenerator::new(EpochProfile::roadside_deterministic()).epochs(4);
        let trace = gen.generate(&mut StdRng::seed_from_u64(0));
        let stats = trace.stats(SimDuration::from_hours(24), 24);
        let per_epoch = stats.capacity_per_epoch();
        // Rush slot ≈ 24 s/epoch, off-peak ≈ 4 s/epoch.
        assert!((per_epoch[7] - 24.0).abs() < 3.0, "{}", per_epoch[7]);
        assert!((per_epoch[12] - 4.0).abs() < 2.5, "{}", per_epoch[12]);
    }

    #[test]
    fn empty_trace_stats() {
        let stats = ContactTrace::new().stats(SimDuration::from_hours(24), 24);
        assert!(stats.mean_contact_length().is_none());
        assert_eq!(stats.epochs_observed(), 1);
        assert!(stats.counts().iter().all(|&c| c == 0));
    }

    #[test]
    fn horizon_and_capacity() {
        let trace: ContactTrace = [
            Contact::new(secs(10), dur(2)),
            Contact::new(secs(40), dur(3)),
        ]
        .into_iter()
        .collect();
        assert_eq!(trace.horizon(), secs(43));
        assert_eq!(trace.total_capacity(), dur(5));
        assert_eq!(ContactTrace::new().horizon(), SimTime::ZERO);
    }
}
