//! Time-slotted epoch profiles: where the rush hours are and what the
//! contact process looks like in each slot.
//!
//! §VI-A of the paper divides an epoch into `N` equal time-slots, each marked
//! `1` (rush hour) or `0`. An [`EpochProfile`] carries that structure plus
//! the *actual* contact process of each slot, so it can both drive trace
//! generation and be projected down to the model crate's
//! [`snip_model::SlotProfile`] for closed-form analysis.

use rand::Rng;
use serde::{Decoder, Deserialize, Encoder, Serialize};
use snip_model::{LengthDistribution, SlotProfile, SlotSpec};
use snip_units::{SimDuration, SimTime};

use crate::arrival::ArrivalProcess;

/// Whether a slot is inside rush hours.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SlotKind {
    /// A rush-hour slot (marked "1" in §VI-A).
    Rush,
    /// An off-peak slot (marked "0").
    OffPeak,
}

impl SlotKind {
    /// `true` for rush-hour slots.
    #[must_use]
    pub fn is_rush(self) -> bool {
        matches!(self, SlotKind::Rush)
    }
}

/// One slot of an epoch profile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProfileSlot {
    /// Rush-hour mark.
    pub kind: SlotKind,
    /// Contact arrivals inside this slot; `None` for no contacts.
    pub arrivals: Option<ArrivalProcess>,
    /// Contact length distribution inside this slot.
    pub contact_length: LengthDistribution,
}

/// An epoch's slotted contact process (`Tepoch`, `N`, the marks, and the
/// per-slot processes).
///
/// # Examples
///
/// ```
/// use snip_mobility::EpochProfile;
/// use snip_units::{SimDuration, SimTime};
///
/// let p = EpochProfile::roadside();
/// assert_eq!(p.slot_count(), 24);
/// assert_eq!(p.epoch(), SimDuration::from_hours(24));
/// // 08:30 on any day falls in a rush-hour slot.
/// let t = SimTime::from_secs(8 * 3600 + 30 * 60);
/// assert!(p.kind_at(t).is_rush());
/// ```
///
/// On the wire a profile is `{slot_length, distinct, index}`: its distinct
/// slots in first-use order, and one position in `distinct` per slot. A
/// roadside profile's 24 slots are two distinct ones, so it travels as two
/// slot processes and 24 small integers.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochProfile {
    slot_length: SimDuration,
    slots: Vec<ProfileSlot>,
}

impl EpochProfile {
    /// Creates a profile from equal-length slots.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is empty or `slot_length` is zero.
    #[must_use]
    pub fn new(slot_length: SimDuration, slots: Vec<ProfileSlot>) -> Self {
        assert!(!slots.is_empty(), "a profile needs at least one slot");
        assert!(!slot_length.is_zero(), "slot length must be positive");
        EpochProfile { slot_length, slots }
    }

    /// The paper's §VII roadside scenario with the simulation's randomness:
    /// 24 one-hour slots, rush hours 07–09 and 17–19, Normal(µ, µ/10)
    /// intervals (µ = 300 s rush / 1800 s off-peak) and Normal(2 s, 0.2 s)
    /// contact lengths.
    #[must_use]
    pub fn roadside() -> Self {
        Self::roadside_with(
            SimDuration::from_secs(300),
            SimDuration::from_secs(1800),
            LengthDistribution::paper_normal(SimDuration::from_secs(2)),
        )
    }

    /// The deterministic variant used by the paper's analysis: exact 300 s /
    /// 1800 s intervals and exact 2 s contacts.
    #[must_use]
    pub fn roadside_deterministic() -> Self {
        let hour = SimDuration::from_hours(1);
        let slots = (0..24)
            .map(|h| {
                let rush = (7..9).contains(&h) || (17..19).contains(&h);
                ProfileSlot {
                    kind: if rush {
                        SlotKind::Rush
                    } else {
                        SlotKind::OffPeak
                    },
                    arrivals: Some(ArrivalProcess::periodic(if rush {
                        SimDuration::from_secs(300)
                    } else {
                        SimDuration::from_secs(1800)
                    })),
                    contact_length: LengthDistribution::fixed(SimDuration::from_secs(2)),
                }
            })
            .collect();
        EpochProfile::new(hour, slots)
    }

    /// A roadside-shaped profile with custom intervals and lengths.
    ///
    /// # Panics
    ///
    /// Panics if either interval is zero.
    #[must_use]
    pub fn roadside_with(
        rush_interval: SimDuration,
        offpeak_interval: SimDuration,
        contact_length: LengthDistribution,
    ) -> Self {
        let hour = SimDuration::from_hours(1);
        let slots = (0..24)
            .map(|h| {
                let rush = (7..9).contains(&h) || (17..19).contains(&h);
                ProfileSlot {
                    kind: if rush {
                        SlotKind::Rush
                    } else {
                        SlotKind::OffPeak
                    },
                    arrivals: Some(ArrivalProcess::paper_normal(if rush {
                        rush_interval
                    } else {
                        offpeak_interval
                    })),
                    contact_length,
                }
            })
            .collect();
        EpochProfile::new(hour, slots)
    }

    /// Builds a 24-slot profile from hourly contact *frequencies* (contacts
    /// per hour), marking as rush hours every slot strictly above the mean
    /// frequency. Used to turn a diurnal demand curve into a contact process.
    ///
    /// Hours with a frequency below `min_per_hour` get no contacts at all.
    ///
    /// # Panics
    ///
    /// Panics if `hourly` is empty or contains a negative frequency.
    #[must_use]
    pub fn from_hourly_frequencies(
        hourly: &[f64],
        contact_length: LengthDistribution,
        min_per_hour: f64,
    ) -> Self {
        assert!(!hourly.is_empty(), "need at least one hourly frequency");
        assert!(
            hourly.iter().all(|&f| f >= 0.0 && f.is_finite()),
            "frequencies must be finite and non-negative"
        );
        let mean = hourly.iter().sum::<f64>() / hourly.len() as f64;
        let hour = SimDuration::from_hours(1);
        let slots = hourly
            .iter()
            .map(|&per_hour| {
                let arrivals = if per_hour > min_per_hour {
                    Some(ArrivalProcess::paper_normal(SimDuration::from_secs_f64(
                        3_600.0 / per_hour,
                    )))
                } else {
                    None
                };
                ProfileSlot {
                    kind: if per_hour > mean {
                        SlotKind::Rush
                    } else {
                        SlotKind::OffPeak
                    },
                    arrivals,
                    contact_length,
                }
            })
            .collect();
        EpochProfile::new(hour, slots)
    }

    /// The slot length (all slots are equal).
    #[must_use]
    pub fn slot_length(&self) -> SimDuration {
        self.slot_length
    }

    /// Number of slots `N`.
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The epoch length `Tepoch = N · slot_length`.
    #[must_use]
    pub fn epoch(&self) -> SimDuration {
        self.slot_length * self.slots.len() as u64
    }

    /// The slots.
    #[must_use]
    pub fn slots(&self) -> &[ProfileSlot] {
        &self.slots
    }

    /// The rush-hour marks as booleans, in slot order.
    #[must_use]
    pub fn rush_marks(&self) -> Vec<bool> {
        self.slots.iter().map(|s| s.kind.is_rush()).collect()
    }

    /// The slot index containing an instant (wrapping over epochs).
    #[must_use]
    pub fn slot_index_at(&self, t: SimTime) -> usize {
        let into = t.time_in_epoch(self.epoch());
        ((into / self.slot_length) as usize).min(self.slots.len() - 1)
    }

    /// The slot kind at an instant.
    #[must_use]
    pub fn kind_at(&self, t: SimTime) -> SlotKind {
        self.slots[self.slot_index_at(t)].kind
    }

    /// The arrival process at an instant, if any contacts arrive then.
    #[must_use]
    pub fn arrivals_at(&self, t: SimTime) -> Option<&ArrivalProcess> {
        self.slots[self.slot_index_at(t)].arrivals.as_ref()
    }

    /// Draws a contact length for a contact starting at `t`.
    #[must_use]
    pub fn sample_contact_length<R: Rng + ?Sized>(&self, t: SimTime, rng: &mut R) -> SimDuration {
        crate::sampler::sample_duration(&self.slots[self.slot_index_at(t)].contact_length, rng)
            .max(SimDuration::from_micros(1))
    }

    /// Projects the profile down to the model crate's [`SlotProfile`]
    /// (mean frequencies and length distributions, no randomness).
    #[must_use]
    pub fn to_slot_profile(&self) -> SlotProfile {
        let specs = self
            .slots
            .iter()
            .map(|s| match &s.arrivals {
                Some(a) => SlotSpec::new(self.slot_length, a.mean_interval(), s.contact_length),
                None => SlotSpec::empty(self.slot_length),
            })
            .collect();
        SlotProfile::new(specs)
    }

    /// The mean contact length across slots that have contacts, weighted by
    /// arrival frequency — the value SNIP-RH's `T̄contact` estimator
    /// converges to.
    #[must_use]
    pub fn mean_contact_length(&self) -> SimDuration {
        let mut weight = 0.0;
        let mut total = 0.0;
        for s in &self.slots {
            if let Some(a) = &s.arrivals {
                let f = a.frequency();
                weight += f;
                total += f * s.contact_length.mean().as_secs_f64();
            }
        }
        if weight == 0.0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_secs_f64(total / weight)
        }
    }
}

impl Serialize for EpochProfile {
    fn encode<E: Encoder>(&self, e: &mut E) {
        let mut distinct: Vec<&ProfileSlot> = Vec::new();
        let mut index = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let at = distinct.iter().position(|&d| d == slot).unwrap_or_else(|| {
                distinct.push(slot);
                distinct.len() - 1
            });
            index.push(at);
        }
        e.map(3);
        e.map_key(0, "slot_length");
        self.slot_length.encode(e);
        e.map_key(1, "distinct");
        distinct.encode(e);
        e.map_key(2, "index");
        index.encode(e);
        e.map_end();
    }
}

impl Deserialize for EpochProfile {
    /// Reads the map `encode` writes, under the derive's key rules (keys in
    /// any order, the first occurrence wins, unknown keys skipped), and
    /// accepts only the canonical form `encode` produces: a positive
    /// `slot_length`, a non-empty `index` of in-range entries, and every
    /// `distinct` entry used, in first-use order, with no two equal. Every
    /// `distinct` slot's arrival process and contact-length distribution
    /// must pass its `check`. So a decoded profile re-encodes to the
    /// `distinct` and `index` it was read from, and no decoded profile
    /// breaks the invariants [`EpochProfile::new`] and the distribution
    /// constructors hold.
    fn decode<'de, D: Decoder<'de>>(d: &mut D) -> Result<Self, serde::Error> {
        use serde::{__decode_field as field, __require as require};
        const TY: &str = "EpochProfile";
        let mut items = serde::__open_map(d, "EpochProfile map")?;
        let (mut slot_length, mut distinct, mut index) = (None, None, None);
        while let Some(key) = d.next_key(&mut items)? {
            match &*key {
                "slot_length" if slot_length.is_none() => {
                    slot_length = Some(field(d, "slot_length", TY)?);
                }
                "distinct" if distinct.is_none() => distinct = Some(field(d, "distinct", TY)?),
                "index" if index.is_none() => index = Some(field(d, "index", TY)?),
                _ => d.skip()?,
            }
        }
        let slot_length: SimDuration = require(slot_length, "slot_length", TY)?;
        let distinct: Vec<ProfileSlot> = require(distinct, "distinct", TY)?;
        let index: Vec<usize> = require(index, "index", TY)?;
        check_canonical(slot_length, &distinct, &index)
            .map_err(|msg| serde::Error::custom(format!("{TY}: {msg}")))?;
        Ok(EpochProfile {
            slot_length,
            slots: index.iter().map(|&i| distinct[i]).collect(),
        })
    }
}

/// The first way `(slot_length, distinct, index)` departs from the form
/// [`EpochProfile`]'s `encode` writes, or the first distinct slot whose
/// arrival process or contact-length distribution no constructor would
/// build, if any.
fn check_canonical(
    slot_length: SimDuration,
    distinct: &[ProfileSlot],
    index: &[usize],
) -> Result<(), String> {
    if slot_length.is_zero() {
        return Err("slot_length must be positive".into());
    }
    if index.is_empty() {
        return Err("index is empty: a profile needs at least one slot".into());
    }
    // The next entry a slot may use for the first time.
    let mut fresh = 0;
    for (slot, &i) in index.iter().enumerate() {
        if i >= distinct.len() {
            return Err(format!(
                "index[{slot}] is {i}, out of range for {} distinct slot(s)",
                distinct.len()
            ));
        }
        if i > fresh {
            return Err(format!(
                "index[{slot}] is {i} before entry {fresh} was used: distinct slots \
                 must appear in first-use order"
            ));
        }
        if i == fresh {
            fresh += 1;
        }
    }
    if fresh < distinct.len() {
        return Err(format!("distinct entry {fresh} is never used"));
    }
    for (k, slot) in distinct.iter().enumerate() {
        if let Some(arrivals) = &slot.arrivals {
            arrivals
                .check()
                .map_err(|why| format!("distinct entry {k}: arrivals: {why}"))?;
        }
        slot.contact_length
            .check()
            .map_err(|why| format!("distinct entry {k}: contact_length: {why}"))?;
    }
    for (later, slot) in distinct.iter().enumerate().skip(1) {
        if let Some(earlier) = distinct[..later].iter().position(|d| d == slot) {
            return Err(format!(
                "distinct entries {earlier} and {later} are equal: each slot is listed once"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roadside_shape() {
        let p = EpochProfile::roadside();
        assert_eq!(p.slot_count(), 24);
        assert_eq!(p.epoch(), SimDuration::from_hours(24));
        assert_eq!(p.slot_length(), SimDuration::from_hours(1));
        let marks = p.rush_marks();
        let rush_hours: Vec<usize> = marks
            .iter()
            .enumerate()
            .filter(|&(_, &m)| m)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(rush_hours, vec![7, 8, 17, 18]);
    }

    #[test]
    fn slot_lookup_wraps_over_epochs() {
        let p = EpochProfile::roadside();
        // 07:30 on day 3.
        let t = SimTime::from_secs(3 * 86_400 + 7 * 3_600 + 1_800);
        assert_eq!(p.slot_index_at(t), 7);
        assert!(p.kind_at(t).is_rush());
        // Midnight is off-peak.
        assert!(!p.kind_at(SimTime::ZERO).is_rush());
    }

    #[test]
    fn slot_lookup_at_exact_epoch_boundary() {
        let p = EpochProfile::roadside();
        let t = SimTime::from_secs(86_400);
        assert_eq!(p.slot_index_at(t), 0);
    }

    #[test]
    fn to_slot_profile_matches_model_roadside() {
        let ours = EpochProfile::roadside_deterministic().to_slot_profile();
        let theirs = snip_model::SlotProfile::roadside();
        assert!((ours.total_capacity() - theirs.total_capacity()).abs() < 1e-9);
        assert_eq!(ours.len(), theirs.len());
    }

    #[test]
    fn arrivals_at_respects_slot() {
        let p = EpochProfile::roadside_deterministic();
        let rush = p.arrivals_at(SimTime::from_secs(8 * 3_600)).unwrap();
        assert_eq!(rush.mean_interval(), SimDuration::from_secs(300));
        let off = p.arrivals_at(SimTime::from_secs(12 * 3_600)).unwrap();
        assert_eq!(off.mean_interval(), SimDuration::from_secs(1_800));
    }

    #[test]
    fn from_hourly_frequencies_marks_peaks() {
        let mut hourly = vec![1.0; 24];
        hourly[8] = 20.0;
        hourly[17] = 15.0;
        hourly[3] = 0.0;
        let p = EpochProfile::from_hourly_frequencies(
            &hourly,
            LengthDistribution::fixed(SimDuration::from_secs(2)),
            0.5,
        );
        let marks = p.rush_marks();
        assert!(marks[8] && marks[17]);
        assert_eq!(marks.iter().filter(|&&m| m).count(), 2);
        assert!(p.slots()[3].arrivals.is_none(), "0/hour yields no process");
        // 20/hour → 180 s mean interval.
        assert_eq!(
            p.slots()[8].arrivals.unwrap().mean_interval(),
            SimDuration::from_secs(180)
        );
    }

    #[test]
    fn mean_contact_length_weighted_by_frequency() {
        let p = EpochProfile::roadside_deterministic();
        // All contacts are 2 s, so the weighted mean is 2 s.
        assert_eq!(p.mean_contact_length(), SimDuration::from_secs(2));
    }

    #[test]
    fn sample_contact_length_positive() {
        use rand::SeedableRng;
        let p = EpochProfile::roadside();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for s in [0u64, 8 * 3_600, 12 * 3_600] {
            let len = p.sample_contact_length(SimTime::from_secs(s), &mut rng);
            assert!(len > SimDuration::ZERO);
        }
    }

    /// One profile per constructor, the diurnal builder included; the
    /// hourly one has a contact-free slot (below `min_per_hour`).
    fn every_constructor() -> Vec<EpochProfile> {
        let two_s = LengthDistribution::fixed(SimDuration::from_secs(2));
        let mut hourly = vec![4.0; 24];
        hourly[8] = 20.0;
        hourly[3] = 0.2;
        vec![
            EpochProfile::roadside(),
            EpochProfile::roadside_deterministic(),
            EpochProfile::roadside_with(
                SimDuration::from_secs(240),
                SimDuration::from_secs(2_400),
                LengthDistribution::exponential(SimDuration::from_secs(3)),
            ),
            EpochProfile::from_hourly_frequencies(&hourly, two_s, 0.5),
            crate::DiurnalDemand::commuter().to_profile(120.0, two_s, 0.5),
        ]
    }

    #[test]
    fn every_constructor_round_trips_to_the_same_bytes() {
        for p in every_constructor() {
            let text = serde::json::to_string(&p);
            let from_text: EpochProfile = serde::json::decode(&text).unwrap();
            assert_eq!(from_text, p);
            assert_eq!(serde::json::to_string(&from_text), text);

            let bytes = serde::cbor::to_vec(&p);
            let from_bytes: EpochProfile = serde::cbor::decode(&bytes).unwrap();
            assert_eq!(from_bytes, p);
            assert_eq!(serde::cbor::to_vec(&from_bytes), bytes);

            let tree = p.to_value();
            let from_tree = EpochProfile::from_value(&tree).unwrap();
            assert_eq!(from_tree, p);
            assert_eq!(from_tree.to_value(), tree);
        }
        let hourly = &every_constructor()[3];
        assert!(hourly.slots()[3].arrivals.is_none(), "a contact-free slot");
    }

    #[test]
    fn roadside_travels_as_two_distinct_slots() {
        let p = EpochProfile::roadside_with(
            SimDuration::from_secs(300),
            SimDuration::from_secs(1_800),
            LengthDistribution::fixed(SimDuration::from_secs(2)),
        );
        let tree = p.to_value();
        assert_eq!(tree.get("distinct").unwrap().as_seq().unwrap().len(), 2);
        assert_eq!(
            serde::json::to_string(&EpochProfile::roadside()),
            concat!(
                r#"{"slot_length":3600000000,"distinct":["#,
                r#"{"kind":"OffPeak","arrivals":{"Renewal":{"interval":"#,
                r#"{"Normal":{"mean":1800000000,"std_dev":180000000}}}},"#,
                r#""contact_length":{"Normal":{"mean":2000000,"std_dev":200000}}},"#,
                r#"{"kind":"Rush","arrivals":{"Renewal":{"interval":"#,
                r#"{"Normal":{"mean":300000000,"std_dev":30000000}}}},"#,
                r#""contact_length":{"Normal":{"mean":2000000,"std_dev":200000}}}],"#,
                r#""index":[0,0,0,0,0,0,0,1,1,0,0,0,0,0,0,0,0,1,1,0,0,0,0,0]}"#,
            )
        );
    }

    /// Wire text of one-hour slots: `distinct` lists `OFF` and `RUSH`
    /// (contact-free off-peak and rush slots), `index` the slots.
    fn roadside_text_with(distinct: &str, index: &str) -> String {
        let off =
            r#"{"kind":"OffPeak","arrivals":null,"contact_length":{"Fixed":{"length":2000000}}}"#;
        let rush =
            r#"{"kind":"Rush","arrivals":null,"contact_length":{"Fixed":{"length":2000000}}}"#;
        let distinct = distinct.replace("OFF", off).replace("RUSH", rush);
        format!(r#"{{"slot_length":3600000000,"distinct":[{distinct}],"index":[{index}]}}"#)
    }

    #[test]
    fn only_the_canonical_form_decodes() {
        let decode = |text: &str| serde::json::decode::<EpochProfile>(text);
        let ok = decode(&roadside_text_with("OFF,RUSH", "0,1,0")).unwrap();
        assert_eq!(ok.slot_count(), 3);
        assert!(ok.rush_marks()[1]);
        let refused = [
            (roadside_text_with("OFF", ""), "index is empty"),
            (
                roadside_text_with("OFF", "0").replace("3600000000", "0"),
                "slot_length must be positive",
            ),
            (roadside_text_with("OFF", "0,1"), "out of range"),
            (roadside_text_with("OFF,RUSH", "0,0"), "never used"),
            (roadside_text_with("OFF,OFF", "0,1"), "are equal"),
            (roadside_text_with("OFF,RUSH", "1,0"), "first-use order"),
        ];
        for (text, why) in refused {
            let err = decode(&text).expect_err(&text).to_string();
            assert!(
                err.contains("EpochProfile") && err.contains(why),
                "{text}: {err}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn empty_profile_rejected() {
        let _ = EpochProfile::new(SimDuration::from_hours(1), Vec::new());
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_frequency_rejected() {
        let _ = EpochProfile::from_hourly_frequencies(
            &[-1.0],
            LengthDistribution::fixed(SimDuration::from_secs(2)),
            0.0,
        );
    }
}
