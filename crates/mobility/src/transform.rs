//! Trace transforms: slicing, shifting, splicing, thinning.
//!
//! Evaluation workflows constantly reshape traces — concatenate a "winter"
//! and a "summer" trace for a seasonal-shift study, cut out a window, thin a
//! dense trace to emulate fewer passers-by. These are fiddly to write
//! correctly against the ordered/non-overlapping invariant, so they live
//! here once, tested, instead of ad hoc in every experiment.

use rand::Rng;
use snip_units::{SimDuration, SimTime};

use crate::trace::{Contact, ContactTrace};

impl ContactTrace {
    /// Returns the sub-trace of contacts starting within `[from, to)`,
    /// re-based so `from` becomes time zero.
    ///
    /// # Panics
    ///
    /// Panics if `to < from`.
    #[must_use]
    pub fn window(&self, from: SimTime, to: SimTime) -> ContactTrace {
        assert!(to >= from, "window bounds reversed");
        self.starting_in(from, to)
            .iter()
            .map(|c| Contact::new(SimTime::ZERO + (c.start - from), c.length))
            .collect()
    }

    /// Returns the trace shifted later in time by `offset`.
    #[must_use]
    pub fn shifted(&self, offset: SimDuration) -> ContactTrace {
        self.iter()
            .map(|c| Contact::new(c.start + offset, c.length))
            .collect()
    }

    /// Appends `tail`, shifted to begin at `at` (or at this trace's horizon
    /// if that is later), preserving the non-overlap invariant by pushing
    /// back any contact that would overlap its predecessor.
    ///
    /// This is the "seasonal splice": `winter.spliced(&summer, day10)`.
    #[must_use]
    pub fn spliced(&self, tail: &ContactTrace, at: SimTime) -> ContactTrace {
        let mut out = self.clone();
        let base = if out.horizon() > at {
            out.horizon()
        } else {
            at
        };
        for c in tail.iter() {
            let start = (base + (c.start - SimTime::ZERO)).max(out.horizon());
            out.push(Contact::new(start, c.length));
        }
        out
    }

    /// Keeps each contact independently with probability `keep`, emulating
    /// a proportionally less busy road.
    ///
    /// # Panics
    ///
    /// Panics if `keep` is not in `[0, 1]`.
    #[must_use]
    pub fn thinned<R: Rng + ?Sized>(&self, keep: f64, rng: &mut R) -> ContactTrace {
        assert!(
            (0.0..=1.0).contains(&keep),
            "keep probability must be in [0, 1]"
        );
        self.iter()
            .filter(|_| rng.gen::<f64>() < keep)
            .copied()
            .collect()
    }

    /// Scales every contact length by `factor` (≥ 0), emulating slower or
    /// faster passers-by; zero-length results are dropped. Overlaps created
    /// by lengthening are resolved by pushing contacts back.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[must_use]
    pub fn with_lengths_scaled(&self, factor: f64) -> ContactTrace {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "length scale factor must be finite and non-negative"
        );
        let mut out = ContactTrace::new();
        for c in self.iter() {
            let length = c.length.mul_f64(factor);
            if length.is_zero() {
                continue;
            }
            let start = c.start.max(out.horizon());
            out.push(Contact::new(start, length));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn dur(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    fn sample() -> ContactTrace {
        [
            Contact::new(secs(10), dur(2)),
            Contact::new(secs(40), dur(3)),
            Contact::new(secs(100), dur(1)),
            Contact::new(secs(200), dur(5)),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn window_rebases_to_zero() {
        let w = sample().window(secs(40), secs(150));
        assert_eq!(w.len(), 2);
        assert_eq!(w.contacts()[0].start, SimTime::ZERO);
        assert_eq!(w.contacts()[0].length, dur(3));
        assert_eq!(w.contacts()[1].start, secs(60));
    }

    #[test]
    fn window_empty_and_full() {
        assert!(sample().window(secs(500), secs(600)).is_empty());
        let all = sample().window(SimTime::ZERO, secs(1_000));
        assert_eq!(all.len(), 4);
        assert_eq!(all.contacts()[0].start, secs(10));
    }

    #[test]
    #[should_panic(expected = "reversed")]
    fn window_rejects_reversed_bounds() {
        let _ = sample().window(secs(10), secs(5));
    }

    #[test]
    fn shifted_preserves_gaps() {
        let s = sample().shifted(dur(1_000));
        assert_eq!(s.contacts()[0].start, secs(1_010));
        assert_eq!(s.len(), 4);
        assert_eq!(s.contacts()[3].start - s.contacts()[0].start, dur(190));
    }

    #[test]
    fn spliced_appends_after_horizon() {
        let a = sample(); // horizon 205
        let b: ContactTrace = [Contact::new(secs(5), dur(2))].into_iter().collect();
        // Requested splice point before the horizon: clamped to the horizon.
        let s = a.spliced(&b, secs(100));
        assert_eq!(s.len(), 5);
        assert_eq!(s.contacts()[4].start, secs(210)); // 205 + 5
                                                      // Requested point after the horizon: honored.
        let s = a.spliced(&b, secs(1_000));
        assert_eq!(s.contacts()[4].start, secs(1_005));
    }

    #[test]
    fn spliced_result_is_valid_trace() {
        let a = sample();
        let s = a.spliced(&sample(), secs(0));
        // The push() invariant held throughout (would have panicked).
        assert_eq!(s.len(), 8);
        let mut prev_end = SimTime::ZERO;
        for c in s.iter() {
            assert!(c.start >= prev_end);
            prev_end = c.end();
        }
    }

    #[test]
    fn thinning_probabilities() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(sample().thinned(0.0, &mut rng).is_empty());
        assert_eq!(sample().thinned(1.0, &mut rng), sample());
        // Statistical check on a bigger trace.
        let big: ContactTrace = (0..10_000)
            .map(|i| Contact::new(secs(10 * i), dur(2)))
            .collect();
        let kept = big.thinned(0.3, &mut rng).len() as f64;
        assert!((kept / 10_000.0 - 0.3).abs() < 0.02, "kept {kept}");
    }

    #[test]
    fn length_scaling() {
        let doubled = sample().with_lengths_scaled(2.0);
        assert_eq!(doubled.contacts()[0].length, dur(4));
        assert_eq!(doubled.len(), 4);
        let halved = sample().with_lengths_scaled(0.5);
        assert_eq!(halved.contacts()[0].length, dur(1));
        // Scaling to zero drops everything.
        assert!(sample().with_lengths_scaled(0.0).is_empty());
    }

    #[test]
    fn length_scaling_resolves_overlaps() {
        let tight: ContactTrace = [Contact::new(secs(0), dur(2)), Contact::new(secs(3), dur(2))]
            .into_iter()
            .collect();
        let stretched = tight.with_lengths_scaled(3.0);
        assert_eq!(stretched.len(), 2);
        // Second contact pushed back past the first's new end (6 s).
        assert_eq!(stretched.contacts()[1].start, secs(6));
    }

    #[test]
    fn a_generated_trace_spliced_onto_itself_windows_like_the_original() {
        let trace = crate::TraceGenerator::new(crate::EpochProfile::roadside())
            .epochs(14)
            .generate(&mut StdRng::seed_from_u64(1));
        let day = |d: u64| secs(d * 86_400);
        let spliced = trace.spliced(&trace, day(14));
        assert_eq!(spliced.len(), 2 * trace.len());
        // The copy starts at day 14, so days 1..10 are the original's.
        assert_eq!(
            spliced.window(day(1), day(10)),
            trace.window(day(1), day(10))
        );
        // And the copy's first ten days are the original's first ten.
        assert_eq!(
            spliced.window(day(14), day(24)),
            trace.window(day(0), day(10))
        );
    }

    #[test]
    fn transforms_compose() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = sample()
            .shifted(dur(100))
            .window(secs(100), secs(400))
            .thinned(1.0, &mut rng);
        assert_eq!(t.len(), 4);
        assert_eq!(t.contacts()[0].start, secs(10));
    }
}
