//! The sensed-data buffer.
//!
//! The paper's simulations generate sensed data "with a constant rate derived
//! from ζtarget". The buffer models that exactly: the amount generated by
//! time `t` is `rate · t`, computed lazily (no per-tick events), and uploads
//! drain it. All amounts are airtime seconds ([`DataSize`]'s convention), so
//! a probed window of `Tprobed` can upload at most `Tprobed` worth of data.

use serde::{Deserialize, Serialize};
use snip_units::{DataSize, SimDuration, SimTime};

/// A constant-rate data buffer with lazy generation.
///
/// # Examples
///
/// ```
/// use snip_sim::DataBuffer;
/// use snip_units::{DataSize, SimDuration, SimTime};
///
/// // ζtarget = 16 s/epoch over a 24 h epoch.
/// let mut buf = DataBuffer::new(16.0 / 86_400.0);
/// let noon = SimTime::from_secs(43_200);
/// // Half the epoch has generated half the target.
/// assert!((buf.available(noon).as_airtime_secs_f64() - 8.0).abs() < 1e-6);
///
/// let got = buf.upload(noon, SimDuration::from_secs(3));
/// assert_eq!(got, DataSize::from_airtime_secs(3));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataBuffer {
    rate: f64,
    uploaded: f64,
    total_uploaded: f64,
    last_touch: SimTime,
}

impl DataBuffer {
    /// Creates a buffer generating `rate` seconds of airtime per second.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative or not finite.
    #[must_use]
    pub fn new(rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate >= 0.0,
            "data rate must be finite and non-negative"
        );
        DataBuffer {
            rate,
            uploaded: 0.0,
            total_uploaded: 0.0,
            last_touch: SimTime::ZERO,
        }
    }

    /// The generation rate.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Data generated by time `t` (cumulative), in airtime seconds.
    #[must_use]
    pub fn generated(&self, t: SimTime) -> f64 {
        self.rate * t.as_secs_f64()
    }

    /// Data currently buffered at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the last upload (time must move forward).
    #[must_use]
    pub fn available(&self, t: SimTime) -> DataSize {
        assert!(
            t >= self.last_touch,
            "buffer queried before its last upload"
        );
        let pending = (self.generated(t) - self.uploaded).max(0.0);
        DataSize::from_airtime(SimDuration::from_secs_f64(pending))
    }

    /// The first wake-up `from + k·step`, `k ≥ 1`, at which at least `need`
    /// is buffered — or, if none comes earlier, the first wake-up at or
    /// after `limit`. No upload is assumed in between.
    ///
    /// Exact: [`DataBuffer::available`] is monotone in `t` (every float
    /// step in it is correctly rounded), so a float estimate of the
    /// crossing only seeds the search, and every answer is confirmed by
    /// evaluating `available` itself.
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero or `from` precedes the last upload.
    #[must_use]
    pub fn first_wake_holding(
        &self,
        from: SimTime,
        step: SimDuration,
        need: DataSize,
        limit: SimTime,
    ) -> SimTime {
        assert!(!step.is_zero(), "wake-up step must be positive");
        let step_us = step.as_micros();
        let last = limit
            .as_micros()
            .saturating_sub(from.as_micros())
            .div_ceil(step_us)
            .max(1);
        let holds = |k: u64| self.available(from + step * k) >= need;
        // Where `rate · t − uploaded` reaches `need`; saturating `as` maps
        // NaN and negatives to 0 and infinity to `u64::MAX`.
        let crossing_us = (need.as_airtime_secs_f64() + self.uploaded) / self.rate * 1e6;
        let guess = ((crossing_us - from.as_micros() as f64) / step_us as f64).ceil() as u64;
        let guess = guess.clamp(1, last);
        // Bracket the answer around the guess by galloping, keeping
        // `lo < answer <= hi` (with `lo = 0` standing for "before the first
        // wake-up" and `hi = last` for "not before the limit"), then bisect.
        let (mut lo, mut hi);
        let mut stride = 1;
        if holds(guess) {
            hi = guess;
            loop {
                lo = hi.saturating_sub(stride);
                if lo == 0 || !holds(lo) {
                    break;
                }
                hi = lo;
                stride *= 2;
            }
        } else {
            lo = guess;
            loop {
                hi = (lo + stride).min(last);
                if hi == last || holds(hi) {
                    break;
                }
                lo = hi;
                stride *= 2;
            }
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if holds(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        from + step * hi
    }

    /// Uploads up to `window` worth of data at time `t`, returning the
    /// amount actually uploaded (limited by what is buffered).
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the last upload.
    pub fn upload(&mut self, t: SimTime, window: SimDuration) -> DataSize {
        let available = self.available(t);
        let sent = available.min(DataSize::from_airtime(window));
        self.uploaded += sent.as_airtime_secs_f64();
        self.total_uploaded += sent.as_airtime_secs_f64();
        self.last_touch = t;
        sent
    }

    /// Total data uploaded so far, in airtime seconds.
    #[must_use]
    pub fn total_uploaded(&self) -> f64 {
        self.total_uploaded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn generation_is_linear_in_time() {
        let buf = DataBuffer::new(16.0 / 86_400.0);
        assert_eq!(buf.available(SimTime::ZERO), DataSize::ZERO);
        let full_day = buf.available(SimTime::from_secs(86_400));
        assert!((full_day.as_airtime_secs_f64() - 16.0).abs() < 1e-6);
    }

    #[test]
    fn upload_caps_at_available() {
        let mut buf = DataBuffer::new(1.0); // 1 s airtime per second
        let t = SimTime::from_secs(5);
        let got = buf.upload(t, SimDuration::from_secs(100));
        assert!((got.as_airtime_secs_f64() - 5.0).abs() < 1e-6);
        assert_eq!(buf.available(t), DataSize::ZERO);
    }

    #[test]
    fn upload_caps_at_window() {
        let mut buf = DataBuffer::new(1.0);
        let t = SimTime::from_secs(10);
        let got = buf.upload(t, SimDuration::from_secs(3));
        assert_eq!(got, DataSize::from_airtime_secs(3));
        assert!((buf.available(t).as_airtime_secs_f64() - 7.0).abs() < 1e-6);
    }

    #[test]
    fn buffer_refills_after_upload() {
        let mut buf = DataBuffer::new(0.5);
        let t1 = SimTime::from_secs(10); // 5 s generated
        buf.upload(t1, SimDuration::from_secs(100));
        let t2 = SimTime::from_secs(20); // 5 more generated
        assert!((buf.available(t2).as_airtime_secs_f64() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn zero_rate_never_buffers() {
        let buf = DataBuffer::new(0.0);
        assert_eq!(buf.available(SimTime::from_secs(1_000_000)), DataSize::ZERO);
    }

    #[test]
    fn total_uploaded_accumulates() {
        let mut buf = DataBuffer::new(1.0);
        buf.upload(SimTime::from_secs(2), SimDuration::from_secs(1));
        buf.upload(SimTime::from_secs(4), SimDuration::from_secs(1));
        assert!((buf.total_uploaded() - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "before its last upload")]
    fn time_reversal_rejected() {
        let mut buf = DataBuffer::new(1.0);
        buf.upload(SimTime::from_secs(10), SimDuration::from_secs(1));
        let _ = buf.available(SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_rate_rejected() {
        let _ = DataBuffer::new(-1.0);
    }

    /// The reference for [`DataBuffer::first_wake_holding`]: every
    /// wake-up in turn.
    fn first_wake_by_scan(
        buf: &DataBuffer,
        from: SimTime,
        step: SimDuration,
        need: DataSize,
        limit: SimTime,
    ) -> SimTime {
        let mut t = from + step;
        while t < limit && buf.available(t) < need {
            t += step;
        }
        t
    }

    #[test]
    fn first_wake_holding_lands_on_the_grid() {
        // 1 s of airtime per 100 s; 3 s needed from t = 0 on a 60 s grid:
        // 300 s is a grid point, so that is the answer.
        let buf = DataBuffer::new(0.01);
        let step = SimDuration::from_secs(60);
        let need = DataSize::from_airtime_secs(3);
        let limit = SimTime::from_secs(86_400);
        assert_eq!(
            buf.first_wake_holding(SimTime::ZERO, step, need, limit),
            SimTime::from_secs(300)
        );
        // From 10 s the grid is 70 s, 130 s, …: 310 s is the first to hold.
        assert_eq!(
            buf.first_wake_holding(SimTime::from_secs(10), step, need, limit),
            SimTime::from_secs(310)
        );
        // Already held: the next wake-up.
        assert_eq!(
            buf.first_wake_holding(SimTime::from_secs(400), step, need, limit),
            SimTime::from_secs(460)
        );
        // Never held before the limit: the first wake-up at or after it.
        let empty = DataBuffer::new(0.0);
        assert_eq!(
            empty.first_wake_holding(SimTime::ZERO, step, need, SimTime::from_secs(100)),
            SimTime::from_secs(120)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn prop_first_wake_holding_matches_a_linear_scan(
            zero_rate in 0u8..8,
            log_rate in -9.0f64..0.0,
            uploads in proptest::collection::vec((1u64..50_000_000, 1u64..20_000_000), 0..4),
            need_us in 0u64..20_000_000,
            pin in (0u64..200, 0u64..3),
            gap_us in 0u64..10_000_000,
            step in (1u64..10, 0u32..9),
            span_us in 0u64..20_000_000_000,
        ) {
            let rate = if zero_rate == 0 { 0.0 } else { 10f64.powf(log_rate) };
            let mut buf = DataBuffer::new(rate);
            let mut t = 0u64;
            for (dt, window) in uploads {
                t += dt;
                let _ = buf.upload(SimTime::from_micros(t), SimDuration::from_micros(window));
            }
            let from = SimTime::from_micros(t + gap_us);
            // Steps from 1 µs to 90 s, spread over the decades.
            let step = SimDuration::from_micros(step.0 * 10u64.pow(step.1));
            // Cap the scan at 2·10⁴ wake-ups so every case stays cheap.
            let limit = from + SimDuration::from_micros(span_us.min(step.as_micros() * 20_000));
            // Half the cases need exactly what some wake-up holds, ±1 µs:
            // the crossings where a float estimate is most likely wrong.
            let (k, nudge) = pin;
            let need = if k >= 100 {
                DataSize::from_airtime(SimDuration::from_micros(need_us))
            } else {
                let held = buf.available(from + step * (k + 1)).as_airtime().as_micros();
                DataSize::from_airtime(SimDuration::from_micros((held + nudge).saturating_sub(1)))
            };
            prop_assert_eq!(
                buf.first_wake_holding(from, step, need, limit),
                first_wake_by_scan(&buf, from, step, need, limit)
            );
        }
    }

    proptest! {
        #[test]
        fn prop_never_uploads_more_than_generated(
            uploads in proptest::collection::vec((1u64..10_000, 1u64..100), 1..50),
        ) {
            let mut buf = DataBuffer::new(0.01);
            let mut t = 0u64;
            for (dt, window) in uploads {
                t += dt;
                let _ = buf.upload(SimTime::from_secs(t), SimDuration::from_secs(window));
                prop_assert!(
                    buf.total_uploaded() <= buf.generated(SimTime::from_secs(t)) + 1e-6
                );
            }
        }

        #[test]
        fn prop_available_is_generated_minus_uploaded(
            t1 in 1u64..10_000,
            dt in 1u64..10_000,
        ) {
            let mut buf = DataBuffer::new(0.25);
            buf.upload(SimTime::from_secs(t1), SimDuration::from_secs(2));
            let t2 = SimTime::from_secs(t1 + dt);
            let expect = buf.generated(t2) - buf.total_uploaded();
            prop_assert!(
                (buf.available(t2).as_airtime_secs_f64() - expect).abs() < 1e-5
            );
        }
    }
}
