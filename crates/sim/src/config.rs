//! Simulation parameters.

use serde::{Deserialize, Serialize};
use snip_units::{SimDuration, SimTime};

/// Parameters of a sensor-node probing simulation.
///
/// Built with a fluent builder starting from [`SimConfig::paper_defaults`].
///
/// # Examples
///
/// ```
/// use snip_sim::SimConfig;
/// use snip_units::SimDuration;
///
/// let config = SimConfig::paper_defaults()
///     .with_epochs(14)
///     .with_zeta_target_secs(16.0);
/// assert_eq!(config.horizon(), snip_units::SimTime::from_secs(14 * 86_400));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Beacon window `Ton` per probing cycle.
    pub ton: SimDuration,
    /// Epoch length `Tepoch` (metrics are reported per epoch).
    pub epoch: SimDuration,
    /// Number of epochs to simulate.
    pub epochs: u64,
    /// Data generation rate as seconds of upload airtime per second of
    /// wall-clock (`ζtarget / Tepoch`).
    pub data_rate: f64,
    /// How long the node sleeps between scheduler wake-ups while probing is
    /// inactive (the paper's "CPU wakes up periodically").
    pub decision_interval: SimDuration,
    /// Probability that a probing beacon is lost (contention/corruption
    /// injection; the paper argues this is negligible in sparse networks).
    pub beacon_loss: f64,
}

impl SimConfig {
    /// The paper's simulation defaults: `Ton = 20 ms`, 24 h epochs, two-week
    /// runs, no data generation, one-minute idle wake-ups, no beacon loss.
    #[must_use]
    pub fn paper_defaults() -> Self {
        SimConfig {
            ton: SimDuration::from_millis(20),
            epoch: SimDuration::from_hours(24),
            epochs: 14,
            data_rate: 0.0,
            decision_interval: SimDuration::from_secs(60),
            beacon_loss: 0.0,
        }
    }

    /// Sets the number of simulated epochs.
    ///
    /// # Panics
    ///
    /// Panics if `epochs` is zero.
    #[must_use]
    pub fn with_epochs(mut self, epochs: u64) -> Self {
        self.epochs = epochs;
        self.checked()
    }

    /// Sets the data generation rate from a per-epoch capacity target in
    /// seconds (`ζtarget`), the paper's "constant rate derived from ζtarget".
    ///
    /// # Panics
    ///
    /// Panics if `zeta_target` is negative, or if the rate it sets is not
    /// finite.
    #[must_use]
    pub fn with_zeta_target_secs(mut self, zeta_target: f64) -> Self {
        assert!(zeta_target >= 0.0, "ζtarget must be non-negative");
        self.data_rate = zeta_target / self.epoch.as_secs_f64();
        self.checked()
    }

    /// Sets the beacon-loss probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[must_use]
    pub fn with_beacon_loss(mut self, p: f64) -> Self {
        self.beacon_loss = p;
        self.checked()
    }

    /// Sets the idle decision interval.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    #[must_use]
    pub fn with_decision_interval(mut self, interval: SimDuration) -> Self {
        self.decision_interval = interval;
        self.checked()
    }

    /// Sets the beacon window `Ton`.
    ///
    /// # Panics
    ///
    /// Panics if `ton` is zero.
    #[must_use]
    pub fn with_ton(mut self, ton: SimDuration) -> Self {
        self.ton = ton;
        self.checked()
    }

    /// Checks what the builders assert: a positive `Ton`, an epoch of at
    /// least 24 µs (the metrics ledger splits it into 24 slots of whole
    /// microseconds), a positive decision interval, at least one epoch, a
    /// beacon-loss probability in
    /// `[0, 1]` and a finite, non-negative data rate. A configuration read
    /// from outside (a journal header) is checked here before it is run.
    ///
    /// # Errors
    ///
    /// Returns which requirement the configuration breaks.
    pub fn check(&self) -> Result<(), String> {
        let fails = [
            (self.ton.is_zero(), "Ton must be positive"),
            (self.epoch.is_zero(), "epoch must be positive"),
            (
                self.epoch < SimDuration::from_micros(24),
                "epoch must be at least 24 µs, one per ledger slot",
            ),
            (
                self.decision_interval.is_zero(),
                "decision interval must be positive",
            ),
            (self.epochs == 0, "must simulate at least one epoch"),
            (
                !(0.0..=1.0).contains(&self.beacon_loss),
                "loss probability must be in [0, 1]",
            ),
            (
                !(self.data_rate.is_finite() && self.data_rate >= 0.0),
                "data rate must be finite and non-negative",
            ),
        ];
        match fails.iter().find(|(failed, _)| *failed) {
            Some((_, why)) => Err((*why).to_string()),
            None => Ok(()),
        }
    }

    /// `self`, panicking with [`SimConfig::check`]'s complaint if any.
    fn checked(self) -> Self {
        self.check().unwrap_or_else(|why| panic!("{why}"));
        self
    }

    /// The simulation end time.
    #[must_use]
    pub fn horizon(&self) -> SimTime {
        SimTime::ZERO + self.epoch * self.epochs
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_the_evaluation_setup() {
        let c = SimConfig::paper_defaults();
        assert_eq!(c.ton, SimDuration::from_millis(20));
        assert_eq!(c.epoch, SimDuration::from_hours(24));
        assert_eq!(c.epochs, 14);
        assert_eq!(c.beacon_loss, 0.0);
    }

    #[test]
    fn zeta_target_sets_rate() {
        let c = SimConfig::paper_defaults().with_zeta_target_secs(16.0);
        assert!((c.data_rate - 16.0 / 86_400.0).abs() < 1e-15);
    }

    #[test]
    fn horizon_scales_with_epochs() {
        let c = SimConfig::paper_defaults().with_epochs(3);
        assert_eq!(c.horizon(), SimTime::from_secs(3 * 86_400));
    }

    #[test]
    fn builders_validate() {
        let c = SimConfig::paper_defaults()
            .with_beacon_loss(0.25)
            .with_ton(SimDuration::from_millis(10))
            .with_decision_interval(SimDuration::from_secs(30));
        assert_eq!(c.beacon_loss, 0.25);
        assert_eq!(c.ton, SimDuration::from_millis(10));
    }

    #[test]
    fn check_names_each_broken_field() {
        let ok = SimConfig::paper_defaults();
        assert_eq!(ok.check(), Ok(()));
        type Break = fn(&mut SimConfig);
        let broken: [(Break, &str); 8] = [
            (|c| c.ton = SimDuration::ZERO, "Ton"),
            (|c| c.epoch = SimDuration::ZERO, "epoch must"),
            (|c| c.epoch = SimDuration::from_micros(23), "at least 24 µs"),
            (
                |c| c.decision_interval = SimDuration::ZERO,
                "decision interval",
            ),
            (|c| c.epochs = 0, "at least one epoch"),
            (|c| c.beacon_loss = f64::NAN, "loss probability"),
            (|c| c.data_rate = -1.0, "data rate"),
            (|c| c.data_rate = f64::INFINITY, "data rate"),
        ];
        for (breaks, names) in broken {
            let mut config = ok.clone();
            breaks(&mut config);
            let why = config.check().expect_err(names);
            assert!(why.contains(names), "{why}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one epoch")]
    fn zero_epochs_rejected() {
        let _ = SimConfig::paper_defaults().with_epochs(0);
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn bad_loss_rejected() {
        let _ = SimConfig::paper_defaults().with_beacon_loss(1.5);
    }
}
