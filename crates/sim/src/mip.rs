//! Simulation of the mobile-node-initiated probing (MIP) baseline.
//!
//! Under MIP the roles flip: the mobile node beacons periodically while the
//! sensor node merely listens during its duty-cycled on-windows. A contact is
//! discovered at the first beacon whose whole transmission fits inside an
//! on-window. The sensor's probing overhead is the same `d·Tepoch` of
//! listening, so at equal duty-cycle the ζ comparison against SNIP isolates
//! the protocol difference — the "2–10×" claim of §III (experiment E2).

use rand::Rng;
use snip_units::{DutyCycle, SimDuration, SimTime};

use snip_mobility::ContactTrace;

use crate::config::SimConfig;
use crate::metrics::RunMetrics;
use crate::observe::{NoopObserver, ObserverFlow, SimEvent, SimObserver};

/// Parameters and state of a MIP simulation.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use snip_mobility::{profile::EpochProfile, trace::TraceGenerator};
/// use snip_sim::{MipSimulation, SimConfig};
/// use snip_units::{DutyCycle, SimDuration};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let trace = TraceGenerator::new(EpochProfile::roadside())
///     .epochs(2)
///     .generate(&mut rng);
/// let sim = MipSimulation::new(
///     SimConfig::paper_defaults().with_epochs(2),
///     SimDuration::from_millis(100), // mobile beacon period
///     SimDuration::from_millis(2),   // beacon airtime
/// );
/// let metrics = sim.run(&trace, DutyCycle::new(0.01).unwrap(), &mut rng);
/// assert!(metrics.mean_phi_per_epoch() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct MipSimulation {
    config: SimConfig,
    beacon_period: SimDuration,
    beacon_airtime: SimDuration,
}

impl MipSimulation {
    /// Creates a MIP simulation with the given mobile-beacon parameters.
    ///
    /// # Panics
    ///
    /// Panics if the beacon airtime is zero or not shorter than the period.
    #[must_use]
    pub fn new(config: SimConfig, beacon_period: SimDuration, beacon_airtime: SimDuration) -> Self {
        assert!(!beacon_airtime.is_zero(), "beacon airtime must be positive");
        assert!(
            beacon_airtime < beacon_period,
            "beacon airtime must be shorter than the period"
        );
        MipSimulation {
            config,
            beacon_period,
            beacon_airtime,
        }
    }

    /// Runs MIP over a trace at a fixed sensor duty-cycle.
    ///
    /// The sensor's on-windows start at multiples of `Tcycle = Ton/d` (phase
    /// 0); each mobile node's beacon phase relative to its contact start is
    /// drawn uniformly. Beacon loss from [`SimConfig::beacon_loss`] applies
    /// per received beacon.
    pub fn run<R: Rng + ?Sized>(
        &self,
        trace: &ContactTrace,
        duty_cycle: DutyCycle,
        rng: &mut R,
    ) -> RunMetrics {
        self.run_observed(trace, duty_cycle, rng, &mut NoopObserver)
    }

    /// [`MipSimulation::run`] with a recording hook: one [`SimEvent::Probe`]
    /// per contact (at the discovering beacon's end, or at the contact start
    /// when no beacon was heard) and an [`SimEvent::EpochEnd`] per epoch, in
    /// execution order.
    ///
    /// MIP has no sensor-side scheduler, so no `Decision` events are emitted;
    /// the listening overhead is deterministic.
    pub fn run_observed<R: Rng + ?Sized, O: SimObserver + ?Sized>(
        &self,
        trace: &ContactTrace,
        duty_cycle: DutyCycle,
        rng: &mut R,
        observer: &mut O,
    ) -> RunMetrics {
        let mut metrics = RunMetrics::with_epochs(self.config.epochs as usize);
        let epoch = self.config.epoch;
        let horizon = self.config.horizon();

        macro_rules! emit {
            ($event:expr) => {
                if observer.observe(&$event) == ObserverFlow::Stop {
                    return metrics;
                }
            };
        }
        // Contacts arrive in time order, so epochs complete in order too.
        let mut current_epoch = 0u64;

        // Listening overhead is deterministic: d × epoch per epoch (exact
        // integer µs), plus one beacon transmitted per on-window is *mobile*
        // energy and not charged to the sensor.
        let phi_per_epoch = duty_cycle.on_time_over(epoch);
        for i in 0..self.config.epochs as usize {
            let em = metrics.epoch_mut(i);
            em.charge_phi(phi_per_epoch);
            if !duty_cycle.is_off() {
                em.beacons = epoch / duty_cycle.cycle_for_on(self.config.ton);
            }
        }

        if duty_cycle.is_off() {
            for c in trace.iter().filter(|c| c.start < horizon) {
                let idx = c.start.epoch_index(epoch) as usize;
                if idx < metrics.len() {
                    metrics.epoch_mut(idx).contacts_total += 1;
                }
            }
            for e in 0..self.config.epochs {
                let snapshot = metrics.epochs()[e as usize];
                emit!(SimEvent::EpochEnd {
                    epoch: e,
                    metrics: snapshot,
                });
            }
            return metrics;
        }

        let ton = self.config.ton;
        let cycle = duty_cycle.cycle_for_on(ton).max(ton);
        let tau = self.beacon_airtime;

        for contact in trace.iter().filter(|c| c.start < horizon) {
            let epoch_idx = contact.start.epoch_index(epoch) as usize;
            if epoch_idx >= metrics.len() {
                continue;
            }
            if (epoch_idx as u64) > current_epoch {
                for e in current_epoch..epoch_idx as u64 {
                    let snapshot = metrics.epochs()[e as usize];
                    emit!(SimEvent::EpochEnd {
                        epoch: e,
                        metrics: snapshot,
                    });
                }
                current_epoch = epoch_idx as u64;
            }
            metrics.epoch_mut(epoch_idx).contacts_total += 1;

            // Mobile beacons at contact.start + phase + k·Tb.
            let phase = SimDuration::from_micros(rng.gen_range(0..self.beacon_period.as_micros()));
            let mut beacon = contact.start + phase;
            let discovery = loop {
                if beacon + tau > contact.end() {
                    break None;
                }
                // The on-window containing this beacon start.
                let window_start = SimTime::from_micros(
                    beacon.as_micros() / cycle.as_micros() * cycle.as_micros(),
                );
                let fits = beacon >= window_start && beacon + tau <= window_start + ton;
                let heard = fits
                    && (self.config.beacon_loss == 0.0
                        || rng.gen::<f64>() >= self.config.beacon_loss);
                if heard {
                    break Some(beacon + tau);
                }
                beacon += self.beacon_period;
            };

            emit!(SimEvent::Probe {
                at: discovery.unwrap_or(contact.start),
                beacon_heard: discovery.is_some(),
                contact: *contact,
            });
            if let Some(at) = discovery {
                let probed = contact.end() - at;
                let em = metrics.epoch_mut(epoch_idx);
                em.charge_zeta(probed);
                em.contacts_probed += 1;
                em.charge_upload_on_time(probed);
            }
        }
        for e in current_epoch..self.config.epochs {
            let snapshot = metrics.epochs()[e as usize];
            emit!(SimEvent::EpochEnd {
                epoch: e,
                metrics: snapshot,
            });
        }
        metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snip_core::SnipAt;
    use snip_mobility::{profile::EpochProfile, trace::TraceGenerator};
    use snip_model::MipModel;

    fn mip() -> MipSimulation {
        MipSimulation::new(
            SimConfig::paper_defaults(),
            SimDuration::from_millis(100),
            SimDuration::from_millis(2),
        )
    }

    fn trace(seed: u64) -> ContactTrace {
        TraceGenerator::new(EpochProfile::roadside())
            .epochs(14)
            .generate(&mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn listening_energy_is_duty_cycle_times_epoch() {
        let t = trace(31);
        let metrics = mip().run(
            &t,
            DutyCycle::new(0.005).unwrap(),
            &mut StdRng::seed_from_u64(1),
        );
        let phi = metrics.mean_phi_per_epoch();
        assert!((phi - 0.005 * 86_400.0).abs() < 1e-6, "Φ = {phi}");
    }

    #[test]
    fn zeta_close_to_the_mip_model() {
        let t = trace(32);
        let d = DutyCycle::new(0.005).unwrap();
        let metrics = mip().run(&t, d, &mut StdRng::seed_from_u64(2));
        let model = MipModel::default();
        let expected_per_contact = model
            .expected_probed(d, SimDuration::from_secs(2))
            .as_secs_f64();
        let contacts: u64 = metrics.epochs().iter().map(|e| e.contacts_total).sum();
        let expected = expected_per_contact * contacts as f64 / 14.0;
        let measured = metrics.mean_zeta_per_epoch();
        assert!(
            (measured - expected).abs() / expected.max(0.1) < 0.35,
            "ζ/epoch {measured} vs model {expected}"
        );
    }

    #[test]
    fn snip_beats_mip_at_equal_duty_cycle() {
        // The E2 experiment in miniature.
        let t = trace(33);
        let d = DutyCycle::new(0.005).unwrap();
        let mip_metrics = mip().run(&t, d, &mut StdRng::seed_from_u64(3));

        let mut snip_sim =
            crate::node::Simulation::new(SimConfig::paper_defaults(), &t, SnipAt::new(d));
        let snip_metrics = snip_sim.run(&mut StdRng::seed_from_u64(3));

        let gain = snip_metrics.mean_zeta_per_epoch() / mip_metrics.mean_zeta_per_epoch();
        assert!(
            gain > 2.0 && gain < 15.0,
            "SNIP/MIP capacity gain = {gain:.2} (paper claims 2–10×)"
        );
    }

    #[test]
    fn wide_windows_catch_most_contacts() {
        // d = 0.5 → Ton = 20 ms windows every 40 ms; beacons every 100 ms
        // with 2 ms airtime. Because 100 ms is a rational multiple of the
        // 40 ms cycle, a contact's beacon phase repeats over just two
        // residues mod the cycle — about 10% of phases miss *every* beacon
        // (period aliasing, a known MIP pathology that SNIP avoids).
        let t = trace(34);
        let metrics = mip().run(
            &t,
            DutyCycle::new(0.5).unwrap(),
            &mut StdRng::seed_from_u64(4),
        );
        let probed: u64 = metrics.total_contacts_probed();
        let total: u64 = metrics.epochs().iter().map(|e| e.contacts_total).sum();
        let ratio = probed as f64 / total as f64;
        assert!(
            ratio > 0.85 && ratio < 0.95,
            "{probed}/{total} probed ({ratio:.3}); expected ~0.9 from phase aliasing"
        );
    }

    #[test]
    fn zero_duty_cycle_listens_never_probes() {
        let t = trace(35);
        let metrics = mip().run(&t, DutyCycle::OFF, &mut StdRng::seed_from_u64(5));
        assert_eq!(metrics.total_contacts_probed(), 0);
        assert_eq!(metrics.mean_phi_per_epoch(), 0.0);
        let total: u64 = metrics.epochs().iter().map(|e| e.contacts_total).sum();
        assert!(total > 1_000, "contacts still counted: {total}");
    }

    #[test]
    fn beacon_loss_reduces_probed_contacts() {
        let t = trace(36);
        let d = DutyCycle::new(0.01).unwrap();
        let clean = mip().run(&t, d, &mut StdRng::seed_from_u64(6));
        let lossy = MipSimulation::new(
            SimConfig::paper_defaults().with_beacon_loss(0.9),
            SimDuration::from_millis(100),
            SimDuration::from_millis(2),
        )
        .run(&t, d, &mut StdRng::seed_from_u64(6));
        assert!(lossy.total_contacts_probed() < clean.total_contacts_probed());
    }

    #[test]
    #[should_panic(expected = "shorter than the period")]
    fn bad_beacon_params_rejected() {
        let _ = MipSimulation::new(
            SimConfig::paper_defaults(),
            SimDuration::from_millis(2),
            SimDuration::from_millis(5),
        );
    }
}
