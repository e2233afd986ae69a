//! Per-epoch and aggregate simulation metrics.
//!
//! The paper reports, per epoch (one day): the probed contact capacity `ζ`,
//! the probing overhead `Φ` (radio-on time spent probing), and the unit cost
//! `ρ = Φ/ζ`. Figures 7 and 8 plot the per-epoch averages of two-week runs.
//!
//! # Exact integer ledgers
//!
//! All time-valued metrics are stored as **integer microseconds**
//! ([`SimDuration`] / [`DataSize`]), the simulator's own clock resolution.
//! Charges are integer additions — associative and drift-free — so the fast
//! path's batched `count × Ton` charges produce ledgers *bit-identical* to
//! the naive stepper's one-at-a-time charges, and replay can assert exact
//! metric equality instead of a tolerance. Floating point appears only in
//! the reporting getters ([`EpochMetrics::zeta`], [`RunMetrics::
//! mean_zeta_per_epoch`], …), which convert the settled integer totals once.

use serde::{Deserialize, Serialize, Value};
use snip_units::{DataSize, SimDuration};

/// Metrics of one simulated epoch.
///
/// Time-valued fields are exact integer-µs ledgers; the f64 getters convert
/// for reporting. [`PartialEq`]/[`Eq`] compare the raw integers, so equality
/// is exact — the property replay divergence detection relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EpochMetrics {
    /// Probed contact capacity `ζ` (sum of `Tprobed`), integer µs.
    zeta: SimDuration,
    /// Probing overhead `Φ` (radio-on time charged to probing), integer µs.
    phi: SimDuration,
    /// Data uploaded during probed windows, exact airtime.
    uploaded: DataSize,
    /// Radio-on time spent uploading (not charged to `Φ`), integer µs.
    upload_on_time: SimDuration,
    /// Contacts present in the trace during this epoch.
    pub contacts_total: u64,
    /// Contacts successfully probed.
    pub contacts_probed: u64,
    /// Probing beacons transmitted.
    pub beacons: u64,
}

impl EpochMetrics {
    /// Probed contact capacity `ζ`, seconds (reporting conversion).
    #[must_use]
    pub fn zeta(&self) -> f64 {
        self.zeta.as_secs_f64()
    }

    /// Probing overhead `Φ`, seconds (reporting conversion).
    #[must_use]
    pub fn phi(&self) -> f64 {
        self.phi.as_secs_f64()
    }

    /// Data uploaded during probed windows, airtime seconds (reporting
    /// conversion).
    #[must_use]
    pub fn uploaded(&self) -> f64 {
        self.uploaded.as_airtime_secs_f64()
    }

    /// Radio-on time spent uploading, seconds (reporting conversion).
    #[must_use]
    pub fn upload_on_time(&self) -> f64 {
        self.upload_on_time.as_secs_f64()
    }

    /// The exact `ζ` ledger.
    #[must_use]
    pub fn zeta_exact(&self) -> SimDuration {
        self.zeta
    }

    /// The exact `Φ` ledger.
    #[must_use]
    pub fn phi_exact(&self) -> SimDuration {
        self.phi
    }

    /// The exact uploaded-data ledger.
    #[must_use]
    pub fn uploaded_exact(&self) -> DataSize {
        self.uploaded
    }

    /// The exact upload-on-time ledger.
    #[must_use]
    pub fn upload_on_time_exact(&self) -> SimDuration {
        self.upload_on_time
    }

    /// Adds probed capacity to the `ζ` ledger.
    pub fn charge_zeta(&mut self, amount: SimDuration) {
        self.zeta += amount;
    }

    /// Adds probing on-time to the `Φ` ledger.
    pub fn charge_phi(&mut self, amount: SimDuration) {
        self.phi += amount;
    }

    /// Adds uploaded data to the upload ledger.
    pub fn charge_uploaded(&mut self, amount: DataSize) {
        self.uploaded += amount;
    }

    /// Adds radio-on time spent uploading (not charged to `Φ`).
    pub fn charge_upload_on_time(&mut self, amount: SimDuration) {
        self.upload_on_time += amount;
    }

    /// Unit probing cost `ρ = Φ/ζ`; `None` when nothing was probed.
    ///
    /// Computed as a ratio of the exact integer ledgers, so `ρ` is a single
    /// float division — never an accumulation.
    #[must_use]
    pub fn rho(&self) -> Option<f64> {
        if self.zeta.is_zero() {
            None
        } else {
            Some(self.phi.as_micros() as f64 / self.zeta.as_micros() as f64)
        }
    }

    /// Fraction of contacts probed; `None` when no contacts occurred.
    #[must_use]
    pub fn probe_ratio(&self) -> Option<f64> {
        if self.contacts_total > 0 {
            Some(self.contacts_probed as f64 / self.contacts_total as f64)
        } else {
            None
        }
    }
}

/// Exact ledger merge: integer addition field by field. Summing a range of
/// epochs yields the aggregate ledger with no float reordering drift —
/// `epochs[10..].iter().copied().sum::<EpochMetrics>().rho()` is the exact
/// tail unit cost, `None`-safe.
impl std::ops::Add for EpochMetrics {
    type Output = EpochMetrics;

    fn add(self, rhs: EpochMetrics) -> EpochMetrics {
        EpochMetrics {
            zeta: self.zeta + rhs.zeta,
            phi: self.phi + rhs.phi,
            uploaded: self.uploaded + rhs.uploaded,
            upload_on_time: self.upload_on_time + rhs.upload_on_time,
            contacts_total: self.contacts_total + rhs.contacts_total,
            contacts_probed: self.contacts_probed + rhs.contacts_probed,
            beacons: self.beacons + rhs.beacons,
        }
    }
}

impl std::ops::AddAssign for EpochMetrics {
    fn add_assign(&mut self, rhs: EpochMetrics) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for EpochMetrics {
    fn sum<I: Iterator<Item = EpochMetrics>>(iter: I) -> EpochMetrics {
        iter.fold(EpochMetrics::default(), |acc, e| acc + e)
    }
}

impl Serialize for EpochMetrics {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("zeta_us".into(), self.zeta.to_value()),
            ("phi_us".into(), self.phi.to_value()),
            ("uploaded_us".into(), self.uploaded.to_value()),
            ("upload_on_time_us".into(), self.upload_on_time.to_value()),
            ("contacts_total".into(), self.contacts_total.to_value()),
            ("contacts_probed".into(), self.contacts_probed.to_value()),
            ("beacons".into(), self.beacons.to_value()),
        ])
    }
}

/// The error for the one shape this decoder deliberately refuses: the
/// float-seconds metric records journal v2 carried. The v2 decoder was
/// removed after a deprecation cycle; naming the old shape here keeps the
/// failure actionable instead of a bare missing-field error.
fn refuse_legacy_shape(ty: &str) -> serde::Error {
    serde::Error::custom(format!(
        "{ty}: legacy float-seconds metrics (journal v2) are no longer readable by this \
         build; re-record the run to get a v3 journal"
    ))
}

impl Deserialize for EpochMetrics {
    /// Accepts the integer-µs shape (journal v3: `zeta_us` …) only. The
    /// legacy float-seconds shape (journal v2: `zeta` …) is refused with
    /// a migration hint.
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let map = v
            .as_map()
            .ok_or_else(|| serde::Error::expected("EpochMetrics map", v))?;
        if v.get("zeta_us").is_none() && v.get("zeta").is_some() {
            return Err(refuse_legacy_shape("EpochMetrics"));
        }
        Ok(EpochMetrics {
            zeta: serde::__field(map, "zeta_us", "EpochMetrics")?,
            phi: serde::__field(map, "phi_us", "EpochMetrics")?,
            uploaded: DataSize::from_airtime(serde::__field(map, "uploaded_us", "EpochMetrics")?),
            upload_on_time: serde::__field(map, "upload_on_time_us", "EpochMetrics")?,
            contacts_total: serde::__field(map, "contacts_total", "EpochMetrics")?,
            contacts_probed: serde::__field(map, "contacts_probed", "EpochMetrics")?,
            beacons: serde::__field(map, "beacons", "EpochMetrics")?,
        })
    }
}

/// Metrics of a whole run, per epoch plus convenience aggregates.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunMetrics {
    epochs: Vec<EpochMetrics>,
    /// Probing on-time per slot-of-epoch across the whole run, integer µs.
    slot_phi: Vec<SimDuration>,
    /// Probed capacity per slot-of-epoch across the whole run, integer µs.
    slot_zeta: Vec<SimDuration>,
    /// Charges aimed at a slot index `>= slots` (a caller bug): counted and
    /// folded into the last slot rather than silently dropped. Debug builds
    /// panic instead.
    out_of_range_slot_charges: u64,
}

impl RunMetrics {
    /// Creates run metrics with `epochs` zeroed epochs and the default
    /// 24-slot per-slot breakdown.
    #[must_use]
    pub fn with_epochs(epochs: usize) -> Self {
        Self::with_epochs_and_slots(epochs, 24)
    }

    /// Creates run metrics with an explicit slot-of-epoch breakdown size.
    #[must_use]
    pub fn with_epochs_and_slots(epochs: usize, slots: usize) -> Self {
        RunMetrics {
            epochs: vec![EpochMetrics::default(); epochs],
            slot_phi: vec![SimDuration::ZERO; slots],
            slot_zeta: vec![SimDuration::ZERO; slots],
            out_of_range_slot_charges: 0,
        }
    }

    /// Probing on-time per slot-of-epoch, aggregated over the run (exact).
    ///
    /// This is the end-to-end check that a rush-hour mechanism actually
    /// concentrates its energy where it claims to.
    #[must_use]
    pub fn slot_phi(&self) -> &[SimDuration] {
        &self.slot_phi
    }

    /// Probed capacity per slot-of-epoch, aggregated over the run (exact).
    #[must_use]
    pub fn slot_zeta(&self) -> &[SimDuration] {
        &self.slot_zeta
    }

    /// Probing on-time per slot-of-epoch, seconds (reporting conversion).
    #[must_use]
    pub fn slot_phi_secs(&self) -> Vec<f64> {
        self.slot_phi.iter().map(|d| d.as_secs_f64()).collect()
    }

    /// Probed capacity per slot-of-epoch, seconds (reporting conversion).
    #[must_use]
    pub fn slot_zeta_secs(&self) -> Vec<f64> {
        self.slot_zeta.iter().map(|d| d.as_secs_f64()).collect()
    }

    /// Charges that named a slot index out of range (see
    /// [`RunMetrics::charge_slot_phi`]); always zero for a correct driver.
    #[must_use]
    pub fn out_of_range_slot_charges(&self) -> u64 {
        self.out_of_range_slot_charges
    }

    /// Clamps `slot` into range, counting (and, in debug builds, panicking
    /// on) out-of-range indices: a slot ledger must never silently drop a
    /// charge, or the per-slot totals stop reconciling with the epoch
    /// totals. Returns `None` only for a zero-slot ledger, where there is
    /// no slot to saturate into (the charge is still counted).
    fn clamp_slot(&mut self, slot: usize) -> Option<usize> {
        if slot < self.slot_phi.len() {
            return Some(slot);
        }
        debug_assert!(
            false,
            "slot {slot} out of range for {}-slot ledger",
            self.slot_phi.len()
        );
        self.out_of_range_slot_charges += 1;
        self.slot_phi.len().checked_sub(1)
    }

    /// Adds probing on-time to a slot's ledger (simulator internal).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `slot` is out of range; release builds
    /// saturate to the last slot and count the event
    /// ([`RunMetrics::out_of_range_slot_charges`]).
    pub(crate) fn charge_slot_phi(&mut self, slot: usize, amount: SimDuration) {
        if let Some(slot) = self.clamp_slot(slot) {
            self.slot_phi[slot] += amount;
        }
    }

    /// Adds probed capacity to a slot's ledger (simulator internal).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `slot` is out of range; release builds
    /// saturate to the last slot and count the event.
    pub(crate) fn charge_slot_zeta(&mut self, slot: usize, amount: SimDuration) {
        if let Some(slot) = self.clamp_slot(slot) {
            self.slot_zeta[slot] += amount;
        }
    }

    /// Per-epoch metrics.
    #[must_use]
    pub fn epochs(&self) -> &[EpochMetrics] {
        &self.epochs
    }

    /// Mutable access for the simulators in this crate.
    pub(crate) fn epoch_mut(&mut self, idx: usize) -> &mut EpochMetrics {
        &mut self.epochs[idx]
    }

    /// Number of epochs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.epochs.len()
    }

    /// `true` when no epochs were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.epochs.is_empty()
    }

    /// The exact sum of every epoch's ledger.
    #[must_use]
    pub fn totals(&self) -> EpochMetrics {
        self.epochs.iter().copied().sum()
    }

    /// Mean probed capacity per epoch, seconds (`ζ` of Figs 7a/8a).
    #[must_use]
    pub fn mean_zeta_per_epoch(&self) -> f64 {
        self.mean(|e| e.zeta())
    }

    /// Mean probing overhead per epoch, seconds (`Φ` of Figs 7b/8b).
    #[must_use]
    pub fn mean_phi_per_epoch(&self) -> f64 {
        self.mean(|e| e.phi())
    }

    /// Mean uploaded data per epoch, airtime seconds.
    #[must_use]
    pub fn mean_uploaded_per_epoch(&self) -> f64 {
        self.mean(|e| e.uploaded())
    }

    /// Overall unit cost: total Φ over total ζ (`ρ` of Figs 7c/8c);
    /// `None` when nothing was probed. The totals are exact integer sums.
    #[must_use]
    pub fn overall_rho(&self) -> Option<f64> {
        self.totals().rho()
    }

    /// Total probing on-time across the run, as an exact duration.
    #[must_use]
    pub fn total_phi(&self) -> SimDuration {
        self.totals().phi_exact()
    }

    /// Total probed capacity across the run, as an exact duration.
    #[must_use]
    pub fn total_zeta(&self) -> SimDuration {
        self.totals().zeta_exact()
    }

    /// Total contacts probed across the run.
    #[must_use]
    pub fn total_contacts_probed(&self) -> u64 {
        self.epochs.iter().map(|e| e.contacts_probed).sum()
    }

    /// Sample standard deviation of per-epoch ζ (the error bars of Fig 7a).
    #[must_use]
    pub fn zeta_std_dev(&self) -> f64 {
        self.std_dev(|e| e.zeta())
    }

    fn mean<F: Fn(&EpochMetrics) -> f64>(&self, f: F) -> f64 {
        if self.epochs.is_empty() {
            return 0.0;
        }
        // snip-lint: allow(float-ledger): "derived display statistic over finished integer ledgers, not an accumulator"
        self.epochs.iter().map(f).sum::<f64>() / self.epochs.len() as f64
    }

    fn std_dev<F: Fn(&EpochMetrics) -> f64 + Copy>(&self, f: F) -> f64 {
        let n = self.epochs.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean(f);
        let var = self
            .epochs
            .iter()
            .map(|e| (f(e) - mean).powi(2))
            // snip-lint: allow(float-ledger): "derived display statistic over finished integer ledgers, not an accumulator"
            .sum::<f64>()
            / (n - 1) as f64;
        var.sqrt()
    }
}

impl Serialize for RunMetrics {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("epochs".into(), self.epochs.to_value()),
            ("slot_phi_us".into(), self.slot_phi.to_value()),
            ("slot_zeta_us".into(), self.slot_zeta.to_value()),
            (
                "out_of_range_slot_charges".into(),
                self.out_of_range_slot_charges.to_value(),
            ),
        ])
    }
}

impl Deserialize for RunMetrics {
    /// Accepts the integer-µs shape (journal v3: `slot_phi_us` …) only;
    /// the legacy float-seconds shape (journal v2: `slot_phi` …) is
    /// refused with a migration hint, as in [`EpochMetrics::from_value`].
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let map = v
            .as_map()
            .ok_or_else(|| serde::Error::expected("RunMetrics map", v))?;
        if v.get("slot_phi_us").is_none() && v.get("slot_phi").is_some() {
            return Err(refuse_legacy_shape("RunMetrics"));
        }
        Ok(RunMetrics {
            epochs: serde::__field(map, "epochs", "RunMetrics")?,
            slot_phi: serde::__field(map, "slot_phi_us", "RunMetrics")?,
            slot_zeta: serde::__field(map, "slot_zeta_us", "RunMetrics")?,
            out_of_range_slot_charges: match v.get("out_of_range_slot_charges") {
                Some(n) => u64::from_value(n)
                    .map_err(|e| serde::Error::custom(format!("out_of_range_slot_charges: {e}")))?,
                None => 0,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epoch(zeta_s: u64, phi_s: u64, uploaded_s: u64, probed: u64, total: u64) -> EpochMetrics {
        let mut e = EpochMetrics {
            contacts_total: total,
            contacts_probed: probed,
            beacons: 1000,
            ..EpochMetrics::default()
        };
        e.charge_zeta(SimDuration::from_secs(zeta_s));
        e.charge_phi(SimDuration::from_secs(phi_s));
        e.charge_uploaded(DataSize::from_airtime_secs(uploaded_s));
        e.charge_upload_on_time(SimDuration::from_secs(zeta_s));
        e
    }

    fn sample() -> RunMetrics {
        let mut m = RunMetrics::with_epochs(2);
        *m.epoch_mut(0) = epoch(10, 30, 8, 10, 88);
        *m.epoch_mut(1) = epoch(20, 30, 16, 20, 90);
        m
    }

    #[test]
    fn epoch_rho_and_ratio() {
        let m = sample();
        assert_eq!(m.epochs()[0].rho().unwrap(), 3.0);
        assert!((m.epochs()[0].probe_ratio().unwrap() - 10.0 / 88.0).abs() < 1e-12);
        let empty = EpochMetrics::default();
        assert!(empty.rho().is_none());
        assert!(empty.probe_ratio().is_none());
    }

    #[test]
    fn aggregates() {
        let m = sample();
        assert!((m.mean_zeta_per_epoch() - 15.0).abs() < 1e-12);
        assert!((m.mean_phi_per_epoch() - 30.0).abs() < 1e-12);
        assert!((m.mean_uploaded_per_epoch() - 12.0).abs() < 1e-12);
        assert_eq!(m.overall_rho().unwrap(), 2.0);
        assert_eq!(m.total_contacts_probed(), 30);
        assert_eq!(m.total_phi(), SimDuration::from_secs(60));
        assert_eq!(m.total_zeta(), SimDuration::from_secs(30));
    }

    #[test]
    fn std_dev_of_zeta() {
        let m = sample();
        // Samples 10, 20 → sd = √50 ≈ 7.071.
        assert!((m.zeta_std_dev() - 50.0f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn empty_run_is_safe() {
        let m = RunMetrics::default();
        assert!(m.is_empty());
        assert_eq!(m.mean_zeta_per_epoch(), 0.0);
        assert!(m.overall_rho().is_none());
        assert_eq!(m.zeta_std_dev(), 0.0);
    }

    #[test]
    fn single_epoch_std_dev_is_zero() {
        let m = RunMetrics::with_epochs(1);
        assert_eq!(m.zeta_std_dev(), 0.0);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn epoch_merge_is_exact_integer_addition() {
        let a = epoch(10, 30, 8, 10, 88);
        let b = epoch(20, 30, 16, 20, 90);
        let sum = a + b;
        assert_eq!(sum.zeta_exact(), SimDuration::from_secs(30));
        assert_eq!(sum.phi_exact(), SimDuration::from_secs(60));
        assert_eq!(sum.contacts_probed, 30);
        let folded: EpochMetrics = [a, b].into_iter().sum();
        assert_eq!(folded, sum);
        assert_eq!(sample().totals(), sum);
    }

    #[test]
    fn serde_round_trips_the_integer_shape() {
        let m = sample();
        let v = m.to_value();
        // Time ledgers travel as integers, never floats.
        assert!(matches!(
            v.get("epochs").unwrap().as_seq().unwrap()[0].get("zeta_us"),
            Some(Value::U64(_))
        ));
        assert_eq!(RunMetrics::from_value(&v).unwrap(), m);
        let e = m.epochs()[0];
        assert_eq!(EpochMetrics::from_value(&e.to_value()).unwrap(), e);
    }

    #[test]
    fn legacy_float_seconds_shape_is_refused_with_a_migration_hint() {
        // The v2 journal shape: seconds as floats, old field names. The
        // decoder was removed at the end of the v2 sunset; decoding must
        // fail loudly, name the shape and say how to get a readable
        // journal, never mis-read.
        let legacy = Value::Map(vec![
            ("zeta".into(), Value::F64(8.8)),
            ("phi".into(), Value::F64(86.4)),
            ("uploaded".into(), Value::F64(8.0)),
            ("upload_on_time".into(), Value::F64(8.8)),
            ("contacts_total".into(), Value::U64(88)),
            ("contacts_probed".into(), Value::U64(10)),
            ("beacons".into(), Value::U64(1000)),
        ]);
        let err = EpochMetrics::from_value(&legacy).unwrap_err();
        assert!(err.to_string().contains("journal v2"), "{err}");
        assert!(err.to_string().contains("re-record"), "{err}");

        let legacy_run = Value::Map(vec![
            ("epochs".into(), Value::Seq(vec![])),
            ("slot_phi".into(), Value::Seq(vec![Value::F64(1.5)])),
            ("slot_zeta".into(), Value::Seq(vec![Value::F64(0.5)])),
        ]);
        let err = RunMetrics::from_value(&legacy_run).unwrap_err();
        assert!(err.to_string().contains("journal v2"), "{err}");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_slot_charge_panics_in_debug() {
        let mut m = RunMetrics::with_epochs_and_slots(1, 24);
        m.charge_slot_phi(24, SimDuration::from_secs(1));
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn out_of_range_slot_charge_saturates_with_count_in_release() {
        let mut m = RunMetrics::with_epochs_and_slots(1, 24);
        m.charge_slot_phi(24, SimDuration::from_secs(1));
        m.charge_slot_zeta(99, SimDuration::from_secs(2));
        assert_eq!(m.out_of_range_slot_charges(), 2);
        // Saturated into the last slot, not dropped.
        assert_eq!(m.slot_phi()[23], SimDuration::from_secs(1));
        assert_eq!(m.slot_zeta()[23], SimDuration::from_secs(2));
    }

    #[test]
    fn corrupt_legacy_floats_are_decode_errors_not_panics() {
        // A corrupt v2 journal reaches this decoder via `snip replay`; it
        // must surface an error, never abort the process. Post-sunset the
        // whole legacy shape is refused before any float is even looked
        // at, corrupt or not.
        for bad in [-1.0, f64::NAN, f64::INFINITY, 1e300] {
            let legacy = Value::Map(vec![
                ("zeta".into(), Value::F64(bad)),
                ("phi".into(), Value::F64(0.0)),
                ("uploaded".into(), Value::F64(0.0)),
                ("upload_on_time".into(), Value::F64(0.0)),
                ("contacts_total".into(), Value::U64(0)),
                ("contacts_probed".into(), Value::U64(0)),
                ("beacons".into(), Value::U64(0)),
            ]);
            let err = EpochMetrics::from_value(&legacy).unwrap_err();
            assert!(err.to_string().contains("journal v2"), "{bad}: {err}");
        }
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn zero_slot_ledger_counts_instead_of_wrapping() {
        // `len() - 1` on an empty ledger must not wrap to usize::MAX.
        let mut m = RunMetrics::with_epochs_and_slots(1, 0);
        m.charge_slot_phi(0, SimDuration::from_secs(1));
        assert_eq!(m.out_of_range_slot_charges(), 1);
    }

    #[test]
    fn in_range_slot_charges_accumulate_exactly() {
        let mut m = RunMetrics::with_epochs_and_slots(1, 24);
        for _ in 0..1_000 {
            m.charge_slot_phi(7, SimDuration::from_micros(20_000));
        }
        assert_eq!(m.slot_phi()[7], SimDuration::from_secs(20));
        assert_eq!(m.out_of_range_slot_charges(), 0);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The whole point of the integer ledgers: totals equal the
            /// exact sum of an arbitrary charge sequence, regardless of
            /// interleaving — no float reordering drift. (The f64 version
            /// of this property is false: `(a + b) + c ≠ a + (b + c)`.)
            #[test]
            fn prop_ledger_totals_are_the_exact_charge_sum(
                charges in proptest::collection::vec(
                    (0usize..4, 0usize..24, 0u64..100_000_000, 0u64..100_000_000),
                    0..200,
                ),
            ) {
                let mut m = RunMetrics::with_epochs(4);
                let mut phi_sum = 0u64;
                let mut zeta_sum = 0u64;
                for &(epoch, slot, phi_us, zeta_us) in &charges {
                    let phi = SimDuration::from_micros(phi_us);
                    let zeta = SimDuration::from_micros(zeta_us);
                    m.epoch_mut(epoch).charge_phi(phi);
                    m.epoch_mut(epoch).charge_zeta(zeta);
                    m.charge_slot_phi(slot, phi);
                    m.charge_slot_zeta(slot, zeta);
                    phi_sum += phi_us;
                    zeta_sum += zeta_us;
                }
                prop_assert_eq!(m.total_phi(), SimDuration::from_micros(phi_sum));
                prop_assert_eq!(m.total_zeta(), SimDuration::from_micros(zeta_sum));
                // The per-slot ledgers reconcile with the per-epoch ledgers
                // exactly — they were fed the same charges.
                let slot_phi: SimDuration = m.slot_phi().iter().copied().sum();
                let slot_zeta: SimDuration = m.slot_zeta().iter().copied().sum();
                prop_assert_eq!(slot_phi, m.total_phi());
                prop_assert_eq!(slot_zeta, m.total_zeta());
                // And the exact epoch merge agrees with the totals.
                prop_assert_eq!(m.totals().phi_exact(), m.total_phi());
                // Serde round-trip preserves the exact ledgers.
                prop_assert_eq!(&RunMetrics::from_value(&m.to_value()).unwrap(), &m);
            }
        }
    }
}
