//! Extension E7: ablating SNIP-RH's data gating (condition 2 of §VI-B).
//!
//! Condition 2 activates SNIP only when the node has buffered at least the
//! expected per-contact upload, "hence the probed contact capacity will not
//! be wasted". This ablation compares normal SNIP-RH against a variant that
//! probes all rush-hour time regardless of buffer state, at several targets:
//! without the gate, Φ is flat at the rush-hour maximum no matter how little
//! data there is to ship.
//!
//! Output columns: ζtarget, gated ζ/Φ/uploaded, ungated ζ/Φ/uploaded.

use rand::rngs::StdRng;
use rand::SeedableRng;

use snip_bench::{columns, header};
use snip_core::{ProbeContext, ProbeScheduler, ProbedContactInfo, SnipRh, SnipRhConfig};
use snip_mobility::{EpochProfile, TraceGenerator};
use snip_sim::{SimConfig, Simulation};
use snip_units::{DutyCycle, SimDuration};

/// SNIP-RH with condition 2 removed: reports an always-full buffer upward.
struct UngatedRh {
    inner: SnipRh,
}

impl ProbeScheduler for UngatedRh {
    fn decide(&mut self, ctx: &ProbeContext) -> Option<DutyCycle> {
        let ctx = ProbeContext {
            buffered_data: snip_units::DataSize::from_airtime_secs(1_000_000),
            ..*ctx
        };
        self.inner.decide(&ctx)
    }

    fn record_probed_contact(&mut self, info: &ProbedContactInfo) {
        self.inner.record_probed_contact(info);
    }

    fn name(&self) -> &str {
        "SNIP-RH-ungated"
    }

    fn phi_budget(&self) -> Option<SimDuration> {
        self.inner.phi_budget()
    }
}

fn main() {
    header(
        "E7",
        "data-gating ablation: SNIP-RH with and without condition 2",
    );
    columns(&[
        "zeta_target",
        "gated_zeta",
        "gated_phi",
        "gated_uploaded",
        "ungated_zeta",
        "ungated_phi",
        "ungated_uploaded",
    ]);

    let profile = EpochProfile::roadside();
    let trace = TraceGenerator::new(profile.clone())
        .epochs(14)
        .generate(&mut StdRng::seed_from_u64(707));

    for target in [8.0, 16.0, 24.0, 32.0] {
        let config = SimConfig::paper_defaults().with_zeta_target_secs(target);
        let base = SnipRhConfig::paper_defaults(profile.rush_marks())
            .with_phi_max(SimDuration::from_secs(864));

        let mut gated_sim = Simulation::new(config.clone(), &trace, SnipRh::new(base.clone()));
        let gated = gated_sim.run(&mut StdRng::seed_from_u64(708));

        let mut ungated_sim = Simulation::new(
            config,
            &trace,
            UngatedRh {
                inner: SnipRh::new(base),
            },
        );
        let ungated = ungated_sim.run(&mut StdRng::seed_from_u64(708));

        println!(
            "{target:.0}\t{:.2}\t{:.2}\t{:.2}\t{:.2}\t{:.2}\t{:.2}",
            gated.mean_zeta_per_epoch(),
            gated.mean_phi_per_epoch(),
            gated.mean_uploaded_per_epoch(),
            ungated.mean_zeta_per_epoch(),
            ungated.mean_phi_per_epoch(),
            ungated.mean_uploaded_per_epoch(),
        );
    }
    println!("# ungated probing burns ~144 s/epoch at every target; the gate");
    println!("# scales Φ with the data actually waiting to be uploaded.");
}
