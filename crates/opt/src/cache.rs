//! Process-wide memoization of SNIP-OPT plans.
//!
//! A sweep re-solves the two-step optimization for every `(Φmax, ζtarget)`
//! point, and a fleet run re-solves it for every node sharing a profile —
//! yet the plan is a pure function of `(model, profile, Φmax, ζtarget)`,
//! and one solve costs tens of microseconds (curve construction plus two
//! greedy allocations). This cache returns a stored clone for repeated
//! keys, so repeated sweep points and same-profile fleet nodes skip the
//! re-solve entirely.
//!
//! Keys are the *exact* inputs: the model and profile serialize through the
//! same shortest-round-trip JSON codec the journals use, and the two f64
//! scalars key on their raw bits. Two solves hit the same entry only when
//! every input is bit-identical, so caching can never change a result —
//! [`solve_cached`] is observationally equal to a fresh
//! [`TwoStepOptimizer::solve`].
//!
//! The cache can also be **seeded** from outside the process
//! ([`seed_plan`]): the fleet protocol ships plans solved by one worker to
//! every other worker, so a same-profile fleet solves each distinct key
//! once *globally* rather than once per process. Seeded entries are plans
//! some process solved with the same code version (the fleet handshake
//! refuses version skew), so a seeded hit is exactly as bit-faithful as a
//! local one; [`plan_cache_stats`] counts them separately
//! (`seeded`/`seeded_hits`) so cross-worker reuse is observable.
//!
//! Hit/miss counters are process-wide ([`plan_cache_stats`]). Storage is
//! bounded ([`MAX_CACHED_PLANS`]): past the cap, solves still happen and
//! return correctly, they just stop being remembered.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use serde::{json, Serialize as _};
use snip_model::{SlotProfile, SnipModel};

use crate::two_step::{OptPlan, TwoStepOptimizer};

/// One stored plan plus where it came from.
struct Entry {
    plan: OptPlan,
    /// `true` when the entry arrived via [`seed_plan`] rather than a local
    /// solve — a plan some *other* process computed.
    seeded: bool,
}

static CACHE: OnceLock<Mutex<BTreeMap<String, Entry>>> = OnceLock::new();
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static SEEDED: AtomicU64 = AtomicU64::new(0);
static SEEDED_HITS: AtomicU64 = AtomicU64::new(0);

/// Upper bound on stored plans. Sweeps and same-profile fleets reuse a
/// handful of keys; a heterogeneous 10⁵-node fleet could otherwise grow
/// the map (and its JSON key strings) without bound in a long-lived
/// worker. Once full, new plans are still solved and returned — they
/// just aren't stored.
pub const MAX_CACHED_PLANS: usize = 4_096;

fn cache() -> &'static Mutex<BTreeMap<String, Entry>> {
    CACHE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Registry handles mirroring the cache counters (plus solve timing) into
/// the process metrics registry, resolved once.
struct CacheMetrics {
    hits: &'static snip_obs::metrics::Counter,
    misses: &'static snip_obs::metrics::Counter,
    seeded_hits: &'static snip_obs::metrics::Counter,
    solve_us: &'static snip_obs::metrics::Histogram,
}

fn cache_metrics() -> &'static CacheMetrics {
    static METRICS: OnceLock<CacheMetrics> = OnceLock::new();
    METRICS.get_or_init(|| CacheMetrics {
        hits: snip_obs::metrics::counter("snip_opt_plan_hits_total"),
        misses: snip_obs::metrics::counter("snip_opt_plan_misses_total"),
        seeded_hits: snip_obs::metrics::counter("snip_opt_plan_seeded_hits_total"),
        solve_us: snip_obs::metrics::histogram("snip_opt_solve_us"),
    })
}

/// Cache-effectiveness counters, cumulative for the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Solves answered from the cache (including seeded entries).
    pub hits: u64,
    /// Solves that had to run the optimizer.
    pub misses: u64,
    /// Distinct plans currently stored.
    pub entries: usize,
    /// Plans injected from outside the process ([`seed_plan`]).
    pub seeded: u64,
    /// Hits answered by a seeded entry — solves this process skipped
    /// because another process had already done them.
    pub seeded_hits: u64,
}

/// The process-wide plan-cache counters.
#[must_use]
pub fn plan_cache_stats() -> PlanCacheStats {
    PlanCacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        entries: cache().lock().expect("plan cache poisoned").len(),
        seeded: SEEDED.load(Ordering::Relaxed),
        seeded_hits: SEEDED_HITS.load(Ordering::Relaxed),
    }
}

/// The exact cache key: full JSON of the generative inputs plus the raw
/// bits of the scalar inputs.
fn key(model: &SnipModel, profile: &SlotProfile, phi_max: f64, zeta_target: f64) -> String {
    format!(
        "{}|{}|{:016x}|{:016x}",
        json::to_string(&model.to_value()),
        json::to_string(&profile.to_value()),
        phi_max.to_bits(),
        zeta_target.to_bits()
    )
}

/// Injects an externally solved plan under its exact key (the fleet
/// protocol's cross-worker warm-up). A key already present — solved
/// locally or seeded earlier — is left untouched, so seeding can never
/// shadow a local solve; past [`MAX_CACHED_PLANS`] the plan is dropped.
pub fn seed_plan(key: impl Into<String>, plan: OptPlan) {
    let mut map = cache().lock().expect("plan cache poisoned");
    if map.len() >= MAX_CACHED_PLANS {
        return;
    }
    if let std::collections::btree_map::Entry::Vacant(slot) = map.entry(key.into()) {
        slot.insert(Entry { plan, seeded: true });
        SEEDED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Every plan currently stored, with its key — what a fleet worker ships
/// back to the coordinator. Seeded entries are included (the caller
/// deduplicates against what it has already seen); order is unspecified.
#[must_use]
pub fn cached_plans() -> Vec<(String, OptPlan)> {
    cached_plans_where(|_| true)
}

/// The stored plans whose key satisfies `keep`, cloned under the lock —
/// so a caller tracking what it has already reported pays only for the
/// (usually empty) delta instead of cloning the whole cache.
#[must_use]
pub fn cached_plans_where(keep: impl Fn(&str) -> bool) -> Vec<(String, OptPlan)> {
    cache()
        .lock()
        .expect("plan cache poisoned")
        .iter()
        .filter(|(k, _)| keep(k))
        .map(|(k, e)| (k.clone(), e.plan.clone()))
        .collect()
}

/// [`TwoStepOptimizer::solve`] through the process-wide plan cache.
///
/// Bit-identical inputs return a clone of the first solve's plan; anything
/// else solves fresh and stores the result. Safe under concurrency (the
/// solve itself runs outside the lock; a race solves twice and stores the
/// identical plan twice).
///
/// # Panics
///
/// Panics if `phi_max` or `zeta_target` is not positive (the optimizer's
/// own contract).
#[must_use]
pub fn solve_cached(
    model: SnipModel,
    profile: &SlotProfile,
    phi_max: f64,
    zeta_target: f64,
) -> OptPlan {
    let key = key(&model, profile, phi_max, zeta_target);
    let metrics = cache_metrics();
    if let Some(entry) = cache().lock().expect("plan cache poisoned").get(&key) {
        HITS.fetch_add(1, Ordering::Relaxed);
        metrics.hits.inc();
        if entry.seeded {
            SEEDED_HITS.fetch_add(1, Ordering::Relaxed);
            metrics.seeded_hits.inc();
        }
        return entry.plan.clone();
    }
    // snip-lint: allow(wall-clock): "solve-latency observability metric; never feeds plan content"
    let solve_start = std::time::Instant::now();
    let plan = TwoStepOptimizer::new(model, profile.clone()).solve(phi_max, zeta_target);
    metrics.solve_us.observe(solve_start.elapsed());
    MISSES.fetch_add(1, Ordering::Relaxed);
    metrics.misses.inc();
    let mut map = cache().lock().expect("plan cache poisoned");
    if map.len() < MAX_CACHED_PLANS {
        map.insert(
            key,
            Entry {
                plan: plan.clone(),
                seeded: false,
            },
        );
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_solve_equals_a_fresh_solve_and_counts_hits() {
        let model = SnipModel::default();
        let profile = SlotProfile::roadside();
        // Keys other tests will not collide with (bit-exact f64s).
        let (phi_max, target) = (86.4 + 1e-9, 16.0 + 1e-9);

        let before = plan_cache_stats();
        let first = solve_cached(model, &profile, phi_max, target);
        let fresh = TwoStepOptimizer::new(model, profile.clone()).solve(phi_max, target);
        assert_eq!(first, fresh, "caching must not change the plan");

        let second = solve_cached(model, &profile, phi_max, target);
        assert_eq!(second, first);
        let after = plan_cache_stats();
        assert!(after.hits > before.hits, "second solve must hit");
        assert!(after.misses > before.misses, "first solve must miss");
        assert!(after.entries >= 1);
    }

    #[test]
    fn different_inputs_occupy_different_entries() {
        let model = SnipModel::default();
        let profile = SlotProfile::roadside();
        let a = solve_cached(model, &profile, 864.0 + 1e-9, 16.0);
        let b = solve_cached(model, &profile, 864.0 + 1e-9, 24.0);
        assert!((a.zeta() - 16.0).abs() < 1e-9);
        assert!((b.zeta() - 24.0).abs() < 1e-9);
        // Bitwise keying: one-ULP-apart inputs occupy different entries.
        assert_ne!(
            key(&model, &profile, 16.0, 1.0),
            key(&model, &profile, f64::from_bits(16.0f64.to_bits() + 1), 1.0)
        );
    }

    #[test]
    fn seeded_plans_answer_solves_and_count_separately() {
        let model = SnipModel::default();
        let profile = SlotProfile::roadside();
        // A key nothing else in this test binary solves (distinct bits).
        let (phi_max, target) = (86.4 + 3e-9, 16.0 + 3e-9);
        // A plan no solve for this key returns: if solve_cached answers with
        // it, no local solve happened.
        let solved = TwoStepOptimizer::new(model, profile.clone()).solve(phi_max, target);
        let seeded = TwoStepOptimizer::new(model, profile.clone()).solve(phi_max, target * 1.5);
        assert_ne!(seeded, solved);

        let before = plan_cache_stats();
        seed_plan(key(&model, &profile, phi_max, target), seeded.clone());
        let got = solve_cached(model, &profile, phi_max, target);
        assert_eq!(got, seeded, "a seeded entry answers without a solve");
        let after = plan_cache_stats();
        assert!(after.seeded > before.seeded, "the seed is counted");
        assert!(
            after.seeded_hits > before.seeded_hits,
            "the hit is attributed to the seed"
        );
    }

    #[test]
    fn seeding_never_shadows_an_existing_entry() {
        let model = SnipModel::default();
        let profile = SlotProfile::roadside();
        let (phi_max, target) = (86.4 + 5e-9, 16.0 + 5e-9);
        let solved = solve_cached(model, &profile, phi_max, target);

        // Seeding a *different* plan under the same key must be a no-op.
        let other = TwoStepOptimizer::new(model, profile.clone()).solve(phi_max, target * 1.5);
        seed_plan(key(&model, &profile, phi_max, target), other);
        let again = solve_cached(model, &profile, phi_max, target);
        assert_eq!(again, solved, "the locally solved plan wins");
    }

    #[test]
    fn solve_time_and_counters_land_in_the_metrics_registry() {
        let model = SnipModel::default();
        let profile = SlotProfile::roadside();
        let (solves_before, _) = snip_obs::metrics::sum_histograms("snip_opt_solve_us");
        let _ = solve_cached(model, &profile, 86.4 + 9e-9, 16.0 + 9e-9);
        let _ = solve_cached(model, &profile, 86.4 + 9e-9, 16.0 + 9e-9);
        // Tests share the process registry and run concurrently, so only
        // a lower bound is stable: at least our one miss was timed.
        let (solves_after, _solve_us) = snip_obs::metrics::sum_histograms("snip_opt_solve_us");
        assert!(solves_after > solves_before, "the miss must time its solve");
        assert!(snip_obs::metrics::counter_value("snip_opt_plan_misses_total") >= 1);
        assert!(snip_obs::metrics::counter_value("snip_opt_plan_hits_total") >= 1);
    }

    #[test]
    fn cached_plans_lists_stored_entries_with_their_keys() {
        let model = SnipModel::default();
        let profile = SlotProfile::roadside();
        let (phi_max, target) = (86.4 + 7e-9, 16.0 + 7e-9);
        let plan = solve_cached(model, &profile, phi_max, target);
        let k = key(&model, &profile, phi_max, target);
        let listed = cached_plans();
        let found = listed.iter().find(|(lk, _)| *lk == k);
        assert_eq!(found.map(|(_, p)| p), Some(&plan));
    }
}
