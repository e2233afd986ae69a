//! The counters of the deleted SNIP-OPT plan cache, always zero.
//!
//! No plan cache exists: a run plans through its own planner
//! (`snip_core::Planner`), and nothing in this crate is static.
//! [`plan_cache_stats`] stays only because the repository benchmark
//! (`snipbench/`) reads it, until ROADMAP item 1 takes that read out.

/// The counters of a plan cache that no longer exists: all zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Solves answered from the cache.
    pub hits: u64,
    /// Solves that ran the optimizer.
    pub misses: u64,
    /// Distinct plans stored.
    pub entries: usize,
}

/// Zeros: no plan cache exists.
#[must_use]
pub fn plan_cache_stats() -> PlanCacheStats {
    PlanCacheStats {
        hits: 0,
        misses: 0,
        entries: 0,
    }
}
