//! Model programs: the engine's two lock-free protocols, reduced to
//! their synchronization skeletons and checked by [`crate::model`].
//!
//! Each program exists in a *correct* variant — proven to satisfy its
//! invariants on every explored interleaving — and in deliberately broken
//! variants ([`SeededBug`]) that the explorer must catch, demonstrating
//! the checker has teeth:
//!
//! * [`PublishVsLookup`] — the `LookupService` RCU swap: a publisher
//!   writes the payload then publishes the generation; readers must never
//!   observe a generation newer than the payload (**never-torn**) and
//!   generations must be **monotonic** per reader. `RelaxedGenStore`
//!   downgrades the publication to `Relaxed`, letting the generation
//!   commit out of the store buffer ahead of the payload.
//! * [`CacheProbe`] — `apply_updates` vs. an `LpmCache` probe: a worker
//!   pins a snapshot and probes a generation-tagged cache; a hit must
//!   return the pinned snapshot's value (**no-stale-cache-hit**).
//!   `StaleCacheTag` removes the generation tag check — the exact failure
//!   mode the `GenTag` discipline exists to prevent.

use crate::model::{Ctx, MemOrdering, ModelSpec, Step};

/// Deliberately introduced protocol bugs the explorer must detect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeededBug {
    /// Publish the generation with `Relaxed` instead of `Release`.
    RelaxedGenStore,
    /// Cache probe skips the generation-tag comparison.
    StaleCacheTag,
}

const DATA: usize = 0;
const GEN: usize = 1;

/// RCU publish vs. concurrent lookups over a payload/generation pair.
pub struct PublishVsLookup {
    /// Number of publishes (generations 1..=publishes).
    pub publishes: usize,
    /// Number of concurrent reader threads.
    pub readers: usize,
    /// Generation+payload observations per reader.
    pub rounds: usize,
    /// Optional seeded bug.
    pub bug: Option<SeededBug>,
}

impl PublishVsLookup {
    /// Correct protocol at a size that yields well over 10k distinct
    /// interleavings.
    pub fn correct() -> Self {
        PublishVsLookup {
            publishes: 3,
            readers: 2,
            rounds: 3,
            bug: None,
        }
    }

    /// `Relaxed` generation store — must be caught as a torn read.
    pub fn relaxed_gen_store() -> Self {
        PublishVsLookup {
            bug: Some(SeededBug::RelaxedGenStore),
            ..Self::correct()
        }
    }
}

impl ModelSpec for PublishVsLookup {
    fn name(&self) -> &'static str {
        "publish_vs_lookup"
    }
    fn atomics(&self) -> usize {
        2
    }
    fn threads(&self) -> usize {
        1 + self.readers
    }
    fn step(&self, t: usize, pc: usize, ctx: &mut Ctx<'_>) -> Step {
        if t == 0 {
            // Publisher: payload first (Relaxed, buffered), then the
            // generation (Release — drains the payload ahead of itself).
            if pc >= 2 * self.publishes {
                return Step::Done;
            }
            let g = (pc / 2 + 1) as u64;
            if pc.is_multiple_of(2) {
                ctx.store(DATA, g, MemOrdering::Relaxed);
            } else {
                let ord = if self.bug == Some(SeededBug::RelaxedGenStore) {
                    MemOrdering::Relaxed
                } else {
                    MemOrdering::Release
                };
                ctx.store(GEN, g, ord);
            }
            Step::Next
        } else {
            // Reader: observe generation, then payload. reg0 = last
            // observed generation this round, reg1 = previous round's.
            if pc >= 2 * self.rounds {
                return Step::Done;
            }
            if pc.is_multiple_of(2) {
                let g = ctx.load(GEN, MemOrdering::Acquire);
                if g < ctx.reg(1) {
                    return Step::Fail(format!(
                        "generation not monotonic: observed {g} after {}",
                        ctx.reg(1)
                    ));
                }
                ctx.set_reg(0, g);
                ctx.set_reg(1, g);
                Step::Next
            } else {
                let d = ctx.load(DATA, MemOrdering::Relaxed);
                let g = ctx.reg(0);
                if d < g {
                    return Step::Fail(format!(
                        "torn read: generation {g} published but payload still at {d}"
                    ));
                }
                Step::Next
            }
        }
    }
}

const SNAP: usize = 0;

/// Value of the model lookup under snapshot generation `g` — any injective
/// function of `g` works; the checker only needs hits to be attributable.
fn snapshot_value(g: u64) -> u64 {
    g * 7 + 1
}

/// Route updates being published vs. a worker probing a generation-tagged
/// result cache against its pinned snapshot.
pub struct CacheProbe {
    /// Number of publishes (snapshot generations 1..=publishes).
    pub publishes: usize,
    /// Number of concurrent cache-probing workers.
    pub workers: usize,
    /// Probe rounds per worker.
    pub rounds: usize,
    /// Optional seeded bug.
    pub bug: Option<SeededBug>,
}

impl CacheProbe {
    /// Correct generation-tagged cache at ≥10k-interleaving size.
    pub fn correct() -> Self {
        CacheProbe {
            publishes: 5,
            workers: 2,
            rounds: 5,
            bug: None,
        }
    }

    /// Probe without the generation-tag check — must produce a stale hit.
    pub fn stale_cache_tag() -> Self {
        CacheProbe {
            bug: Some(SeededBug::StaleCacheTag),
            ..Self::correct()
        }
    }
}

impl ModelSpec for CacheProbe {
    fn name(&self) -> &'static str {
        "apply_updates_vs_cache_probe"
    }
    fn atomics(&self) -> usize {
        1
    }
    fn threads(&self) -> usize {
        1 + self.workers
    }
    fn step(&self, t: usize, pc: usize, ctx: &mut Ctx<'_>) -> Step {
        if t == 0 {
            if pc >= self.publishes {
                return Step::Done;
            }
            ctx.store(SNAP, (pc + 1) as u64, MemOrdering::Release);
            Step::Next
        } else {
            // Worker round: pin the snapshot, probe the per-worker cache
            // (reg0 = fill tag + 1, 0 = empty; reg1 = cached value;
            // reg2 = previously pinned generation).
            if pc >= self.rounds {
                return Step::Done;
            }
            let pinned = ctx.load(SNAP, MemOrdering::Acquire);
            if pinned < ctx.reg(2) {
                return Step::Fail(format!(
                    "pinned generation not monotonic: {pinned} after {}",
                    ctx.reg(2)
                ));
            }
            ctx.set_reg(2, pinned);
            let hit = match self.bug {
                Some(SeededBug::StaleCacheTag) => ctx.reg(0) != 0,
                _ => ctx.reg(0) == pinned + 1,
            };
            let out = if hit {
                ctx.reg(1)
            } else {
                let fresh = snapshot_value(pinned);
                ctx.set_reg(0, pinned + 1);
                ctx.set_reg(1, fresh);
                fresh
            };
            if out != snapshot_value(pinned) {
                return Step::Fail(format!(
                    "stale cache hit: returned {out} for pinned generation {pinned} \
                     (expected {})",
                    snapshot_value(pinned)
                ));
            }
            Step::Next
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{explore, replay, ExplorerConfig};

    fn cfg() -> ExplorerConfig {
        ExplorerConfig::default()
    }

    #[test]
    fn publish_vs_lookup_is_never_torn_and_monotonic() {
        let report = explore(&PublishVsLookup::correct(), &cfg());
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(
            report.schedules >= 10_000,
            "only {} interleavings explored",
            report.schedules
        );
    }

    #[test]
    fn relaxed_generation_store_is_caught_and_replayable() {
        let spec = PublishVsLookup::relaxed_gen_store();
        let report = explore(&spec, &cfg());
        let failure = report.failure.expect("relaxed publish must tear");
        assert!(failure.message.contains("torn read"), "{failure}");
        let replayed = replay(&spec, &failure.seed).expect_err("seed must reproduce the tear");
        assert!(replayed.message.contains("torn read"), "{replayed}");
    }

    #[test]
    fn generation_tagged_cache_never_serves_stale_hits() {
        let report = explore(&CacheProbe::correct(), &cfg());
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(
            report.schedules >= 10_000,
            "only {} interleavings explored",
            report.schedules
        );
    }

    #[test]
    fn untagged_cache_probe_is_caught_serving_stale_hits() {
        let spec = CacheProbe::stale_cache_tag();
        let report = explore(&spec, &cfg());
        let failure = report.failure.expect("untagged probe must go stale");
        assert!(failure.message.contains("stale cache hit"), "{failure}");
        let replayed = replay(&spec, &failure.seed).expect_err("seed must reproduce");
        assert!(replayed.message.contains("stale cache hit"), "{replayed}");
    }
}
