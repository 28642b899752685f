//! Elastic MPCBF: a stack of generations that grows online.
//!
//! The paper sizes one filter from `(n_max, k, g)` and that sizing is
//! final; production traffic isn't. [`ElasticMpcbf`] keeps a **stack of
//! MPCBF generations** (each a [`ResilientMpcbf`], so even a mis-sized
//! generation stays lossless):
//!
//! * **inserts** land in the newest generation,
//! * **queries** OR across the stack newest-first (union semantics, so
//!   the stacked false-positive rate is bounded by the *sum* of the
//!   per-generation analytic envelopes — tracked by
//!   [`ElasticMpcbf::fpr_envelope`]),
//! * **removals** route by a per-generation exact membership check (the
//!   *roster*, an extension of [`ResilientMpcbf`]'s exact spill map to
//!   the whole generation), which eliminates the classic counting-filter
//!   hazard of decrementing a generation that never held the key.
//!
//! Scale-up triggers off the active generation's saturation gauges
//! ([`HealthReport::pressure`] plus the spill counters) crossing a
//! [`CapacityPolicy`] with hysteresis, opening a new generation sized by
//! the policy's growth factor. A **background compaction** then migrates
//! live keys out of the old generations into the right-sized active one
//! in *batch-granular* steps ([`ElasticMpcbf::step_compaction`]):
//! each key is inserted into the target **before** it is removed from
//! its source, so queries never lose the key and the summed envelope
//! stays a valid bound mid-migration; when every key has moved, the
//! drained source generations are dropped and their envelope terms
//! vanish.
//!
//! The per-generation roster costs exact-map memory proportional to the
//! live key count. That is the price of *online migration and correct
//! deletion* for a Bloom-family structure (a filter alone cannot
//! enumerate its keys); queries never touch the roster, so the paper's
//! word-access model still governs the hot path.
//!
//! Grounding: "Autoscaling Bloom Filter" (arXiv 1705.03934) for the
//! controlled trade-off during growth, "Dynamic Partition Bloom Filters"
//! (arXiv 1901.06493) for bounded-FPR generation stacking.

use crate::config::MpcbfConfig;
use crate::error::ConfigError;
use crate::metrics::{HealthReport, OpCost};
use crate::policy::CapacityPolicy;
use crate::resilient::ResilientMpcbf;
use crate::traits::{CountingFilter, Filter};
use crate::FilterError;
use mpcbf_hash::{Hasher128, Murmur3};
use std::collections::HashMap;

/// Salt folded into per-generation seeds so every generation hashes
/// independently of its siblings and of the base filter.
const GENERATION_SALT: u64 = 0x454c_4153_5449_4321; // "ELASTIC!"

/// Keys migrated per insert while an auto-mode compaction is in flight —
/// small enough that no single insert stalls, large enough that a
/// migration of `n` keys finishes within `n / 4` inserts.
const AUTO_STEP_KEYS: usize = 4;

/// splitmix64 finalizer: decorrelates sequential generation ids into
/// independent seed material.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A sizing decision for the next generation, produced by the capacity
/// trigger and applied by [`ElasticMpcbf::apply_scale`]. Kept as plain
/// numbers so a durability layer can log it ahead of applying it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleSpec {
    /// Memory budget of the new generation, in bits.
    pub memory_bits: u64,
    /// Expected element count the new generation is shaped for.
    pub expected_items: u64,
}

/// Read-only description of one live generation, for telemetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerationInfo {
    /// Monotonic generation id (never reused within one filter).
    pub id: u64,
    /// Net elements currently stored in this generation.
    pub items: u64,
    /// Memory budget this generation was built with, in bits.
    pub memory_bits: u64,
    /// Analytic false-positive envelope of this generation alone.
    pub fpr: f64,
    /// True if this generation's resilient spill currently holds keys.
    pub spilling: bool,
}

/// One generation: a resilient filter plus its exact roster.
#[derive(Debug, Clone)]
pub(crate) struct Generation<H: Hasher128> {
    /// Monotonic id, assigned from [`ElasticMpcbf::next_id`].
    pub(crate) id: u64,
    /// The filter holding this generation's keys.
    pub(crate) filter: ResilientMpcbf<H>,
    /// Exact key → multiplicity ledger for this generation; authoritative
    /// for removal routing and the enumeration source for migration.
    pub(crate) roster: HashMap<Vec<u8>, u32>,
    /// Memory budget the generation was built with (codec roundtrip).
    pub(crate) memory_bits: u64,
    /// Expected-items budget the generation was built with.
    pub(crate) expected_items: u64,
}

/// In-flight compaction state: which generations are draining and the
/// snapshot of keys still to move. The worklist is *reconstructable*
/// from the source rosters (migrated keys leave their source roster), so
/// snapshots persist only the source ids.
#[derive(Debug, Clone)]
pub(crate) struct Migration {
    /// Ids of the generations being drained (everything but the active
    /// generation at the time compaction began).
    pub(crate) source_ids: Vec<u64>,
    /// Remaining `(source_id, key)` pairs, sorted for determinism.
    pub(crate) worklist: Vec<(u64, Vec<u8>)>,
    /// Index of the next worklist entry to migrate.
    pub(crate) cursor: usize,
}

/// Base shape parameters every generation inherits (the knobs that stay
/// fixed while memory and expected items grow).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BaseParams {
    /// Base hash seed; generation `i` uses `seed ^ mix64(SALT + i)`.
    pub(crate) seed: u64,
    /// Hash count `k`.
    pub(crate) k: u32,
    /// Word accesses per op `g`.
    pub(crate) g: u32,
    /// Word size in bits `w`.
    pub(crate) w: u32,
    /// The first generation's `n_max`, the fallback when the Eq.-(11)
    /// heuristic cannot derive a shape for a scaled size.
    pub(crate) n_max: u32,
}

/// An autoscaling stack of MPCBF generations with bounded-FPR migration.
///
/// ```
/// use mpcbf_core::{CountingFilter, ElasticMpcbf, Filter, MpcbfConfig};
///
/// // A deliberately small first generation.
/// let config = MpcbfConfig::builder()
///     .memory_bits(64_000)
///     .expected_items(1_000)
///     .hashes(3)
///     .seed(9)
///     .build()
///     .unwrap();
/// let mut filter: ElasticMpcbf = ElasticMpcbf::new(config);
/// for i in 0..10_000u64 {
///     filter.insert(&i).unwrap(); // scales up online, never refuses
/// }
/// assert!((0..10_000u64).all(|i| filter.contains(&i)));
/// assert!(filter.scale_events() > 0);
/// assert!(filter.fpr_envelope() < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct ElasticMpcbf<H: Hasher128 = Murmur3> {
    pub(crate) generations: Vec<Generation<H>>,
    pub(crate) policy: CapacityPolicy,
    pub(crate) base: BaseParams,
    /// Next generation id to assign (monotonic, deterministic).
    pub(crate) next_id: u64,
    /// Hysteresis latch over the active generation's pressure.
    pub(crate) latched: bool,
    /// Inserts since the last full health probe.
    pub(crate) inserts_since_check: u64,
    /// Active generation's lifetime spill count at the last check, so a
    /// fresh spill forces an immediate probe.
    pub(crate) last_spilled: u64,
    /// Scale decision awaiting [`ElasticMpcbf::apply_scale`] (manual
    /// mode only; auto mode applies decisions inline).
    pub(crate) pending_scale: Option<ScaleSpec>,
    /// In-flight compaction, if any.
    pub(crate) migration: Option<Migration>,
    /// True: scale + compaction run inline on insert. False: the caller
    /// drives them via `scale_plan`/`apply_scale`/`step_compaction`
    /// (the durable server does, so it can WAL-log events first).
    pub(crate) auto: bool,
    /// Lifetime count of generations opened by scale-up.
    pub(crate) scale_events: u64,
    /// Lifetime count of completed compactions.
    pub(crate) compactions: u64,
    /// Lifetime count of keys migrated by compaction steps.
    pub(crate) migrated_keys: u64,
}

impl<H: Hasher128> ElasticMpcbf<H> {
    /// Creates an autoscaling filter: the first generation is built from
    /// `config` as-is, and the default [`CapacityPolicy`] drives inline
    /// scale-up and compaction.
    pub fn new(config: MpcbfConfig) -> Self {
        Self::build(config, CapacityPolicy::default(), true)
            .expect("default CapacityPolicy is valid")
    }

    /// Creates an autoscaling filter with an explicit policy.
    pub fn with_policy(config: MpcbfConfig, policy: CapacityPolicy) -> Result<Self, &'static str> {
        Self::build(config, policy, true)
    }

    /// Creates a *manually driven* elastic filter: the trigger still
    /// evaluates on insert, but scale-up and compaction only happen when
    /// the caller invokes [`ElasticMpcbf::apply_scale`],
    /// [`ElasticMpcbf::begin_compaction`] and
    /// [`ElasticMpcbf::step_compaction`]. This is the mode the durable
    /// server uses so every structural event is WAL-logged before it is
    /// applied.
    pub fn manual(config: MpcbfConfig, policy: CapacityPolicy) -> Result<Self, &'static str> {
        Self::build(config, policy, false)
    }

    fn build(
        config: MpcbfConfig,
        policy: CapacityPolicy,
        auto: bool,
    ) -> Result<Self, &'static str> {
        policy.validate()?;
        let shape = config.shape();
        let base = BaseParams {
            seed: config.seed(),
            k: shape.k,
            g: shape.g,
            w: shape.w,
            n_max: shape.n_max,
        };
        let memory_bits = shape.l * u64::from(shape.w);
        let expected_items = config.expected_items();
        let mut filter = ElasticMpcbf {
            generations: Vec::new(),
            policy,
            base,
            next_id: 0,
            latched: false,
            inserts_since_check: 0,
            last_spilled: 0,
            pending_scale: None,
            migration: None,
            auto,
            scale_events: 0,
            compactions: 0,
            migrated_keys: 0,
        };
        let spec = ScaleSpec {
            memory_bits,
            expected_items,
        };
        let gen = filter
            .new_generation(&spec)
            .map_err(|_| "base configuration cannot shape a generation")?;
        filter.generations.push(gen);
        Ok(filter)
    }

    /// Rebuilds a filter from codec-validated parts. The migration
    /// worklist is reconstructed from the rosters, so callers pass only
    /// the surviving source ids.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        generations: Vec<Generation<H>>,
        policy: CapacityPolicy,
        base: BaseParams,
        next_id: u64,
        latched: bool,
        auto: bool,
        pending_scale: Option<ScaleSpec>,
        migration_sources: Option<Vec<u64>>,
        scale_events: u64,
        compactions: u64,
        migrated_keys: u64,
    ) -> Self {
        let mut filter = ElasticMpcbf {
            generations,
            policy,
            base,
            next_id,
            latched,
            inserts_since_check: 0,
            last_spilled: 0,
            pending_scale,
            migration: None,
            auto,
            scale_events,
            compactions,
            migrated_keys,
        };
        filter.last_spilled = filter.active().filter.spilled_inserts();
        if let Some(sources) = migration_sources {
            filter.migration = Some(filter.rebuild_migration(sources));
        }
        filter
    }

    /// Deterministic seed for generation `id`.
    fn seed_for(&self, id: u64) -> u64 {
        self.base.seed ^ mix64(GENERATION_SALT.wrapping_add(id))
    }

    /// Builds the next generation for `spec`, assigning the next id. The
    /// shape is re-derived with the Eq.-(11) heuristic for the scaled
    /// size; if the heuristic refuses (degenerate ratios in tiny test
    /// shapes), the base generation's `n_max` is reused verbatim.
    fn new_generation(&mut self, spec: &ScaleSpec) -> Result<Generation<H>, ConfigError> {
        let id = self.next_id;
        let builder = || {
            MpcbfConfig::builder()
                .memory_bits(spec.memory_bits)
                .expected_items(spec.expected_items)
                .hashes(self.base.k)
                .accesses(self.base.g)
                .word_bits(self.base.w)
                .seed(self.seed_for(id))
        };
        let config = builder()
            .build()
            .or_else(|_| builder().n_max(self.base.n_max).build())?;
        self.next_id += 1;
        Ok(Generation {
            id,
            filter: ResilientMpcbf::new(config),
            roster: HashMap::new(),
            memory_bits: spec.memory_bits,
            expected_items: spec.expected_items,
        })
    }

    /// The active (newest) generation.
    fn active(&self) -> &Generation<H> {
        self.generations.last().expect("stack is never empty")
    }

    fn active_mut(&mut self) -> &mut Generation<H> {
        self.generations.last_mut().expect("stack is never empty")
    }

    /// Number of live generations in the stack.
    pub fn generation_count(&self) -> usize {
        self.generations.len()
    }

    /// Telemetry snapshot of every live generation, oldest first.
    pub fn generation_infos(&self) -> Vec<GenerationInfo> {
        self.generations
            .iter()
            .map(|g| GenerationInfo {
                id: g.id,
                items: g.filter.items(),
                memory_bits: g.memory_bits,
                fpr: g.filter.fpr_envelope(),
                spilling: g.filter.spill_occupancy() > 0,
            })
            .collect()
    }

    /// Net elements stored across the whole stack.
    pub fn items(&self) -> u64 {
        self.generations.iter().map(|g| g.filter.items()).sum()
    }

    /// The capacity policy driving the scale trigger.
    pub fn policy(&self) -> &CapacityPolicy {
        &self.policy
    }

    /// Lifetime count of generations opened by scale-up.
    pub fn scale_events(&self) -> u64 {
        self.scale_events
    }

    /// Lifetime count of completed compactions.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Lifetime count of keys migrated by compaction.
    pub fn migrated_keys(&self) -> u64 {
        self.migrated_keys
    }

    /// True while a compaction is draining old generations.
    pub fn compacting(&self) -> bool {
        self.migration.is_some()
    }

    /// Analytic false-positive envelope of the whole stack: the sum of
    /// each generation's envelope (union bound over the OR'd queries).
    /// Mid-migration keys are double-counted in source and target, so
    /// the sum remains a valid upper bound at every step.
    pub fn fpr_envelope(&self) -> f64 {
        self.generations
            .iter()
            .map(|g| g.filter.fpr_envelope())
            .sum()
    }

    /// Saturation snapshot of the *active* generation — the one the
    /// scale trigger watches. Older, draining generations no longer take
    /// inserts, so their pressure is not actionable.
    pub fn health(&self) -> HealthReport {
        self.active().filter.health()
    }

    /// The active generation's capacity pressure (see
    /// [`HealthReport::pressure`]).
    pub fn pressure(&self) -> f64 {
        self.health().pressure()
    }

    /// Structural self-check across every generation's storages.
    pub fn verify(&self) -> Result<(), FilterError> {
        for gen in &self.generations {
            gen.filter.verify()?;
        }
        Ok(())
    }

    /// The scale decision currently awaiting [`ElasticMpcbf::apply_scale`]
    /// (manual mode; always `None` in auto mode, which applies inline).
    pub fn scale_plan(&self) -> Option<ScaleSpec> {
        self.pending_scale
    }

    /// Opens a new generation sized to `spec` and makes it the active
    /// insert target; the previous active generation is sealed (takes no
    /// further inserts) until compaction drains it. Clears any pending
    /// plan and resets the trigger latch — the fresh generation starts
    /// unpressured.
    pub fn apply_scale(&mut self, spec: &ScaleSpec) -> Result<(), ConfigError> {
        let gen = self.new_generation(spec)?;
        self.generations.push(gen);
        self.pending_scale = None;
        self.latched = false;
        self.inserts_since_check = 0;
        self.last_spilled = 0;
        self.scale_events += 1;
        Ok(())
    }

    /// Starts draining every sealed generation into the active one.
    /// Returns `false` (and does nothing) if a compaction is already in
    /// flight or there is nothing to drain.
    pub fn begin_compaction(&mut self) -> bool {
        if self.migration.is_some() || self.generations.len() < 2 {
            return false;
        }
        let sources: Vec<u64> = self.generations[..self.generations.len() - 1]
            .iter()
            .map(|g| g.id)
            .collect();
        self.migration = Some(self.rebuild_migration(sources));
        true
    }

    /// Builds deterministic migration state for `source_ids`: the
    /// worklist is every key currently in a source roster, sorted by
    /// `(source id, key)`. Ids without a live generation are dropped.
    pub(crate) fn rebuild_migration(&self, source_ids: Vec<u64>) -> Migration {
        let live: Vec<u64> = source_ids
            .into_iter()
            .filter(|id| self.generations.iter().any(|g| g.id == *id))
            .collect();
        let mut worklist: Vec<(u64, Vec<u8>)> = Vec::new();
        for gen in &self.generations {
            if live.contains(&gen.id) {
                worklist.extend(gen.roster.keys().map(|k| (gen.id, k.clone())));
            }
        }
        worklist.sort_unstable();
        Migration {
            source_ids: live,
            worklist,
            cursor: 0,
        }
    }

    /// Migrates up to `max_keys` keys from the draining generations into
    /// the active one, returning how many keys actually moved. Each key
    /// is inserted into the target *before* it is removed from its
    /// source, so a query racing the step (in a wrapper that interleaves
    /// them) never observes the key absent. When the worklist is
    /// exhausted, the drained source generations are dropped from the
    /// stack and the compaction completes. Returns `0` once idle.
    pub fn step_compaction(&mut self, max_keys: usize) -> usize {
        let Some(mut migration) = self.migration.take() else {
            return 0;
        };
        let mut moved = 0usize;
        while moved < max_keys && migration.cursor < migration.worklist.len() {
            let (source_id, key) = migration.worklist[migration.cursor].clone();
            migration.cursor += 1;
            let Some(source_idx) = self.generations.iter().position(|g| g.id == source_id) else {
                continue;
            };
            // Re-read the live multiplicity at move time: removals since
            // the worklist snapshot may have drained this key.
            let count = match self.generations[source_idx].roster.get(&key) {
                Some(&c) if c > 0 => c,
                _ => continue,
            };
            // Copy-then-drain: the key lives in both generations for the
            // duration of this step, never in neither.
            for _ in 0..count {
                let active = self.active_mut();
                active
                    .filter
                    .insert_bytes_cost(&key)
                    .expect("resilient insert is lossless");
                *active.roster.entry(key.clone()).or_insert(0) += 1;
            }
            let source = &mut self.generations[source_idx];
            for _ in 0..count {
                source
                    .filter
                    .remove_bytes_cost(&key)
                    .expect("roster key must be removable from its generation");
            }
            source.roster.remove(&key);
            moved += 1;
            self.migrated_keys += 1;
        }
        if migration.cursor >= migration.worklist.len() {
            // Drained: drop the source generations and finish.
            self.generations
                .retain(|g| !migration.source_ids.contains(&g.id));
            debug_assert!(!self.generations.is_empty());
            self.compactions += 1;
        } else {
            self.migration = Some(migration);
        }
        moved
    }

    /// Computes the next-generation sizing from the active generation
    /// and the policy's growth factor.
    fn growth_spec(&self) -> ScaleSpec {
        let active = self.active();
        let grow = |v: u64| -> u64 {
            let scaled = (v as f64 * self.policy.growth).ceil();
            (scaled as u64).max(v.saturating_add(1))
        };
        let word = u64::from(self.base.w);
        let memory_bits = grow(active.memory_bits).div_ceil(word) * word;
        ScaleSpec {
            memory_bits,
            expected_items: grow(active.expected_items),
        }
    }

    /// Post-insert capacity trigger: probes the active generation's
    /// health every `check_interval` inserts (or immediately after a
    /// fresh spill), feeds it through the hysteresis latch, and on a
    /// rising edge either scales inline (auto) or parks a pending plan
    /// for the caller (manual).
    fn after_insert(&mut self) {
        self.inserts_since_check += 1;
        let spilled_now = self.active().filter.spilled_inserts();
        let due = self.inserts_since_check >= self.policy.check_interval
            || spilled_now > self.last_spilled;
        if due {
            self.inserts_since_check = 0;
            self.last_spilled = spilled_now;
            let health = self.active().filter.health();
            let was = self.latched;
            self.latched = self.policy.update(was, &health);
            if self.latched && self.generations.len() < self.policy.max_generations {
                let spec = self.growth_spec();
                if self.auto {
                    if self.apply_scale(&spec).is_ok() {
                        self.begin_compaction();
                    }
                } else if self.pending_scale.is_none() {
                    self.pending_scale = Some(spec);
                }
            }
        }
        if self.auto && self.migration.is_some() {
            self.step_compaction(AUTO_STEP_KEYS);
        }
    }
}

impl<H: Hasher128> Filter for ElasticMpcbf<H> {
    /// ORs the query across the stack, newest generation first (the
    /// newest holds the hottest keys); the cost sums every consulted
    /// generation, stopping at the first hit.
    fn contains_bytes_cost(&self, key: &[u8]) -> (bool, OpCost) {
        let mut total = OpCost::zero();
        for gen in self.generations.iter().rev() {
            let (hit, cost) = gen.filter.contains_bytes_cost(key);
            total = total.add(cost);
            if hit {
                return (true, total);
            }
        }
        (false, total)
    }

    /// Lossless insert into the active generation, followed by the
    /// capacity trigger (and, in auto mode, a bounded compaction step).
    /// The reported cost is the insert's own; trigger probes and
    /// migration work are host-side bookkeeping outside the paper's
    /// word-access model.
    fn insert_bytes_cost(&mut self, key: &[u8]) -> Result<OpCost, FilterError> {
        let active = self.active_mut();
        let cost = active.filter.insert_bytes_cost(key)?;
        *active.roster.entry(key.to_vec()).or_insert(0) += 1;
        self.after_insert();
        Ok(cost)
    }

    fn memory_bits(&self) -> u64 {
        self.generations
            .iter()
            .map(|g| g.filter.memory_bits())
            .sum()
    }

    fn num_hashes(&self) -> u32 {
        self.base.k
    }
}

impl<H: Hasher128> CountingFilter for ElasticMpcbf<H> {
    /// Removes one copy of `key` from the newest generation whose roster
    /// holds it. The roster check is exact, so a remove can never
    /// decrement a generation that does not hold the key — the stacked
    /// equivalent of the resilient spill drain.
    fn remove_bytes_cost(&mut self, key: &[u8]) -> Result<OpCost, FilterError> {
        let Some(idx) = self
            .generations
            .iter()
            .rposition(|g| g.roster.contains_key(key))
        else {
            return Err(FilterError::NotPresent);
        };
        let gen = &mut self.generations[idx];
        let cost = gen.filter.remove_bytes_cost(key)?;
        match gen.roster.get_mut(key) {
            Some(count) if *count > 1 => *count -= 1,
            _ => {
                gen.roster.remove(key);
            }
        }
        Ok(cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(seed: u64) -> MpcbfConfig {
        MpcbfConfig::builder()
            .memory_bits(32_768)
            .expected_items(500)
            .hashes(3)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn grows_under_overload_with_zero_false_negatives() {
        let mut f: ElasticMpcbf = ElasticMpcbf::new(small_config(3));
        for i in 0..8_000u64 {
            f.insert(&i).unwrap();
        }
        assert!(f.scale_events() > 0, "10x overload must scale");
        for i in 0..8_000u64 {
            assert!(f.contains(&i), "false negative for {i} after scaling");
        }
        assert_eq!(f.items(), 8_000);
        assert!(f.fpr_envelope().is_finite());
        assert_eq!(f.verify(), Ok(()));
    }

    #[test]
    fn compaction_drains_sealed_generations() {
        let mut f: ElasticMpcbf = ElasticMpcbf::new(small_config(5));
        for i in 0..6_000u64 {
            f.insert(&i).unwrap();
        }
        // Push any in-flight migration to completion.
        while f.compacting() {
            f.step_compaction(1024);
        }
        assert!(f.compactions() > 0, "auto mode must have compacted");
        for i in 0..6_000u64 {
            assert!(f.contains(&i));
        }
        assert_eq!(f.items(), 6_000);
        // Idle stepping is a no-op.
        assert_eq!(f.step_compaction(64), 0);
    }

    #[test]
    fn removals_route_to_the_owning_generation() {
        let mut f: ElasticMpcbf = ElasticMpcbf::new(small_config(7));
        for i in 0..4_000u64 {
            f.insert(&i).unwrap();
        }
        assert!(f.generation_count() > 1, "need a real stack for this test");
        for i in 0..4_000u64 {
            f.remove(&i).unwrap();
        }
        assert_eq!(f.items(), 0);
        assert_eq!(f.remove(&0u64), Err(FilterError::NotPresent));
    }

    #[test]
    fn duplicate_copies_survive_migration() {
        let mut f: ElasticMpcbf = ElasticMpcbf::new(small_config(11));
        for _ in 0..3 {
            f.insert(&"hot").unwrap();
        }
        for i in 0..5_000u64 {
            f.insert(&i).unwrap();
        }
        while f.compacting() {
            f.step_compaction(1024);
        }
        for _ in 0..3 {
            f.remove(&"hot").unwrap();
        }
        assert_eq!(f.remove(&"hot"), Err(FilterError::NotPresent));
    }

    #[test]
    fn manual_mode_parks_a_plan_instead_of_scaling() {
        let mut f: ElasticMpcbf =
            ElasticMpcbf::manual(small_config(13), CapacityPolicy::default()).unwrap();
        for i in 0..6_000u64 {
            f.insert(&i).unwrap();
        }
        assert_eq!(f.generation_count(), 1, "manual mode never scales inline");
        let spec = f.scale_plan().expect("overload must park a plan");
        assert!(spec.memory_bits > 32_768);
        f.apply_scale(&spec).unwrap();
        assert_eq!(f.generation_count(), 2);
        assert_eq!(f.scale_plan(), None, "apply clears the plan");
        assert!(f.begin_compaction());
        assert!(!f.begin_compaction(), "one compaction at a time");
        while f.step_compaction(512) > 0 {}
        assert_eq!(f.generation_count(), 1);
        for i in 0..6_000u64 {
            assert!(f.contains(&i));
        }
    }

    #[test]
    fn envelope_shrinks_when_compaction_finishes() {
        let mut f: ElasticMpcbf =
            ElasticMpcbf::manual(small_config(17), CapacityPolicy::default()).unwrap();
        for i in 0..6_000u64 {
            f.insert(&i).unwrap();
        }
        let spec = f.scale_plan().unwrap();
        f.apply_scale(&spec).unwrap();
        f.begin_compaction();
        let stacked = f.fpr_envelope();
        while f.step_compaction(512) > 0 {}
        // One right-sized generation bounds tighter than the saturated
        // stack did (the drained generation's term vanished).
        assert!(
            f.fpr_envelope() < stacked,
            "post-compaction envelope {} must beat stacked {}",
            f.fpr_envelope(),
            stacked
        );
    }

    #[test]
    fn removals_during_migration_stay_consistent() {
        let mut f: ElasticMpcbf =
            ElasticMpcbf::manual(small_config(19), CapacityPolicy::default()).unwrap();
        for i in 0..4_000u64 {
            f.insert(&i).unwrap();
        }
        let spec = f.scale_plan().unwrap();
        f.apply_scale(&spec).unwrap();
        f.begin_compaction();
        f.step_compaction(100);
        // Remove a slice spanning migrated and unmigrated keys mid-flight.
        for i in 0..2_000u64 {
            f.remove(&i).unwrap();
        }
        while f.step_compaction(512) > 0 {}
        for i in 0..2_000u64 {
            assert!(!f.contains(&i) || f.fpr_envelope() > 0.0); // may false-positive, never crash
            assert_eq!(f.remove(&i), Err(FilterError::NotPresent));
        }
        for i in 2_000..4_000u64 {
            assert!(f.contains(&i), "unremoved key {i} must survive");
        }
        assert_eq!(f.items(), 2_000);
    }

    #[test]
    fn generation_infos_report_the_stack() {
        let mut f: ElasticMpcbf = ElasticMpcbf::new(small_config(23));
        for i in 0..2_000u64 {
            f.insert(&i).unwrap();
        }
        let infos = f.generation_infos();
        assert_eq!(infos.len(), f.generation_count());
        assert_eq!(infos.iter().map(|g| g.items).sum::<u64>(), f.items());
        let ids: Vec<u64> = infos.iter().map(|g| g.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted, "stack is ordered oldest-first");
    }
}
