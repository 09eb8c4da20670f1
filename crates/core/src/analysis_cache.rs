//! Per-function analysis memoization for the pass pipeline.
//!
//! Every structural pass starts the same way: build the function's CFG,
//! often its loop nest and dataflow tables on top. Between passes that did
//! not modify a function, those results are identical — the paper's pipeline
//! recomputes them anyway. [`AnalysisCache`] memoizes CFG, loop structure,
//! liveness, and reaching definitions per function, keyed by a content hash
//! of the function's entries *and* their absolute positions, so any edit
//! that changes or moves a function automatically misses.
//!
//! Invalidation is driven by [`MaoUnit::apply`]: interior edits shift entry
//! ids (position is part of the key, so moved functions re-key), and
//! structural edits bump [`MaoUnit::context_epoch`], which flushes the whole
//! cache — necessary because CFG construction can read entries *outside*
//! the function's spans (jump tables in `.rodata`) that the key does not
//! cover.
//!
//! The cache is `Sync`: the parallel driver shares one instance across
//! worker threads. Analyses are built lazily behind [`OnceLock`]s and handed
//! out as [`Arc`]s, so a hit costs one hash, one lock acquisition, and a
//! refcount bump.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use mao_obs::Counter;

use crate::cfg::Cfg;
use crate::dataflow::{Liveness, ReachingDefs};
use crate::isa::IsaId;
use crate::loops::{find_loops, LoopNest};
use crate::relax::{Layout, RelaxError, Relaxed};
use crate::unit::{Function, MaoUnit};

/// Content key of a whole unit, for the layout slot. 128 bits (two
/// differently-seeded hashers) because a 64-bit collision between distinct
/// units would silently hand a request the wrong layout — at 2⁻⁶⁴ per pair
/// that is an acceptable risk only squared.
fn unit_key(unit: &MaoUnit) -> u128 {
    let mut lo = std::collections::hash_map::DefaultHasher::new();
    let mut hi = std::collections::hash_map::DefaultHasher::new();
    0x6d616f_u64.hash(&mut lo);
    0x4c4c564d_u64.hash(&mut hi);
    // The ISA is part of the key: two directive-only units with identical
    // entries but different targets must not share a layout slot.
    unit.isa().tag().hash(&mut lo);
    unit.isa().tag().hash(&mut hi);
    for e in unit.entries() {
        e.hash(&mut lo);
        e.hash(&mut hi);
    }
    (u128::from(hi.finish()) << 64) | u128::from(lo.finish())
}

/// Layout slots kept per unit content hash.
const LAYOUT_CAPACITY: usize = 64;

/// A persistent tier under the in-memory layout slot: solved layouts keyed
/// by unit content hash. `maod` plugs a disk-backed store in here (see
/// `mao-serve`'s `layout_disk`), so a daemon restart — or another instance
/// sharing the directory — skips straight past branch-relaxation fixpoint
/// solves for units it has laid out before. The trait lives in core because
/// the cache's layout lookup ([`AnalysisCache::layout`]) is the only spot
/// that knows both the key and whether the memory tier missed; core itself
/// ships no implementation.
pub trait LayoutStore: Send + Sync + std::fmt::Debug {
    /// A previously stored layout for `key`, if one decodes cleanly *and*
    /// was solved for the same instruction set (a frame tagged with a
    /// different ISA is as wrong as a checksum mismatch).
    fn load(&self, key: u128, isa: IsaId) -> Option<Layout>;
    /// Persist `layout` under `key`, tagged with the ISA it was solved for
    /// (errors are the store's problem — the tier is an accelerator, not a
    /// source of truth).
    fn store(&self, key: u128, isa: IsaId, layout: &Layout);
}

/// Content key of a function: its absolute spans plus every entry in them.
///
/// Positions are part of the key on purpose: cached analyses store absolute
/// entry ids (CFG blocks hold `EntryId`s), so a function whose body is
/// unchanged but *shifted* by an edit to an earlier function must miss.
pub fn function_key(unit: &MaoUnit, function: &Function) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    function.name.hash(&mut h);
    function.label_id.hash(&mut h);
    for span in &function.spans {
        span.start.hash(&mut h);
        span.end.hash(&mut h);
    }
    for id in function.entry_ids() {
        unit.entry(id).hash(&mut h);
    }
    h.finish()
}

/// Lazily built analyses for one function at one content key.
#[derive(Debug, Default)]
pub struct FunctionAnalyses {
    key: u64,
    cfg: OnceLock<Arc<Cfg>>,
    loops: OnceLock<Arc<LoopNest>>,
    liveness: OnceLock<Arc<Liveness>>,
    reaching: OnceLock<Arc<ReachingDefs>>,
}

impl FunctionAnalyses {
    /// The content key these analyses were built against.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The function's CFG (default build options).
    pub fn cfg(&self, unit: &MaoUnit, function: &Function) -> Arc<Cfg> {
        debug_assert_eq!(
            self.key,
            function_key(unit, function),
            "FunctionAnalyses used with a unit/function it was not keyed for"
        );
        self.cfg
            .get_or_init(|| Arc::new(Cfg::build(unit, function)))
            .clone()
    }

    /// The function's loop nest (Havlak over the cached CFG).
    pub fn loops(&self, unit: &MaoUnit, function: &Function) -> Arc<LoopNest> {
        self.loops
            .get_or_init(|| Arc::new(find_loops(&self.cfg(unit, function))))
            .clone()
    }

    /// Liveness over the cached CFG.
    pub fn liveness(&self, unit: &MaoUnit, function: &Function) -> Arc<Liveness> {
        self.liveness
            .get_or_init(|| Arc::new(Liveness::compute(unit, &self.cfg(unit, function))))
            .clone()
    }

    /// Reaching definitions over the cached CFG.
    pub fn reaching(&self, unit: &MaoUnit, function: &Function) -> Arc<ReachingDefs> {
        self.reaching
            .get_or_init(|| Arc::new(ReachingDefs::compute(unit, &self.cfg(unit, function))))
            .clone()
    }
}

#[derive(Debug, Default)]
struct CacheState {
    /// The `MaoUnit::context_epoch` the map contents are valid for.
    epoch: u64,
    /// Function name → (last-use stamp, analyses at the function's current
    /// key). The stamp drives LRU eviction when a capacity is set.
    map: HashMap<String, (u64, Arc<FunctionAnalyses>)>,
    /// Monotonic access clock for LRU stamps.
    clock: u64,
}

/// Hit/miss/eviction counters, cumulative over the cache's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that (re)built a `FunctionAnalyses` slot.
    pub misses: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
    /// Layout lookups answered from the content-keyed layout slot.
    pub layout_hits: u64,
    /// Layout lookups that missed the in-memory slot (subdivided by the
    /// disk counters below when a persistent tier is attached).
    pub layout_misses: u64,
    /// Memory-missed layout lookups answered by the persistent tier.
    pub layout_disk_hits: u64,
    /// Memory-missed layout lookups the persistent tier could not answer
    /// (only counted when a store is attached).
    pub layout_disk_misses: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0.0 when never used).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Layout hits as a fraction of all layout lookups (0.0 when unused).
    pub fn layout_hit_rate(&self) -> f64 {
        let total = self.layout_hits + self.layout_misses;
        if total == 0 {
            0.0
        } else {
            self.layout_hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Default)]
struct LayoutState {
    /// Unit content hash → (last-use stamp, solved layout + fragment model).
    /// Content-keyed, so no epoch tracking is needed: a stale unit simply
    /// never hashes to a live key.
    map: HashMap<u128, (u64, Arc<Relaxed>)>,
    /// Monotonic access clock for LRU stamps.
    clock: u64,
}

/// Shared, thread-safe per-function analysis cache.
#[derive(Debug, Default)]
pub struct AnalysisCache {
    state: Mutex<CacheState>,
    /// Whole-unit layouts, content-keyed (see [`AnalysisCache::layout`]).
    layouts: Mutex<LayoutState>,
    /// Optional persistent tier consulted on memory-tier layout misses.
    layout_store: OnceLock<Arc<dyn LayoutStore>>,
    /// Maximum number of cached functions (0 = unbounded).
    capacity: AtomicU64,
    /// One cell per [`CacheStats`] counter: `stats()` reads these, and
    /// [`AnalysisCache::attach_metrics`] registers the same cells.
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    layout_hits: Counter,
    layout_misses: Counter,
    layout_disk_hits: Counter,
    layout_disk_misses: Counter,
}

impl AnalysisCache {
    /// Empty, unbounded cache.
    pub fn new() -> AnalysisCache {
        AnalysisCache::default()
    }

    /// Empty cache holding at most `capacity` functions (0 = unbounded);
    /// least-recently-used entries are evicted beyond that.
    pub fn with_capacity(capacity: usize) -> AnalysisCache {
        let cache = AnalysisCache::default();
        cache.capacity.store(capacity as u64, Ordering::Relaxed);
        cache
    }

    /// The capacity bound (0 = unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed) as usize
    }

    /// Register this cache's counter cells in `metrics` (families
    /// `mao_analysis_cache_{hits,misses,evictions}_total` and
    /// `mao_layout_cache_{hits,misses,disk_hits,disk_misses}_total`). The
    /// registry renders the cells `stats()` reads, counts made before the
    /// attachment included; attaching again to the same registry is a
    /// no-op.
    pub fn attach_metrics(&self, metrics: &mao_obs::Metrics) {
        self.attach_metrics_labeled(metrics, &[]);
    }

    /// Like [`AnalysisCache::attach_metrics`], but every family carries
    /// `labels` — this is how `maod`'s per-shard caches register as
    /// distinct `{shard="N"}` series in one registry.
    pub fn attach_metrics_labeled(&self, metrics: &mao_obs::Metrics, labels: &[(&str, &str)]) {
        for (family, cell) in [
            ("mao_analysis_cache_hits_total", &self.hits),
            ("mao_analysis_cache_misses_total", &self.misses),
            ("mao_analysis_cache_evictions_total", &self.evictions),
            ("mao_layout_cache_hits_total", &self.layout_hits),
            ("mao_layout_cache_misses_total", &self.layout_misses),
            ("mao_layout_cache_disk_hits_total", &self.layout_disk_hits),
            (
                "mao_layout_cache_disk_misses_total",
                &self.layout_disk_misses,
            ),
        ] {
            metrics.adopt(family, labels, cell);
        }
    }

    /// Attach a persistent layout tier consulted when the in-memory layout
    /// slot misses. First attachment wins; later calls are no-ops.
    pub fn set_layout_store(&self, store: Arc<dyn LayoutStore>) {
        let _ = self.layout_store.set(store);
    }

    /// The analyses slot for `function`, reused when both the unit's context
    /// epoch and the function's content key are unchanged since the last
    /// lookup, freshly allocated (a miss) otherwise.
    pub fn for_function(&self, unit: &MaoUnit, function: &Function) -> Arc<FunctionAnalyses> {
        let key = function_key(unit, function);
        let mut state = self.state.lock().unwrap();
        if state.epoch != unit.context_epoch() {
            // Cross-function context (e.g. jump tables) may have changed;
            // nothing keyed under the old epoch can be trusted.
            state.map.clear();
            state.epoch = unit.context_epoch();
        }
        state.clock += 1;
        let stamp = state.clock;
        if let Some(existing) = state.map.get_mut(&function.name) {
            if existing.1.key == key {
                existing.0 = stamp;
                self.hits.inc();
                return existing.1.clone();
            }
        }
        self.misses.inc();
        let fresh = Arc::new(FunctionAnalyses {
            key,
            ..FunctionAnalyses::default()
        });
        state
            .map
            .insert(function.name.clone(), (stamp, fresh.clone()));
        let capacity = self.capacity.load(Ordering::Relaxed) as usize;
        if capacity > 0 {
            while state.map.len() > capacity {
                // O(n) min-stamp scan: capacities are small (hundreds) and
                // eviction only runs once the bound is actually exceeded.
                let lru = state
                    .map
                    .iter()
                    .min_by_key(|(_, (stamp, _))| *stamp)
                    .map(|(name, _)| name.clone())
                    .expect("non-empty map over capacity");
                state.map.remove(&lru);
                self.evictions.inc();
            }
        }
        fresh
    }

    /// The unit's relaxed layout, keyed by a content hash of every entry so
    /// `maod` reuses layouts across requests carrying the same unit. The
    /// solve runs outside the lock; concurrent misses on the same key may
    /// both solve, and the first insert wins.
    pub fn layout(&self, unit: &MaoUnit) -> Result<Arc<Layout>, RelaxError> {
        Ok(self.relaxed(unit)?.layout.clone())
    }

    /// Like [`AnalysisCache::layout`] but returns the full solved state
    /// (layout plus fragment model) for `LayoutCache` to patch from.
    pub(crate) fn relaxed(&self, unit: &MaoUnit) -> Result<Arc<Relaxed>, RelaxError> {
        let key = unit_key(unit);
        {
            let mut layouts = self.layouts.lock().unwrap();
            layouts.clock += 1;
            let stamp = layouts.clock;
            if let Some(entry) = layouts.map.get_mut(&key) {
                entry.0 = stamp;
                self.layout_hits.inc();
                return Ok(entry.1.clone());
            }
        }
        self.layout_misses.inc();
        // Memory miss: try the persistent tier before paying for a fixpoint
        // solve. A disk layout is adopted only if it pairs cleanly with a
        // freshly built fragment model (`Relaxed::from_layout` length-checks
        // it against the unit) — the model holds no solver state, so model +
        // stored fixpoint is exactly the state a scratch solve would reach.
        let mut fresh = None;
        if let Some(store) = self.layout_store.get() {
            fresh = store
                .load(key, unit.isa())
                .and_then(|layout| Relaxed::from_layout(unit, layout));
            if fresh.is_some() {
                self.layout_disk_hits.inc();
            } else {
                self.layout_disk_misses.inc();
            }
        }
        let fresh = match fresh {
            Some(relaxed) => Arc::new(relaxed),
            None => {
                let solved = Arc::new(Relaxed::build(unit)?);
                if let Some(store) = self.layout_store.get() {
                    store.store(key, unit.isa(), &solved.layout);
                }
                solved
            }
        };
        let mut layouts = self.layouts.lock().unwrap();
        layouts.clock += 1;
        let stamp = layouts.clock;
        let entry = layouts
            .map
            .entry(key)
            .or_insert_with(|| (stamp, fresh.clone()));
        let out = entry.1.clone();
        while layouts.map.len() > LAYOUT_CAPACITY {
            let lru = layouts
                .map
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(key, _)| *key)
                .expect("non-empty map over capacity");
            layouts.map.remove(&lru);
        }
        Ok(out)
    }

    /// Drop every cached analysis (counters are kept).
    pub fn clear(&self) {
        self.state.lock().unwrap().map.clear();
        self.layouts.lock().unwrap().map.clear();
    }

    /// Number of functions currently cached.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().map.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            layout_hits: self.layout_hits.get(),
            layout_misses: self.layout_misses.get(),
            layout_disk_hits: self.layout_disk_hits.get(),
            layout_disk_misses: self.layout_disk_misses.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::x86::Instruction;
    use crate::unit::EditSet;

    const TWO_FUNCS: &str = r#"
	.text
	.globl	f
	.type	f, @function
f:
	push %rbp
	pop %rbp
	ret
	.size	f, .-f
	.globl	g
	.type	g, @function
g:
	nop
	nop
	ret
	.size	g, .-g
"#;

    #[test]
    fn repeat_lookup_hits() {
        let unit = MaoUnit::parse(TWO_FUNCS).unwrap();
        let cache = AnalysisCache::new();
        let f = unit.find_function("f").unwrap();
        let a1 = cache.for_function(&unit, &f);
        let cfg1 = a1.cfg(&unit, &f);
        let a2 = cache.for_function(&unit, &f);
        let cfg2 = a2.cfg(&unit, &f);
        assert!(
            Arc::ptr_eq(&cfg1, &cfg2),
            "second lookup must reuse the CFG"
        );
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                ..CacheStats::default()
            }
        );
    }

    #[test]
    fn all_analyses_build_once() {
        let unit = MaoUnit::parse(TWO_FUNCS).unwrap();
        let cache = AnalysisCache::new();
        let f = unit.find_function("f").unwrap();
        let a = cache.for_function(&unit, &f);
        let loops1 = a.loops(&unit, &f);
        let loops2 = a.loops(&unit, &f);
        assert!(Arc::ptr_eq(&loops1, &loops2));
        let live1 = a.liveness(&unit, &f);
        let live2 = a.liveness(&unit, &f);
        assert!(Arc::ptr_eq(&live1, &live2));
        let reach1 = a.reaching(&unit, &f);
        let reach2 = a.reaching(&unit, &f);
        assert!(Arc::ptr_eq(&reach1, &reach2));
    }

    /// Editing one function must invalidate it — and not its neighbours —
    /// when the edit is interior (non-structural).
    #[test]
    fn interior_edit_invalidates_only_touched_function() {
        let mut unit = MaoUnit::parse(TWO_FUNCS).unwrap();
        let cache = AnalysisCache::new();

        // g precedes nothing, so editing g leaves f's span untouched.
        // Edit g (the later function) so f's spans do not shift.
        let f = unit.find_function("f").unwrap();
        let g = unit.find_function("g").unwrap();
        let _ = cache.for_function(&unit, &f).cfg(&unit, &f);
        let _ = cache.for_function(&unit, &g).cfg(&unit, &g);
        let baseline = cache.stats();

        let g_insn = g.entry_ids().find(|&id| unit.insn(id).is_some()).unwrap();
        let mut edits = EditSet::new();
        edits.replace_insn(g_insn, Instruction::nop_of_len(2));
        unit.apply(edits);

        let f2 = unit.find_function("f").unwrap();
        let g2 = unit.find_function("g").unwrap();
        let _ = cache.for_function(&unit, &f2); // unchanged → hit
        let _ = cache.for_function(&unit, &g2); // edited → miss
        let after = cache.stats();
        assert_eq!(after.hits, baseline.hits + 1, "untouched f must hit");
        assert_eq!(after.misses, baseline.misses + 1, "edited g must miss");
    }

    /// An edit to an EARLIER function shifts later functions; their content
    /// is unchanged but their cached analyses hold stale absolute ids, so
    /// they must miss.
    #[test]
    fn shifted_function_misses() {
        let mut unit = MaoUnit::parse(TWO_FUNCS).unwrap();
        let cache = AnalysisCache::new();
        let f = unit.find_function("f").unwrap();
        let g = unit.find_function("g").unwrap();
        let _ = cache.for_function(&unit, &f);
        let _ = cache.for_function(&unit, &g);
        let baseline = cache.stats();

        let f_insn = f.entry_ids().find(|&id| unit.insn(id).is_some()).unwrap();
        let mut edits = EditSet::new();
        edits.delete(f_insn);
        unit.apply(edits);

        let g2 = unit.find_function("g").unwrap();
        let _ = cache.for_function(&unit, &g2);
        assert_eq!(
            cache.stats().misses,
            baseline.misses + 1,
            "shifted g holds stale entry ids and must be rebuilt"
        );
    }

    #[test]
    fn layout_slot_is_content_keyed() {
        let cache = AnalysisCache::new();
        let unit = MaoUnit::parse("\tnop\n\tret\n").unwrap();
        let a = cache.layout(&unit).unwrap();
        let b = cache.layout(&unit).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same unit must hit");
        // A separately parsed unit with identical content hits too — that
        // is what lets `maod` reuse layouts across requests.
        let again = MaoUnit::parse("\tnop\n\tret\n").unwrap();
        let c = cache.layout(&again).unwrap();
        assert!(Arc::ptr_eq(&a, &c), "content-identical unit must hit");
        let other = MaoUnit::parse("\tnop\n\tnop\n\tret\n").unwrap();
        let d = cache.layout(&other).unwrap();
        assert!(!Arc::ptr_eq(&a, &d));
        let stats = cache.stats();
        assert_eq!((stats.layout_hits, stats.layout_misses), (2, 2));
        assert!((stats.layout_hit_rate() - 0.5).abs() < 1e-9);
    }

    /// A structural edit bumps the context epoch and flushes everything.
    #[test]
    fn epoch_bump_flushes_cache() {
        let mut unit = MaoUnit::parse(TWO_FUNCS).unwrap();
        let cache = AnalysisCache::new();
        let f = unit.find_function("f").unwrap();
        let _ = cache.for_function(&unit, &f);
        assert_eq!(cache.len(), 1);

        // Deleting a `.size` directive is fine, but deleting a label is
        // structural — use entry_mut which conservatively bumps the epoch.
        let _ = unit.entry_mut(0);
        let f2 = unit.find_function("f").unwrap();
        let _ = cache.for_function(&unit, &f2);
        assert_eq!(
            cache.stats().hits,
            0,
            "epoch bump must flush even content-identical entries"
        );
    }
}
