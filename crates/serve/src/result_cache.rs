//! Content-addressed, tiered result cache for whole optimization requests.
//!
//! Keyed by a 128-bit hash of `(input asm, pass string, ISA)`. The worker count
//! is deliberately *not* part of the key: the PR 1 parallel driver
//! guarantees byte-identical output (including trace lines) for every
//! `jobs` value, so a unit optimized at `--jobs 8` is a valid answer for
//! the same unit at `--jobs 1`.
//!
//! Two tiers:
//!
//! * **Memory** — LRU with a configurable entry capacity. Values are
//!   handed out as `Arc`s so a hit never copies the (potentially megabytes
//!   of) output assembly under the lock.
//! * **Disk** (optional) — a persistent [`DiskCache`] consulted on memory
//!   misses. A disk hit is *promoted* into the memory tier, so the next
//!   lookup is pure memory; an insert writes through to both tiers. This
//!   is what makes restarts begin warm and lets multiple `maod` instances
//!   share artifacts via a common directory.
//!
//! Hit/miss/eviction/insertion counters for both tiers are one set of
//! cells each: the `stats` endpoint reads them, and the Prometheus scrape
//! renders the same cells once [`ResultCache::attach_metrics`] registers
//! them.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

use mao::obs::Counter;

use crate::disk_cache::DiskCache;
use crate::protocol::OptimizeOutcome;

/// 128-bit content key of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestKey(u128);

impl RequestKey {
    /// The raw 128-bit value (file names, wire debugging).
    pub fn raw(self) -> u128 {
        self.0
    }

    /// Deterministic shard assignment for `shards` partitions. Uses the
    /// high (independently seeded) hash half, so shard balance is
    /// uncorrelated with the memory tier's bucket placement.
    pub fn shard(self, shards: usize) -> usize {
        if shards <= 1 {
            0
        } else {
            ((self.0 >> 64) as u64 % shards as u64) as usize
        }
    }
}

/// Hash `(asm, passes, isa)` into a [`RequestKey`].
///
/// Two independently-seeded 64-bit hashes are concatenated; a collision
/// needs both to collide at once, which at 2^-128 is beyond the service's
/// lifetime request count by any margin. The ISA participates because the
/// same text optimized for different targets yields different results.
pub fn request_key(asm: &str, passes: &str, isa: mao::isa::IsaId) -> RequestKey {
    let mut lo = std::collections::hash_map::DefaultHasher::new();
    0x6d616f_u64.hash(&mut lo); // "mao" seed
    isa.tag().hash(&mut lo);
    asm.hash(&mut lo);
    passes.hash(&mut lo);
    let mut hi = std::collections::hash_map::DefaultHasher::new();
    0x64616f6d_u64.hash(&mut hi); // "maod" seed
    isa.tag().hash(&mut hi);
    passes.hash(&mut hi);
    asm.hash(&mut hi);
    RequestKey(((hi.finish() as u128) << 64) | lo.finish() as u128)
}

/// Counters, cumulative over the cache's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResultCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
    /// Entries stored.
    pub insertions: u64,
    /// Entries currently resident.
    pub len: usize,
    /// Configured capacity (entries).
    pub capacity: usize,
    /// Persistent-tier counters (None when no disk tier is configured).
    pub disk: Option<mao_frame::StoreStats>,
}

impl ResultCacheStats {
    /// Hits as a fraction of all lookups (0.0 when never used).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct CacheState {
    /// Key → (last-use stamp, outcome).
    map: HashMap<RequestKey, (u64, Arc<OptimizeOutcome>)>,
    /// Monotonic access clock for LRU stamps.
    clock: u64,
}

/// Which tier answered a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// Served from the in-memory LRU.
    Memory,
    /// Served from the persistent tier (and promoted to memory).
    Disk,
}

/// Thread-safe content-addressed tiered cache of optimize outcomes.
pub struct ResultCache {
    state: Mutex<CacheState>,
    capacity: usize,
    disk: Option<DiskCache>,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    insertions: Counter,
}

impl ResultCache {
    /// Memory-only cache holding at most `capacity` results (0 =
    /// unbounded).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache::with_disk(capacity, None)
    }

    /// Cache with an optional persistent tier behind the memory LRU.
    pub fn with_disk(capacity: usize, disk: Option<DiskCache>) -> ResultCache {
        ResultCache {
            state: Mutex::new(CacheState {
                map: HashMap::new(),
                clock: 0,
            }),
            capacity,
            disk,
            hits: Counter::default(),
            misses: Counter::default(),
            evictions: Counter::default(),
            insertions: Counter::default(),
        }
    }

    /// The persistent tier, when configured.
    pub fn disk(&self) -> Option<&DiskCache> {
        self.disk.as_ref()
    }

    /// Register this cache's counter cells in `metrics` as the
    /// `mao_result_cache_*_total` families (and the disk tier's as
    /// `mao_result_cache_disk_*_total`). The registry renders the cells
    /// `stats()` reads, counts made before the attachment included.
    pub fn attach_metrics(&self, metrics: &mao::obs::Metrics) {
        for (family, cell) in [
            ("mao_result_cache_hits_total", &self.hits),
            ("mao_result_cache_misses_total", &self.misses),
            ("mao_result_cache_evictions_total", &self.evictions),
            ("mao_result_cache_insertions_total", &self.insertions),
        ] {
            metrics.adopt(family, &[], cell);
        }
        if let Some(disk) = &self.disk {
            disk.attach_metrics(metrics);
        }
    }

    /// Look up a request: memory first, then the persistent tier (a disk
    /// hit is promoted into memory). The memory hit/miss counters track
    /// the memory tier only; the disk tier keeps its own.
    pub fn get(&self, key: RequestKey) -> Option<(Arc<OptimizeOutcome>, CacheTier)> {
        {
            let mut state = self.state.lock().unwrap();
            state.clock += 1;
            let stamp = state.clock;
            if let Some(entry) = state.map.get_mut(&key) {
                entry.0 = stamp;
                self.hits.inc();
                return Some((entry.1.clone(), CacheTier::Memory));
            }
            self.misses.inc();
        }
        // Memory miss: consult the persistent tier outside the memory lock
        // (file reads must not serialize unrelated lookups).
        let disk = self.disk.as_ref()?;
        let outcome = Arc::new(disk.get(key)?);
        self.insert_memory(key, outcome.clone());
        Some((outcome, CacheTier::Disk))
    }

    /// Store a result in memory (evicting LRU entries past capacity) and
    /// write it through to the persistent tier when one is configured.
    pub fn insert(&self, key: RequestKey, outcome: Arc<OptimizeOutcome>) {
        self.insert_memory(key, outcome.clone());
        if let Some(disk) = &self.disk {
            disk.put(key, &outcome);
        }
    }

    /// Memory-tier insert only — used for disk-hit promotion, which must
    /// not rewrite the entry it just read.
    fn insert_memory(&self, key: RequestKey, outcome: Arc<OptimizeOutcome>) {
        let mut state = self.state.lock().unwrap();
        state.clock += 1;
        let stamp = state.clock;
        state.map.insert(key, (stamp, outcome));
        self.insertions.inc();
        if self.capacity > 0 {
            while state.map.len() > self.capacity {
                let lru = state
                    .map
                    .iter()
                    .min_by_key(|(_, (stamp, _))| *stamp)
                    .map(|(k, _)| *k)
                    .expect("non-empty map over capacity");
                state.map.remove(&lru);
                self.evictions.inc();
            }
        }
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().map.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot (both tiers).
    pub fn stats(&self) -> ResultCacheStats {
        ResultCacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            insertions: self.insertions.get(),
            len: self.len(),
            capacity: self.capacity,
            disk: self.disk.as_ref().map(DiskCache::stats),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(asm: &str) -> Arc<OptimizeOutcome> {
        Arc::new(OptimizeOutcome {
            asm: asm.to_string(),
            passes: vec![],
            timings_us: vec![],
            trace: vec![],
        })
    }

    #[test]
    fn hit_and_miss_counters() {
        let cache = ResultCache::new(8);
        let k = request_key("nop\n", "DCE", mao::isa::IsaId::X86_64);
        assert!(cache.get(k).is_none());
        cache.insert(k, outcome("nop\n"));
        let (hit, tier) = cache.get(k).unwrap();
        assert_eq!(hit.asm, "nop\n");
        assert_eq!(tier, CacheTier::Memory);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert!(s.disk.is_none(), "memory-only cache has no disk stats");
    }

    #[test]
    fn disk_tier_promotes_on_hit() {
        let dir =
            std::env::temp_dir().join(format!("maod-result-cache-tier-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || DiskCache::open(mao_frame::StoreConfig::new(&dir)).unwrap();
        let k = request_key("nop\n", "DCE", mao::isa::IsaId::X86_64);
        {
            let warm = ResultCache::with_disk(8, Some(open()));
            warm.insert(k, outcome("nop\n"));
        }
        // Fresh memory tier, same directory: first lookup is a disk hit...
        let cache = ResultCache::with_disk(8, Some(open()));
        let (hit, tier) = cache.get(k).unwrap();
        assert_eq!(hit.asm, "nop\n");
        assert_eq!(tier, CacheTier::Disk);
        // ...which promoted the entry, so the second is pure memory.
        let (_, tier) = cache.get(k).unwrap();
        assert_eq!(tier, CacheTier::Memory);
        let s = cache.stats();
        let d = s.disk.unwrap();
        assert_eq!((s.hits, s.misses), (1, 1), "memory tier saw one of each");
        assert_eq!((d.hits, d.misses), (1, 0), "the only disk lookup hit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn distinct_inputs_distinct_keys() {
        assert_ne!(
            request_key("a", "P", mao::isa::IsaId::X86_64),
            request_key("b", "P", mao::isa::IsaId::X86_64)
        );
        assert_ne!(
            request_key("a", "P", mao::isa::IsaId::X86_64),
            request_key("a", "Q", mao::isa::IsaId::X86_64)
        );
        // Swapping asm and passes must not collide either.
        assert_ne!(
            request_key("a", "b", mao::isa::IsaId::X86_64),
            request_key("b", "a", mao::isa::IsaId::X86_64)
        );
        assert_eq!(
            request_key("a", "P", mao::isa::IsaId::X86_64),
            request_key("a", "P", mao::isa::IsaId::X86_64)
        );
        // The same text targeting a different ISA is a different request.
        assert_ne!(
            request_key("a", "P", mao::isa::IsaId::X86_64),
            request_key("a", "P", mao::isa::IsaId::Aarch64)
        );
    }

    #[test]
    fn lru_eviction_prefers_stale_entries() {
        let cache = ResultCache::new(2);
        let k1 = request_key("1", "", mao::isa::IsaId::X86_64);
        let k2 = request_key("2", "", mao::isa::IsaId::X86_64);
        let k3 = request_key("3", "", mao::isa::IsaId::X86_64);
        cache.insert(k1, outcome("1"));
        cache.insert(k2, outcome("2"));
        // Touch k1 so k2 becomes the LRU entry.
        assert!(cache.get(k1).is_some());
        cache.insert(k3, outcome("3"));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(k1).is_some(), "recently used entry survives");
        assert!(cache.get(k2).is_none(), "LRU entry was evicted");
        assert!(cache.get(k3).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn zero_capacity_is_unbounded() {
        let cache = ResultCache::new(0);
        for i in 0..100 {
            cache.insert(
                request_key(&i.to_string(), "", mao::isa::IsaId::X86_64),
                outcome("x"),
            );
        }
        assert_eq!(cache.len(), 100);
        assert_eq!(cache.stats().evictions, 0);
    }
}
