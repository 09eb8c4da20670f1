//! Generic content-addressed artifact store: one file per 128-bit key,
//! segmented scan-resistant LRU eviction, and a compact index file so a
//! restart does not stat the whole directory.
//!
//! [`ArtifactStore`] is the disk machinery under every persistent tier —
//! optimize results (`.mc`), solved layouts (`.ml`), front-end IR
//! snapshots (`.msnap`) and learned rewrites (`.msr`). Every entry is a
//! frame of the store's [`Kind`]; the store handles what the tiers need
//! identically:
//!
//! * **Atomic writes** — frames land in a `.tmp-<pid>-<n>` sibling and are
//!   `rename(2)`d into place, so readers never observe a torn entry and
//!   racing instances last-write-win identical content.
//! * **Validated reads, evict-never-serve** — [`ArtifactStore::get`]
//!   validates the frame (magic, version, length, checksum, key) and runs
//!   the caller's body decoder; on any failure the entry is deleted and
//!   counted as corrupt, never returned.
//! * **Segmented LRU (SLRU) eviction** — entries start in a *probation*
//!   segment; a re-access promotes to *protected* (capped at
//!   [`PROTECTED_SHARE`] of the byte budget, demoting its own oldest
//!   members back to probation). Victims come from probation first, so a
//!   one-pass cold scan — a batch build touching thousands of keys once —
//!   churns through probation without displacing the re-referenced working
//!   set.
//! * **Index file** — `store.idx` (itself a frame) persists `{key, bytes,
//!   stamp, segment}` rows so reopening a large store costs one small read
//!   instead of a directory walk + per-file stat. The index is an accounting cache, not
//!   a source of truth: a missing/corrupt/stale index falls back to the
//!   directory scan (mtime-seeded stamps, everything in probation), and a
//!   key missing from the index is still served straight off its file and
//!   re-adopted on first access. It is rewritten atomically every
//!   [`INDEX_PERSIST_EVERY`] mutations and on drop; reads of an unbounded
//!   store, which never evicts, only update it in memory.

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::{Frame, Kind, Reader};

/// Index file name inside the store directory.
const INDEX_NAME: &str = "store.idx";
/// The index file's frame kind (its key is always 0). Version 2 moved it
/// onto the shared frame.
const INDEX_KIND: Kind = Kind {
    magic: *b"MAOIDX\0\x01",
    version: 2,
    ext: "idx",
};
/// Bytes per index row: key, bytes, stamp, segment.
const INDEX_ROW: usize = 16 + 8 + 8 + 1;
/// Rewrite the index after this many mutations (puts/evictions/promotions
/// are cheap; the rewrite is O(entries), so batch it).
const INDEX_PERSIST_EVERY: u32 = 64;
/// Fraction of the byte budget the protected segment may hold: 4/5.
const PROTECTED_SHARE: (u64, u64) = (4, 5);

/// Construction parameters for an [`ArtifactStore`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding the entries (created if missing).
    pub dir: PathBuf,
    /// Total byte budget across entries (0 = unbounded).
    pub max_bytes: u64,
    /// Force file + directory syncs on every write.
    pub fsync: bool,
}

impl StoreConfig {
    /// Defaults: unbounded, no fsync.
    pub fn new(dir: impl Into<PathBuf>) -> StoreConfig {
        StoreConfig {
            dir: dir.into(),
            max_bytes: 0,
            fsync: false,
        }
    }
}

/// Counters, cumulative over this instance's lifetime (other instances
/// sharing the directory keep their own).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups served from disk (validator accepted).
    pub hits: u64,
    /// Lookups that found no (valid) entry.
    pub misses: u64,
    /// Entries written.
    pub insertions: u64,
    /// Entries deleted to respect the byte budget.
    pub evictions: u64,
    /// Corrupt/truncated/stale entries deleted instead of served.
    pub corrupt: u64,
    /// Bytes currently resident (as indexed by this instance).
    pub bytes: u64,
    /// Entries currently resident (as indexed by this instance).
    pub entries: u64,
    /// Bytes in the protected SLRU segment.
    pub protected_bytes: u64,
    /// Configured byte budget (0 = unbounded).
    pub max_bytes: u64,
    /// Did startup recover state from the index file (vs a directory scan)?
    pub opened_from_index: bool,
}

/// Registry mirrors of the counters (attached at most once).
struct StoreMetrics {
    hits: mao_obs::Counter,
    misses: mao_obs::Counter,
    insertions: mao_obs::Counter,
    evictions: mao_obs::Counter,
    corrupt: mao_obs::Counter,
}

struct IndexEntry {
    bytes: u64,
    /// Monotonic access stamp; seeded from mtime order on a scan startup.
    stamp: u64,
    /// SLRU segment: probation (false) or protected (true).
    protected: bool,
}

#[derive(Default)]
struct Index {
    map: HashMap<u128, IndexEntry>,
    clock: u64,
    total_bytes: u64,
    protected_bytes: u64,
    /// Mutations since the last index-file write.
    dirty: u32,
    opened_from_index: bool,
}

impl Index {
    /// Record an access (insert or refresh). New entries enter probation;
    /// `promote` moves an existing entry to the protected segment.
    fn touch(&mut self, key: u128, bytes: u64, promote: bool) {
        self.clock += 1;
        let stamp = self.clock;
        self.dirty += 1;
        match self.map.get_mut(&key) {
            Some(entry) => {
                self.total_bytes = self.total_bytes - entry.bytes + bytes;
                if entry.protected {
                    self.protected_bytes = self.protected_bytes - entry.bytes + bytes;
                } else if promote {
                    entry.protected = true;
                    self.protected_bytes += bytes;
                }
                entry.bytes = bytes;
                entry.stamp = stamp;
            }
            None => {
                self.total_bytes += bytes;
                self.map.insert(
                    key,
                    IndexEntry {
                        bytes,
                        stamp,
                        protected: false,
                    },
                );
            }
        }
    }

    /// Keep the protected segment within its share of the budget by
    /// demoting its oldest members back to probation (no deletion — they
    /// just become eviction candidates again).
    fn rebalance(&mut self, max_bytes: u64) {
        if max_bytes == 0 {
            return;
        }
        let cap = max_bytes * PROTECTED_SHARE.0 / PROTECTED_SHARE.1;
        while self.protected_bytes > cap {
            let Some(oldest) = self
                .map
                .iter()
                .filter(|(_, e)| e.protected)
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k)
            else {
                break;
            };
            let entry = self.map.get_mut(&oldest).expect("key just found");
            entry.protected = false;
            self.protected_bytes -= entry.bytes;
            self.dirty += 1;
        }
    }

    /// Drop a key from the index (file already gone or going).
    fn forget(&mut self, key: u128) {
        if let Some(entry) = self.map.remove(&key) {
            self.total_bytes -= entry.bytes;
            if entry.protected {
                self.protected_bytes -= entry.bytes;
            }
            self.dirty += 1;
        }
    }

    /// Select and forget victims until `total_bytes <= budget`: oldest
    /// probation entries first, oldest protected entries only once
    /// probation is exhausted. The just-written `keep` key is never chosen
    /// — a single entry larger than the budget stays resident rather than
    /// thrashing.
    fn evict_plan(&mut self, budget: u64, keep: u128) -> Vec<u128> {
        let mut victims = Vec::new();
        while self.total_bytes > budget {
            let victim = self
                .map
                .iter()
                .filter(|(k, e)| **k != keep && !e.protected)
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k)
                .or_else(|| {
                    self.map
                        .iter()
                        .filter(|(k, _)| **k != keep)
                        .min_by_key(|(_, e)| e.stamp)
                        .map(|(k, _)| *k)
                });
            let Some(victim) = victim else { break };
            self.forget(victim);
            victims.push(victim);
        }
        victims
    }
}

/// The store. Thread-safe; cheap operations hold a short index lock, file
/// I/O runs outside it where possible.
pub struct ArtifactStore {
    kind: Kind,
    config: StoreConfig,
    index: Mutex<Index>,
    tmp_counter: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    corrupt: AtomicU64,
    metrics: OnceLock<StoreMetrics>,
}

impl ArtifactStore {
    /// Open (creating if needed) a store of `kind` frames. State comes from
    /// the index file when present and valid; otherwise from a directory
    /// scan.
    pub fn open(kind: Kind, config: StoreConfig) -> io::Result<ArtifactStore> {
        std::fs::create_dir_all(&config.dir)?;
        let index = match read_index(&config.dir.join(INDEX_NAME)) {
            Some(rows) => {
                let mut map = HashMap::with_capacity(rows.len());
                let mut total_bytes = 0u64;
                let mut protected_bytes = 0u64;
                let mut clock = 0u64;
                for (key, entry) in rows {
                    total_bytes += entry.bytes;
                    if entry.protected {
                        protected_bytes += entry.bytes;
                    }
                    clock = clock.max(entry.stamp);
                    map.insert(key, entry);
                }
                Index {
                    map,
                    clock,
                    total_bytes,
                    protected_bytes,
                    dirty: 0,
                    opened_from_index: true,
                }
            }
            None => scan_directory(&config.dir, kind.ext)?,
        };
        Ok(ArtifactStore {
            kind,
            index: Mutex::new(index),
            config,
            tmp_counter: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            metrics: OnceLock::new(),
        })
    }

    /// The directory entries live in.
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }

    /// Mirror the counters into `metrics` as `{prefix}_{hits,misses,
    /// insertions,evictions,corrupt}_total`. First attachment wins.
    pub fn attach_metrics(&self, metrics: &mao_obs::Metrics, prefix: &str) {
        let _ = self.metrics.set(StoreMetrics {
            hits: metrics.counter(&format!("{prefix}_hits_total")),
            misses: metrics.counter(&format!("{prefix}_misses_total")),
            insertions: metrics.counter(&format!("{prefix}_insertions_total")),
            evictions: metrics.counter(&format!("{prefix}_evictions_total")),
            corrupt: metrics.counter(&format!("{prefix}_corrupt_total")),
        });
    }

    /// Path of `key`'s entry file.
    pub fn path_of(&self, key: u128) -> PathBuf {
        self.config
            .dir
            .join(format!("{key:032x}.{}", self.kind.ext))
    }

    /// Look up an entry. The file must be a valid frame of this store's
    /// kind stamped with `key`, and `decode` must accept its body;
    /// otherwise the file is deleted and counted corrupt — evicted, never
    /// served. A hit refreshes (and promotes) the entry's SLRU position.
    pub fn get<T>(&self, key: u128, decode: impl FnOnce(Frame<'_>) -> Option<T>) -> Option<T> {
        let path = self.path_of(key);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                // Not present — or present under another instance and
                // vanished mid-read; either way a miss.
                self.count_miss();
                self.note_mutation(|index| index.forget(key));
                return None;
            }
        };
        let decoded = self.kind.decode(&bytes, Some(key)).ok().and_then(decode);
        if decoded.is_some() {
            let mut index = self.index.lock().unwrap();
            index.touch(key, bytes.len() as u64, true);
            index.rebalance(self.config.max_bytes);
            // Recency only orders eviction, and an unbounded store never
            // evicts: its reads leave the index file to the next write or
            // to drop instead of rewriting it every few hits.
            if self.config.max_bytes > 0 {
                self.maybe_persist(&mut index);
            }
            drop(index);
            self.hits.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = self.metrics.get() {
                m.hits.inc();
            }
            decoded
        } else {
            // Truncated, corrupted, stale version, wrong key, or a body
            // the kind's decoder rejects.
            let _ = std::fs::remove_file(&path);
            self.note_mutation(|index| index.forget(key));
            self.corrupt.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = self.metrics.get() {
                m.corrupt.inc();
            }
            self.count_miss();
            None
        }
    }

    fn count_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = self.metrics.get() {
            m.misses.inc();
        }
    }

    /// Write an entry — a frame of this store's kind stamped with `key` —
    /// (atomic tmp+rename), then evict past the byte budget.
    /// Write errors are swallowed — the disk tier is an accelerator, not a
    /// source of truth — but accounting stays exact for what was written.
    pub fn put(&self, key: u128, bytes: &[u8]) {
        let tmp = self.config.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        let final_path = self.path_of(key);
        let written = (|| -> io::Result<()> {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(bytes)?;
            if self.config.fsync {
                file.sync_all()?;
            }
            drop(file);
            std::fs::rename(&tmp, &final_path)?;
            if self.config.fsync {
                if let Ok(dir) = std::fs::File::open(&self.config.dir) {
                    let _ = dir.sync_all();
                }
            }
            Ok(())
        })();
        if written.is_err() {
            let _ = std::fs::remove_file(&tmp);
            return;
        }
        self.insertions.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = self.metrics.get() {
            m.insertions.inc();
        }
        let victims: Vec<u128> = {
            let mut index = self.index.lock().unwrap();
            index.touch(key, bytes.len() as u64, false);
            let victims = if self.config.max_bytes == 0 {
                Vec::new()
            } else {
                index.evict_plan(self.config.max_bytes, key)
            };
            self.maybe_persist(&mut index);
            victims
        };
        for victim in victims {
            let _ = std::fs::remove_file(self.path_of(victim));
            self.evictions.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = self.metrics.get() {
                m.evictions.inc();
            }
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        let index = self.index.lock().unwrap();
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            bytes: index.total_bytes,
            entries: index.map.len() as u64,
            protected_bytes: index.protected_bytes,
            max_bytes: self.config.max_bytes,
            opened_from_index: index.opened_from_index,
        }
    }

    /// Write the index file now (atomic tmp+rename). Also runs on drop and
    /// automatically every [`INDEX_PERSIST_EVERY`] mutations.
    pub fn persist_index(&self) -> io::Result<()> {
        let mut index = self.index.lock().unwrap();
        self.write_index(&index)?;
        index.dirty = 0;
        Ok(())
    }

    /// Run `f` under the index lock and persist if the mutation budget is
    /// spent.
    fn note_mutation(&self, f: impl FnOnce(&mut Index)) {
        let mut index = self.index.lock().unwrap();
        f(&mut index);
        self.maybe_persist(&mut index);
    }

    fn maybe_persist(&self, index: &mut Index) {
        if index.dirty >= INDEX_PERSIST_EVERY && self.write_index(index).is_ok() {
            index.dirty = 0;
        }
    }

    fn write_index(&self, index: &Index) -> io::Result<()> {
        let out = INDEX_KIND.encode(0, 0, &encode_index(index));
        let tmp = self.config.dir.join(format!(
            ".tmp-idx-{}-{}",
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        let result = (|| -> io::Result<()> {
            std::fs::write(&tmp, &out)?;
            std::fs::rename(&tmp, self.config.dir.join(INDEX_NAME))
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }
}

impl std::fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactStore")
            .field("dir", &self.config.dir)
            .field("ext", &self.kind.ext)
            .finish_non_exhaustive()
    }
}

impl Drop for ArtifactStore {
    fn drop(&mut self) {
        let dirty = self.index.lock().map(|i| i.dirty > 0).unwrap_or(false);
        if dirty {
            let _ = self.persist_index();
        }
    }
}

/// The index body: a row count, then one fixed-size row per entry.
fn encode_index(index: &Index) -> Vec<u8> {
    let mut body = Vec::with_capacity(8 + index.map.len() * INDEX_ROW);
    body.extend_from_slice(&(index.map.len() as u64).to_le_bytes());
    for (key, entry) in &index.map {
        body.extend_from_slice(&key.to_le_bytes());
        body.extend_from_slice(&entry.bytes.to_le_bytes());
        body.extend_from_slice(&entry.stamp.to_le_bytes());
        body.push(u8::from(entry.protected));
    }
    body
}

/// Parse an index body; `None` on any structural problem.
fn decode_index(body: &[u8]) -> Option<Vec<(u128, IndexEntry)>> {
    let mut r = Reader::new(body);
    let count = usize::try_from(r.u64().ok()?).ok()?;
    if count.checked_mul(INDEX_ROW)? != r.remaining() {
        return None;
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let key = r.u128().ok()?;
        let entry = IndexEntry {
            bytes: r.u64().ok()?,
            stamp: r.u64().ok()?,
            protected: r.u8().ok()? != 0,
        };
        out.push((key, entry));
    }
    Some(out)
}

/// Read the index file; `None` when it is missing or damaged (the caller
/// falls back to a directory scan — the index is never trusted over
/// reality anyway, since gets read the entry files themselves).
fn read_index(path: &Path) -> Option<Vec<(u128, IndexEntry)>> {
    let bytes = std::fs::read(path).ok()?;
    decode_index(INDEX_KIND.decode(&bytes, Some(0)).ok()?.body)
}

/// Fallback startup: walk the directory, seed stamps from mtime order, put
/// everything in probation, and clean up abandoned tmp files.
fn scan_directory(dir: &Path, ext: &str) -> io::Result<Index> {
    let suffix = format!(".{ext}");
    let mut entries: Vec<(u128, u64, std::time::SystemTime)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with(".tmp-") {
            // A crashed writer's leftover; safe to delete once clearly
            // abandoned (in-progress writes are milliseconds old).
            let stale = entry
                .metadata()
                .and_then(|m| m.modified())
                .ok()
                .and_then(|t| t.elapsed().ok())
                .map(|age| age.as_secs() > 300)
                .unwrap_or(false);
            if stale {
                let _ = std::fs::remove_file(entry.path());
            }
            continue;
        }
        let Some(key) = name
            .strip_suffix(&suffix)
            .filter(|hex| hex.len() == 32)
            .and_then(|hex| u128::from_str_radix(hex, 16).ok())
        else {
            continue;
        };
        let Ok(meta) = entry.metadata() else { continue };
        let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
        entries.push((key, meta.len(), mtime));
    }
    // Oldest files get the lowest stamps.
    entries.sort_by_key(|(_, _, mtime)| *mtime);
    let mut map = HashMap::with_capacity(entries.len());
    let mut total_bytes = 0u64;
    for (clock, (key, bytes, _)) in entries.iter().enumerate() {
        total_bytes += bytes;
        map.insert(
            *key,
            IndexEntry {
                bytes: *bytes,
                stamp: clock as u64 + 1,
                protected: false,
            },
        );
    }
    Ok(Index {
        clock: map.len() as u64,
        map,
        total_bytes,
        protected_bytes: 0,
        dirty: 0,
        opened_from_index: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mao-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const KIND: Kind = Kind {
        magic: *b"MAOART\0\x01",
        version: 1,
        ext: "art",
    };

    fn store(dir: &Path, max_bytes: u64) -> ArtifactStore {
        ArtifactStore::open(
            KIND,
            StoreConfig {
                dir: dir.to_path_buf(),
                max_bytes,
                fsync: false,
            },
        )
        .unwrap()
    }

    /// A 100-byte frame for `key`, so byte budgets translate into entry
    /// counts.
    fn payload(key: u128) -> Vec<u8> {
        KIND.encode(0, key, &[key as u8; 52])
    }

    /// Any valid frame is a hit.
    fn accept(_: Frame<'_>) -> Option<()> {
        Some(())
    }

    #[test]
    fn put_get_roundtrip_and_validation() {
        let dir = tempdir("roundtrip");
        let s = store(&dir, 0);
        assert!(s.get(7, accept).is_none());
        s.put(7, &payload(7));
        assert_eq!(s.get(7, |f| Some(f.body.to_vec())).unwrap(), [7; 52]);
        let stats = s.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_validation_evicts_never_serves() {
        let dir = tempdir("reject");
        let s = store(&dir, 0);
        s.put(7, &payload(7));
        assert!(s.get(7, |_| None::<()>).is_none());
        assert!(!s.path_of(7).exists(), "rejected entry deleted");
        assert!(s.get(7, accept).is_none(), "gone for good");
        let stats = s.stats();
        assert_eq!(stats.corrupt, 1);
        assert_eq!(stats.entries, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_and_misnamed_entries_are_evicted_never_served() {
        let dir = tempdir("damage");
        let s = store(&dir, 0);
        let mut cases = crate::testing::damaged(&payload(7), 0x5eed);
        cases.push(payload(8)); // a sound frame stored under the wrong name
        for (i, bad) in cases.iter().enumerate() {
            std::fs::write(s.path_of(7), bad).unwrap();
            assert!(s.get(7, accept).is_none(), "case {i} served");
            assert!(!s.path_of(7).exists(), "case {i} not evicted");
        }
        assert_eq!(s.stats().corrupt, cases.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn slru_scan_does_not_displace_working_set() {
        let dir = tempdir("slru");
        // Budget: 4 entries. Working set: keys 1 and 2, re-referenced so
        // they sit in the protected segment.
        let s = store(&dir, 420);
        s.put(1, &payload(1));
        s.put(2, &payload(2));
        assert!(s.get(1, accept).is_some()); // promote
        assert!(s.get(2, accept).is_some()); // promote
                                             // One-pass cold scan: six keys touched once each. Under plain LRU
                                             // this would flush keys 1 and 2; under SLRU the scan churns through
                                             // probation only.
        for key in 10..16 {
            s.put(key, &payload(key));
        }
        assert!(
            s.get(1, accept).is_some(),
            "protected entry 1 survived the scan"
        );
        assert!(
            s.get(2, accept).is_some(),
            "protected entry 2 survived the scan"
        );
        assert!(s.stats().evictions >= 4, "scan evicted scan entries");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn protected_segment_is_capped() {
        let dir = tempdir("cap");
        // Budget 500 bytes -> protected cap 400. Promote five 100-byte
        // entries; the cap forces at least one demotion.
        let s = store(&dir, 500);
        for key in 1..=5 {
            s.put(key, &payload(key));
            assert!(s.get(key, accept).is_some());
        }
        let stats = s.stats();
        assert!(
            stats.protected_bytes <= 400,
            "protected {} > cap 400",
            stats.protected_bytes
        );
        assert_eq!(stats.entries, 5, "demotion does not delete");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_prefers_probation() {
        let dir = tempdir("prefer");
        let s = store(&dir, 300);
        s.put(1, &payload(1));
        assert!(s.get(1, accept).is_some()); // 1 -> protected
        s.put(2, &payload(2)); // probation, older
        s.put(3, &payload(3)); // probation, newer
        s.put(4, &payload(4)); // over budget: evict probation-oldest = 2
        assert!(s.get(2, accept).is_none(), "probation LRU evicted");
        assert!(s.get(1, accept).is_some(), "protected survives");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn index_file_restores_state_without_scan() {
        let dir = tempdir("index");
        {
            let s = store(&dir, 0);
            s.put(1, &payload(1));
            s.put(2, &payload(2));
            assert!(s.get(1, accept).is_some()); // protect 1
        } // drop persists the index
        assert!(dir.join(INDEX_NAME).exists());
        // Plant an alien entry file the index does not know about: a
        // scan-based startup would count it, an index-based one must not.
        std::fs::write(dir.join(format!("{:032x}.art", 99u128)), payload(99)).unwrap();
        let s = store(&dir, 0);
        let stats = s.stats();
        assert!(stats.opened_from_index);
        assert_eq!(stats.entries, 2, "index state, not a directory scan");
        assert_eq!(stats.protected_bytes, 100, "segment survived restart");
        // The alien file is still *served* on access (index is accounting,
        // not truth) and adopted into the index.
        assert!(s.get(99, accept).is_some());
        assert_eq!(s.stats().entries, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_index_falls_back_to_scan() {
        let dir = tempdir("idx-corrupt");
        {
            let s = store(&dir, 0);
            s.put(1, &payload(1));
            s.put(2, &payload(2));
        }
        let idx = dir.join(INDEX_NAME);
        let mut bytes = std::fs::read(&idx).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&idx, &bytes).unwrap();
        let s = store(&dir, 0);
        let stats = s.stats();
        assert!(!stats.opened_from_index, "fell back to the scan");
        assert_eq!(stats.entries, 2, "scan found both entries");
        assert!(s.get(1, accept).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_index_scans_and_seeds_from_mtime() {
        let dir = tempdir("idx-missing");
        {
            let s = store(&dir, 0);
            s.put(1, &payload(1));
        }
        std::fs::remove_file(dir.join(INDEX_NAME)).unwrap();
        let s = store(&dir, 0);
        assert!(!s.stats().opened_from_index);
        assert_eq!(s.stats().entries, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_instances_share_a_directory() {
        let dir = tempdir("share");
        let a = store(&dir, 0);
        let b = store(&dir, 0);
        a.put(5, &payload(5));
        // B never wrote this key but reads A's entry.
        assert!(b.get(5, accept).is_some());
        assert_eq!(b.stats().hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn index_frame() -> Vec<u8> {
        let mut index = Index::default();
        for key in 1..4 {
            index.touch(key, 100, false);
        }
        INDEX_KIND.encode(0, 0, &encode_index(&index))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A damaged index file is never trusted, and a damaged body that
        /// keeps a valid checksum never panics the row decoder.
        #[test]
        fn damaged_index_is_never_trusted(seed in any::<u64>()) {
            let good = index_frame();
            prop_assert_eq!(
                decode_index(INDEX_KIND.decode(&good, Some(0)).unwrap().body).map(|r| r.len()),
                Some(3)
            );
            for bad in crate::testing::damaged(&good, seed) {
                prop_assert!(INDEX_KIND.decode(&bad, Some(0)).is_err());
            }
            let reframed = crate::testing::damage_body(&good, seed);
            let _ = decode_index(INDEX_KIND.decode(&reframed, Some(0)).unwrap().body);
        }
    }
}
