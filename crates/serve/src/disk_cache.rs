//! Content-addressed on-disk result store: the persistent cache tier.
//!
//! One `.mc` frame per 128-bit [`RequestKey`], so a daemon restart begins
//! warm and multiple `maod` instances can share artifacts through a common
//! directory. This module owns only the *body codec* — a length-prefixed
//! dump of the [`OptimizeOutcome`] fields; the frame and the file
//! management (atomic writes, validated evict-never-serve reads, segmented
//! scan-resistant LRU eviction, compact startup index) are the shared
//! [`mao_frame`] machinery every persistent tier uses.
//!
//! The version stamp ([`DISK_FORMAT_VERSION`]) must be bumped whenever the
//! serialized [`OptimizeOutcome`] shape *or the meaning of a cached result*
//! changes (new pass semantics, changed emission), invalidating every
//! existing entry at once. Pass configuration does not need a stamp: the
//! pass string is part of the request key itself.

use std::io;
use std::path::Path;

use mao_frame::{ArtifactStore, FrameError, Kind, Reader, StoreConfig, StoreStats};

use crate::protocol::OptimizeOutcome;
use crate::result_cache::RequestKey;

/// Bumped whenever the entry encoding or the meaning of a cached result
/// changes; entries with any other version are treated as stale and
/// evicted on contact. Version 2 moved the entry onto the shared frame.
pub const DISK_FORMAT_VERSION: u32 = 2;

/// The `.mc` frame kind. Its ISA field is 0: the ISA is already part of
/// the request key.
const KIND: Kind = Kind {
    magic: *b"MAODC\0\0\x01",
    version: DISK_FORMAT_VERSION,
    ext: "mc",
};

/// The persistent result tier: the `.mc` codec over an [`ArtifactStore`].
pub struct DiskCache {
    store: ArtifactStore,
}

impl DiskCache {
    /// Open (creating if needed) the cache directory and index any entries
    /// already present — the restart-warm path and the shared-directory
    /// path both start here.
    pub fn open(config: StoreConfig) -> io::Result<DiskCache> {
        Ok(DiskCache {
            store: ArtifactStore::open(KIND, config)?,
        })
    }

    /// The directory entries live in.
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }

    /// Mirror the counters into `metrics` as the
    /// `mao_result_cache_disk_*_total` families. First attachment wins.
    pub fn attach_metrics(&self, metrics: &mao::obs::Metrics) {
        self.store.attach_metrics(metrics, "mao_result_cache_disk");
    }

    #[cfg(test)]
    fn path_of(&self, key: RequestKey) -> std::path::PathBuf {
        self.store.path_of(key.raw())
    }

    /// Look up an entry, decoding and verifying it. Invalid entries are
    /// deleted and reported as misses; a hit refreshes the LRU position.
    pub fn get(&self, key: RequestKey) -> Option<OptimizeOutcome> {
        self.store
            .get(key.raw(), |frame| decode_body(frame.body).ok())
    }

    /// Write an entry (atomic tmp+rename), then evict entries past the byte
    /// budget. Write errors are swallowed — the disk tier is an accelerator,
    /// not a source of truth.
    pub fn put(&self, key: RequestKey, outcome: &OptimizeOutcome) {
        self.store.put(key.raw(), &encode_entry(key, outcome));
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        self.store.stats()
    }
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Serialize one entry to its on-disk frame. All integers little-endian;
/// strings are `u64`-length-prefixed, lists `u32`-count-prefixed.
pub fn encode_entry(key: RequestKey, outcome: &OptimizeOutcome) -> Vec<u8> {
    let mut body = Vec::with_capacity(outcome.asm.len() + 256);
    put_bytes(&mut body, outcome.asm.as_bytes());
    body.extend_from_slice(&(outcome.passes.len() as u32).to_le_bytes());
    for (name, transformations, matches) in &outcome.passes {
        put_bytes(&mut body, name.as_bytes());
        body.extend_from_slice(&(*transformations as u64).to_le_bytes());
        body.extend_from_slice(&(*matches as u64).to_le_bytes());
    }
    body.extend_from_slice(&(outcome.timings_us.len() as u32).to_le_bytes());
    for (name, us) in &outcome.timings_us {
        put_bytes(&mut body, name.as_bytes());
        body.extend_from_slice(&us.to_le_bytes());
    }
    body.extend_from_slice(&(outcome.trace.len() as u32).to_le_bytes());
    for line in &outcome.trace {
        put_bytes(&mut body, line.as_bytes());
    }
    KIND.encode(0, key.raw(), &body)
}

/// Decode and verify one entry file's bytes for `expected` key.
pub fn decode_entry(bytes: &[u8], expected: RequestKey) -> Result<OptimizeOutcome, FrameError> {
    decode_body(KIND.decode(bytes, Some(expected.raw()))?.body)
}

fn decode_body(body: &[u8]) -> Result<OptimizeOutcome, FrameError> {
    let mut r = Reader::new(body);
    let asm = r.str()?.to_owned();
    let mut passes = Vec::new();
    for _ in 0..r.u32()? {
        let name = r.str()?.to_owned();
        let transformations = r.u64()? as usize;
        let matches = r.u64()? as usize;
        passes.push((name, transformations, matches));
    }
    let mut timings_us = Vec::new();
    for _ in 0..r.u32()? {
        timings_us.push((r.str()?.to_owned(), r.u64()?));
    }
    let mut trace = Vec::new();
    for _ in 0..r.u32()? {
        trace.push(r.str()?.to_owned());
    }
    r.finish()?;
    Ok(OptimizeOutcome {
        asm,
        passes,
        timings_us,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result_cache::request_key;
    use mao_frame::testing;
    use proptest::prelude::*;
    use std::path::PathBuf;

    fn outcome(asm: &str) -> OptimizeOutcome {
        OptimizeOutcome {
            asm: asm.to_string(),
            passes: vec![("DCE".into(), 2, 3)],
            timings_us: vec![("DCE".into(), 41)],
            trace: vec!["a line".into()],
        }
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "maod-disk-cache-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn encode_decode_roundtrip() {
        let key = request_key("nop\n", "DCE", mao::isa::IsaId::X86_64);
        let original = outcome("nop\n");
        let bytes = encode_entry(key, &original);
        assert_eq!(decode_entry(&bytes, key).unwrap(), original);
    }

    #[test]
    fn truncation_and_corruption_are_rejected() {
        let key = request_key("nop\n", "DCE", mao::isa::IsaId::X86_64);
        let bytes = encode_entry(key, &outcome("nop\n"));
        for cut in [0, 4, 12, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_entry(&bytes[..cut], key).is_err(),
                "truncated at {cut}"
            );
        }
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(decode_entry(&flipped, key).is_err(), "bit flip detected");
        let other = request_key("other\n", "DCE", mao::isa::IsaId::X86_64);
        assert_eq!(decode_entry(&bytes, other), Err(FrameError::WrongKey));
        let mut stale = bytes.clone();
        stale[8] = 99; // version field
        assert_eq!(decode_entry(&stale, key), Err(FrameError::StaleVersion(99)));
    }

    #[test]
    fn put_get_and_restart_reindex() {
        let dir = tempdir("roundtrip");
        let key = request_key("a\n", "DCE", mao::isa::IsaId::X86_64);
        {
            let cache = DiskCache::open(StoreConfig::new(&dir)).unwrap();
            assert!(cache.get(key).is_none());
            cache.put(key, &outcome("a\n"));
            assert_eq!(cache.get(key).unwrap().asm, "a\n");
            let s = cache.stats();
            assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        }
        // A fresh instance over the same directory starts warm.
        let cache = DiskCache::open(StoreConfig::new(&dir)).unwrap();
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.get(key).unwrap().asm, "a\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_file_is_evicted_not_served() {
        // A flipped byte, and a body-length field inflated to overflow any
        // unchecked `header + len + checksum` sum.
        for inflate in [false, true] {
            let dir = tempdir(&format!("corrupt-{inflate}"));
            let cache = DiskCache::open(StoreConfig::new(&dir)).unwrap();
            let key = request_key("a\n", "DCE", mao::isa::IsaId::X86_64);
            cache.put(key, &outcome("a\n"));
            let path = cache.path_of(key);
            let mut bytes = std::fs::read(&path).unwrap();
            if inflate {
                bytes[32..40].copy_from_slice(&u64::MAX.to_le_bytes()); // body_len
            } else {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0xff;
            }
            std::fs::write(&path, &bytes).unwrap();
            assert!(cache.get(key).is_none());
            assert!(!path.exists(), "corrupt entry deleted");
            let s = cache.stats();
            assert_eq!(s.corrupt, 1);
            assert_eq!(s.entries, 0);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn size_bound_evicts_lru() {
        let dir = tempdir("evict");
        let one_entry =
            encode_entry(request_key("0", "", mao::isa::IsaId::X86_64), &outcome("0")).len() as u64;
        let cache = DiskCache::open(StoreConfig {
            dir: dir.clone(),
            max_bytes: one_entry * 2 + 1,
            fsync: false,
        })
        .unwrap();
        let k0 = request_key("0", "", mao::isa::IsaId::X86_64);
        let k1 = request_key("1", "", mao::isa::IsaId::X86_64);
        let k2 = request_key("2", "", mao::isa::IsaId::X86_64);
        cache.put(k0, &outcome("0"));
        cache.put(k1, &outcome("1"));
        assert!(cache.get(k0).is_some()); // refresh k0; k1 becomes LRU
        cache.put(k2, &outcome("2"));
        assert!(cache.get(k1).is_none(), "LRU entry evicted");
        assert!(cache.get(k0).is_some());
        assert!(cache.get(k2).is_some());
        assert_eq!(cache.stats().evictions, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_instances_share_a_directory() {
        let dir = tempdir("share");
        let a = DiskCache::open(StoreConfig::new(&dir)).unwrap();
        let b = DiskCache::open(StoreConfig::new(&dir)).unwrap();
        let key = request_key("shared\n", "DCE", mao::isa::IsaId::X86_64);
        a.put(key, &outcome("shared\n"));
        // B never wrote this key but reads A's entry.
        assert_eq!(b.get(key).unwrap().asm, "shared\n");
        assert_eq!(b.stats().hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Damaged frames never decode; damaged bodies behind a valid
        /// checksum, and other kinds' bodies under a `.mc` header, reach
        /// the body decoder and must not panic it.
        #[test]
        fn damaged_entries_never_decode(seed in any::<u64>()) {
            let key = request_key("nop\n", "DCE", mao::isa::IsaId::X86_64);
            let good = encode_entry(key, &outcome("nop\n"));
            for bad in testing::damaged(&good, seed) {
                prop_assert!(decode_entry(&bad, key).is_err());
            }
            let _ = decode_entry(&testing::damage_body(&good, seed), key);
            let layout = crate::layout_disk::tests::sample_frame();
            prop_assert!(decode_entry(&layout, key).is_err());
            prop_assert!(decode_entry(&testing::reframe(&good, testing::body(&layout)), key).is_err());
        }
    }
}
