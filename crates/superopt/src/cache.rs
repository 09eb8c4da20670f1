//! The persistent learned-rewrite cache.
//!
//! Discovered rewrites are expensive (hundreds of simulator runs per
//! window) but reusable forever: a rewrite is keyed by the canonicalized
//! window hash, so every function — in this run, a warm rerun, or another
//! maod shard sharing the directory — that contains a register-renamed
//! copy of the same window applies it at pattern-pass speed. Negative
//! results are cached too ("searched, nothing cheaper"), which is what
//! makes warm runs skip the search entirely.
//!
//! The disk tier is an unbounded [`ArtifactStore`] of `.msr` frames, the
//! store every persistent cache shares: atomic writes, and truncated,
//! bit-flipped, stale, or misnamed files evicted, never served. Rewrites
//! are stored as canonical AT&T text and reparsed on load — and every cache
//! hit is still re-verified against the window before being applied, so a
//! corrupted-but-well-formed entry can degrade performance, never
//! correctness.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;

use mao::MaoUnit;
use mao_frame::{ArtifactStore, FrameError, Kind, Reader, StoreConfig};
use mao_x86::Instruction;

/// Bumped whenever the entry encoding or the meaning of a cached rewrite
/// changes; entries with any other version are evicted on contact.
/// Version 2 moved the entry onto the shared frame.
pub const REWRITE_FORMAT_VERSION: u32 = 2;

/// The `.msr` frame kind ("MAO Superopt Rewrite"). Its ISA field is 0:
/// canonical windows are x86-64 text, and the text is the key.
const KIND: Kind = Kind {
    magic: *b"MAOSR\0\0\x01",
    version: REWRITE_FORMAT_VERSION,
    ext: "msr",
};

/// What the cache knows about one canonical window.
#[derive(Debug, Clone, PartialEq)]
pub enum CachedResult {
    /// A verified, strictly cheaper replacement (canonical register
    /// space).
    Rewrite(Vec<Instruction>),
    /// The search ran to completion and found nothing cheaper.
    NoImprovement,
}

/// Two-tier rewrite store: an in-memory map always, a shared directory
/// when configured. Hits and misses are counted by the pass
/// (`mao_superopt_cache_{hits,misses}_total`), not here.
pub struct RewriteCache {
    disk: Option<ArtifactStore>,
    mem: Mutex<HashMap<u128, CachedResult>>,
}

impl RewriteCache {
    /// In-memory only (the default for one-shot pipeline runs).
    pub fn in_memory() -> RewriteCache {
        RewriteCache {
            disk: None,
            mem: Mutex::new(HashMap::new()),
        }
    }

    /// Backed by `dir` (created if missing); entries persist across runs
    /// and may be shared between processes.
    pub fn persistent(dir: impl Into<PathBuf>) -> std::io::Result<RewriteCache> {
        Ok(RewriteCache {
            disk: Some(ArtifactStore::open(KIND, StoreConfig::new(dir))?),
            ..RewriteCache::in_memory()
        })
    }

    /// Corrupt or stale disk entries evicted instead of served so far.
    pub fn corrupt(&self) -> u64 {
        self.disk.as_ref().map_or(0, |d| d.stats().corrupt)
    }

    /// Look up a canonical window key.
    pub fn load(&self, key: u128) -> Option<CachedResult> {
        let in_memory = self.mem.lock().unwrap().get(&key).cloned();
        in_memory.or_else(|| {
            let disk = self.disk.as_ref()?;
            let result = disk.get(key, |frame| decode_body(frame.body).ok())?;
            self.mem.lock().unwrap().insert(key, result.clone());
            Some(result)
        })
    }

    /// Record a search result.
    pub fn store(&self, key: u128, result: &CachedResult) {
        self.mem.lock().unwrap().insert(key, result.clone());
        if let Some(disk) = &self.disk {
            disk.put(key, &encode_entry(key, result));
        }
    }
}

/// Serialize to a frame whose body is a kind byte plus, for a rewrite, its
/// canonical AT&T text.
fn encode_entry(key: u128, result: &CachedResult) -> Vec<u8> {
    let mut body = Vec::new();
    match result {
        CachedResult::NoImprovement => body.push(0u8),
        CachedResult::Rewrite(insns) => {
            body.push(1u8);
            let mut text = String::new();
            for insn in insns {
                let _ = writeln!(text, "\t{insn}");
            }
            body.extend_from_slice(&(text.len() as u64).to_le_bytes());
            body.extend_from_slice(text.as_bytes());
        }
    }
    KIND.encode(0, key, &body)
}

fn decode_body(body: &[u8]) -> Result<CachedResult, FrameError> {
    let mut r = Reader::new(body);
    let result = match r.u8()? {
        0 => CachedResult::NoImprovement,
        1 => {
            let unit = MaoUnit::parse(r.str()?)
                .map_err(|_| FrameError::Malformed("unparseable rewrite"))?;
            let insns = unit
                .entries()
                .iter()
                .filter_map(|e| e.insn().cloned())
                .collect();
            CachedResult::Rewrite(insns)
        }
        _ => return Err(FrameError::Malformed("unknown entry kind")),
    };
    r.finish()?;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mao_frame::testing;
    use proptest::prelude::*;

    fn insns(lines: &str) -> Vec<Instruction> {
        let text: String = lines.lines().map(|l| format!("\t{}\n", l.trim())).collect();
        let unit = MaoUnit::parse(&text).unwrap();
        unit.entries()
            .iter()
            .filter_map(|e| e.insn().cloned())
            .collect()
    }

    fn entry_path(dir: &std::path::Path, key: u128) -> PathBuf {
        dir.join(format!("{key:032x}.{}", KIND.ext))
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("mao-superopt-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn memory_roundtrip() {
        let c = RewriteCache::in_memory();
        assert_eq!(c.load(7), None);
        c.store(7, &CachedResult::Rewrite(insns("movq %rax, %rcx")));
        assert_eq!(
            c.load(7),
            Some(CachedResult::Rewrite(insns("movq %rax, %rcx")))
        );
        c.store(9, &CachedResult::NoImprovement);
        assert_eq!(c.load(9), Some(CachedResult::NoImprovement));
    }

    #[test]
    fn disk_roundtrip_across_instances() {
        let dir = tmpdir("roundtrip");
        let key = 0xdead_beef_u128;
        {
            let c = RewriteCache::persistent(&dir).unwrap();
            c.store(key, &CachedResult::Rewrite(insns("leaq 4(%rax), %rcx")));
        }
        let c2 = RewriteCache::persistent(&dir).unwrap();
        assert_eq!(
            c2.load(key),
            Some(CachedResult::Rewrite(insns("leaq 4(%rax), %rcx")))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_evicted_never_served() {
        // A flipped body byte, and a body-length field inflated to overflow
        // any unchecked `header + len` sum.
        for inflate in [false, true] {
            let dir = tmpdir(&format!("corrupt-{inflate}"));
            let key = 41u128;
            let c = RewriteCache::persistent(&dir).unwrap();
            c.store(key, &CachedResult::Rewrite(insns("movq %rax, %rcx")));
            // Damage the entry on disk, then read through a fresh instance
            // (the first one would answer from memory).
            let path = entry_path(&dir, key);
            let mut bytes = std::fs::read(&path).unwrap();
            if inflate {
                bytes[32..40].copy_from_slice(&(u64::MAX - 35).to_le_bytes()); // body_len
            } else {
                let mid = bytes.len() - 9;
                bytes[mid] ^= 0xff;
            }
            std::fs::write(&path, &bytes).unwrap();
            let c2 = RewriteCache::persistent(&dir).unwrap();
            assert_eq!(c2.load(key), None);
            assert!(!path.exists(), "corrupt entry deleted");
            assert_eq!(c2.corrupt(), 1);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn stale_version_is_evicted() {
        let dir = tmpdir("stale");
        let key = 43u128;
        let c = RewriteCache::persistent(&dir).unwrap();
        c.store(key, &CachedResult::NoImprovement);
        let path = entry_path(&dir, key);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] = 0xfe; // version field
        std::fs::write(&path, &bytes).unwrap();
        let c2 = RewriteCache::persistent(&dir).unwrap();
        assert_eq!(c2.load(key), None);
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Damaged frames never decode; damaged bodies behind a valid
        /// checksum, and a snapshot body under a `.msr` header, reach the
        /// body decoder and must not panic it.
        #[test]
        fn damaged_rewrites_never_decode(seed in any::<u64>()) {
            let good = encode_entry(7, &CachedResult::Rewrite(insns("leaq 4(%rax), %rcx")));
            let decode = |bytes: &[u8]| KIND.decode(bytes, Some(7)).and_then(|f| decode_body(f.body));
            prop_assert!(decode(&good).is_ok());
            for bad in testing::damaged(&good, seed) {
                prop_assert!(decode(&bad).is_err());
            }
            let _ = decode(&testing::damage_body(&good, seed));
            let snap = mao_asm::snapshot::encode(&mao_asm::parse("nop\n").unwrap(), 7);
            prop_assert!(decode(&snap).is_err());
            prop_assert!(decode(&testing::reframe(&good, testing::body(&snap))).is_err());
        }
    }
}
