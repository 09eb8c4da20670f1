//! Front-end snapshot tier: binary IR snapshots keyed by input content.
//!
//! A snapshot (`mao_asm::snapshot`) is the parsed entry list of one
//! assembly unit in a compact binary form — loading one skips tokenizing,
//! operand parsing, and validation entirely. [`SnapshotStore`] keeps
//! snapshots in an [`ArtifactStore`] keyed by
//! [`mao_asm::snapshot::content_key`] of the *input text*, so any consumer
//! holding the same bytes (the daemon across restarts, repeated one-shot
//! `mao` runs pointed at a `--snapshot-dir`, a build system re-optimizing
//! an unchanged translation unit) hits without ever parsing.
//!
//! The `.msnap` files are verbatim [`mao_asm::snapshot::encode`] output —
//! byte-identical to what `mao --emit-snapshot` writes — so artifacts move
//! freely between the store and explicit snapshot files. A snapshot is a
//! [`mao_frame`] frame like every other stored artifact; corrupt,
//! truncated, or version-skewed files fail validation and the store evicts
//! them without serving.

use std::io;
use std::path::PathBuf;

use mao_asm::snapshot::{self, Snapshot};
use mao_asm::Entry;
use mao_frame::{ArtifactStore, StoreConfig, StoreStats};

/// A content-addressed store of parsed-unit snapshots.
#[derive(Debug)]
pub struct SnapshotStore {
    store: ArtifactStore,
}

impl SnapshotStore {
    /// Open (creating if needed) a snapshot store under `dir` with a byte
    /// budget (0 = unbounded).
    pub fn open(dir: impl Into<PathBuf>, max_bytes: u64) -> io::Result<SnapshotStore> {
        let config = StoreConfig {
            max_bytes,
            ..StoreConfig::new(dir)
        };
        Ok(SnapshotStore {
            store: ArtifactStore::open(snapshot::KIND, config)?,
        })
    }

    /// The store key for `text` — the snapshot content key of the input.
    pub fn key_of(text: &str) -> u128 {
        snapshot::content_key(text)
    }

    /// Load the decoded entries for input `text`, if a valid snapshot is
    /// stored. Invalid snapshots are evicted, never served.
    pub fn load(&self, text: &str) -> Option<Vec<Entry>> {
        self.load_key(Self::key_of(text))
    }

    /// Like [`SnapshotStore::load`] with a precomputed key (callers that
    /// already hashed the input avoid a second pass over it).
    pub fn load_key(&self, key: u128) -> Option<Vec<Entry>> {
        self.store.get(key, |frame| {
            Snapshot::from_frame(frame)
                .and_then(|snap| snap.to_entries())
                .ok()
        })
    }

    /// Encode and store a snapshot of `entries` parsed from input with
    /// content key `key`.
    pub fn put(&self, key: u128, entries: &[Entry]) {
        self.store.put(key, &snapshot::encode(entries, key));
    }

    /// Register the store's counter cells as
    /// `mao_frontend_snapshot_store_*_total`.
    pub fn attach_metrics(&self, metrics: &mao::obs::Metrics) {
        self.store
            .attach_metrics(metrics, "mao_frontend_snapshot_store");
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        self.store.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str =
        "\t.text\nf:\n\tpush %rbp\n\tmov %rsp, %rbp\n\tjmp .L1\n.L1:\n\tpop %rbp\n\tret\n";

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mao-snapshot-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn store_roundtrips_parsed_entries() {
        let dir = tempdir("roundtrip");
        let s = SnapshotStore::open(&dir, 0).unwrap();
        let entries = mao_asm::parse(TEXT).unwrap();
        let key = SnapshotStore::key_of(TEXT);
        assert!(s.load(TEXT).is_none());
        s.put(key, &entries);
        assert_eq!(s.load(TEXT).unwrap(), entries);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stored_file_matches_emit_snapshot_output() {
        let dir = tempdir("verbatim");
        let s = SnapshotStore::open(&dir, 0).unwrap();
        let entries = mao_asm::parse(TEXT).unwrap();
        let key = SnapshotStore::key_of(TEXT);
        s.put(key, &entries);
        let on_disk = std::fs::read(dir.join(format!("{key:032x}.msnap"))).unwrap();
        assert_eq!(
            on_disk,
            snapshot::encode(&entries, key),
            ".msnap files are verbatim --emit-snapshot bytes"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_truncated_and_skewed_snapshots_are_evicted_never_served() {
        let entries = mao_asm::parse(TEXT).unwrap();
        let key = SnapshotStore::key_of(TEXT);
        let good = snapshot::encode(&entries, key);
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("corrupt", {
                let mut b = good.clone();
                let mid = b.len() / 2;
                b[mid] ^= 0xff;
                b
            }),
            ("truncated", good[..good.len() / 2].to_vec()),
            ("version-skew", {
                let mut b = good.clone();
                b[8] = 0x7f; // version field past the magic
                b
            }),
            ("wrong-key", snapshot::encode(&entries, key ^ 1)),
        ];
        for (tag, bytes) in cases {
            let dir = tempdir(&format!("bad-{tag}"));
            let s = SnapshotStore::open(&dir, 0).unwrap();
            let path = dir.join(format!("{key:032x}.msnap"));
            std::fs::write(&path, &bytes).unwrap();
            assert!(s.load(TEXT).is_none(), "{tag}: must not serve");
            assert!(!path.exists(), "{tag}: must evict the file");
            assert_eq!(s.stats().corrupt, 1, "{tag}: counted corrupt");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
