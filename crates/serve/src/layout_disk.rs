//! Persistent layout tier: solved branch-relaxation layouts on disk.
//!
//! Branch relaxation is the most expensive analysis the optimizer runs per
//! unit — an iterative address/size fixed point over every entry. The
//! in-memory slot in `mao`'s `AnalysisCache` already reuses layouts across
//! requests within one process; [`DiskLayoutStore`] extends that across
//! restarts and between instances sharing a cache directory, the same
//! promotion the result cache got from its disk tier.
//!
//! Each solved [`Layout`] is an `.ml` frame (unit-content key and ISA tag in
//! the header) kept in an [`ArtifactStore`] — atomic writes, validated
//! evict-never-serve reads, segmented LRU eviction, startup index. The store
//! plugs into core via the [`mao::LayoutStore`] trait; `Engine::build` wires
//! one per daemon under `<cache_dir>/layout`.
//!
//! The frame deliberately omits `Layout::metrics` (solver telemetry, not
//! layout): a loaded layout reports zeroed metrics and `agrees_with`
//! ignores them.

use std::io;

use mao::isa::IsaId;
use mao::relax::BranchForm;
use mao::Layout;
use mao_frame::{ArtifactStore, Frame, Kind, Reader, StoreConfig, StoreStats};

/// Bumped whenever the frame encoding or the meaning of a stored layout
/// changes (e.g. relaxation semantics); other versions are evicted on
/// contact. Version 2 added the ISA tag — a layout solved for one
/// instruction set must never be served for another. Version 3 moved the
/// entry onto the shared frame.
pub const LAYOUT_FORMAT_VERSION: u32 = 3;

/// The `.ml` frame kind.
const KIND: Kind = Kind {
    magic: *b"MAOLYT\0\x01",
    version: LAYOUT_FORMAT_VERSION,
    ext: "ml",
};

/// Body bytes per layout entry: address, size, branch form.
const ENTRY_BYTES: usize = 8 + 4 + 1;

/// Serialize one layout to its on-disk frame. Body: entry count, then the
/// addresses, sizes and branch forms as columns, then the iteration count.
pub fn encode_layout(key: u128, isa: IsaId, layout: &Layout) -> Vec<u8> {
    let n = layout.addr.len();
    let mut body = Vec::with_capacity(8 + n * ENTRY_BYTES + 8);
    body.extend_from_slice(&(n as u64).to_le_bytes());
    for &addr in &layout.addr {
        body.extend_from_slice(&addr.to_le_bytes());
    }
    for &size in &layout.size {
        body.extend_from_slice(&size.to_le_bytes());
    }
    for &form in &layout.branch_form {
        body.push(match form {
            None => 0,
            Some(BranchForm::Rel8) => 1,
            Some(BranchForm::Rel32) => 2,
        });
    }
    body.extend_from_slice(&(layout.iterations as u64).to_le_bytes());
    KIND.encode(isa.tag(), key, &body)
}

/// Decode and verify one frame for the unit-content key and ISA it claims
/// to store. Any structural problem — truncation, bad magic, stale
/// version, wrong key, **wrong ISA**, checksum mismatch, out-of-range form
/// byte — returns `None`; the caller treats the file as corrupt and evicts
/// it.
pub fn decode_layout(bytes: &[u8], expected_key: u128, expected_isa: IsaId) -> Option<Layout> {
    decode_body(KIND.decode(bytes, Some(expected_key)).ok()?, expected_isa)
}

fn decode_body(frame: Frame<'_>, expected_isa: IsaId) -> Option<Layout> {
    if IsaId::from_tag(frame.isa) != Some(expected_isa) {
        return None;
    }
    let mut r = Reader::new(frame.body);
    let n = usize::try_from(r.u64().ok()?).ok()?;
    // The columns must fill the body exactly, which also bounds every
    // allocation below by the input.
    if n.checked_mul(ENTRY_BYTES)?.checked_add(8)? != r.remaining() {
        return None;
    }
    let mut addr = Vec::with_capacity(n);
    for _ in 0..n {
        addr.push(r.u64().ok()?);
    }
    let mut size = Vec::with_capacity(n);
    for _ in 0..n {
        size.push(r.u32().ok()?);
    }
    let mut branch_form = Vec::with_capacity(n);
    for _ in 0..n {
        branch_form.push(match r.u8().ok()? {
            0 => None,
            1 => Some(BranchForm::Rel8),
            2 => Some(BranchForm::Rel32),
            _ => return None,
        });
    }
    let iterations = r.u64().ok()? as usize;
    Some(Layout {
        addr,
        size,
        branch_form,
        iterations,
        metrics: Default::default(),
    })
}

/// The `.ml` codec over an [`ArtifactStore`], implementing
/// [`mao::LayoutStore`] so `AnalysisCache` consults it on memory-tier
/// misses. One instance is shared by every shard of a daemon (the store is
/// thread-safe).
#[derive(Debug)]
pub struct DiskLayoutStore {
    store: ArtifactStore,
}

impl DiskLayoutStore {
    /// Open (creating if needed) a layout store under `dir` with a byte
    /// budget (0 = unbounded).
    pub fn open_dir(
        dir: impl Into<std::path::PathBuf>,
        max_bytes: u64,
    ) -> io::Result<DiskLayoutStore> {
        let config = StoreConfig {
            max_bytes,
            ..StoreConfig::new(dir)
        };
        Ok(DiskLayoutStore {
            store: ArtifactStore::open(KIND, config)?,
        })
    }

    /// Register the store's counter cells as `mao_layout_store_disk_*_total`.
    pub fn attach_metrics(&self, metrics: &mao::obs::Metrics) {
        self.store.attach_metrics(metrics, "mao_layout_store_disk");
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        self.store.stats()
    }
}

impl mao::LayoutStore for DiskLayoutStore {
    fn load(&self, key: u128, isa: IsaId) -> Option<Layout> {
        self.store.get(key, |frame| decode_body(frame, isa))
    }

    fn store(&self, key: u128, isa: IsaId, layout: &Layout) {
        self.store.put(key, &encode_layout(key, isa, layout));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mao::LayoutStore as _;
    use mao_frame::testing;
    use proptest::prelude::*;
    use std::path::PathBuf;

    fn layout() -> Layout {
        Layout {
            addr: vec![0, 0, 2, 7],
            size: vec![0, 2, 5, 1],
            branch_form: vec![None, Some(BranchForm::Rel8), Some(BranchForm::Rel32), None],
            iterations: 3,
            metrics: Default::default(),
        }
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mao-layout-disk-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn encode_decode_roundtrip() {
        let original = layout();
        let bytes = encode_layout(42, IsaId::X86_64, &original);
        let decoded = decode_layout(&bytes, 42, IsaId::X86_64).unwrap();
        assert!(decoded.agrees_with(&original));
    }

    #[test]
    fn truncation_corruption_and_skew_are_rejected() {
        let bytes = encode_layout(42, IsaId::X86_64, &layout());
        for cut in [0, 7, 19, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_layout(&bytes[..cut], 42, IsaId::X86_64).is_none(),
                "cut at {cut}"
            );
        }
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        assert!(
            decode_layout(&flipped, 42, IsaId::X86_64).is_none(),
            "bit flip"
        );
        assert!(
            decode_layout(&bytes, 43, IsaId::X86_64).is_none(),
            "wrong key"
        );
        let mut stale = bytes.clone();
        stale[8] = 99; // version field
        assert!(
            decode_layout(&stale, 42, IsaId::X86_64).is_none(),
            "stale version"
        );
    }

    #[test]
    fn wrong_isa_frame_is_rejected_like_corruption() {
        // A layout solved for aarch64 must never be served for an x86-64
        // unit sharing the content key, and vice versa.
        let bytes = encode_layout(42, IsaId::Aarch64, &layout());
        assert!(decode_layout(&bytes, 42, IsaId::Aarch64).is_some());
        assert!(
            decode_layout(&bytes, 42, IsaId::X86_64).is_none(),
            "wrong isa"
        );
        // Same through the store: the mismatched frame is evicted on contact.
        let dir = tempdir("wrong-isa");
        let s = DiskLayoutStore::open_dir(&dir, 0).unwrap();
        s.store(9, IsaId::Aarch64, &layout());
        assert!(s.load(9, IsaId::X86_64).is_none());
        let path = dir.join(format!("{:032x}.ml", 9u128));
        assert!(!path.exists(), "wrong-ISA layout evicted, not served");
        assert_eq!(s.stats().corrupt, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_roundtrip_and_corrupt_eviction() {
        // A flipped byte, and a body-length field inflated to overflow any
        // unchecked `header + len + checksum` sum.
        for inflate in [false, true] {
            let dir = tempdir(&format!("store-{inflate}"));
            let s = DiskLayoutStore::open_dir(&dir, 0).unwrap();
            assert!(s.load(7, IsaId::X86_64).is_none());
            s.store(7, IsaId::X86_64, &layout());
            assert!(s.load(7, IsaId::X86_64).unwrap().agrees_with(&layout()));
            // Damage the file on disk: the next load evicts, never serves.
            let path = dir.join(format!("{:032x}.ml", 7u128));
            let mut bytes = std::fs::read(&path).unwrap();
            if inflate {
                bytes[32..40].copy_from_slice(&(u64::MAX - 7).to_le_bytes()); // body_len
            } else {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0xff;
            }
            std::fs::write(&path, &bytes).unwrap();
            assert!(s.load(7, IsaId::X86_64).is_none());
            assert!(!path.exists(), "corrupt layout deleted");
            assert_eq!(s.stats().corrupt, 1);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A valid `.ml` frame (key 42, x86-64), for cross-kind splices.
    pub(crate) fn sample_frame() -> Vec<u8> {
        encode_layout(42, IsaId::X86_64, &layout())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Damaged frames never decode; damaged bodies behind a valid
        /// checksum, and a `.mc` body under a `.ml` header, reach the body
        /// decoder and must not panic it.
        #[test]
        fn damaged_layouts_never_decode(seed in any::<u64>()) {
            let good = sample_frame();
            for bad in testing::damaged(&good, seed) {
                prop_assert!(decode_layout(&bad, 42, IsaId::X86_64).is_none());
            }
            let _ = decode_layout(&testing::damage_body(&good, seed), 42, IsaId::X86_64);
            let key = crate::result_cache::request_key("nop\n", "DCE", IsaId::X86_64);
            let outcome = crate::OptimizeOutcome {
                asm: "nop\n".into(),
                passes: vec![],
                timings_us: vec![],
                trace: vec![],
            };
            let mc = crate::disk_cache::encode_entry(key, &outcome);
            prop_assert!(decode_layout(&mc, 42, IsaId::X86_64).is_none());
            let spliced = testing::reframe(&good, testing::body(&mc));
            prop_assert!(decode_layout(&spliced, 42, IsaId::X86_64).is_none());
        }
    }
}
