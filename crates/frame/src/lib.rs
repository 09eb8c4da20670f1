//! Framed containers and the artifact store: the one binary envelope every
//! persistent cache writes, and the one directory store that keeps them.
//!
//! Optimize results (`.mc`), solved layouts (`.ml`), IR snapshots
//! (`.msnap`), learned rewrites (`.msr`) and each store's `store.idx` are
//! all *frames*: a fixed header, a kind-specific body, and a checksum. A
//! [`Kind`] names one artifact kind (magic, format version, file
//! extension); [`Kind::encode`] writes a frame and [`Kind::decode`]
//! validates one. Body decoders parse with the bounded [`Reader`].
//! [`ArtifactStore`] keeps one frame per 128-bit key in a directory.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! offset      size      field
//! 0           8         magic     names the kind, e.g. b"MAOSNAP\x01"
//! 8           4         version   the kind's format version
//! 12          4         isa       ISA tag of the body (0: ISA-neutral)
//! 16          16        key       content key the artifact is stored under
//! 32          8         body_len
//! 40          body_len  body
//! 40+body_len 8         checksum  word-wise FNV-1a-64 of bytes 8..40+body_len
//! ```
//!
//! [`Kind::decode`] checks magic, version, total length, checksum and (when
//! asked) the key, in that order, before it hands out the body: a body
//! decoder only ever sees bytes that were written whole by the current
//! format version. The length check compares against the bytes present and
//! never does arithmetic on the declared length.

mod store;
#[doc(hidden)]
pub mod testing;

pub use store::{ArtifactStore, StoreConfig, StoreStats};

use std::fmt;

/// Bytes before the body.
pub const HEADER_LEN: usize = 40;
/// Bytes after the body.
const CHECKSUM_LEN: usize = 8;

/// One artifact kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kind {
    /// 8-byte file magic.
    pub magic: [u8; 8],
    /// Current format version. Bump it whenever the body encoding or the
    /// meaning of a stored artifact changes: frames of any other version
    /// are rejected, and stores evict them on contact.
    pub version: u32,
    /// File extension of this kind's entries in an [`ArtifactStore`].
    pub ext: &'static str,
}

/// A validated frame: its header fields and its body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// ISA tag of the body (0 for ISA-neutral kinds).
    pub isa: u32,
    /// The content key stamped at encode time.
    pub key: u128,
    /// The kind-specific payload.
    pub body: &'a [u8],
}

/// Why bytes failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Structurally invalid: truncated, bad magic, a length that does not
    /// match the bytes, or a body that does not parse.
    Malformed(&'static str),
    /// A frame written by another format version.
    StaleVersion(u32),
    /// The frame stores a different key than the caller expects.
    WrongKey,
    /// Checksum mismatch: bit rot or a torn write.
    Corrupt,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Malformed(what) => write!(f, "malformed frame: {what}"),
            FrameError::StaleVersion(v) => write!(f, "stale format version {v}"),
            FrameError::WrongKey => write!(f, "content key mismatch"),
            FrameError::Corrupt => write!(f, "checksum mismatch"),
        }
    }
}

impl std::error::Error for FrameError {}

impl Kind {
    /// Frame `body` under this kind's header.
    pub fn encode(&self, isa: u32, key: u128, body: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + body.len() + CHECKSUM_LEN);
        out.extend_from_slice(&self.magic);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&isa.to_le_bytes());
        out.extend_from_slice(&key.to_le_bytes());
        out.extend_from_slice(&(body.len() as u64).to_le_bytes());
        out.extend_from_slice(body);
        let sum = checksum64(&out[8..]);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Validate a frame of this kind. With `expected_key`, the stamped key
    /// must match it (protecting content-addressed stores from misnamed
    /// files).
    pub fn decode<'a>(
        &self,
        bytes: &'a [u8],
        expected_key: Option<u128>,
    ) -> Result<Frame<'a>, FrameError> {
        let mut r = Reader::new(bytes);
        if r.take(8)? != self.magic {
            return Err(FrameError::Malformed("bad magic"));
        }
        let version = r.u32()?;
        if version != self.version {
            return Err(FrameError::StaleVersion(version));
        }
        let isa = r.u32()?;
        let key = r.u128()?;
        let declared = r.u64()?;
        let body_len = match r.remaining().checked_sub(CHECKSUM_LEN) {
            Some(n) if n as u64 == declared => n,
            _ => return Err(FrameError::Malformed("length mismatch")),
        };
        let body = r.take(body_len)?;
        if r.u64()? != checksum64(&bytes[8..HEADER_LEN + body_len]) {
            return Err(FrameError::Corrupt);
        }
        if expected_key.is_some_and(|k| k != key) {
            return Err(FrameError::WrongKey);
        }
        Ok(Frame { isa, key, body })
    }
}

const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Word-wise FNV-1a-64: 8 bytes per round, so checksumming does not
/// dominate snapshot load time. The frame checksum.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut h = FNV64_OFFSET;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h ^= u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = h.wrapping_mul(FNV64_PRIME);
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rest.len()].copy_from_slice(rest);
        tail[7] = rest.len() as u8; // disambiguate zero-padding from zeros
        h ^= u64::from_le_bytes(tail);
        h = h.wrapping_mul(FNV64_PRIME);
    }
    h
}

/// Byte-wise FNV-1a-128: the content key of source text and of canonical
/// superoptimizer windows. Stable across processes and builds (it names
/// files on disk).
pub fn fnv1a128(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u128::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

const TRUNCATED: FrameError = FrameError::Malformed("truncated");

/// Bounds-checked little-endian cursor over untrusted bytes. Every read
/// fails with [`FrameError::Malformed`] rather than running past the end.
/// The primitives split the slice (one compare per read, no position
/// arithmetic) and inline, because snapshot decoding reads ~10 bytes per
/// entry through them.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { rest: bytes }
    }

    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// A safe `Vec::with_capacity` for `count` declared items that each
    /// take at least one input byte: a lying count cannot reserve more
    /// than the input could fill.
    #[inline]
    pub fn capacity(&self, count: usize) -> usize {
        count.min(self.rest.len())
    }

    /// Fail unless every byte was consumed.
    pub fn finish(&self) -> Result<(), FrameError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(FrameError::Malformed("trailing bytes"))
        }
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if n > self.rest.len() {
            return Err(TRUNCATED);
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    /// The next `N` bytes as an array.
    #[inline(always)]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], FrameError> {
        match self.rest.split_first_chunk::<N>() {
            Some((head, tail)) => {
                self.rest = tail;
                Ok(*head)
            }
            None => Err(TRUNCATED),
        }
    }

    /// One byte.
    #[inline(always)]
    pub fn u8(&mut self) -> Result<u8, FrameError> {
        match self.rest.split_first() {
            Some((&b, tail)) => {
                self.rest = tail;
                Ok(b)
            }
            None => Err(TRUNCATED),
        }
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, FrameError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, FrameError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A little-endian `u128`.
    #[inline]
    pub fn u128(&mut self) -> Result<u128, FrameError> {
        self.array().map(u128::from_le_bytes)
    }

    /// An LEB128 varint.
    #[inline(always)]
    pub fn varint(&mut self) -> Result<u64, FrameError> {
        // Single-byte fast path: most varints are counts and small indices.
        if let Some((&b, tail)) = self.rest.split_first() {
            if b < 0x80 {
                self.rest = tail;
                return Ok(u64::from(b));
            }
        }
        self.varint_multi()
    }

    fn varint_multi(&mut self) -> Result<u64, FrameError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift >= 64 {
                return Err(FrameError::Malformed("varint overflow"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// A `u64`-length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], FrameError> {
        let n = self.u64()?;
        self.take(usize::try_from(n).map_err(|_| TRUNCATED)?)
    }

    /// A `u64`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, FrameError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| FrameError::Malformed("not UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const KIND: Kind = Kind {
        magic: *b"MAOTEST\x01",
        version: 3,
        ext: "mt",
    };
    const OTHER: Kind = Kind {
        magic: *b"MAOTEST\x02",
        version: 3,
        ext: "mt2",
    };

    fn sample() -> Vec<u8> {
        KIND.encode(2, 0xfeed, b"a body of some length")
    }

    #[test]
    fn roundtrip_and_header_fields() {
        let bytes = sample();
        assert_eq!(bytes.len(), HEADER_LEN + 21 + CHECKSUM_LEN);
        let frame = KIND.decode(&bytes, Some(0xfeed)).unwrap();
        assert_eq!(
            frame,
            Frame {
                isa: 2,
                key: 0xfeed,
                body: b"a body of some length"
            }
        );
        assert_eq!(KIND.decode(&bytes, None).unwrap(), frame);
        let empty = KIND.encode(0, 0, b"");
        assert_eq!(KIND.decode(&empty, None).unwrap().body, b"");
    }

    #[test]
    fn every_damage_class_is_rejected() {
        let bytes = sample();
        assert_eq!(
            OTHER.decode(&bytes, None),
            Err(FrameError::Malformed("bad magic"))
        );
        let mut stale = bytes.clone();
        stale[8] = 99; // version field
        assert_eq!(KIND.decode(&stale, None), Err(FrameError::StaleVersion(99)));
        assert_eq!(KIND.decode(&bytes, Some(1)), Err(FrameError::WrongKey));
        for at in [12, 16, HEADER_LEN, bytes.len() - 1] {
            let mut flipped = bytes.clone();
            flipped[at] ^= 1;
            assert_eq!(
                KIND.decode(&flipped, None),
                Err(FrameError::Corrupt),
                "{at}"
            );
        }
        for declared in [u64::MAX, u64::MAX - 7, 22, 20] {
            let mut inflated = bytes.clone();
            inflated[32..40].copy_from_slice(&declared.to_le_bytes());
            assert_eq!(
                KIND.decode(&inflated, None),
                Err(FrameError::Malformed("length mismatch")),
                "{declared}"
            );
        }
        // Another kind's header spliced onto this body.
        let other = OTHER.encode(1, 0xbeef, b"x");
        let spliced = [&other[..32], &bytes[32..]].concat();
        assert_eq!(
            KIND.decode(&spliced, None),
            Err(FrameError::Malformed("bad magic"))
        );
        assert_eq!(OTHER.decode(&spliced, None), Err(FrameError::Corrupt));
        for cut in [0, 7, 8, 12, 16, 32, 39, 40, bytes.len() - 1] {
            assert!(KIND.decode(&bytes[..cut], None).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn checksum_covers_header_and_catches_zero_padding() {
        assert_ne!(checksum64(b"\x01"), checksum64(b"\x01\x00"));
        assert_ne!(checksum64(b""), checksum64(b"\x00"));
    }

    #[test]
    fn fnv1a128_matches_the_reference_vectors() {
        // FNV-1a-128 of "" is the offset basis; of "a" a published value.
        assert_eq!(fnv1a128(b""), 0x6c62272e07bb014262b821756295c58d);
        assert_eq!(fnv1a128(b"a"), 0xd228cb696f1a8caf78912b704e4a8964);
    }

    #[test]
    fn reader_never_reads_past_the_end() {
        let mut r = Reader::new(&[0x80, 0x80]);
        assert_eq!(r.varint(), Err(TRUNCATED));
        let mut r = Reader::new(&[0xff; 11]);
        assert_eq!(r.varint(), Err(FrameError::Malformed("varint overflow")));
        let mut r = Reader::new(&[5, 0, 0, 0, 0, 0, 0, 0, b'x']);
        assert_eq!(r.bytes(), Err(TRUNCATED));
        let huge = u64::MAX.to_le_bytes();
        let mut r = Reader::new(&huge);
        assert_eq!(r.bytes(), Err(TRUNCATED));
        let mut r = Reader::new(&[1, 0, 0, 0, 0, 0, 0, 0, 0xff]);
        assert_eq!(r.str(), Err(FrameError::Malformed("not UTF-8")));
        let r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.capacity(usize::MAX), 3);
        assert!(r.finish().is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// No damaged frame decodes; damage that keeps a valid checksum
        /// reaches `decode` and must not panic.
        #[test]
        fn damaged_frames_never_decode(seed in any::<u64>()) {
            let bytes = sample();
            for bad in testing::damaged(&bytes, seed) {
                prop_assert!(KIND.decode(&bad, None).is_err());
            }
            let reframed = testing::damage_body(&bytes, seed);
            prop_assert!(KIND.decode(&reframed, None).is_ok());
        }
    }
}
