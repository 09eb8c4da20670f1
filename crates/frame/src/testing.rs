//! Damage generators for the decoder fuzz tests of every frame kind. Not
//! part of the API.

use crate::{checksum64, HEADER_LEN};

/// Damaged copies of the valid `frame` that no decoder may accept: a
/// truncation at every header-field boundary and inside the trailer, the
/// body-length field set to `u64::MAX`, `len + 1` and `len - 1`, and one
/// bit flipped at a position chosen by `seed`.
pub fn damaged(frame: &[u8], seed: u64) -> Vec<Vec<u8>> {
    let n = frame.len();
    let mut out: Vec<Vec<u8>> = [0, 8, 12, 16, 32, HEADER_LEN, n - 8, n - 1]
        .iter()
        .map(|&cut| frame[..cut].to_vec())
        .collect();
    let declared = (n - HEADER_LEN - 8) as u64;
    for lie in [u64::MAX, declared + 1, declared.wrapping_sub(1)] {
        let mut f = frame.to_vec();
        f[32..40].copy_from_slice(&lie.to_le_bytes());
        out.push(f);
    }
    let bit = (seed % (n as u64 * 8)) as usize;
    let mut f = frame.to_vec();
    f[bit / 8] ^= 1 << (bit % 8);
    out.push(f);
    out
}

/// The body of a valid frame.
pub fn body(frame: &[u8]) -> &[u8] {
    &frame[HEADER_LEN..frame.len() - 8]
}

/// `frame`'s header (magic, version, ISA, key) over `body`, with a fresh
/// length and checksum: damage that gets past the frame and reaches the
/// body decoder.
pub fn reframe(frame: &[u8], body: &[u8]) -> Vec<u8> {
    let mut out = frame[..32].to_vec();
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(body);
    let sum = checksum64(&out[8..]);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// `frame` reframed around its body damaged one way chosen by `seed`: a
/// bit flip, a truncation, or a byte overwritten.
pub fn damage_body(frame: &[u8], seed: u64) -> Vec<u8> {
    let mut b = body(frame).to_vec();
    let pick = seed / 3;
    match seed % 3 {
        0 if !b.is_empty() => {
            let bit = (pick % (b.len() as u64 * 8)) as usize;
            b[bit / 8] ^= 1 << (bit % 8);
        }
        1 => b.truncate((pick % (b.len() as u64 + 1)) as usize),
        _ if !b.is_empty() => {
            let at = (pick % b.len() as u64) as usize;
            b[at] = (seed >> 56) as u8;
        }
        _ => {}
    }
    reframe(frame, &b)
}
