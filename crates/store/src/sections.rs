//! Bulk little-endian sections and the word-at-a-time checksum that
//! guards them.
//!
//! A *section* is a run of fixed-width little-endian numbers with no
//! per-element framing: the element count travels in the enclosing
//! format's own header fields, and the section itself is just
//! `count × width` bytes. Writing one is a single block copy into the
//! destination buffer ([`put_u64s`], [`put_u32s`], [`put_f32s`]);
//! reading one checks the count against the bytes that are actually
//! left **once, before anything is reserved**, and then converts the
//! whole run in one pass ([`take_u64s`], [`take_u32s`], [`take_f32s`]).
//! Both directions use the `chunks_exact` + `to/from_le_bytes` idiom:
//! on a little-endian host the loop compiles to a block copy, on a
//! big-endian host it byte-swaps — the bytes on the wire are the same
//! either way, and there is no `unsafe`.
//!
//! The gateway's binary frame (`igcn_gateway::wire`, version 3) is the
//! first format built from these; the snapshot and the WAL still use
//! their per-element codec under [`fnv1a64`](crate::snapshot::fnv1a64)
//! and are meant to move here when their boot paths are reworked.
//!
//! # `checksum64`
//!
//! [`checksum64`] is XXH64 (Yann Collet's xxHash, 64-bit variant) with
//! seed 0, written out locally. With the primes
//!
//! ```text
//! P1 = 0x9E3779B185EBCA87   P2 = 0xC2B2AE3D27D4EB4F   P3 = 0x165667B19E3779F9
//! P4 = 0x85EBCA77C2B2AE63   P5 = 0x27D4EB2F165667C5
//! round(acc, w) = rotl(acc + w·P2, 31) · P1
//! merge(h, v)   = (h ^ round(0, v)) · P1 + P4
//! ```
//!
//! (all arithmetic wrapping, all words little-endian) it is:
//!
//! 1. **Stripes.** If the input is at least 32 bytes long, four lanes
//!    start at `P1+P2`, `P2`, `0`, `−P1`; every 32-byte stripe feeds
//!    its four 8-byte words to the four lanes through `round` — the
//!    lanes never depend on each other, so the four multiplies of a
//!    stripe run in parallel — and then
//!    `h = rotl(v1,1) + rotl(v2,7) + rotl(v3,12) + rotl(v4,18)`
//!    followed by `merge(h, v1..v4)`. Shorter inputs start from
//!    `h = P5`.
//! 2. **Length.** `h += len`.
//! 3. **Tail.** Each remaining 8-byte word: `h = rotl(h ^ round(0,w), 27)·P1 + P4`;
//!    one remaining 4-byte word: `h = rotl(h ^ w·P1, 23)·P2 + P3`;
//!    each remaining byte: `h = rotl(h ^ b·P5, 11)·P1`.
//! 4. **Avalanche.** `h ^= h>>33; h *= P2; h ^= h>>29; h *= P3; h ^= h>>32`.
//!
//! Test vectors (the published XXH64 seed-0 values; pinned by this
//! module's tests):
//!
//! | input | `checksum64` |
//! |---|---|
//! | `""` | `0xEF46DB3751D8E999` |
//! | `"a"` | `0xD24EC4F1A98C6E5B` |
//! | `"abc"` | `0x44BC2CF5AD770999` |
//! | `"Nobody inspects the spammish repetition"` | `0xFBCEA83C8A378BF1` |
//!
//! Like FNV before it, it guards against corruption, not tampering.
//! Unlike FNV's one dependent multiply per *byte*, it spends four
//! independent multiplies per 32 bytes, which is what lets a frame be
//! summed at memory speed.

use std::fmt;

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline]
fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
}

#[inline]
fn merge(h: u64, lane: u64) -> u64 {
    (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

#[inline]
fn le64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"))
}

/// XXH64 with seed 0 over `bytes` (see the [module docs](self) for the
/// definition and test vectors).
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)];
        for stripe in &mut stripes {
            v[0] = round(v[0], le64(&stripe[0..8]));
            v[1] = round(v[1], le64(&stripe[8..16]));
            v[2] = round(v[2], le64(&stripe[16..24]));
            v[3] = round(v[3], le64(&stripe[24..32]));
        }
        let h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.iter().fold(h, |h, &lane| merge(h, lane))
    } else {
        P5
    };
    h = h.wrapping_add(bytes.len() as u64);

    let mut words = stripes.remainder().chunks_exact(8);
    for word in &mut words {
        h = (h ^ round(0, le64(word))).rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
    }
    let mut tail = words.remainder();
    if tail.len() >= 4 {
        let word = u32::from_le_bytes(tail[..4].try_into().expect("4-byte chunk")) as u64;
        h = (h ^ word.wrapping_mul(P1)).rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        tail = &tail[4..];
    }
    for &b in tail {
        h = (h ^ (b as u64).wrapping_mul(P5)).rotate_left(11).wrapping_mul(P1);
    }

    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Why a section could not be taken off the front of a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionError {
    /// The section's `count × width` bytes are not all there.
    Truncated {
        /// Elements the section was declared to hold.
        count: usize,
        /// Bytes per element.
        width: usize,
        /// Bytes actually left in the buffer.
        remaining: usize,
    },
    /// A u64 element does not fit this host's `usize`.
    TooWide(u64),
}

impl fmt::Display for SectionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SectionError::Truncated { count, width, remaining } => write!(
                f,
                "section truncated: {count} elements of {width} bytes do not fit the remaining {remaining} bytes"
            ),
            SectionError::TooWide(v) => write!(f, "section element {v} does not fit a usize"),
        }
    }
}

impl std::error::Error for SectionError {}

/// Appends `values.len() × N` bytes to `out`, element `i` encoded by
/// `to_le(values[i])`. The destination is sized once; the loop over
/// fixed-width chunks is what the compiler turns into a block copy.
#[inline]
fn put<T: Copy, const N: usize>(out: &mut Vec<u8>, values: &[T], to_le: impl Fn(T) -> [u8; N]) {
    let start = out.len();
    out.resize(start + values.len() * N, 0);
    for (dst, &v) in out[start..].chunks_exact_mut(N).zip(values) {
        dst.copy_from_slice(&to_le(v));
    }
}

/// Splits `count × N` bytes off the front of `input` — the one length
/// check of a section, made before anything is allocated.
#[inline]
fn split<'a, const N: usize>(input: &mut &'a [u8], count: usize) -> Result<&'a [u8], SectionError> {
    let bytes = count
        .checked_mul(N)
        .filter(|&bytes| bytes <= input.len())
        .ok_or(SectionError::Truncated { count, width: N, remaining: input.len() })?;
    let (head, rest) = input.split_at(bytes);
    *input = rest;
    Ok(head)
}

/// Appends host offsets (`usize`) as a section of u64s.
pub fn put_u64s(out: &mut Vec<u8>, values: &[usize]) {
    put(out, values, |v| (v as u64).to_le_bytes());
}

/// Appends a section of u32s.
pub fn put_u32s(out: &mut Vec<u8>, values: &[u32]) {
    put(out, values, u32::to_le_bytes);
}

/// Appends a section of f32s as their raw IEEE-754 bits (NaN payloads
/// included).
pub fn put_f32s(out: &mut Vec<u8>, values: &[f32]) {
    put(out, values, f32::to_le_bytes);
}

/// Takes a section of `count` u64s off the front of `input` as host
/// offsets.
///
/// # Errors
///
/// [`SectionError::Truncated`] if fewer than `count × 8` bytes remain
/// (nothing is allocated); [`SectionError::TooWide`] if an element
/// exceeds `usize::MAX` (32-bit hosts only).
pub fn take_u64s(input: &mut &[u8], count: usize) -> Result<Vec<usize>, SectionError> {
    split::<8>(input, count)?
        .chunks_exact(8)
        .map(|c| {
            let v = le64(c);
            usize::try_from(v).map_err(|_| SectionError::TooWide(v))
        })
        .collect()
}

/// Takes a section of `count` u32s off the front of `input`.
///
/// # Errors
///
/// [`SectionError::Truncated`] if fewer than `count × 4` bytes remain
/// (nothing is allocated).
pub fn take_u32s(input: &mut &[u8], count: usize) -> Result<Vec<u32>, SectionError> {
    Ok(split::<4>(input, count)?
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
        .collect())
}

/// Takes a section of `count` f32s (raw bits) off the front of `input`.
///
/// # Errors
///
/// As [`take_u32s`].
pub fn take_f32s(input: &mut &[u8], count: usize) -> Result<Vec<f32>, SectionError> {
    Ok(split::<4>(input, count)?
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum64_matches_the_published_xxh64_vectors() {
        assert_eq!(checksum64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(checksum64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(checksum64(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(checksum64(b"Nobody inspects the spammish repetition"), 0xFBCE_A83C_8A37_8BF1);
    }

    /// A deterministic byte pattern with no short period.
    fn pattern(len: usize) -> Vec<u8> {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn every_single_bit_flip_changes_the_sum() {
        // Lengths straddling every code path: no stripe, exactly one,
        // stripes + 8-byte words + a 4-byte word + bytes.
        for len in [1usize, 7, 31, 32, 33, 64, 109] {
            let base = pattern(len);
            let sum = checksum64(&base);
            for bit in 0..len * 8 {
                let mut flipped = base.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum64(&flipped), sum, "len {len}: flip of bit {bit} undetected");
            }
        }
    }

    #[test]
    fn word_swaps_truncation_and_zero_extension_change_the_sum() {
        let base = pattern(256);
        let sum = checksum64(&base);
        let swapped = |a: usize, b: usize| {
            let mut bytes = base.clone();
            for i in 0..8 {
                bytes.swap(a * 8 + i, b * 8 + i);
            }
            checksum64(&bytes)
        };
        // Words 1 and 5 feed the same lane (one stripe apart); words 1
        // and 2 feed neighbouring lanes of one stripe; 3 and 12 differ
        // in both.
        assert_ne!(swapped(1, 5), sum, "same-lane swap undetected");
        assert_ne!(swapped(1, 2), sum, "cross-lane swap undetected");
        assert_ne!(swapped(3, 12), sum, "cross-stripe cross-lane swap undetected");
        for cut in [1usize, 8, 32, 255] {
            assert_ne!(checksum64(&base[..256 - cut]), sum, "truncation by {cut} undetected");
        }
        // All-zero inputs of different lengths differ only in `len`.
        let zeros = [0u8; 96];
        let mut seen = std::collections::HashSet::new();
        for len in 0..=96 {
            assert!(seen.insert(checksum64(&zeros[..len])), "zero run of {len} collides");
        }
        let mut extended = base.clone();
        extended.push(0);
        assert_ne!(checksum64(&extended), sum, "zero extension undetected");
    }

    #[test]
    fn sections_round_trip_and_are_little_endian() {
        let offsets = [0usize, 1, 1 << 40, usize::MAX];
        let cols = [0u32, 7, u32::MAX];
        let vals = [0.0f32, -0.0, f32::MIN_POSITIVE, f32::from_bits(0x7FC0_1234), -1.5];
        let mut bytes = vec![0xAA]; // sections append, they do not overwrite
        put_u64s(&mut bytes, &offsets);
        put_u32s(&mut bytes, &cols);
        put_f32s(&mut bytes, &vals);
        assert_eq!(bytes.len(), 1 + 4 * 8 + 3 * 4 + 5 * 4);
        assert_eq!(&bytes[1 + 8..1 + 16], &[1, 0, 0, 0, 0, 0, 0, 0], "u64 1 is little-endian");
        assert_eq!(&bytes[1 + 32 + 4..1 + 32 + 8], &[7, 0, 0, 0], "u32 7 is little-endian");

        let mut input = &bytes[1..];
        assert_eq!(take_u64s(&mut input, 4).unwrap(), offsets);
        assert_eq!(take_u32s(&mut input, 3).unwrap(), cols);
        let back = take_f32s(&mut input, 5).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&vals), "NaN payload and signed zero survive");
        assert!(input.is_empty());
    }

    #[test]
    fn overlong_counts_are_refused_before_allocation() {
        let bytes = [0u8; 15];
        for count in [2usize, 1 << 40, usize::MAX] {
            let mut input = &bytes[..];
            assert_eq!(
                take_u64s(&mut input, count),
                Err(SectionError::Truncated { count, width: 8, remaining: 15 })
            );
            assert_eq!(input.len(), 15, "a refused section consumes nothing");
        }
        let mut input = &bytes[..];
        assert!(matches!(take_u32s(&mut input, 4), Err(SectionError::Truncated { .. })));
        assert!(matches!(take_f32s(&mut input, usize::MAX), Err(SectionError::Truncated { .. })));
        // Exactly enough is enough, and empty sections are fine.
        assert_eq!(take_u32s(&mut input, 3).unwrap().len(), 3);
        assert_eq!(take_f32s(&mut input, 0).unwrap().len(), 0);
        assert_eq!(input.len(), 3);
    }
}
