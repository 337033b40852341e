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
//! whole run in one pass ([`Reader::u64s`], [`Reader::u32s`],
//! [`Reader::f32s`]).
//! Both directions use the `chunks_exact` + `to/from_le_bytes` idiom:
//! on a little-endian host the loop compiles to a block copy, on a
//! big-endian host it byte-swaps — the bytes on the wire are the same
//! either way, and there is no `unsafe`.
//!
//! Every byte format of the system is built from these: the gateway's
//! binary frame (`igcn_gateway::wire`, version 3), the
//! [snapshot](crate::snapshot) and the [write-ahead log](crate::wal).
//! A payload is u64 scalars ([`put_u64`]) and sections, read back
//! through one cursor, [`Reader`]. The snapshot and the WAL also keep
//! every section 8-byte aligned from the start of the file (zero
//! padding after a u32 or f32 section), so a later reader can take them
//! in place.
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

/// Appends one u64 scalar.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends zero bytes up to the next multiple of 8 from the start of
/// `out` — what keeps the section after a u32 or f32 one aligned.
pub(crate) fn pad8(out: &mut Vec<u8>) {
    out.resize(out.len().next_multiple_of(8), 0);
}

/// Appends host offsets (`usize`) as a section of u64s.
pub fn put_u64s(out: &mut Vec<u8>, values: &[usize]) {
    put(out, values, |v| (v as u64).to_le_bytes());
}

/// Appends a section of u64 words.
pub(crate) fn put_words(out: &mut Vec<u8>, values: &[u64]) {
    put(out, values, u64::to_le_bytes);
}

/// Appends a section of u32s.
pub fn put_u32s(out: &mut Vec<u8>, values: &[u32]) {
    put(out, values, u32::to_le_bytes);
}

/// Appends a section of u32 pairs, each as its two u32s in order.
pub(crate) fn put_pairs(out: &mut Vec<u8>, values: &[(u32, u32)]) {
    put(out, values, |(a, b)| {
        let mut pair = [0; 8];
        pair[..4].copy_from_slice(&a.to_le_bytes());
        pair[4..].copy_from_slice(&b.to_le_bytes());
        pair
    });
}

/// Appends a section of f32s as their raw IEEE-754 bits (NaN payloads
/// included).
pub fn put_f32s(out: &mut Vec<u8>, values: &[f32]) {
    put(out, values, f32::to_le_bytes);
}

/// The cursor over a payload of u64 scalars and sections: what the
/// gateway's frame decoder, the snapshot and the WAL read through.
///
/// Every failure is a message naming the defect, and `noun` ("frame",
/// "snapshot", "record") names whose payload it is. A count field is
/// checked against the bytes that are left when it is read, and a
/// section once more when it is taken; neither reserves anything first.
pub struct Reader<'a> {
    buf: &'a [u8],
    len: usize,
    noun: &'static str,
    dim_cap: u64,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `payload`; [`Reader::dim_field`] refuses
    /// values above `dim_cap`.
    pub fn new(payload: &'a [u8], noun: &'static str, dim_cap: u64) -> Self {
        Reader { buf: payload, len: payload.len(), noun, dim_cap }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.buf.len() < n {
            return Err(format!("{} payload truncated", self.noun));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.bytes(1)?[0])
    }

    /// A u64 scalar.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(le64(self.bytes(8)?))
    }

    /// A `len(u64) | utf8` string.
    pub fn string(&mut self, len_what: &str, what: &str) -> Result<String, String> {
        let len = self.count_field(len_what, 1)?;
        std::str::from_utf8(self.bytes(len)?)
            .map(str::to_string)
            .map_err(|_| format!("{what} is not UTF-8"))
    }

    /// A u64 scalar (dimension) field that never drives an allocation
    /// by itself: only capped, so the `usize` conversion and later
    /// arithmetic stay well-behaved.
    pub fn dim_field(&mut self, what: &str) -> Result<usize, String> {
        let v = self.u64()?;
        if v > self.dim_cap || usize::try_from(v).is_err() {
            return Err(format!("{what} of {v} is implausibly large"));
        }
        Ok(v as usize)
    }

    /// A u64 element-count field whose elements occupy `elem_bytes`
    /// each: refused unless the *remaining* payload can hold that many
    /// elements, so a hostile count in a short payload is refused before
    /// any `Vec` is reserved.
    pub fn count_field(&mut self, what: &str, elem_bytes: usize) -> Result<usize, String> {
        let v = self.u64()?;
        let remaining = self.buf.len() as u64;
        if v > remaining / elem_bytes as u64 {
            return Err(format!(
                "{what} of {v} cannot fit the {}'s remaining {remaining} payload bytes",
                self.noun
            ));
        }
        Ok(v as usize)
    }

    /// A section of `count` elements of `width` bytes, unconverted — the
    /// one length check of a section, made before anything is allocated.
    /// A refused section consumes nothing.
    pub(crate) fn section(&mut self, count: usize, width: usize) -> Result<&'a [u8], String> {
        match count.checked_mul(width).filter(|&n| n <= self.buf.len()) {
            Some(n) => self.bytes(n),
            None => Err(format!(
                "{} payload truncated: section truncated: {count} elements of {width} bytes \
                 do not fit the remaining {} bytes",
                self.noun,
                self.buf.len()
            )),
        }
    }

    /// A section of `count` elements of `N` bytes, element `i` decoded by
    /// `from_le` — the one pass that converts it.
    #[inline]
    fn take<T, const N: usize>(
        &mut self,
        count: usize,
        from_le: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>, String> {
        Ok(self
            .section(count, N)?
            .chunks_exact(N)
            .map(|c| from_le(c.try_into().expect("N-byte chunk")))
            .collect())
    }

    /// A section of `count` u64s as host offsets; an element above
    /// `usize::MAX` (32-bit hosts only) is refused.
    pub fn u64s(&mut self, count: usize) -> Result<Vec<usize>, String> {
        let words = self.words(count)?;
        match words.iter().find(|&&v| usize::try_from(v).is_err()) {
            Some(v) => Err(format!(
                "{} payload truncated: section element {v} does not fit a usize",
                self.noun
            )),
            None => Ok(words.into_iter().map(|v| v as usize).collect()),
        }
    }

    /// A section of `count` u64 words.
    pub(crate) fn words(&mut self, count: usize) -> Result<Vec<u64>, String> {
        self.take(count, u64::from_le_bytes)
    }

    /// A section of `count` u32s.
    pub fn u32s(&mut self, count: usize) -> Result<Vec<u32>, String> {
        self.take(count, u32::from_le_bytes)
    }

    /// A section of `count` u32 pairs.
    pub(crate) fn pairs(&mut self, count: usize) -> Result<Vec<(u32, u32)>, String> {
        self.take(count, |pair: [u8; 8]| {
            let half =
                |at: usize| u32::from_le_bytes(pair[at..at + 4].try_into().expect("4 bytes"));
            (half(0), half(4))
        })
    }

    /// A section of `count` f32s (raw bits, NaN payloads included).
    pub fn f32s(&mut self, count: usize) -> Result<Vec<f32>, String> {
        self.take(count, f32::from_le_bytes)
    }

    /// The zero bytes [`pad8`] wrote: up to the next multiple of 8 from
    /// the start of the payload.
    pub(crate) fn pad8(&mut self) -> Result<(), String> {
        let at = self.len - self.buf.len();
        if self.bytes(at.next_multiple_of(8) - at)?.iter().any(|&b| b != 0) {
            return Err(format!("{} payload has non-zero padding at byte {at}", self.noun));
        }
        Ok(())
    }
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

        let mut r = Reader::new(&bytes[1..], "test", 0);
        assert_eq!(r.u64s(4).unwrap(), offsets);
        assert_eq!(r.u32s(3).unwrap(), cols);
        let back = r.f32s(5).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&vals), "NaN payload and signed zero survive");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn overlong_counts_are_refused_before_allocation() {
        let bytes = [0u8; 15];
        let mut r = Reader::new(&bytes, "test", 0);
        for count in [2usize, 1 << 40, usize::MAX] {
            let err = r.u64s(count).unwrap_err();
            assert_eq!(
                err,
                format!(
                    "test payload truncated: section truncated: {count} elements of 8 bytes \
                     do not fit the remaining 15 bytes"
                )
            );
            assert_eq!(r.remaining(), 15, "a refused section consumes nothing");
        }
        assert!(r.u32s(4).unwrap_err().contains("do not fit"));
        assert!(r.f32s(usize::MAX).unwrap_err().contains("do not fit"));
        // Exactly enough is enough, and empty sections are fine.
        assert_eq!(r.u32s(3).unwrap().len(), 3);
        assert_eq!(r.f32s(0).unwrap().len(), 0);
        assert_eq!(r.remaining(), 3);
    }
}
