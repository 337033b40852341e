//! The typed streaming JSON codec of the gateway's two bulk HTTP
//! bodies: the `POST /v1/infer` request and its `200` reply.
//!
//! ```json
//! {"id": 7, "deadline_ms": 250,
//!  "features": {"rows": N, "cols": D, "row_ptr": [...], "col_idx": [...], "values": [...]}}
//! {"id": 7, "output": {"rows": N, "cols": K, "data": [...]}}
//! ```
//!
//! Both directions work on bytes, once. The **writer**
//! ([`write_infer_request`], [`write_infer_response`]) appends text
//! straight to the buffer that goes to the socket — integers through a
//! local itoa, `f32`s as below. The **reader** ([`read_infer_request`],
//! [`read_infer_response`]) is a pull scanner over the received bytes:
//! keys in any order, unknown keys skipped (whatever their value, down
//! to 128 levels of nesting), the first occurrence of a repeated key
//! counted, the known arrays parsed directly into `Vec<usize>` /
//! `Vec<u32>` / `Vec<f32>`, and anything but whitespace after the
//! document an error. A missing or ill-typed field is reported by name
//! (`features missing "rows"`, `features col_idx must be an array of
//! u32`, …) — the gateway's `400` body. What is and is not accepted,
//! and every error text, match `serde::json::JsonValue::parse` plus
//! field extraction, which these bodies used to go through and which
//! every small body the gateway serves (`/healthz`, `/stats`,
//! `/traces`, error objects) still does; this module's tests hold the
//! reader to that oracle on a seeded corpus.
//!
//! # Number format
//!
//! An `f32` is **written** as the shortest decimal that names it and
//! only it — at most nine significant digits: `0.5`, `1234.5`,
//! `0.0012`, `1.1754944e-38` — and **read** by parsing the token
//! directly *as an `f32`* (correctly rounded), so the text round trip
//! is **bit-exact**: an output matrix fetched over HTTP equals a direct
//! `Accelerator::infer` bit for bit. Integers are plain digits.
//!
//! Before wire version 3 the gateway widened every value to `f64` and
//! printed up to 17 digits; those digits name the same `f32` and still
//! decode to the same bits, so an old client can talk to a new server
//! and vice versa. (The tree parser rounded twice — token to `f64`,
//! `f64` to `f32` — which can differ from one correct rounding only for
//! a token within 2⁻⁵³ of the midpoint between two adjacent `f32`s, and
//! it read the integer-looking token `-0` as `+0`; no encoder, old or
//! new, writes either.)
//!
//! # Accepted tokens
//!
//! Where a number is expected the reader takes any JSON number —
//! fraction, exponent (`1e3`, `2.5E-3`), leading `-` — plus the bare
//! tokens `NaN`, `Infinity` and `-Infinity`, the documented extension
//! both ends share for non-finite values (a NaN's payload bits are not
//! preserved — use the binary protocol for that level of fidelity). An
//! integer field (`id`, `rows`, a `row_ptr` / `col_idx` element)
//! accepts any number token whose value is a non-negative integer in
//! range, so `7`, `7.0` and `7e0` are the same `id`.
//!
//! # Memory bound
//!
//! The reader never builds a tree. Each known array is parsed straight
//! into its final `Vec`, allocated once for the number of elements the
//! array's own bytes can hold — its separators, and never more than one
//! element per two bytes of text. Peak decode memory is therefore at
//! most **4× the body** (a `row_ptr` of 8-byte offsets written as
//! `0,0,0,…`; 2× for the 4-byte arrays) plus a constant — where the
//! tree cost 32 bytes a node, a 4 GB allocation for a 256 MB body of
//! zeros. Skipped values allocate nothing beyond an escaped string's
//! own length.

use std::borrow::Cow;

use igcn_graph::SparseFeatures;
use igcn_linalg::DenseMatrix;

/// Deepest nesting the reader accepts (arrays + objects), the same cap
/// `serde::json`'s tree parser applies.
const MAX_DEPTH: usize = 128;

// ---------------------------------------------------------------- writer

/// Appends the `POST /v1/infer` body for one request to `out`.
pub fn write_infer_request(
    out: &mut Vec<u8>,
    id: u64,
    deadline_ms: Option<u64>,
    features: &SparseFeatures,
) {
    let nnz = features.nnz();
    // Upper bounds per element: an offset has at most as many digits
    // as `nnz`, a column as `num_cols`, an f32 at most 16 characters
    // (`-0.0000123456789`); plus a comma each.
    out.reserve(
        160 + features.row_ptr().len() * (digits(nnz as u64) + 1)
            + nnz * (digits(features.num_cols() as u64) + 1 + 17),
    );
    out.extend_from_slice(b"{\"id\":");
    push_u64(out, id);
    if let Some(ms) = deadline_ms {
        out.extend_from_slice(b",\"deadline_ms\":");
        push_u64(out, ms);
    }
    out.extend_from_slice(b",\"features\":{\"rows\":");
    push_u64(out, features.num_rows() as u64);
    out.extend_from_slice(b",\"cols\":");
    push_u64(out, features.num_cols() as u64);
    out.extend_from_slice(b",\"row_ptr\":");
    push_array(out, features.row_ptr(), |out, v| push_u64(out, v as u64));
    out.extend_from_slice(b",\"col_idx\":");
    push_array(out, features.col_idx(), |out, v| push_u64(out, v as u64));
    out.extend_from_slice(b",\"values\":");
    push_array(out, features.values(), push_f32);
    out.extend_from_slice(b"}}");
}

/// Appends the `200` body for one inference output to `out`.
pub fn write_infer_response(out: &mut Vec<u8>, id: u64, output: &DenseMatrix) {
    out.reserve(96 + output.as_slice().len() * 17);
    out.extend_from_slice(b"{\"id\":");
    push_u64(out, id);
    out.extend_from_slice(b",\"output\":{\"rows\":");
    push_u64(out, output.rows() as u64);
    out.extend_from_slice(b",\"cols\":");
    push_u64(out, output.cols() as u64);
    out.extend_from_slice(b",\"data\":");
    push_array(out, output.as_slice(), push_f32);
    out.extend_from_slice(b"}}");
}

fn push_array<T: Copy>(out: &mut Vec<u8>, items: &[T], push: impl Fn(&mut Vec<u8>, T)) {
    out.push(b'[');
    for (i, &item) in items.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        push(out, item);
    }
    out.push(b']');
}

/// Decimal digits of `v` (1 for zero).
fn digits(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Writes the decimal digits of `v` right-aligned into `buf` and
/// returns where they start.
fn format_u64(mut v: u64, buf: &mut [u8; 20]) -> usize {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            return at;
        }
    }
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    let mut buf = [0u8; 20];
    let at = format_u64(v, &mut buf);
    out.extend_from_slice(&buf[at..]);
}

/// `10^(k - 31)` for `k` in `0..86`: every power of ten
/// [`shortest_digits`] scales an `f32` by, each correctly rounded.
#[rustfmt::skip]
const POW10: [f64; 86] = [
    1e-31, 1e-30, 1e-29, 1e-28, 1e-27, 1e-26, 1e-25, 1e-24, 1e-23, 1e-22, 1e-21, 1e-20, 1e-19,
    1e-18, 1e-17, 1e-16, 1e-15, 1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6,
    1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22, 1e23, 1e24, 1e25, 1e26,
    1e27, 1e28, 1e29, 1e30, 1e31, 1e32, 1e33, 1e34, 1e35, 1e36, 1e37, 1e38, 1e39, 1e40, 1e41,
    1e42, 1e43, 1e44, 1e45, 1e46, 1e47, 1e48, 1e49, 1e50, 1e51, 1e52, 1e53, 1e54,
];

fn pow10(exp: i32) -> f64 {
    POW10[(exp + 31) as usize]
}

/// The fewest decimal digits that name `a` (finite, positive) and only
/// `a`: returns `(d, e)` such that the decimal `d × 10^e` lies strictly
/// inside `a`'s rounding interval, so `str::parse::<f32>` — which is
/// correctly rounded — maps it back to `a`'s exact bits. `d` has at
/// most nine digits and no trailing zero.
///
/// Method: scale `a` (exact as an `f64`) by a power of ten so that it
/// lands in `[1e8, 1e9)`, round to an integer — nine digits always
/// identify an `f32` — and then drop low digits for as long as the
/// rounded value stays within the half-gap to `a`'s nearer neighbour.
/// Every comparison is made in `f64` with a `2⁻²⁰` safety margin on the
/// half-gap, five orders of magnitude more than the scaling's rounding
/// error (`2⁻⁵²` relative), so a digit string is only ever accepted if
/// the true decimal is inside the interval. The result need not be the
/// digit string closest to `a`, only one that round-trips.
fn shortest_digits(a: f32) -> (u32, i32) {
    let x = a as f64;
    // `a`'s lower neighbour is never farther than its upper one (it is
    // nearer when `a` is a power of two), so half that gap is a safe
    // radius on both sides.
    let half_gap = (x - a.next_down() as f64) * 0.5;
    // floor(log10(x)) from the binary exponent, corrected below.
    let e2 = (x.to_bits() >> 52) as i32 - 1023;
    let mut e10 = (e2 * 1233) >> 12;
    let mut scaled = x * pow10(8 - e10);
    while scaled >= 1e9 {
        e10 += 1;
        scaled = x * pow10(8 - e10);
    }
    while scaled < 1e8 {
        e10 -= 1;
        scaled = x * pow10(8 - e10);
    }
    let radius = half_gap * pow10(8 - e10) * (1.0 - 1.0 / (1u32 << 20) as f64);
    let nine = (scaled + 0.5) as u32;
    let (mut best, mut dropped) = (nine, 0);
    let (mut quotient, mut unit) = (nine, 1u32);
    for k in 1..=9 {
        // nine = quotient × unit + remainder, rounded half up — kept
        // to divisions by the constant 10.
        quotient /= 10;
        unit *= 10;
        let rounded = quotient + u32::from(nine - quotient * unit >= unit / 2);
        if ((rounded as f64) * (unit as f64) - scaled).abs() > radius {
            break;
        }
        (best, dropped) = (rounded, k);
    }
    (best, dropped + e10 - 8)
}

/// Appends `v` as a JSON number that parses back **as an `f32`** to the
/// same bits (`NaN` / `Infinity` / `-Infinity` for the non-finite
/// values; a NaN's payload is not kept).
fn push_f32(out: &mut Vec<u8>, v: f32) {
    if v.is_nan() {
        return out.extend_from_slice(b"NaN");
    }
    let mut buf = [b'0'; 24];
    let mut n = 0;
    if v.is_sign_negative() {
        buf[0] = b'-';
        n = 1;
    }
    if v.is_infinite() {
        out.extend_from_slice(&buf[..n]);
        return out.extend_from_slice(b"Infinity");
    }
    if v == 0.0 {
        out.extend_from_slice(&buf[..n]);
        return out.extend_from_slice(b"0.0");
    }
    let (d, e) = shortest_digits(v.abs());
    let mut digit_buf = [0u8; 20];
    let at = format_u64(d as u64, &mut digit_buf);
    let digits = &digit_buf[at..];
    // The value is `digits[0].digits[1..] × 10^sci`.
    let sci = e + digits.len() as i32 - 1;
    if (0..9).contains(&sci) {
        // 1234.5 / 1200.0: the integer part is sci + 1 digits long.
        let int_len = sci as usize + 1;
        let shown = digits.len().min(int_len);
        buf[n..n + shown].copy_from_slice(&digits[..shown]);
        n += int_len; // zero-padded: `buf` starts out all '0'
        buf[n] = b'.';
        n += 1;
        if digits.len() > int_len {
            let frac = &digits[int_len..];
            buf[n..n + frac.len()].copy_from_slice(frac);
            n += frac.len();
        } else {
            n += 1; // ".0"
        }
    } else if (-4..0).contains(&sci) {
        // 0.00123: -sci - 1 zeros after the point.
        buf[n + 1] = b'.';
        n += 2 + (-sci - 1) as usize;
        buf[n..n + digits.len()].copy_from_slice(digits);
        n += digits.len();
    } else {
        // 1.2345e-12 / 1e30.
        buf[n] = digits[0];
        n += 1;
        if digits.len() > 1 {
            buf[n] = b'.';
            buf[n + 1..n + digits.len()].copy_from_slice(&digits[1..]);
            n += digits.len();
        }
        buf[n] = b'e';
        n += 1;
        if sci < 0 {
            buf[n] = b'-';
            n += 1;
        }
        let mut exp_buf = [0u8; 20];
        let at = format_u64(sci.unsigned_abs() as u64, &mut exp_buf);
        buf[n..n + 20 - at].copy_from_slice(&exp_buf[at..]);
        n += 20 - at;
    }
    out.extend_from_slice(&buf[..n]);
}

// ---------------------------------------------------------------- reader

/// Parses a `POST /v1/infer` body into `(id, deadline_ms, features)`.
///
/// # Errors
///
/// A human-readable message (the `400` body): a JSON syntax error with
/// its byte offset, or the first missing / ill-typed field in the
/// order `id`, `deadline_ms`, `features` (`rows`, `cols`, `row_ptr`,
/// `col_idx`, `values`), or the matrix's own validation failure.
pub fn read_infer_request(body: &[u8]) -> Result<(u64, Option<u64>, SparseFeatures), String> {
    let mut id = None;
    let mut deadline_ms = None;
    let mut features: Option<FeatureFields> = None;
    Scanner::document(body, |s| {
        if s.peek() != Some(b'{') {
            return s.skip_value(0);
        }
        s.object(|s, key| match key {
            "id" if id.is_none() => set(&mut id, s.uint(1)?),
            "deadline_ms" if deadline_ms.is_none() => set(&mut deadline_ms, s.uint(1)?),
            "features" if features.is_none() => set(&mut features, s.features()?),
            _ => s.skip_value(1),
        })
    })?;
    let id = match id {
        Some(v) => v.ok_or("\"id\" must be a u64")?,
        None => 0,
    };
    let deadline_ms = match deadline_ms {
        Some(v) => Some(v.ok_or("\"deadline_ms\" must be a u64")?),
        None => None,
    };
    let f = features.ok_or("missing \"features\" object")?;
    let rows = required(f.rows, "features missing \"rows\"", "features rows must be a u64")?;
    let cols = required(f.cols, "features missing \"cols\"", "features cols must be a u64")?;
    let row_ptr = required(
        f.row_ptr,
        "features missing \"row_ptr\"",
        "features row_ptr must be an array of u64",
    )?;
    let col_idx = required(
        f.col_idx,
        "features missing \"col_idx\"",
        "features col_idx must be an array of u32",
    )?;
    let values = required(
        f.values,
        "features missing \"values\"",
        "features values must be an array of numbers",
    )?;
    let features =
        SparseFeatures::from_raw_parts(rows as usize, cols as usize, row_ptr, col_idx, values)
            .map_err(|e| format!("invalid sparse features: {e}"))?;
    Ok((id, deadline_ms, features))
}

/// Parses a `200` reply body into `(id, output)`.
///
/// # Errors
///
/// A human-readable message: a JSON syntax error, a missing or
/// ill-typed field, or a `data` array whose length is not `rows×cols`.
pub fn read_infer_response(body: &[u8]) -> Result<(u64, DenseMatrix), String> {
    let mut id = None;
    let mut output: Option<OutputFields> = None;
    Scanner::document(body, |s| {
        if s.peek() != Some(b'{') {
            return s.skip_value(0);
        }
        s.object(|s, key| match key {
            "id" if id.is_none() => set(&mut id, s.uint(1)?),
            "output" if output.is_none() => set(&mut output, s.output()?),
            _ => s.skip_value(1),
        })
    })?;
    let id = id.flatten().ok_or("response missing \"id\"")?;
    let out = output.ok_or("response missing \"output\"")?;
    let rows = out.rows.flatten().ok_or("output missing \"rows\"")? as usize;
    let cols = out.cols.flatten().ok_or("output missing \"cols\"")? as usize;
    let data =
        required(out.data, "output missing \"data\"", "output data must be an array of numbers")?;
    if rows.checked_mul(cols) != Some(data.len()) {
        return Err(format!("output data has {} entries, expected {rows}×{cols}", data.len()));
    }
    Ok((id, DenseMatrix::from_vec(rows, cols, data)))
}

/// One slot per known field: `None` = absent, `Some(None)` = present
/// but of the wrong type (its value was skipped), `Some(Some(v))` =
/// parsed. The first occurrence of a key wins, as `JsonValue::get` did.
type Slot<T> = Option<Option<T>>;

/// Fills a slot the first time its key is seen.
fn set<T>(slot: &mut Option<T>, value: T) -> Result<(), String> {
    *slot = Some(value);
    Ok(())
}

/// A slot's value, or the message for whichever way it is unusable.
fn required<T>(slot: Slot<T>, missing: &str, ill_typed: &str) -> Result<T, String> {
    slot.ok_or(missing)?.ok_or_else(|| ill_typed.to_string())
}

#[derive(Default)]
struct FeatureFields {
    rows: Slot<u64>,
    cols: Slot<u64>,
    row_ptr: Slot<Vec<usize>>,
    col_idx: Slot<Vec<u32>>,
    values: Slot<Vec<f32>>,
}

#[derive(Default)]
struct OutputFields {
    rows: Slot<u64>,
    cols: Slot<u64>,
    data: Slot<Vec<f32>>,
}

/// The bytes a number token continues over once it has started (the
/// tree parser's rule: digits and `. e E + -`, validated afterwards).
const NUMBER_BYTE: [bool; 256] = {
    let mut table = [false; 256];
    let bytes = b"0123456789.eE+-";
    let mut i = 0;
    while i < bytes.len() {
        table[bytes[i] as usize] = true;
        i += 1;
    }
    table
};

/// An upper bound on the elements of the flat array whose bytes (after
/// its `[`) `rest` starts with: the separators before the first `]`,
/// plus one, and never more than one element per two bytes of that
/// span. (An array that nests has fewer top-level elements than this
/// counts only if it is ill-typed, and then its vector is dropped.)
fn element_bound(rest: &[u8]) -> usize {
    let mut separators = 0;
    let mut span = 0;
    // Block-wise, so that both the search for `]` (`contains` is a
    // word-at-a-time memchr) and the count run at memory speed.
    for block in rest.chunks(4096) {
        let len = if block.contains(&b']') {
            block.iter().position(|&b| b == b']').expect("contains it")
        } else {
            block.len()
        };
        separators += block[..len].iter().filter(|&&b| b == b',').count();
        span += len;
        if len < block.len() {
            break;
        }
    }
    (separators + 1).min(span.div_ceil(2))
}

/// A number-like token at the scanner's position.
enum Number<'a> {
    /// `-?[0-9.eE+-]*` with at least one character after the sign; not
    /// yet validated as a number.
    Token(&'a str),
    NaN,
    Infinity,
    NegInfinity,
}

/// A pull scanner over one JSON document. Syntax (what is accepted,
/// the depth cap, the error texts) deliberately matches
/// `serde::json::JsonValue::parse`, which the bulk bodies used to go
/// through and the small ones still do.
struct Scanner<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    /// Runs `root` over the document's one value and rejects anything
    /// but whitespace after it.
    fn document(
        bytes: &'a [u8],
        root: impl FnOnce(&mut Scanner<'a>) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut s = Scanner { bytes, pos: 0 };
        s.skip_ws();
        root(&mut s)?;
        s.skip_ws();
        if s.pos != bytes.len() {
            return Err(s.err("trailing characters after document"));
        }
        Ok(())
    }

    fn err(&self, message: impl std::fmt::Display) -> String {
        self.err_at(self.pos, message)
    }

    fn err_at(&self, offset: usize, message: impl std::fmt::Display) -> String {
        format!("JSON parse error at byte {offset}: {message}")
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format_args!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(format_args!("expected '{word}'")))
        }
    }

    /// The members of the object at the scanner's position (which must
    /// be its `{`): `field` is called with each decoded key, positioned
    /// on the member's value, and must consume exactly that value.
    fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, &str) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            field(self, &key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    /// The `"features"` value (depth 1): its known members into their
    /// slots. Anything but an object leaves every slot empty.
    fn features(&mut self) -> Result<FeatureFields, String> {
        let mut f = FeatureFields::default();
        if self.peek() != Some(b'{') {
            self.skip_value(1)?;
            return Ok(f);
        }
        self.object(|s, key| match key {
            "rows" if f.rows.is_none() => set(&mut f.rows, s.uint(2)?),
            "cols" if f.cols.is_none() => set(&mut f.cols, s.uint(2)?),
            "row_ptr" if f.row_ptr.is_none() => {
                set(&mut f.row_ptr, s.array(2, |s| Ok(s.uint(3)?.map(|v| v as usize)))?)
            }
            "col_idx" if f.col_idx.is_none() => set(
                &mut f.col_idx,
                s.array(2, |s| Ok(s.uint(3)?.and_then(|v| u32::try_from(v).ok())))?,
            ),
            "values" if f.values.is_none() => set(&mut f.values, s.array(2, |s| s.float(3))?),
            _ => s.skip_value(2),
        })?;
        Ok(f)
    }

    /// The `"output"` value (depth 1) of a reply.
    fn output(&mut self) -> Result<OutputFields, String> {
        let mut o = OutputFields::default();
        if self.peek() != Some(b'{') {
            self.skip_value(1)?;
            return Ok(o);
        }
        self.object(|s, key| match key {
            "rows" if o.rows.is_none() => set(&mut o.rows, s.uint(2)?),
            "cols" if o.cols.is_none() => set(&mut o.cols, s.uint(2)?),
            "data" if o.data.is_none() => set(&mut o.data, s.array(2, |s| s.float(3))?),
            _ => s.skip_value(2),
        })?;
        Ok(o)
    }

    /// The elements of the array at the scanner's position (which must
    /// be its `[`): `each` is called positioned on each element and
    /// must consume exactly that element.
    #[inline(always)]
    fn elements(
        &mut self,
        mut each: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            each(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    /// A typed array at `depth`: `Some(items)` if the value is an array
    /// whose every element `elem` accepts, `None` if it is any other
    /// well-formed value (skipped). `elem` parses one element, or skips
    /// it and returns `None` when it is of the wrong type.
    ///
    /// The vector is allocated once, for the number of elements the
    /// array's own bytes can hold: separators up to the first `]`, and
    /// never more than one element per two bytes of that span.
    #[inline(always)]
    fn array<T>(
        &mut self,
        depth: usize,
        mut elem: impl FnMut(&mut Self) -> Result<Option<T>, String>,
    ) -> Result<Option<Vec<T>>, String> {
        if self.peek() != Some(b'[') {
            self.skip_value(depth)?;
            return Ok(None);
        }
        let mut items = Some(Vec::with_capacity(element_bound(&self.bytes[self.pos + 1..])));
        self.elements(|s| {
            match &mut items {
                Some(typed) => match elem(s)? {
                    Some(item) => typed.push(item),
                    None => items = None,
                },
                None => s.skip_value(depth + 1)?,
            }
            Ok(())
        })?;
        Ok(items)
    }

    /// The number-like token at the scanner's position, consumed; or
    /// `None` (nothing consumed) if the value there is not a number.
    fn number(&mut self) -> Result<Option<Number<'a>>, String> {
        let rest = &self.bytes[self.pos..];
        Ok(Some(match rest.first() {
            Some(b'N') => {
                self.literal("NaN")?;
                Number::NaN
            }
            Some(b'I') => {
                self.literal("Infinity")?;
                Number::Infinity
            }
            Some(b'-') if rest.starts_with(b"-Infinity") => {
                self.pos += "-Infinity".len();
                Number::NegInfinity
            }
            Some(b'-' | b'0'..=b'9') => {
                let len = 1 + rest[1..].iter().take_while(|&&b| NUMBER_BYTE[b as usize]).count();
                self.pos += len;
                if len == 1 && rest[0] == b'-' {
                    return Err(self.err("expected digits"));
                }
                Number::Token(std::str::from_utf8(&rest[..len]).expect("number tokens are ASCII"))
            }
            _ => return Ok(None),
        }))
    }

    fn bad_number(&self, token: &str) -> String {
        self.err_at(self.pos - token.len(), format_args!("bad number '{token:.40}'"))
    }

    /// A u64 at `depth`: `Some(v)` for a number token that denotes a
    /// non-negative integer a u64 holds (`7`, `7.0`, `7e0`, `-0`; above
    /// 2⁵³ only as plain digits), `None` for any other well-formed
    /// value (skipped).
    #[inline(always)]
    fn uint(&mut self, depth: usize) -> Result<Option<u64>, String> {
        // Plain digits — the only form this codec's writer emits — in
        // one pass; nineteen of them cannot overflow a u64.
        let mut end = self.pos;
        let mut v = 0u64;
        while let Some(digit) =
            self.bytes.get(end).map(|b| b.wrapping_sub(b'0')).filter(|&d| d < 10)
        {
            v = v.wrapping_mul(10).wrapping_add(digit as u64);
            end += 1;
        }
        if (1..=19).contains(&(end - self.pos))
            && !matches!(self.bytes.get(end), Some(b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos = end;
            return Ok(Some(v));
        }
        self.uint_any(depth)
    }

    /// [`Scanner::uint`] for everything but plain digits.
    #[cold]
    fn uint_any(&mut self, depth: usize) -> Result<Option<u64>, String> {
        let token = match self.number()? {
            Some(Number::Token(token)) => token,
            Some(_) => return Ok(None),
            None => {
                self.skip_value(depth)?;
                return Ok(None);
            }
        };
        let integral = !token[1..].contains(['.', 'e', 'E', '+', '-']);
        if integral {
            if token.starts_with('-') {
                if let Ok(i) = token.parse::<i64>() {
                    return Ok(u64::try_from(i).ok());
                }
            } else if let Ok(u) = token.parse::<u64>() {
                return Ok(Some(u));
            }
        }
        let f = token.parse::<f64>().map_err(|_| self.bad_number(token))?;
        Ok((f >= 0.0 && f.fract() == 0.0 && f <= 9_007_199_254_740_992.0).then_some(f as u64))
    }

    /// An f32 at `depth`: `Some(v)` for a number token — parsed **as an
    /// f32**, correctly rounded — or one of `NaN` / `Infinity` /
    /// `-Infinity`; `None` for any other well-formed value (skipped).
    #[inline(always)]
    fn float(&mut self, depth: usize) -> Result<Option<f32>, String> {
        if let Some(v) = self.float_exact() {
            return Ok(Some(v));
        }
        // A token that starts with a digit, or `-` and a digit: the
        // only forms this codec's writer emits for finite values.
        let rest = &self.bytes[self.pos..];
        let signed = usize::from(rest.first() == Some(&b'-'));
        if rest.get(signed).is_some_and(u8::is_ascii_digit) {
            let len =
                signed + rest[signed..].iter().take_while(|&&b| NUMBER_BYTE[b as usize]).count();
            self.pos += len;
            let token = std::str::from_utf8(&rest[..len]).expect("number tokens are ASCII");
            return token.parse().map(Some).map_err(|_| self.bad_number(token));
        }
        self.float_any(depth)
    }

    /// The exact-or-fallback fast path of [`Scanner::float`]: a token
    /// of the shape `-?digits[.digits]` — nothing else a number token
    /// may contain after it — with at most 15 significant digits, read
    /// in one pass and consumed; or `None`, nothing consumed, whenever
    /// the result could differ from `str::parse::<f32>` by a bit.
    ///
    /// The digits, point dropped, are an integer `m < 10^15 < 2^53` and
    /// the fraction's length gives `10^f` with `f ≤ 18`: both exact as
    /// `f64`. Their quotient is therefore *one* correctly rounded
    /// operation on the decimal's exact value, and narrowing it to
    /// `f32` rounds a second time — which lands where a single rounding
    /// would unless the `f64` sits exactly on the midpoint of two
    /// adjacent `f32`s (the first rounding may have moved it there from
    /// either side, and the tie-break cannot know which). In the normal
    /// range a midpoint is a significand whose low 29 bits are
    /// `1000…0`; below it the `f32` grid is coarser than that test
    /// assumes. Both cases, like everything this does not recognise,
    /// are left to the full parser.
    #[inline(always)]
    fn float_exact(&mut self) -> Option<f32> {
        let rest = &self.bytes[self.pos..];
        let negative = rest.first() == Some(&b'-');
        let mut at = usize::from(negative);
        let (mut m, mut digits, mut point) = (0u64, 0usize, None);
        loop {
            match rest.get(at) {
                Some(&b) if b.is_ascii_digit() => {
                    m = m.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
                    digits += 1;
                }
                // One point, with a digit on each side of it.
                Some(b'.') if point.is_none() && digits > 0 => point = Some(digits),
                _ => break,
            }
            at += 1;
        }
        let fraction = digits - point.unwrap_or(digits);
        // Eighteen digits cannot have wrapped a u64; the bound on `m`
        // then counts the significant ones.
        if digits == 0
            || digits > 18
            || point == Some(digits)
            || m >= 1_000_000_000_000_000
            || rest.get(at).is_some_and(|&b| NUMBER_BYTE[b as usize])
        {
            return None;
        }
        let sign = if negative { -1.0f32 } else { 1.0 };
        if m == 0 {
            self.pos += at;
            return Some(0.0 * sign);
        }
        let x = m as f64 / pow10(fraction as i32);
        if x < f64::from(f32::MIN_POSITIVE) || x.to_bits() & 0x1FFF_FFFF == 0x1000_0000 {
            return None;
        }
        self.pos += at;
        Some(x as f32 * sign)
    }

    /// [`Scanner::float`] for everything but digit-led tokens.
    #[cold]
    fn float_any(&mut self, depth: usize) -> Result<Option<f32>, String> {
        Ok(Some(match self.number()? {
            Some(Number::Token(token)) => {
                token.parse::<f32>().map_err(|_| self.bad_number(token))?
            }
            Some(Number::NaN) => f32::NAN,
            Some(Number::Infinity) => f32::INFINITY,
            Some(Number::NegInfinity) => f32::NEG_INFINITY,
            None => {
                self.skip_value(depth)?;
                return Ok(None);
            }
        }))
    }

    /// Validates and steps over one value of any type at `depth`.
    fn skip_value(&mut self, depth: usize) -> Result<(), String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null"),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'"') => self.string().map(drop),
            Some(b'[') => self.elements(|s| s.skip_value(depth + 1)),
            Some(b'{') => self.object(|s, _| s.skip_value(depth + 1)),
            Some(other) => match self.number()? {
                Some(Number::Token(token)) => {
                    token.parse::<f64>().map(drop).map_err(|_| self.bad_number(token))
                }
                Some(_) => Ok(()),
                None => Err(self.err(format_args!("unexpected character '{}'", other as char))),
            },
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// The string at the scanner's position, unescaped; borrowed from
    /// the body unless it contains an escape.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let mut out = Cow::Borrowed("");
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The body arrives as bytes, not `str`: strings are the
                // only place non-ASCII is legal, so this is where UTF-8
                // is checked.
                let run = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "body is not UTF-8".to_string())?;
                if out.is_empty() {
                    out = Cow::Borrowed(run);
                } else {
                    out.to_mut().push_str(run);
                }
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    out.to_mut().push(match escape {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{08}',
                        b'f' => '\u{0c}',
                        b'u' => self.unicode_escape()?,
                        other => {
                            return Err(
                                self.err(format_args!("invalid escape '\\{}'", other as char))
                            )
                        }
                    });
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The code point of a `\uXXXX` escape (its `\u` already consumed),
    /// pairing surrogates.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let first = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&first) {
            if !self.bytes[self.pos..].starts_with(b"\\u") {
                return Err(self.err("unpaired surrogate"));
            }
            self.pos += 2;
            let second = self.hex4()?;
            if !(0xDC00..0xE000).contains(&second) {
                return Err(self.err("invalid low surrogate"));
            }
            0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
        } else {
            first
        };
        char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit in \\u escape"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use serde::json::{obj, JsonValue};

    fn text(v: f32) -> String {
        let mut out = Vec::new();
        push_f32(&mut out, v);
        String::from_utf8(out).expect("number text is ASCII")
    }

    /// The contract of [`push_f32`]: the token parses back, as an f32,
    /// to the same bits, and it is built from at most nine digits with
    /// no trailing zero among them.
    fn assert_round_trips(v: f32) {
        let token = text(v);
        let back: f32 = token.parse().unwrap_or_else(|e| panic!("{v:e} wrote {token:?}: {e}"));
        assert_eq!(back.to_bits(), v.to_bits(), "{v:e} wrote {token:?}, which reads back {back:e}");
        let (d, _) = shortest_digits(v.abs());
        assert!((1..1_000_000_000).contains(&d) && d % 10 != 0, "{v:e}: digits {d}");
    }

    #[test]
    fn f32_text_is_short_and_exact_on_the_values_that_matter() {
        for (v, expected) in [
            (0.0f32, "0.0"),
            (-0.0, "-0.0"),
            (0.5, "0.5"),
            (-1.25, "-1.25"),
            (1.0, "1.0"),
            (1234.5, "1234.5"),
            (1200.0, "1200.0"),
            (0.3, "0.3"),
            (0.0012, "0.0012"),
            (123.456, "123.456"),
            (16_777_216.0, "16777216.0"),
            (1e30, "1e30"),
            (1e-40, "1e-40"),
            (-7.394601e-23, "-7.394601e-23"),
            (f32::MIN_POSITIVE, "1.1754944e-38"),
            (f32::MAX, "3.4028235e38"),
            (f32::MIN, "-3.4028235e38"),
            (f32::from_bits(1), "1e-45"),
            (f32::INFINITY, "Infinity"),
            (f32::NEG_INFINITY, "-Infinity"),
            (f32::NAN, "NaN"),
        ] {
            assert_eq!(text(v), expected, "{v:e}");
        }
        // Every power of two and of ten the type holds, with both
        // neighbours: the interval is lopsided at the former, the digit
        // count changes at the latter.
        let mut cases = vec![f32::from_bits(0x007F_FFFF), 1.0e-39, 3.0e-45, 9.999_999e29];
        cases.extend((-149..=127).map(|e| 2f32.powi(e)));
        cases.extend((-45..=38).map(|e| format!("1e{e}").parse::<f32>().unwrap()));
        for v in cases {
            for v in [v.next_down(), v, v.next_up()] {
                if v.is_finite() && v != 0.0 {
                    assert_round_trips(v);
                    assert_round_trips(-v);
                }
            }
        }
    }

    #[test]
    fn f32_text_round_trips_a_ten_million_value_sweep() {
        // Uniform over bit patterns, so every binade — subnormals
        // included — gets its share.
        let mut rng = StdRng::seed_from_u64(0x0F32_7E87);
        let mut out = Vec::with_capacity(32);
        for _ in 0..10_000_000 {
            let v = f32::from_bits(rng.gen::<u32>());
            if !v.is_finite() || v == 0.0 {
                continue;
            }
            out.clear();
            push_f32(&mut out, v);
            let token = std::str::from_utf8(&out).unwrap();
            let back: f32 = token.parse().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v:e} wrote {token:?}");
        }
        // And a slice of them through the full contract (digit count,
        // no trailing zeros), plus uniform [0, 1) — the benchmark's
        // feature values.
        for _ in 0..200_000 {
            let v = f32::from_bits(rng.gen::<u32>());
            if v.is_finite() && v != 0.0 {
                assert_round_trips(v);
            }
            assert_round_trips(rng.gen::<f32>() + f32::MIN_POSITIVE);
        }
    }

    /// [`Scanner::float_exact`] on one token (followed, as in an array,
    /// by a separator): its value if it took the token — checked bit
    /// for bit against `str::parse::<f32>`, the route it stands in for —
    /// or `None` if it left the token to that route.
    fn exact(token: &str) -> Option<f32> {
        let text = format!("{token},");
        let mut scanner = Scanner { bytes: text.as_bytes(), pos: 0 };
        let fast = scanner.float_exact();
        match fast {
            Some(v) => {
                assert_eq!(scanner.pos, token.len(), "{token:?}: consumed the wrong length");
                let slow: f32 = token.parse().unwrap_or_else(|e| panic!("{token:?}: {e}"));
                assert_eq!(v.to_bits(), slow.to_bits(), "{token:?}: fast {v:e}, parse {slow:e}");
            }
            None => assert_eq!(scanner.pos, 0, "{token:?}: declined but consumed"),
        }
        fast
    }

    #[test]
    fn exact_float_path_takes_plain_decimals_and_declines_the_rest() {
        for (token, expected) in [
            ("0", 0.0f32),
            ("0.0", 0.0),
            ("7", 7.0),
            ("0.5", 0.5),
            ("-1.25", -1.25),
            ("0.1", 0.1),
            ("00.5", 0.5),
            ("16777216.0", 16_777_216.0),
        ] {
            assert_eq!(exact(token).map(f32::to_bits), Some(expected.to_bits()), "{token}");
        }
        // Fifteen significant digits, eighteen digits in all: still in.
        assert!(exact("123456789012345").is_some() && exact("0.00123456789012345").is_some());
        assert_eq!(exact("-0").map(f32::to_bits), Some((-0.0f32).to_bits()), "the sign of zero");
        assert_eq!(exact("-0.000").map(f32::to_bits), Some((-0.0f32).to_bits()));
        #[rustfmt::skip]
        let declined = [
            // Exponents, non-finite words, and shapes only the full
            // parser judges.
            "1e5", "1.5e-3", "2E0", "NaN", "Infinity", "-Infinity", "-", "", ".5", "1.", "-.5",
            "1.5.2", "1-2", "1+2", "+1", "x",
            // Sixteen significant digits, and nineteen digits in all.
            "1234567890123456", "0.000123456789012345",
            // 2^24 + 1: exactly between two f32s (ties go to even).
            "16777217", "16777217.000", "-16777217.0",
            // Below the normal range, where the f32 grid is coarser.
            "0.00000000000000000000000000000000000001", "0.000000000000000001",
        ];
        for token in declined {
            assert_eq!(exact(token), None, "{token:?} must be left to the full parser");
        }
        // Declining changes nothing the caller sees: the array still
        // reads to the same bits, and a malformed token to the same
        // error.
        let body = br#"{"id":1,"output":{"rows":1,"cols":4,"data":[16777217,1e-3,0.1,-0]}}"#;
        let (_, output) = read_infer_response(body).unwrap();
        assert_eq!(bits(output.as_slice()), bits(&[16_777_216.0, 1e-3, 0.1, -0.0]));
        let err = read_infer_response(br#"{"id":1,"output":{"data":[1.5.2]}}"#).unwrap_err();
        assert_eq!(err, "JSON parse error at byte 26: bad number '1.5.2'");
    }

    #[test]
    fn exact_float_path_equals_parse_on_a_strided_sweep_of_the_writers_text() {
        // Every 251st bit pattern: 17.1 million values (≥ 2^24), some
        // 33 000 to each exponent and sign, low bits varying.
        let (mut taken, mut declined) = (0u64, 0u64);
        let mut out = Vec::with_capacity(32);
        for pattern in (0..=u32::MAX).step_by(251) {
            let v = f32::from_bits(pattern);
            if !v.is_finite() {
                continue;
            }
            out.clear();
            push_f32(&mut out, v);
            out.push(b',');
            let mut scanner = Scanner { bytes: &out, pos: 0 };
            match scanner.float_exact() {
                Some(read) => {
                    // The writer's text reads back — through the fast
                    // path — to the value it was written from: what
                    // `str::parse` is pinned to by the sweep above.
                    assert_eq!(read.to_bits(), v.to_bits(), "{v:e} wrote {:?}", text(v));
                    assert_eq!(scanner.pos, out.len() - 1);
                    taken += 1;
                }
                None => declined += 1,
            }
        }
        // Fixed notation (1e-4 ≤ |v| < 1e9, and zero) is the path's
        // share: about a tenth of all bit patterns, and every one of
        // the benchmark's feature values and most of its outputs.
        assert!(taken > 1_500_000, "fast path took only {taken} of {}", taken + declined);
        assert!(declined > 10_000_000, "exponent notation must be declined ({declined})");
        let mut rng = StdRng::seed_from_u64(0xFA57);
        for _ in 0..200_000 {
            let v = rng.gen::<f32>() + 1e-4;
            assert_eq!(exact(&text(v)).map(f32::to_bits), Some(v.to_bits()), "{v:e}");
        }
    }

    /// `digits` (a decimal with a point somewhere) moved by `delta`
    /// units in its last place.
    fn nudge(digits: &str, delta: i64) -> String {
        let point = digits.find('.').expect("a decimal point");
        let plain: String = digits.chars().filter(|&c| c != '.').collect();
        let moved = (plain.parse::<i64>().unwrap() + delta).to_string();
        let mut padded = format!("{moved:0>width$}", width = plain.len());
        padded.insert(padded.len() - (digits.len() - point - 1), '.');
        padded
    }

    #[test]
    fn exact_float_path_equals_parse_around_f32_midpoints() {
        assert_eq!(nudge("0.0120", -1), "0.0119");
        assert_eq!(nudge("99.99", 1), "100.00");
        let mut rng = StdRng::seed_from_u64(0x0031_D901);
        let mut cases: Vec<f32> = Vec::new();
        // Where midpoints are integers, so the 15-digit decimal *is*
        // the midpoint: 2^24 … 2^40.
        cases.extend((0..4_000).map(|k| 16_777_216.0 + 2.0 * k as f32));
        cases.extend((24..40).flat_map(|e| [2f32.powi(e), 2f32.powi(e).next_down()]));
        // And everywhere fifteen digits fit in plain notation.
        cases.extend((0..300_000).map(|_| {
            let exponent = rng.gen_range(-3.0f32..14.0);
            10f32.powf(exponent) * (1.0 + rng.gen::<f32>())
        }));
        let (mut taken, mut declined) = (0u64, 0u64);
        for a in cases {
            // Exact: neighbouring f32s are 29 bits short of an f64.
            let midpoint = (f64::from(a) + f64::from(a.next_up())) / 2.0;
            // Fifteen significant digits of it.
            let integer_digits = (midpoint.log10().floor() as i32 + 1).max(1);
            let precision = (15 - integer_digits).max(1) as usize;
            let digits = format!("{midpoint:.precision$}");
            for delta in [-1, 0, 1] {
                for sign in ["", "-"] {
                    let token = format!("{sign}{}", nudge(&digits, delta));
                    // `exact` holds whatever is taken to `str::parse`.
                    match exact(&token) {
                        Some(_) => taken += 1,
                        None => declined += 1,
                    }
                    // A decimal that *is* the midpoint is a tie only
                    // the full parser may break; one unit off it is not.
                    if midpoint.fract() == 0.0 && midpoint < 1e14 {
                        assert_eq!(exact(&token).is_none(), delta == 0, "{token}");
                    }
                }
            }
        }
        // Off the integers, fifteen digits land on the midpoint's own
        // f64 about one time in five; those are declined too.
        assert!(taken > 1_000_000 && declined > 16_000, "{taken} taken, {declined} declined");
    }

    fn features() -> SparseFeatures {
        SparseFeatures::from_raw_parts(
            3,
            4,
            vec![0, 2, 2, 5],
            vec![0, 3, 1, 2, 3],
            vec![1.5, -0.25, f32::MIN_POSITIVE, 1.0e30, 0.1],
        )
        .unwrap()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn both_bodies_round_trip_bit_exactly() {
        let mut body = Vec::new();
        write_infer_request(&mut body, u64::MAX, Some(250), &features());
        let text = std::str::from_utf8(&body).unwrap();
        assert!(text.starts_with("{\"id\":18446744073709551615,\"deadline_ms\":250,\"features\":{\"rows\":3,\"cols\":4,\"row_ptr\":[0,2,2,5],"), "got {text}");
        let (id, deadline_ms, parsed) = read_infer_request(&body).unwrap();
        assert_eq!((id, deadline_ms), (u64::MAX, Some(250)));
        assert_eq!(parsed, features());
        assert_eq!(bits(parsed.values()), bits(features().values()));
        // No deadline: the key is absent, not null.
        body.clear();
        write_infer_request(&mut body, 1, None, &features());
        assert!(!std::str::from_utf8(&body).unwrap().contains("deadline_ms"));
        assert_eq!(read_infer_request(&body).unwrap().1, None);

        let output =
            DenseMatrix::from_vec(2, 3, vec![1.0e-30, -0.0, 123.456, f32::MAX, f32::NAN, -1e-45]);
        body.clear();
        write_infer_response(&mut body, 9, &output);
        let (id, decoded) = read_infer_response(&body).unwrap();
        assert_eq!(id, 9);
        assert_eq!((decoded.rows(), decoded.cols()), (2, 3));
        // NaN's payload is not kept, everything else is.
        let (got, want) = (bits(decoded.as_slice()), bits(output.as_slice()));
        assert_eq!(got[..4], want[..4]);
        assert!(decoded.as_slice()[4].is_nan());
        assert_eq!(got[5], want[5]);
        // An empty matrix is `[]`.
        body.clear();
        write_infer_response(&mut body, 0, &DenseMatrix::from_vec(0, 7, vec![]));
        assert_eq!(read_infer_response(&body).unwrap().1.rows(), 0);
    }

    // The reader replaced `JsonValue::parse` + field extraction. What
    // follows is that old path, kept here as the oracle the new reader
    // is checked against (and as the "old client" whose f64-widened
    // text must still decode to the same bits).

    fn old_features_to_json(features: &SparseFeatures) -> JsonValue {
        let uints = |v: Vec<u64>| JsonValue::Array(v.into_iter().map(JsonValue::Uint).collect());
        obj([
            ("rows", JsonValue::Uint(features.num_rows() as u64)),
            ("cols", JsonValue::Uint(features.num_cols() as u64)),
            ("row_ptr", uints(features.row_ptr().iter().map(|&v| v as u64).collect())),
            ("col_idx", uints(features.col_idx().iter().map(|&v| v as u64).collect())),
            (
                "values",
                JsonValue::Array(
                    features.values().iter().map(|&v| JsonValue::from_f32(v)).collect(),
                ),
            ),
        ])
    }

    fn old_request_body(id: u64, deadline_ms: Option<u64>, features: &SparseFeatures) -> String {
        let mut fields = vec![("id".to_string(), JsonValue::Uint(id))];
        if let Some(ms) = deadline_ms {
            fields.push(("deadline_ms".to_string(), JsonValue::Uint(ms)));
        }
        fields.push(("features".to_string(), old_features_to_json(features)));
        JsonValue::Object(fields).encode()
    }

    fn typed_array<T>(v: &JsonValue, elem: impl Fn(&JsonValue) -> Option<T>) -> Option<Vec<T>> {
        v.as_array()?.iter().map(elem).collect()
    }

    fn oracle_read_request(body: &[u8]) -> Result<(u64, Option<u64>, SparseFeatures), String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        let doc = JsonValue::parse(text).map_err(|e| e.to_string())?;
        let id = match doc.get("id") {
            Some(v) => v.as_u64().ok_or("\"id\" must be a u64")?,
            None => 0,
        };
        let deadline_ms = match doc.get("deadline_ms") {
            Some(v) => Some(v.as_u64().ok_or("\"deadline_ms\" must be a u64")?),
            None => None,
        };
        let v = doc.get("features").ok_or("missing \"features\" object")?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("features missing {k:?}"));
        let rows = field("rows")?.as_u64().ok_or("features rows must be a u64")? as usize;
        let cols = field("cols")?.as_u64().ok_or("features cols must be a u64")? as usize;
        let row_ptr = typed_array(field("row_ptr")?, |v| v.as_u64().map(|u| u as usize))
            .ok_or("features row_ptr must be an array of u64")?;
        let col_idx =
            typed_array(field("col_idx")?, |v| v.as_u64().and_then(|u| u32::try_from(u).ok()))
                .ok_or("features col_idx must be an array of u32")?;
        let values = typed_array(field("values")?, |v| v.as_f32())
            .ok_or("features values must be an array of numbers")?;
        let features = SparseFeatures::from_raw_parts(rows, cols, row_ptr, col_idx, values)
            .map_err(|e| format!("invalid sparse features: {e}"))?;
        Ok((id, deadline_ms, features))
    }

    fn oracle_read_response(body: &[u8]) -> Result<(u64, DenseMatrix), String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        let doc = JsonValue::parse(text).map_err(|e| e.to_string())?;
        let id = doc.get("id").and_then(|v| v.as_u64()).ok_or("response missing \"id\"")?;
        let out = doc.get("output").ok_or("response missing \"output\"")?;
        let dim =
            |k: &str| out.get(k).and_then(|v| v.as_u64()).ok_or(format!("output missing {k:?}"));
        let (rows, cols) = (dim("rows")? as usize, dim("cols")? as usize);
        let data = typed_array(out.get("data").ok_or("output missing \"data\"")?, |v| v.as_f32())
            .ok_or("output data must be an array of numbers")?;
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(format!("output data has {} entries, expected {rows}×{cols}", data.len()));
        }
        Ok((id, DenseMatrix::from_vec(rows, cols, data)))
    }

    #[test]
    fn an_old_clients_f64_widened_text_decodes_to_the_same_bits() {
        let features = SparseFeatures::random(60, 40, 0.2, 9);
        let old = old_request_body(7, Some(30), &features);
        let mut new = Vec::new();
        write_infer_request(&mut new, 7, Some(30), &features);
        assert!(new.len() < old.len(), "shortest-as-f32 text is the shorter one");
        let (id, deadline_ms, parsed) = read_infer_request(old.as_bytes()).unwrap();
        assert_eq!((id, deadline_ms), (7, Some(30)));
        assert_eq!(parsed, features);
        assert_eq!(bits(parsed.values()), bits(features.values()));
        // And the other direction: an old server's tree parser reads
        // the new text to the same matrix.
        assert_eq!(oracle_read_request(&new).unwrap().2, features);
    }

    /// Bit-for-bit, except that zeros compare equal whatever their
    /// sign: the tree parser read the integer-looking token `-0` as the
    /// integer 0 and so dropped its sign; the reader parses every token
    /// as an f32 and keeps it. (No encoder, old or new, writes `-0`.)
    fn same_floats(new: &[f32], old: &[f32]) -> bool {
        new.len() == old.len()
            && new
                .iter()
                .zip(old)
                .all(|(a, b)| a.to_bits() == b.to_bits() || (*a == 0.0 && *b == 0.0))
    }

    /// Compares the reader with the oracle on one body: same verdict,
    /// same value, same message.
    fn assert_same_as_oracle(body: &[u8]) {
        let shown = || String::from_utf8_lossy(body).into_owned();
        match (read_infer_request(body), oracle_read_request(body)) {
            (Ok((id, deadline_ms, new)), Ok((old_id, old_deadline_ms, old))) => {
                assert_eq!((id, deadline_ms), (old_id, old_deadline_ms), "request {}", shown());
                assert_eq!(
                    (new.num_rows(), new.num_cols(), new.row_ptr(), new.col_idx()),
                    (old.num_rows(), old.num_cols(), old.row_ptr(), old.col_idx()),
                    "request {}",
                    shown()
                );
                assert!(same_floats(new.values(), old.values()), "request {}", shown());
            }
            (Err(new), Err(old)) => assert_same_error(&new, &old, &shown()),
            (new, old) => panic!("request {}: reader {new:?}, oracle {old:?}", shown()),
        }
        match (read_infer_response(body), oracle_read_response(body)) {
            (Ok((id, new)), Ok((old_id, old))) => {
                assert_eq!(id, old_id, "response {}", shown());
                assert_eq!((new.rows(), new.cols()), (old.rows(), old.cols()));
                assert!(same_floats(new.as_slice(), old.as_slice()), "response {}", shown());
            }
            (Err(new), Err(old)) => assert_same_error(&new, &old, &shown()),
            (new, old) => panic!("response {}: reader {new:?}, oracle {old:?}", shown()),
        }
    }

    /// Field errors must be the oracle's word for word. Syntax errors
    /// must be syntax errors; their texts agree except where the
    /// reader deliberately differs (it meets bytes, not a `str`, so it
    /// can report a stray non-ASCII byte before it learns the body is
    /// not UTF-8, and it quotes at most 40 characters of a bad number).
    fn assert_same_error(new: &str, old: &str, body: &str) {
        let syntax = |e: &str| e.starts_with("JSON parse error") || e == "body is not UTF-8";
        if syntax(old) {
            assert!(syntax(new), "{body}: reader {new:?}, oracle {old:?}");
            if old != "body is not UTF-8" && !old.contains("bad number") {
                assert_eq!(new, old, "{body}");
            }
        } else {
            assert_eq!(new, old, "{body}");
        }
    }

    #[test]
    fn reader_agrees_with_the_tree_parser_on_handwritten_cases() {
        let f = r#"{"rows":2,"cols":3,"row_ptr":[0,1,2],"col_idx":[2,0],"values":[0.5,-1]}"#;
        let deep_ok = "[".repeat(127) + &"]".repeat(127);
        let deep_bad = "[".repeat(128) + &"]".repeat(128);
        let cases = [
            // Accepted shapes: order, whitespace, unknown keys, number forms.
            format!(r#"{{"features":{f}}}"#),
            format!(r#" {{ "features" : {f} , "id" : 7 , "deadline_ms":0}} "#),
            format!(r#"{{"extra":{{"a":[1,{{"b":null}}],"s":"xé\n😀"}},"features":{f},"z":true}}"#),
            format!(r#"{{"id":7.0,"deadline_ms":2e1,"features":{f}}}"#),
            format!(r#"{{"id":-0,"features":{f}}}"#),
            format!(r#"{{"id":-0.0,"features":{f}}}"#),
            format!(r#"{{"id":18446744073709551615,"features":{f}}}"#),
            format!(r#"{{"id":9007199254740992.0,"features":{f}}}"#),
            format!(r#"{{"id":5,"features":{f}}}"#),
            r#"{"features":{"rows":1,"cols":9,"row_ptr":[0,6],"col_idx":[0,1.0,2e0,3,4,5],"values":[NaN,Infinity,-Infinity,1e-3,2.5E+3,1e400]}}"#.to_string(),
            r#"{"features":{"rows":0,"cols":0,"row_ptr":[0],"col_idx":[],"values":[ ]}}"#.to_string(),
            format!(r#"{{"unknown":{deep_ok},"features":{f}}}"#),
            // First occurrence wins.
            format!(r#"{{"id":1,"id":"x","features":{f},"features":5}}"#),
            format!(r#"{{"id":"x","id":1,"features":{f}}}"#),
            format!(r#"{{"features":5,"features":{f}}}"#),
            r#"{"features":{"rows":2,"rows":"x","cols":3,"row_ptr":[0,1,2],"col_idx":[2,0],"values":[0.5,-1],"values":[]}}"#.to_string(),
            // Missing and ill-typed fields, in the order they are reported.
            "{}".to_string(),
            "[]".to_string(),
            "7".to_string(),
            r#"{"features":[]}"#.to_string(),
            r#"{"features":{}}"#.to_string(),
            r#"{"id":-1,"features":{}}"#.to_string(),
            r#"{"id":1.5,"features":{}}"#.to_string(),
            r#"{"id":18446744073709551616,"features":{}}"#.to_string(),
            r#"{"id":9007199254740994.0,"features":{}}"#.to_string(),
            r#"{"id":null,"deadline_ms":"soon"}"#.to_string(),
            r#"{"deadline_ms":[1],"id":{}}"#.to_string(),
            r#"{"features":{"rows":2}}"#.to_string(),
            r#"{"features":{"rows":NaN,"cols":3}}"#.to_string(),
            r#"{"features":{"rows":-Infinity,"cols":3}}"#.to_string(),
            r#"{"features":{"rows":2,"cols":3,"row_ptr":7}}"#.to_string(),
            r#"{"features":{"rows":2,"cols":3,"row_ptr":[0,"1",2],"col_idx":[true]}}"#.to_string(),
            r#"{"features":{"rows":2,"cols":3,"row_ptr":[0,[1],2,{"k":[]}],"col_idx":[]}}"#.to_string(),
            r#"{"features":{"rows":2,"cols":3,"row_ptr":[0,1,2],"col_idx":[4294967296,0],"values":[]}}"#.to_string(),
            r#"{"features":{"rows":2,"cols":3,"row_ptr":[0,1,2],"col_idx":[2,-1],"values":[]}}"#.to_string(),
            r#"{"features":{"rows":2,"cols":3,"row_ptr":[0,1,2],"col_idx":[2,0],"values":[0.5,null]}}"#.to_string(),
            r#"{"features":{"rows":2,"cols":3,"row_ptr":[0,1,2],"col_idx":[2,0],"values":"x"}}"#.to_string(),
            // The matrix's own validation.
            r#"{"features":{"rows":2,"cols":3,"row_ptr":[0,1],"col_idx":[2],"values":[1]}}"#.to_string(),
            r#"{"features":{"rows":2,"cols":3,"row_ptr":[0,2,1],"col_idx":[2],"values":[1]}}"#.to_string(),
            r#"{"features":{"rows":1,"cols":3,"row_ptr":[0,1],"col_idx":[3],"values":[1]}}"#.to_string(),
            r#"{"features":{"rows":1,"cols":3,"row_ptr":[0,1],"col_idx":[2],"values":[1,2]}}"#.to_string(),
            // Syntax errors, which win over field errors.
            String::new(),
            "   ".to_string(),
            "{".to_string(),
            r#"{"id"}"#.to_string(),
            r#"{"id":}"#.to_string(),
            r#"{"id":1,}"#.to_string(),
            r#"{id:1}"#.to_string(),
            r#"{"id":1 "x":2}"#.to_string(),
            r#"{"id":"x","features":{"rows":[}}"#.to_string(),
            r#"{"features":{"rows":2,"cols":3,"row_ptr":[0,"1",2],"col_idx":[tru]}}"#.to_string(),
            format!(r#"{{"features":{f}}} x"#),
            format!(r#"{{"features":{f}}}{{}}"#),
            format!(r#"{{"unknown":{deep_bad},"features":{f}}}"#),
            format!(r#"{{"features":{f},"unknown":{deep_bad}}}"#),
            r#"{"id":-}"#.to_string(),
            r#"{"id":-x}"#.to_string(),
            r#"{"id":1e}"#.to_string(),
            r#"{"id":1-2}"#.to_string(),
            r#"{"id":01a}"#.to_string(),
            r#"{"id":+1}"#.to_string(),
            r#"{"id":.5}"#.to_string(),
            r#"{"id":-Infinit}"#.to_string(),
            r#"{"id":Nan}"#.to_string(),
            r#"{"id":Inf}"#.to_string(),
            r#"{"x":nul}"#.to_string(),
            r#"{"x":"unterminated}"#.to_string(),
            r#"{"x":"bad \q escape"}"#.to_string(),
            r#"{"x":"\ud800"}"#.to_string(),
            r#"{"x":"\ud800A"}"#.to_string(),
            r#"{"x":"\udc00"}"#.to_string(),
            r#"{"x":"\u12g4"}"#.to_string(),
            "{\"x\":\"tab\there\"}".to_string(),
            "{\"x\":é}".to_string(),
            // The reply's fields.
            r#"{"id":3,"output":{"rows":1,"cols":2,"data":[1,2.5]}}"#.to_string(),
            r#"{"output":{"data":[1e39,-1e-50],"cols":2,"rows":1.0},"id":3,"more":[]}"#.to_string(),
            r#"{"id":3,"output":{"rows":2,"cols":2,"data":[1,2.5]}}"#.to_string(),
            r#"{"id":3,"output":{"rows":4294967296,"cols":4294967296,"data":[]}}"#.to_string(),
            r#"{"id":"3","output":{"rows":1,"cols":2,"data":[1,2.5]}}"#.to_string(),
            r#"{"id":3,"output":7}"#.to_string(),
            r#"{"id":3,"output":{"rows":1,"cols":"2","data":[1,2.5]}}"#.to_string(),
            r#"{"id":3,"output":{"rows":1,"cols":2,"data":{"0":1}}}"#.to_string(),
            r#"{"id":3,"output":{"rows":1,"cols":2}}"#.to_string(),
        ];
        for case in &cases {
            assert_same_as_oracle(case.as_bytes());
        }
        // Bytes that are not UTF-8: inside a string, and bare.
        assert_same_as_oracle(b"{\"x\":\"\xff\"}");
        assert_same_as_oracle(b"{\"x\":\xff}");
        assert_same_as_oracle(b"{\"x\":\"\xc3\"}");
    }

    /// One random structure-blind edit of `body`, drawn from the bytes
    /// JSON gives meaning to.
    fn mutate(body: &mut Vec<u8>, rng: &mut StdRng) {
        const ALPHABET: &[u8] = b"{}[],:\"\\ -+.eE0123456789ntfNIu\t\n\xc3\xa9";
        const SNIPPETS: &[&str] = &[
            "\"id\":",
            "\"rows\":",
            "\"cols\":",
            "\"values\":",
            "\"row_ptr\":",
            "\"col_idx\":",
            "\"features\":",
            "\"output\":",
            "\"data\":",
            "\"deadline_ms\":",
            "\"x\":",
            "null",
            "true",
            "NaN",
            "-Infinity",
            "Infinity",
            "1e400",
            "7.0",
            "-0",
            "2e0",
            "[]",
            "{}",
            "[[",
            "]]",
            "{\"k\":",
            "\\u00e9",
            "18446744073709551615",
            "4294967296",
            "0.1",
        ];
        let at = rng.gen_range(0..=body.len());
        match rng.gen_range(0..6u32) {
            0 if at < body.len() => body[at] = ALPHABET[rng.gen_range(0..ALPHABET.len())],
            1 => body.insert(at, ALPHABET[rng.gen_range(0..ALPHABET.len())]),
            2 if at < body.len() => {
                let end = (at + rng.gen_range(1..12usize)).min(body.len());
                body.drain(at..end);
            }
            3 => {
                let snippet = SNIPPETS[rng.gen_range(0..SNIPPETS.len())];
                body.splice(at..at, snippet.bytes());
            }
            4 if at < body.len() => {
                // Duplicate a stretch somewhere else.
                let end = (at + rng.gen_range(1..40usize)).min(body.len());
                let piece = body[at..end].to_vec();
                let to = rng.gen_range(0..=body.len());
                body.splice(to..to, piece);
            }
            _ => body.truncate(at),
        }
    }

    #[test]
    fn reader_agrees_with_the_tree_parser_on_a_seeded_corpus() {
        let mut rng = StdRng::seed_from_u64(0xD1FF);
        let mut seeds: Vec<Vec<u8>> = Vec::new();
        for seed in 0..4 {
            let features = SparseFeatures::random(5, 6, 0.4, seed);
            let mut new = Vec::new();
            write_infer_request(&mut new, seed, (seed % 2 == 0).then_some(40), &features);
            seeds.push(new);
            seeds.push(old_request_body(seed, Some(1), &features).into_bytes());
            let output =
                DenseMatrix::from_vec(2, 3, (0..6).map(|_| rng.gen::<f32>() - 0.5).collect());
            let mut reply = Vec::new();
            write_infer_response(&mut reply, seed, &output);
            seeds.push(reply);
        }
        let (mut accepted, mut rejected) = (0, 0);
        for round in 0..30_000 {
            let mut body = seeds[round % seeds.len()].clone();
            for _ in 0..rng.gen_range(1..4u32) {
                mutate(&mut body, &mut rng);
            }
            if read_infer_request(&body).is_ok() || read_infer_response(&body).is_ok() {
                accepted += 1;
            } else {
                rejected += 1;
            }
            assert_same_as_oracle(&body);
        }
        // The corpus must exercise both verdicts to mean anything.
        assert!(accepted > 500 && rejected > 5_000, "{accepted} accepted, {rejected} rejected");
    }
}
