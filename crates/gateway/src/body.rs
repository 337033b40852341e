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
//! ([`write_infer_request`], [`write_infer_response`]) puts text
//! straight into the buffer that goes to the socket — no staging
//! buffer, one loop per array, integers and `f32`s through the same
//! path. The **reader** ([`read_infer_request`],
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
//! only it — at most nine significant digits, and of the decimals that
//! short the one closest to the value: `0.5`, `1234.5`, `0.0012`,
//! `1.1754944e-38` — and **read** by parsing the token directly *as an
//! `f32`* (correctly rounded), so the text round trip is **bit-exact**:
//! an output matrix fetched over HTTP equals a direct
//! `Accelerator::infer` bit for bit. Integers are plain digits.
//!
//! *How it is written.* The digits come from Schubfach
//! (`shortest_digits`): the value and the two ends of its rounding
//! interval are scaled by a power of ten — one 64×32-bit multiply each
//! against a table of 77 64-bit significands that a `const fn` derives
//! from powers of five in `u128` — and the shortest candidate inside
//! the interval is picked by integer comparisons, without a loop or a
//! data-dependent branch. The digits become text eight at a time
//! (`digit_places`: three multiplies split a number below 10⁸ into one
//! digit per byte), leading and trailing zeros are counted as bits, and
//! the token is laid out with whole-word stores into a region of `out`
//! reserved — and zero-filled, 256 elements at a time — before the
//! loop. Integers are written two digits at a time from a 200-byte
//! table. Layout: plain notation when the first digit's exponent is in
//! `-4..9` (`0.0001` … `123456789.0`, always with a point), `d.ddde±x`
//! otherwise.
//!
//! *How it is read.* `plain_float` takes a token of the shape
//! `-?digits[.digits]` of at most fifteen bytes after the sign — every
//! finite value the writer puts in plain notation: sixteen bytes are
//! loaded and classified at once (SWAR: which bytes are not digits),
//! which gives the point's and the token's end positions; the digits,
//! point closed up, are converted eight at a time by three multiplies
//! (`value_of_places`) into one integer `m`, and `m / 10^f` in `f64`
//! narrowed to `f32` is the value — exact except on the midpoint of two
//! `f32`s, where, like every other notation (exponents, a longer token,
//! the document's last fifteen bytes), it is left to
//! `str::parse::<f32>`. Integers are one scalar digit loop (column
//! indices have one to three digits; a word-wide reader measured
//! slower). The array loop tries these on each element and falls back,
//! per element, to the general scanner.
//!
//! *What pins it.* The writer: a sweep of every 239th bit pattern of
//! every exponent (17.9 million, plus subnormals, powers of two and of
//! ten with both neighbours, `f32::MAX`, ±0, NaN, ±∞) against the
//! writer this module shipped before — `f64` scaling and a nine-step
//! trial loop, kept under `#[cfg(test)]` — asserts the new text is
//! never longer, round-trips through `str::parse`, has as few digits as
//! the standard library's shortest formatting, and pins how many
//! patterns differ (3.2 %: a closer decimal of the same length, or — on
//! 0.18 % — a shorter one, where the old trial loop stopped a digit
//! early or took a power of two's lopsided interval for symmetric);
//! ten million random patterns round-trip. The reader: the writer's
//! text on every 251st pattern, in the middle of an array, fits the
//! window whenever it is in plain notation and reads bit-equal to the
//! value written; the window against `str::parse` on every split of up
//! to twenty digits around a point and around every `f32` midpoint with
//! fourteen digits; a non-digit of every kind at each of a word's eight
//! positions; integer tokens of every length to 22 against
//! `str::parse::<u64>`.
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
//! # Segments
//!
//! A large array is written and read in `k` contiguous segments, one
//! per core up to two (`k` = `std::thread::available_parallelism()`,
//! asked once per process, capped at `MAX_SEGMENTS` = 2): each segment
//! on a scoped thread of its own, the calling thread doing the first,
//! all joined before the call returns. A call starts at most `k − 1`
//! threads, and none below the threshold. The gain rests on the second
//! core being idle while the call runs; where the cores are busy (other
//! requests' codec, the serve workers) a segment's thread only adds
//! work. Closed-loop HTTP clients in one process with a gateway serving
//! the Pubmed stand-in, on a 2-vCPU box, replies a second, one-segment
//! codec → this one (10 s runs, two to four rounds): one client
//! 6.0–7.9 → 7.1–11.1 and two clients 10.9–12.7 → 11.7–13.4 on the
//! default one IO thread, but two clients 14.9–16.0 → 14.0–14.5 and
//! four 14.4–16.4 → 14.2–15.8 on two IO threads, which keep both cores
//! busy. Giving a call a second core only while no other call held one
//! (a process-wide count) read no better there, and is not done. Two is
//! the largest `k` measured; a larger cap wants a sweep of `k` = 2..n,
//! since the calling thread starts the `k − 1` threads one after
//! another while each segment's saving shrinks. A thread that
//! cannot be started (the `gateway::body::spawn` failpoint stands in
//! for that) leaves its segment to the calling thread. All four calls
//! go through the same two places, so the client's request encode, the
//! IO thread's decode, the reply encode and the client's reply decode
//! all spread. The binary protocol does not.
//!
//! *Writer.* The elements are cut into `k` equal runs. The first is
//! written in place into `out`, the others each into a buffer of its
//! own, appended in order after the join: the bytes are the one-segment
//! writer's. That copy costs 1.4 ms of a 26–28 ms Pubmed request
//! encode (5.2–5.3 %, medians of 41, its first touch of `out`'s fresh
//! pages included) and 2–3 % of a reply. Writing the buffers out with
//! `write_vectored` would save it at the price of the `&mut Vec<u8>`
//! these calls fill, so it stays a copy.
//!
//! *Reader.* The one pass that sizes an array's vector (up to its first
//! `]`) also cuts it: the first comma at or after each `1/k` of that
//! span, and how many commas come before it. Each segment fills its own
//! disjoint part of the one vector (never a vector of its own), and
//! takes only number tokens and whitespace between commas. If any
//! segment meets anything else — a string, a nested value, an error,
//! or a value that is not a `T` — the whole array is read again as one
//! segment from its `[`, so every value, every ill-typed field, every
//! error text and byte offset is the one-segment reader's. A `,` or `]`
//! inside a string cannot mislead the cuts: a segment that starts or
//! ends inside one meets its quote and gives up.
//!
//! *Threshold.* A segment pays for its thread once the time it saves
//! the calling thread exceeds what starting, waking and joining that
//! thread costs (a bare spawn + join: ≈ 41 µs, p50 of 201, on a 2-vCPU
//! box). Each element type has its own minimum segment,
//! `Token::MIN_SEGMENT` for the writer (elements) and
//! `Element::MIN_SEGMENT` for the reader (bytes of text), and an array
//! is cut from twice it.
//! One array, `k` = 2 against `k` = 1, calls alternating, the ratio of
//! the two medians of 301–401 calls (below 1: two segments are faster),
//! the range over three to six sweeps on a 2-vCPU box shared with other
//! work; the writer fills a fresh buffer, as a request's encode does:
//!
//! | writer, elements | `f32` | offsets, 6 digits | ints, 1–3 digits |
//! |---|---|---|---|
//! | 4 000 | 0.93–1.17 | | |
//! | 8 192 | 0.82–0.83 | | |
//! | 12 000 | 0.76–0.82 | 0.79–1.17 | |
//! | 16 384 | 0.68–0.69 | 0.85–1.04 | |
//! | 24 000 | 0.71–0.76 | 0.89–1.29 | 0.70–1.64 |
//! | 40 000 | | 0.78–1.36 | 0.80–1.32 |
//! | 48 000 – 64 000 | | | 0.80–1.36 |
//! | 96 000 | | | 0.68–1.20 |
//! | 128 000 | | | 0.59–0.87 |
//! | 192 000 – 256 000 | | | 0.58–0.89 |
//!
//! | reader, bytes of text | `f32` | offsets, 6 digits | ints, 1–3 digits |
//! |---|---|---|---|
//! | 48–67 KB | 0.98–1.05 | 0.99–1.61 | 0.74–0.99 |
//! | 97–100 KB | 0.75–0.97 | 0.95–1.42 | 1.03–1.25 |
//! | 130–135 KB | 0.71–0.94 | 0.71–1.03 | 0.86–1.16 |
//! | 195–197 KB | | 0.70–0.94 | 0.63–1.15, median 0.76 |
//! | 261–268 KB | | 0.66–0.82 | 0.62–1.10, median 0.74 |
//! | 391–522 KB | | 0.72–0.82 | 0.66–0.78 |
//! | 1 045 KB | | | 0.60–0.67 |
//!
//! So a float is cut from 16 384 elements written (`f32` minimum
//! 8 192) and 96 KiB read (48 KiB); an integer, whose digits the type
//! does not tell, at the shortest integers' break-even: from 128 000
//! elements written (64 000) and 192 KiB read (96 KiB). Of the
//! benchmark's two workloads, every bulk array is cut but Cora's and
//! Pubmed's `row_ptr` (2 709 and 19 718 offsets, 16 and 136 KB) and,
//! written, Cora's `col_idx` (48 744 indices).
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
use std::num::NonZeroUsize;
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread;

use igcn_graph::SparseFeatures;
use igcn_linalg::DenseMatrix;

/// Deepest nesting the reader accepts (arrays + objects), the same cap
/// `serde::json`'s tree parser applies.
const MAX_DEPTH: usize = 128;

// -------------------------------------------------------------- segments

/// The most segments one array is cut into: two, the largest `k` the
/// threshold sweep measured. Each further segment costs the calling
/// thread one more spawn, started one after another, while what each
/// segment saves shrinks, and the gain rests on the cores it takes
/// being idle; where that trade turns has not been measured.
const MAX_SEGMENTS: usize = 2;

/// How many segments a bulk array is cut into.
#[derive(Clone, Copy, Debug)]
enum Split {
    /// One per core, up to [`MAX_SEGMENTS`], each of at least the
    /// type's minimum size ([`Token::MIN_SEGMENT`],
    /// [`Element::MIN_SEGMENT`]).
    PerCore,
    /// `k`, whatever the array's size, wherever it has room for them:
    /// how the tests reach every cut on small bodies.
    #[cfg(test)]
    Exactly(usize),
}

impl Split {
    /// The segments for an array of `size` units (elements written or
    /// bytes read), where a segment pays for its thread from `least`.
    fn segments(self, size: usize, least: usize) -> usize {
        match self {
            Split::PerCore if size < 2 * least => 1,
            Split::PerCore => cores().min(MAX_SEGMENTS),
            #[cfg(test)]
            Split::Exactly(k) => k.clamp(1, size.max(1)),
        }
    }
}

/// The cores one array may be spread over: `available_parallelism`,
/// asked once (it reads the cgroup's quota files).
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// `work` on each of `parts`, the results in their order: the first on
/// the calling thread, each other on a scoped thread of its own —
/// started before the first begins, joined before this returns — or,
/// where that thread cannot be started, on the calling thread after the
/// first.
fn on_cores<P: Send, R: Send>(
    parts: impl IntoIterator<Item = P>,
    work: impl Fn(P) -> R + Sync,
) -> Vec<R> {
    // A thread takes its part out of a slot, so that a spawn that fails
    // (and drops its closure) leaves the part behind for this thread.
    let slots: Vec<Mutex<Option<P>>> = parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
    let run = |slot: &Mutex<Option<P>>| {
        let part = slot.lock().unwrap_or_else(PoisonError::into_inner).take();
        work(part.expect("each part is taken once"))
    };
    let Some((first, rest)) = slots.split_first() else { return Vec::new() };
    thread::scope(|scope| {
        let run = &run;
        let threads: Vec<_> = rest
            .iter()
            .map(|slot| match igcn_fail::eval("gateway::body::spawn") {
                Some(_) => None,
                None => thread::Builder::new().spawn_scoped(scope, move || run(slot)).ok(),
            })
            .collect();
        let mut results = Vec::with_capacity(slots.len());
        results.push(run(first));
        for (slot, thread) in rest.iter().zip(threads) {
            results.push(match thread {
                Some(thread) => {
                    thread.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                }
                None => run(slot),
            });
        }
        results
    })
}

// ---------------------------------------------------------------- writer

/// Appends the `POST /v1/infer` body for one request to `out`.
pub fn write_infer_request(
    out: &mut Vec<u8>,
    id: u64,
    deadline_ms: Option<u64>,
    features: &SparseFeatures,
) {
    write_request(out, id, deadline_ms, features, Split::PerCore);
}

fn write_request(
    out: &mut Vec<u8>,
    id: u64,
    deadline_ms: Option<u64>,
    features: &SparseFeatures,
    split: Split,
) {
    let nnz = features.nnz();
    // Upper bounds per element: an offset has at most as many digits
    // as `nnz`, a column as `num_cols`, an f32 at most 16 characters
    // (`-0.0000123456789`); plus a comma each.
    out.reserve(
        160 + CHUNK_SLACK
            + features.row_ptr().len() * (digits(nnz as u64) + 1)
            + nnz * (digits(features.num_cols() as u64) + 1 + 17),
    );
    out.extend_from_slice(b"{\"id\":");
    push_number(out, id);
    if let Some(ms) = deadline_ms {
        out.extend_from_slice(b",\"deadline_ms\":");
        push_number(out, ms);
    }
    out.extend_from_slice(b",\"features\":{\"rows\":");
    push_number(out, features.num_rows() as u64);
    out.extend_from_slice(b",\"cols\":");
    push_number(out, features.num_cols() as u64);
    out.extend_from_slice(b",\"row_ptr\":");
    push_array(out, features.row_ptr(), split);
    out.extend_from_slice(b",\"col_idx\":");
    push_array(out, features.col_idx(), split);
    out.extend_from_slice(b",\"values\":");
    push_array(out, features.values(), split);
    out.extend_from_slice(b"}}");
}

/// Appends the `200` body for one inference output to `out`.
pub fn write_infer_response(out: &mut Vec<u8>, id: u64, output: &DenseMatrix) {
    write_response(out, id, output, Split::PerCore);
}

fn write_response(out: &mut Vec<u8>, id: u64, output: &DenseMatrix, split: Split) {
    out.reserve(96 + CHUNK_SLACK + output.as_slice().len() * 17);
    out.extend_from_slice(b"{\"id\":");
    push_number(out, id);
    out.extend_from_slice(b",\"output\":{\"rows\":");
    push_number(out, output.rows() as u64);
    out.extend_from_slice(b",\"cols\":");
    push_number(out, output.cols() as u64);
    out.extend_from_slice(b",\"data\":");
    push_array(out, output.as_slice(), split);
    out.extend_from_slice(b"}}");
}

/// A number the writer emits: its text goes straight into the output
/// buffer, at most [`Token::MAX_LEN`] bytes of it.
trait Token: Copy + Sync {
    const MAX_LEN: usize;
    /// Elements a writer's segment holds at least: an array of fewer
    /// than twice this is written on the calling thread alone (module
    /// docs, *Segments*, for the sweep that sets it).
    const MIN_SEGMENT: usize;

    /// Writes the token at `buf[at..]` and returns where it ends. It
    /// may scribble on up to [`WINDOW`] bytes from `at` — whole-word
    /// stores — of which the caller keeps only the token.
    fn write(self, buf: &mut [u8], at: usize) -> usize;
}

/// What one [`Token::write`] may touch, from where it starts.
const WINDOW: usize = 32;

macro_rules! integer_token {
    ($($t:ty),*) => {$(
        impl Token for $t {
            const MAX_LEN: usize = 20;
            const MIN_SEGMENT: usize = INT_WRITE_SEGMENT;

            #[inline(always)]
            fn write(self, buf: &mut [u8], at: usize) -> usize {
                let end = at + digits(self as u64);
                write_digits(buf, end, self as u64);
                end
            }
        }
    )*};
}
integer_token!(u64, usize, u32);

/// An integer writer's minimum segment, set by the shortest integers
/// (one- to three-digit column indices), so that no integer array is
/// cut where that costs time.
const INT_WRITE_SEGMENT: usize = 64_000;

/// Elements written per reservation in [`push_array`]: the zero fill of
/// the reserved region stays in the L1 cache it is about to be written
/// in.
const CHUNK: usize = 256;
/// What the last chunk's reservation may reach past the text it ends
/// up with — reserved with the body, so that it never reallocates.
const CHUNK_SLACK: usize = CHUNK * (<u64 as Token>::MAX_LEN + 1) + WINDOW;

/// Appends `v`'s token to `out`, written in place: the buffer grows by
/// the write's window, takes the text, and shrinks to what was used.
fn push_number<T: Token>(out: &mut Vec<u8>, v: T) {
    let start = out.len();
    out.resize(start + WINDOW, 0);
    let end = v.write(out, start);
    out.truncate(end);
}

/// Appends `items` as a JSON array: in [`Split::segments`] contiguous
/// segments, the first written in place on the calling thread and each
/// other into a buffer of its own on a thread of its own, appended in
/// order — the same bytes however many segments there are.
fn push_array<T: Token>(out: &mut Vec<u8>, items: &[T], split: Split) {
    out.push(b'[');
    let segments = split.segments(items.len(), T::MIN_SEGMENT);
    // The first part, and only it, takes `out`.
    let mut in_place = Some(&mut *out);
    let texts = on_cores(
        items.chunks(items.len().div_ceil(segments).max(1)).map(|part| (in_place.take(), part)),
        |(in_place, part)| match in_place {
            Some(out) => {
                push_tokens(out, part);
                Vec::new()
            }
            None => {
                let mut text = Vec::with_capacity(part.len() * (T::MAX_LEN + 1) + WINDOW);
                push_tokens(&mut text, part);
                text
            }
        },
    );
    for text in texts {
        out.extend_from_slice(&text);
    }
    match out.last_mut() {
        Some(last @ b',') => *last = b']',
        _ => out.push(b']'),
    }
}

/// The writer's one loop: appends each item's token to `out`, a comma
/// after each.
fn push_tokens<T: Token>(out: &mut Vec<u8>, items: &[T]) {
    for chunk in items.chunks(CHUNK) {
        let mut at = out.len();
        out.resize(at + chunk.len() * (T::MAX_LEN + 1) + WINDOW, 0);
        for &item in chunk {
            at = item.write(out, at);
            out[at] = b',';
            at += 1;
        }
        out.truncate(at);
    }
}

/// Decimal digits of `v` (1 for zero).
fn digits(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// `00`, `01`, … `99`: two digits per table look-up.
const DIGIT_PAIRS: [[u8; 2]; 100] = {
    let mut table = [[b'0'; 2]; 100];
    let mut i = 0;
    while i < 100 {
        table[i] = [b'0' + (i / 10) as u8, b'0' + (i % 10) as u8];
        i += 1;
    }
    table
};

/// Writes the decimal digits of `v` so that they end at `buf[end]`
/// (exclusive), two at a time from the low end; the caller has sized
/// the field with [`digits`].
#[inline(always)]
fn write_digits(buf: &mut [u8], mut end: usize, mut v: u64) {
    while v >= 100 {
        end -= 2;
        buf[end..end + 2].copy_from_slice(&DIGIT_PAIRS[(v % 100) as usize]);
        v /= 100;
    }
    if v >= 10 {
        buf[end - 2..end].copy_from_slice(&DIGIT_PAIRS[v as usize]);
    } else {
        buf[end - 1] = b'0' + v as u8;
    }
}

/// The 64-bit significand of `10^k`, rounded up: `⌈10^k · 2^-r⌉` for
/// the `r` that puts it in `[2^63, 2^64)`. Since `10^k = 5^k · 2^k`,
/// only `5^|k|` (below `2^105` for the exponents an `f32` needs) shapes
/// it, which keeps the whole computation inside `u128`.
const fn pow10_significand(k: i32) -> u64 {
    let mut five = 1u128;
    let mut i = 0;
    while i < k.unsigned_abs() {
        five *= 5;
        i += 1;
    }
    let bits = 128 - five.leading_zeros();
    if k >= 0 {
        if bits <= 64 {
            return (five << (64 - bits)) as u64; // exact
        }
        let dropped = bits - 64;
        let inexact = five & ((1u128 << dropped) - 1) != 0;
        (five >> dropped) as u64 + inexact as u64
    } else {
        // ⌊2^(63 + bits) / 5^|k|⌋ by binary long division, plus one:
        // a power of five never divides a power of two.
        let (mut quotient, mut remainder) = (0u64, 1u128);
        let mut i = 0;
        while i < 63 + bits {
            remainder <<= 1;
            quotient <<= 1;
            if remainder >= five {
                remainder -= five;
                quotient |= 1;
            }
            i += 1;
        }
        quotient + 1
    }
}

/// The smallest power of ten [`shortest_digits`] scales by.
const POW10_MIN: i32 = -31;

/// [`pow10_significand`] for every `k` in `-31..=45`: the scalings that
/// take any finite `f32` to an integer of nine or ten digits.
const POW10_SIGNIFICANDS: [u64; 77] = {
    let mut table = [0u64; 77];
    let mut i = 0;
    while i < table.len() {
        table[i] = pow10_significand(POW10_MIN + i as i32);
        i += 1;
    }
    table
};

/// A shortest decimal that names the finite, non-zero `f32` with the
/// bit pattern `bits` (sign bit clear) and only it: `(d, e)` such that
/// `d × 10^e` lies inside the value's rounding interval — so
/// `str::parse::<f32>`, which is correctly rounded, maps it back to the
/// same bits — and no decimal of fewer significant digits does; of
/// those that short it is the closest to the value. `d` is below
/// `1.7 × 10^8` and may end in zeros (`1200 × 10^0`, `24414060 ×
/// 10^-11`): they are not significant, and the caller drops them.
///
/// Method: Schubfach (Giulietti). With the value `c × 2^q`, pick `k`
/// so that scaling by `10^-k` leaves one integer digit position inside
/// the rounding interval, compute the scaled value and the interval's
/// two ends as integers in units of a quarter — one 64×32-bit multiply
/// each by the rounded-up significand of `10^-k`, the discarded bits
/// folded into the lowest one ("round to odd") so that every later
/// comparison is exact — and choose among the four candidates (the two
/// multiples of ten and the two integers that bracket the value)
/// whichever lies in the interval, preferring the shorter, then the
/// closer, then the even one. All of it in integers, without a loop,
/// and with one branch (integers below `2^24` are their own digits).
#[inline(always)]
fn shortest_digits(bits: u32) -> (u32, i32) {
    let fraction = bits & 0x007F_FFFF;
    let exponent = (bits >> 23) as i32;
    let (c, q) =
        if exponent != 0 { (fraction | 0x0080_0000, exponent - 150) } else { (fraction, -149) };
    if exponent != 0 && (0..24).contains(&-q) && c.trailing_zeros() >= -q as u32 {
        return (c >> -q, 0);
    }
    let odd = c & 1;
    // At a power of two the lower neighbour is half as far away.
    let lower_is_closer = fraction == 0 && exponent > 1;
    let (below, value, above) = (4 * c - 2 + u32::from(lower_is_closer), 4 * c, 4 * c + 2);
    // ⌊log10(2^q)⌋, or of ¾·2^q where the interval is lopsided.
    let k = (q * 1_262_611 - if lower_is_closer { 524_031 } else { 0 }) >> 22;
    // ⌊log2(10^-k)⌋ + q + 1: between 1 and 4.
    let h = q + ((-k * 1_741_647) >> 19) + 1;
    let g = POW10_SIGNIFICANDS[(-k - POW10_MIN) as usize];
    let round_to_odd = |scaled: u32| {
        let product = u128::from(g) * u128::from(scaled << h);
        (product >> 64) as u32 | u32::from((product >> 32) as u32 > 1)
    };
    // An even `c` owns the ends of its interval (ties round to even).
    let (lower, v, upper) =
        (round_to_odd(below) + odd, round_to_odd(value), round_to_odd(above) - odd);
    let s = v / 4;
    let tens = s / 10;
    let tens_up_in = 40 * tens + 40 <= upper;
    let use_tens = (s >= 10) & ((lower <= 40 * tens) != tens_up_in);
    let (down_in, up_in) = (lower <= 4 * s, 4 * s + 4 <= upper);
    // Both or neither inside: the closer, the even one on a tie.
    let middle = 4 * s + 2;
    let round_up = (v > middle) | ((v == middle) & (s & 1 == 1));
    let one_in = down_in != up_in;
    let up = (one_in & up_in) | (!one_in & round_up);
    // Which of the two is a coin toss per value: selected without a
    // branch.
    let (by_ten, by_one) = ((tens + u32::from(tens_up_in)) * 10, s + u32::from(up));
    (by_one ^ ((by_one ^ by_ten) & 0u32.wrapping_sub(u32::from(use_tens))), k)
}

/// The eight decimal digits of `v < 10^8`, one per byte, the most
/// significant in the lowest byte: split into two halves of four
/// digits, those into pairs, those into digits, each split one
/// multiply (by a fixed-point reciprocal) on all lanes at once.
#[inline(always)]
fn digit_places(v: u32) -> u64 {
    let x = u64::from(v / 10_000) | u64::from(v % 10_000) << 32;
    let hundreds = ((x * 10_486) >> 20) & 0x0000_007F_0000_007F;
    let x = hundreds | (x - hundreds * 100) << 16;
    let tens = ((x * 103) >> 10) & 0x000F_000F_000F_000F;
    tens | (x - tens * 10) << 8
}

/// Writes `text` at `buf[at..]` and returns where it ends.
#[inline(always)]
fn put<const N: usize>(buf: &mut [u8], at: usize, text: [u8; N]) -> usize {
    buf[at..at + N].copy_from_slice(&text);
    at + N
}

impl Token for f32 {
    /// `-0.000123456789` and `-1.23456789e-38`: fifteen, and one spare.
    const MAX_LEN: usize = 16;
    const MIN_SEGMENT: usize = 8192;

    /// Writes `self` as a JSON number that parses back **as an `f32`**
    /// to the same bits (`NaN` / `Infinity` / `-Infinity` for the
    /// non-finite values; a NaN's payload is not kept).
    #[inline(always)]
    fn write(self, buf: &mut [u8], mut at: usize) -> usize {
        if self.is_nan() {
            return put(buf, at, *b"NaN");
        }
        let magnitude = self.to_bits() & 0x7FFF_FFFF;
        buf[at] = b'-';
        at += (self.to_bits() >> 31) as usize;
        if magnitude == 0 {
            return put(buf, at, *b"0.0");
        }
        if magnitude == f32::INFINITY.to_bits() {
            return put(buf, at, *b"Infinity");
        }
        let (d, e) = shortest_digits(magnitude);
        // Nine digit places: eight in a word, one per byte and the
        // first in the lowest, and the last on its own. Where the
        // significant ones start and stop is a bit count.
        let (head, last) = (digit_places(d / 10), (d % 10) as u8);
        let lead = (head.trailing_zeros() / 8) as usize;
        let trail = (1 + (head.leading_zeros() / 8) as usize) * usize::from(last == 0);
        let len = 9 - lead - trail;
        // As text, from the first significant digit on: the head's
        // digits ('0's after them), and the last one `last_at` bytes in.
        let text = (head >> (4 * lead) >> (4 * lead)) | 0x3030_3030_3030_3030;
        let (last, last_at) = (b'0' + last, 8 - lead);
        // The value is `d[0].d[1..] × 10^sci`.
        let sci = e + 8 - lead as i32;
        if (-4..0).contains(&sci) {
            // 0.00123: -sci - 1 zeros after the point.
            put(buf, at, *b"0.000");
            let start = at + (1 - sci) as usize;
            put(buf, start, text.to_le_bytes());
            buf[start + last_at] = last;
            start + len
        } else if (0..9).contains(&sci) {
            // 1234.5 / 1200.0: the integer part is sci + 1 digits long.
            let int_len = sci as usize + 1;
            put(buf, at, text.to_le_bytes());
            if len > int_len {
                // The fraction once more, one byte up, and the point.
                let fraction = text >> (4 * int_len) >> (4 * int_len);
                put(buf, at + int_len + 1, fraction.to_le_bytes());
                buf[at + int_len] = b'.';
                buf[at + last_at + 1] = last;
                at + len + 1
            } else {
                buf[at + 8] = b'0';
                buf[at + last_at] = last;
                put(buf, at + int_len, *b".0")
            }
        } else {
            // 1.2345e-12 / 1e30.
            put(buf, at + 1, text.to_le_bytes());
            buf[at + 1 + last_at] = last;
            buf[at] = buf[at + 1];
            buf[at + 1] = b'.';
            at += if len > 1 { len + 1 } else { 1 };
            at = put(buf, at, *b"e-") - usize::from(sci >= 0);
            let [tens, ones] = DIGIT_PAIRS[sci.unsigned_abs() as usize];
            buf[at] = tens;
            at += usize::from(tens != b'0');
            buf[at] = ones;
            at + 1
        }
    }
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
    read_request(body, Split::PerCore)
}

fn read_request(body: &[u8], split: Split) -> Result<(u64, Option<u64>, SparseFeatures), String> {
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
            "features" if features.is_none() => set(&mut features, s.features(split)?),
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
    read_response(body, Split::PerCore)
}

fn read_response(body: &[u8], split: Split) -> Result<(u64, DenseMatrix), String> {
    let mut id = None;
    let mut output: Option<OutputFields> = None;
    Scanner::document(body, |s| {
        if s.peek() != Some(b'{') {
            return s.skip_value(0);
        }
        s.object(|s, key| match key {
            "id" if id.is_none() => set(&mut id, s.uint(1)?),
            "output" if output.is_none() => set(&mut output, s.output(split)?),
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

/// The extent of the array whose bytes (after its `[`) `rest` starts
/// with, as far as one pass can tell without parsing it, and where to
/// cut it into segments.
struct Bound {
    /// An upper bound on its elements: the separators before the first
    /// `]`, plus one, and never more than one element per two bytes of
    /// that span. (An array that nests has fewer top-level elements
    /// than this counts only if it is ill-typed, and then its vector is
    /// dropped.)
    elements: usize,
    /// The bytes before its first `]` (all of `rest` if there is none).
    span: usize,
    /// Where a flat number array would be cut: empty unless a `]` ends
    /// the span and the [`Split`] asks for more than one segment.
    cuts: Vec<Cut>,
}

/// One cut of a [`Bound`]: the first comma at or after a `1/k` of the
/// span (its offset in `rest`), and how many elements come before it
/// if the commas before it are all separators.
struct Cut {
    comma: usize,
    before: usize,
}

/// Scans `rest` up to the first `]` for a [`Bound`]: the span first (a
/// word-at-a-time search), then its commas counted once, stopping at
/// each cut.
fn element_bound<T: Element>(rest: &[u8], split: Split) -> Bound {
    let closed = first(b']', rest);
    let span = closed.unwrap_or(rest.len());
    let text = &rest[..span];
    let segments = if closed.is_some() { split.segments(span, T::MIN_SEGMENT) } else { 1 };
    let (mut separators, mut counted, mut cuts) = (0, 0, Vec::new());
    for j in 1..segments {
        let target = (j * span / segments).max(counted);
        let Some(comma) = first(b',', &text[target..]).map(|at| target + at) else { break };
        separators += commas(&text[counted..comma]);
        cuts.push(Cut { comma, before: separators + 1 });
        separators += 1;
        counted = comma + 1;
    }
    separators += commas(&text[counted..]);
    let elements = (separators + 1).min(span.div_ceil(2));
    if elements <= separators {
        // Separators with nothing between some of them: not a flat
        // array of numbers, and not worth a cut.
        cuts.clear();
    }
    Bound { elements, span, cuts }
}

/// Where `byte` first occurs in `text`: block-wise, so that the search
/// runs at memory speed (`contains` is a word-at-a-time memchr).
fn first(byte: u8, text: &[u8]) -> Option<usize> {
    let block = text.chunks(4096).position(|block| block.contains(&byte))?;
    let from = block * 4096;
    text[from..].iter().position(|&b| b == byte).map(|at| from + at)
}

/// The commas in `text`, in byte-wide partial sums (128 cannot overflow
/// one), which the compiler keeps sixteen to a register.
fn commas(text: &[u8]) -> usize {
    text.chunks(128)
        .map(|run| usize::from(run.iter().map(|&b| u8::from(b == b',')).sum::<u8>()))
        .sum()
}

/// `10^n` for `n` in `0..15`, each exact as an `f64` (as every power of
/// ten up to `10^22` is).
const POW10_F64: [f64; 15] = {
    let mut table = [1.0; 15];
    let (mut power, mut i) = (1u64, 1);
    while i < table.len() {
        power *= 10;
        table[i] = power as f64;
        i += 1;
    }
    table
};

const ONES: u128 = 0x0101_0101_0101_0101_0101_0101_0101_0101;

/// One 16-byte load of text, sorted out bytewise (SWAR): the bytes with
/// `0x30` taken off — a digit's value where the byte was a digit — and,
/// as the top bit of each byte, which are **not** digits. A byte less
/// `0x30` is below ten if its low seven bits plus `0x76` stay under
/// `0x80` and its own top bit is clear; the sum never carries into the
/// next byte, so every byte is judged alone.
#[inline(always)]
fn classify(word: u128) -> (u128, u128) {
    let places = word ^ (0x30 * ONES);
    let not_digit = (((places & (0x7F * ONES)) + 0x76 * ONES) | places) & (0x80 * ONES);
    (places, not_digit)
}

/// The value of eight digit places (each byte 0–9, the first digit in
/// the lowest byte): neighbours summed pairwise three times — tens,
/// hundreds, ten-thousands — the last two steps as one multiply each.
#[inline(always)]
fn value_of_places(places: u64) -> u64 {
    const MASK: u64 = 0x0000_00FF_0000_00FF;
    let pairs = places * 10 + (places >> 8);
    ((pairs & MASK).wrapping_mul(100 + (1_000_000 << 32))
        + ((pairs >> 16) & MASK).wrapping_mul(1 + (10_000 << 32)))
        >> 32
}

/// A plain decimal `digits[.digits]` that ends within the first sixteen
/// bytes of `text` — every finite number this codec's writer emits in
/// plain notation — followed by a byte no number token continues over,
/// from one load and no loop: its digits as an integer (the point
/// dropped), how many of them are the fraction, and the token's length.
/// `None` for any other shape, a longer token, or a `text` that is the
/// document's last fifteen bytes.
#[inline(always)]
fn decimal_in_window(text: &[u8]) -> Option<(u64, usize, usize)> {
    let (places, not_digit) = classify(u128::from_le_bytes(*text.first_chunk::<16>()?));
    // Where the integer digits stop; if on a point, the token goes on
    // to the non-digit after it.
    let integer = (not_digit.trailing_zeros() / 8) as usize;
    let pointed = text.get(integer) == Some(&b'.');
    let later = not_digit & not_digit.wrapping_sub(1);
    let len = if pointed { (later.trailing_zeros() / 8) as usize } else { integer };
    // Digits on both sides of a point, and after the token nothing a
    // number continues over (a second point among them).
    if len > 15 || integer == 0 || len == integer + 1 || NUMBER_BYTE[text[len] as usize] {
        return None;
    }
    // The digits with the point closed up, then moved to the top of the
    // sixteen places: zeros in front, the token's end and whatever
    // follows it shifted out.
    let before = (1u128 << (8 * integer)) - 1;
    let digits = len - usize::from(pointed);
    let places = if pointed { (places & before) | ((places >> 8) & !before) } else { places };
    let places = places << (8 * (16 - digits));
    let m = value_of_places(places as u64) * 100_000_000 + value_of_places((places >> 64) as u64);
    Some((m, len - integer - usize::from(pointed), len))
}

/// Plain digits at `bytes[at..]` — the only form this codec's writer
/// emits for an integer — in one pass, and where they end; nineteen of
/// them cannot overflow a u64. `None` for any other token.
#[inline(always)]
fn plain_uint(bytes: &[u8], at: usize) -> Option<(u64, usize)> {
    let (mut v, mut end) = (0u64, at);
    while let Some(digit) = bytes.get(end).map(|b| b.wrapping_sub(b'0')).filter(|&d| d < 10) {
        v = v.wrapping_mul(10).wrapping_add(u64::from(digit));
        end += 1;
    }
    let plain = (1..=19).contains(&(end - at))
        && !matches!(bytes.get(end), Some(b'.' | b'e' | b'E' | b'+' | b'-'));
    plain.then_some((v, end))
}

/// The exact-or-fallback fast path of [`Scanner::float`]: a token at
/// `bytes[at..]` of the shape `-?digits[.digits]` — nothing else a
/// number token may contain after it — of at most fifteen bytes after
/// the sign, read in one pass, and where it ends; or `None` whenever
/// the result could differ from `str::parse::<f32>` by a bit.
///
/// The digits, point dropped, are an integer `m < 10^15 < 2^53` and
/// the fraction's length gives `10^f` with `f < 15`: both exact as
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
fn plain_float(bytes: &[u8], at: usize) -> Option<(f32, usize)> {
    let negative = bytes.get(at) == Some(&b'-');
    let text = &bytes[(at + usize::from(negative)).min(bytes.len())..];
    let (m, fraction, len) = decimal_in_window(text)?;
    let end = at + usize::from(negative) + len;
    let sign = if negative { -1.0f32 } else { 1.0 };
    if m == 0 {
        return Some((0.0 * sign, end));
    }
    let x = m as f64 / POW10_F64[fraction];
    if x < f64::from(f32::MIN_POSITIVE) || x.to_bits() & 0x1FFF_FFFF == 0x1000_0000 {
        return None;
    }
    Some((x as f32 * sign, end))
}

/// What a typed array holds: how one element is read.
trait Element: Copy + Default + Send {
    /// Bytes of text a reader's segment spans at least: an array of
    /// fewer than twice this is read on the calling thread alone.
    const MIN_SEGMENT: usize;

    /// The element at `bytes[at..]` in the notation this codec's writer
    /// uses, and where it ends; `None` for anything else there.
    fn plain(bytes: &[u8], at: usize) -> Option<(Self, usize)>;

    /// The element at the scanner's position (at `depth`) in any
    /// notation, consumed; `None` for a well-formed value of another
    /// type (skipped).
    fn any(s: &mut Scanner<'_>, depth: usize) -> Result<Option<Self>, String>;
}

macro_rules! integer_element {
    ($($t:ty),*) => {$(
        impl Element for $t {
            const MIN_SEGMENT: usize = INT_READ_SEGMENT;

            #[inline(always)]
            fn plain(bytes: &[u8], at: usize) -> Option<(Self, usize)> {
                let (v, end) = plain_uint(bytes, at)?;
                Some((<$t>::try_from(v).ok()?, end))
            }

            fn any(s: &mut Scanner<'_>, depth: usize) -> Result<Option<Self>, String> {
                Ok(s.uint(depth)?.and_then(|v| <$t>::try_from(v).ok()))
            }
        }
    )*};
}
integer_element!(usize, u32);

/// An integer reader's minimum segment, in bytes of text.
const INT_READ_SEGMENT: usize = 96 << 10;

impl Element for f32 {
    const MIN_SEGMENT: usize = 48 << 10;

    #[inline(always)]
    fn plain(bytes: &[u8], at: usize) -> Option<(Self, usize)> {
        plain_float(bytes, at)
    }

    fn any(s: &mut Scanner<'_>, depth: usize) -> Result<Option<Self>, String> {
        s.float(depth)
    }
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
    fn features(&mut self, split: Split) -> Result<FeatureFields, String> {
        let mut f = FeatureFields::default();
        if self.peek() != Some(b'{') {
            self.skip_value(1)?;
            return Ok(f);
        }
        self.object(|s, key| match key {
            "rows" if f.rows.is_none() => set(&mut f.rows, s.uint(2)?),
            "cols" if f.cols.is_none() => set(&mut f.cols, s.uint(2)?),
            "row_ptr" if f.row_ptr.is_none() => set(&mut f.row_ptr, s.array(2, split)?),
            "col_idx" if f.col_idx.is_none() => set(&mut f.col_idx, s.array(2, split)?),
            "values" if f.values.is_none() => set(&mut f.values, s.array(2, split)?),
            _ => s.skip_value(2),
        })?;
        Ok(f)
    }

    /// The `"output"` value (depth 1) of a reply.
    fn output(&mut self, split: Split) -> Result<OutputFields, String> {
        let mut o = OutputFields::default();
        if self.peek() != Some(b'{') {
            self.skip_value(1)?;
            return Ok(o);
        }
        self.object(|s, key| match key {
            "rows" if o.rows.is_none() => set(&mut o.rows, s.uint(2)?),
            "cols" if o.cols.is_none() => set(&mut o.cols, s.uint(2)?),
            "data" if o.data.is_none() => set(&mut o.data, s.array(2, split)?),
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
    /// whose every element is a `T`, `None` if it is any other
    /// well-formed value (skipped).
    ///
    /// The vector is allocated once, for the [`Bound`] the array's own
    /// bytes give, and filled in the bound's segments, each on a core of
    /// its own; if they do not make a flat array of number tokens, the
    /// array is read again as one segment.
    fn array<T: Element>(&mut self, depth: usize, split: Split) -> Result<Option<Vec<T>>, String> {
        if self.peek() != Some(b'[') {
            self.skip_value(depth)?;
            return Ok(None);
        }
        let bound = element_bound::<T>(&self.bytes[self.pos + 1..], split);
        let mut items = vec![T::default(); bound.elements];
        if !bound.cuts.is_empty() && self.segmented(depth, &bound, &mut items) {
            return Ok(Some(items));
        }
        self.pos += 1;
        let read = self.segment(depth, &mut items, None)?;
        Ok(read.map(|count| {
            items.truncate(count);
            items
        }))
    }

    /// The array at the scanner's position (its `[`) read in the
    /// segments `bound` cuts it into, into `items`, each segment on a
    /// core of its own. `true` (and the array consumed) if every
    /// segment held `T`s and nothing else, exactly as many as `items`
    /// has room for; `false`, nothing consumed, otherwise.
    fn segmented<T: Element>(&mut self, depth: usize, bound: &Bound, items: &mut [T]) -> bool {
        let (start, end) = (self.pos + 1, self.pos + 1 + bound.span);
        // Each part: where its text starts, where it stops (a cut comma,
        // or the `]`), and its slots in `items`.
        let mut parts = Vec::with_capacity(bound.cuts.len() + 1);
        let (mut rest, mut from, mut before) = (items, start, 0);
        for cut in &bound.cuts {
            let (slots, tail) = rest.split_at_mut(cut.before - before);
            parts.push((from, start + cut.comma, slots));
            (rest, from, before) = (tail, start + cut.comma + 1, cut.before);
        }
        parts.push((from, end, rest));
        let bytes = self.bytes;
        let read = on_cores(parts, |(from, to, slots)| {
            let read = Scanner { bytes, pos: from }.segment(depth, slots, Some(to));
            matches!(read, Ok(Some(count)) if count == slots.len())
        });
        let whole = read.into_iter().all(|segment| segment);
        if whole {
            self.pos = end + 1;
        }
        whole
    }

    /// The reader's one loop: the elements of one segment of a typed
    /// array into `out`, from the scanner's position — just past the
    /// `[`, or past the comma a cut is made at. With no `cut` it runs to
    /// the array's `]` (consumed); `Some(count)` if every element was a
    /// `T`, `None` if one was not (the rest is still validated). With a
    /// `cut` it stops there (a cut comma, or the `]`), and at the first
    /// element that is not a `T` (`None`).
    fn segment<T: Element>(
        &mut self,
        depth: usize,
        out: &mut [T],
        cut: Option<usize>,
    ) -> Result<Option<usize>, String> {
        let end = cut.unwrap_or(usize::MAX);
        if cut.is_none() {
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Some(0));
            }
        }
        let (mut count, mut typed) = (0, true);
        loop {
            // One pass over what this codec's writer emits — plain
            // tokens, a bare comma after each — for as long as that is
            // what is there, short of the cut.
            if typed {
                let mut at = self.pos;
                while let Some((item, next)) = T::plain(self.bytes, at) {
                    if next >= end || self.bytes.get(next) != Some(&b',') {
                        break;
                    }
                    out[count] = item;
                    count += 1;
                    at = next + 1;
                }
                self.pos = at;
            }
            // Whatever stopped it — the last element, whitespace,
            // another notation, another type, an error — is one element
            // read the general way; then the pass resumes.
            self.skip_ws();
            if !typed {
                self.skip_value(depth + 1)?;
            } else if let Some(item) = T::any(self, depth + 1)? {
                out[count] = item;
                count += 1;
            } else if cut.is_some() {
                return Ok(None);
            } else {
                typed = false;
            }
            self.skip_ws();
            if self.pos >= end {
                return Ok((self.pos == end).then_some(count));
            }
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') if cut.is_none() => {
                    self.pos += 1;
                    return Ok(typed.then_some(count));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
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
        if let Some((v, end)) = plain_uint(self.bytes, self.pos) {
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

    /// [`plain_float`] at the scanner's position, consumed; or `None`,
    /// nothing consumed.
    #[inline(always)]
    fn float_exact(&mut self) -> Option<f32> {
        let (v, end) = plain_float(self.bytes, self.pos)?;
        self.pos = end;
        Some(v)
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

    // The writer this module shipped before the integer one, kept as
    // the oracle the sweeps hold the new one to: `f64` scaling, a
    // nine-step trial loop, staged through stack buffers.

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

    /// `10^(k - 31)` for `k` in `0..86`: every power of ten
    /// [`old_shortest_digits`] scales an `f32` by, each correctly rounded.
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
    fn old_shortest_digits(a: f32) -> (u32, i32) {
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
    fn old_push_f32(out: &mut Vec<u8>, v: f32) {
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
        let (d, e) = old_shortest_digits(v.abs());
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

    fn text(v: f32) -> String {
        let mut out = Vec::new();
        push_number(&mut out, v);
        String::from_utf8(out).expect("number text is ASCII")
    }

    /// The significant digits of a number token: its mantissa's digits
    /// without the zeros that only place the point (`0.0012`, `1200.0`).
    fn significant_digits(token: &str) -> usize {
        let mantissa = token.split('e').next().expect("a mantissa");
        let digits: String = mantissa.chars().filter(char::is_ascii_digit).collect();
        digits.trim_matches('0').len()
    }

    /// The contract of the `f32` [`Token`]: the token parses back, as an
    /// f32, to the same bits, and it is built from at most nine
    /// significant digits with no trailing zero among them — in either
    /// layout, as many as the standard library's shortest formatting
    /// (`{:e}`, which never pads) uses.
    fn assert_round_trips(v: f32) {
        let token = text(v);
        let back: f32 = token.parse().unwrap_or_else(|e| panic!("{v:e} wrote {token:?}: {e}"));
        assert_eq!(back.to_bits(), v.to_bits(), "{v:e} wrote {token:?}, which reads back {back:e}");
        let digits = significant_digits(&token);
        assert!((1..=9).contains(&digits), "{v:e} wrote {token:?}: {digits} digits");
        assert_eq!(digits, significant_digits(&format!("{v:e}")), "{v:e} wrote {token:?}");
        // In exponent notation nothing pads: the digits end on one.
        let mantissa = token.split('e').next().expect("a mantissa");
        assert!(!(token.contains('e') && mantissa.ends_with('0')), "{v:e} wrote {token:?}");
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
            push_number(&mut out, v);
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

    /// How the new writer's text for `v` relates to the old writer's.
    #[derive(Default, Debug, PartialEq)]
    struct AgainstTheOldWriter {
        /// Byte for byte the same.
        equal: u32,
        /// Equally long, another decimal inside the rounding interval.
        other_digits: u32,
        /// Fewer digits: the old writer's was not the shortest.
        shorter: u32,
    }

    impl AgainstTheOldWriter {
        /// Writes `v` with both writers. The new text is never the
        /// longer one, and where it is not the old text it must parse
        /// back to `v`'s bits on its own account, from as few digits as
        /// the standard library's shortest formatting uses.
        fn compare(&mut self, v: f32, new: &mut Vec<u8>, old: &mut Vec<u8>) {
            new.clear();
            old.clear();
            push_number(new, v);
            old_push_f32(old, v);
            if new == old {
                return self.equal += 1;
            }
            let (new, old) = (std::str::from_utf8(new).unwrap(), std::str::from_utf8(old).unwrap());
            assert!(new.len() <= old.len(), "{v:e}: wrote {new:?}, the old writer {old:?}");
            let back: f32 = new.parse().unwrap_or_else(|e| panic!("{v:e} wrote {new:?}: {e}"));
            assert_eq!(back.to_bits(), v.to_bits(), "{v:e} wrote {new:?}, which reads {back:e}");
            // And it has as few digits as `std`'s shortest formatting.
            assert_eq!(significant_digits(new), significant_digits(&format!("{v:e}")), "{v:e}");
            if new.len() < old.len() {
                self.shorter += 1;
            } else {
                self.other_digits += 1;
            }
        }
    }

    #[test]
    fn integer_writer_against_the_old_writer_on_every_exponent() {
        let (mut new, mut old) = (Vec::new(), Vec::new());
        // The values with a text of their own and the edges of the
        // format, both neighbours and both signs of each.
        let mut edges = vec![0.0, f32::NAN, f32::INFINITY, f32::MAX, f32::MIN_POSITIVE];
        edges.extend((0..=0x007F_FFFF).step_by(4099).map(f32::from_bits)); // subnormals
        edges.extend((-149..=127).map(|e| 2f32.powi(e)));
        edges.extend((-45..=38).map(|e| format!("1e{e}").parse::<f32>().unwrap()));
        let mut at_the_edges = AgainstTheOldWriter::default();
        for v in edges {
            for v in [v.next_down(), v, v.next_up(), -v] {
                at_the_edges.compare(v, &mut new, &mut old);
            }
        }
        // Every 239th bit pattern of the positive half (the sign is a
        // prefix), from two phases: 17.9 million values (≥ 2^24), some
        // 70 000 to each of the 255 finite exponents, low bits varying.
        let mut swept = AgainstTheOldWriter::default();
        for start in [0u32, 113] {
            for pattern in (start..0x7F80_0000).step_by(239) {
                swept.compare(f32::from_bits(pattern), &mut new, &mut old);
            }
        }
        // The old writer rounded a nine-digit approximation digit by
        // digit inside a symmetric radius; the new one takes the true
        // (at a power of two, lopsided) interval and the decimal closest
        // to the value. So it is the same text on 96.8 % of patterns,
        // a closer decimal of the same length on some, and a *shorter*
        // one where the old trial loop stopped a digit or more early.
        // Pinned, so that a change to either shows.
        assert_eq!(
            (at_the_edges, swept),
            (
                AgainstTheOldWriter { equal: 9_507, other_digits: 99, shorter: 46 },
                AgainstTheOldWriter { equal: 17_324_663, other_digits: 543_378, shorter: 32_336 },
            )
        );
    }

    /// What follows a token under test: the rest of an array, so that
    /// the token is not among the document's last fifteen bytes (which
    /// the sixteen-byte window leaves to the full parser).
    const MORE: &str = ",0.5,0.25,0.125,1.0]";

    /// [`Scanner::float_exact`] on one token in the middle of an array:
    /// its value if it took the token — checked bit for bit against
    /// `str::parse::<f32>`, the route it stands in for — or `None` if
    /// it left the token to that route.
    fn exact(token: &str) -> Option<f32> {
        let text = format!("{token}{MORE}");
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
        // Fifteen significant digits, a token of fifteen bytes: still in.
        assert!(exact("123456789012345").is_some() && exact("-0.0012345678901").is_some());
        assert_eq!(exact("-0").map(f32::to_bits), Some((-0.0f32).to_bits()), "the sign of zero");
        assert_eq!(exact("-0.000").map(f32::to_bits), Some((-0.0f32).to_bits()));
        #[rustfmt::skip]
        let declined = [
            // Exponents, non-finite words, and shapes only the full
            // parser judges.
            "1e5", "1.5e-3", "2E0", "NaN", "Infinity", "-Infinity", "-", "", ".5", "1.", "-.5",
            "1.5.2", "1-2", "1+2", "+1", "x",
            // Sixteen significant digits, and a token of sixteen bytes.
            "1234567890123456", "0.000123456789012345", "0.00123456789012",
            // 2^24 + 1: exactly between two f32s (ties go to even).
            "16777217", "16777217.000", "-16777217.0",
            // Below the normal range, where the f32 grid is coarser.
            "0.00000000000000000000000000000000000001", "0.000000000000000001",
        ];
        for token in declined {
            assert_eq!(exact(token), None, "{token:?} must be left to the full parser");
        }
        // So is whatever stands in the document's last fifteen bytes.
        assert_eq!(plain_float(b"0.5,0.25]}", 0), None);
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
            push_number(&mut out, v);
            let len = out.len();
            // Plain notation always fits the sixteen-byte window.
            let plain = !out.contains(&b'e');
            out.extend_from_slice(MORE.as_bytes());
            let unsigned = &out[usize::from(v.is_sign_negative())..];
            assert_eq!(decimal_in_window(unsigned).is_some(), plain, "{v:e}");
            let mut scanner = Scanner { bytes: &out, pos: 0 };
            match scanner.float_exact() {
                Some(read) => {
                    // The writer's text reads back — through the fast
                    // path — to the value it was written from: what
                    // `str::parse` is pinned to by the sweep above.
                    assert_eq!(read.to_bits(), v.to_bits(), "{v:e} wrote {:?}", text(v));
                    assert_eq!(scanner.pos, len);
                    taken += 1;
                }
                // Exponent notation, and a decimal that is the midpoint
                // of two f32s (integers above 2^24 can be), a tie only
                // the full parser may break.
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
        // Where midpoints are integers, so the 14-digit decimal *is*
        // the midpoint: 2^24 … 2^40.
        cases.extend((0..4_000).map(|k| 16_777_216.0 + 2.0 * k as f32));
        cases.extend((24..40).flat_map(|e| [2f32.powi(e), 2f32.powi(e).next_down()]));
        // And everywhere fourteen digits fit in plain notation.
        cases.extend((0..300_000).map(|_| {
            let exponent = rng.gen_range(-3.0f32..14.0);
            10f32.powf(exponent) * (1.0 + rng.gen::<f32>())
        }));
        let (mut taken, mut declined) = (0u64, 0u64);
        for a in cases {
            // Exact: neighbouring f32s are 29 bits short of an f64.
            let midpoint = (f64::from(a) + f64::from(a.next_up())) / 2.0;
            // Fourteen significant digits of it: with the point, the
            // fifteen bytes the window reader takes.
            let integer_digits = (midpoint.log10().floor() as i32 + 1).max(1);
            let precision = (14 - integer_digits).max(1) as usize;
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
                    if midpoint.fract() == 0.0 && midpoint < 1e13 {
                        assert_eq!(exact(&token).is_none(), delta == 0, "{token}");
                    }
                }
            }
        }
        // Off the integers, the digits can still land on the midpoint's
        // own f64, and from 10^13 up the token outgrows the window;
        // those are declined too.
        assert!(taken > 1_000_000 && declined > 16_000, "{taken} taken, {declined} declined");
    }

    #[test]
    fn swar_classify_finds_a_non_digit_at_each_byte_position() {
        // The bytes either side of the digits, the point and separators,
        // a zero, and bytes with the top bit set — among them the
        // digits' own low seven bits.
        let stops =
            [b'/', b':', b'.', b',', b']', b' ', b'e', b'-', 0x00, 0x7F, 0x80, 0xB0, 0xB9, 0xFF];
        // A non-digit at each of the window's sixteen positions, digits
        // everywhere else: found there, and the digits before it — moved
        // to the top of the places, as the reader does — are their value.
        for position in 0..16 {
            for &stop in &stops {
                let mut window = *b"9876543210123456";
                window[position] = stop;
                let (places, not_digit) = classify(u128::from_le_bytes(window));
                assert_eq!(not_digit, 0x80 << (8 * position), "{window:?}");
                let places = if position == 0 { 0 } else { places << (8 * (16 - position)) };
                let value = value_of_places(places as u64) * 100_000_000
                    + value_of_places((places >> 64) as u64);
                let prefix = std::str::from_utf8(&window[..position]).unwrap();
                assert_eq!(value, prefix.parse().unwrap_or(0), "{window:?}");
            }
        }
        let nines = u128::from_le_bytes([b'9'; 16]) ^ (0x30 * ONES);
        assert_eq!(value_of_places(nines as u64), 99_999_999);
    }

    #[test]
    fn plain_uint_equals_parse_on_tokens_of_every_length() {
        let mut rng = StdRng::seed_from_u64(0x0016);
        let mut text = Vec::new();
        for len in 1..=22usize {
            for round in 0..400 {
                // Random digits; all nines; leading zeros.
                let token: String = match round {
                    0 => "9".repeat(len),
                    1 => "0".repeat(len),
                    _ => (0..len).map(|_| char::from(b'0' + rng.gen_range(0..10u8))).collect(),
                };
                for after in [",", "]", " ,", "", ".5,", "e3,", "E3]", "-1,", "+1,"] {
                    text.clear();
                    text.extend_from_slice(token.as_bytes());
                    text.extend_from_slice(after.as_bytes());
                    // Plain digits a u64 is sure to hold, with nothing a
                    // number goes on over after them: taken, and equal
                    // to `str::parse`; everything else is left alone.
                    let plain = len <= 19
                        && !matches!(
                            after.as_bytes().first(),
                            Some(b'.' | b'e' | b'E' | b'-' | b'+')
                        );
                    let expected = plain.then(|| (token.parse::<u64>().unwrap(), len));
                    assert_eq!(plain_uint(&text, 0), expected, "{token}{after}");
                    // Whichever way it goes, the scanner's answer is
                    // `str::parse`'s wherever that has one.
                    if after.starts_with([',', ']', ' ']) || after.is_empty() {
                        let mut scanner = Scanner { bytes: &text, pos: 0 };
                        match (scanner.uint(1), token.parse::<u64>()) {
                            (Ok(Some(v)), Ok(parsed)) => assert_eq!(v, parsed, "{token}"),
                            (Ok(None), Err(_)) => {} // over u64::MAX: ill-typed
                            (got, parsed) => panic!("{token}: scanner {got:?}, parse {parsed:?}"),
                        }
                    }
                }
            }
        }
        // The writer's own integers, through the array loop.
        let values: Vec<u64> = (0..20).map(|i| 10u64.pow(i) - 1).chain([u64::MAX]).collect();
        text.clear();
        push_array(&mut text, &values, Split::PerCore);
        let mut scanner = Scanner { bytes: &text, pos: 0 };
        let read: Vec<usize> = scanner.array(1, Split::PerCore).unwrap().unwrap();
        assert_eq!(read, values.iter().map(|&v| v as usize).collect::<Vec<_>>());
    }

    #[test]
    fn window_reader_equals_parse_on_every_split_of_digits_around_a_point() {
        // Every split of up to twenty digits around a point, signed and
        // not — across the window's edge at fifteen bytes. `exact`
        // holds whatever is taken to `str::parse`.
        let mut rng = StdRng::seed_from_u64(0x0F16);
        for integer in 0..=20usize {
            for fraction in 0..=20usize {
                for round in 0..12 {
                    let mut digit =
                        |_| char::from(b'0' + if round == 0 { 0 } else { rng.gen_range(0..10u8) });
                    let int: String = (0..integer).map(&mut digit).collect();
                    let frac: String = (0..fraction).map(&mut digit).collect();
                    for sign in ["", "-"] {
                        let pointed = format!("{sign}{int}.{frac}");
                        let taken = exact(&pointed).is_some();
                        if integer == 0 || fraction == 0 || integer + 1 + fraction > 15 {
                            assert!(!taken, "{pointed:?} must be left to the full parser");
                        }
                        if fraction == 0 && integer > 0 {
                            let bare = format!("{sign}{int}");
                            assert!(!(exact(&bare).is_some() && integer > 15), "{bare:?}");
                        }
                    }
                }
            }
        }
        // Shapes only the full parser judges, in and out of the window.
        for token in [
            "1.5.2",
            "1..5",
            "1.5e3",
            "1e5",
            "1E5",
            "1.5-2",
            "1+2",
            "1.5+",
            "-",
            "--1",
            "-.5",
            ".5",
            "1.",
            "+1",
            "x",
            "",
            "0.1234567890123.4",
            "12345678901234.5.6",
        ] {
            assert_eq!(exact(token), None, "{token:?}");
        }
        // A token need not be followed by a separator to be read — only
        // by nothing a number goes on over.
        for text in ["1.5]               ", "-0.000123456789 ,0.5,0.25,0.125"] {
            assert!(plain_float(text.as_bytes(), 0).is_some(), "{text:?}");
        }
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
        assert_split_same_as_oracle(body, Split::PerCore);
    }

    /// [`assert_same_as_oracle`] for the reader cutting its arrays as
    /// `split` says.
    fn assert_split_same_as_oracle(body: &[u8], split: Split) {
        let shown = || String::from_utf8_lossy(body).into_owned();
        match (read_request(body, split), oracle_read_request(body)) {
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
        match (read_response(body, split), oracle_read_response(body)) {
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

    // Segments: the reader and the writer at every k against one
    // segment, on bodies small enough to cut anywhere.

    /// A reader's outcome, comparable with `==` to the byte: NaN by its
    /// bits, every error by its text (which carries its offset).
    fn request_outcome(body: &[u8], split: Split) -> Result<String, String> {
        read_request(body, split).map(|(id, deadline_ms, f)| {
            let parts = (f.num_rows(), f.num_cols(), f.row_ptr(), f.col_idx());
            format!("{id} {deadline_ms:?} {parts:?} {:?}", bits(f.values()))
        })
    }

    fn response_outcome(body: &[u8], split: Split) -> Result<String, String> {
        read_response(body, split).map(|(id, output)| {
            format!("{id} {}×{} {:?}", output.rows(), output.cols(), bits(output.as_slice()))
        })
    }

    /// `body` read in every k from 2 to 8: the same outcome as one
    /// segment — values, ill-typed field, error text and byte offset —
    /// which is the tree oracle's.
    fn assert_every_split_agrees(body: &[u8]) {
        assert_split_same_as_oracle(body, Split::Exactly(1));
        let (request, response) =
            (request_outcome(body, Split::Exactly(1)), response_outcome(body, Split::Exactly(1)));
        for k in 2..=8 {
            let shown = || format!("k = {k}: {}", String::from_utf8_lossy(body));
            assert_eq!(request_outcome(body, Split::Exactly(k)), request, "{}", shown());
            assert_eq!(response_outcome(body, Split::Exactly(k)), response, "{}", shown());
        }
    }

    /// The elements a segment may meet, each to be put at and beside
    /// every cut: whitespace on either side of a comma, exponents and
    /// tokens longer than the window, the non-finite words and `-0`,
    /// values of other types, and errors (among them commas with nothing
    /// between them, more than the span has room for elements).
    const AT_A_CUT: &[&str] = &[
        " 3",
        "\n\t3",
        "3 ",
        "1e3",
        "2.5E-3",
        "1e400",
        "0.12345678901234567",
        "12345678901234567890",
        "4294967296",
        "NaN",
        "Infinity",
        "-Infinity",
        "-0",
        "-0.0",
        "\"a,b]\"",
        "[1,2]",
        "[]",
        "{\"k\":[3,4]}",
        "null",
        "1.5.2",
        "-",
        "1e",
        "tru",
        "3]",
        "",
        ",,,",
    ];

    /// A request (`field` 0 row_ptr, 1 col_idx, 2 values) or a reply (3:
    /// data) whose arrays are `n` plain elements but for `token` at `at`
    /// in that field, behind a `]` and commas in an unknown key's string.
    fn body_with(field: usize, token: &str, at: usize, n: usize) -> String {
        let array = |this: usize, plain: &dyn Fn(usize) -> String, len: usize| {
            let elements: Vec<String> = (0..len)
                .map(|i| if this == field && i == at { token.into() } else { plain(i) })
                .collect();
            format!("[{}]", elements.join(","))
        };
        let row_ptr = array(0, &|i| (i * n / (n - 1)).min(n).to_string(), n);
        let col_idx = array(1, &|i| i.to_string(), n);
        let values = array(2, &|i| format!("{}.25", i % 7), n);
        let data = array(3, &|i| format!("-0.{}5", i % 9), n);
        if field == 3 {
            return format!(
                r#"{{"x":"]],[","id":7,"output":{{"rows":1,"cols":{n},"data":{data}}}}}"#
            );
        }
        format!(
            r#"{{"x":"]],[","id":7,"features":{{"rows":{},"cols":{n},"row_ptr":{row_ptr},"col_idx":{col_idx},"values":{values}}}}}"#,
            n - 1
        )
    }

    #[test]
    fn segmented_reader_equals_one_segment_and_the_oracle_at_every_cut() {
        // Twelve elements: every k from 2 to 8 puts a cut next to each
        // of them for some token, so every token meets every cut.
        let n = 12;
        for field in 0..4 {
            for token in AT_A_CUT {
                for at in 0..n {
                    assert_every_split_agrees(body_with(field, token, at, n).as_bytes());
                }
            }
        }
        // The plain bodies are accepted, and are read in more than one
        // segment (cut at a comma, not in the string ahead).
        let (request, reply) = (body_with(0, "0", 0, n), body_with(3, "0", 0, n));
        assert!(request_outcome(request.as_bytes(), Split::Exactly(8)).is_ok());
        assert!(response_outcome(reply.as_bytes(), Split::Exactly(8)).is_ok());
        let at = reply.find('[').unwrap() + 1;
        let bound = element_bound::<f32>(&reply.as_bytes()[at..], Split::Exactly(4));
        assert_eq!(bound.cuts.len(), 3, "{reply}");
        assert!(bound.cuts.iter().all(|cut| reply.as_bytes()[at + cut.comma] == b','));
    }

    #[test]
    fn segmented_reader_reports_the_first_of_one_error_in_each_segment() {
        let n = 64;
        for k in 1..=8 {
            for (bad, kind) in ["1.5.2", "x", "1e", "[1,]"].iter().enumerate() {
                // One error in each of the k segments, the first of them
                // wherever `bad` puts it; whichever a segment meets, the
                // array is read again from its `[`, and the first error
                // is the one reported, at its offset.
                let elements: Vec<String> = (0..n)
                    .map(|i| {
                        let error = i % (n / k) == (bad * 3 + 1) % (n / k);
                        if error {
                            kind.to_string()
                        } else {
                            format!("{i}.5")
                        }
                    })
                    .collect();
                let body = format!(
                    r#"{{"id":1,"output":{{"rows":1,"cols":{n},"data":[{}]}}}}"#,
                    elements.join(",")
                );
                let one = response_outcome(body.as_bytes(), Split::Exactly(1));
                assert!(one.as_ref().is_err_and(|e| e.starts_with("JSON parse error")), "{one:?}");
                assert_every_split_agrees(body.as_bytes());
            }
        }
    }

    #[test]
    fn segmented_writer_is_byte_identical_on_the_strided_sweep() {
        // Every 239th bit pattern from two phases, as the writer's
        // sweep above, signs alternating, in arrays of 40 000: each
        // written in one segment and in k, k cycling through 2..=8.
        let patterns = [0u32, 113].into_iter().flat_map(|start| (start..0x7F80_0000).step_by(239));
        let values: Vec<f32> = patterns
            .enumerate()
            .map(|(i, pattern)| f32::from_bits(pattern | (i as u32 & 1) << 31))
            .collect();
        let (mut one, mut many) = (Vec::new(), Vec::new());
        for (round, chunk) in values.chunks(40_000).enumerate() {
            let k = 2 + round % 7;
            one.clear();
            many.clear();
            push_array(&mut one, chunk, Split::Exactly(1));
            push_array(&mut many, chunk, Split::Exactly(k));
            assert!(one == many, "chunk {round}, k = {k}");
        }
        // Integers, and the arrays too short to cut k ways.
        for len in 0..12 {
            let ints: Vec<u64> = (0..len).map(|i| 10u64.pow(i as u32 % 20) - 1).collect();
            one.clear();
            push_array(&mut one, &ints, Split::Exactly(1));
            for k in 2..=8 {
                many.clear();
                push_array(&mut many, &ints, Split::Exactly(k));
                assert_eq!(one, many, "len {len}, k = {k}");
            }
        }
    }

    /// The Pubmed stand-in's feature matrix: the benchmark's largest
    /// request (986 k non-zeros, 14 MB of text).
    fn pubmed_features() -> SparseFeatures {
        SparseFeatures::random(19_717, 500, 0.10, 42)
    }

    #[test]
    fn segmented_writer_and_reader_are_exact_on_the_pubmed_request() {
        let features = pubmed_features();
        let mut one = Vec::new();
        write_request(&mut one, 3, Some(9), &features, Split::Exactly(1));
        let mut many = Vec::new();
        for k in 2..=8 {
            many.clear();
            write_request(&mut many, 3, Some(9), &features, Split::Exactly(k));
            assert!(one == many, "k = {k}: the text differs");
            let (_, _, read) = read_request(&many, Split::Exactly(k)).unwrap();
            assert_eq!(read, features, "k = {k}");
            assert_eq!(bits(read.values()), bits(features.values()), "k = {k}");
        }
        // And what the public calls do on this box.
        many.clear();
        write_infer_request(&mut many, 3, Some(9), &features);
        assert!(one == many);
        assert_eq!(read_infer_request(&one).unwrap().2, features);
    }

    #[test]
    fn a_call_cuts_at_most_two_segments_from_twice_its_types_minimum() {
        let least = [
            <f32 as Token>::MIN_SEGMENT,
            <u32 as Token>::MIN_SEGMENT,
            <f32 as Element>::MIN_SEGMENT,
            <u32 as Element>::MIN_SEGMENT,
        ];
        for least in least {
            assert_eq!(Split::PerCore.segments(2 * least - 1, least), 1);
            assert_eq!(Split::PerCore.segments(2 * least, least), cores().min(MAX_SEGMENTS));
            assert_eq!(Split::PerCore.segments(usize::MAX, least), cores().min(MAX_SEGMENTS));
        }
        // The benchmark's short integers: Cora's column indices are
        // written whole and read in segments.
        assert_eq!(Split::PerCore.segments(48_744, <u32 as Token>::MIN_SEGMENT), 1);
        let read = Split::PerCore.segments(206_053, <u32 as Element>::MIN_SEGMENT);
        assert_eq!(read, cores().min(MAX_SEGMENTS));
    }

    #[test]
    fn a_failed_spawn_degrades_to_inline() {
        let features = SparseFeatures::random(300, 40, 0.3, 5);
        let output = DenseMatrix::from_vec(50, 7, (0..350).map(|i| i as f32 / 3.0).collect());
        let (mut request, mut reply) = (Vec::new(), Vec::new());
        write_request(&mut request, 1, None, &features, Split::Exactly(1));
        write_response(&mut reply, 1, &output, Split::Exactly(1));
        let guard = igcn_fail::FailGuard::setup();
        guard.cfg("gateway::body::spawn", "always:return").unwrap();
        // No thread starts: every segment runs on the calling thread,
        // and nothing the caller sees changes.
        let (mut again, mut reply_again) = (Vec::new(), Vec::new());
        write_request(&mut again, 1, None, &features, Split::Exactly(4));
        write_response(&mut reply_again, 1, &output, Split::Exactly(4));
        assert!(again == request && reply_again == reply);
        assert_eq!(read_request(&request, Split::Exactly(4)).unwrap().2, features);
        let (_, read) = read_response(&reply, Split::Exactly(4)).unwrap();
        assert_eq!(bits(read.as_slice()), bits(output.as_slice()));
        // Four segments per array: three spawns refused each, over the
        // 3 + 1 arrays written and the 3 + 1 read.
        assert_eq!(igcn_fail::fired("gateway::body::spawn"), 3 * 4 * 2);
        drop(guard);
    }
}
