//! Hostile bytes at the gateway's parsers: the binary frame decoder
//! ([`wire::decode`]), the two streaming JSON body readers
//! ([`body::read_infer_request`], [`body::read_infer_response`]) and,
//! through a live gateway, the HTTP request head.
//!
//! A seeded, structure-aware mutator damages valid inputs the way a
//! broken or malicious peer would — bit flips, truncation, extension,
//! length / count / dimension fields forced to boundary values (with
//! the checksum restamped, so the damage gets past it), whole sections
//! swapped, JSON keys duplicated / dropped / reordered, deep nesting
//! under an unknown key, digit strings by the megabyte — and every
//! input must come back as a typed error or a valid value: never a
//! panic, and never more live heap than a stated multiple of the
//! input's own length.
//!
//! Request heads take the same rules on a live gateway: a damaged
//! request line, duplicate / signed / overflowing `Content-Length`,
//! `Transfer-Encoding`, lone `\n` line endings, bytes that are not
//! UTF-8, heads a byte either side of the 16 KiB cap. Each is sent on a
//! connection of its own, which is then closed for writing: the reply
//! is an HTTP status (or the binary protocol's error frame, where the
//! damage made the first byte its magic), or a close without one where
//! the request never completed — never silence, never a dead IO thread.
//!
//! The same allocator then watches a live gateway take *declarations*:
//! 32 connections that each send a frame header, or an HTTP head,
//! announcing 256 MB and nothing after it. A declared length is room
//! the peer has not paid for; the heap must grow by what the bytes that
//! arrived earn — a small constant per connection — not by what they
//! promise.
//!
//! The test instruments the global allocator, which is why it lives in
//! its own integration-test binary with a single `#[test]` (no
//! concurrent tests polluting the counters) — the pattern of the
//! facade's `tests/scratch_reuse.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use igcn_gateway::wire::{self, Decoded, Frame};
use igcn_gateway::{body, BinaryClient, Gateway, GatewayConfig, HealthState};
use igcn_graph::SparseFeatures;
use igcn_linalg::DenseMatrix;
use igcn_store::sections::checksum64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tracks live (outstanding) heap bytes and their high-water mark.
struct PeakAllocator;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static PEAK_BYTES: AtomicIsize = AtomicIsize::new(0);

fn grew(by: isize) {
    let live = LIVE_BYTES.fetch_add(by, Ordering::SeqCst) + by;
    PEAK_BYTES.fetch_max(live, Ordering::SeqCst);
}

// SAFETY: every method hands its arguments, unchanged, to the same
// method of `System` and returns what that returns, so `GlobalAlloc`'s
// contract holds because `System` keeps it; `grew` touches two atomics
// and neither allocates nor unwinds.
unsafe impl GlobalAlloc for PeakAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::SeqCst);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grew(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: PeakAllocator = PeakAllocator;

/// Runs `parse` and returns its result with the most heap that was
/// live, over the level before the call, at any moment during it.
fn with_peak<T>(parse: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE_BYTES.load(Ordering::SeqCst);
    PEAK_BYTES.store(before, Ordering::SeqCst);
    let result = parse();
    let peak = PEAK_BYTES.load(Ordering::SeqCst) - before;
    (result, peak.max(0) as usize)
}

/// Heap a binary decode may hold live per input byte: the decoded
/// arrays are the payload's own bytes re-typed (1×), an error message
/// may quote a string field (1×).
const WIRE_HEAP_FACTOR: usize = 2;
/// Heap a JSON decode may hold live per input byte: 8-byte offsets
/// from two-byte elements (`0,`) are 4×; an error message or an
/// unescaped skipped string is at most 1× more.
const JSON_HEAP_FACTOR: usize = 5;
/// Constant allowance on top (small strings, the error `String`).
const HEAP_SLACK: usize = 4096;

#[derive(Default)]
struct Verdicts {
    accepted: usize,
    rejected: usize,
}

/// One hostile input through the frame decoder.
fn check_frame(bytes: &[u8], verdicts: &mut Verdicts) {
    let (decoded, peak) = with_peak(|| wire::decode(bytes));
    assert!(
        peak <= WIRE_HEAP_FACTOR * bytes.len() + HEAP_SLACK,
        "decoding {} bytes held {peak} bytes of heap live",
        bytes.len()
    );
    match decoded {
        Decoded::Frame(frame, trace, consumed) => {
            assert!(consumed <= bytes.len());
            // A frame the decoder accepts is one it can re-encode to
            // the bytes it consumed: nothing half-validated gets out.
            let again = wire::encode_traced(&frame, trace);
            assert_eq!(again, &bytes[..consumed], "accepted frame does not re-encode");
            verdicts.accepted += 1;
        }
        Decoded::NeedMore => verdicts.rejected += 1,
        Decoded::Corrupt(message) => {
            assert!(!message.is_empty());
            verdicts.rejected += 1;
        }
    }
}

/// One hostile input through both body readers.
fn check_body(bytes: &[u8], verdicts: &mut Verdicts) {
    let budget = JSON_HEAP_FACTOR * bytes.len() + HEAP_SLACK;
    let (request, peak) = with_peak(|| body::read_infer_request(bytes));
    assert!(peak <= budget, "request reader: {} bytes held {peak} live", bytes.len());
    let (response, peak) = with_peak(|| body::read_infer_response(bytes));
    assert!(peak <= budget, "response reader: {} bytes held {peak} live", bytes.len());
    match (&request, &response) {
        (Ok((_, _, features)), _) => {
            // Accepted means validated: the matrix is self-consistent.
            assert_eq!(features.row_ptr().len(), features.num_rows() + 1);
            assert_eq!(features.col_idx().len(), features.values().len());
            verdicts.accepted += 1;
        }
        (_, Ok((_, output))) => {
            assert_eq!(output.as_slice().len(), output.rows() * output.cols());
            verdicts.accepted += 1;
        }
        (Err(a), Err(b)) => {
            assert!(!a.is_empty() && !b.is_empty());
            verdicts.rejected += 1;
        }
    }
}

// ------------------------------------------------------------- frames

/// Recomputes the header's payload length and checksum over whatever
/// the payload now is — how hostile *structure* gets past the checksum.
fn restamp(frame: &mut [u8]) {
    let payload_len = (frame.len() - wire::HEADER_LEN) as u64;
    frame[8..16].copy_from_slice(&payload_len.to_le_bytes());
    let sum = checksum64(&frame[wire::HEADER_LEN..]);
    frame[16..24].copy_from_slice(&sum.to_le_bytes());
}

const BOUNDARY_U64: [u64; 12] = [
    0,
    1,
    2,
    7,
    u32::MAX as u64,
    u32::MAX as u64 + 1,
    (256 << 20) - 1,
    256 << 20,
    (256 << 20) + 1,
    i64::MAX as u64,
    u64::MAX - 1,
    u64::MAX,
];

fn mutate_frame(frame: &mut Vec<u8>, rng: &mut StdRng) {
    let payload_words = (frame.len() - wire::HEADER_LEN) / 8;
    match rng.gen_range(0..9u32) {
        // Raw damage, checksum left alone.
        0 => {
            let bit = rng.gen_range(0..frame.len() * 8);
            frame[bit / 8] ^= 1 << (bit % 8);
        }
        1 => frame.truncate(rng.gen_range(0..frame.len())),
        2 => {
            let extra = rng.gen_range(1..64usize);
            frame.extend((0..extra).map(|_| rng.gen::<u32>() as u8));
        }
        // A header field forced to a boundary value.
        3 => {
            let at = [4usize, 8, 16][rng.gen_range(0..3usize)];
            let value = BOUNDARY_U64[rng.gen_range(0..BOUNDARY_U64.len())].to_le_bytes();
            let width = if at == 4 { 4 } else { 8 };
            frame[at..at + width].copy_from_slice(&value[..width]);
        }
        // Structural damage behind a valid checksum: a scalar or
        // element word (kind, id, deadline, rows, cols, nnz, a row_ptr
        // entry…) forced to a boundary value…
        4 | 5 if payload_words > 0 => {
            let word = rng.gen_range(0..payload_words.min(8 + payload_words / 4));
            let at = wire::HEADER_LEN + word * 8;
            let value = BOUNDARY_U64[rng.gen_range(0..BOUNDARY_U64.len())];
            frame[at..at + 8].copy_from_slice(&value.to_le_bytes());
            restamp(frame);
        }
        // …two stretches of the payload swapped (sections change
        // places)…
        6 if payload_words >= 4 => {
            let len = rng.gen_range(1..=payload_words / 2) * 8;
            let a = wire::HEADER_LEN;
            let b = frame.len() - len;
            for i in 0..len {
                frame.swap(a + i, b + i);
            }
            restamp(frame);
        }
        // …or the payload cut short / padded, with the header agreeing.
        7 => {
            let keep = wire::HEADER_LEN + rng.gen_range(0..=frame.len() - wire::HEADER_LEN);
            frame.truncate(keep);
            restamp(frame);
        }
        _ => {
            let extra = rng.gen_range(1..40usize);
            frame.extend(std::iter::repeat_n(0u8, extra));
            restamp(frame);
        }
    }
}

fn seed_frames() -> Vec<Vec<u8>> {
    let features = SparseFeatures::random(40, 12, 0.3, 7);
    let output = DenseMatrix::from_vec(3, 2, vec![0.5, -0.0, f32::NAN, 1e30, -1e-40, 7.0]);
    [
        Frame::Infer { id: 9, deadline_ms: 250, features },
        Frame::Infer {
            id: 0,
            deadline_ms: 0,
            features: SparseFeatures::from_raw_parts(0, 0, vec![0], vec![], vec![]).unwrap(),
        },
        Frame::Ok { id: 7, output },
        Frame::Err { id: 3, message: "backend error: späße".to_string() },
        Frame::Shed { id: 1 },
        Frame::Deadline { id: 2 },
        Frame::HealthCheck { id: 4 },
        Frame::Health {
            id: 4,
            state: HealthState::Degraded,
            detail: "2/3 shards down".to_string(),
        },
    ]
    .iter()
    .map(|frame| wire::encode_traced(frame, 0x77))
    .collect()
}

// ------------------------------------------------------------- bodies

/// The top-level members of a JSON object's text, as `(key, value)`
/// source slices — enough structure to reorder, drop and duplicate
/// keys without a parser (the seeds are this test's own, flat enough
/// for a depth counter).
fn members(object: &str) -> Vec<(String, String)> {
    let inner = &object[1..object.len() - 1];
    let mut parts = Vec::new();
    let (mut depth, mut start) = (0i32, 0usize);
    for (i, c) in inner.char_indices() {
        match c {
            '{' | '[' => depth += 1,
            '}' | ']' => depth -= 1,
            ',' if depth == 0 => {
                parts.push(&inner[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&inner[start..]);
    parts
        .into_iter()
        .filter_map(|m| m.split_once(':'))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

fn object_of(members: &[(String, String)]) -> String {
    let inner: Vec<String> = members.iter().map(|(k, v)| format!("{k}:{v}")).collect();
    format!("{{{}}}", inner.join(","))
}

const HOSTILE_VALUES: [&str; 16] = [
    "0",
    "-1",
    "1.5",
    "1e400",
    "18446744073709551615",
    "18446744073709551616",
    "4294967296",
    "9007199254740993",
    "NaN",
    "-Infinity",
    "null",
    "\"7\"",
    "[]",
    "{}",
    "[[0]]",
    "-",
];

/// Structure-aware damage to one body: works on the member list of the
/// top-level object and of its `features` / `output` object.
fn mutate_body(body: &str, rng: &mut StdRng) -> Vec<u8> {
    let mut top = members(body);
    let nested = top.iter().position(|(k, _)| k == "\"features\"" || k == "\"output\"");
    // Pick the object to damage: the nested one three times out of four.
    let (target, mut fields) = match nested {
        Some(i) if rng.gen_range(0..4u32) > 0 => (Some(i), members(&top[i].1)),
        _ => (None, top.clone()),
    };
    let pick = rng.gen_range(0..fields.len());
    match rng.gen_range(0..8u32) {
        0 => {
            fields.remove(pick);
        }
        1 => {
            let copy = fields[pick].clone();
            fields.insert(rng.gen_range(0..=fields.len()), copy);
        }
        2 => {
            // Duplicate key, hostile value first or second.
            let mut copy = fields[pick].clone();
            copy.1 = HOSTILE_VALUES[rng.gen_range(0..HOSTILE_VALUES.len())].to_string();
            let at = if rng.gen::<bool>() { 0 } else { fields.len() };
            fields.insert(at, copy);
        }
        3 => {
            let other = rng.gen_range(0..fields.len());
            fields.swap(pick, other);
        }
        4 => fields[pick].1 = HOSTILE_VALUES[rng.gen_range(0..HOSTILE_VALUES.len())].to_string(),
        5 => {
            // Deep nesting under an unknown key: either side of the cap.
            let depth = [100usize, 126, 127, 128, 129, 1000][rng.gen_range(0..6usize)];
            let open = if rng.gen::<bool>() { "[" } else { "{\"k\":" };
            let close = if open == "[" { "]" } else { "}" };
            let value = format!("{}0{}", open.repeat(depth), close.repeat(depth));
            fields.insert(rng.gen_range(0..=fields.len()), ("\"unknown\"".to_string(), value));
        }
        6 => {
            // An array element replaced inside the chosen value.
            let hostile = HOSTILE_VALUES[rng.gen_range(0..HOSTILE_VALUES.len())];
            fields[pick].1 = fields[pick].1.replacen(',', &format!(",{hostile},"), 1);
        }
        _ => {
            // Swap the values of two keys (sections change places).
            let other = rng.gen_range(0..fields.len());
            let (a, b) = (fields[pick].1.clone(), fields[other].1.clone());
            fields[pick].1 = b;
            fields[other].1 = a;
        }
    }
    match target {
        Some(i) => top[i].1 = object_of(&fields),
        None => top = fields,
    }
    let mut bytes = object_of(&top).into_bytes();
    // And sometimes raw damage on top.
    match rng.gen_range(0..6u32) {
        0 => {
            let bit = rng.gen_range(0..bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        1 => bytes.truncate(rng.gen_range(0..bytes.len())),
        2 => bytes.extend_from_slice(b" {}"),
        _ => {}
    }
    bytes
}

fn seed_bodies() -> Vec<String> {
    let mut seeds = Vec::new();
    for seed in 0..3 {
        let features = SparseFeatures::random(6, 9, 0.4, seed);
        let mut request = Vec::new();
        body::write_infer_request(&mut request, seed, (seed > 0).then_some(50), &features);
        seeds.push(String::from_utf8(request).unwrap());
    }
    let output = DenseMatrix::from_vec(2, 3, vec![0.25, -1.5, 1e-30, 3.0, f32::MAX, -0.0]);
    let mut reply = Vec::new();
    body::write_infer_response(&mut reply, 11, &output);
    seeds.push(String::from_utf8(reply).unwrap());
    seeds
}

/// Inputs whose point is their size: the allocation bound must hold
/// where it is tightest and where a count field lies the most.
fn oversized_bodies() -> Vec<Vec<u8>> {
    let zeros = |n: usize| format!("[{}0]", "0,".repeat(n - 1));
    let features = |row_ptr: &str, col_idx: &str, values: &str| {
        format!(
            "{{\"features\":{{\"rows\":3,\"cols\":4,\"row_ptr\":{row_ptr},\"col_idx\":{col_idx},\"values\":{values}}}}}"
        )
        .into_bytes()
    };
    let digits = "9".repeat(1 << 20);
    vec![
        // Two text bytes per 8-byte element: the 4× case.
        features(&zeros(200_000), "[]", "[]"),
        features("[0]", &zeros(200_000), &zeros(200_000)),
        // Separators with nothing between them, and a `]` far away.
        features(&format!("[{}]", ",".repeat(300_000)), "[]", "[]"),
        features(&format!("[0{}", " ".repeat(300_000)), "[]", "[]"),
        // Huge digit strings where a u64, a u32 and an f32 are expected.
        format!("{{\"id\":{digits},\"features\":{{}}}}").into_bytes(),
        features("[0]", &format!("[{digits}]"), "[]"),
        features("[0]", "[]", &format!("[{digits},0.{digits},{digits}e{digits}]")),
        // A long escaped string and a long plain one under unknown keys.
        format!("{{\"a\":\"{}\",\"b\":\"{}\"}}", "\\u00e9".repeat(50_000), "x".repeat(300_000))
            .into_bytes(),
        // A reply whose dimensions promise the moon.
        format!(
            "{{\"id\":1,\"output\":{{\"rows\":{},\"cols\":{},\"data\":{}}}}}",
            u64::MAX,
            u64::MAX,
            zeros(100_000)
        )
        .into_bytes(),
    ]
}

#[test]
fn hostile_bytes_yield_typed_errors_within_the_heap_bound() {
    let mut rng = StdRng::seed_from_u64(0xB17E5);

    // Binary frames.
    let frames = seed_frames();
    let mut verdicts = Verdicts::default();
    for frame in &frames {
        check_frame(frame, &mut verdicts);
    }
    assert_eq!(verdicts.accepted, frames.len(), "every seed frame is valid");
    for round in 0..20_000 {
        let mut frame = frames[round % frames.len()].clone();
        for _ in 0..rng.gen_range(1..3u32) {
            if frame.len() >= wire::HEADER_LEN {
                mutate_frame(&mut frame, &mut rng);
            }
        }
        check_frame(&frame, &mut verdicts);
    }
    // Counts that promise far more than the frame holds, behind a valid
    // checksum: refused before anything is reserved.
    for (rows, nnz) in [(1u64 << 28, 0u64), (0, 1 << 28), (u64::MAX, u64::MAX), (1 << 20, 1 << 20)]
    {
        let mut frame = frames[1][..wire::HEADER_LEN + 24].to_vec(); // header, kind, id, deadline
        for field in [rows, 4, nnz] {
            frame.extend_from_slice(&field.to_le_bytes());
        }
        restamp(&mut frame);
        check_frame(&frame, &mut verdicts);
    }
    assert!(
        verdicts.accepted > frames.len() + 200 && verdicts.rejected > 10_000,
        "frames: {} accepted, {} rejected — the mutator must reach both verdicts",
        verdicts.accepted,
        verdicts.rejected
    );

    // JSON bodies.
    let bodies = seed_bodies();
    let mut verdicts = Verdicts::default();
    for body in &bodies {
        check_body(body.as_bytes(), &mut verdicts);
    }
    assert_eq!(verdicts.accepted, bodies.len(), "every seed body is valid");
    for round in 0..20_000 {
        let hostile = mutate_body(&bodies[round % bodies.len()], &mut rng);
        check_body(&hostile, &mut verdicts);
    }
    assert!(
        verdicts.accepted > bodies.len() + 500 && verdicts.rejected > 5_000,
        "bodies: {} accepted, {} rejected — the mutator must reach both verdicts",
        verdicts.accepted,
        verdicts.rejected
    );
    for hostile in oversized_bodies() {
        check_body(&hostile, &mut verdicts);
    }

    hostile_heads_get_typed_replies(&mut rng);
    declared_lengths_are_not_reserved();
}

/// A gateway over a small engine, and one binary health check through
/// it: what a first connection makes the process build lazily is not
/// what the heap checks measure.
fn serve_small() -> Gateway {
    use igcn_core::Accelerator;

    let graph = igcn_graph::generate::HubIslandConfig::new(60, 4).generate(3).graph;
    let mut engine = igcn_core::IGcnEngine::builder(graph).build().unwrap();
    let model = igcn_gnn::GnnModel::gcn(6, 4, 2);
    engine.prepare(&model, &igcn_gnn::ModelWeights::glorot(&model, 1)).unwrap();
    let gateway =
        Gateway::serve(std::sync::Arc::new(engine), "127.0.0.1:0", GatewayConfig::default())
            .unwrap();
    let addr = gateway.local_addr();
    assert_eq!(BinaryClient::connect(addr).unwrap().health().unwrap().0, HealthState::Ready);
    gateway
}

// -------------------------------------------------------------- heads

/// Largest request head the gateway accepts (request line, headers
/// and the blank line that ends them).
const MAX_HEAD: usize = 16 << 10;
/// Heap one exchange may hold live beside its input's multiple: the
/// connection's 64 KB first read chunk, its reply, and what serving one
/// small request on the 60-node engine allocates.
const HEAP_PER_HEAD_EXCHANGE: usize = 512 << 10;

/// Valid requests whose heads the mutator damages: three routes, both
/// versions, a trace header, and an inference with its body.
fn seed_requests() -> Vec<Vec<u8>> {
    let mut infer = Vec::new();
    let features = SparseFeatures::random(60, 6, 0.3, 4);
    body::write_infer_request(&mut infer, 5, Some(500), &features);
    let mut post = format!(
        "POST /v1/infer HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        infer.len()
    )
    .into_bytes();
    post.extend_from_slice(&infer);
    vec![
        b"GET /healthz HTTP/1.1\r\nHost: gateway\r\n\r\n".to_vec(),
        b"GET /stats HTTP/1.0\r\nConnection: keep-alive\r\n\r\n".to_vec(),
        b"GET /metrics HTTP/1.1\r\nX-IGCN-Trace: 00000000000000ab\r\nConnection: close\r\n\r\n"
            .to_vec(),
        post,
    ]
}

/// Inserts `line` (without its line ending) as the head's second line.
fn with_header(head: &mut Vec<u8>, line: &str) {
    let at = head.windows(2).position(|w| w == b"\r\n").map_or(head.len(), |i| i + 2);
    head.splice(at..at, format!("{line}\r\n").into_bytes());
}

/// One piece of damage to `request`'s head; its body, if any, follows
/// as it was.
fn mutate_head(request: &mut Vec<u8>, rng: &mut StdRng) {
    let head_len =
        request.windows(4).position(|w| w == b"\r\n\r\n").map_or(request.len(), |i| i + 4);
    let body = request.split_off(head_len);
    let head = request;
    let line_end = head.windows(2).position(|w| w == b"\r\n").unwrap_or(head.len());
    match rng.gen_range(0..8u32) {
        // The request line: a byte replaced, removed or doubled, or a
        // part swapped for a hostile one.
        0 if line_end > 0 => {
            let at = rng.gen_range(0..line_end);
            const BYTES: &[u8] = b" /\tH1%\0?:.";
            match rng.gen_range(0..3u32) {
                0 => head[at] = BYTES[rng.gen_range(0..BYTES.len())],
                1 => drop(head.remove(at)),
                _ => head.insert(at, head[at]),
            }
        }
        1 => {
            let line = String::from_utf8_lossy(&head[..line_end]).into_owned();
            let parts: Vec<&str> = line.split(' ').collect();
            let hostile = [
                "",
                "HTTP/1.2",
                "HTTP/2",
                "http/1.1",
                "GET",
                "/v1/infer",
                "DELETE",
                "/trace/0",
                "/trace/ffffffffffffffffff",
                "GET /healthz",
            ];
            let mut parts: Vec<String> = parts.iter().map(|p| p.to_string()).collect();
            let at = rng.gen_range(0..parts.len());
            parts[at] = hostile[rng.gen_range(0..hostile.len())].to_string();
            head.splice(..line_end, parts.join(" ").into_bytes());
        }
        // `Content-Length`: duplicated (agreeing or not), signed,
        // overflowing, past the body cap, or not a number.
        2 | 3 => {
            let real = body.len();
            let values = [
                real.to_string(),
                (real + 1).to_string(),
                format!("+{real}"),
                format!("-{real}"),
                "18446744073709551616".to_string(),
                "99999999999999999999999999999".to_string(),
                ((256 << 20) + 1).to_string(),
                "0x10".to_string(),
                String::new(),
                format!("{real}, {real}"),
                "1e3".to_string(),
            ];
            let value = &values[rng.gen_range(0..values.len())];
            let name =
                ["Content-Length", "content-length", "CONTENT-LENGTH"][rng.gen_range(0..3usize)];
            with_header(head, &format!("{name}: {value}"));
        }
        // `Transfer-Encoding`, in any form.
        4 => {
            let values = ["chunked", "gzip, chunked", "identity", ""];
            let value = values[rng.gen_range(0..values.len())];
            with_header(head, &format!("Transfer-Encoding: {value}"));
        }
        // Lone `\n` line endings: all of them, or one.
        5 => {
            let text = String::from_utf8_lossy(head).into_owned();
            let replaced = if rng.gen::<bool>() {
                text.replace("\r\n", "\n")
            } else {
                text.replacen("\r\n", "\n", 1)
            };
            *head = replaced.into_bytes();
        }
        // Bytes that are not UTF-8, anywhere in the head.
        6 => {
            let at = rng.gen_range(0..=head.len());
            let bytes: Vec<u8> =
                (0..rng.gen_range(1..4u32)).map(|_| rng.gen_range(0x80..=0xFFu8)).collect();
            head.splice(at..at, bytes);
        }
        // A head within a few bytes of the cap.
        _ => pad_head(head, MAX_HEAD - 2 + rng.gen_range(0..5usize)),
    }
    head.extend_from_slice(&body);
}

/// Pads a head, with one header, to `len` bytes in all.
fn pad_head(head: &mut Vec<u8>, len: usize) {
    let filler = "X-Pad: ".len() + 2;
    let pad = len.saturating_sub(head.len() + filler);
    with_header(head, &format!("X-Pad: {}", "a".repeat(pad)));
}

/// What the gateway made of one hostile head.
#[derive(Default, Debug)]
struct HeadVerdicts {
    /// A `2xx`: the damage left a valid request.
    served: usize,
    /// An HTTP error status, or the binary error frame.
    refused: usize,
    /// Closed without a reply: the request never completed.
    closed: usize,
}

/// Sends `request` on a connection of its own, closes it for writing,
/// and reads whatever comes back until the gateway closes.
fn exchange(gateway: &Gateway, request: &[u8], verdicts: &mut HeadVerdicts) {
    use std::io::{Read, Write};

    let (reply, peak) = with_peak(|| {
        let mut stream = std::net::TcpStream::connect(gateway.local_addr()).unwrap();
        stream.set_read_timeout(Some(std::time::Duration::from_secs(20))).unwrap();
        // The gateway may refuse and close before the whole request is
        // written: a reset is a close.
        let _ = stream.write_all(request);
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let mut reply = Vec::new();
        match stream.read_to_end(&mut reply) {
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            Err(e) => panic!("no reply and no close: {e} after {:?}", shown(request)),
        }
        reply
    });
    assert!(
        peak <= JSON_HEAP_FACTOR * request.len() + HEAP_PER_HEAD_EXCHANGE,
        "{} request bytes held {peak} bytes of heap live: {:?}",
        request.len(),
        shown(request)
    );
    if reply.is_empty() {
        verdicts.closed += 1;
    } else if reply.starts_with(&wire::WIRE_MAGIC) {
        assert!(matches!(wire::decode(&reply), Decoded::Frame(Frame::Err { .. }, _, _)));
        verdicts.refused += 1;
    } else {
        let status = std::str::from_utf8(&reply[..reply.len().min(12)])
            .ok()
            .and_then(|line| line.strip_prefix("HTTP/1.1 "))
            .and_then(|code| code.parse::<u16>().ok())
            .unwrap_or_else(|| panic!("untyped reply {:?}", String::from_utf8_lossy(&reply)));
        match status {
            200 => verdicts.served += 1,
            400 | 404 | 405 | 413 | 431 | 501 | 505 => verdicts.refused += 1,
            other => panic!("status {other} to {:?}", shown(request)),
        }
    }
}

fn shown(request: &[u8]) -> String {
    String::from_utf8_lossy(&request[..request.len().min(300)]).into_owned()
}

/// The seeded head mutator through a live gateway.
fn hostile_heads_get_typed_replies(rng: &mut StdRng) {
    let gateway = serve_small();
    let seeds = seed_requests();
    let mut verdicts = HeadVerdicts::default();
    for seed in &seeds {
        exchange(&gateway, seed, &mut verdicts);
    }
    assert_eq!(verdicts.served, seeds.len(), "every seed request is valid");
    // Every seed at each length around the cap, then the mutator.
    for seed in &seeds {
        for len in MAX_HEAD - 1..=MAX_HEAD + 1 {
            let head_len = seed.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
            let mut padded = seed[..head_len].to_vec();
            pad_head(&mut padded, len);
            assert_eq!(padded.len(), len);
            padded.extend_from_slice(&seed[head_len..]);
            exchange(&gateway, &padded, &mut verdicts);
        }
    }
    for round in 0..2_000 {
        let mut request = seeds[round % seeds.len()].clone();
        for _ in 0..rng.gen_range(1..3u32) {
            mutate_head(&mut request, rng);
        }
        exchange(&gateway, &request, &mut verdicts);
    }
    assert!(
        verdicts.served > 100 && verdicts.refused > 1_000 && verdicts.closed > 100,
        "heads: {verdicts:?} — the mutator must reach every verdict"
    );
    // Nothing the heads did stopped an IO thread: both still serve.
    for _ in 0..4 {
        assert_eq!(
            BinaryClient::connect(gateway.local_addr()).unwrap().health().unwrap().0,
            HealthState::Ready
        );
    }
    gateway.shutdown();
}

/// Heap one connection may hold for a request of which it has received
/// a header and at most 100 KB: the 64 KB first chunk, doubled once or
/// twice, and the connection's own bookkeeping.
const HEAP_PER_DECLARING_CONN: usize = 512 << 10;

/// 32 connections declare 256 MB each — the most either protocol lets a
/// request be — to a live gateway, and send (next to) none of it.
fn declared_lengths_are_not_reserved() {
    use std::io::Write;

    let gateway = serve_small();
    let addr = gateway.local_addr();

    let declared = wire::MAX_PAYLOAD;
    let mut header = Vec::new();
    header.extend_from_slice(&wire::WIRE_MAGIC);
    header.extend_from_slice(&wire::WIRE_VERSION.to_le_bytes());
    header.extend_from_slice(&declared.to_le_bytes());
    header.extend_from_slice(&0u64.to_le_bytes()); // checksum of a payload that never comes
    header.extend_from_slice(&0u64.to_le_bytes()); // trace id
    assert_eq!(wire::frame_len(&header), Some(wire::HEADER_LEN + declared as usize));
    let head = format!("POST /v1/infer HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n");

    // Until the gateway has read what was sent and gone back to sleep.
    let settle = |connections: u64| {
        let mut seen = 0;
        loop {
            std::thread::sleep(std::time::Duration::from_millis(100));
            let stats = gateway.stats();
            if stats.connections == connections && stats.io_wakeups == seen {
                break;
            }
            seen = stats.io_wakeups;
        }
    };
    let (conns, grown) = with_peak(|| {
        let mut conns: Vec<std::net::TcpStream> = (0..32)
            .map(|i| {
                let mut stream = std::net::TcpStream::connect(addr).unwrap();
                stream.write_all(if i % 2 == 0 { &header } else { head.as_bytes() }).unwrap();
                stream
            })
            .collect();
        settle(33);
        // The declarations are known now. Some peers go on a little:
        // past the first chunk, so the buffer has to grow, and still
        // three orders of magnitude short of what they declared.
        for stream in conns.iter_mut().step_by(3) {
            stream.write_all(&[b'0'; 100_000]).unwrap();
        }
        settle(33);
        conns
    });
    assert!(
        grown <= conns.len() * HEAP_PER_DECLARING_CONN,
        "32 connections declaring {declared} bytes each grew the heap by {grown} bytes"
    );
    assert_eq!(gateway.stats().protocol_errors, 0, "the declarations themselves are legal");
    drop(conns);
    gateway.shutdown();
}
