//! Minimal HTTP/1.1: request parsing and response building, shared by
//! the server and [`crate::HttpClient`].
//!
//! Only what the gateway serves is implemented: `POST /v1/infer`,
//! `GET /healthz`, `GET /stats`, `GET /metrics`, the trace routes,
//! keep-alive, and `Content-Length` bodies (`Transfer-Encoding` is
//! rejected with 501 rather than misread, no `Expect: 100-continue`).
//! Bodies are JSON. The small ones (`/healthz`, `/stats`, `/traces`,
//! error objects) go through the workspace's hand-rolled `serde::json`
//! tree; the two bulk ones — the infer request and its `200` reply —
//! go through the typed streaming codec in [`crate::body`], specified
//! here.
//!
//! # Request body grammar (`POST /v1/infer`)
//!
//! ```json
//! {
//!   "id": 7,
//!   "deadline_ms": 250,
//!   "features": {"rows": N, "cols": D, "row_ptr": [...], "col_idx": [...], "values": [...]}
//! }
//! ```
//!
//! `id` and `deadline_ms` are optional (default 0 / no deadline). The
//! success response is `{"id": 7, "output": {"rows": N, "cols": K,
//! "data": [...]}}` with `data` row-major. Keys may come in any order;
//! unknown keys are skipped (whatever their value, down to 128 levels
//! of nesting); of a repeated key the first occurrence counts. A
//! missing or ill-typed field is a `400` naming it (`features missing
//! "rows"`, `features col_idx must be an array of u32`, …), as is
//! anything but whitespace after the document.
//!
//! # Number format, accepted tokens, memory bound, segments
//!
//! Specified on [`crate::body`], which implements them. In short: an
//! `f32` is written as the shortest decimal that names it and read
//! back *as an `f32`*, so text is bit-exact (and a version-2 client's
//! 17-digit text decodes to the same bits); where a number is expected
//! any JSON number is taken, plus the bare tokens `NaN`, `Infinity` and
//! `-Infinity`; no tree is built — each known array is parsed into
//! a vector allocated once from the array's own byte count, so peak
//! decode memory is at most 4× the body; and a large array is written
//! and read in segments, one per core up to two, to the same bytes and
//! values.

use igcn_graph::SparseFeatures;
use igcn_linalg::DenseMatrix;
use serde::json::{obj, JsonValue};

use crate::body;

/// Largest accepted request head (request line + headers).
pub(crate) const MAX_HEAD: usize = 16 << 10;

/// Largest accepted request body.
pub(crate) const MAX_BODY: usize = 256 << 20;

/// The request/response header carrying the end-to-end trace id, as
/// 16 lowercase hex digits. Requests without it (or with an
/// unparseable value) get a server-minted id; responses always echo
/// the request's effective id.
pub(crate) const TRACE_HEADER: &str = "X-IGCN-Trace";

/// One parsed gateway request. `trace` is the request's
/// [`TRACE_HEADER`] value (0 when absent — the server mints one).
#[derive(Debug)]
pub(crate) enum HttpRequest {
    /// `POST /v1/infer`.
    Infer {
        id: u64,
        deadline_ms: Option<u64>,
        features: SparseFeatures,
        keep_alive: bool,
        trace: u64,
    },
    /// `GET /healthz`.
    Healthz { keep_alive: bool, trace: u64 },
    /// `GET /stats`.
    Stats { keep_alive: bool, trace: u64 },
    /// `GET /metrics` (Prometheus text exposition).
    Metrics { keep_alive: bool, trace: u64 },
    /// `GET /traces` (retained trace-tree summaries).
    Traces { keep_alive: bool, trace: u64 },
    /// `GET /trace/{id}` (one retained tree as Chrome trace-event
    /// JSON). `id` is the requested trace id, parsed from the path.
    TraceById { id: u64, keep_alive: bool, trace: u64 },
    /// `GET /debug/flight` (the flight-recorder ring as JSON).
    DebugFlight { keep_alive: bool, trace: u64 },
}

/// Outcome of trying to parse one request off the front of a buffer.
#[derive(Debug)]
pub(crate) enum HttpParse {
    /// The buffer does not yet hold a complete request. Carries the
    /// request's total length once the head has arrived and declared
    /// it (0 until then), so the receiver knows how far its buffer may
    /// grow.
    NeedMore(usize),
    /// One complete request and how many bytes it consumed.
    Request(HttpRequest, usize),
    /// A malformed or unsupported request: respond with `status` and
    /// close the connection (framing may be lost).
    Error { status: u16, message: String },
}

pub(crate) fn parse(buf: &[u8]) -> HttpParse {
    let head_end = match find_head_end(buf) {
        Some(end) => end,
        None if buf.len() > MAX_HEAD => {
            return HttpParse::Error {
                status: 431,
                message: format!("request head exceeds {MAX_HEAD} bytes"),
            }
        }
        None => return HttpParse::NeedMore(0),
    };
    let head = match std::str::from_utf8(&buf[..head_end]) {
        Ok(head) => head,
        Err(_) => {
            return HttpParse::Error { status: 400, message: "request head is not UTF-8".into() }
        }
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if parts.next().is_none() => (m, p, v),
        _ => {
            return HttpParse::Error {
                status: 400,
                message: format!("malformed request line {request_line:?}"),
            }
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return HttpParse::Error { status: 505, message: format!("unsupported version {version}") };
    }
    let mut content_length: Option<usize> = None;
    // HTTP/1.0 defaults to close, 1.1 to keep-alive.
    let mut keep_alive = version == "HTTP/1.1";
    let mut trace = 0u64;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        let value = value.trim();
        if name.eq_ignore_ascii_case(TRACE_HEADER) {
            // A malformed trace id is not worth failing the request
            // over: treat it as absent and mint a fresh one.
            trace = u64::from_str_radix(value, 16).unwrap_or(0);
        }
        if name.eq_ignore_ascii_case("transfer-encoding") {
            // No chunked decoding here: treating a chunked body as
            // Content-Length 0 would desync the connection, so refuse
            // outright.
            return HttpParse::Error {
                status: 501,
                message: format!("Transfer-Encoding {value:?} is not supported"),
            };
        }
        if name.eq_ignore_ascii_case("content-length") {
            let Some(n) = parse_content_length(value) else {
                return HttpParse::Error {
                    status: 400,
                    message: format!("bad Content-Length {value:?}"),
                };
            };
            if content_length.is_some_and(|prev| prev != n) {
                return HttpParse::Error {
                    status: 400,
                    message: "conflicting duplicate Content-Length headers".to_string(),
                };
            }
            content_length = Some(n);
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close")
                && (keep_alive || value.eq_ignore_ascii_case("keep-alive"));
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY {
        return HttpParse::Error {
            status: 413,
            message: format!("request body of {content_length} bytes exceeds {MAX_BODY}"),
        };
    }
    let body_end = head_end + 4 + content_length;
    if buf.len() < body_end {
        return HttpParse::NeedMore(body_end);
    }
    let body = &buf[head_end + 4..body_end];
    match (method, path) {
        ("GET", "/healthz") => {
            HttpParse::Request(HttpRequest::Healthz { keep_alive, trace }, body_end)
        }
        ("GET", "/stats") => HttpParse::Request(HttpRequest::Stats { keep_alive, trace }, body_end),
        ("GET", "/metrics") => {
            HttpParse::Request(HttpRequest::Metrics { keep_alive, trace }, body_end)
        }
        ("GET", "/traces") => {
            HttpParse::Request(HttpRequest::Traces { keep_alive, trace }, body_end)
        }
        ("GET", "/debug/flight") => {
            HttpParse::Request(HttpRequest::DebugFlight { keep_alive, trace }, body_end)
        }
        ("GET", p) if p.starts_with("/trace/") => match parse_trace_id(&p["/trace/".len()..]) {
            Some(id) => {
                HttpParse::Request(HttpRequest::TraceById { id, keep_alive, trace }, body_end)
            }
            None => HttpParse::Error {
                status: 400,
                message: format!("bad trace id in {p:?} (want 1-16 hex digits)"),
            },
        },
        ("POST", "/v1/infer") => match body::read_infer_request(body) {
            Ok((id, deadline_ms, features)) => HttpParse::Request(
                HttpRequest::Infer { id, deadline_ms, features, keep_alive, trace },
                body_end,
            ),
            Err(message) => HttpParse::Error { status: 400, message },
        },
        ("POST" | "GET", _) => {
            HttpParse::Error { status: 404, message: format!("no route for {method} {path}") }
        }
        _ => HttpParse::Error { status: 405, message: format!("method {method} not allowed") },
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).take(MAX_HEAD).position(|w| w == b"\r\n\r\n")
}

/// Parses a `Content-Length` value as HTTP's `1*DIGIT` — the server's
/// reading of a request and the client's of a response. `None` for a
/// sign, an empty value, any other byte, or a length beyond `usize`
/// (`usize::from_str` alone would take `+2`).
pub(crate) fn parse_content_length(value: &str) -> Option<usize> {
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    value.parse().ok()
}

/// Parses the `{id}` path segment of `GET /trace/{id}`: the same 16
/// lowercase hex digits the [`TRACE_HEADER`] carries (shorter forms
/// and an optional `0x` prefix accepted). Zero is never a valid id.
fn parse_trace_id(segment: &str) -> Option<u64> {
    let digits = segment.strip_prefix("0x").unwrap_or(segment);
    if digits.is_empty() || digits.len() > 16 || !digits.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    match u64::from_str_radix(digits, 16) {
        Ok(0) | Err(_) => None,
        Ok(id) => Some(id),
    }
}

/// Appends the [`TRACE_HEADER`] line for a nonzero `trace`.
fn trace_header_into(out: &mut Vec<u8>, trace: u64) {
    if trace != 0 {
        out.extend_from_slice(format!("{TRACE_HEADER}: {trace:016x}\r\n").as_bytes());
    }
}

/// Width of the blank a streamed body's `Content-Length` is patched
/// into (any `u64` fits).
const LENGTH_WIDTH: usize = 20;

/// Ends a message head whose body is about to be streamed into `out`
/// behind it: a `Content-Length` header with a blank value, then the
/// empty line. Returns where the body starts, for [`end_body`].
fn begin_body(out: &mut Vec<u8>) -> usize {
    out.extend_from_slice(b"Content-Length: ");
    out.extend_from_slice(&[b' '; LENGTH_WIDTH]);
    out.extend_from_slice(b"\r\n\r\n");
    out.len()
}

/// Writes the length of the body that now runs from `body_start` to
/// the end of `out` into the blank [`begin_body`] left, right-aligned
/// (the padding is the optional whitespace HTTP allows before a field
/// value) — so a body is written once, behind its own head, without
/// being measured first.
fn end_body(out: &mut [u8], body_start: usize) {
    let digits = (out.len() - body_start).to_string();
    let blank_end = body_start - 4;
    out[blank_end - digits.len()..blank_end].copy_from_slice(digits.as_bytes());
}

/// Builds the full infer request bytes the client sends (also used by
/// tests to drive the server byte-for-byte). A nonzero `trace` rides
/// along as the [`TRACE_HEADER`].
pub(crate) fn infer_request_bytes(
    id: u64,
    deadline_ms: Option<u64>,
    features: &SparseFeatures,
    trace: u64,
) -> Vec<u8> {
    let mut out = b"POST /v1/infer HTTP/1.1\r\nContent-Type: application/json\r\n".to_vec();
    trace_header_into(&mut out, trace);
    let body_start = begin_body(&mut out);
    body::write_infer_request(&mut out, id, deadline_ms, features);
    end_body(&mut out, body_start);
    out
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Appends a response head up to (not including) `Content-Length`.
fn head_into(out: &mut Vec<u8>, status: u16, content_type: &str, keep_alive: bool, trace: u64) {
    out.extend_from_slice(
        format!(
            "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nConnection: {}\r\n",
            status_reason(status),
            if keep_alive { "keep-alive" } else { "close" },
        )
        .as_bytes(),
    );
    trace_header_into(out, trace);
}

/// Appends the complete `200` reply to an infer request to `out`, the
/// output matrix streamed straight into it.
pub(crate) fn infer_ok_response_into(
    out: &mut Vec<u8>,
    id: u64,
    output: &DenseMatrix,
    keep_alive: bool,
    trace: u64,
) {
    head_into(out, 200, "application/json", keep_alive, trace);
    let body_start = begin_body(out);
    body::write_infer_response(out, id, output);
    end_body(out, body_start);
}

/// Builds a complete response with a (small) JSON body, echoing a
/// nonzero `trace` as the [`TRACE_HEADER`].
pub(crate) fn response(status: u16, body: &JsonValue, keep_alive: bool, trace: u64) -> Vec<u8> {
    raw_response(status, "application/json", body.encode().as_bytes(), keep_alive, trace)
}

/// Builds a complete response with an arbitrary body (used by
/// `GET /metrics`, whose Prometheus exposition is `text/plain`).
pub(crate) fn raw_response(
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    trace: u64,
) -> Vec<u8> {
    let mut out = Vec::new();
    head_into(&mut out, status, content_type, keep_alive, trace);
    out.extend_from_slice(format!("Content-Length: {}\r\n\r\n", body.len()).as_bytes());
    out.extend_from_slice(body);
    out
}

/// Builds an error response (`{"error": message}`).
pub(crate) fn error_response(status: u16, message: &str, keep_alive: bool, trace: u64) -> Vec<u8> {
    response(status, &obj([("error", JsonValue::Str(message.to_string()))]), keep_alive, trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features() -> SparseFeatures {
        SparseFeatures::from_raw_parts(
            2,
            3,
            vec![0, 1, 3],
            vec![2, 0, 1],
            vec![0.5, -1.25, f32::MIN_POSITIVE],
        )
        .unwrap()
    }

    #[test]
    fn infer_request_round_trips_bit_exactly() {
        let bytes = infer_request_bytes(42, Some(250), &features(), 0xABCD);
        match parse(&bytes) {
            HttpParse::Request(
                HttpRequest::Infer { id, deadline_ms, features: parsed, keep_alive, trace },
                consumed,
            ) => {
                assert_eq!(consumed, bytes.len());
                assert_eq!(id, 42);
                assert_eq!(deadline_ms, Some(250));
                assert!(keep_alive);
                assert_eq!(trace, 0xABCD, "the trace header must survive the round trip");
                assert_eq!(parsed, features());
                let bits: Vec<u32> = parsed.values().iter().map(|v| v.to_bits()).collect();
                let expected: Vec<u32> = features().values().iter().map(|v| v.to_bits()).collect();
                assert_eq!(bits, expected);
            }
            other => panic!("expected an infer request, got {other:?}"),
        }
    }

    #[test]
    fn partial_requests_ask_for_more() {
        let bytes = infer_request_bytes(1, None, &features(), 0);
        assert!(matches!(parse(&bytes[..10]), HttpParse::NeedMore(0)), "head incomplete");
        // Once the head is in, the parser says how long the request is.
        assert!(
            matches!(parse(&bytes[..bytes.len() - 1]), HttpParse::NeedMore(n) if n == bytes.len())
        );
    }

    #[test]
    fn get_routes_parse() {
        let req = b"GET /healthz HTTP/1.1\r\n\r\n";
        assert!(matches!(
            parse(req),
            HttpParse::Request(HttpRequest::Healthz { keep_alive: true, trace: 0 }, n) if n == req.len()
        ));
        let req = b"GET /stats HTTP/1.0\r\n\r\n";
        assert!(matches!(
            parse(req),
            HttpParse::Request(HttpRequest::Stats { keep_alive: false, .. }, _)
        ));
        let req = b"GET /metrics HTTP/1.1\r\n\r\n";
        assert!(matches!(
            parse(req),
            HttpParse::Request(HttpRequest::Metrics { keep_alive: true, .. }, _)
        ));
        let req = b"GET /traces HTTP/1.1\r\n\r\n";
        assert!(matches!(
            parse(req),
            HttpParse::Request(HttpRequest::Traces { keep_alive: true, .. }, _)
        ));
        let req = b"GET /debug/flight HTTP/1.1\r\n\r\n";
        assert!(matches!(
            parse(req),
            HttpParse::Request(HttpRequest::DebugFlight { keep_alive: true, .. }, _)
        ));
    }

    #[test]
    fn trace_by_id_route_parses_hex_ids() {
        let req = b"GET /trace/00000000deadbeef HTTP/1.1\r\n\r\n";
        assert!(matches!(
            parse(req),
            HttpParse::Request(HttpRequest::TraceById { id: 0xDEAD_BEEF, .. }, _)
        ));
        // Short and 0x-prefixed forms are accepted.
        assert!(matches!(
            parse(b"GET /trace/ff HTTP/1.1\r\n\r\n"),
            HttpParse::Request(HttpRequest::TraceById { id: 0xFF, .. }, _)
        ));
        assert!(matches!(
            parse(b"GET /trace/0xff HTTP/1.1\r\n\r\n"),
            HttpParse::Request(HttpRequest::TraceById { id: 0xFF, .. }, _)
        ));
        // Zero, empty, non-hex, signed (`u64::from_str_radix` takes a
        // leading sign) and oversized ids are 400s, not routes.
        for bad in ["0", "", "not-hex", "+f", "0x+f", "-1", "11112222333344445"] {
            let req = format!("GET /trace/{bad} HTTP/1.1\r\n\r\n");
            assert!(
                matches!(parse(req.as_bytes()), HttpParse::Error { status: 400, .. }),
                "id {bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn connection_close_is_honoured() {
        let req = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
        assert!(matches!(
            parse(req),
            HttpParse::Request(HttpRequest::Healthz { keep_alive: false, .. }, _)
        ));
    }

    #[test]
    fn trace_header_parses_and_survives_garbage() {
        let req = b"GET /healthz HTTP/1.1\r\nX-IGCN-Trace: 00000000deadbeef\r\n\r\n";
        assert!(matches!(
            parse(req),
            HttpParse::Request(HttpRequest::Healthz { trace: 0xDEAD_BEEF, .. }, _)
        ));
        // Case-insensitive header name, like every other header.
        let req = b"GET /healthz HTTP/1.1\r\nx-igcn-trace: ff\r\n\r\n";
        assert!(matches!(
            parse(req),
            HttpParse::Request(HttpRequest::Healthz { trace: 0xFF, .. }, _)
        ));
        // An unparseable value means "mint one", never a 400.
        let req = b"GET /healthz HTTP/1.1\r\nX-IGCN-Trace: not-hex\r\n\r\n";
        assert!(matches!(parse(req), HttpParse::Request(HttpRequest::Healthz { trace: 0, .. }, _)));
    }

    #[test]
    fn responses_echo_the_trace_header() {
        let bytes = response(200, &obj([("ok", JsonValue::Bool(true))]), true, 0x1234_5678_9ABC);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.contains("X-IGCN-Trace: 0000123456789abc\r\n"), "got {text}");
        // Trace 0 (unassigned) omits the header rather than lying.
        let bytes = response(200, &obj([("ok", JsonValue::Bool(true))]), true, 0);
        assert!(!String::from_utf8(bytes).unwrap().contains("X-IGCN-Trace"));
    }

    #[test]
    fn bad_routes_and_bodies_are_rejected() {
        assert!(matches!(
            parse(b"GET /nope HTTP/1.1\r\n\r\n"),
            HttpParse::Error { status: 404, .. }
        ));
        assert!(matches!(
            parse(b"DELETE /v1/infer HTTP/1.1\r\n\r\n"),
            HttpParse::Error { status: 405, .. }
        ));
        assert!(matches!(
            parse(b"POST /v1/infer HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}"),
            HttpParse::Error { status: 400, .. }
        ));
        assert!(matches!(
            parse(b"GET /healthz HTTP/0.9\r\n\r\n"),
            HttpParse::Error { status: 505, .. }
        ));
    }

    #[test]
    fn transfer_encoding_is_rejected_not_misread() {
        // A chunked body must not be silently treated as length 0 (its
        // bytes would desync into the next request line).
        let req =
            b"POST /v1/infer HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n";
        assert!(matches!(parse(req), HttpParse::Error { status: 501, .. }));
    }

    #[test]
    fn conflicting_content_lengths_are_rejected() {
        let req = b"POST /v1/infer HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}x";
        assert!(matches!(parse(&req[..]), HttpParse::Error { status: 400, .. }));
        // Agreeing duplicates stay accepted (lenient).
        let req = b"GET /healthz HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 0\r\n\r\n";
        assert!(matches!(parse(&req[..]), HttpParse::Request(HttpRequest::Healthz { .. }, _)));
    }

    #[test]
    fn content_length_is_digits_only() {
        for bad in ["+0", "+2", "-0", "", "0x0", "1 0", "2x", "99999999999999999999999"] {
            let req = format!("GET /healthz HTTP/1.1\r\nContent-Length: {bad}\r\n\r\n");
            match parse(req.as_bytes()) {
                HttpParse::Error { status: 400, message } => {
                    assert!(message.starts_with("bad Content-Length"), "{bad:?}: {message}")
                }
                other => panic!("Content-Length {bad:?} must be a 400, got {other:?}"),
            }
        }
        // Leading zeros are still digits.
        let req = b"GET /healthz HTTP/1.1\r\nContent-Length: 00\r\n\r\n";
        assert!(matches!(parse(req), HttpParse::Request(HttpRequest::Healthz { .. }, _)));
    }

    #[test]
    fn oversized_declarations_are_rejected() {
        let req = format!("POST /v1/infer HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        assert!(matches!(parse(req.as_bytes()), HttpParse::Error { status: 413, .. }));
    }

    #[test]
    fn ok_response_streams_behind_a_patched_content_length() {
        let output = DenseMatrix::from_vec(2, 2, vec![1.0e-30, -0.0, 123.456, f32::MAX]);
        let mut bytes = b"earlier reply".to_vec(); // the builder appends
        infer_ok_response_into(&mut bytes, 9, &output, true, 0xFEED);
        let reply = &bytes[b"earlier reply".len()..];
        let head_end = find_head_end(reply).unwrap();
        let head = std::str::from_utf8(&reply[..head_end]).unwrap();
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "got {head}");
        assert!(head.contains("X-IGCN-Trace: 000000000000feed\r\n"));
        assert!(head.contains("Connection: keep-alive\r\n"));
        let declared: usize = head
            .split("\r\n")
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
            .map(|(_, v)| v.trim().parse().unwrap())
            .unwrap();
        let body = &reply[head_end + 4..];
        assert_eq!(declared, body.len(), "the patched length is the body's");
        let (id, decoded) = body::read_infer_response(body).unwrap();
        assert_eq!(id, 9);
        let bits = |m: &DenseMatrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&decoded), bits(&output));
    }
}
