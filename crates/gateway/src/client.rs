//! Blocking clients for both gateway wire protocols.
//!
//! [`HttpClient`] speaks the JSON-over-HTTP/1.1 protocol and
//! [`BinaryClient`] the length-prefixed binary protocol; both keep one
//! connection alive across requests and run one request at a time
//! (send, then block for the reply). They exist so the integration
//! tests, the load generator and `examples/gateway_client.rs` all
//! exercise the exact bytes a real client would send.

use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use igcn_graph::SparseFeatures;
use igcn_linalg::DenseMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::json::JsonValue;

use crate::buf::RecvBuf;
use crate::wire::{self, Frame, HealthState};
use crate::{body, http};

/// Bounded retry with exponential backoff and **seeded** jitter, for
/// the two transient client-visible failures: connect refused (the
/// gateway is restarting) and shed (HTTP 429 / binary `Shed` — the
/// gateway is momentarily over capacity and explicitly said "retry
/// later"). Nothing else is retried: a malformed response means the
/// peer is not a healthy gateway, and resending is how retry storms
/// corrupt incidents.
///
/// Attempt `k` (0-based) sleeps a uniformly jittered duration in
/// `[base·2ᵏ/2, base·2ᵏ]`, capped at [`RetryPolicy::max_delay`]. The
/// jitter is drawn from a generator seeded with `seed + k`, so a given
/// policy produces one fixed, reproducible delay schedule — chaos
/// campaigns and tests can assert on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (total attempts = `max_retries + 1`).
    pub max_retries: u32,
    /// Backoff base: the first retry waits at most this long.
    pub base_delay: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_delay: Duration,
    /// Jitter seed; equal seeds give equal delay schedules.
    pub seed: u64,
}

impl Default for RetryPolicy {
    /// Three retries, 10 ms base, 500 ms cap, seed 0.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// Sets the retry budget.
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Sets the backoff base delay.
    pub fn with_base_delay(mut self, base: Duration) -> Self {
        self.base_delay = base;
        self
    }

    /// Sets the backoff cap.
    pub fn with_max_delay(mut self, cap: Duration) -> Self {
        self.max_delay = cap;
        self
    }

    /// Sets the jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The backoff sleep before retry `attempt` (0-based): exponential
    /// with seeded jitter in `[half, full]`, capped at `max_delay`.
    /// Deterministic — calling this twice gives the same duration.
    pub fn backoff_delay(&self, attempt: u32) -> Duration {
        let exp =
            self.base_delay.saturating_mul(1u32 << attempt.min(20)).min(self.max_delay).as_nanos()
                as u64;
        if exp == 0 {
            return Duration::ZERO;
        }
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(u64::from(attempt)));
        Duration::from_nanos(rng.gen_range(exp / 2..=exp))
    }

    /// Whether a connect error is worth retrying (the gateway may be
    /// mid-restart) rather than a permanent condition.
    fn transient_connect(e: &io::Error) -> bool {
        matches!(
            e.kind(),
            io::ErrorKind::ConnectionRefused
                | io::ErrorKind::ConnectionReset
                | io::ErrorKind::ConnectionAborted
                | io::ErrorKind::TimedOut
        )
    }
}

/// The gateway's answer to one inference request, protocol-agnostic.
#[derive(Debug, Clone, PartialEq)]
pub enum InferReply {
    /// Success: the echoed correlation id and the output matrix.
    Output {
        /// The request's correlation id.
        id: u64,
        /// Dense output, row-major — bit-identical to a direct
        /// `Accelerator::infer` on the served backend.
        output: DenseMatrix,
    },
    /// Load shed at admission (HTTP 429 / binary `Shed`): retry later.
    Shed,
    /// The deadline expired before dispatch (HTTP 504 / binary
    /// `Deadline`).
    DeadlineExceeded,
    /// The request failed (HTTP 4xx/5xx / binary `Err`).
    Error(String),
}

fn proto_err(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// A blocking keep-alive client for the HTTP/1.1 protocol.
pub struct HttpClient {
    stream: TcpStream,
    buf: RecvBuf,
}

/// One received response, its body still in the client's buffer.
struct Response {
    status: u16,
    /// The echoed `X-IGCN-Trace` id (0 when absent).
    trace: u64,
    /// Where the body lies in the buffer; `body.end` is the whole
    /// response's length.
    body: std::ops::Range<usize>,
}

impl HttpClient {
    /// Connects to a gateway.
    ///
    /// # Errors
    ///
    /// Propagates the connect error.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(HttpClient { stream, buf: RecvBuf::default() })
    }

    /// Connects with bounded, seeded-backoff retries on transient
    /// connect failures (refused/reset/aborted/timed out — the gateway
    /// may be mid-restart). Permanent errors are returned immediately.
    ///
    /// # Errors
    ///
    /// The last connect error once the retry budget is exhausted.
    pub fn connect_with_retry<A: ToSocketAddrs>(
        addr: A,
        policy: &RetryPolicy,
    ) -> io::Result<HttpClient> {
        retry_connect(policy, || TcpStream::connect(&addr)).map(|stream| {
            stream.set_nodelay(true).ok();
            HttpClient { stream, buf: RecvBuf::default() }
        })
    }

    /// Runs one inference: `POST /v1/infer` and block for the reply.
    ///
    /// # Errors
    ///
    /// Transport failures and malformed responses; application-level
    /// failures (shed, deadline, backend error) come back as
    /// [`InferReply`] variants instead.
    pub fn infer(
        &mut self,
        id: u64,
        deadline_ms: Option<u64>,
        features: &SparseFeatures,
    ) -> io::Result<InferReply> {
        self.infer_traced(id, deadline_ms, features, 0).map(|(reply, _)| reply)
    }

    /// As [`HttpClient::infer`], sending `trace` as the `X-IGCN-Trace`
    /// request header (0 = let the gateway mint one) and returning the
    /// trace id echoed on the response alongside the reply.
    ///
    /// # Errors
    ///
    /// As [`HttpClient::infer`].
    pub fn infer_traced(
        &mut self,
        id: u64,
        deadline_ms: Option<u64>,
        features: &SparseFeatures,
        trace: u64,
    ) -> io::Result<(InferReply, u64)> {
        self.stream.write_all(&http::infer_request_bytes(id, deadline_ms, features, trace))?;
        let response = self.read_response()?;
        // The output matrix is parsed straight out of the receive
        // buffer; only then is the response dropped from it.
        let body = &self.buf.data()[response.body.clone()];
        let reply = match response.status {
            200 => body::read_infer_response(body)
                .map(|(id, output)| InferReply::Output { id, output })
                .map_err(proto_err),
            429 => Ok(InferReply::Shed),
            504 => Ok(InferReply::DeadlineExceeded),
            status => {
                body_text(body).map(|text| InferReply::Error(format!("HTTP {status}: {text}")))
            }
        };
        self.buf.consume(response.body.end);
        Ok((reply?, response.trace))
    }

    /// Runs one inference, retrying **only** shed replies (HTTP 429)
    /// under `policy` — the gateway explicitly said "retry later".
    /// Transport errors and malformed responses are returned
    /// immediately (never retried), as are all other reply kinds. If
    /// every attempt is shed, the final [`InferReply::Shed`] is
    /// returned.
    ///
    /// # Errors
    ///
    /// As [`HttpClient::infer`].
    pub fn infer_with_retry(
        &mut self,
        id: u64,
        deadline_ms: Option<u64>,
        features: &SparseFeatures,
        policy: &RetryPolicy,
    ) -> io::Result<InferReply> {
        for attempt in 0..policy.max_retries {
            match self.infer(id, deadline_ms, features)? {
                InferReply::Shed => std::thread::sleep(policy.backoff_delay(attempt)),
                reply => return Ok(reply),
            }
        }
        self.infer(id, deadline_ms, features)
    }

    /// Queries `/healthz` and parses the health model reply.
    ///
    /// # Errors
    ///
    /// Transport failures and malformed responses.
    pub fn health(&mut self) -> io::Result<(HealthState, String)> {
        let (_status, body) = self.get("/healthz")?;
        let doc = JsonValue::parse(&body).map_err(|e| proto_err(e.to_string()))?;
        let label = doc
            .get("status")
            .and_then(|v| v.as_str())
            .ok_or_else(|| proto_err("healthz body missing \"status\""))?;
        let state = match label {
            "ready" => HealthState::Ready,
            "degraded" => HealthState::Degraded,
            "draining" => HealthState::Draining,
            other => return Err(proto_err(format!("unknown health status {other:?}"))),
        };
        let detail = doc.get("detail").and_then(|v| v.as_str()).unwrap_or_default().to_string();
        Ok((state, detail))
    }

    /// Issues a `GET` (for `/healthz` and `/stats`) and returns
    /// `(status, body)`.
    ///
    /// # Errors
    ///
    /// Transport failures and malformed responses.
    pub fn get(&mut self, path: &str) -> io::Result<(u16, String)> {
        self.get_traced(path, 0).map(|(status, body, _)| (status, body))
    }

    /// As [`HttpClient::get`], sending `trace` as the `X-IGCN-Trace`
    /// header and returning the echoed trace id with the reply.
    ///
    /// # Errors
    ///
    /// Transport failures and malformed responses.
    pub fn get_traced(&mut self, path: &str, trace: u64) -> io::Result<(u16, String, u64)> {
        let trace_line =
            if trace != 0 { format!("X-IGCN-Trace: {trace:016x}\r\n") } else { String::new() };
        self.stream.write_all(format!("GET {path} HTTP/1.1\r\n{trace_line}\r\n").as_bytes())?;
        let response = self.read_response()?;
        let body = body_text(&self.buf.data()[response.body.clone()]);
        self.buf.consume(response.body.end);
        Ok((response.status, body?, response.trace))
    }

    /// Reads one complete response into `self.buf` — in place, with the
    /// body's room declared from its `Content-Length` — and leaves
    /// it there for the caller to parse and then consume.
    fn read_response(&mut self) -> io::Result<Response> {
        let head_end = loop {
            if let Some(at) = self.buf.data().windows(4).position(|w| w == b"\r\n\r\n") {
                break at;
            }
            if self.buf.len() > http::MAX_HEAD {
                return Err(proto_err(format!("response head exceeds {} bytes", http::MAX_HEAD)));
            }
            if self.buf.read_from(&self.stream, usize::MAX)? == 0 {
                return Err(proto_err("connection closed before a full response head"));
            }
        };
        let head = std::str::from_utf8(&self.buf.data()[..head_end])
            .map_err(|_| proto_err("response head is not UTF-8"))?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| proto_err(format!("bad status line in {head:?}")))?;
        let header = |name: &str| {
            head.split("\r\n")
                .filter_map(|l| l.split_once(':'))
                .find(|(k, _)| k.eq_ignore_ascii_case(name))
                .map(|(_, v)| v.trim())
        };
        // An unreadable length is an error, not an empty body: the
        // bytes left behind would be read as the next response.
        let content_length = match header("content-length") {
            None => 0,
            Some(v) => http::parse_content_length(v)
                .ok_or_else(|| proto_err(format!("bad Content-Length {v:?}")))?,
        };
        let trace =
            header("x-igcn-trace").and_then(|v| u64::from_str_radix(v, 16).ok()).unwrap_or(0);
        // The peer's word is not a licence to allocate: the same cap
        // the server puts on request bodies.
        if content_length > http::MAX_BODY {
            return Err(proto_err(format!(
                "response body of {content_length} bytes exceeds {}",
                http::MAX_BODY
            )));
        }
        let body = head_end + 4..head_end + 4 + content_length;
        self.buf.declare(body.end);
        while self.buf.len() < body.end {
            if self.buf.read_from(&self.stream, usize::MAX)? == 0 {
                return Err(proto_err("connection closed mid-body"));
            }
        }
        Ok(Response { status, trace, body })
    }
}

/// A (small) response body as text.
fn body_text(body: &[u8]) -> io::Result<String> {
    String::from_utf8(body.to_vec()).map_err(|_| proto_err("response body is not UTF-8"))
}

/// A blocking keep-alive client for the binary protocol.
pub struct BinaryClient {
    stream: TcpStream,
    buf: RecvBuf,
}

impl BinaryClient {
    /// Connects to a gateway.
    ///
    /// # Errors
    ///
    /// Propagates the connect error.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<BinaryClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(BinaryClient { stream, buf: RecvBuf::default() })
    }

    /// Connects with bounded, seeded-backoff retries on transient
    /// connect failures (see [`HttpClient::connect_with_retry`]).
    ///
    /// # Errors
    ///
    /// The last connect error once the retry budget is exhausted.
    pub fn connect_with_retry<A: ToSocketAddrs>(
        addr: A,
        policy: &RetryPolicy,
    ) -> io::Result<BinaryClient> {
        retry_connect(policy, || TcpStream::connect(&addr)).map(|stream| {
            stream.set_nodelay(true).ok();
            BinaryClient { stream, buf: RecvBuf::default() }
        })
    }

    /// Runs one inference: send an `Infer` frame, block for the reply
    /// frame.
    ///
    /// # Errors
    ///
    /// Transport failures and corrupt frames; application-level
    /// failures come back as [`InferReply`] variants.
    pub fn infer(
        &mut self,
        id: u64,
        deadline_ms: Option<u64>,
        features: &SparseFeatures,
    ) -> io::Result<InferReply> {
        self.infer_traced(id, deadline_ms, features, 0).map(|(reply, _)| reply)
    }

    /// As [`BinaryClient::infer`], stamping `trace` into the request
    /// frame's header trace field (0 = let the gateway mint one) and
    /// returning the trace id echoed on the reply frame.
    ///
    /// # Errors
    ///
    /// As [`BinaryClient::infer`].
    pub fn infer_traced(
        &mut self,
        id: u64,
        deadline_ms: Option<u64>,
        features: &SparseFeatures,
        trace: u64,
    ) -> io::Result<(InferReply, u64)> {
        self.stream.write_all(&wire::encode_infer(
            id,
            deadline_ms.unwrap_or(0),
            features,
            trace,
        ))?;
        let (frame, echoed) = self.read_frame_traced()?;
        let reply = match frame {
            Frame::Ok { id, output } => InferReply::Output { id, output },
            Frame::Err { message, .. } => InferReply::Error(message),
            Frame::Shed { .. } => InferReply::Shed,
            Frame::Deadline { .. } => InferReply::DeadlineExceeded,
            other @ (Frame::Infer { .. } | Frame::HealthCheck { .. } | Frame::Health { .. }) => {
                return Err(proto_err(format!("unexpected reply frame {other:?}")))
            }
        };
        Ok((reply, echoed))
    }

    /// Runs one inference, retrying **only** `Shed` frames under
    /// `policy`. Transport errors and corrupt frames are returned
    /// immediately — never retried. If every attempt is shed, the
    /// final [`InferReply::Shed`] is returned.
    ///
    /// # Errors
    ///
    /// As [`BinaryClient::infer`].
    pub fn infer_with_retry(
        &mut self,
        id: u64,
        deadline_ms: Option<u64>,
        features: &SparseFeatures,
        policy: &RetryPolicy,
    ) -> io::Result<InferReply> {
        for attempt in 0..policy.max_retries {
            match self.infer(id, deadline_ms, features)? {
                InferReply::Shed => std::thread::sleep(policy.backoff_delay(attempt)),
                reply => return Ok(reply),
            }
        }
        self.infer(id, deadline_ms, features)
    }

    /// Sends a `HealthCheck` frame and blocks for the `Health` reply.
    ///
    /// # Errors
    ///
    /// Transport failures, corrupt frames, and unexpected frame kinds.
    pub fn health(&mut self) -> io::Result<(HealthState, String)> {
        self.stream.write_all(&wire::encode(&Frame::HealthCheck { id: 0 }))?;
        match self.read_frame_traced()?.0 {
            Frame::Health { state, detail, .. } => Ok((state, detail)),
            other => Err(proto_err(format!("expected a Health frame, got {other:?}"))),
        }
    }

    fn read_frame_traced(&mut self) -> io::Result<(Frame, u64)> {
        loop {
            match wire::decode(self.buf.data()) {
                wire::Decoded::Frame(frame, trace, consumed) => {
                    self.buf.consume(consumed);
                    return Ok((frame, trace));
                }
                wire::Decoded::Corrupt(msg) => return Err(proto_err(msg)),
                wire::Decoded::NeedMore => {
                    // Read in place; once the header says how long the
                    // frame is (at most `wire::MAX_PAYLOAD`), the buffer
                    // knows how far it may grow in one step.
                    if let Some(total) = wire::frame_len(self.buf.data()) {
                        self.buf.declare(total);
                    }
                    if self.buf.read_from(&self.stream, usize::MAX)? == 0 {
                        return Err(proto_err("connection closed mid-frame"));
                    }
                }
            }
        }
    }
}

/// Shared connect-retry loop: transient errors consume retry budget
/// with backoff, anything else returns immediately.
fn retry_connect(
    policy: &RetryPolicy,
    mut connect: impl FnMut() -> io::Result<TcpStream>,
) -> io::Result<TcpStream> {
    for attempt in 0..policy.max_retries {
        match connect() {
            Ok(stream) => return Ok(stream),
            Err(e) if RetryPolicy::transient_connect(&e) => {
                std::thread::sleep(policy.backoff_delay(attempt));
            }
            Err(e) => return Err(e),
        }
    }
    connect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn backoff_schedule_is_seeded_deterministic_and_capped() {
        let policy = RetryPolicy::default()
            .with_base_delay(Duration::from_millis(8))
            .with_max_delay(Duration::from_millis(100))
            .with_seed(42);
        let schedule: Vec<Duration> = (0..8).map(|k| policy.backoff_delay(k)).collect();
        // Same seed → the exact same schedule, call after call.
        let again: Vec<Duration> = (0..8).map(|k| policy.backoff_delay(k)).collect();
        assert_eq!(schedule, again);
        // A different seed jitters differently somewhere.
        let other = policy.with_seed(43);
        assert!((0..8).any(|k| other.backoff_delay(k) != schedule[k as usize]));
        for (k, &d) in schedule.iter().enumerate() {
            // Jitter stays within [half, full] of the capped exponential.
            let exp =
                Duration::from_millis(8).saturating_mul(1 << k).min(Duration::from_millis(100));
            assert!(
                d >= exp / 2 && d <= exp,
                "attempt {k}: {d:?} outside [{:?}, {exp:?}]",
                exp / 2
            );
        }
        // Exponential growth with [half, full] jitter never decreases:
        // the cap freezes it at [50, 100] ms.
        for w in schedule.windows(2) {
            assert!(w[1] >= w[0] / 2, "schedule collapsed: {schedule:?}");
        }
    }

    #[test]
    fn connect_refused_is_retried_a_bounded_number_of_times() {
        // Grab a port the kernel just freed: connecting to it is
        // refused (nothing listens), which is the transient class.
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let attempts = Arc::new(AtomicUsize::new(0));
        let policy = RetryPolicy::default()
            .with_max_retries(2)
            .with_base_delay(Duration::from_millis(1))
            .with_max_delay(Duration::from_millis(2));
        let counted = Arc::clone(&attempts);
        let result = retry_connect(&policy, move || {
            counted.fetch_add(1, Ordering::SeqCst);
            TcpStream::connect(addr)
        });
        assert!(result.is_err(), "nothing listens on {addr}");
        assert_eq!(
            attempts.load(Ordering::SeqCst),
            3,
            "max_retries=2 must mean exactly 3 attempts"
        );

        // The public entry points go through the same loop.
        assert!(HttpClient::connect_with_retry(addr, &policy).is_err());
        assert!(BinaryClient::connect_with_retry(addr, &policy).is_err());
    }

    #[test]
    fn permanent_connect_errors_are_not_retried() {
        let attempts = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&attempts);
        let policy = RetryPolicy::default().with_base_delay(Duration::from_millis(1));
        let result = retry_connect(&policy, move || {
            counted.fetch_add(1, Ordering::SeqCst);
            Err(io::Error::new(io::ErrorKind::PermissionDenied, "no"))
        });
        assert!(result.is_err());
        assert_eq!(attempts.load(Ordering::SeqCst), 1, "permission denied must not be retried");
    }
}
