//! The length-prefixed binary wire protocol, version 3.
//!
//! Framing follows the `igcn-store` conventions — magic, little-endian
//! version, little-endian payload length, a 64-bit payload checksum, a
//! trace id, then the payload:
//!
//! ```text
//! magic(4) | version(u32 LE) | payload_len(u64 LE) | checksum(u64 LE) | trace_id(u64 LE) | payload
//! payload = kind(u64 LE) | id(u64 LE) | body
//! ```
//!
//! The magic's first byte is `0x89` — not a valid leading byte of any
//! HTTP method — which is how the gateway sniffs the protocol from the
//! first byte of a fresh connection. See [`Frame`] for the per-kind
//! body layouts. All floats travel as raw little-endian IEEE-754 bits,
//! so the binary protocol is bit-exact by construction (NaN payloads
//! included).
//!
//! # The section rule
//!
//! Every scalar of a frame is a u64 (the one exception is the
//! [`Frame::Health`] state byte, which precedes no bulk data), so the
//! bulk arrays — an `Infer` frame's `row_ptr` / `col_idx` / `values`,
//! an `Ok` frame's `data` — each start at a multiple of 8 bytes from
//! the start of the frame (of 4 for an f32 array that follows a u32
//! array of odd length). Each is one [`igcn_store::sections`] section:
//! `count × width` raw little-endian bytes with the count taken from
//! the frame's own dimension fields, checked **once** against the
//! bytes that are left before anything is reserved, and converted in
//! one pass. [`encode_traced`] writes a frame once, into the buffer
//! that goes to the socket: header placeholder, scalars, one block copy
//! per section, then the payload length and checksum patched into the
//! header. [`decode`] reads it once out of the buffer the socket
//! filled.
//!
//! # Checksum
//!
//! The checksum is [`igcn_store::sections::checksum64`] — XXH64 with
//! seed 0, four independent multiply-rotate lanes over 32-byte stripes;
//! the definition and its test vectors (`""` → `0xEF46DB3751D8E999`,
//! `"abc"` → `0x44BC2CF5AD770999`, …) live on that module. It covers
//! the payload and nothing else, exactly what FNV-1a covered in
//! versions 1 and 2.
//!
//! # The trace id stays outside the checksum
//!
//! The trace id correlates a request across the gateway's telemetry
//! (flight recorder, slow-request log lines, trace trees) and is echoed
//! verbatim on every reply frame; `0` means "unassigned" and makes the
//! server mint one. It lives in the header — not the payload — so it is
//! readable even on a frame whose payload fails to parse, and it is
//! deliberately excluded from the checksum's coverage: a proxy may
//! stamp or restamp it without re-summing megabytes of payload, and a
//! damaged trace id costs a correlation, never a wrong answer.
//!
//! # Versions
//!
//! | version | header | checksum | payload |
//! |---|---|---|---|
//! | 1 | 24 bytes, no trace id | FNV-1a 64 | `kind(u8)`, per-element arrays |
//! | 2 | 32 bytes, `trace_id` | FNV-1a 64 | as 1 |
//! | **3** | as 2 | `checksum64` | `kind(u64)`, 8-byte-aligned sections |
//!
//! A gateway speaks exactly one version: frames of any other are
//! refused with a typed `unsupported wire version` [`Decoded::Corrupt`]
//! (there is no compatibility shim — upgrade clients with the server).

use igcn_graph::SparseFeatures;
use igcn_linalg::DenseMatrix;
use igcn_store::sections::{self, checksum64, put_u64, Reader};

/// Frame magic: `0x89` (never a printable HTTP byte) then `IGW`.
pub const WIRE_MAGIC: [u8; 4] = [0x89, b'I', b'G', b'W'];

/// Wire format version. Bumped on any layout change; the server
/// rejects frames with a different version rather than guessing (the
/// module docs table what each version changed).
pub const WIRE_VERSION: u32 = 3;

/// Fixed header size: magic + version + payload_len + checksum +
/// trace_id.
pub const HEADER_LEN: usize = 4 + 4 + 8 + 8 + 8;

/// Hard cap on a frame payload (defence against corrupt or hostile
/// length fields).
pub const MAX_PAYLOAD: u64 = 256 << 20;

const KIND_INFER: u64 = 1;
const KIND_OK: u64 = 2;
const KIND_ERR: u64 = 3;
const KIND_SHED: u64 = 4;
const KIND_DEADLINE: u64 = 5;
const KIND_HEALTH_CHECK: u64 = 6;
const KIND_HEALTH: u64 = 7;

/// The gateway's live health, as reported on `GET /healthz` and the
/// binary [`Frame::Health`] reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Serving normally: admit away.
    Ready,
    /// Still serving, but impaired (wedged backend, dead shards, or
    /// sustained shed pressure) — a load balancer should prefer other
    /// replicas.
    Degraded,
    /// Draining: in-flight requests finish, new work is refused.
    Draining,
}

impl HealthState {
    /// The wire byte for this state.
    pub fn as_u8(self) -> u8 {
        match self {
            HealthState::Ready => 0,
            HealthState::Degraded => 1,
            HealthState::Draining => 2,
        }
    }

    /// Parses a wire byte.
    ///
    /// # Errors
    ///
    /// A human-readable message for unknown bytes.
    pub fn from_u8(v: u8) -> Result<HealthState, String> {
        match v {
            0 => Ok(HealthState::Ready),
            1 => Ok(HealthState::Degraded),
            2 => Ok(HealthState::Draining),
            other => Err(format!("unknown health state byte {other}")),
        }
    }

    /// The lowercase label used in the `/healthz` JSON body.
    pub fn label(self) -> &'static str {
        match self {
            HealthState::Ready => "ready",
            HealthState::Degraded => "degraded",
            HealthState::Draining => "draining",
        }
    }
}

/// One decoded frame of the binary protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: run one inference.
    ///
    /// Body: `deadline_ms(u64, 0 = none) | rows(u64) | cols(u64) |
    /// nnz(u64) | row_ptr((rows+1)×u64) | col_idx(nnz×u32) |
    /// values(nnz×f32)`.
    Infer {
        /// Correlation id, echoed on the response frame.
        id: u64,
        /// Relative deadline budget in milliseconds (0 = no deadline).
        deadline_ms: u64,
        /// The request's sparse feature matrix.
        features: SparseFeatures,
    },
    /// Server → client: the inference output.
    ///
    /// Body: `rows(u64) | cols(u64) | data(rows·cols×f32)`.
    Ok {
        /// The request's correlation id.
        id: u64,
        /// Dense output, row-major.
        output: DenseMatrix,
    },
    /// Server → client: the request failed (backend or protocol error).
    ///
    /// Body: `len(u64) | utf8 message`.
    Err {
        /// The request's correlation id (0 when the failure predates a
        /// parsed id).
        id: u64,
        /// Human-readable failure description.
        message: String,
    },
    /// Server → client: load shed at admission — retry later.
    Shed {
        /// The request's correlation id.
        id: u64,
    },
    /// Server → client: the deadline expired before dispatch.
    Deadline {
        /// The request's correlation id.
        id: u64,
    },
    /// Client → server: report your health (the binary-protocol
    /// equivalent of `GET /healthz`). Body: empty.
    HealthCheck {
        /// Correlation id, echoed on the [`Frame::Health`] reply.
        id: u64,
    },
    /// Server → client: the gateway's live health.
    ///
    /// Body: `state(u8) | len(u64) | utf8 detail`.
    Health {
        /// The request's correlation id.
        id: u64,
        /// Ready / degraded / draining.
        state: HealthState,
        /// Human-readable explanation (why degraded, what is draining).
        detail: String,
    },
}

/// Outcome of [`decode`] on a byte buffer.
#[derive(Debug)]
pub enum Decoded {
    /// The buffer does not yet hold a complete frame.
    NeedMore,
    /// One complete frame: the frame, its header trace id (0 when the
    /// client sent none), and how many bytes it consumed.
    Frame(Frame, u64, usize),
    /// The stream is unrecoverable (bad magic/version/checksum/layout);
    /// the connection must be closed.
    Corrupt(String),
}

/// Encodes one frame with an unassigned (zero) trace id.
pub fn encode(frame: &Frame) -> Vec<u8> {
    encode_traced(frame, 0)
}

/// Encodes one frame, header included, stamping `trace_id` into the
/// header's trace field.
pub fn encode_traced(frame: &Frame, trace_id: u64) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(&mut out, frame, trace_id);
    out
}

/// Encodes an [`Frame::Infer`] straight from borrowed features — what a
/// client with a `&SparseFeatures` sends, with no `Frame` (and so no
/// clone of the matrix) built first.
pub fn encode_infer(
    id: u64,
    deadline_ms: u64,
    features: &SparseFeatures,
    trace_id: u64,
) -> Vec<u8> {
    let mut out = Vec::new();
    frame_into(&mut out, KIND_INFER, id, trace_id, |out| infer_body(out, deadline_ms, features));
    out
}

/// Appends one encoded frame to `out` (the gateway's replies are
/// written straight into the connection's output buffer).
pub(crate) fn encode_into(out: &mut Vec<u8>, frame: &Frame, trace_id: u64) {
    match frame {
        Frame::Infer { id, deadline_ms, features } => {
            frame_into(out, KIND_INFER, *id, trace_id, |out| {
                infer_body(out, *deadline_ms, features);
            });
        }
        Frame::Ok { id, output } => frame_into(out, KIND_OK, *id, trace_id, |out| {
            out.reserve(16 + output.as_slice().len() * 4);
            put_u64(out, output.rows() as u64);
            put_u64(out, output.cols() as u64);
            sections::put_f32s(out, output.as_slice());
        }),
        Frame::Err { id, message } => frame_into(out, KIND_ERR, *id, trace_id, |out| {
            put_u64(out, message.len() as u64);
            out.extend_from_slice(message.as_bytes());
        }),
        Frame::Shed { id } => frame_into(out, KIND_SHED, *id, trace_id, |_| {}),
        Frame::Deadline { id } => frame_into(out, KIND_DEADLINE, *id, trace_id, |_| {}),
        Frame::HealthCheck { id } => frame_into(out, KIND_HEALTH_CHECK, *id, trace_id, |_| {}),
        Frame::Health { id, state, detail } => {
            frame_into(out, KIND_HEALTH, *id, trace_id, |out| {
                out.push(state.as_u8());
                put_u64(out, detail.len() as u64);
                out.extend_from_slice(detail.as_bytes());
            });
        }
    }
}

/// Writes one frame at the end of `out`, once: the header with the
/// payload length and checksum left zero, `kind | id`, whatever `body`
/// appends, and then the two header fields patched over the finished
/// payload.
fn frame_into(
    out: &mut Vec<u8>,
    kind: u64,
    id: u64,
    trace_id: u64,
    body: impl FnOnce(&mut Vec<u8>),
) {
    let start = out.len();
    out.extend_from_slice(&WIRE_MAGIC);
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    out.extend_from_slice(&[0; 16]);
    put_u64(out, trace_id);
    put_u64(out, kind);
    put_u64(out, id);
    body(out);
    let (header, payload) = out[start..].split_at_mut(HEADER_LEN);
    header[8..16].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    header[16..24].copy_from_slice(&checksum64(payload).to_le_bytes());
}

/// The body of an `Infer` frame: four scalars, then one block copy per
/// CSR array into space reserved once.
fn infer_body(out: &mut Vec<u8>, deadline_ms: u64, features: &SparseFeatures) {
    out.reserve(32 + features.row_ptr().len() * 8 + features.nnz() * 8);
    put_u64(out, deadline_ms);
    put_u64(out, features.num_rows() as u64);
    put_u64(out, features.num_cols() as u64);
    put_u64(out, features.nnz() as u64);
    sections::put_u64s(out, features.row_ptr());
    sections::put_u32s(out, features.col_idx());
    sections::put_f32s(out, features.values());
}

struct Header {
    payload_len: usize,
    checksum: u64,
    trace_id: u64,
}

/// Parses the fixed header off the front of `buf`; `Ok(None)` until all
/// [`HEADER_LEN`] bytes are there.
fn header(buf: &[u8]) -> Result<Option<Header>, String> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    if buf[..4] != WIRE_MAGIC {
        return Err("bad frame magic".to_string());
    }
    let version = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
    if version != WIRE_VERSION {
        return Err(format!(
            "unsupported wire version {version} (this gateway speaks {WIRE_VERSION})"
        ));
    }
    let payload_len = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
    if payload_len > MAX_PAYLOAD {
        return Err(format!(
            "frame payload of {payload_len} bytes exceeds the {MAX_PAYLOAD}-byte cap"
        ));
    }
    Ok(Some(Header {
        payload_len: payload_len as usize,
        checksum: u64::from_le_bytes(buf[16..24].try_into().expect("8 bytes")),
        trace_id: u64::from_le_bytes(buf[24..32].try_into().expect("8 bytes")),
    }))
}

/// The total length (header included) of the frame at the front of
/// `buf`, once its header has arrived and is acceptable — what a
/// receiver's buffer may grow to in one step, once enough of the frame
/// has arrived to believe it. `None` while the header is incomplete or
/// if [`decode`] would refuse it.
pub fn frame_len(buf: &[u8]) -> Option<usize> {
    header(buf).ok().flatten().map(|h| HEADER_LEN + h.payload_len)
}

/// Tries to decode one frame from the front of `buf`.
pub fn decode(buf: &[u8]) -> Decoded {
    let header = match header(buf) {
        Ok(Some(header)) => header,
        Ok(None) => return Decoded::NeedMore,
        Err(msg) => return Decoded::Corrupt(msg),
    };
    let total = HEADER_LEN + header.payload_len;
    if buf.len() < total {
        return Decoded::NeedMore;
    }
    let payload = &buf[HEADER_LEN..total];
    if checksum64(payload) != header.checksum {
        return Decoded::Corrupt("frame checksum mismatch".to_string());
    }
    match decode_payload(payload) {
        Ok(frame) => Decoded::Frame(frame, header.trace_id, total),
        Err(msg) => Decoded::Corrupt(msg),
    }
}

fn decode_payload(payload: &[u8]) -> Result<Frame, String> {
    let mut r = Reader::new(payload, "frame", MAX_PAYLOAD);
    let kind = r.u64()?;
    let id = r.u64()?;
    let frame = match kind {
        KIND_INFER => {
            let deadline_ms = r.u64()?;
            // rows drives the (rows+1)×u64 row_ptr section, nnz the
            // nnz×u32 + nnz×f32 sections: both bounded by what the
            // payload actually holds before any reserve.
            let rows = r.count_field("rows", 8)?;
            let cols = r.dim_field("cols")?;
            let nnz = r.count_field("nnz", 8)?;
            let row_ptr = r.u64s(rows + 1)?;
            let col_idx = r.u32s(nnz)?;
            let values = r.f32s(nnz)?;
            let features = SparseFeatures::from_raw_parts(rows, cols, row_ptr, col_idx, values)
                .map_err(|e| format!("invalid sparse features: {e}"))?;
            Frame::Infer { id, deadline_ms, features }
        }
        KIND_OK => {
            let rows = r.dim_field("rows")?;
            let cols = r.dim_field("cols")?;
            let n =
                rows.checked_mul(cols).ok_or_else(|| "output rows×cols overflows".to_string())?;
            if n > r.remaining() / 4 {
                return Err(format!(
                    "output of {rows}×{cols} f32s cannot fit the frame's remaining {} payload bytes",
                    r.remaining()
                ));
            }
            let data = r.f32s(n)?;
            Frame::Ok { id, output: DenseMatrix::from_vec(rows, cols, data) }
        }
        KIND_ERR => Frame::Err { id, message: r.string("message length", "error message")? },
        KIND_SHED => Frame::Shed { id },
        KIND_DEADLINE => Frame::Deadline { id },
        KIND_HEALTH_CHECK => Frame::HealthCheck { id },
        KIND_HEALTH => {
            let state = HealthState::from_u8(r.u8()?)?;
            Frame::Health { id, state, detail: r.string("detail length", "health detail")? }
        }
        other => return Err(format!("unknown frame kind {other}")),
    };
    if r.remaining() != 0 {
        return Err(format!(
            "frame payload has {} trailing bytes after kind {kind}",
            r.remaining()
        ));
    }
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features() -> SparseFeatures {
        SparseFeatures::from_raw_parts(
            3,
            4,
            vec![0, 2, 2, 3],
            vec![0, 3, 1],
            vec![1.5, -0.25, f32::MIN_POSITIVE],
        )
        .unwrap()
    }

    #[test]
    fn all_frame_kinds_round_trip() {
        let frames = [
            Frame::Infer { id: u64::MAX, deadline_ms: 250, features: features() },
            Frame::Ok {
                id: 7,
                output: DenseMatrix::from_vec(2, 2, vec![0.1, -0.0, f32::NAN, 3.25]),
            },
            Frame::Err { id: 9, message: "backend error: späße".to_string() },
            Frame::Shed { id: 1 },
            Frame::Deadline { id: 2 },
            Frame::HealthCheck { id: 4 },
            Frame::Health {
                id: 4,
                state: HealthState::Degraded,
                detail: "2/3 shards down".to_string(),
            },
        ];
        for frame in &frames {
            let bytes = encode(frame);
            match decode(&bytes) {
                Decoded::Frame(decoded, trace, consumed) => {
                    assert_eq!(consumed, bytes.len());
                    assert_eq!(trace, 0, "plain encode stamps an unassigned trace id");
                    // NaN != NaN under PartialEq; compare bits instead.
                    match (&decoded, frame) {
                        (Frame::Ok { output: a, .. }, Frame::Ok { output: b, .. }) => {
                            let bits = |m: &DenseMatrix| {
                                m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                            };
                            assert_eq!(bits(a), bits(b));
                        }
                        _ => assert_eq!(&decoded, frame),
                    }
                }
                other => panic!("expected a frame, got {other:?}"),
            }
        }
    }

    #[test]
    fn trace_id_rides_the_header_round_trip() {
        let frame = Frame::Infer { id: 11, deadline_ms: 0, features: features() };
        let bytes = encode_traced(&frame, 0xDEAD_BEEF_CAFE_F00D);
        match decode(&bytes) {
            Decoded::Frame(decoded, trace, consumed) => {
                assert_eq!(consumed, bytes.len());
                assert_eq!(trace, 0xDEAD_BEEF_CAFE_F00D);
                assert_eq!(decoded, frame);
            }
            other => panic!("expected a frame, got {other:?}"),
        }
        // The trace id is outside the checksum's coverage: restamping
        // it must not invalidate the frame.
        let mut restamped = bytes;
        restamped[24..32].copy_from_slice(&7u64.to_le_bytes());
        assert!(matches!(decode(&restamped), Decoded::Frame(_, 7, _)));
    }

    #[test]
    fn version_1_and_2_frames_are_cleanly_rejected() {
        // FNV-1a 64, the retired frames' checksum.
        let fnv1a64 = |bytes: &[u8]| {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &b| {
                (hash ^ b as u64).wrapping_mul(0x100_0000_01b3)
            })
        };
        // Byte-faithful frames of the two retired versions: a `kind(u8)`
        // payload under FNV-1a, behind v1's 24-byte header (no trace
        // field) and v2's 32-byte one. The decoder must refuse both by
        // version — not misparse v1's first payload bytes as a trace id,
        // not fail v2 on its (differently computed) checksum.
        let mut payload = vec![KIND_SHED as u8];
        payload.extend_from_slice(&3u64.to_le_bytes());
        for version in [1u32, 2] {
            let mut old = Vec::new();
            old.extend_from_slice(&WIRE_MAGIC);
            old.extend_from_slice(&version.to_le_bytes());
            old.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            old.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
            if version == 2 {
                old.extend_from_slice(&7u64.to_le_bytes()); // trace id
            }
            old.extend_from_slice(&payload);
            // Padded so even the shorter v1 frame fills a v3 header.
            old.resize(HEADER_LEN.max(old.len()), 0);
            let expected = format!("unsupported wire version {version}");
            assert!(
                matches!(decode(&old), Decoded::Corrupt(msg) if msg.contains(&expected)),
                "a v{version} frame must be rejected by version, not misparsed"
            );
            assert_eq!(frame_len(&old), None, "no reservation for a frame decode refuses");
        }
    }

    #[test]
    fn partial_buffers_ask_for_more() {
        let bytes = encode(&Frame::Shed { id: 3 });
        for cut in 0..bytes.len() {
            assert!(matches!(decode(&bytes[..cut]), Decoded::NeedMore), "cut at {cut}");
        }
    }

    #[test]
    fn corruption_is_detected() {
        let mut bad_magic = encode(&Frame::Shed { id: 3 });
        bad_magic[0] = b'G'; // looks like the start of "GET ..."
        assert!(matches!(decode(&bad_magic), Decoded::Corrupt(_)));

        let mut bad_version = encode(&Frame::Shed { id: 3 });
        bad_version[4] = 0xFF;
        assert!(matches!(decode(&bad_version), Decoded::Corrupt(_)));

        let mut bad_payload = encode(&Frame::Err { id: 3, message: "x".to_string() });
        let last = bad_payload.len() - 1;
        bad_payload[last] ^= 0x01;
        assert!(
            matches!(decode(&bad_payload), Decoded::Corrupt(msg) if msg.contains("checksum")),
            "flipped payload bit must fail the checksum"
        );
    }

    /// Wraps a raw payload in a valid header (correct checksum), the
    /// way a hostile client would.
    fn raw_frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&WIRE_MAGIC);
        out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&checksum64(payload).to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes()); // trace id
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn hostile_length_fields_are_rejected_before_allocation() {
        let mut huge = encode(&Frame::Shed { id: 3 });
        huge[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(decode(&huge), Decoded::Corrupt(msg) if msg.contains("cap")));
    }

    #[test]
    fn hostile_count_fields_are_rejected_before_allocation() {
        // A tiny valid-checksum Ok frame claiming a 2^28×2^28 output:
        // each dimension passes the MAX_PAYLOAD scalar cap, but the
        // product must be refused against the (empty) remaining payload
        // before any Vec is reserved.
        let mut ok = KIND_OK.to_le_bytes().to_vec();
        ok.extend_from_slice(&1u64.to_le_bytes()); // id
        ok.extend_from_slice(&(1u64 << 28).to_le_bytes()); // rows
        ok.extend_from_slice(&(1u64 << 28).to_le_bytes()); // cols
        assert!(
            matches!(decode(&raw_frame(&ok)), Decoded::Corrupt(msg) if msg.contains("cannot fit")),
            "hostile Ok dimensions must be refused"
        );

        // An Infer frame claiming huge rows / nnz with no data behind
        // them: the counts must be bounded by the remaining bytes.
        for (rows, nnz) in [(1u64 << 28, 0u64), (0, 1 << 28)] {
            let mut infer = KIND_INFER.to_le_bytes().to_vec();
            infer.extend_from_slice(&1u64.to_le_bytes()); // id
            infer.extend_from_slice(&0u64.to_le_bytes()); // deadline
            infer.extend_from_slice(&rows.to_le_bytes());
            infer.extend_from_slice(&4u64.to_le_bytes()); // cols
            infer.extend_from_slice(&nnz.to_le_bytes());
            assert!(
                matches!(decode(&raw_frame(&infer)), Decoded::Corrupt(msg) if msg.contains("cannot fit")),
                "hostile Infer counts (rows {rows}, nnz {nnz}) must be refused"
            );
        }

        // An Err frame whose message length overruns the payload.
        let mut err = KIND_ERR.to_le_bytes().to_vec();
        err.extend_from_slice(&1u64.to_le_bytes()); // id
        err.extend_from_slice(&(1u64 << 20).to_le_bytes()); // message len
        err.push(b'x');
        assert!(matches!(
            decode(&raw_frame(&err)),
            Decoded::Corrupt(msg) if msg.contains("cannot fit")
        ));
    }

    #[test]
    fn trailing_payload_bytes_are_an_error() {
        let mut payload = KIND_SHED.to_le_bytes().to_vec();
        payload.extend_from_slice(&3u64.to_le_bytes());
        payload.push(0xAB); // stray byte
        assert!(matches!(
            decode(&raw_frame(&payload)),
            Decoded::Corrupt(msg) if msg.contains("trailing")
        ));
    }

    #[test]
    fn borrowing_encoder_and_appending_encoder_write_the_same_bytes() {
        let frame = Frame::Infer { id: 11, deadline_ms: 40, features: features() };
        let bytes = encode_traced(&frame, 0xABCD);
        assert_eq!(encode_infer(11, 40, &features(), 0xABCD), bytes);
        assert_eq!(frame_len(&bytes), Some(bytes.len()));
        assert_eq!(frame_len(&bytes[..HEADER_LEN - 1]), None, "header incomplete");
        // `encode_into` appends after whatever the buffer already holds
        // and sums only its own payload.
        let mut out = encode(&Frame::Shed { id: 1 });
        let first = out.len();
        encode_into(&mut out, &frame, 0xABCD);
        assert_eq!(&out[first..], &bytes[..]);
        assert!(matches!(decode(&out), Decoded::Frame(Frame::Shed { id: 1 }, 0, n) if n == first));
    }

    #[test]
    fn bulk_sections_start_on_eight_byte_boundaries() {
        // 3 rows, 3 non-zeros: header(32) kind id deadline rows cols nnz
        // (6×8) puts row_ptr at 80, col_idx at 80+4×8, values 3×4 later.
        let bytes = encode(&Frame::Infer { id: 1, deadline_ms: 0, features: features() });
        let row_ptr_at = HEADER_LEN + 6 * 8;
        assert_eq!(row_ptr_at % 8, 0);
        assert_eq!(&bytes[row_ptr_at + 8..row_ptr_at + 16], &2u64.to_le_bytes(), "row_ptr[1]");
        let col_idx_at = row_ptr_at + 4 * 8;
        assert_eq!(&bytes[col_idx_at + 4..col_idx_at + 8], &3u32.to_le_bytes(), "col_idx[1]");
        let values_at = col_idx_at + 3 * 4;
        assert_eq!(&bytes[values_at..values_at + 4], &1.5f32.to_le_bytes(), "values[0]");
        assert_eq!(bytes.len(), values_at + 3 * 4);
        // An Ok frame's data follows kind id rows cols.
        let ok = encode(&Frame::Ok { id: 1, output: DenseMatrix::from_vec(1, 1, vec![2.5]) });
        assert_eq!(&ok[HEADER_LEN + 4 * 8..], &2.5f32.to_le_bytes());
    }

    /// `decode` must not hand back a frame for `bytes` damaged at bit
    /// `bit` — except in the trace field, which is outside the
    /// checksum by design and must then be the only thing that changed.
    fn assert_flip_detected(bytes: &[u8], bit: usize, original: &Frame) {
        let mut flipped = bytes.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        match decode(&flipped) {
            Decoded::Frame(frame, _, _) => {
                assert!(
                    (24 * 8..32 * 8).contains(&bit),
                    "flip of bit {bit} went undetected: decoded {frame:?}"
                );
                assert_eq!(&frame, original, "a trace-id flip must not touch the payload");
            }
            Decoded::NeedMore | Decoded::Corrupt(_) => {}
        }
    }

    #[test]
    fn every_single_bit_flip_of_a_small_frame_is_detected() {
        let frame = Frame::Infer { id: 5, deadline_ms: 9, features: features() };
        let bytes = encode_traced(&frame, 0x1111);
        for bit in 0..bytes.len() * 8 {
            assert_flip_detected(&bytes, bit, &frame);
        }
    }

    #[test]
    fn sampled_bit_flips_of_a_pubmed_sized_frame_are_detected() {
        // The benchmark's pubmed request: 19 717 rows, ~986 k non-zeros
        // (an 8 MB frame).
        let features = SparseFeatures::random(19_717, 500, 0.1, 3);
        assert!(features.nnz() > 900_000);
        let frame = Frame::Infer { id: 1, deadline_ms: 0, features };
        let bytes = encode(&frame);
        assert!(
            matches!(decode(&bytes), Decoded::Frame(ref f, 0, n) if *f == frame && n == bytes.len())
        );
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..24 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let bit = (state >> 20) as usize % (bytes.len() * 8);
            assert_flip_detected(&bytes, bit, &frame);
        }
        // The last byte and the first payload byte, explicitly.
        assert_flip_detected(&bytes, bytes.len() * 8 - 1, &frame);
        assert_flip_detected(&bytes, HEADER_LEN * 8, &frame);
    }

    #[test]
    fn kinds_beyond_a_byte_are_unknown_not_truncated() {
        // `kind` is a u64 on the wire: its upper bytes are part of the
        // value, so 0x0100_0004 is not "Shed with padding".
        let mut payload = (KIND_SHED | 1 << 24).to_le_bytes().to_vec();
        payload.extend_from_slice(&3u64.to_le_bytes());
        assert!(matches!(
            decode(&raw_frame(&payload)),
            Decoded::Corrupt(msg) if msg.contains("unknown frame kind")
        ));
    }

    #[test]
    fn short_sections_are_refused_with_a_typed_error() {
        // rows = 1 passes the count rule (the payload holds 8 more
        // bytes) but its row_ptr section needs two u64s.
        let mut infer = KIND_INFER.to_le_bytes().to_vec();
        infer.extend_from_slice(&1u64.to_le_bytes()); // id
        infer.extend_from_slice(&0u64.to_le_bytes()); // deadline
        infer.extend_from_slice(&1u64.to_le_bytes()); // rows
        infer.extend_from_slice(&4u64.to_le_bytes()); // cols
        infer.extend_from_slice(&0u64.to_le_bytes()); // nnz
        infer.extend_from_slice(&0u64.to_le_bytes()); // row_ptr[0] only
        assert!(matches!(
            decode(&raw_frame(&infer)),
            Decoded::Corrupt(msg) if msg.contains("truncated")
        ));
    }
}
