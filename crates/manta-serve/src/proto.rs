//! The `manta-serve` wire protocol.
//!
//! Frames are a 4-byte little-endian payload length followed by the
//! payload, encoded with the `manta-store` byte codec. Every payload
//! starts with the protocol version ([`PROTO_VERSION`]) and a one-byte
//! message tag; decoders reject unknown versions and tags with a
//! positioned [`DecodeError`] and must never panic — the bytes come
//! from the network, and the network lies exactly like disk does.
//!
//! ```text
//! frame    := len:u32le payload[len]
//! payload  := version:u32 tag:u8 fields...
//! ```
//!
//! Requests: `Ping`, `Analyze { module_text, sensitivity, fuel?,
//! deadline_ms? }`, `Stats`, `Shutdown`. Responses: `Pong`, `Analyzed
//! { result_bytes, summary, degraded }`, `Error { MantaError }`,
//! `Overloaded { retry_after_ms }`, `Stats { text }`, `ShuttingDown`.
//! `result_bytes` is the canonical `manta::cache::encode_result`
//! payload, so clients can assert byte-identity across warm and cold
//! runs without re-deriving a rendering.

use std::io::{Read, Write};

use manta::Sensitivity;
use manta_resilience::{BudgetKind, MantaError};
use manta_store::{ByteReader, ByteWriter, DecodeError};

/// Wire protocol version; bump on any frame-layout change.
pub const PROTO_VERSION: u32 = 1;

/// Upper bound on a frame payload (module text dominates).
pub const MAX_FRAME: usize = 16 << 20;

/// A job submitted by a client.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Analyze one module.
    Analyze {
        /// Module source: textual IR or assembly, as accepted by the CLI.
        module_text: String,
        /// Cascade sensitivity to run.
        sensitivity: Sensitivity,
        /// Per-request fuel budget (server may clamp it further).
        fuel: Option<u64>,
        /// Per-request wall-clock budget in milliseconds (server may
        /// clamp it further).
        deadline_ms: Option<u64>,
    },
    /// Fetch the daemon's counters as rendered text.
    Stats,
    /// Ask the daemon to drain in-flight work and exit.
    Shutdown,
}

impl Request {
    /// Encodes this request as one frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u32(PROTO_VERSION);
        match self {
            Request::Ping => {
                w.u8(0);
            }
            Request::Analyze {
                module_text,
                sensitivity,
                fuel,
                deadline_ms,
            } => {
                w.u8(1);
                w.str(module_text);
                w.u8(sensitivity_to_u8(*sensitivity));
                encode_opt_u64(&mut w, *fuel);
                encode_opt_u64(&mut w, *deadline_ms);
            }
            Request::Stats => {
                w.u8(2);
            }
            Request::Shutdown => {
                w.u8(3);
            }
        }
        w.finish()
    }

    /// Decodes one frame payload.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on version or tag mismatch, truncation, or
    /// trailing garbage; the offset names the failing byte.
    pub fn decode(payload: &[u8]) -> Result<Request, DecodeError> {
        let mut r = ByteReader::new(payload);
        check_version(&mut r)?;
        let req = match r.u8("request.tag")? {
            0 => Request::Ping,
            1 => Request::Analyze {
                module_text: r.str("request.module_text")?.to_string(),
                sensitivity: sensitivity_from_u8(r.u8("request.sensitivity")?).ok_or(
                    DecodeError {
                        context: "request.sensitivity",
                        offset: payload.len(),
                    },
                )?,
                fuel: decode_opt_u64(&mut r, "request.fuel")?,
                deadline_ms: decode_opt_u64(&mut r, "request.deadline_ms")?,
            },
            2 => Request::Stats,
            3 => Request::Shutdown,
            _ => {
                return Err(DecodeError {
                    context: "request.tag",
                    offset: 4,
                })
            }
        };
        r.expect_end("request.end")?;
        Ok(req)
    }
}

/// The daemon's answer to one [`Request`].
#[derive(Clone, PartialEq, Debug)]
pub enum Response {
    /// Liveness reply.
    Pong,
    /// A completed (possibly degraded) analysis.
    Analyzed {
        /// Canonical `encode_result` bytes of the inference result.
        result: Vec<u8>,
        /// Human-readable one-line summary.
        summary: String,
        /// Whether any stage degraded (budget, panic, injected fault).
        degraded: bool,
    },
    /// The request failed with a structured pipeline error; the daemon
    /// that produced it is alive and serving.
    Error {
        /// The structured failure.
        error: MantaError,
    },
    /// Admission control rejected the job: too many analyses already
    /// wait for a run slot. Retry after a backoff (see
    /// `manta_resilience::Backoff`).
    Overloaded {
        /// Server's hint for the first retry delay.
        retry_after_ms: u64,
    },
    /// Rendered daemon counters.
    Stats {
        /// Text report, one `name value` pair per line.
        text: String,
    },
    /// The daemon acknowledged [`Request::Shutdown`] and is draining.
    ShuttingDown,
}

impl Response {
    /// Encodes this response as one frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u32(PROTO_VERSION);
        match self {
            Response::Pong => {
                w.u8(0);
            }
            Response::Analyzed {
                result,
                summary,
                degraded,
            } => {
                w.u8(1);
                w.bytes(result);
                w.str(summary);
                w.bool(*degraded);
            }
            Response::Error { error } => {
                w.u8(2);
                encode_error(&mut w, error);
            }
            Response::Overloaded { retry_after_ms } => {
                w.u8(3);
                w.u64(*retry_after_ms);
            }
            Response::Stats { text } => {
                w.u8(4);
                w.str(text);
            }
            Response::ShuttingDown => {
                w.u8(5);
            }
        }
        w.finish()
    }

    /// Decodes one frame payload.
    ///
    /// # Errors
    ///
    /// As [`Request::decode`].
    pub fn decode(payload: &[u8]) -> Result<Response, DecodeError> {
        let mut r = ByteReader::new(payload);
        check_version(&mut r)?;
        let resp = match r.u8("response.tag")? {
            0 => Response::Pong,
            1 => Response::Analyzed {
                result: r.bytes("response.result")?.to_vec(),
                summary: r.str("response.summary")?.to_string(),
                degraded: r.bool("response.degraded")?,
            },
            2 => Response::Error {
                error: decode_error(&mut r)?,
            },
            3 => Response::Overloaded {
                retry_after_ms: r.u64("response.retry_after_ms")?,
            },
            4 => Response::Stats {
                text: r.str("response.stats")?.to_string(),
            },
            5 => Response::ShuttingDown,
            _ => {
                return Err(DecodeError {
                    context: "response.tag",
                    offset: 4,
                })
            }
        };
        r.expect_end("response.end")?;
        Ok(resp)
    }
}

fn check_version(r: &mut ByteReader<'_>) -> Result<(), DecodeError> {
    if r.u32("proto.version")? != PROTO_VERSION {
        return Err(DecodeError {
            context: "proto.version",
            offset: 0,
        });
    }
    Ok(())
}

fn encode_opt_u64(w: &mut ByteWriter, v: Option<u64>) {
    match v {
        Some(x) => {
            w.bool(true);
            w.u64(x);
        }
        None => {
            w.bool(false);
        }
    }
}

fn decode_opt_u64(
    r: &mut ByteReader<'_>,
    context: &'static str,
) -> Result<Option<u64>, DecodeError> {
    Ok(if r.bool(context)? {
        Some(r.u64(context)?)
    } else {
        None
    })
}

fn sensitivity_to_u8(s: Sensitivity) -> u8 {
    match s {
        Sensitivity::Fi => 0,
        Sensitivity::Fs => 1,
        Sensitivity::FiFs => 2,
        Sensitivity::FiCsFs => 3,
        Sensitivity::FiFsCs => 4,
    }
}

fn sensitivity_from_u8(v: u8) -> Option<Sensitivity> {
    Some(match v {
        0 => Sensitivity::Fi,
        1 => Sensitivity::Fs,
        2 => Sensitivity::FiFs,
        3 => Sensitivity::FiCsFs,
        4 => Sensitivity::FiFsCs,
        _ => return None,
    })
}

fn encode_error(w: &mut ByteWriter, e: &MantaError) {
    match e {
        MantaError::Parse { line, col, message } => {
            w.u8(0);
            w.u64(*line as u64);
            w.u64(*col as u64);
            w.str(message);
        }
        MantaError::Verify { message } => {
            w.u8(1);
            w.str(message);
        }
        MantaError::Panic { stage, message } => {
            w.u8(2);
            w.str(stage);
            w.str(message);
        }
        MantaError::Budget { stage, kind } => {
            w.u8(3);
            w.str(stage);
            w.u8(match kind {
                BudgetKind::Fuel => 0,
                BudgetKind::Deadline => 1,
                BudgetKind::Injected => 2,
            });
        }
    }
}

fn decode_error(r: &mut ByteReader<'_>) -> Result<MantaError, DecodeError> {
    Ok(match r.u8("error.tag")? {
        0 => MantaError::Parse {
            line: r.u64("error.line")? as usize,
            col: r.u64("error.col")? as usize,
            message: r.str("error.message")?.to_string(),
        },
        1 => MantaError::Verify {
            message: r.str("error.message")?.to_string(),
        },
        2 => MantaError::Panic {
            stage: r.str("error.stage")?.to_string(),
            message: r.str("error.message")?.to_string(),
        },
        3 => MantaError::Budget {
            stage: r.str("error.stage")?.to_string(),
            kind: match r.u8("error.kind")? {
                0 => BudgetKind::Fuel,
                1 => BudgetKind::Deadline,
                2 => BudgetKind::Injected,
                _ => {
                    return Err(DecodeError {
                        context: "error.kind",
                        offset: 0,
                    })
                }
            },
        },
        _ => {
            return Err(DecodeError {
                context: "error.tag",
                offset: 0,
            })
        }
    })
}

/// Writes one frame: 4-byte little-endian length, then the payload, in
/// a single write. Two writes would let Nagle's algorithm hold the
/// payload back until the peer ACKs the 4-byte prefix, and a delayed
/// ACK costs ~40 ms per frame.
///
/// # Errors
///
/// Propagates I/O failures; payloads over [`MAX_FRAME`] are refused
/// with `InvalidInput` instead of being sent.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame from a blocking stream. `Ok(None)` is a clean
/// end-of-stream (the peer closed between frames); a stream truncated
/// *inside* a frame, or a length over [`MAX_FRAME`], is
/// `UnexpectedEof`/`InvalidData`.
///
/// On a stream with a read timeout armed, use a persistent
/// [`FrameReader`] instead: this helper discards partial progress on
/// `WouldBlock`, which desynchronizes the stream.
///
/// # Errors
///
/// Propagates I/O failures and malformed lengths.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    FrameReader::new().read_frame(r)
}

/// Incremental frame reader whose progress survives read timeouts.
///
/// With a socket read timeout armed, a `WouldBlock`/`TimedOut` error
/// can interrupt a frame anywhere — after 1–3 bytes of the length
/// prefix, or mid-payload. A stateless reader would discard those bytes
/// and parse whatever arrives next as a fresh length, permanently
/// desynchronizing the connection. `FrameReader` buffers the partial
/// frame across calls: after a timeout, call
/// [`FrameReader::read_frame`] again and the read resumes exactly where
/// the stream stopped.
#[derive(Default)]
pub struct FrameReader {
    len_bytes: [u8; 4],
    len_filled: usize,
    payload: Vec<u8>,
    payload_filled: usize,
    in_payload: bool,
}

impl FrameReader {
    /// A reader with no partial frame buffered.
    #[must_use]
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Whether a partially-read frame is buffered (a previous call was
    /// interrupted mid-frame).
    #[must_use]
    pub fn mid_frame(&self) -> bool {
        self.len_filled > 0 || self.in_payload
    }

    /// Reads one frame, resuming any partial frame left by a previous
    /// timed-out call. `Ok(None)` is a clean end-of-stream (the peer
    /// closed *between* frames).
    ///
    /// # Errors
    ///
    /// `WouldBlock`/`TimedOut` pass through with the partial frame kept
    /// buffered — call again to resume. A stream truncated inside a
    /// frame is `UnexpectedEof`; a length over [`MAX_FRAME`] is
    /// `InvalidData`. Other I/O failures propagate.
    pub fn read_frame(&mut self, r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
        if !self.in_payload {
            while self.len_filled < 4 {
                match r.read(&mut self.len_bytes[self.len_filled..])? {
                    0 if self.len_filled == 0 => return Ok(None),
                    0 => {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::UnexpectedEof,
                            "stream truncated inside a frame length",
                        ))
                    }
                    n => self.len_filled += n,
                }
            }
            let len = u32::from_le_bytes(self.len_bytes) as usize;
            if len > MAX_FRAME {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("frame length {len} exceeds MAX_FRAME"),
                ));
            }
            self.payload = vec![0u8; len];
            self.payload_filled = 0;
            self.in_payload = true;
        }
        while self.payload_filled < self.payload.len() {
            match r.read(&mut self.payload[self.payload_filled..])? {
                0 => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "stream truncated inside a frame payload",
                    ))
                }
                n => self.payload_filled += n,
            }
        }
        self.in_payload = false;
        self.len_filled = 0;
        Ok(Some(std::mem::take(&mut self.payload)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Analyze {
                module_text: "module m\n".to_string(),
                sensitivity: Sensitivity::FiCsFs,
                fuel: Some(1000),
                deadline_ms: None,
            },
            Request::Analyze {
                module_text: String::new(),
                sensitivity: Sensitivity::Fi,
                fuel: None,
                deadline_ms: Some(250),
            },
            Request::Stats,
            Request::Shutdown,
        ]
    }

    fn all_responses() -> Vec<Response> {
        vec![
            Response::Pong,
            Response::Analyzed {
                result: vec![1, 2, 3],
                summary: "precise=3 over=1 unknown=0".to_string(),
                degraded: true,
            },
            Response::Error {
                error: MantaError::Panic {
                    stage: "serve.dispatch".to_string(),
                    message: "injected".to_string(),
                },
            },
            Response::Error {
                error: MantaError::Budget {
                    stage: "serve.decode".to_string(),
                    kind: BudgetKind::Injected,
                },
            },
            Response::Error {
                error: MantaError::Parse {
                    line: 3,
                    col: 0,
                    message: "bad opcode".to_string(),
                },
            },
            Response::Overloaded { retry_after_ms: 15 },
            Response::Stats {
                text: "serve.requests 4\n".to_string(),
            },
            Response::ShuttingDown,
        ]
    }

    #[test]
    fn requests_roundtrip() {
        for req in all_requests() {
            let back = Request::decode(&req.encode()).expect("roundtrip");
            assert_eq!(back, req);
        }
    }

    #[test]
    fn responses_roundtrip() {
        for resp in all_responses() {
            let back = Response::decode(&resp.encode()).expect("roundtrip");
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn every_truncation_is_a_positioned_error_never_a_panic() {
        for req in all_requests() {
            let full = req.encode();
            for cut in 0..full.len() {
                let err = Request::decode(&full[..cut]).expect_err("truncated must fail");
                assert!(!err.context.is_empty());
            }
        }
        for resp in all_responses() {
            let full = resp.encode();
            for cut in 0..full.len() {
                assert!(Response::decode(&full[..cut]).is_err());
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = Request::Ping.encode();
        bytes.push(0);
        let err = Request::decode(&bytes).expect_err("trailing byte");
        assert_eq!(err.context, "request.end");
    }

    #[test]
    fn version_and_tag_skew_are_rejected() {
        let mut bytes = Request::Stats.encode();
        bytes[0] = 0xFF;
        assert_eq!(
            Request::decode(&bytes).expect_err("version").context,
            "proto.version"
        );
        let mut bytes = Request::Stats.encode();
        bytes[4] = 0xEE;
        assert_eq!(
            Request::decode(&bytes).expect_err("tag").context,
            "request.tag"
        );
    }

    #[test]
    fn frames_roundtrip_and_truncation_is_detected() {
        let payload = Request::Ping.encode();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        write_frame(&mut buf, &payload).unwrap();
        let mut cursor = std::io::Cursor::new(&buf);
        assert_eq!(
            read_frame(&mut cursor).unwrap().as_deref(),
            Some(&payload[..])
        );
        assert_eq!(
            read_frame(&mut cursor).unwrap().as_deref(),
            Some(&payload[..])
        );
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
        // Truncate inside the second frame's payload.
        let cut = buf.len() - 2;
        let mut cursor = std::io::Cursor::new(&buf[..cut]);
        assert!(read_frame(&mut cursor).unwrap().is_some());
        let err = read_frame(&mut cursor).expect_err("truncated frame");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        // An absurd length never allocates.
        let mut huge = std::io::Cursor::new((u32::MAX).to_le_bytes().to_vec());
        assert_eq!(
            read_frame(&mut huge).expect_err("huge frame").kind(),
            std::io::ErrorKind::InvalidData
        );
    }

    /// Counts `write` calls; accepts every byte it is offered.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl std::io::Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        for payload in [Request::Ping.encode(), vec![0x5A; 70_000]] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, &payload).unwrap();
            assert_eq!(w.writes, 1, "prefix and payload go out together");
            let mut cursor = std::io::Cursor::new(&w.bytes);
            assert_eq!(read_frame(&mut cursor).unwrap(), Some(payload));
        }
    }

    /// Yields one byte per read, returning `WouldBlock` before every
    /// byte — so a timeout lands between every pair of bytes, including
    /// mid-length-prefix and mid-payload.
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        block_next: bool,
    }

    impl std::io::Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.data.len() {
                return Ok(0);
            }
            if self.block_next {
                self.block_next = false;
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            self.block_next = true;
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn frame_reader_resumes_across_timeouts_at_every_byte_boundary() {
        let first = Request::Analyze {
            module_text: "module m\n".to_string(),
            sensitivity: Sensitivity::FiCsFs,
            fuel: Some(9),
            deadline_ms: None,
        }
        .encode();
        let second = Request::Ping.encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, &first).unwrap();
        write_frame(&mut wire, &second).unwrap();

        let mut stream = Trickle {
            data: wire,
            pos: 0,
            block_next: true,
        };
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        let mut timeouts = 0;
        loop {
            match reader.read_frame(&mut stream) {
                Ok(Some(payload)) => frames.push(payload),
                Ok(None) => break,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    timeouts += 1;
                    assert!(timeouts < 1_000_000, "reader must make progress");
                }
                Err(e) => panic!("unexpected framing error: {e}"),
            }
        }
        assert_eq!(frames, vec![first, second], "no byte lost to a timeout");
        assert!(
            timeouts > 8,
            "the trickle must have interrupted mid-prefix and mid-payload"
        );
        assert!(!reader.mid_frame(), "clean EOF leaves no partial frame");
    }
}
