//! The wire protocol: length-prefixed request/response frames.
//!
//! One frame = a little-endian `u32` payload length, then the payload:
//! one opcode byte followed by fixed-width little-endian fields (or
//! UTF-8 text for the snapshot/error payloads). Five requests, six
//! responses — small enough to decode by hand on any client:
//!
//! | request  | opcode | payload            | response |
//! |----------|--------|--------------------|----------|
//! | Next     | `0x01` | —                  | Value    |
//! | NextBatch| `0x02` | `k: u32`           | Batch    |
//! | Snapshot | `0x03` | —                  | Snapshot |
//! | Health   | `0x04` | —                  | Health   |
//! | Shutdown | `0x05` | —                  | Bye      |
//!
//! | response | opcode | payload                                   |
//! |----------|--------|-------------------------------------------|
//! | Value    | `0x81` | `value, start, end: u64`                  |
//! | Batch    | `0x82` | `base: u64, k: u32, start, end: u64`      |
//! | Snapshot | `0x83` | JSON text (a serialized `SloReport`)      |
//! | Health   | `0x84` | `ops, uptime_ms, breaches: u64`           |
//! | Bye      | `0x85` | —                                         |
//! | Err      | `0xFF` | UTF-8 message                             |
//!
//! `Value`/`Batch` carry the operation's logical start/end ticks so
//! external clients can run the Definition 2.4 check on exactly the
//! witness the server recorded. A batch reserves the contiguous values
//! `[base, base + k)` with a single traversal; the whole interval
//! shares one `(start, end)` bracket.

use std::io::{self, Read, Write};

/// Largest accepted frame payload. Snapshots carry a full windowed
/// report (bounded by the evaluator's retained-window cap) and fit in
/// well under a mebibyte; anything larger is a corrupt stream.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Largest accepted batch size — caps how much of the value space a
/// single request can reserve.
pub const MAX_BATCH: u32 = 1 << 20;

/// A client-to-server frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Draw one counter value.
    Next,
    /// Reserve `k` contiguous values with one traversal.
    NextBatch {
        /// Interval length; `1..=MAX_BATCH`.
        k: u32,
    },
    /// Fetch the serialized SLO report.
    Snapshot,
    /// Fetch the liveness scalars.
    Health,
    /// Ask the server to drain and exit.
    Shutdown,
}

/// A server-to-client frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// One drawn value with its logical-clock bracket.
    Value {
        /// The counter position.
        value: u64,
        /// Logical start tick.
        start: u64,
        /// Logical end tick.
        end: u64,
    },
    /// A reserved interval `[base, base + k)` with its shared bracket.
    Batch {
        /// First value of the interval.
        base: u64,
        /// Interval length.
        k: u32,
        /// Logical start tick.
        start: u64,
        /// Logical end tick.
        end: u64,
    },
    /// The serialized [`cnet_obs::SloReport`] JSON.
    Snapshot {
        /// JSON text.
        json: String,
    },
    /// Liveness scalars.
    Health {
        /// Operations served.
        ops: u64,
        /// Milliseconds since the service started.
        uptime_ms: u64,
        /// ok→breach transitions so far.
        breaches: u64,
    },
    /// Acknowledges shutdown / announces the connection is closing.
    Bye,
    /// A rejected request, with the reason.
    Err {
        /// Human-readable reason.
        message: String,
    },
}

/// The longest fixed-size payload: a `Batch` response, its opcode and
/// 28 bytes of fields. Snapshot and error text are the only payloads
/// that can be longer.
const MAX_FIXED_PAYLOAD: usize = 29;

/// A fixed-size frame built on the stack and sent with one write: the
/// length prefix, the opcode, then the fields as they are put.
struct FixedFrame {
    bytes: [u8; 4 + MAX_FIXED_PAYLOAD],
    len: usize,
}

impl FixedFrame {
    fn new(opcode: u8) -> Self {
        let mut bytes = [0; 4 + MAX_FIXED_PAYLOAD];
        bytes[4] = opcode;
        FixedFrame { bytes, len: 5 }
    }

    fn put<const N: usize>(mut self, field: [u8; N]) -> Self {
        self.bytes[self.len..self.len + N].copy_from_slice(&field);
        self.len += N;
        self
    }

    fn send(mut self, w: &mut impl Write) -> io::Result<()> {
        let payload = (self.len - 4) as u32; // at most MAX_FIXED_PAYLOAD
        self.bytes[..4].copy_from_slice(&payload.to_le_bytes());
        w.write_all(&self.bytes[..self.len])
    }
}

/// Sends a text frame (snapshot JSON, error message): one buffer, one
/// write.
fn send_text(w: &mut impl Write, opcode: u8, text: &str) -> io::Result<()> {
    let payload = u32::try_from(1 + text.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "text exceeds a frame"))?;
    let mut out = Vec::with_capacity(5 + text.len());
    out.extend_from_slice(&payload.to_le_bytes());
    out.push(opcode);
    out.extend_from_slice(text.as_bytes());
    w.write_all(&out)
}

/// `read_exact` that never abandons bytes already consumed: once the
/// frame has started, a read timeout (`WouldBlock`/`TimedOut` from a
/// socket with a poll-interval timeout) is retried instead of
/// surfaced, so timeouts only ever appear at frame boundaries.
fn read_full(r: &mut impl Read, buf: &mut [u8], started: bool, what: &str) -> io::Result<bool> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return if got == 0 && !started {
                    Ok(false) // clean EOF at a frame boundary
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!("stream ended mid-frame ({what})"),
                    ))
                };
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if (got > 0 || started)
                    && (e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// One frame's payload: on the stack when it is no longer than a
/// fixed-size frame, on the heap otherwise.
struct Payload {
    stack: [u8; MAX_FIXED_PAYLOAD],
    heap: Vec<u8>,
    len: usize,
}

impl Payload {
    fn bytes(&self) -> &[u8] {
        match self.stack.get(..self.len) {
            Some(fixed) => fixed,
            None => &self.heap,
        }
    }
}

/// Reads one length-prefixed payload. Returns `Ok(None)` on a clean
/// EOF at a frame boundary (the peer closed the stream).
fn read_frame(r: &mut impl Read) -> io::Result<Option<Payload>> {
    let mut len = [0u8; 4];
    if !read_full(r, &mut len, false, "length prefix")? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut payload = Payload {
        stack: [0; MAX_FIXED_PAYLOAD],
        heap: Vec::new(),
        len: len as usize,
    };
    let bytes = match payload.stack.get_mut(..payload.len) {
        Some(fixed) => fixed,
        None => {
            payload.heap.resize(payload.len, 0);
            &mut payload.heap[..]
        }
    };
    read_full(r, bytes, true, "payload")?;
    Ok(Some(payload))
}

fn u32_at(payload: &[u8], at: usize) -> io::Result<u32> {
    payload
        .get(at..at + 4)
        .map(|b| u32::from_le_bytes(b.try_into().expect("4-byte slice")))
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "frame payload truncated"))
}

fn u64_at(payload: &[u8], at: usize) -> io::Result<u64> {
    payload
        .get(at..at + 8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte slice")))
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "frame payload truncated"))
}

fn expect_len(payload: &[u8], want: usize, what: &str) -> io::Result<()> {
    if payload.len() == want {
        Ok(())
    } else {
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{what}: expected {want}-byte payload, got {}",
                payload.len()
            ),
        ))
    }
}

fn text_of(payload: &[u8], what: &str) -> io::Result<String> {
    String::from_utf8(payload.to_vec()).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{what}: payload is not UTF-8"),
        )
    })
}

/// Writes one request frame.
///
/// # Errors
///
/// Propagates the underlying write error.
pub fn write_request(w: &mut impl Write, req: &Request) -> io::Result<()> {
    match *req {
        Request::Next => FixedFrame::new(0x01),
        Request::NextBatch { k } => FixedFrame::new(0x02).put(k.to_le_bytes()),
        Request::Snapshot => FixedFrame::new(0x03),
        Request::Health => FixedFrame::new(0x04),
        Request::Shutdown => FixedFrame::new(0x05),
    }
    .send(w)
}

/// Reads one request frame; `Ok(None)` on clean EOF.
///
/// # Errors
///
/// Propagates the underlying read error; malformed frames surface as
/// [`io::ErrorKind::InvalidData`].
pub fn read_request(r: &mut impl Read) -> io::Result<Option<Request>> {
    let Some(payload) = read_frame(r)? else {
        return Ok(None);
    };
    let payload = payload.bytes();
    let Some(&op) = payload.first() else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "empty request frame",
        ));
    };
    let req = match op {
        0x01 => {
            expect_len(payload, 1, "Next")?;
            Request::Next
        }
        0x02 => {
            expect_len(payload, 5, "NextBatch")?;
            Request::NextBatch {
                k: u32_at(payload, 1)?,
            }
        }
        0x03 => {
            expect_len(payload, 1, "Snapshot")?;
            Request::Snapshot
        }
        0x04 => {
            expect_len(payload, 1, "Health")?;
            Request::Health
        }
        0x05 => {
            expect_len(payload, 1, "Shutdown")?;
            Request::Shutdown
        }
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown request opcode 0x{other:02x}"),
            ));
        }
    };
    Ok(Some(req))
}

/// Writes one response frame.
///
/// # Errors
///
/// Propagates the underlying write error.
pub fn write_response(w: &mut impl Write, resp: &Response) -> io::Result<()> {
    match *resp {
        Response::Value { value, start, end } => FixedFrame::new(0x81)
            .put(value.to_le_bytes())
            .put(start.to_le_bytes())
            .put(end.to_le_bytes()),
        Response::Batch {
            base,
            k,
            start,
            end,
        } => FixedFrame::new(0x82)
            .put(base.to_le_bytes())
            .put(k.to_le_bytes())
            .put(start.to_le_bytes())
            .put(end.to_le_bytes()),
        Response::Snapshot { ref json } => return send_text(w, 0x83, json),
        Response::Health {
            ops,
            uptime_ms,
            breaches,
        } => FixedFrame::new(0x84)
            .put(ops.to_le_bytes())
            .put(uptime_ms.to_le_bytes())
            .put(breaches.to_le_bytes()),
        Response::Bye => FixedFrame::new(0x85),
        Response::Err { ref message } => return send_text(w, 0xFF, message),
    }
    .send(w)
}

/// Reads one response frame; `Ok(None)` on clean EOF.
///
/// # Errors
///
/// Propagates the underlying read error; malformed frames surface as
/// [`io::ErrorKind::InvalidData`].
pub fn read_response(r: &mut impl Read) -> io::Result<Option<Response>> {
    let Some(payload) = read_frame(r)? else {
        return Ok(None);
    };
    let payload = payload.bytes();
    let Some(&op) = payload.first() else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "empty response frame",
        ));
    };
    let resp = match op {
        0x81 => {
            expect_len(payload, 25, "Value")?;
            Response::Value {
                value: u64_at(payload, 1)?,
                start: u64_at(payload, 9)?,
                end: u64_at(payload, 17)?,
            }
        }
        0x82 => {
            expect_len(payload, 29, "Batch")?;
            Response::Batch {
                base: u64_at(payload, 1)?,
                k: u32_at(payload, 9)?,
                start: u64_at(payload, 13)?,
                end: u64_at(payload, 21)?,
            }
        }
        0x83 => Response::Snapshot {
            json: text_of(&payload[1..], "Snapshot")?,
        },
        0x84 => {
            expect_len(payload, 25, "Health")?;
            Response::Health {
                ops: u64_at(payload, 1)?,
                uptime_ms: u64_at(payload, 9)?,
                breaches: u64_at(payload, 17)?,
            }
        }
        0x85 => {
            expect_len(payload, 1, "Bye")?;
            Response::Bye
        }
        0xFF => Response::Err {
            message: text_of(&payload[1..], "Err")?,
        },
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown response opcode 0x{other:02x}"),
            ));
        }
    };
    Ok(Some(resp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn round_trip_request(req: Request) -> Request {
        let mut buf = Vec::new();
        write_request(&mut buf, &req).unwrap();
        read_request(&mut Cursor::new(buf)).unwrap().unwrap()
    }

    fn round_trip_response(resp: Response) -> Response {
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).unwrap();
        read_response(&mut Cursor::new(buf)).unwrap().unwrap()
    }

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Next,
            Request::NextBatch { k: 17 },
            Request::Snapshot,
            Request::Health,
            Request::Shutdown,
        ] {
            assert_eq!(round_trip_request(req), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Value {
                value: u64::MAX,
                start: 3,
                end: 9,
            },
            Response::Batch {
                base: 100,
                k: 32,
                start: 1,
                end: 2,
            },
            Response::Snapshot {
                json: "{\"x\": 1}".to_string(),
            },
            Response::Health {
                ops: 5,
                uptime_ms: 1000,
                breaches: 0,
            },
            Response::Bye,
            Response::Err {
                message: "no".to_string(),
            },
        ] {
            assert_eq!(round_trip_response(resp.clone()), resp);
        }
    }

    /// The wire format, byte for byte: what an external client decodes
    /// by hand. Every frame kind, both directions.
    #[test]
    fn every_frame_kind_has_its_golden_wire_bytes() {
        let requests: [(Request, &[u8]); 5] = [
            (Request::Next, &[1, 0, 0, 0, 0x01]),
            (
                Request::NextBatch { k: 0x0102_0304 },
                &[5, 0, 0, 0, 0x02, 4, 3, 2, 1],
            ),
            (Request::Snapshot, &[1, 0, 0, 0, 0x03]),
            (Request::Health, &[1, 0, 0, 0, 0x04]),
            (Request::Shutdown, &[1, 0, 0, 0, 0x05]),
        ];
        for (req, golden) in requests {
            let mut wire = Vec::new();
            write_request(&mut wire, &req).unwrap();
            assert_eq!(wire, golden, "{req:?}");
            assert_eq!(read_request(&mut Cursor::new(golden)).unwrap(), Some(req));
        }

        let le = |v: u64| v.to_le_bytes();
        let responses: [(Response, Vec<u8>); 6] = [
            (
                Response::Value {
                    value: 0x0807_0605_0403_0201,
                    start: 6,
                    end: u64::MAX,
                },
                [
                    &[25, 0, 0, 0, 0x81][..],
                    &[1, 2, 3, 4, 5, 6, 7, 8],
                    &le(6),
                    &[0xFF; 8],
                ]
                .concat(),
            ),
            (
                Response::Batch {
                    base: 512,
                    k: 256,
                    start: 10,
                    end: 11,
                },
                [
                    &[29, 0, 0, 0, 0x82][..],
                    &le(512),
                    &[0, 1, 0, 0],
                    &le(10),
                    &le(11),
                ]
                .concat(),
            ),
            (
                Response::Snapshot {
                    json: "{\"x\": 1}".to_string(),
                },
                [&[9, 0, 0, 0, 0x83][..], b"{\"x\": 1}"].concat(),
            ),
            (
                Response::Health {
                    ops: 5,
                    uptime_ms: 1000,
                    breaches: 2,
                },
                [&[25, 0, 0, 0, 0x84][..], &le(5), &le(1000), &le(2)].concat(),
            ),
            (Response::Bye, vec![1, 0, 0, 0, 0x85]),
            (
                Response::Err {
                    message: "n\u{f6}".to_string(),
                },
                vec![4, 0, 0, 0, 0xFF, b'n', 0xC3, 0xB6],
            ),
        ];
        for (resp, golden) in responses {
            let mut wire = Vec::new();
            write_response(&mut wire, &resp).unwrap();
            assert_eq!(wire, golden, "{resp:?}");
            assert_eq!(read_response(&mut Cursor::new(golden)).unwrap(), Some(resp));
        }
    }

    #[test]
    fn clean_eof_reads_as_none() {
        assert_eq!(read_request(&mut Cursor::new(Vec::new())).unwrap(), None);
        assert_eq!(read_response(&mut Cursor::new(Vec::new())).unwrap(), None);
    }

    #[test]
    fn truncated_prefix_is_an_error() {
        let err = read_request(&mut Cursor::new(vec![1u8, 0])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn truncated_payload_is_an_error() {
        let mut buf = Vec::new();
        write_response(
            &mut buf,
            &Response::Value {
                value: 1,
                start: 2,
                end: 3,
            },
        )
        .unwrap();
        buf.truncate(buf.len() - 1);
        let err = read_response(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_frames_are_rejected_before_allocation() {
        let mut buf = (MAX_FRAME + 1).to_le_bytes().to_vec();
        buf.push(0x01);
        let err = read_request(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("cap"));
    }

    #[test]
    fn unknown_opcodes_are_rejected() {
        let mut buf = 1u32.to_le_bytes().to_vec();
        buf.push(0x7E);
        let err = read_request(&mut Cursor::new(buf)).unwrap_err();
        assert!(err.to_string().contains("0x7e"));
    }

    #[test]
    fn malformed_payloads_are_refused_by_name() {
        fn framed(payload: &[u8]) -> Cursor<Vec<u8>> {
            Cursor::new([&(payload.len() as u32).to_le_bytes()[..], payload].concat())
        }
        let request = |payload: &[u8]| read_request(&mut framed(payload)).unwrap_err();
        let response = |payload: &[u8]| read_response(&mut framed(payload)).unwrap_err();
        let long = [&[0x01][..], &[0; 999]].concat();
        for (err, want) in [
            (request(&[]), "empty request frame"),
            (response(&[]), "empty response frame"),
            (request(&[0x01, 0]), "Next: expected 1-byte payload, got 2"),
            // longer than any fixed-size frame, still answered by length
            (request(&long), "Next: expected 1-byte payload, got 1000"),
            (
                request(&[0x02, 1, 0, 0]),
                "NextBatch: expected 5-byte payload, got 4",
            ),
            (
                response(&[0x81; 24]),
                "Value: expected 25-byte payload, got 24",
            ),
            (
                response(&[0x82; 30]),
                "Batch: expected 29-byte payload, got 30",
            ),
            (
                response(&[0x84; 26]),
                "Health: expected 25-byte payload, got 26",
            ),
            (response(&[0x85, 0]), "Bye: expected 1-byte payload, got 2"),
            (response(&[0x83, 0xC3]), "Snapshot: payload is not UTF-8"),
            (response(&[0xFF, 0xFF]), "Err: payload is not UTF-8"),
            (response(&[0x01]), "unknown response opcode 0x01"),
        ] {
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{want}");
            assert_eq!(err.to_string(), want);
        }
    }

    #[test]
    fn frames_decode_back_to_back_on_one_stream() {
        let mut buf = Vec::new();
        write_request(&mut buf, &Request::Next).unwrap();
        write_request(&mut buf, &Request::NextBatch { k: 4 }).unwrap();
        write_request(&mut buf, &Request::Shutdown).unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_request(&mut cur).unwrap(), Some(Request::Next));
        assert_eq!(
            read_request(&mut cur).unwrap(),
            Some(Request::NextBatch { k: 4 })
        );
        assert_eq!(read_request(&mut cur).unwrap(), Some(Request::Shutdown));
        assert_eq!(read_request(&mut cur).unwrap(), None);
    }
}
