//! Hostile frames for the serve codec: whatever bytes arrive on a
//! connection, `read_request` and `read_response` answer in bounded
//! time with a frame, a clean end of stream, or a typed `io::Error`,
//! never a panic or a hang. Every frame the writers emit round-trips,
//! and each named mutation of one comes back as the error kind and
//! message its mutation names.

use std::io::{self, Cursor};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use cnet_serve::proto::{
    read_request, read_response, write_request, write_response, Request, Response, MAX_FRAME,
};
use proptest::prelude::*;

/// How long one read may take before it counts as a hang.
const READ_BOUND: Duration = Duration::from_secs(10);

/// One frame of either direction.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Frame {
    Request(Request),
    Response(Response),
}

/// The frame kinds the writers emit, one per opcode and direction.
const KINDS: usize = 11;

impl Frame {
    /// Frame kind `kind` (below [`KINDS`]) with fields drawn from
    /// `a`, `b`, `c` and `text`.
    fn draw(kind: usize, (a, b, c): (u64, u64, u64), text: String) -> Frame {
        match kind {
            0 => Frame::Request(Request::Next),
            1 => Frame::Request(Request::NextBatch { k: a as u32 }),
            2 => Frame::Request(Request::Snapshot),
            3 => Frame::Request(Request::Health),
            4 => Frame::Request(Request::Shutdown),
            5 => Frame::Response(Response::Value {
                value: a,
                start: b,
                end: c,
            }),
            6 => Frame::Response(Response::Batch {
                base: a,
                k: b as u32,
                start: b,
                end: c,
            }),
            7 => Frame::Response(Response::Snapshot { json: text }),
            8 => Frame::Response(Response::Health {
                ops: a,
                uptime_ms: b,
                breaches: c,
            }),
            9 => Frame::Response(Response::Bye),
            _ => Frame::Response(Response::Err { message: text }),
        }
    }

    fn wire(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Frame::Request(req) => write_request(&mut out, req),
            Frame::Response(resp) => write_response(&mut out, resp),
        }
        .expect("a Vec takes every write");
        out
    }

    fn direction(&self) -> &'static str {
        match self {
            Frame::Request(_) => "request",
            Frame::Response(_) => "response",
        }
    }

    /// The decoder's name for a fixed-size frame with its payload
    /// length, or `None` for a text frame.
    fn fixed(&self) -> Option<(&'static str, usize)> {
        match self {
            Frame::Request(Request::Next) => Some(("Next", 1)),
            Frame::Request(Request::NextBatch { .. }) => Some(("NextBatch", 5)),
            Frame::Request(Request::Snapshot) => Some(("Snapshot", 1)),
            Frame::Request(Request::Health) => Some(("Health", 1)),
            Frame::Request(Request::Shutdown) => Some(("Shutdown", 1)),
            Frame::Response(Response::Value { .. }) => Some(("Value", 25)),
            Frame::Response(Response::Batch { .. }) => Some(("Batch", 29)),
            Frame::Response(Response::Health { .. }) => Some(("Health", 25)),
            Frame::Response(Response::Bye) => Some(("Bye", 1)),
            Frame::Response(Response::Snapshot { .. } | Response::Err { .. }) => None,
        }
    }

    /// The opcodes this frame's direction decodes.
    fn opcodes(&self) -> &'static [u8] {
        match self {
            Frame::Request(_) => &[0x01, 0x02, 0x03, 0x04, 0x05],
            Frame::Response(_) => &[0x81, 0x82, 0x83, 0x84, 0x85, 0xFF],
        }
    }
}

/// Decodes one frame of `direction` from `bytes` on a thread of its
/// own: `Err` names a panic or a hang.
fn read_bounded(
    direction: &'static str,
    bytes: Vec<u8>,
) -> Result<io::Result<Option<Frame>>, String> {
    let (tx, rx) = mpsc::channel();
    let reader = thread::spawn(move || {
        let mut stream = Cursor::new(bytes);
        let frame = match direction {
            "request" => read_request(&mut stream).map(|r| r.map(Frame::Request)),
            _ => read_response(&mut stream).map(|r| r.map(Frame::Response)),
        };
        let _ = tx.send(frame);
    });
    match rx.recv_timeout(READ_BOUND) {
        Ok(frame) => {
            reader.join().expect("the reader sent its result");
            Ok(frame)
        }
        // the reader is left running; the case fails
        Err(mpsc::RecvTimeoutError::Timeout) => Err(format!("no answer within {READ_BOUND:?}")),
        Err(mpsc::RecvTimeoutError::Disconnected) => Err(match reader.join() {
            Err(panic) => format!("the read panicked: {panic:?}"),
            Ok(()) => "the reader sent nothing".to_string(),
        }),
    }
}

/// `payload` behind a length prefix that states its length.
fn framed(payload: &[u8]) -> Vec<u8> {
    [&(payload.len() as u32).to_le_bytes()[..], payload].concat()
}

/// Every named mutation that applies to `frame`, with the error kind
/// and message fragment the decoder must answer it with. `a` places
/// the mutation.
fn mutations(frame: &Frame, a: u64) -> Vec<(&'static str, Vec<u8>, io::ErrorKind, String)> {
    use io::ErrorKind::{InvalidData, UnexpectedEof};
    let wire = frame.wire();
    let payload = &wire[4..];
    let empty = format!("empty {} frame", frame.direction());
    let past_cap = MAX_FRAME + 1 + (a % u64::from(u32::MAX - MAX_FRAME)) as u32;
    let unknown = (0..=255u8)
        .cycle()
        .skip(a as usize % 256)
        .find(|op| !frame.opcodes().contains(op))
        .expect("some opcode is unassigned");
    let mut out = vec![
        (
            "a length prefix past MAX_FRAME",
            [&past_cap.to_le_bytes()[..], payload].concat(),
            InvalidData,
            format!("frame of {past_cap} bytes exceeds the {MAX_FRAME}-byte cap"),
        ),
        (
            "a truncated prefix",
            wire[..1 + a as usize % 3].to_vec(),
            UnexpectedEof,
            "stream ended mid-frame (length prefix)".to_string(),
        ),
        (
            "a truncated payload",
            wire[..4 + a as usize % payload.len()].to_vec(),
            UnexpectedEof,
            "stream ended mid-frame (payload)".to_string(),
        ),
        ("an empty payload", framed(&[]), InvalidData, empty.clone()),
        (
            "an unknown opcode",
            framed(&[&[unknown][..], &payload[1..]].concat()),
            InvalidData,
            format!("unknown {} opcode 0x{unknown:02x}", frame.direction()),
        ),
    ];
    match frame.fixed() {
        Some((name, len)) => {
            let expected = |got: usize| format!("{name}: expected {len}-byte payload, got {got}");
            let short = if len == 1 { empty } else { expected(len - 1) };
            out.push((
                "one byte short",
                framed(&payload[..len - 1]),
                InvalidData,
                short,
            ));
            out.push((
                "one byte long",
                framed(&[payload, &[a as u8]].concat()),
                InvalidData,
                expected(len + 1),
            ));
        }
        None => {
            let name = match frame {
                Frame::Response(Response::Snapshot { .. }) => "Snapshot",
                _ => "Err",
            };
            // a byte no UTF-8 text holds, spliced in anywhere
            let at = 1 + a as usize % payload.len();
            let bad = [0xFF, 0xFE, 0xC0, 0xF8][a as usize % 4];
            let text = [&payload[..at], &[bad], &payload[at..]].concat();
            out.push((
                "non-UTF-8 text",
                framed(&text),
                InvalidData,
                format!("{name}: payload is not UTF-8"),
            ));
        }
    }
    out
}

/// Characters a snapshot or an error message is made of, multi-byte
/// ones included.
const TEXT: &[char] = &['{', '}', '"', ':', ',', 'x', '0', ' ', '\n', 'ö', '€', '𝄞'];

fn text_of(picks: &[usize]) -> String {
    picks.iter().map(|&i| TEXT[i]).collect()
}

#[test]
fn every_frame_kind_round_trips_and_refuses_each_mutation() {
    for kind in 0..KINDS {
        let frame = Frame::draw(kind, (7, 1 << 40, u64::MAX), "{\"ö\": 1}".to_string());
        assert_eq!(
            read_bounded(frame.direction(), frame.wire())
                .unwrap()
                .unwrap(),
            Some(frame.clone())
        );
        for (what, bytes, want, fragment) in mutations(&frame, 0) {
            let err = read_bounded(frame.direction(), bytes)
                .unwrap()
                .expect_err(what);
            assert_eq!(err.kind(), want, "{frame:?}, {what}: {err}");
            assert!(
                err.to_string().contains(&fragment),
                "{frame:?}, {what}: {err}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_read_as_a_frame_or_a_typed_error(
        raw in proptest::collection::vec(0u8..=255, 0..64),
        len in 0u32..40,
        payload in proptest::collection::vec(0u8..=255, 0..40),
    ) {
        // whole noise, and noise behind a prefix small enough to read
        for bytes in [raw, [&len.to_le_bytes()[..], &payload].concat()] {
            for direction in ["request", "response"] {
                match read_bounded(direction, bytes.clone())? {
                    Ok(_) => {}
                    Err(e) => prop_assert!(
                        matches!(e.kind(), io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof),
                        "{direction} from {bytes:?}: {e:?}"
                    ),
                }
            }
        }
    }

    #[test]
    fn every_frame_round_trips_and_each_mutation_names_its_error(
        kind in 0usize..KINDS,
        fields in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
        picks in proptest::collection::vec(0usize..TEXT.len(), 0..48),
        a in 0u64..u64::MAX,
    ) {
        let frame = Frame::draw(kind, fields, text_of(&picks));
        prop_assert_eq!(
            read_bounded(frame.direction(), frame.wire())?.ok(),
            Some(Some(frame.clone()))
        );
        for (what, bytes, want, fragment) in mutations(&frame, a) {
            match read_bounded(frame.direction(), bytes)? {
                Ok(read) => prop_assert!(false, "{frame:?}, {what}: read {read:?}"),
                Err(e) => prop_assert!(
                    e.kind() == want && e.to_string().contains(&fragment),
                    "{frame:?}, {what}: {e:?}, expected {want:?} `{fragment}`"
                ),
            }
        }
    }
}
