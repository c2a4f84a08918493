//! Property tests for the incremental HTTP parser, the code that faces
//! untrusted bytes on every connection:
//!
//! - arbitrary bytes, fed in arbitrary segments, never panic; every
//!   failure is a typed [`HttpViolation`] (`400` or `413`) that sticks;
//!   and the outcome does not depend on how the bytes were segmented;
//! - every segmentation of a valid pipelined stream yields exactly the
//!   requests that were written, in order, and leaves nothing buffered.

use std::io;

use af_serve::http::{violation_status, Request, RequestParser};
use proptest::prelude::*;

/// What a parser makes of a byte stream fed in segments: the requests
/// it yields, then the violation (status and message) that stopped it,
/// if any.
type Outcome = (Vec<Request>, Option<(u16, String)>);

/// Feed `wire` to a fresh parser, split before every offset in `cuts`
/// (taken modulo the stream length), draining requests after each
/// segment until it needs more bytes or fails. A failure must be a
/// typed violation, and the parser must repeat it on the next call.
fn feed_in_segments(wire: &[u8], cuts: &[usize]) -> Result<Outcome, String> {
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (wire.len() + 1)).collect();
    bounds.push(wire.len());
    bounds.sort_unstable();
    let mut parser = RequestParser::new();
    let mut requests = Vec::new();
    let mut start = 0;
    for end in bounds {
        parser.feed(&wire[start..end]);
        start = end;
        loop {
            match parser.next_request() {
                Ok(Some(req)) => requests.push(req),
                Ok(None) => break,
                Err(err) => return Ok((requests, Some(typed(&mut parser, &err)?))),
            }
        }
    }
    Ok((requests, None))
}

/// The status and message of `err`, checked to be a sticky violation.
fn typed(parser: &mut RequestParser, err: &io::Error) -> Result<(u16, String), String> {
    if err.kind() != io::ErrorKind::InvalidData {
        return Err(format!("untyped error kind {:?}: {err}", err.kind()));
    }
    let status = match violation_status(err) {
        Some(status @ (400 | 413)) => status,
        other => return Err(format!("violation status {other:?} for {err}")),
    };
    match parser.next_request() {
        Err(again) if again.to_string() == err.to_string() => {}
        other => return Err(format!("violation did not stick: {other:?}")),
    }
    Ok((status, err.to_string()))
}

/// HTTP-shaped fragments, so random streams reach deep parser states
/// (heads, header limits, body lengths) instead of stalling on the
/// first line.
const FRAGMENTS: &[&[u8]] = &[
    b"POST ",
    b"GET ",
    b"/v1/infer/m ",
    b"/healthz ",
    b"HTTP/1.1",
    b"\r\n",
    b"\n",
    b"\r\n\r\n",
    b"content-length: ",
    b"Content-Length:",
    b"x-deadline-ms: 5",
    b": ",
    b"0",
    b"7",
    b"4194305",
    b"99999999999999999999999",
    b"-1",
    b"abc",
    b" ",
    b"\xff\xfe",
    b"\0",
];

/// Bytes from `picks`: a value below `FRAGMENTS.len()` appends that
/// fragment; 30 appends half a line cap's worth of one byte and 31 a
/// run of 40 header lines, so two picks reach the line and header
/// caps; any other value appends itself as a raw byte.
fn soup(picks: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    for &p in picks {
        match (FRAGMENTS.get(usize::from(p)), p) {
            (Some(fragment), _) => wire.extend_from_slice(fragment),
            (None, 30) => wire.extend_from_slice(&[b'a'; 4 * 1024 + 1]),
            (None, 31) => wire.extend_from_slice(&b"h: v\r\n".repeat(40)),
            (None, raw) => wire.push(raw),
        }
    }
    wire
}

/// SplitMix64: the request generator's deterministic field source.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A valid request drawn from `seed` — a bodyless `GET`, or a `POST`
/// with a body of any bytes — and its wire image. Header names are
/// written in mixed case and values padded with spaces; the parser
/// lowercases the one and trims the other.
fn request(seed: u64) -> (Request, Vec<u8>) {
    let mut s = seed;
    let post = !mix(&mut s).is_multiple_of(3);
    let method = if post { "POST" } else { "GET" };
    let path = format!("/v1/infer/m{}", mix(&mut s) % 1000);
    let mut wire = format!("{method} {path} HTTP/1.1\r\n").into_bytes();
    let mut headers = Vec::new();
    for h in 0..mix(&mut s) % 4 {
        let value = format!("{}", mix(&mut s) % 100_000);
        wire.extend_from_slice(format!("X-Extra-{h}:  {value} \r\n").as_bytes());
        headers.push((format!("x-extra-{h}"), value));
    }
    let body: Vec<u8> = if post {
        let len = mix(&mut s) % 64;
        let body = (0..len).map(|_| mix(&mut s) as u8).collect::<Vec<u8>>();
        wire.extend_from_slice(format!("Content-Length: {}\r\n", body.len()).as_bytes());
        headers.push(("content-length".to_string(), body.len().to_string()));
        body
    } else {
        Vec::new()
    };
    wire.extend_from_slice(b"\r\n");
    wire.extend_from_slice(&body);
    let req = Request {
        method: method.to_string(),
        path,
        headers,
        body,
    };
    (req, wire)
}

proptest! {
    #[test]
    fn arbitrary_bytes_fail_typed_at_any_segmentation(
        bytes in prop::collection::vec(0u8..=255, 0..512),
        cuts in prop::collection::vec(0usize..1024, 0..8),
    ) {
        let whole = feed_in_segments(&bytes, &[]);
        prop_assert!(whole.is_ok(), "{:?}", whole);
        prop_assert_eq!(feed_in_segments(&bytes, &cuts), whole);
    }

    #[test]
    fn http_shaped_soup_fails_typed_at_any_segmentation(
        picks in prop::collection::vec(0u8..32, 0..96),
        cuts in prop::collection::vec(0usize..32_768, 0..8),
    ) {
        let wire = soup(&picks);
        let whole = feed_in_segments(&wire, &[]);
        prop_assert!(whole.is_ok(), "{:?}", whole);
        prop_assert_eq!(feed_in_segments(&wire, &cuts), whole);
    }

    #[test]
    fn every_split_of_a_pipelined_stream_yields_the_same_requests(
        seeds in prop::collection::vec(0u64..u64::MAX, 1..5),
        cuts in prop::collection::vec(0usize..4096, 0..12),
    ) {
        let mut want = Vec::new();
        let mut wire = Vec::new();
        for &seed in &seeds {
            let (req, bytes) = request(seed);
            want.push(req);
            wire.extend_from_slice(&bytes);
        }
        prop_assert_eq!(feed_in_segments(&wire, &cuts), Ok((want.clone(), None)));
        // Byte at a time is the extreme split.
        let every: Vec<usize> = (0..wire.len()).collect();
        prop_assert_eq!(feed_in_segments(&wire, &every), Ok((want, None)));
    }
}
