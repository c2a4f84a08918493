//! A deliberately small HTTP/1.1 subset over `std::io` streams: enough
//! for `GET /healthz`, `GET /stats`, and `POST /v1/infer/<variant>`
//! with a binary body, and nothing more.
//!
//! Inference payloads are length-delimited little-endian `f32` vectors
//! (`u32` element count, then the elements), framed inside the HTTP
//! body by `Content-Length`. Both sides of the wire use the same
//! [`encode_f32_body`] / [`decode_f32_body`] pair so the float bits the
//! client sends are exactly the bits the engine evaluates.

use std::io::{self, BufRead, Write};

/// Largest request/response body accepted (4 MiB — far above any toy
/// model's feature width, far below a memory hazard).
pub const MAX_BODY: usize = 4 << 20;

/// Longest accepted request/status/header line.
const MAX_LINE: usize = 8 * 1024;

/// Most headers accepted per message.
const MAX_HEADERS: usize = 64;

/// A protocol violation with a specific HTTP answer — carried as the
/// payload of an `ErrorKind::InvalidData` [`io::Error`] so transport
/// plumbing stays `io::Result`, while the server can answer `413` for
/// an oversized body instead of a blanket `400`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpViolation {
    /// The HTTP status this violation maps onto (`400` or `413`).
    pub status: u16,
    /// Plain-text description, sent as the response body.
    pub message: &'static str,
}

impl std::fmt::Display for HttpViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.message)
    }
}

impl std::error::Error for HttpViolation {}

fn violation(status: u16, message: &'static str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        HttpViolation { status, message },
    )
}

/// The status carried by a protocol violation, if `err` is one (`None`
/// for plain I/O errors — the server answers those with `400`).
pub fn violation_status(err: &io::Error) -> Option<u16> {
    err.get_ref()?
        .downcast_ref::<HttpViolation>()
        .map(|v| v.status)
}

/// A parsed request head plus its body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method verb, uppercased by the client as sent (`GET`, `POST`).
    pub method: String,
    /// Request target, e.g. `/v1/infer/transformer/adaptivfloat8`.
    pub path: String,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A parsed response: status code plus body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The `Retry-After` hint, if the server sent one (whole seconds).
    pub fn retry_after(&self) -> Option<std::time::Duration> {
        self.header("retry-after")
            .and_then(|v| v.trim().parse::<u64>().ok())
            .map(std::time::Duration::from_secs)
    }
}

fn read_line_capped(reader: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte)? {
            0 => {
                if line.is_empty() {
                    return Ok(None);
                }
                break;
            }
            _ => {
                if byte[0] == b'\n' {
                    break;
                }
                line.push(byte[0]);
                if line.len() > MAX_LINE {
                    return Err(violation(400, "header line too long"));
                }
            }
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| violation(400, "non-UTF-8 header line"))
}

/// Parsed header list plus the `Content-Length`, if the peer sent one.
type Headers = (Vec<(String, String)>, Option<usize>);

fn read_headers(reader: &mut impl BufRead) -> io::Result<Headers> {
    let mut headers = Vec::new();
    let mut content_length = None;
    loop {
        let line = read_line_capped(reader)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "eof in headers"))?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(violation(400, "too many headers"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| violation(400, "malformed header"))?;
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            let length = value
                .parse::<usize>()
                .map_err(|_| violation(400, "bad content-length"))?;
            if length > MAX_BODY {
                return Err(violation(413, "body too large"));
            }
            content_length = Some(length);
        }
        headers.push((name, value));
    }
    Ok((headers, content_length))
}

fn read_body(reader: &mut impl BufRead, len: usize) -> io::Result<Vec<u8>> {
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    Ok(body)
}

/// Read one request from a connection. `Ok(None)` means the peer closed
/// the connection cleanly between requests (keep-alive ending).
///
/// # Errors
///
/// I/O failure, or a malformed / oversized message
/// (`ErrorKind::InvalidData`).
pub fn read_request(reader: &mut impl BufRead) -> io::Result<Option<Request>> {
    let Some(start) = read_line_capped(reader)? else {
        return Ok(None);
    };
    let mut parts = start.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m.to_string(), p.to_string()),
        _ => return Err(violation(400, "malformed request line")),
    };
    let (headers, content_length) = read_headers(reader)?;
    // A body-bearing request must declare its length; bodyless verbs
    // default to an empty body.
    let body_len = match content_length {
        Some(len) => len,
        None if method == "POST" => return Err(violation(400, "missing content-length")),
        None => 0,
    };
    let body = read_body(reader, body_len)?;
    Ok(Some(Request {
        method,
        path,
        headers,
        body,
    }))
}

/// An incremental, resumable request parser for readiness-driven
/// reads: the reactor [`feed`](RequestParser::feed)s it whatever bytes
/// a non-blocking read produced — a fraction of a request, exactly one,
/// or several pipelined ones — and drains complete requests with
/// [`next_request`](RequestParser::next_request).
///
/// Semantics mirror [`read_request`] exactly: same line/header/body
/// caps, same [`HttpViolation`] statuses and messages. The blocking
/// reader is the simpler reference, and this module's tests hold the
/// parser to it at every segmentation. Violations are sticky — after
/// one, every further call returns the same error and the connection
/// must close.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted at request boundaries).
    pos: usize,
    state: ParseState,
}

#[derive(Debug, Default)]
enum ParseState {
    /// Between requests, or mid-head: request line + headers are
    /// consumed line-at-a-time as they arrive.
    #[default]
    Start,
    Head(PartialHead),
    Body(PartialHead),
    Failed(HttpViolation),
}

/// A request head mid-parse.
#[derive(Debug)]
struct PartialHead {
    method: String,
    path: String,
    headers: Vec<(String, String)>,
    content_length: Option<usize>,
}

impl RequestParser {
    /// A parser with empty buffers.
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Append bytes from the transport.
    pub fn feed(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Whether a request is partially buffered — bytes after the last
    /// complete request, or an unfinished head/body. Drives the
    /// header (slow-loris) deadline: a connection that sits mid-request
    /// gets the short timer, an idle keep-alive the long one.
    pub fn mid_request(&self) -> bool {
        !matches!(self.state, ParseState::Start) || self.pos < self.buf.len()
    }

    /// Bytes currently buffered and not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Take the next complete line (without its terminator), enforcing
    /// [`MAX_LINE`] even on an unterminated prefix — a dribbling client
    /// cannot grow a line without bound by never sending `\n`. The cap
    /// counts bytes before the `\n` (a trailing `\r` included), exactly
    /// as the blocking reader does.
    fn take_line(&mut self) -> io::Result<Option<String>> {
        let avail = &self.buf[self.pos..];
        let Some(nl) = avail.iter().position(|&b| b == b'\n') else {
            if avail.len() > MAX_LINE {
                return Err(violation(400, "header line too long"));
            }
            return Ok(None);
        };
        if nl > MAX_LINE {
            return Err(violation(400, "header line too long"));
        }
        let mut line = &avail[..nl];
        if line.last() == Some(&b'\r') {
            line = &line[..nl - 1];
        }
        let line = std::str::from_utf8(line)
            .map_err(|_| violation(400, "non-UTF-8 header line"))?
            .to_string();
        self.pos += nl + 1;
        Ok(Some(line))
    }

    /// Consume one header line into the partial head. `Ok(true)` means
    /// the blank end-of-head line was reached.
    fn step_head(&mut self) -> io::Result<Option<bool>> {
        let Some(line) = self.take_line()? else {
            return Ok(None);
        };
        let ParseState::Head(head) = &mut self.state else {
            unreachable!("step_head outside Head state")
        };
        if line.is_empty() {
            return Ok(Some(true));
        }
        if head.headers.len() >= MAX_HEADERS {
            return Err(violation(400, "too many headers"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| violation(400, "malformed header"))?;
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            let length = value
                .parse::<usize>()
                .map_err(|_| violation(400, "bad content-length"))?;
            if length > MAX_BODY {
                return Err(violation(413, "body too large"));
            }
            head.content_length = Some(length);
        }
        head.headers.push((name, value));
        Ok(Some(false))
    }

    fn finish(&mut self, body: Vec<u8>) -> Request {
        let (ParseState::Head(head) | ParseState::Body(head)) = std::mem::take(&mut self.state)
        else {
            unreachable!("finish outside Head/Body state")
        };
        self.compact();
        Request {
            method: head.method,
            path: head.path,
            headers: head.headers,
            body,
        }
    }

    fn step(&mut self) -> io::Result<Option<Request>> {
        loop {
            enum Tag {
                Start,
                Head,
                Body(usize),
            }
            let tag = match &self.state {
                ParseState::Failed(v) => return Err(violation(v.status, v.message)),
                ParseState::Start => Tag::Start,
                ParseState::Head(_) => Tag::Head,
                ParseState::Body(head) => Tag::Body(head.content_length.unwrap_or(0)),
            };
            match tag {
                Tag::Start => {
                    let Some(line) = self.take_line()? else {
                        return Ok(None);
                    };
                    let mut parts = line.split_whitespace();
                    let (method, path) = match (parts.next(), parts.next()) {
                        (Some(m), Some(p)) => (m.to_string(), p.to_string()),
                        _ => return Err(violation(400, "malformed request line")),
                    };
                    self.state = ParseState::Head(PartialHead {
                        method,
                        path,
                        headers: Vec::new(),
                        content_length: None,
                    });
                }
                Tag::Head => {
                    match self.step_head()? {
                        None => return Ok(None),
                        Some(false) => {} // one more header consumed
                        Some(true) => {
                            // End of head: settle the body length the
                            // same way the blocking reader does.
                            let ParseState::Head(head) = &mut self.state else {
                                unreachable!()
                            };
                            let need = match head.content_length {
                                Some(len) => len,
                                None if head.method == "POST" => {
                                    return Err(violation(400, "missing content-length"))
                                }
                                None => 0,
                            };
                            if need == 0 {
                                return Ok(Some(self.finish(Vec::new())));
                            }
                            let ParseState::Head(head) = std::mem::take(&mut self.state) else {
                                unreachable!()
                            };
                            self.state = ParseState::Body(head);
                        }
                    }
                }
                Tag::Body(need) => {
                    if self.buf.len() - self.pos < need {
                        return Ok(None);
                    }
                    let body = self.buf[self.pos..self.pos + need].to_vec();
                    self.pos += need;
                    return Ok(Some(self.finish(body)));
                }
            }
        }
    }

    /// Drop the consumed prefix (called at request boundaries so the
    /// buffer never grows past one request plus whatever the client
    /// pipelined behind it).
    fn compact(&mut self) {
        self.buf.drain(..self.pos);
        self.pos = 0;
    }

    /// Parse and remove the next complete request. `Ok(None)` means
    /// more bytes are needed.
    ///
    /// # Errors
    ///
    /// The same [`HttpViolation`]-carrying `InvalidData` errors as
    /// [`read_request`]. The first violation poisons the parser.
    pub fn next_request(&mut self) -> io::Result<Option<Request>> {
        match self.step() {
            Err(e) => {
                if let Some(v) = e
                    .get_ref()
                    .and_then(|inner| inner.downcast_ref::<HttpViolation>())
                {
                    self.state = ParseState::Failed(*v);
                }
                Err(e)
            }
            ok => ok,
        }
    }
}

/// Read one response from a connection (client side).
///
/// # Errors
///
/// I/O failure, or a malformed / oversized message.
pub fn read_response(reader: &mut impl BufRead) -> io::Result<Response> {
    let status_line = read_line_capped(reader)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"))?;
    // "HTTP/1.1 200 OK"
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| violation(400, "malformed status line"))?;
    let (headers, content_length) = read_headers(reader)?;
    let body = read_body(reader, content_length.unwrap_or(0))?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Write one keep-alive response.
///
/// # Errors
///
/// Propagates I/O failures from the stream.
pub fn write_response(
    writer: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    write_response_with(writer, status, content_type, &[], body)
}

/// [`write_response`] with extra `(name, value)` headers spliced in
/// before the terminating blank line (e.g. `retry-after` on a `429` or
/// `503`). With no extras the wire bytes are identical to
/// [`write_response`]'s.
///
/// # Errors
///
/// Propagates I/O failures from the stream.
pub fn write_response_with(
    writer: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    write!(
        writer,
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
        status,
        status_text(status),
        content_type,
        body.len()
    )?;
    for (name, value) in extra_headers {
        write!(writer, "{name}: {value}\r\n")?;
    }
    writer.write_all(b"connection: keep-alive\r\n\r\n")?;
    writer.write_all(body)?;
    writer.flush()
}

/// Frame an `f32` vector as a binary body: `u32` little-endian count,
/// then each value as little-endian bits.
pub fn encode_f32_body(values: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + values.len() * 4);
    out.extend_from_slice(
        &u32::try_from(values.len())
            .expect("vector too long")
            .to_le_bytes(),
    );
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decode a body produced by [`encode_f32_body`]. Returns `None` when
/// the framing is inconsistent (bad count or trailing bytes).
pub fn decode_f32_body(body: &[u8]) -> Option<Vec<f32>> {
    if body.len() < 4 {
        return None;
    }
    let count = u32::from_le_bytes(body[..4].try_into().ok()?) as usize;
    if body.len() != 4 + count * 4 {
        return None;
    }
    let mut values = Vec::with_capacity(count);
    for chunk in body[4..].chunks_exact(4) {
        values.push(f32::from_le_bytes(chunk.try_into().ok()?));
    }
    Some(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn f32_body_roundtrips_bit_exactly() {
        let values = vec![0.0, -0.0, 1.5, f32::MIN_POSITIVE, -3.25e-7, 1.0e30];
        let decoded = decode_f32_body(&encode_f32_body(&values)).unwrap();
        let got: Vec<u32> = decoded.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn bad_framing_is_rejected() {
        assert_eq!(decode_f32_body(&[]), None);
        assert_eq!(decode_f32_body(&[2, 0, 0, 0, 1, 2, 3, 4]), None);
        let mut long = encode_f32_body(&[1.0]);
        long.push(0);
        assert_eq!(decode_f32_body(&long), None);
    }

    #[test]
    fn request_roundtrip_through_buffers() {
        let body = encode_f32_body(&[1.0, 2.0]);
        let mut wire = format!(
            "POST /v1/infer/m HTTP/1.1\r\nx-deadline-ms: 250\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(&body);
        let mut reader = BufReader::new(&wire[..]);
        let req = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/infer/m");
        assert_eq!(req.header("x-deadline-ms"), Some("250"));
        assert_eq!(decode_f32_body(&req.body).unwrap(), vec![1.0, 2.0]);
        // Clean EOF between requests reads as None.
        assert!(read_request(&mut reader).unwrap().is_none());
    }

    #[test]
    fn response_roundtrip_through_buffers() {
        let mut wire = Vec::new();
        write_response(&mut wire, 429, "text/plain", b"overloaded").unwrap();
        let mut reader = BufReader::new(&wire[..]);
        let resp = read_response(&mut reader).unwrap();
        assert_eq!(resp.status, 429);
        assert_eq!(resp.body, b"overloaded");
        assert_eq!(resp.header("connection"), Some("keep-alive"));
        assert_eq!(resp.retry_after(), None);
    }

    #[test]
    fn extra_headers_splice_before_the_blank_line() {
        let mut plain = Vec::new();
        write_response(&mut plain, 429, "text/plain", b"shed").unwrap();
        let mut with_empty = Vec::new();
        write_response_with(&mut with_empty, 429, "text/plain", &[], b"shed").unwrap();
        assert_eq!(plain, with_empty, "no extras must keep the exact bytes");

        let mut wire = Vec::new();
        write_response_with(
            &mut wire,
            503,
            "text/plain",
            &[("retry-after", "2")],
            b"down",
        )
        .unwrap();
        let mut reader = BufReader::new(&wire[..]);
        let resp = read_response(&mut reader).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after"), Some("2"));
        assert_eq!(resp.retry_after(), Some(std::time::Duration::from_secs(2)));
        assert_eq!(resp.header("connection"), Some("keep-alive"));
    }

    #[test]
    fn oversized_content_length_is_a_413_violation() {
        let wire = format!(
            "POST /x HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let mut reader = BufReader::new(wire.as_bytes());
        let err = read_request(&mut reader).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(violation_status(&err), Some(413));
        assert_eq!(err.to_string(), "body too large");
    }

    #[test]
    fn garbage_content_length_is_a_400_violation() {
        for bad in [
            "notanumber",
            "-5",
            "12abc",
            "99999999999999999999999999",
            "",
        ] {
            let wire = format!("POST /x HTTP/1.1\r\ncontent-length: {bad}\r\n\r\n");
            let mut reader = BufReader::new(wire.as_bytes());
            let err = read_request(&mut reader).unwrap_err();
            assert_eq!(violation_status(&err), Some(400), "content-length {bad:?}");
            assert_eq!(err.to_string(), "bad content-length");
        }
    }

    #[test]
    fn post_without_content_length_is_a_400_violation() {
        let mut reader = BufReader::new(&b"POST /x HTTP/1.1\r\n\r\n"[..]);
        let err = read_request(&mut reader).unwrap_err();
        assert_eq!(violation_status(&err), Some(400));
        assert_eq!(err.to_string(), "missing content-length");
        // Bodyless verbs still default to an empty body.
        let mut reader = BufReader::new(&b"GET /healthz HTTP/1.1\r\n\r\n"[..]);
        let req = read_request(&mut reader).unwrap().unwrap();
        assert!(req.body.is_empty());
    }

    fn infer_wire(n: u32) -> Vec<u8> {
        let body = encode_f32_body(&[n as f32, -(n as f32)]);
        let mut wire = format!(
            "POST /v1/infer/m{n} HTTP/1.1\r\nx-deadline-ms: {n}\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(&body);
        wire
    }

    /// What the blocking reader makes of a byte stream — the reference
    /// the incremental parser must agree with.
    fn blocking_parse_all(wire: &[u8]) -> Vec<Request> {
        let mut reader = BufReader::new(wire);
        let mut out = Vec::new();
        while let Some(req) = read_request(&mut reader).unwrap() {
            out.push(req);
        }
        out
    }

    #[test]
    fn incremental_parser_handles_byte_at_a_time_feeds() {
        let mut wire = infer_wire(1);
        wire.extend_from_slice(&infer_wire(2));
        let want = blocking_parse_all(&wire);
        assert_eq!(want.len(), 2);
        let mut parser = RequestParser::new();
        let mut got = Vec::new();
        for &b in &wire {
            parser.feed(&[b]);
            while let Some(req) = parser.next_request().unwrap() {
                got.push(req);
            }
        }
        assert_eq!(got, want, "dribbled bytes must parse identically");
        assert!(!parser.mid_request(), "stream ended on a boundary");
        assert_eq!(parser.buffered(), 0);
    }

    #[test]
    fn incremental_parser_handles_coalesced_pipelined_requests() {
        // Three pipelined requests arriving in a single read.
        let mut wire = infer_wire(1);
        wire.extend_from_slice(&infer_wire(2));
        wire.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n");
        let want = blocking_parse_all(&wire);
        assert_eq!(want.len(), 3);
        let mut parser = RequestParser::new();
        parser.feed(&wire);
        let mut got = Vec::new();
        while let Some(req) = parser.next_request().unwrap() {
            got.push(req);
        }
        assert_eq!(got, want, "one coalesced feed must yield all three");
    }

    #[test]
    fn incremental_parser_resumes_across_arbitrary_segment_splits() {
        let mut wire = infer_wire(7);
        wire.extend_from_slice(&infer_wire(8));
        let want = blocking_parse_all(&wire);
        // Split the stream at every boundary: head/head, head/body,
        // body/body, request/request — each split must be resumable.
        for split in 1..wire.len() {
            let mut parser = RequestParser::new();
            let mut got = Vec::new();
            parser.feed(&wire[..split]);
            while let Some(req) = parser.next_request().unwrap() {
                got.push(req);
            }
            assert!(got.len() < 2, "split {split}: second request incomplete");
            parser.feed(&wire[split..]);
            while let Some(req) = parser.next_request().unwrap() {
                got.push(req);
            }
            assert_eq!(got, want, "split at byte {split}");
        }
    }

    #[test]
    fn incremental_parser_reports_mid_request_state() {
        let wire = infer_wire(3);
        let mut parser = RequestParser::new();
        assert!(!parser.mid_request(), "fresh parser is idle");
        parser.feed(&wire[..5]);
        assert!(parser.mid_request(), "buffered prefix counts");
        assert!(parser.next_request().unwrap().is_none());
        assert!(parser.mid_request(), "unfinished head counts");
        parser.feed(&wire[5..]);
        assert!(parser.next_request().unwrap().is_some());
        assert!(!parser.mid_request(), "boundary after a full request");
    }

    #[test]
    fn incremental_parser_matches_blocking_violations() {
        // Each malformed stream must produce the same status and
        // message as the blocking reader, and the violation must stick.
        let cases: Vec<Vec<u8>> = vec![
            b"POST /x HTTP/1.1\r\ncontent-length: junk\r\n\r\n".to_vec(),
            format!(
                "POST /x HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
                MAX_BODY + 1
            )
            .into_bytes(),
            b"POST /x HTTP/1.1\r\n\r\n".to_vec(),
            b"POST /x HTTP/1.1\r\nno-colon-here\r\n\r\n".to_vec(),
            b"garbage\r\n\r\n".to_vec(),
            vec![b'a'; MAX_LINE + 2], // unterminated over-long line
        ];
        for wire in cases {
            let mut reader = BufReader::new(&wire[..]);
            let want = read_request(&mut reader).unwrap_err();
            let mut parser = RequestParser::new();
            parser.feed(&wire);
            let got = parser.next_request().unwrap_err();
            assert_eq!(violation_status(&got), violation_status(&want));
            assert_eq!(got.to_string(), want.to_string());
            // Sticky: the poisoned parser repeats the violation.
            let again = parser.next_request().unwrap_err();
            assert_eq!(again.to_string(), want.to_string());
        }
    }

    #[test]
    fn plain_io_errors_carry_no_violation_status() {
        let eof = io::Error::new(io::ErrorKind::UnexpectedEof, "eof in headers");
        assert_eq!(violation_status(&eof), None);
        let mut reader = BufReader::new(&b"POST /x HTTP/1.1\r\nno-colon-here\r\n\r\n"[..]);
        let err = read_request(&mut reader).unwrap_err();
        assert_eq!(violation_status(&err), Some(400));
        assert_eq!(err.to_string(), "malformed header");
    }
}
