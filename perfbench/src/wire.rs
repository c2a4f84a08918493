//! The client side of the wire: HTTP/1.1 request bytes, an incremental
//! response framer for pipelined keep-alive connections, and the
//! open-loop generator that sends a schedule over a few connections from
//! one thread. The generator blocks in `ppoll` until the next send is due
//! or a socket is readable; it never spins.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::measure::{Outcome, Tracer};
use crate::schedule::Arrival;

/// `POST /v1/infer/<variant>` carrying `input` in the server's binary
/// `f32` body framing.
pub fn infer_request(variant: &str, input: &[f32]) -> Vec<u8> {
    let body = af_serve::http::encode_f32_body(input);
    let mut out = format!(
        "POST /v1/infer/{variant} HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(&body);
    out
}

/// `GET /healthz`.
pub const HEALTHZ: &[u8] = b"GET /healthz HTTP/1.1\r\ncontent-length: 0\r\n\r\n";

/// Splits a byte stream into `(status, body)` responses, whether the
/// bytes arrive one response at a time, split mid-message, or several
/// pipelined responses coalesced into one read.
#[derive(Debug, Default)]
pub struct ResponseFramer {
    buf: Vec<u8>,
    start: usize,
}

impl ResponseFramer {
    pub fn feed(&mut self, data: &[u8]) {
        // Drop consumed bytes before the buffer grows.
        self.buf.drain(..self.start);
        self.start = 0;
        self.buf.extend_from_slice(data);
    }

    /// The next complete response, or `None` until more bytes arrive.
    pub fn next(&mut self) -> Result<Option<(u16, Vec<u8>)>, String> {
        let pending = &self.buf[self.start..];
        let Some(head_len) = pending.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head =
            std::str::from_utf8(&pending[..head_len]).map_err(|_| "non-UTF-8 response head")?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| format!("bad status line in {head:?}"))?;
        let mut body_len = 0usize;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    body_len = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad content-length {value:?}"))?;
                }
            }
        }
        let total = head_len + 4 + body_len;
        if pending.len() < total {
            return Ok(None);
        }
        let body = pending[head_len + 4..total].to_vec();
        self.start += total;
        Ok(Some((status, body)))
    }
}

/// Connect with Nagle off (requests are small and latency-bound).
pub fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Send one request on a blocking connection and wait for its response.
pub fn round_trip(
    stream: &mut TcpStream,
    framer: &mut ResponseFramer,
    request: &[u8],
) -> io::Result<(u16, Vec<u8>)> {
    stream.write_all(request)?;
    let mut buf = [0u8; 16 << 10];
    loop {
        if let Some(resp) = framer
            .next()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
        {
            return Ok(resp);
        }
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        framer.feed(&buf[..n]);
    }
}

/// How a reply compares with its reference.
pub fn classify(status: u16, body: &[u8], expected: &[u8]) -> Outcome {
    match status {
        200 if body == expected => Outcome::Ok,
        200 => Outcome::WrongBits,
        429 => Outcome::Shed,
        s => Outcome::Status(s),
    }
}

/// What happened to one scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// When the generator handed the request to the socket.
    pub sent: Instant,
    /// When the reply was read (or when the request was given up on).
    pub done: Instant,
    pub outcome: Outcome,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: std::os::raw::c_long,
    tv_nsec: std::os::raw::c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::os::raw::c_ulong,
        timeout: *const Timespec,
        sigmask: *const u8,
    ) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const POLLERR: i16 = 0x8;
const POLLHUP: i16 = 0x10;

/// Block until a socket is ready or `timeout` passes (nanosecond
/// resolution, unlike `epoll_wait`'s milliseconds).
fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<()> {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as std::os::raw::c_long,
        tv_nsec: timeout.subsec_nanos() as std::os::raw::c_long,
    };
    // SAFETY: `fds` is a valid, exclusively borrowed array of pollfd
    // structs of the stated length; `ts` outlives the call; a null
    // sigmask leaves the signal mask unchanged.
    let rc = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as std::os::raw::c_ulong,
            &ts,
            std::ptr::null(),
        )
    };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(())
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    framer: ResponseFramer,
    inflight: VecDeque<usize>,
    alive: bool,
}

impl Conn {
    fn flush(&mut self) {
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(0) => {
                    self.alive = false;
                    return;
                }
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.alive = false;
                    return;
                }
            }
        }
    }
}

/// Send `schedule` open-loop over `conns` pipelined keep-alive
/// connections (request `i` rides connection `i % conns`), starting at
/// `start`, and wait for replies until every request is answered or
/// `give_up` passes. Requests left unanswered count as transport
/// failures. With tracing on, each answered request leaves a `request`
/// span (due → reply) and a child `send` span.
#[allow(clippy::too_many_arguments)]
pub fn drive<'a>(
    addr: SocketAddr,
    conns: usize,
    start: Instant,
    schedule: &[Arrival],
    request: impl Fn(&Arrival) -> &'a [u8],
    expected: impl Fn(&Arrival) -> &'a [u8],
    give_up: Instant,
    tracer: &Tracer,
) -> io::Result<Vec<Record>> {
    let mut conns = (0..conns)
        .map(|_| {
            let stream = connect(addr)?;
            stream.set_nonblocking(true)?;
            Ok(Conn {
                stream,
                out: Vec::new(),
                framer: ResponseFramer::default(),
                inflight: VecDeque::new(),
                alive: true,
            })
        })
        .collect::<io::Result<Vec<Conn>>>()?;
    let mut records = vec![
        Record {
            sent: give_up,
            done: give_up,
            outcome: Outcome::Transport,
        };
        schedule.len()
    ];
    let mut send_end = vec![give_up; schedule.len()];
    let mut next = 0usize;
    let mut pending = 0usize;
    let mut buf = vec![0u8; 64 << 10];
    let mut fds: Vec<PollFd> = Vec::with_capacity(conns.len());
    loop {
        let now = Instant::now();
        while next < schedule.len() && start + schedule[next].due <= now {
            let lanes = conns.len();
            let conn = &mut conns[next % lanes];
            let t0 = Instant::now();
            records[next].sent = t0;
            if conn.alive {
                conn.out.extend_from_slice(request(&schedule[next]));
                conn.flush();
                conn.inflight.push_back(next);
                pending += 1;
            } else {
                records[next].done = t0;
            }
            send_end[next] = Instant::now();
            next += 1;
        }
        if next == schedule.len() && (pending == 0 || Instant::now() >= give_up) {
            break;
        }
        let wake_at = if next < schedule.len() {
            start + schedule[next].due
        } else {
            give_up
        };
        fds.clear();
        // A dead connection polls as fd -1, which `ppoll` skips (its
        // hang-up would otherwise end every wait at once).
        fds.extend(conns.iter().map(|c| PollFd {
            fd: if c.alive { c.stream.as_raw_fd() } else { -1 },
            events: if c.out.is_empty() {
                POLLIN
            } else {
                POLLIN | POLLOUT
            },
            revents: 0,
        }));
        wait(&mut fds, wake_at.saturating_duration_since(Instant::now()))?;
        for (conn, fd) in conns.iter_mut().zip(&fds) {
            if !conn.alive || fd.revents == 0 {
                continue;
            }
            if fd.revents & POLLOUT != 0 {
                conn.flush();
            }
            if fd.revents & (POLLIN | POLLERR | POLLHUP) == 0 {
                continue;
            }
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        conn.alive = false;
                        break;
                    }
                    Ok(n) => conn.framer.feed(&buf[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        conn.alive = false;
                        break;
                    }
                }
            }
            let done = Instant::now();
            loop {
                let resp = match conn.framer.next() {
                    Ok(Some(resp)) => resp,
                    Ok(None) => break,
                    Err(_) => {
                        conn.alive = false;
                        break;
                    }
                };
                let Some(i) = conn.inflight.pop_front() else {
                    // A reply nobody asked for: the stream is out of step.
                    conn.alive = false;
                    break;
                };
                pending -= 1;
                let a = &schedule[i];
                records[i].done = done;
                records[i].outcome = classify(resp.0, &resp.1, expected(a));
                if tracer.on() {
                    let request_id = i as u64 + 1;
                    let parent = tracer.span("request", start + a.due, done, 0, request_id);
                    tracer.span("send", records[i].sent, send_end[i], parent, request_id);
                }
            }
            if !conn.alive {
                // Everything still queued on a dead connection is lost.
                for i in conn.inflight.drain(..) {
                    records[i].done = done;
                    pending -= 1;
                }
            }
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(status: u16, body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        af_serve::http::write_response(&mut out, status, "application/octet-stream", body).unwrap();
        out
    }

    fn stream() -> (Vec<u8>, Vec<(u16, Vec<u8>)>) {
        // Binary bodies may contain CR LF CR LF themselves.
        let msgs = vec![
            (200, af_serve::http::encode_f32_body(&[1.5, -2.0, 0.25])),
            (429, b"overloaded".to_vec()),
            (200, b"\r\n\r\nHTTP/1.1 200 OK\r\n\r\n".to_vec()),
            (200, Vec::new()),
            (504, b"deadline".to_vec()),
        ];
        let bytes = msgs.iter().flat_map(|(s, b)| response(*s, b)).collect();
        (bytes, msgs)
    }

    fn drain(f: &mut ResponseFramer, out: &mut Vec<(u16, Vec<u8>)>) {
        while let Some(r) = f.next().unwrap() {
            out.push(r);
        }
    }

    #[test]
    fn coalesced_pipelined_responses() {
        let (bytes, want) = stream();
        let mut f = ResponseFramer::default();
        f.feed(&bytes);
        let mut got = Vec::new();
        drain(&mut f, &mut got);
        assert_eq!(got, want);
        assert!(f.next().unwrap().is_none());
    }

    #[test]
    fn responses_split_at_every_byte() {
        let (bytes, want) = stream();
        for chunk in [1, 2, 3, 7, 64] {
            let mut f = ResponseFramer::default();
            let mut got = Vec::new();
            for piece in bytes.chunks(chunk) {
                f.feed(piece);
                drain(&mut f, &mut got);
            }
            assert_eq!(got, want, "chunk size {chunk}");
        }
        // Every two-way split point, including inside the head and body.
        for cut in 0..bytes.len() {
            let mut f = ResponseFramer::default();
            let mut got = Vec::new();
            f.feed(&bytes[..cut]);
            drain(&mut f, &mut got);
            f.feed(&bytes[cut..]);
            drain(&mut f, &mut got);
            assert_eq!(got, want, "cut at {cut}");
        }
    }

    #[test]
    fn malformed_status_line_is_an_error() {
        let mut f = ResponseFramer::default();
        f.feed(b"garbage\r\n\r\n");
        assert!(f.next().is_err());
    }

    #[test]
    fn request_bytes_parse_back_on_the_server() {
        let bytes = infer_request("transformer/fp32", &[0.5, -1.0]);
        let mut parser = af_serve::http::RequestParser::new();
        parser.feed(&bytes);
        let req = parser.next_request().unwrap().unwrap();
        assert_eq!(req.path, "/v1/infer/transformer/fp32");
        assert_eq!(
            af_serve::http::decode_f32_body(&req.body),
            Some(vec![0.5, -1.0])
        );
    }
}
