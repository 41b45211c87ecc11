//! A minimal HTTP/1.1 layer over `std::net` — exactly the subset the
//! server and its clients need, with no async runtime:
//!
//! * request parsing with `Content-Length` bodies (chunked request
//!   bodies are rejected with 501 by the caller);
//! * keep-alive by default, honoring `Connection: close`;
//! * buffered responses with `Content-Length`, or streamed responses
//!   with `Transfer-Encoding: chunked` via [`ChunkedWriter`] — the
//!   sweep endpoint emits each row group the moment it is ready.

use std::io::{BufRead, Read, Write};

/// Max accepted header block (request line + headers).
const MAX_HEADER_BYTES: usize = 64 * 1024;
/// Max accepted request body. Workflow sources are small; this mostly
/// guards against a client streaming garbage at the server.
const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// Request path, e.g. `/v1/sweep` (query strings are not split off;
    /// no endpoint uses them).
    pub path: String,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header (name matched case-insensitively).
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// True when the client asked to drop the connection after this
    /// response.
    #[must_use]
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why reading a request failed.
#[derive(Debug)]
pub enum ReadError {
    /// The socket read timed out before a full request arrived —
    /// routine on idle keep-alive connections bounded by the server's
    /// read timeout, so callers drop the connection silently.
    TimedOut,
    /// Malformed or oversized request; worth a 400 if the socket is
    /// still writable.
    Bad(String),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::TimedOut => f.write_str("read timed out"),
            ReadError::Bad(msg) => f.write_str(msg),
        }
    }
}

/// Classifies an I/O failure: `SO_RCVTIMEO` expiry surfaces as
/// `TimedOut` on most platforms but as `WouldBlock` (EAGAIN) on Linux,
/// so both kinds mean "the timer fired", not "the request was bad".
fn io_error(context: &str, e: &std::io::Error) -> ReadError {
    match e.kind() {
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => ReadError::TimedOut,
        _ => ReadError::Bad(format!("{context}: {e}")),
    }
}

/// Reads one request off the wire. `Ok(None)` means the peer closed
/// cleanly between requests (normal keep-alive teardown); `Err`
/// distinguishes idle-timeout expiry from malformed or oversized
/// requests.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Option<Request>, ReadError> {
    // The cap must bound *unterminated* lines too: `read_line` buffers
    // until it sees a newline, so without the `take` a client sending
    // one endless header line would grow memory without limit.
    let mut head = (&mut *reader).take(MAX_HEADER_BYTES as u64);
    let mut line = String::new();
    match head.read_line(&mut line) {
        Ok(0) => return Ok(None),
        Ok(_) if !line.ends_with('\n') && head.limit() == 0 => {
            return Err(ReadError::Bad("header block too large".into()));
        }
        Ok(_) => {}
        Err(e) => return Err(io_error("read request line", &e)),
    }
    let mut parts = line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m.to_owned(), p.to_owned(), v),
        _ => return Err(ReadError::Bad(format!("malformed request line: {line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Bad(format!("unsupported protocol {version}")));
    }

    let mut headers = Vec::new();
    loop {
        let mut hline = String::new();
        // Every header line, the blank one included, must end in a
        // newline: a line cut short is the cap or the peer's close, never
        // a finished head.
        match head.read_line(&mut hline) {
            Ok(_) if hline.ends_with('\n') => {}
            Ok(_) if head.limit() == 0 => {
                return Err(ReadError::Bad("header block too large".into()));
            }
            Ok(_) => return Err(ReadError::Bad("connection closed mid-headers".into())),
            Err(e) => return Err(io_error("read header", &e)),
        }
        let trimmed = hline.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        let Some((name, value)) = trimmed.split_once(':') else {
            return Err(ReadError::Bad(format!("malformed header: {trimmed:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    let mut body = Vec::new();
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| ReadError::Bad(format!("bad content-length {v:?}")))
        })
        .transpose()?;
    if let Some(n) = content_length {
        if n > MAX_BODY_BYTES {
            return Err(ReadError::Bad(format!(
                "body of {n} bytes exceeds the {MAX_BODY_BYTES} cap"
            )));
        }
        body.resize(n, 0);
        reader
            .read_exact(&mut body)
            .map_err(|e| io_error("read body", &e))?;
    }

    Ok(Some(Request {
        method,
        path,
        headers,
        body,
    }))
}

/// Writes a complete response with `Content-Length`.
pub fn write_response<W: Write>(
    out: &mut W,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    write!(
        out,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: {connection}\r\n\r\n",
        reason(status),
        body.len()
    )?;
    out.write_all(body)?;
    out.flush()
}

/// A chunked-transfer response in progress: headers go out on
/// construction, each [`chunk`](ChunkedWriter::chunk) flushes
/// immediately, and [`finish`](ChunkedWriter::finish) writes the
/// terminating chunk.
pub struct ChunkedWriter<'a, W: Write> {
    out: &'a mut W,
}

impl<'a, W: Write> ChunkedWriter<'a, W> {
    /// Starts a 200 chunked response.
    pub fn begin(out: &'a mut W, content_type: &str, keep_alive: bool) -> std::io::Result<Self> {
        let connection = if keep_alive { "keep-alive" } else { "close" };
        write!(
            out,
            "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\n\
             Transfer-Encoding: chunked\r\nConnection: {connection}\r\n\r\n"
        )?;
        out.flush()?;
        Ok(Self { out })
    }

    /// Emits one chunk (empty input is skipped — an empty chunk would
    /// terminate the stream).
    pub fn chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.out, "{:x}\r\n", data.len())?;
        self.out.write_all(data)?;
        self.out.write_all(b"\r\n")?;
        self.out.flush()
    }

    /// Writes the terminating zero-length chunk.
    pub fn finish(self) -> std::io::Result<()> {
        self.out.write_all(b"0\r\n\r\n")?;
        self.out.flush()
    }
}

/// Canonical reason phrase for the status codes the server emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /v1/sweep HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let req = read_request(&mut BufReader::new(&raw[..]))
            .expect("parses")
            .expect("present");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/sweep");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body, b"abcd");
        assert!(!req.wants_close());
    }

    #[test]
    fn keep_alive_parses_back_to_back_requests() {
        let raw =
            b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut reader = BufReader::new(&raw[..]);
        let first = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(first.path, "/healthz");
        let second = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(second.path, "/metrics");
        assert!(second.wants_close());
        assert!(read_request(&mut reader).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn rejects_malformed_inputs() {
        for raw in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET / SPDY/3\r\n\r\n",
            b"GET / HTTP/1.1\r\nbroken header\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
            // Cut before the head's last "\n": unfinished, not a GET.
            b"GET / HTTP/1.1\r\nHost: x\r\n\r",
        ] {
            assert!(read_request(&mut BufReader::new(raw)).is_err(), "{raw:?}");
        }
    }

    #[test]
    fn caps_unterminated_header_lines() {
        // A single endless line (no newline anywhere) must error at the
        // header cap instead of buffering without bound.
        let mut raw = vec![b'A'; MAX_HEADER_BYTES * 2];
        raw.splice(0..0, b"GET / HTTP/1.1\r\nX-Pad: ".iter().copied());
        let err = read_request(&mut BufReader::new(&raw[..])).unwrap_err();
        assert!(
            matches!(&err, ReadError::Bad(m) if m.contains("too large")),
            "{err:?}"
        );

        // Same for a request line that never terminates.
        let raw = vec![b'G'; MAX_HEADER_BYTES * 2];
        let err = read_request(&mut BufReader::new(&raw[..])).unwrap_err();
        assert!(
            matches!(&err, ReadError::Bad(m) if m.contains("too large")),
            "{err:?}"
        );
    }

    #[test]
    fn classifies_timeouts_structurally() {
        // SO_RCVTIMEO expiry surfaces as WouldBlock on Linux and
        // TimedOut elsewhere; both must map to ReadError::TimedOut so
        // the server never 400s an idle keep-alive connection.
        struct Failing(std::io::ErrorKind);
        impl Read for Failing {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::from(self.0))
            }
        }
        impl BufRead for Failing {
            fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
                Err(std::io::Error::from(self.0))
            }
            fn consume(&mut self, _: usize) {}
        }
        for kind in [std::io::ErrorKind::WouldBlock, std::io::ErrorKind::TimedOut] {
            let err = read_request(&mut Failing(kind)).unwrap_err();
            assert!(matches!(err, ReadError::TimedOut), "{kind:?}: {err:?}");
        }
        let err = read_request(&mut Failing(std::io::ErrorKind::ConnectionReset)).unwrap_err();
        assert!(matches!(err, ReadError::Bad(_)), "{err:?}");
    }

    #[test]
    fn content_length_response_round_trips() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "text/plain", b"hello", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 5\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\nhello"));
    }

    #[test]
    fn chunked_writer_frames_and_terminates() {
        let mut out = Vec::new();
        {
            let mut w = ChunkedWriter::begin(&mut out, "text/csv", false).unwrap();
            w.chunk(b"row1\n").unwrap();
            w.chunk(b"").unwrap();
            w.chunk(b"row2\n").unwrap();
            w.finish().unwrap();
        }
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked\r\n"));
        assert!(text.contains("5\r\nrow1\n\r\n"));
        assert!(text.ends_with("0\r\n\r\n"));
        assert!(
            !text.contains("\r\n0\r\nrow2"),
            "empty chunk must be skipped"
        );
    }
}
