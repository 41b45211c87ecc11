//! A minimal blocking HTTP client for the repo benchmark's load
//! generator and the server tests — std-only, keep-alive capable, and
//! chunked-transfer aware (it must reassemble streamed sweep responses
//! byte-exactly to compare them against CLI output).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A decoded response.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The de-chunked (or content-length) body.
    pub body: Vec<u8>,
}

impl Response {
    /// The body as UTF-8 (lossy).
    #[must_use]
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A keep-alive connection to one server.
pub struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:8080`).
    pub fn connect(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Self {
            reader: BufReader::new(stream),
        })
    }

    /// Issues one request on the persistent connection and decodes the
    /// response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<Response, String> {
        let stream = self.reader.get_mut();
        let body = body.unwrap_or("");
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: wrm\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .map_err(|e| format!("write request: {e}"))?;
        stream.flush().map_err(|e| e.to_string())?;
        read_response(&mut self.reader)
    }
}

/// One-shot request on a fresh connection.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<Response, String> {
    Client::connect(addr)?.request(method, path, body)
}

fn read_response<R: BufRead>(reader: &mut R) -> Result<Response, String> {
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .map_err(|e| format!("read status line: {e}"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line {status_line:?}"))?;

    let mut content_length: Option<usize> = None;
    let mut chunked = false;
    loop {
        let mut line = String::new();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("read header: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-headers".into());
        }
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim();
            if name == "content-length" {
                content_length = value.parse().ok();
            } else if name == "transfer-encoding" && value.eq_ignore_ascii_case("chunked") {
                chunked = true;
            }
        }
    }

    let body = if chunked {
        read_chunked(reader)?
    } else {
        let n = content_length.unwrap_or(0);
        let mut body = vec![0u8; n];
        reader
            .read_exact(&mut body)
            .map_err(|e| format!("read body: {e}"))?;
        body
    };
    Ok(Response { status, body })
}

fn read_chunked<R: BufRead>(reader: &mut R) -> Result<Vec<u8>, String> {
    let mut body = Vec::new();
    loop {
        let mut size_line = String::new();
        reader
            .read_line(&mut size_line)
            .map_err(|e| format!("read chunk size: {e}"))?;
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| format!("bad chunk size {size_line:?}"))?;
        if size == 0 {
            // Trailing CRLF after the last-chunk marker.
            let mut end = String::new();
            let _ = reader.read_line(&mut end);
            return Ok(body);
        }
        let start = body.len();
        body.resize(start + size, 0);
        reader
            .read_exact(&mut body[start..])
            .map_err(|e| format!("read chunk: {e}"))?;
        let mut crlf = [0u8; 2];
        reader
            .read_exact(&mut crlf)
            .map_err(|e| format!("read chunk terminator: {e}"))?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn decodes_content_length_and_chunked_bodies() {
        let plain = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc";
        let r = read_response(&mut BufReader::new(&plain[..])).unwrap();
        assert_eq!((r.status, r.body.as_slice()), (200, &b"abc"[..]));

        let chunked =
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nrow\n\r\n5\r\nrows\n\r\n0\r\n\r\n";
        let r = read_response(&mut BufReader::new(&chunked[..])).unwrap();
        assert_eq!(r.text(), "row\nrows\n");

        let bad = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n";
        assert!(read_response(&mut BufReader::new(&bad[..])).is_err());
    }
}
