//! Minimal blocking HTTP/1.1 plumbing for the service front-end.
//!
//! This is deliberately a subset: request line + headers + an optional
//! `Content-Length` body, keep-alive by HTTP/1.1 default, and nothing
//! else (no chunked encoding, no TLS, no compression). The service's
//! request bodies are a few hundred bytes of JSON and its responses are
//! single JSON documents, so the subset is exactly what is exercised.
//!
//! The same port also speaks a one-line **line protocol** (`run {...}`,
//! `job 3`, `metrics`, `healthz`, `shutdown`): the first line of a
//! connection that does not end in `HTTP/1.x` is treated as a command
//! and answered with one line of JSON. That keeps CI smokes and quick
//! pokes possible from bare `bash` (`/dev/tcp`) without `curl`.

use std::io::{self, BufRead, Read, Write};
use std::net::TcpStream;

/// Cap on the request line plus header block, and on the body: the
/// service's real requests are tiny, so anything huge is a mistake or
/// abuse, not a workload.
const MAX_HEADER_BYTES: usize = 16 * 1024;
const MAX_BODY_BYTES: usize = 1024 * 1024;

/// One parsed inbound request, either HTTP or line-protocol.
#[derive(Debug)]
pub enum Request {
    /// A full HTTP request.
    Http {
        /// Request method (`GET`, `POST`, …), uppercased by the client.
        method: String,
        /// Request path (`/run`, `/job/3`, …), query string stripped.
        path: String,
        /// Request body (empty without a `Content-Length`).
        body: String,
        /// Whether the client asked to keep the connection open.
        keep_alive: bool,
    },
    /// A one-line command (`run {...}`, `metrics`, …).
    Line {
        /// The command word.
        cmd: String,
        /// Everything after the command word.
        rest: String,
    },
}

/// Reads one line (newline included) of at most `*budget` bytes and
/// charges its length to `budget`. A line that would overrun the
/// budget is an `InvalidData` error after reading at most one byte past
/// it, so a client that never sends a newline cannot make the server
/// buffer without limit.
fn read_bounded_line<R: BufRead>(reader: &mut R, budget: &mut usize) -> io::Result<String> {
    let mut buf = Vec::new();
    let n = reader
        .take(*budget as u64 + 1)
        .read_until(b'\n', &mut buf)?;
    if n > *budget {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "headers too large",
        ));
    }
    *budget -= n;
    String::from_utf8(buf)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "header not utf-8"))
}

/// Reads one request off the connection. `Ok(None)` is a clean EOF
/// (client closed between keep-alive requests); errors are malformed or
/// oversized requests and should close the connection.
pub fn read_request<R: BufRead>(reader: &mut R) -> io::Result<Option<Request>> {
    let mut budget = MAX_HEADER_BYTES;
    let line = read_bounded_line(reader, &mut budget)?;
    if line.is_empty() {
        return Ok(None);
    }
    let line = line.trim_end_matches(['\r', '\n']);
    if line.is_empty() {
        return Ok(None);
    }

    let is_http = line.ends_with("HTTP/1.1") || line.ends_with("HTTP/1.0");
    if !is_http {
        let (cmd, rest) = match line.split_once(' ') {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        return Ok(Some(Request::Line {
            cmd: cmd.to_ascii_lowercase(),
            rest: rest.to_string(),
        }));
    }

    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_ascii_uppercase();
    let target = parts.next().unwrap_or("/");
    let path = target.split('?').next().unwrap_or("/").to_string();

    let mut content_length = 0usize;
    let mut keep_alive = true; // HTTP/1.1 default
    if line.ends_with("HTTP/1.0") {
        keep_alive = false;
    }
    loop {
        let h = read_bounded_line(reader, &mut budget)?;
        if h.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "eof inside headers",
            ));
        }
        let h = h.trim_end_matches(['\r', '\n']);
        if h.is_empty() {
            break;
        }
        let Some((name, value)) = h.split_once(':') else {
            continue;
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => {
                content_length = value.parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                })?;
            }
            "connection" => {
                if value.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
            _ => {}
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "body too large"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "body not utf-8"))?;

    Ok(Some(Request::Http {
        method,
        path,
        body,
        keep_alive,
    }))
}

/// The reason phrase for the handful of statuses the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Writes one HTTP response with a JSON body.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        status,
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Writes one line-protocol response: the JSON body and a newline.
pub fn write_line(stream: &mut TcpStream, body: &str) -> io::Result<()> {
    stream.write_all(body.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const RUN: &[u8] = b"POST /run HTTP/1.1\r\nHost: x\r\nContent-Length: 35\r\n\r\n{\"app\":\"ll\",\"design\":\"C\",\"scale\":\"tiny\"}";

    #[test]
    fn an_endless_first_line_is_rejected() {
        let mut r = Cursor::new(vec![b'a'; 2 << 20]);
        let err = read_request(&mut r).expect_err("2 MiB line without newline");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            r.position() <= MAX_HEADER_BYTES as u64 + 1,
            "read {} bytes past the cap",
            r.position()
        );
    }

    #[test]
    fn request_line_counts_toward_the_header_cap() {
        let mut req = b"GET /".to_vec();
        req.resize(MAX_HEADER_BYTES - 20, b'a');
        req.extend_from_slice(b" HTTP/1.1\r\nX-Pad: 0123456789abcdef\r\n\r\n");
        assert!(read_request(&mut Cursor::new(req)).is_err());
    }

    #[test]
    fn mutated_requests_never_panic() {
        assert!(matches!(
            read_request(&mut Cursor::new(RUN)),
            Ok(Some(Request::Http { ref path, .. })) if path == "/run"
        ));
        const PIECES: &[u8] = b"\r\n: 0123456789";
        // xorshift64: deterministic mutations without a dependency.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as usize
        };
        for _ in 0..2000 {
            let mut req = RUN.to_vec();
            for _ in 0..1 + next(4) {
                let i = next(req.len() + 1);
                match next(4) {
                    0 if i < req.len() => req[i] = next(256) as u8,
                    1 if i < req.len() => {
                        req.remove(i);
                    }
                    2 => req.insert(i, PIECES[next(PIECES.len())]),
                    _ => req.truncate(i),
                }
            }
            let mut r = Cursor::new(req);
            // Drain every request the bytes hold; each read must end in
            // `Ok` or `Err`, never a panic.
            while let Ok(Some(_)) = read_request(&mut r) {}
        }
    }
}
