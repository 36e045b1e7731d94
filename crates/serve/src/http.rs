//! Minimal blocking HTTP/1.1 plumbing for the service front-end.
//!
//! This is deliberately a subset: request line + headers + an optional
//! `Content-Length` body, keep-alive by HTTP/1.1 default, and nothing
//! else (no chunked encoding, no TLS, no compression). The service's
//! request bodies are a few hundred bytes of JSON and its responses are
//! single JSON documents, so the subset is exactly what is exercised.
//! An HTTP/1.0 request closes its connection after the reply, so bare
//! `bash` (`/dev/tcp`) can drive the service without `curl`.

use std::io::{self, BufRead, Read, Write};

/// Cap on the request line plus header block, and on the body: the
/// service's real requests are tiny, so anything huge is a mistake or
/// abuse, not a workload.
const MAX_HEADER_BYTES: usize = 16 * 1024;
const MAX_BODY_BYTES: usize = 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug)]
pub(crate) struct Request {
    /// Request method (`GET`, `POST`, …), uppercased.
    pub method: String,
    /// Request path (`/run`, `/job/3`, …), query string stripped.
    pub path: String,
    /// Request body (empty without a `Content-Length`).
    pub body: String,
    /// Whether the connection stays open after the reply.
    pub keep_alive: bool,
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
/// (client closed between keep-alive requests); errors are malformed,
/// oversized or non-HTTP requests and should close the connection.
pub(crate) fn read_request<R: BufRead>(reader: &mut R) -> io::Result<Option<Request>> {
    let mut budget = MAX_HEADER_BYTES;
    let line = read_bounded_line(reader, &mut budget)?;
    if line.is_empty() {
        return Ok(None);
    }
    let line = line.trim_end_matches(['\r', '\n']);
    if line.is_empty() {
        return Ok(None);
    }

    // HTTP/1.1 keeps the connection open by default, HTTP/1.0 closes it.
    let mut keep_alive = if line.ends_with("HTTP/1.1") {
        true
    } else if line.ends_with("HTTP/1.0") {
        false
    } else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not an HTTP/1.x request line",
        ));
    };
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_ascii_uppercase();
    let target = parts.next().unwrap_or("/");
    let path = target.split('?').next().unwrap_or("/").to_string();

    let mut content_length = 0usize;
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

    Ok(Some(Request {
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

/// Writes one HTTP response with a JSON body: head and body go out in
/// a single write, so a keep-alive client never waits out a delayed ACK
/// between them.
pub(crate) fn write_response(
    w: &mut impl Write,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let mut out = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        status,
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    out.push_str(body);
    w.write_all(out.as_bytes())?;
    w.flush()
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
    fn response_is_one_write() {
        /// Counts `write` calls.
        struct Counting(usize, Vec<u8>);
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0 += 1;
                self.1.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = Counting(0, Vec::new());
        write_response(&mut w, 429, "{}", false).unwrap();
        assert_eq!(w.0, 1);
        assert_eq!(
            String::from_utf8(w.1).unwrap(),
            "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}"
        );
    }

    #[test]
    fn non_http_lines_are_rejected() {
        for line in ["healthz\n", "GET / HTTP/2\r\n\r\n"] {
            let err = read_request(&mut Cursor::new(line)).expect_err(line);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn mutated_requests_never_panic() {
        assert!(matches!(
            read_request(&mut Cursor::new(RUN)),
            Ok(Some(Request { ref path, .. })) if path == "/run"
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
