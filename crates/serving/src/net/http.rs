//! A hand-rolled, strictly-bounded HTTP/1.1 subset.
//!
//! The vendor tree is offline (no tokio, no hyper), and the serving tier
//! needs only a sliver of HTTP: `POST /predict` with a JSON body plus a
//! couple of `GET` probes. What it needs *unconditionally* is bounds —
//! every read in this parser is capped (request-line length, header line
//! length, header count, declared body size) and checked against a
//! wall-clock deadline, so a malformed or hostile peer (slowloris
//! trickles, oversize bodies, over-declared `Content-Length`) yields a
//! clean 4xx and a closed connection, never a panic, an unbounded buffer,
//! or a hung handler thread.
//!
//! The subset: `HTTP/1.0` and `HTTP/1.1` request lines, token methods,
//! plain headers (no obsolete line folding), bodies framed by
//! `Content-Length` only (`Transfer-Encoding` is rejected), keep-alive by
//! default on 1.1 with `Connection: close` honored both ways.

use std::io::{self, BufRead, Write};
use std::time::Instant;

/// Hard caps on what the parser will buffer for one request.
#[derive(Debug, Clone)]
pub struct HttpLimits {
    /// Longest accepted request line (method + target + version), bytes.
    pub max_request_line: usize,
    /// Longest accepted single header line, bytes.
    pub max_header_line: usize,
    /// Most headers accepted on one request.
    pub max_headers: usize,
    /// Largest accepted declared `Content-Length`, bytes.
    pub max_body: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        Self {
            max_request_line: 8 * 1024,
            max_header_line: 8 * 1024,
            max_headers: 64,
            max_body: 4 * 1024 * 1024,
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The method token, uppercased by the wire (`GET`, `POST`, ...).
    pub method: String,
    /// The request target as sent (no normalization beyond stripping the
    /// query string is done here; the router matches it literally).
    pub target: String,
    /// `(name, value)` pairs in wire order; names are lowercased.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes (empty without one).
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Whether the peer asked to close the connection after this request.
    pub fn wants_close(&self) -> bool {
        self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Everything that can go wrong reading one request. Each variant maps to
/// the response the connection handler should attempt before closing —
/// or to "close quietly" for clean EOF / idle timeouts.
#[derive(Debug)]
pub enum HttpError {
    /// Clean EOF before any byte of a request: the peer closed an idle
    /// (keep-alive) connection. Not an error; close quietly.
    ConnectionClosed,
    /// The read deadline or socket timeout expired before any byte of the
    /// request arrived — an idle keep-alive connection. Close quietly.
    IdleTimeout,
    /// The deadline or socket timeout expired mid-request (slowloris).
    Timeout,
    /// The request line exceeded [`HttpLimits::max_request_line`].
    RequestLineTooLong,
    /// The request line was not `METHOD SP TARGET SP VERSION`.
    MalformedRequestLine(String),
    /// An HTTP version other than 1.0/1.1.
    UnsupportedVersion(String),
    /// A header line exceeded [`HttpLimits::max_header_line`].
    HeaderTooLarge,
    /// More than [`HttpLimits::max_headers`] headers.
    TooManyHeaders,
    /// A header line without a colon, an empty name, or a non-token name.
    MalformedHeader(String),
    /// A body-bearing method without a `Content-Length`.
    LengthRequired,
    /// `Content-Length` was not a plain decimal, or two copies disagreed.
    BadLength(String),
    /// `Transfer-Encoding` is outside the subset.
    UnsupportedTransferEncoding,
    /// Declared `Content-Length` exceeds [`HttpLimits::max_body`].
    BodyTooLarge {
        /// What the peer declared.
        declared: usize,
        /// The configured cap.
        max: usize,
    },
    /// The peer closed the connection before sending the declared body
    /// (over-declared `Content-Length`).
    BodyTruncated {
        /// What the peer declared.
        declared: usize,
        /// How many body bytes actually arrived.
        got: usize,
    },
    /// The connection broke mid-request in a way that is not worth (or
    /// not possible) answering.
    Io(io::Error),
}

impl HttpError {
    /// The status code this error answers with, or `None` when the
    /// connection should just be closed (clean EOF, idle timeout, broken
    /// transport).
    pub fn status(&self) -> Option<u16> {
        match self {
            HttpError::ConnectionClosed | HttpError::IdleTimeout | HttpError::Io(_) => None,
            HttpError::Timeout => Some(408),
            HttpError::RequestLineTooLong => Some(414),
            HttpError::MalformedRequestLine(_)
            | HttpError::MalformedHeader(_)
            | HttpError::BadLength(_)
            | HttpError::UnsupportedTransferEncoding
            | HttpError::BodyTruncated { .. } => Some(400),
            HttpError::UnsupportedVersion(_) => Some(505),
            HttpError::HeaderTooLarge | HttpError::TooManyHeaders => Some(431),
            HttpError::LengthRequired => Some(411),
            HttpError::BodyTooLarge { .. } => Some(413),
        }
    }

    /// The error response to attempt before closing the connection, when
    /// one is warranted.
    pub fn response(&self) -> Option<Response> {
        let status = self.status()?;
        Some(Response::json_error(status, &self.to_string()).with_header("connection", "close"))
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::ConnectionClosed => write!(f, "connection closed"),
            HttpError::IdleTimeout => write!(f, "idle connection timed out"),
            HttpError::Timeout => write!(f, "request read timed out"),
            HttpError::RequestLineTooLong => write!(f, "request line too long"),
            HttpError::MalformedRequestLine(l) => write!(f, "malformed request line: {l}"),
            HttpError::UnsupportedVersion(v) => write!(f, "unsupported HTTP version: {v}"),
            HttpError::HeaderTooLarge => write!(f, "header line too large"),
            HttpError::TooManyHeaders => write!(f, "too many headers"),
            HttpError::MalformedHeader(h) => write!(f, "malformed header: {h}"),
            HttpError::LengthRequired => write!(f, "Content-Length required"),
            HttpError::BadLength(v) => write!(f, "bad Content-Length: {v}"),
            HttpError::UnsupportedTransferEncoding => {
                write!(f, "Transfer-Encoding is not supported")
            }
            HttpError::BodyTooLarge { declared, max } => {
                write!(f, "declared body of {declared} bytes exceeds the {max}-byte limit")
            }
            HttpError::BodyTruncated { declared, got } => {
                write!(f, "body truncated: declared {declared} bytes, got {got}")
            }
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// What one bounded line read produced.
enum Line {
    /// A complete line, terminator stripped (`\r\n` or bare `\n`).
    Full(Vec<u8>),
    /// EOF with zero bytes read.
    Eof,
    /// EOF after some bytes (the line never terminated).
    Truncated(Vec<u8>),
}

/// Reads one line, byte-capped at `max` and wall-capped at `deadline`.
fn read_line_bounded(
    r: &mut impl BufRead,
    max: usize,
    deadline: Instant,
) -> Result<Line, HttpError> {
    let mut line = Vec::new();
    loop {
        if Instant::now() > deadline {
            return Err(timeout_for(&line));
        }
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) => {
                return Ok(if line.is_empty() { Line::Eof } else { Line::Truncated(line) });
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return Ok(Line::Full(line));
                }
                line.push(byte[0]);
                if line.len() > max {
                    // The caller maps this to the right too-long error for
                    // the phase it is in; the sentinel is the length.
                    return Err(HttpError::HeaderTooLarge);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Err(timeout_for(&line));
            }
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
}

fn timeout_for(partial: &[u8]) -> HttpError {
    if partial.is_empty() {
        HttpError::IdleTimeout
    } else {
        HttpError::Timeout
    }
}

fn is_token(s: &str) -> bool {
    !s.is_empty() && s.bytes().all(|b| b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b))
}

/// Reads and validates one request from `r` under `limits`, with the
/// whole read (line by line and body) capped at `deadline`.
///
/// The deadline is the slowloris defense: a peer trickling bytes keeps
/// each socket read alive but cannot keep the *request* alive past it.
/// Callers should also set a per-read socket timeout so a fully silent
/// peer wakes the reader at least that often.
pub fn read_request(
    r: &mut impl BufRead,
    limits: &HttpLimits,
    deadline: Instant,
) -> Result<Request, HttpError> {
    // Request line. A leading empty line is tolerated (robustness per RFC
    // 9112 §2.2) but only one, so a newline flood cannot spin the parser.
    let mut line = match read_line_bounded(r, limits.max_request_line, deadline) {
        Ok(Line::Full(l)) => l,
        Ok(Line::Eof) => return Err(HttpError::ConnectionClosed),
        Ok(Line::Truncated(l)) => {
            return Err(HttpError::MalformedRequestLine(lossy_prefix(&l)));
        }
        Err(HttpError::HeaderTooLarge) => return Err(HttpError::RequestLineTooLong),
        Err(e) => return Err(e),
    };
    if line.is_empty() {
        line = match read_line_bounded(r, limits.max_request_line, deadline) {
            Ok(Line::Full(l)) if !l.is_empty() => l,
            Ok(Line::Eof) => return Err(HttpError::ConnectionClosed),
            Ok(Line::Full(_) | Line::Truncated(_)) => {
                return Err(HttpError::MalformedRequestLine(String::new()));
            }
            Err(HttpError::HeaderTooLarge) => return Err(HttpError::RequestLineTooLong),
            Err(e) => return Err(e),
        };
    }
    let text = String::from_utf8(line)
        .map_err(|e| HttpError::MalformedRequestLine(lossy_prefix(e.as_bytes())))?;
    let mut parts = text.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => return Err(HttpError::MalformedRequestLine(lossy_prefix(text.as_bytes()))),
    };
    if !is_token(method) || method.len() > 16 || target.is_empty() {
        return Err(HttpError::MalformedRequestLine(lossy_prefix(text.as_bytes())));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        // 505 only for a real-but-unsupported HTTP version token; a junk
        // third field is just a malformed request line (400).
        return if version.starts_with("HTTP/") {
            Err(HttpError::UnsupportedVersion(version.to_string()))
        } else {
            Err(HttpError::MalformedRequestLine(lossy_prefix(text.as_bytes())))
        };
    }
    let method = method.to_ascii_uppercase();
    let target = target.to_string();

    // Headers.
    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let line = match read_line_bounded(r, limits.max_header_line, deadline)? {
            Line::Full(l) => l,
            Line::Eof | Line::Truncated(_) => {
                return Err(HttpError::MalformedHeader("headers truncated".into()));
            }
        };
        if line.is_empty() {
            break;
        }
        if headers.len() >= limits.max_headers {
            return Err(HttpError::TooManyHeaders);
        }
        // Obsolete line folding (a continuation line starting with
        // whitespace) is outside the subset.
        if line[0] == b' ' || line[0] == b'\t' {
            return Err(HttpError::MalformedHeader("obsolete line folding".into()));
        }
        let text = String::from_utf8(line)
            .map_err(|e| HttpError::MalformedHeader(lossy_prefix(e.as_bytes())))?;
        let Some((name, value)) = text.split_once(':') else {
            return Err(HttpError::MalformedHeader(lossy_prefix(text.as_bytes())));
        };
        if !is_token(name) {
            return Err(HttpError::MalformedHeader(lossy_prefix(text.as_bytes())));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    // Body framing: Content-Length only.
    if headers.iter().any(|(n, _)| n == "transfer-encoding") {
        return Err(HttpError::UnsupportedTransferEncoding);
    }
    let mut declared: Option<usize> = None;
    for (_, value) in headers.iter().filter(|(n, _)| n == "content-length") {
        if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
            return Err(HttpError::BadLength(value.clone()));
        }
        let parsed: usize = value.parse().map_err(|_| HttpError::BadLength(value.clone()))?;
        match declared {
            Some(prev) if prev != parsed => {
                return Err(HttpError::BadLength(format!("{prev} vs {parsed}")));
            }
            _ => declared = Some(parsed),
        }
    }
    let needs_body = matches!(method.as_str(), "POST" | "PUT" | "PATCH");
    let length = match declared {
        Some(n) => n,
        None if needs_body => return Err(HttpError::LengthRequired),
        None => 0,
    };
    if length > limits.max_body {
        return Err(HttpError::BodyTooLarge { declared: length, max: limits.max_body });
    }
    let mut body = vec![0u8; length];
    let mut got = 0usize;
    while got < length {
        if Instant::now() > deadline {
            return Err(HttpError::Timeout);
        }
        match r.read(&mut body[got..]) {
            Ok(0) => return Err(HttpError::BodyTruncated { declared: length, got }),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Err(HttpError::Timeout);
            }
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
    Ok(Request { method, target, headers, body })
}

/// A printable, bounded excerpt of possibly-binary wire bytes for error
/// messages (never echoes more than 64 chars, escapes the rest).
fn lossy_prefix(bytes: &[u8]) -> String {
    let text = String::from_utf8_lossy(bytes);
    let mut out = String::new();
    for c in text.chars().take(64) {
        if c.is_ascii_graphic() || c == ' ' {
            out.push(c);
        } else {
            out.push('.');
        }
    }
    if text.chars().count() > 64 {
        out.push_str("...");
    }
    out
}

/// The reason phrase for the status codes the tier emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Content Too Large",
        414 => "URI Too Long",
        422 => "Unprocessable Content",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Response",
    }
}

/// One response, written with an explicit `Content-Length` always.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond `Content-Length`/`Content-Type`.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
    content_type: &'static str,
}

impl Response {
    /// A JSON response; an owned body (`Vec<u8>`, `String`) moves in
    /// without a copy.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Self { status, headers: Vec::new(), body: body.into(), content_type: "application/json" }
    }

    /// A `{"error": msg}` JSON response.
    pub fn json_error(status: u16, msg: &str) -> Self {
        let mut body = b"{\"error\":".to_vec();
        serde::json::write_str(msg, &mut body);
        body.push(b'}');
        Self::json(status, body)
    }

    /// A plain-text response; an owned body moves in without a copy.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Self { status, headers: Vec::new(), body: body.into(), content_type: "text/plain" }
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// The first value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    /// Serializes the response onto `w` (status line, headers, body).
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        write!(w, "HTTP/1.1 {} {}\r\n", self.status, reason(self.status))?;
        write!(w, "content-type: {}\r\n", self.content_type)?;
        write!(w, "content-length: {}\r\n", self.body.len())?;
        for (name, value) in &self.headers {
            write!(w, "{name}: {value}\r\n")?;
        }
        w.write_all(b"\r\n")?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::time::Duration;

    fn far() -> Instant {
        Instant::now() + Duration::from_secs(5)
    }

    fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut io::BufReader::new(bytes), &HttpLimits::default(), far())
    }

    #[test]
    fn parses_a_post_with_body_and_lowercases_headers() {
        let req = parse(
            b"POST /predict HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 4\r\n\r\nabcd",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/predict");
        assert_eq!(req.header("content-type"), Some("application/json"));
        assert_eq!(req.body, b"abcd");
        assert!(!req.wants_close());
    }

    #[test]
    fn get_without_length_has_empty_body_and_honors_close() {
        let req = parse(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
        assert!(req.wants_close());
    }

    #[test]
    fn bare_lf_lines_are_tolerated() {
        let req = parse(b"GET / HTTP/1.1\nHost: x\n\n").unwrap();
        assert_eq!(req.header("host"), Some("x"));
    }

    #[test]
    fn malformed_inputs_yield_the_right_statuses() {
        let cases: Vec<(&[u8], u16)> = vec![
            (b"NOT A REQUEST\r\n\r\n", 400),
            (b"GET\r\n\r\n", 400),
            (b"GET /x HTTP/2.0\r\n\r\n", 505),
            (b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n", 400),
            (b"GET /x HTTP/1.1\r\n bad: fold\r\n\r\n", 400),
            (b"POST /x HTTP/1.1\r\n\r\n", 411),
            (b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400),
            (b"POST /x HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400),
            (b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nab", 400),
            (b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 400),
            (b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc", 400),
            (b"GET /x HTTP/1.1\r\nheaders never end", 400),
        ];
        for (bytes, want) in cases {
            let err = parse(bytes).unwrap_err();
            assert_eq!(err.status(), Some(want), "{:?} for {:?}", err, lossy_prefix(bytes));
            // Every 4xx/5xx maps to a writable close-bearing response.
            let resp = err.response().unwrap();
            assert_eq!(resp.status, want);
            assert_eq!(resp.header("connection"), Some("close"));
        }
    }

    #[test]
    fn duplicate_equal_lengths_are_accepted() {
        let req =
            parse(b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok").unwrap();
        assert_eq!(req.body, b"ok");
    }

    #[test]
    fn limits_cap_line_headers_and_body() {
        let limits =
            HttpLimits { max_request_line: 32, max_header_line: 32, max_headers: 2, max_body: 8 };
        let parse = |bytes: &[u8]| {
            read_request(&mut io::BufReader::new(bytes), &limits, far()).unwrap_err()
        };
        let long_target = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(64));
        assert_eq!(parse(long_target.as_bytes()).status(), Some(414));
        let long_header = format!("GET /x HTTP/1.1\r\nh: {}\r\n\r\n", "v".repeat(64));
        assert_eq!(parse(long_header.as_bytes()).status(), Some(431));
        assert_eq!(parse(b"GET /x HTTP/1.1\r\na: 1\r\nb: 2\r\nc: 3\r\n\r\n").status(), Some(431));
        assert_eq!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789").status(),
            Some(413)
        );
    }

    #[test]
    fn clean_eof_and_empty_leading_line_are_distinguished() {
        assert!(matches!(parse(b"").unwrap_err(), HttpError::ConnectionClosed));
        // One leading blank line is tolerated...
        let req = parse(b"\r\nGET / HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        // ...two are not.
        assert_eq!(parse(b"\r\n\r\nGET / HTTP/1.1\r\n\r\n").unwrap_err().status(), Some(400));
    }

    #[test]
    fn deadline_expiry_mid_request_is_a_timeout() {
        // A reader that never delivers the body.
        let head = b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\n";
        struct Stall<'a>(&'a [u8]);
        impl Read for Stall<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.0.is_empty() {
                    Err(io::Error::new(io::ErrorKind::WouldBlock, "stalled"))
                } else {
                    let n = buf.len().min(self.0.len());
                    buf[..n].copy_from_slice(&self.0[..n]);
                    self.0 = &self.0[n..];
                    Ok(n)
                }
            }
        }
        let err = read_request(&mut io::BufReader::new(Stall(head)), &HttpLimits::default(), far())
            .unwrap_err();
        assert_eq!(err.status(), Some(408));
        // The same stall before any byte is an idle close, not a 408.
        let err = read_request(&mut io::BufReader::new(Stall(b"")), &HttpLimits::default(), far())
            .unwrap_err();
        assert!(matches!(err, HttpError::IdleTimeout));
        assert_eq!(err.status(), None);
    }

    #[test]
    fn responses_serialize_with_explicit_length() {
        let mut out = Vec::new();
        Response::json(200, "{\"ok\":true}")
            .with_header("retry-after", "2")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.contains("retry-after: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }
}
