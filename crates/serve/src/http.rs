//! Minimal HTTP/1.1 request parsing and response writing over any
//! `Read`/`Write` pair.
//!
//! The build environment has no crate-registry access, so the server
//! speaks just enough HTTP/1.1 itself: one request per connection
//! (`Connection: close` semantics), `Content-Length` bodies only, with
//! hard caps on header count and body size so a misbehaving client
//! cannot balloon memory.

use std::io::{BufRead, Read, Write};
use std::time::Instant;

/// Maximum accepted request body, bytes.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Maximum accepted header count.
pub const MAX_HEADERS: usize = 64;

/// Maximum accepted request-line / header-line length, bytes.
pub const MAX_LINE_BYTES: usize = 8 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, uppercased as received (`GET`, `POST`, ...).
    pub method: String,
    /// Request target path, e.g. `/predict`.
    pub path: String,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Request-parsing failures, each mapped to an HTTP status by the server.
#[derive(Debug)]
pub enum HttpError {
    /// Underlying socket failure (including read timeouts).
    Io(std::io::Error),
    /// The peer closed the connection before sending a request line.
    Closed,
    /// The bytes are not a parseable HTTP/1.1 request.
    Malformed(&'static str),
    /// The declared body exceeds [`MAX_BODY_BYTES`].
    BodyTooLarge(usize),
    /// The request was not fully received before its read deadline (a
    /// slow-loris defense; the server answers `504`).
    DeadlineExceeded,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "socket error: {e}"),
            Self::Closed => write!(f, "connection closed before a request arrived"),
            Self::Malformed(what) => write!(f, "malformed request: {what}"),
            Self::BodyTooLarge(n) => {
                write!(
                    f,
                    "request body of {n} bytes exceeds the {MAX_BODY_BYTES}-byte cap"
                )
            }
            Self::DeadlineExceeded => {
                write!(f, "request was not fully received before its read deadline")
            }
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

fn read_line<R: BufRead>(reader: &mut R) -> Result<String, HttpError> {
    let mut line = String::new();
    // Cap line length by reading through a take() adapter: a single
    // overlong line errors out instead of growing unboundedly.
    let n = reader
        .by_ref()
        .take(MAX_LINE_BYTES as u64)
        .read_line(&mut line)?;
    if n == 0 {
        return Err(HttpError::Closed);
    }
    if !line.ends_with('\n') && n >= MAX_LINE_BYTES {
        return Err(HttpError::Malformed("header line too long"));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

/// Read and parse one HTTP/1.1 request from `reader`.
///
/// # Errors
///
/// [`HttpError`] on socket failure, early close, malformed syntax, or an
/// oversized body.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Request, HttpError> {
    read_request_before(reader, None)
}

/// [`read_request`] with an optional read deadline: the deadline is
/// checked between line reads and before the body read, so a client that
/// trickles headers (slow loris) is cut off with
/// [`HttpError::DeadlineExceeded`] instead of holding the connection for
/// one socket timeout per header line. Each individual blocking read is
/// still bounded by the socket's read timeout, so the worst-case pin is
/// the deadline plus one socket timeout.
///
/// # Errors
///
/// As [`read_request`], plus [`HttpError::DeadlineExceeded`] once
/// `deadline` passes.
pub fn read_request_before<R: BufRead>(
    reader: &mut R,
    deadline: Option<Instant>,
) -> Result<Request, HttpError> {
    let check_deadline = || -> Result<(), HttpError> {
        match deadline {
            Some(d) if Instant::now() > d => Err(HttpError::DeadlineExceeded),
            _ => Ok(()),
        }
    };
    let request_line = read_line(reader)?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or(HttpError::Malformed("empty request line"))?
        .to_owned();
    let path = parts
        .next()
        .ok_or(HttpError::Malformed("request line lacks a path"))?
        .to_owned();
    let version = parts
        .next()
        .ok_or(HttpError::Malformed("request line lacks an HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("unsupported protocol version"));
    }

    let mut headers = Vec::new();
    let mut content_length: usize = 0;
    loop {
        check_deadline()?;
        let line = read_line(reader)?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::Malformed("too many headers"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("header lacks a colon"))?;
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_owned();
        if name == "content-length" {
            content_length = value
                .parse()
                .map_err(|_| HttpError::Malformed("unparseable content-length"))?;
        }
        headers.push((name, value));
    }

    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::BodyTooLarge(content_length));
    }
    check_deadline()?;
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;

    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// An HTTP response ready to serialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code, e.g. 200.
    pub status: u16,
    /// Value of the `Content-Type` header.
    pub content_type: String,
    /// Extra headers beyond the always-emitted `Content-Type`,
    /// `Content-Length`, and `Connection: close`.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "application/json".to_owned(),
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A plain-text response with the given status and content type
    /// (e.g. the Prometheus exposition format for `/metrics`).
    pub fn text(status: u16, content_type: &str, body: String) -> Self {
        Self {
            status,
            content_type: content_type.to_owned(),
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A JSON error response shaped `{"error": "..."}`.
    pub fn error(status: u16, message: &str) -> Self {
        let body = serde_json::json!({ "error": message });
        Self::json(status, body.to_string())
    }

    /// Append a header.
    #[must_use]
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_owned(), value.to_owned()));
        self
    }

    /// Serialize the response to `writer` with `Connection: close`
    /// semantics (the server handles one request per connection). Head
    /// and body leave in a single write: on a `TCP_NODELAY` socket two
    /// writes would be two segments.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn write_to<W: Write>(&self, writer: &mut W) -> std::io::Result<()> {
        let mut wire = Vec::with_capacity(128 + self.body.len());
        write!(
            wire,
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n",
            self.status,
            reason_phrase(self.status),
            self.content_type,
            self.body.len()
        )?;
        for (name, value) in &self.headers {
            write!(wire, "{name}: {value}\r\n")?;
        }
        wire.extend_from_slice(b"\r\n");
        wire.extend_from_slice(&self.body);
        writer.write_all(&wire)?;
        writer.flush()
    }
}

/// Canonical reason phrase for the status codes the server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(bytes))
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_with_content_length_body() {
        let req = parse(
            b"POST /predict HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 7\r\n\r\n{\"a\":1}",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"{\"a\":1}");
    }

    #[test]
    fn rejects_oversized_bodies_and_garbage() {
        let huge = format!(
            "POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse(huge.as_bytes()),
            Err(HttpError::BodyTooLarge(_))
        ));
        assert!(matches!(parse(b""), Err(HttpError::Closed)));
        assert!(matches!(
            parse(b"NOT-HTTP\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nbroken header line\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_missing_or_garbage_http_version() {
        // No version token at all: previously this silently defaulted to
        // HTTP/1.1; now it is a 400-mapped parse error.
        assert!(matches!(
            parse(b"GET /healthz\r\n\r\n"),
            Err(HttpError::Malformed("request line lacks an HTTP version"))
        ));
        // A garbage version token is rejected too.
        assert!(matches!(
            parse(b"GET /healthz FTP/9000\r\n\r\n"),
            Err(HttpError::Malformed("unsupported protocol version"))
        ));
        // HTTP/1.0 and HTTP/1.1 both still parse.
        assert!(parse(b"GET / HTTP/1.0\r\n\r\n").is_ok());
        assert!(parse(b"GET / HTTP/1.1\r\n\r\n").is_ok());
    }

    #[test]
    fn header_read_deadline_cuts_off_slow_clients() {
        // A deadline already in the past trips between the request line
        // and the first header line.
        let past = Instant::now() - std::time::Duration::from_millis(10);
        let bytes: &[u8] = b"GET / HTTP/1.1\r\nHost: x\r\n\r\n";
        assert!(matches!(
            read_request_before(&mut BufReader::new(bytes), Some(past)),
            Err(HttpError::DeadlineExceeded)
        ));
        // A generous deadline lets the same request through.
        let future = Instant::now() + std::time::Duration::from_secs(60);
        let req = read_request_before(&mut BufReader::new(bytes), Some(future)).unwrap();
        assert_eq!(req.path, "/");
        // 504 has a proper reason phrase for the deadline responses.
        assert_eq!(reason_phrase(504), "Gateway Timeout");
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        Response::json(200, "{}".to_owned())
            .with_header("x-cache", "hit")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("x-cache: hit\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn retry_after_status_line() {
        let mut out = Vec::new();
        Response::error(503, "queue full")
            .with_header("retry-after", "1")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.contains("queue full"));
    }
}
