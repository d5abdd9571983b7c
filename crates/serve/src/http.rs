//! Minimal HTTP/1.1 request parsing and response serialization.
//!
//! Hand-rolled in the same spirit as the workspace's other wire formats:
//! no external dependency, strict limits, and every failure mapped to a
//! clean 4xx. The server speaks a deliberately small subset —
//! `Content-Length` bodies only (chunked transfer encoding is rejected) —
//! which is all the batching front-end needs and keeps the attack surface
//! enumerable.
//!
//! The parser is **incremental**: [`RequestParser`] is a push parser that
//! accepts raw socket bytes in whatever fragments the kernel delivers,
//! tolerates a request split at any byte boundary, and yields multiple
//! pipelined requests buffered in one read — exactly what the nonblocking
//! reactor ([`crate::reactor`]) needs. It is the only reader of requests,
//! so there is one set of framing rules.
//!
//! Keep-alive is **opt-in**: [`Response::to_bytes`] emits
//! `Connection: keep-alive` only when the server decided to hold the
//! connection open, and `Connection: close` otherwise, so a client that
//! reads to EOF still sees the stream end.

use std::fmt::{self, Write as _};

/// Upper bound on the request line plus all header bytes.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Upper bound on a request body (a sweep spec is a few hundred bytes; a
/// megabyte is already hostile).
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), as sent.
    pub method: String,
    /// Request target, e.g. `/simulate`. Query strings are not split off.
    pub path: String,
    /// Header name/value pairs in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The value of header `name` (ASCII case-insensitive), if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// True when the client explicitly asked to keep the connection open
    /// (`Connection: keep-alive`, possibly in a comma-separated list).
    ///
    /// The server's reuse policy is opt-in rather than the HTTP/1.1
    /// default-on: a client that reads responses to EOF would hang on a
    /// silently persistent connection. Clients that speak `Content-Length`
    /// framing (the fabric client, `load_gen`'s keep-alive mode) send the
    /// header and get reuse.
    #[must_use]
    pub fn wants_keep_alive(&self) -> bool {
        self.header("connection").is_some_and(|v| {
            v.split(',')
                .any(|token| token.trim().eq_ignore_ascii_case("keep-alive"))
        })
    }
}

/// Why a request could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The peer closed the connection before sending a request line — not a
    /// protocol error, just the end of the conversation.
    Closed,
    /// A malformed request line, header, or body framing problem.
    BadRequest(&'static str),
    /// The request line + headers exceeded [`MAX_HEADER_BYTES`].
    HeadersTooLarge,
    /// The declared body length exceeded [`MAX_BODY_BYTES`].
    BodyTooLarge,
    /// A method that carries a body arrived without `Content-Length`.
    LengthRequired,
}

impl HttpError {
    /// The HTTP status code this error maps to.
    #[must_use]
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Closed | HttpError::BadRequest(_) => 400,
            HttpError::HeadersTooLarge => 431,
            HttpError::BodyTooLarge => 413,
            HttpError::LengthRequired => 411,
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::BadRequest(why) => write!(f, "bad request: {why}"),
            HttpError::HeadersTooLarge => {
                write!(f, "request headers exceed {MAX_HEADER_BYTES} bytes")
            }
            HttpError::BodyTooLarge => write!(f, "request body exceeds {MAX_BODY_BYTES} bytes"),
            HttpError::LengthRequired => write!(f, "content-length required"),
        }
    }
}

impl std::error::Error for HttpError {}

/// An incremental (push) HTTP/1.1 request parser.
///
/// Feed raw socket bytes with [`RequestParser::push`]; drain complete
/// requests with [`RequestParser::next_request`]. The parser tolerates
/// requests split across arbitrary TCP segment boundaries (including inside
/// the `\r\n` pair) and multiple pipelined requests arriving in one buffer,
/// and enforces [`MAX_HEADER_BYTES`] and [`MAX_BODY_BYTES`].
///
/// After an `Err` the connection's framing is lost and unrecoverable: the
/// caller must answer with the error's status and close.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
}

/// A successfully scanned request head: the request (body still empty),
/// its byte length, and the declared body length.
struct Head {
    request: Request,
    len: usize,
    body_len: usize,
}

impl RequestParser {
    /// A fresh parser with an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        RequestParser::default()
    }

    /// Appends raw bytes received from the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete request — nonzero
    /// means the peer is mid-request (the reactor's slowloris signal).
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Tries to parse one complete request off the front of the buffer.
    ///
    /// `Ok(None)` means the buffered bytes are a valid prefix — push more.
    /// Pipelined requests are returned one per call, in arrival order.
    ///
    /// # Errors
    ///
    /// Any [`HttpError`] other than [`HttpError::Closed`]: malformed or
    /// oversized framing, detected as soon as the offending line completes.
    pub fn next_request(&mut self) -> Result<Option<Request>, HttpError> {
        let Some(head) = self.scan_head()? else {
            return Ok(None);
        };
        let total = head.len + head.body_len;
        if self.buf.len() < total {
            return Ok(None);
        }
        let mut request = head.request;
        request.body = self.buf[head.len..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(request))
    }

    /// The error to report when the peer hangs up with the parser in this
    /// state: a clean EOF between requests is [`HttpError::Closed`]; EOF
    /// mid-head or mid-body names what was truncated.
    #[must_use]
    pub fn closed(&self) -> HttpError {
        if self.buf.is_empty() {
            return HttpError::Closed;
        }
        match self.scan_head() {
            Ok(Some(_)) => HttpError::BadRequest("body shorter than content-length"),
            Ok(None) => HttpError::BadRequest("connection closed inside headers"),
            Err(e) => e,
        }
    }

    /// Scans the head (request line + headers + blank line) at the front of
    /// the buffer, validating each line as soon as its terminator arrives.
    /// `Ok(None)` means the head is still incomplete.
    fn scan_head(&self) -> Result<Option<Head>, HttpError> {
        let buf = &self.buf;
        let mut pos = 0usize;
        let mut request: Option<Request> = None;
        loop {
            let Some(nl) = buf[pos..].iter().position(|&b| b == b'\n') else {
                // No terminator yet: a peer streaming an endless header
                // line must hit the limit, not our memory.
                return if buf.len() > MAX_HEADER_BYTES {
                    Err(HttpError::HeadersTooLarge)
                } else {
                    Ok(None)
                };
            };
            let line_end = pos + nl;
            let next = line_end + 1;
            if next > MAX_HEADER_BYTES {
                return Err(HttpError::HeadersTooLarge);
            }
            let mut line = &buf[pos..line_end];
            // CRLF canonical, bare LF tolerated.
            if line.last() == Some(&b'\r') {
                line = &line[..line.len() - 1];
            }
            let text = std::str::from_utf8(line)
                .map_err(|_| HttpError::BadRequest("header line is not UTF-8"))?;
            match &mut request {
                None => {
                    if text.is_empty() {
                        return Err(HttpError::BadRequest("empty request line"));
                    }
                    request = Some(parse_request_line(text)?);
                }
                Some(req) => {
                    if text.is_empty() {
                        let req = req.clone();
                        let body_len = body_length(&req)?;
                        return Ok(Some(Head {
                            request: req,
                            len: next,
                            body_len,
                        }));
                    }
                    let (name, value) = text
                        .split_once(':')
                        .ok_or(HttpError::BadRequest("header line without ':'"))?;
                    if name.is_empty() || name.contains(' ') {
                        return Err(HttpError::BadRequest("malformed header name"));
                    }
                    req.headers
                        .push((name.to_ascii_lowercase(), value.trim().to_owned()));
                }
            }
            pos = next;
        }
    }
}

/// Validates and splits `METHOD /target HTTP/1.x`.
fn parse_request_line(text: &str) -> Result<Request, HttpError> {
    let mut parts = text.split(' ');
    let method = parts.next().unwrap_or_default();
    let path = parts
        .next()
        .ok_or(HttpError::BadRequest("request line is missing the target"))?;
    let version = parts
        .next()
        .ok_or(HttpError::BadRequest("request line is missing the version"))?;
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest("malformed request line"));
    }
    if method.is_empty() || !path.starts_with('/') {
        return Err(HttpError::BadRequest("malformed request target"));
    }
    Ok(Request {
        method: method.to_owned(),
        path: path.to_owned(),
        headers: Vec::new(),
        body: Vec::new(),
    })
}

/// Body framing rules: `Content-Length` only, required for body-carrying
/// methods, bounded by [`MAX_BODY_BYTES`].
fn body_length(request: &Request) -> Result<usize, HttpError> {
    if request.header("transfer-encoding").is_some() {
        return Err(HttpError::BadRequest(
            "chunked transfer encoding is not supported",
        ));
    }
    let length = match request.header("content-length") {
        Some(value) => Some(
            value
                .parse::<usize>()
                .map_err(|_| HttpError::BadRequest("invalid content-length"))?,
        ),
        None => None,
    };
    let length = match (length, request.method.as_str()) {
        (Some(n), _) => n,
        (None, "POST" | "PUT" | "PATCH") => return Err(HttpError::LengthRequired),
        (None, _) => 0,
    };
    if length > MAX_BODY_BYTES {
        return Err(HttpError::BodyTooLarge);
    }
    Ok(length)
}

/// An outgoing response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes (always JSON in this server).
    pub body: String,
    /// When set, emitted as a `Retry-After: <seconds>` header — the
    /// load-shedding contract: a shed client learns *when* to come back
    /// instead of guessing.
    pub retry_after: Option<u64>,
}

impl Response {
    /// A JSON response with the given status.
    #[must_use]
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            body: body.into(),
            retry_after: None,
        }
    }

    /// Adds a `Retry-After: <seconds>` header to the response.
    #[must_use]
    pub fn with_retry_after(mut self, seconds: u64) -> Self {
        self.retry_after = Some(seconds);
        self
    }

    /// A JSON error response: `{"error": "<message>"}` with the message
    /// escaped.
    #[must_use]
    pub fn error(status: u16, message: &str) -> Self {
        Response::json(
            status,
            format!("{{\"error\": \"{}\"}}\n", sigcomp_obs::json_escape(message)),
        )
    }

    /// The reactor's read-deadline answer: a connection sat past its
    /// deadline with a partial request buffered (the slowloris shape), so it
    /// gets `408 Request Timeout` and the connection closes.
    #[must_use]
    pub fn request_timeout() -> Self {
        Response::error(408, "request read deadline exceeded")
    }

    /// The accept-gate's shed answer at the connection cap: a fast `503`
    /// telling the client when to retry, written before the socket closes —
    /// the batch queue's load-shedding contract extended to the socket
    /// layer.
    #[must_use]
    pub fn connection_cap(retry_after_secs: u64) -> Self {
        Response::error(503, "connection limit reached").with_retry_after(retry_after_secs)
    }

    /// The full serialized response — status line, `Content-Type`,
    /// `Content-Length`, `Connection`, an optional `Retry-After`, then the
    /// body — as the reactor's write buffer. `keep_alive` emits
    /// `Connection: keep-alive` when the server will keep serving this
    /// connection, `Connection: close` when it will hang up after the body.
    #[must_use]
    pub fn to_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let mut out = String::with_capacity(self.body.len() + 128);
        let _ = write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            status_text(self.status),
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        if let Some(seconds) = self.retry_after {
            let _ = write!(out, "Retry-After: {seconds}\r\n");
        }
        out.push_str("\r\n");
        out.push_str(&self.body);
        out.into_bytes()
    }
}

/// The canonical reason phrase for the status codes this server emits.
#[must_use]
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses one request the way the reactor does: push every byte, take
    /// the next request, and read a hang-up short of one as
    /// [`RequestParser::closed`].
    fn parse(input: &[u8]) -> Result<Request, HttpError> {
        let mut parser = RequestParser::new();
        parser.push(input);
        parser.next_request()?.ok_or_else(|| parser.closed())
    }

    #[test]
    fn parses_a_post_with_body() {
        let req =
            parse(b"POST /simulate HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/simulate");
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn parses_a_get_without_body_and_bare_lf() {
        let req = parse(b"GET /healthz HTTP/1.1\nHost: x\n\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn clean_eof_reads_as_closed() {
        assert_eq!(parse(b"").unwrap_err(), HttpError::Closed);
    }

    #[test]
    fn truncated_headers_are_rejected() {
        for truncated in [
            &b"GET /x HTTP/1.1"[..],           // EOF mid request line
            b"GET /x HTTP/1.1\r\nHost: x",     // EOF mid header
            b"GET /x HTTP/1.1\r\nHost: x\r\n", // EOF before blank line
        ] {
            let err = parse(truncated).unwrap_err();
            assert!(
                matches!(err, HttpError::BadRequest(_)),
                "{truncated:?} gave {err:?}"
            );
            assert_eq!(err.status(), 400);
        }
    }

    #[test]
    fn malformed_request_lines_are_rejected() {
        for bad in [
            &b"\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET /x\r\n\r\n",
            b"GET /x HTTP/2 extra\r\n\r\n",
            b"GET x HTTP/1.1\r\n\r\n",
            b"GET /x FTP/1.1\r\n\r\n",
        ] {
            let err = parse(bad).unwrap_err();
            assert!(
                matches!(err, HttpError::BadRequest(_)),
                "{bad:?} gave {err:?}"
            );
        }
    }

    #[test]
    fn malformed_headers_are_rejected() {
        let err = parse(b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n").unwrap_err();
        assert_eq!(err, HttpError::BadRequest("header line without ':'"));
        let err = parse(b"GET /x HTTP/1.1\r\nbad name: v\r\n\r\n").unwrap_err();
        assert_eq!(err, HttpError::BadRequest("malformed header name"));
        let err = parse(b"GET /x HTTP/1.1\r\nHost: \xff\xfe\r\n\r\n").unwrap_err();
        assert_eq!(err, HttpError::BadRequest("header line is not UTF-8"));
    }

    #[test]
    fn bad_content_length_is_rejected() {
        let err = parse(b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n").unwrap_err();
        assert_eq!(err, HttpError::BadRequest("invalid content-length"));
        assert_eq!(err.status(), 400);
        let err = parse(b"POST /x HTTP/1.1\r\nContent-Length: -1\r\n\r\n").unwrap_err();
        assert_eq!(err, HttpError::BadRequest("invalid content-length"));
    }

    #[test]
    fn missing_content_length_on_post_is_rejected() {
        let err = parse(b"POST /x HTTP/1.1\r\n\r\n").unwrap_err();
        assert_eq!(err, HttpError::LengthRequired);
        assert_eq!(err.status(), 411);
    }

    #[test]
    fn oversized_bodies_are_rejected_without_reading_them() {
        let request = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let err = parse(request.as_bytes()).unwrap_err();
        assert_eq!(err, HttpError::BodyTooLarge);
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn short_bodies_are_rejected() {
        let err = parse(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nonly4").unwrap_err();
        assert_eq!(
            err,
            HttpError::BadRequest("body shorter than content-length")
        );
    }

    #[test]
    fn oversized_headers_are_rejected() {
        let huge = format!(
            "GET /x HTTP/1.1\r\nX-Fill: {}\r\n\r\n",
            "a".repeat(MAX_HEADER_BYTES)
        );
        let err = parse(huge.as_bytes()).unwrap_err();
        assert_eq!(err, HttpError::HeadersTooLarge);
        assert_eq!(err.status(), 431);
        // An endless single line (no terminator at all) must also hit the
        // limit rather than buffering forever.
        let endless = format!("GET /x{}", "a".repeat(MAX_HEADER_BYTES * 2));
        let err = parse(endless.as_bytes()).unwrap_err();
        assert_eq!(err, HttpError::HeadersTooLarge);
    }

    #[test]
    fn chunked_encoding_is_rejected() {
        let err = parse(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err();
        assert_eq!(
            err,
            HttpError::BadRequest("chunked transfer encoding is not supported")
        );
    }

    // ---- incremental-parser hardening ------------------------------------

    #[test]
    fn requests_split_at_every_byte_boundary_parse_identically() {
        let wire = b"POST /simulate HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody";
        let whole = parse(wire).unwrap();
        for split in 0..=wire.len() {
            let mut parser = RequestParser::new();
            parser.push(&wire[..split]);
            if split < wire.len() {
                // A valid prefix must never error or yield a request early.
                assert_eq!(
                    parser.next_request().expect("prefix is valid"),
                    None,
                    "split at {split} yielded a request early"
                );
            }
            parser.push(&wire[split..]);
            let req = parser
                .next_request()
                .unwrap_or_else(|e| panic!("split at {split}: {e}"))
                .unwrap_or_else(|| panic!("split at {split}: incomplete"));
            assert_eq!(req, whole, "split at {split}");
            assert_eq!(parser.buffered(), 0);
        }
    }

    #[test]
    fn two_pipelined_requests_in_one_push_parse_in_order() {
        let mut parser = RequestParser::new();
        parser.push(
            b"POST /simulate HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc\
              GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
        );
        let first = parser.next_request().unwrap().expect("first request");
        assert_eq!(first.method, "POST");
        assert_eq!(first.body, b"abc");
        let second = parser.next_request().unwrap().expect("second request");
        assert_eq!(second.method, "GET");
        assert_eq!(second.path, "/healthz");
        assert_eq!(parser.next_request().unwrap(), None);
        assert_eq!(parser.buffered(), 0);
    }

    #[test]
    fn pipelined_lf_only_requests_parse() {
        // CRLF-only robustness: a peer that terminates every line with a
        // bare LF still frames correctly, including across pipelining.
        let mut parser = RequestParser::new();
        parser.push(b"GET /healthz HTTP/1.1\nHost: a\n\nGET /metrics HTTP/1.1\n\n");
        assert_eq!(parser.next_request().unwrap().unwrap().path, "/healthz");
        assert_eq!(parser.next_request().unwrap().unwrap().path, "/metrics");
        assert_eq!(parser.next_request().unwrap(), None);
    }

    #[test]
    fn partial_bytes_report_truncation_on_close() {
        let mut parser = RequestParser::new();
        assert_eq!(parser.closed(), HttpError::Closed);
        parser.push(b"GET /x HT");
        assert_eq!(parser.next_request().unwrap(), None);
        assert_eq!(
            parser.closed(),
            HttpError::BadRequest("connection closed inside headers")
        );
        let mut parser = RequestParser::new();
        parser.push(b"POST /x HTTP/1.1\r\nContent-Length: 8\r\n\r\nhalf");
        assert_eq!(parser.next_request().unwrap(), None);
        assert_eq!(
            parser.closed(),
            HttpError::BadRequest("body shorter than content-length")
        );
    }

    #[test]
    fn connection_header_negotiates_keep_alive() {
        let keep = parse(b"GET /x HTTP/1.1\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(keep.wants_keep_alive());
        let mixed = parse(b"GET /x HTTP/1.1\r\nConnection: TE, Keep-Alive\r\n\r\n").unwrap();
        assert!(mixed.wants_keep_alive());
        let close = parse(b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!close.wants_keep_alive());
        let none = parse(b"GET /x HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert!(!none.wants_keep_alive(), "keep-alive must be opt-in");
    }

    // ---- responses -------------------------------------------------------

    #[test]
    fn responses_serialize_with_framing() {
        let text =
            String::from_utf8(Response::json(200, "{\"ok\": true}").to_bytes(false)).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 12\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\": true}"));

        let text =
            String::from_utf8(Response::error(400, "broke \"here\"").to_bytes(false)).unwrap();
        assert!(text.contains("400 Bad Request"));
        assert!(text.contains("{\"error\": \"broke \\\"here\\\"\"}"));
    }

    #[test]
    fn keep_alive_responses_say_so() {
        let text = String::from_utf8(Response::json(200, "{}").to_bytes(true)).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        let text = String::from_utf8(Response::json(200, "{}").to_bytes(false)).unwrap();
        assert!(text.contains("Connection: close\r\n"), "{text}");
    }

    #[test]
    fn named_timeout_and_cap_responses_serialize() {
        // 408: the slowloris verdict.
        let text = String::from_utf8(Response::request_timeout().to_bytes(false)).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 408 Request Timeout\r\n"),
            "{text}"
        );
        assert!(text.contains("read deadline"), "{text}");
        // 503 at the connection cap carries the retry hint.
        let text = String::from_utf8(Response::connection_cap(3).to_bytes(false)).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{text}"
        );
        assert!(text.contains("Retry-After: 3\r\n"), "{text}");
        // 431: the oversized-head verdict, with its full reason phrase.
        let oversized = Response::error(
            HttpError::HeadersTooLarge.status(),
            &HttpError::HeadersTooLarge.to_string(),
        );
        let text = String::from_utf8(oversized.to_bytes(false)).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"),
            "{text}"
        );
    }

    #[test]
    fn retry_after_is_emitted_as_a_header() {
        let overloaded = Response::error(503, "overloaded").with_retry_after(2);
        let text = String::from_utf8(overloaded.to_bytes(false)).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"), "{text}");
        // The header block still terminates correctly before the body.
        assert!(text.contains("\r\n\r\n{\"error\""), "{text}");

        let text = String::from_utf8(Response::json(200, "{}").to_bytes(false)).unwrap();
        assert!(!text.contains("Retry-After"), "{text}");
    }
}
