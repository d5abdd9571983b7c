//! A minimal std-only HTTP/1.1 client — the fabric's outbound half,
//! mirroring the hand-rolled server in `sigcomp-serve`.
//!
//! The client keeps **one pooled keep-alive connection per peer address**:
//! requests send `Connection: keep-alive`, responses are read framed by
//! their `Content-Length` (not to EOF), and the connection goes back into
//! the pool for the next exchange. A worker heartbeating every couple of
//! seconds therefore costs one TCP connection for its whole life, not one
//! per beat. Reconnection is transparent: when a pooled connection turns
//! out to be stale (the server idle-closed it between exchanges), the
//! exchange is retried once on a fresh connection; errors on that fresh
//! connection propagate. A connect timeout, per-operation read/write
//! timeouts, and a hard response-size cap bound every exchange: a stuck or
//! dead peer must turn into a timely named error, never a hang.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read as _, Write as _};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Hard cap on response bodies: a dispatch report for a large sweep runs to
/// a few hundred KiB of cache-entry text, so 64 MiB is comfortably above
/// any legitimate exchange while still bounding a misbehaving peer.
const MAX_RESPONSE_BYTES: usize = 64 * 1024 * 1024;

/// Hard cap on response heads (status line + headers).
const MAX_HEAD_BYTES: usize = 64 * 1024;

/// A parsed HTTP response.
#[derive(Debug)]
pub struct HttpResponse {
    /// Status code from the response line.
    pub status: u16,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body, decoded as (lossy) UTF-8 — every fleet payload is text.
    pub body: String,
}

impl HttpResponse {
    /// The first header named `name` (case-insensitive), if any.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the server committed to keeping the connection open: the
    /// response is framed (`Content-Length`) and does not say
    /// `Connection: close`.
    fn reusable(&self) -> bool {
        self.header("content-length").is_some()
            && !self
                .header("connection")
                .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// A pooling keep-alive client with one timeout governing connect and every
/// read/write operation of a request.
///
/// Clones share the connection pool, so handing copies to helper threads
/// still keeps one connection per peer.
#[derive(Debug, Clone)]
pub struct HttpClient {
    timeout: Duration,
    pool: Arc<Mutex<HashMap<String, TcpStream>>>,
}

impl HttpClient {
    /// A client whose connect/read/write operations each time out after
    /// `timeout` (clamped to at least 1 ms — a zero `Duration` means
    /// "no timeout" to the socket API, the opposite of the intent).
    #[must_use]
    pub fn new(timeout: Duration) -> Self {
        HttpClient {
            timeout: timeout.max(Duration::from_millis(1)),
            pool: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Issues `GET path` against `addr` (a `host:port` authority).
    ///
    /// # Errors
    ///
    /// Any I/O failure (unresolvable address, refused connection, timeout)
    /// or a response that does not parse as HTTP/1.x.
    pub fn get(&self, addr: &str, path: &str) -> io::Result<HttpResponse> {
        self.request("GET", addr, path, "")
    }

    /// Issues `POST path` with the given body against `addr`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`HttpClient::get`].
    pub fn post(&self, addr: &str, path: &str, body: &str) -> io::Result<HttpResponse> {
        self.request("POST", addr, path, body)
    }

    fn request(
        &self,
        method: &str,
        addr: &str,
        path: &str,
        body: &str,
    ) -> io::Result<HttpResponse> {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
            body.len()
        );
        // Try the pooled connection first. Every fleet exchange is
        // idempotent (register/heartbeat/dispatch all converge on repeat),
        // so a failure on a *reused* connection — the server idle-closed it
        // between exchanges — is retried once on a fresh one. Fresh-
        // connection failures propagate: the peer is genuinely unwell.
        if let Some(mut stream) = self.take_pooled(addr) {
            if let Ok(response) = exchange(&mut stream, request.as_bytes()) {
                if response.reusable() {
                    self.pool_back(addr, stream);
                }
                return Ok(response);
            }
        }
        let mut stream = self.connect(addr)?;
        let response = exchange(&mut stream, request.as_bytes())?;
        if response.reusable() {
            self.pool_back(addr, stream);
        }
        Ok(response)
    }

    fn connect(&self, addr: &str) -> io::Result<TcpStream> {
        let sock = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("'{addr}' resolves to no address"),
            )
        })?;
        let stream = TcpStream::connect_timeout(&sock, self.timeout)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        let _ = stream.set_nodelay(true);
        Ok(stream)
    }

    fn take_pooled(&self, addr: &str) -> Option<TcpStream> {
        self.pool.lock().expect("client pool poisoned").remove(addr)
    }

    fn pool_back(&self, addr: &str, stream: TcpStream) {
        self.pool
            .lock()
            .expect("client pool poisoned")
            .insert(addr.to_owned(), stream);
    }
}

/// Writes one request and reads one framed response off the stream.
fn exchange(stream: &mut TcpStream, request: &[u8]) -> io::Result<HttpResponse> {
    stream.write_all(request)?;
    read_response(&mut BufReader::new(stream))
}

/// Reads exactly one response off `reader`: the head up to its blank line
/// (CRLF or bare-LF framing), then a body of exactly `Content-Length`
/// bytes, or to EOF when the server did not frame it — such a response is
/// terminal for the connection. Bytes past a framed response stay in
/// `reader`, so pipelined responses can be read back to back.
///
/// # Errors
///
/// The reader's I/O error, [`io::ErrorKind::UnexpectedEof`] when the peer
/// closed before sending anything, and [`io::ErrorKind::InvalidData`] for
/// a malformed, truncated or oversized response.
pub fn read_response<R: BufRead>(reader: &mut R) -> io::Result<HttpResponse> {
    let bad = |reason: &str| io::Error::new(io::ErrorKind::InvalidData, reason.to_owned());
    let mut head = Vec::new();
    loop {
        let start = head.len();
        let room = (MAX_HEAD_BYTES + 1 - start) as u64;
        if reader.take(room).read_until(b'\n', &mut head)? == 0 && start == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before the response",
            ));
        }
        if head.len() > MAX_HEAD_BYTES {
            return Err(bad("response head exceeds the size cap"));
        }
        match &head[start..] {
            b"\r\n" | b"\n" => break,
            line if !line.ends_with(b"\n") => {
                return Err(bad(
                    "connection closed inside the response head (no header/body separator)",
                ))
            }
            _ => {}
        }
    }
    let (status, headers) = parse_head(&String::from_utf8_lossy(&head))?;
    let content_length: Option<usize> = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse().ok());
    let mut body = Vec::new();
    match content_length {
        Some(len) if len > MAX_RESPONSE_BYTES => {
            return Err(bad("response body exceeds the size cap"));
        }
        Some(len) => {
            reader.take(len as u64).read_to_end(&mut body)?;
            if body.len() < len {
                return Err(bad("connection closed inside the response body"));
            }
        }
        None => {
            // Unframed: the close is the frame. Read to EOF (bounded).
            reader
                .take(MAX_RESPONSE_BYTES as u64 + 1)
                .read_to_end(&mut body)?;
            if body.len() > MAX_RESPONSE_BYTES {
                return Err(bad("response body exceeds the size cap"));
            }
        }
    }
    Ok(HttpResponse {
        status,
        headers,
        body: String::from_utf8_lossy(&body).into_owned(),
    })
}

fn parse_head(head: &str) -> io::Result<(u16, Vec<(String, String)>)> {
    let bad = |reason: &str| io::Error::new(io::ErrorKind::InvalidData, reason.to_owned());
    let mut lines = head.lines();
    let status_line = lines.next().ok_or_else(|| bad("empty response"))?;
    if !status_line.starts_with("HTTP/1.") {
        return Err(bad("response is not HTTP/1.x"));
    }
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("response line carries no status code"))?;
    let headers = lines
        .filter_map(|line| {
            line.split_once(':')
                .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_owned()))
        })
        .collect();
    Ok((status, headers))
}

/// Parses a complete raw response (head and body already in hand) with
/// [`read_response`].
///
/// # Errors
///
/// As [`read_response`].
pub fn parse_response(raw: &[u8]) -> io::Result<HttpResponse> {
    read_response(&mut &raw[..])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn responses_parse_with_status_headers_and_body() {
        let raw = b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\nRetry-After: 2\r\n\r\n{\"error\": \"full\"}";
        let resp = parse_response(raw).expect("parses");
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after"), Some("2"));
        assert_eq!(resp.header("Retry-After"), Some("2"));
        assert_eq!(resp.header("x-missing"), None);
        assert!(resp.body.contains("full"));
    }

    #[test]
    fn malformed_responses_are_named_errors() {
        for (raw, needle) in [
            (&b"not http at all\r\n\r\n"[..], "not HTTP/1.x"),
            (&b"HTTP/1.1\r\n\r\n"[..], "no status code"),
            (&b"HTTP/1.1 200 OK"[..], "no header/body separator"),
        ] {
            let err = parse_response(raw).unwrap_err();
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn dead_addresses_fail_fast_with_io_errors() {
        // Bind then drop: the port is (almost certainly) unreachable, and a
        // connection attempt must come back as an error, not a hang.
        let port = {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr").port()
        };
        let client = HttpClient::new(Duration::from_millis(500));
        assert!(client
            .get(&format!("127.0.0.1:{port}"), "/healthz")
            .is_err());
        assert!(client.get("definitely-not-a-host.invalid:1", "/").is_err());
    }

    /// A tiny keep-alive server: accepts connections (counting them), and on
    /// each serves `responses_per_conn` framed 200s before dropping the
    /// socket without warning.
    fn keepalive_server(responses_per_conn: usize) -> (String, Arc<AtomicUsize>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let accepts = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&accepts);
        std::thread::spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                counter.fetch_add(1, Ordering::SeqCst);
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut stream = stream;
                for _ in 0..responses_per_conn {
                    // Read one request: head lines until blank, then the
                    // Content-Length'd body.
                    let mut body_len = 0_usize;
                    let mut saw_request_line = false;
                    loop {
                        let mut line = String::new();
                        match reader.read_line(&mut line) {
                            Ok(0) => return,
                            Ok(_) => {}
                            Err(_) => return,
                        }
                        if !saw_request_line {
                            saw_request_line = true;
                            continue;
                        }
                        let trimmed = line.trim();
                        if trimmed.is_empty() {
                            break;
                        }
                        if let Some(v) =
                            trimmed.to_ascii_lowercase().strip_prefix("content-length:")
                        {
                            body_len = v.trim().parse().unwrap_or(0);
                        }
                    }
                    let mut body = vec![0_u8; body_len];
                    if body_len > 0 && std::io::Read::read_exact(&mut reader, &mut body).is_err() {
                        return;
                    }
                    let _ = stream.write_all(
                        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\nok",
                    );
                }
                // Drop both halves: an unannounced close, as an idle
                // timeout would produce.
            }
        });
        (addr, accepts)
    }

    #[test]
    fn n_heartbeats_ride_one_pooled_connection() {
        let (addr, accepts) = keepalive_server(usize::MAX);
        let client = HttpClient::new(Duration::from_secs(5));
        for i in 0..5 {
            let resp = client
                .post(&addr, "/heartbeat", &format!("beat {i}"))
                .expect("heartbeat");
            assert_eq!(resp.status, 200);
            assert_eq!(resp.body, "ok");
        }
        assert_eq!(
            accepts.load(Ordering::SeqCst),
            1,
            "five exchanges must share one connection"
        );
    }

    #[test]
    fn a_stale_pooled_connection_reconnects_transparently() {
        // The server hangs up (unannounced) after each response, exactly
        // like an idle-deadline close between heartbeats. Every request
        // must still succeed; the client just redials.
        let (addr, accepts) = keepalive_server(1);
        let client = HttpClient::new(Duration::from_secs(5));
        for _ in 0..3 {
            let resp = client.get(&addr, "/healthz").expect("get");
            assert_eq!(resp.status, 200);
        }
        assert_eq!(accepts.load(Ordering::SeqCst), 3);
    }
}
