//! End-to-end exercise of the reactor front door over real loopback
//! sockets: the failure modes the nonblocking event loop exists to handle
//! — slowloris trickles, keep-alive reuse, close-per-request, pipelined
//! batches, arbitrary TCP segmentation, and admission control at the
//! connection cap — each pinned against a live server.

use sigcomp_fabric::HttpClient;
use sigcomp_serve::{BatchConfig, Json, ServeConfig, Server, ServerHandle};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A minimal raw HTTP/1.1 client: one request, read to connection close.
fn http_raw(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let body = body.unwrap_or_default();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {raw:?}"));
    (status, raw)
}

fn get_json(addr: SocketAddr, path: &str) -> Json {
    let (status, raw) = http_raw(addr, "GET", path, None);
    assert_eq!(status, 200, "{path}: {raw}");
    let payload = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    Json::parse(&payload).unwrap_or_else(|e| panic!("{path}: invalid JSON {e}: {payload}"))
}

fn reactor_counter(addr: SocketAddr, name: &str) -> u64 {
    get_json(addr, "/metrics")
        .get("reactor")
        .and_then(|r| r.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("/metrics missing reactor.{name}"))
}

fn start_server(config: ServeConfig) -> ServerHandle {
    Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        batch: BatchConfig {
            sim_workers: Some(2),
            ..BatchConfig::default()
        },
        ..config
    })
    .expect("bind")
    .spawn()
}

/// One framed keep-alive exchange on an open connection: write the request,
/// read exactly one response (status line, headers, `Content-Length` body).
fn framed_round_trip(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, String) {
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\
         Connection: keep-alive\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send request");
    read_framed_response(reader)
}

fn read_framed_response(reader: &mut BufReader<TcpStream>) -> (u16, String) {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read status line");
    let status: u16 = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed status line: {line:?}"));
    let mut content_length = 0usize;
    loop {
        line.clear();
        reader.read_line(&mut line).expect("read header");
        let trimmed = line.trim();
        if trimmed.is_empty() {
            break;
        }
        if let Some(value) = trimmed.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = value.trim().parse().expect("content-length value");
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("read body");
    (status, String::from_utf8(body).expect("utf-8 body"))
}

#[test]
fn a_slowloris_connection_is_answered_with_408_and_counted() {
    // A client that trickles half a request and then stalls must be told
    // 408 and disconnected when the read deadline lapses — not hold a
    // connection slot forever.
    let server = start_server(ServeConfig {
        read_deadline: Duration::from_millis(200),
        ..ServeConfig::default()
    });
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"POST /simulate HTTP/1.1\r\nHost: slow")
        .expect("send partial request");
    let started = Instant::now();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    assert!(raw.starts_with("HTTP/1.1 408"), "{raw}");
    assert!(raw.contains("Request Timeout"), "{raw}");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "408 must arrive at the configured deadline, not the default"
    );
    assert!(reactor_counter(addr, "request_timeouts") >= 1);

    // The server is unharmed.
    let (status, _) = http_raw(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    server.shutdown();
}

#[test]
fn a_keep_alive_connection_serves_many_requests_and_reuse_is_counted() {
    let server = start_server(ServeConfig::default());
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let body = "{\"workload\": \"rawcaudio\", \"size\": \"tiny\"}";
    let mut job_ids = Vec::new();
    for i in 0..4 {
        let (status, payload) = if i % 2 == 0 {
            framed_round_trip(&mut stream, &mut reader, "POST", "/simulate", body)
        } else {
            framed_round_trip(&mut stream, &mut reader, "GET", "/healthz", "")
        };
        assert_eq!(status, 200, "request {i}: {payload}");
        if i % 2 == 0 {
            let doc = Json::parse(&payload).expect("valid JSON");
            job_ids.push(doc.get("job_id").and_then(Json::as_str).unwrap().to_owned());
        }
    }
    assert_eq!(job_ids[0], job_ids[1], "same spec, same job");

    // Three requests after the first on one connection = three reuses.
    assert!(reactor_counter(addr, "keepalive_reuses") >= 3);
    server.shutdown();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let server = start_server(ServeConfig::default());
    let addr = server.addr();

    // Warm the memo so every pipelined /simulate is a fast-path hit.
    let body = "{\"workload\": \"rawcaudio\", \"size\": \"tiny\"}";
    let (status, _) = http_raw(addr, "POST", "/simulate", Some(body));
    assert_eq!(status, 200);

    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let one = |method: &str, path: &str, body: &str| {
        format!(
            "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\
             Connection: keep-alive\r\n\r\n{body}",
            body.len()
        )
    };
    // One write, four requests; responses must come back in request order.
    let batch = format!(
        "{}{}{}{}",
        one("GET", "/healthz", ""),
        one("POST", "/simulate", body),
        one("GET", "/no-such-endpoint", ""),
        one("GET", "/healthz", "")
    );
    stream.write_all(batch.as_bytes()).expect("send batch");
    let expected = [
        (200, "\"status\": \"ok\""),
        (200, "job_id"),
        (404, ""),
        (200, "\"status\": \"ok\""),
    ];
    for (i, (want_status, want_fragment)) in expected.iter().enumerate() {
        let (status, payload) = read_framed_response(&mut reader);
        assert_eq!(status, *want_status, "response {i}: {payload}");
        assert!(payload.contains(want_fragment), "response {i}: {payload}");
    }
    server.shutdown();
}

#[test]
fn a_request_split_at_arbitrary_byte_boundaries_still_parses() {
    let server = start_server(ServeConfig::default());
    let addr = server.addr();

    let body = "{\"workload\": \"rawcaudio\", \"size\": \"tiny\"}";
    let request = format!(
        "POST /simulate HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let bytes = request.as_bytes();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    // Deliver in three fragments with pauses: the split lands mid-header
    // and mid-body, and each fragment arrives as its own TCP segment.
    let cuts = [0, 17, bytes.len() - 5, bytes.len()];
    for window in cuts.windows(2) {
        stream
            .write_all(&bytes[window[0]..window[1]])
            .expect("send fragment");
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
    assert!(raw.contains("job_id"), "{raw}");
    server.shutdown();
}

#[test]
fn past_the_connection_cap_new_connections_shed_fast_with_503() {
    let server = start_server(ServeConfig {
        max_conns: 2,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    // Occupy both slots with live keep-alive connections; a completed
    // round trip proves each is admitted and registered, not in flight.
    let mut held = Vec::new();
    for _ in 0..2 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let (status, _) = framed_round_trip(&mut stream, &mut reader, "GET", "/healthz", "");
        assert_eq!(status, 200);
        held.push((stream, reader));
    }

    // The next connection must be shed fast: 503 + Retry-After, closed.
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read shed notice");
    assert!(raw.starts_with("HTTP/1.1 503"), "{raw}");
    assert!(
        raw.to_ascii_lowercase().contains("\r\nretry-after: 1\r\n"),
        "{raw}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "the shed must be fast, not queued behind held connections"
    );

    // Release the held slots; once the reactor notices the closes, the
    // metrics endpoint is reachable again and accounts the shed.
    drop(held);
    let deadline = Instant::now() + Duration::from_secs(10);
    let metrics = loop {
        let mut probe = TcpStream::connect(addr).expect("connect");
        probe
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\n\r\n")
            .expect("send probe");
        let mut raw = String::new();
        // A shed closes without reading our request bytes, which can
        // surface client-side as a reset instead of a clean 503 — either
        // way the slot is still taken, so just retry.
        let _ = probe.read_to_string(&mut raw);
        if raw.starts_with("HTTP/1.1 200") {
            let payload = raw
                .split_once("\r\n\r\n")
                .map(|(_, b)| b)
                .unwrap_or_default();
            break Json::parse(payload).expect("valid JSON");
        }
        assert!(Instant::now() < deadline, "slots never freed: {raw}");
        std::thread::sleep(Duration::from_millis(20));
    };
    let reactor = metrics.get("reactor").expect("reactor section");
    let shed = reactor.get("conns_shed").and_then(Json::as_u64).unwrap();
    let accepted = reactor
        .get("conns_accepted")
        .and_then(Json::as_u64)
        .unwrap();
    assert!(shed >= 1, "the 503 must be accounted: {shed}");
    assert!(accepted >= 2, "held connections were admitted: {accepted}");
    server.shutdown();
}

#[test]
fn a_fleet_client_rides_one_pooled_connection_end_to_end() {
    // The fabric HTTP client against a live reactor server: five requests
    // plus the metrics read all ride one pooled keep-alive connection, and
    // the server's own accounting proves it.
    let server = start_server(ServeConfig::default());
    let addr = server.addr().to_string();

    let client = HttpClient::new(Duration::from_secs(10));
    for i in 0..5 {
        let response = client.get(&addr, "/healthz").expect("healthz");
        assert_eq!(response.status, 200, "request {i}: {}", response.body);
    }
    let response = client.get(&addr, "/metrics").expect("metrics");
    assert_eq!(response.status, 200);
    let metrics = Json::parse(&response.body).expect("valid JSON");
    let reactor = metrics.get("reactor").expect("reactor section");
    assert_eq!(
        reactor.get("conns_accepted").and_then(Json::as_u64),
        Some(1),
        "every request must ride the one pooled connection"
    );
    assert_eq!(
        reactor.get("keepalive_reuses").and_then(Json::as_u64),
        Some(5),
        "five requests after the first = five reuses"
    );
    server.shutdown();
}

#[test]
fn a_client_without_keep_alive_gets_one_response_then_eof() {
    // Close-per-request is what a client that sends no `Connection` header
    // gets: one response marked `Connection: close`, then end of stream. A
    // second request pipelined behind the first is never answered.
    let server = start_server(ServeConfig::default());
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    let one = "GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n";
    // One write, so both requests reach the server in the same read.
    stream
        .write_all(format!("{one}{one}").as_bytes())
        .expect("send two requests");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read to EOF");
    assert_eq!(raw.matches("HTTP/1.1 ").count(), 1, "one response: {raw}");
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
    assert!(raw.contains("\r\nConnection: close\r\n"), "{raw}");
    server.shutdown();
}
