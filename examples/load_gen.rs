//! Load generator for the serving front-end, in two modes.
//!
//! **Closed-loop (default):** spins up an in-process `sigcomp-serve` server
//! on an ephemeral port, fires many concurrent clients at `POST /simulate`
//! with heavily overlapping configurations, and then reads `GET /metrics`
//! to show the batching scheduler coalescing the overlap — hundreds of
//! requests, a handful of simulations.
//!
//! ```sh
//! cargo run --release --example load_gen
//! ```
//!
//! **Open-loop (`--mode open`):** drives a *live* server at a target
//! request rate, the way real saturation measurements are taken. Requests
//! are scheduled on a fixed timetable (request *i* fires at `t0 + i/rate`)
//! and latency is measured from the **intended** start, so a slow server
//! cannot hide queueing delay by slowing the generator down (no
//! coordinated omission). Each client holds one keep-alive connection
//! (`--keep-alive`, via the fabric's pooling client) or redials per request.
//!
//! ```sh
//! repro serve --addr 127.0.0.1:8099 &
//! cargo run --release --example load_gen -- --mode open \
//!     --addr 127.0.0.1:8099 --clients 8 --rate 2000 --duration-s 5 \
//!     --keep-alive --p99-budget-ms 250
//! ```
//!
//! The open-loop run exits nonzero if any request fails or the observed
//! p99 exceeds the budget — which is what lets CI use it as a latency gate.

use sigcomp_fabric::{read_response, HttpClient, HttpResponse};
use sigcomp_obs::{Histogram, DEFAULT_SPAN_BOUNDS_US};
use sigcomp_pipeline::OrgKind;
use sigcomp_serve::{BatchConfig, Json, ServeConfig, Server};
use sigcomp_workloads::suite_names;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const CLIENTS: usize = 16;
const REQUESTS_PER_CLIENT: usize = 25;
/// How many times a `503`-shed request is retried (after honoring the
/// server's `Retry-After`) before the load generator gives up on it.
const SHED_RETRIES: u32 = 5;

/// One request on a fresh connection. A response that cannot be read comes
/// back as status 0 with the error as its body.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> HttpResponse {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: load-gen\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send");
    read_response(&mut BufReader::new(stream)).unwrap_or_else(|e| HttpResponse {
        status: 0,
        headers: Vec::new(),
        body: e.to_string(),
    })
}

/// Tallies of every response class the clients saw. The generator's exit
/// code is derived from these: any request that never reached `200` makes
/// the whole run fail.
#[derive(Default)]
struct Outcomes {
    ok: AtomicU64,
    /// `503` sheds that were retried (after the advertised `Retry-After`).
    shed: AtomicU64,
    /// Responses that ended a request without a `200`: any `5xx` other
    /// than a shed, a `4xx`, a malformed response, or a shed that stayed
    /// `503` through every retry.
    failed: AtomicU64,
}

/// Open-loop parameters, parsed from the command line.
struct OpenArgs {
    addr: String,
    clients: usize,
    rate: f64,
    duration: Duration,
    keep_alive: bool,
    p99_budget: Option<Duration>,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut mode = "closed".to_owned();
    let mut open = OpenArgs {
        addr: String::new(),
        clients: 8,
        rate: 500.0,
        duration: Duration::from_secs(5),
        keep_alive: false,
        p99_budget: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("load_gen: {name} needs a value");
                    std::process::exit(2);
                })
                .clone()
        };
        match flag.as_str() {
            "--mode" => mode = value("--mode"),
            "--addr" => open.addr = value("--addr"),
            "--clients" => open.clients = value("--clients").parse().expect("--clients"),
            "--rate" => open.rate = value("--rate").parse().expect("--rate"),
            "--duration-s" => {
                open.duration =
                    Duration::from_secs_f64(value("--duration-s").parse().expect("--duration-s"));
            }
            "--keep-alive" => open.keep_alive = true,
            "--p99-budget-ms" => {
                open.p99_budget = Some(Duration::from_millis(
                    value("--p99-budget-ms").parse().expect("--p99-budget-ms"),
                ));
            }
            other => {
                eprintln!("load_gen: unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    match mode.as_str() {
        "closed" => closed_loop(),
        "open" => open_loop(&open),
        other => {
            eprintln!("load_gen: unknown --mode {other} (closed | open)");
            std::process::exit(2);
        }
    }
}

/// The open-loop driver against a live server.
fn open_loop(args: &OpenArgs) {
    if args.addr.is_empty() {
        eprintln!("load_gen: --mode open needs --addr host:port");
        std::process::exit(2);
    }
    let sock: SocketAddr = args
        .addr
        .to_socket_addrs()
        .expect("resolve --addr")
        .next()
        .expect("--addr resolves");
    let total = (args.rate * args.duration.as_secs_f64()).round().max(1.0) as usize;
    let clients = args.clients.max(1);
    println!(
        "open-loop: {total} requests at {:.0} req/s over {:.1} s, {clients} client(s), keep-alive {}",
        args.rate,
        args.duration.as_secs_f64(),
        if args.keep_alive { "on" } else { "off" },
    );

    // Warm the memo so the measured requests exercise the steady-state
    // serving path, not the first simulation.
    let body = "{\"workload\": \"rawcaudio\", \"size\": \"tiny\"}";
    let warm = HttpClient::new(Duration::from_mins(1));
    let warm_status = warm
        .post(&args.addr, "/simulate", body)
        .map(|r| r.status)
        .expect("warm-up /simulate");
    assert_eq!(warm_status, 200, "warm-up request must succeed");

    let latency = Histogram::new(DEFAULT_SPAN_BOUNDS_US);
    let outcomes = Outcomes::default();
    let t0 = Instant::now() + Duration::from_millis(50);
    std::thread::scope(|scope| {
        for client in 0..clients {
            let latency = &latency;
            let outcomes = &outcomes;
            let args = &args;
            scope.spawn(move || {
                // Each client shares one pooled keep-alive connection for
                // its whole run via the fabric client.
                let ka = HttpClient::new(Duration::from_mins(1));
                // Requests are striped across clients; each fires on the
                // global timetable regardless of how long the last one took.
                for i in (client..total).step_by(clients) {
                    let intended = t0 + Duration::from_secs_f64(i as f64 / args.rate);
                    let now = Instant::now();
                    if intended > now {
                        std::thread::sleep(intended - now);
                    }
                    let status = if args.keep_alive {
                        ka.post(&args.addr, "/simulate", body)
                            .map_or(0, |r| r.status)
                    } else {
                        http(sock, "POST", "/simulate", body).status
                    };
                    // Intended-start latency: queueing delay from falling
                    // behind the timetable counts against the server.
                    let waited = intended.elapsed();
                    latency.observe(waited.as_micros().min(u128::from(u64::MAX)) as u64);
                    if status == 200 {
                        outcomes.ok.fetch_add(1, Ordering::Relaxed);
                    } else {
                        outcomes.failed.fetch_add(1, Ordering::Relaxed);
                        eprintln!("request {i} failed with status {status}");
                    }
                }
            });
        }
    });

    let (ok, failed) = (
        outcomes.ok.load(Ordering::Relaxed),
        outcomes.failed.load(Ordering::Relaxed),
    );
    let snap = latency.snapshot();
    let p99_us = snap.quantile(0.99);
    println!("responses: {ok} ok, {failed} failed");
    println!(
        "intended-start latency: p50 {:.0} us, p95 {:.0} us, p99 {p99_us:.0} us (max {} us)",
        snap.quantile(0.50),
        snap.quantile(0.95),
        snap.max
    );
    if failed > 0 {
        eprintln!("load_gen: {failed} of {total} requests failed");
        std::process::exit(1);
    }
    if let Some(budget) = args.p99_budget {
        let budget_us = budget.as_micros() as f64;
        if p99_us > budget_us {
            eprintln!("load_gen: p99 {p99_us:.0} us exceeds the {budget_us:.0} us budget");
            std::process::exit(1);
        }
        println!("p99 within budget ({p99_us:.0} us <= {budget_us:.0} us)");
    }
}

/// The original closed-loop in-process demo (and smoke test).
fn closed_loop() {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        batch: BatchConfig {
            max_batch: 64,
            queue_capacity: 512,
            sim_workers: None, // all cores
            ..BatchConfig::default()
        },
        ..ServeConfig::default()
    })
    .expect("bind")
    .spawn();
    let addr = server.addr();
    println!("serving on http://{addr}");

    // The request mix: every workload in the suite under three
    // organizations at the tiny size — 33 distinct configurations that
    // CLIENTS × REQUESTS_PER_CLIENT = 400 requests keep revisiting.
    let orgs = [
        OrgKind::Baseline32,
        OrgKind::ByteSerial,
        OrgKind::SemiParallel,
    ];
    let mix: Vec<String> = suite_names()
        .iter()
        .flat_map(|workload| {
            orgs.iter().map(move |org| {
                format!(
                    "{{\"workload\": \"{workload}\", \"size\": \"tiny\", \"org\": \"{}\"}}",
                    org.id()
                )
            })
        })
        .collect();

    // Client-observed end-to-end latency, all clients into one histogram —
    // the same shared-handle pattern the server uses internally, so the
    // quantiles below come from the same bucket math as `/metrics`.
    let latency = Histogram::new(DEFAULT_SPAN_BOUNDS_US);
    let outcomes = Outcomes::default();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let mix = &mix;
            let latency = &latency;
            let outcomes = &outcomes;
            scope.spawn(move || {
                for i in 0..REQUESTS_PER_CLIENT {
                    // Each client walks the mix from a different offset so
                    // in-flight batches overlap across clients.
                    let body = &mix[(client * 7 + i) % mix.len()];
                    let sent = Instant::now();
                    let mut attempts = 0;
                    loop {
                        let response = http(addr, "POST", "/simulate", body);
                        let status = response.status;
                        if status == 503 && attempts < SHED_RETRIES {
                            // Shed under load: honor the server's
                            // Retry-After and try again.
                            attempts += 1;
                            outcomes.shed.fetch_add(1, Ordering::Relaxed);
                            let wait = response
                                .header("retry-after")
                                .and_then(|value| value.parse().ok())
                                .unwrap_or(1u64);
                            std::thread::sleep(Duration::from_secs(wait));
                            continue;
                        }
                        if status == 200 {
                            outcomes.ok.fetch_add(1, Ordering::Relaxed);
                        } else {
                            outcomes.failed.fetch_add(1, Ordering::Relaxed);
                            eprintln!(
                                "request failed: {status} for {body}: {}",
                                response.body.lines().next().unwrap_or_default()
                            );
                        }
                        break;
                    }
                    latency.observe(sent.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
                }
            });
        }
    });
    let wall = started.elapsed();

    let total = CLIENTS * REQUESTS_PER_CLIENT;
    println!(
        "{total} requests from {CLIENTS} clients in {:.2} s ({:.0} req/s)",
        wall.as_secs_f64(),
        total as f64 / wall.as_secs_f64()
    );
    let (ok, shed, failed) = (
        outcomes.ok.load(Ordering::Relaxed),
        outcomes.shed.load(Ordering::Relaxed),
        outcomes.failed.load(Ordering::Relaxed),
    );
    println!("responses: {ok} ok, {shed} shed-then-retried (503), {failed} failed");
    let snap = latency.snapshot();
    println!(
        "client latency: p50 {:.0} us, p95 {:.0} us, p99 {:.0} us (min {} us, max {} us)",
        snap.quantile(0.50),
        snap.quantile(0.95),
        snap.quantile(0.99),
        snap.min,
        snap.max
    );

    let response = http(addr, "GET", "/metrics", "");
    assert_eq!(response.status, 200);
    let metrics = Json::parse(&response.body).expect("metrics JSON parses");
    let batch = metrics.get("batch").expect("batch section");
    // Strict decode: a missing or non-exact counter fails with the decoder's
    // named reason instead of silently reading as 0 and faking a perfect
    // dedup factor.
    let field = |name: &str| {
        batch
            .get(name)
            .unwrap_or_else(|| panic!("metrics counter '{name}' is missing"))
            .to_u64()
            .unwrap_or_else(|e| panic!("metrics counter '{name}' {e}"))
    };
    let requested = field("jobs_requested");
    let simulated = field("jobs_simulated");
    println!(
        "batching: {requested} jobs requested -> {simulated} simulated \
         ({} memo hits, {} coalesced in-batch, largest batch {})",
        field("jobs_memo_hits"),
        field("jobs_batch_deduped"),
        field("largest_batch"),
    );
    assert!(
        simulated <= mix.len() as u64,
        "must not simulate more than the distinct configurations"
    );
    println!(
        "deduplication factor: {:.1}x ({} distinct configurations in the mix)",
        requested as f64 / simulated.max(1) as f64,
        mix.len()
    );
    server.shutdown();
    if failed > 0 {
        eprintln!("load_gen: {failed} of {total} requests failed");
        std::process::exit(1);
    }
}
