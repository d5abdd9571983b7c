//! serve-mix: an in-process reactor server under its users' traffic.
//!
//! A fresh server (with a throwaway disk cache) is started for every pass
//! and every open-loop step. A pass is a cold synchronous `POST /sweep` of
//! the kernel space (batcher, simulation, cache store, outcome JSON), then
//! bursts of single `POST /simulate` requests for the same configurations
//! over keep-alive connections, each one a memo hit answered on the event
//! loop (HTTP parse, JSON, memo probe, response encoding). A step is
//! open-loop `POST /simulate` traffic: hits repeat a body already answered,
//! misses are first-time configurations (batcher, simulation, cache store).
//! Its latencies are printed for people but not gated.

use crate::check;
use crate::openloop::{self, Planned};
use crate::sweeps::{kernel_spec, SMOKE_KERNELS};
use crate::util::{median, quantile, secs, shuffle, timed, Report};
use crate::Ctx;
use sigcomp_explore::{simulate_job, JobMetrics, JobSpec, ResultCache, SweepSpec};
use sigcomp_fabric::HttpClient;
use sigcomp_serve::{BatchConfig, Json, ServeConfig, Server, ServerHandle};
use sigcomp_workloads::{find, WorkloadSize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Client timeout: a request slower than this counts as failed.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);
/// Distinct configurations answered before each open-loop step.
const PRIMED: usize = 32;
/// Share of open-loop requests that repeat a primed configuration.
const HIT_SHARE: f64 = 0.5;
/// Open-loop rate (requests/s) at which the latencies are taken, and how
/// long each step runs. The mix (this rate, `HIT_SHARE`, `PRIMED`) is a
/// chosen one, not measured traffic.
const REFERENCE_RATE: f64 = 200.0;
const STEP_S: f64 = 1.5;

pub fn body(spec: &JobSpec) -> String {
    format!(
        "{{\"workload\": \"{}\", \"size\": \"{}\", \"scheme\": \"{}\", \"org\": \"{}\", \"mem\": \"{}\"}}",
        spec.workload,
        spec.size.name(),
        spec.scheme.id(),
        spec.org.id(),
        spec.mem.id()
    )
}

/// One answered request kept for checking: which configuration, whether it
/// should have come from the memo, and the response body.
pub type Answer = (usize, bool, String);

/// A running server, the address it listens on, and how long it took from
/// binding until every server thread was spawned (the listener accepts
/// from then on; `/healthz` is checked after, untimed).
pub struct Live {
    pub handle: ServerHandle,
    pub addr: String,
    pub startup_s: f64,
}

pub fn start(ctx: &Ctx) -> std::io::Result<Live> {
    let cache = ResultCache::open(ctx.work.fresh("serve-cache"))?;
    let began = Instant::now();
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        batch: BatchConfig {
            sim_workers: Some(ctx.nproc),
            disk_cache: Some(cache),
            ..BatchConfig::default()
        },
        ..ServeConfig::default()
    })?;
    let handle = server.spawn();
    let startup_s = secs(began.elapsed());
    let addr = handle.addr().to_string();
    let ok = HttpClient::new(CLIENT_TIMEOUT)
        .get(&addr, "/healthz")
        .is_ok_and(|r| r.status == 200);
    if !ok {
        return Err(std::io::Error::other(format!(
            "server {addr} is not healthy"
        )));
    }
    Ok(Live {
        handle,
        addr,
        startup_s,
    })
}

fn post(client: &HttpClient, addr: &str, body: &str) -> Option<String> {
    match client.post(addr, "/simulate", body) {
        Ok(r) if r.status == 200 => Some(r.body),
        _ => None,
    }
}

/// Sends `items` (indices into `bodies`) once each, closed-loop over
/// `clients` keep-alive connections; returns the answers, each expected to
/// be a memo hit when `hit`, and how many requests failed.
fn closed_loop(
    addr: &str,
    clients: usize,
    items: &[usize],
    bodies: &[String],
    hit: bool,
) -> (Vec<Answer>, u64) {
    let next = AtomicUsize::new(0);
    let failed = AtomicUsize::new(0);
    let answers = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for _ in 0..clients.max(1) {
            scope.spawn(|| {
                let client = HttpClient::new(CLIENT_TIMEOUT);
                let mut local = Vec::new();
                while let Some(&item) = items.get(next.fetch_add(1, Ordering::Relaxed)) {
                    match post(&client, addr, &bodies[item]) {
                        Some(b) => local.push((item, hit, b)),
                        None => {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                answers.lock().expect("answer sink").extend(local);
            });
        }
    });
    (
        answers.into_inner().expect("answer sink"),
        failed.into_inner() as u64,
    )
}

/// Batch counters of `GET /metrics` after a step.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServerCounters {
    pub jobs_requested: u64,
    pub memo_hits: u64,
    pub shed: u64,
    pub batches: u64,
    pub request_timeouts: u64,
}

pub fn counters(addr: &str) -> Option<ServerCounters> {
    let body = HttpClient::new(CLIENT_TIMEOUT)
        .get(addr, "/metrics")
        .ok()?
        .body;
    let doc = Json::parse(&body).ok()?;
    let batch = doc.get("batch")?;
    let reactor = doc.get("reactor")?;
    let get = |d: &Json, k: &str| d.get(k).and_then(Json::as_u64).unwrap_or(0);
    Some(ServerCounters {
        jobs_requested: get(batch, "jobs_requested"),
        memo_hits: get(batch, "jobs_memo_hits"),
        shed: get(batch, "jobs_shed"),
        batches: get(batch, "batches_dispatched"),
        request_timeouts: get(reactor, "request_timeouts"),
    })
}

/// One open-loop step on a fresh server whose memo holds `PRIMED`
/// configurations: `count` requests at `rate`, half repeats of the primed
/// set and half first-time configurations. Every answer is checked before
/// the step returns.
pub struct StepOut {
    pub step: openloop::Step,
    pub counters: ServerCounters,
    pub startup_s: f64,
}

pub fn step(
    ctx: &mut Ctx,
    report: &mut Report,
    configs: &Configs,
    rate: f64,
    count: usize,
) -> Option<StepOut> {
    let bodies = &configs.bodies;
    let mut order: Vec<usize> = (0..bodies.len()).collect();
    shuffle(&mut order, &mut ctx.rng);
    let (primed, fresh) = order.split_at(PRIMED.min(order.len() / 2));
    let live = match start(ctx) {
        Ok(live) => live,
        Err(e) => {
            report.tally(1, 1, || format!("serve-mix: server start-up failed: {e}"));
            return None;
        }
    };
    let (primed_answers, failed) = closed_loop(&live.addr, ctx.nproc, primed, bodies, false);
    report.tally(primed.len() as u64, failed, || {
        "serve-mix: priming requests failed".to_owned()
    });
    let answers = Mutex::new(primed_answers);
    let count = count.min(fresh.len() * 2);
    let schedule = openloop::plan(
        &mut ctx.rng,
        rate,
        count,
        HIT_SHARE,
        primed.len(),
        &mut (0..fresh.len()),
    );
    let addr = live.addr.clone();
    let step = openloop::run(
        &schedule,
        ctx.nproc,
        |_| HttpClient::new(CLIENT_TIMEOUT),
        |client: &mut HttpClient, p: &Planned| {
            let item = if p.hit { primed[p.item] } else { fresh[p.item] };
            post(client, &addr, &bodies[item]).is_some_and(|b| {
                answers.lock().expect("answer sink").push((item, p.hit, b));
                true
            })
        },
    );
    let counters = counters(&live.addr).unwrap_or_default();
    live.handle.shutdown();
    check_answers(report, &answers.into_inner().expect("answer sink"), configs);
    report.tally(step.samples.len() as u64, step.failures(), || {
        format!(
            "serve-mix: {} of {} requests at {rate:.0}/s failed",
            step.failures(),
            step.samples.len()
        )
    });
    report.tally(0, counters.shed + counters.request_timeouts, || {
        format!(
            "serve-mix: the server shed {} jobs and timed out {} requests",
            counters.shed, counters.request_timeouts
        )
    });
    Some(StepOut {
        step,
        counters,
        startup_s: live.startup_s,
    })
}

/// Configurations as single `POST /simulate` bodies, with a direct
/// `simulate_job` of each: what the requests ask for and must get back.
pub struct Configs {
    pub specs: Vec<JobSpec>,
    pub bodies: Vec<String>,
    pub refs: Vec<JobMetrics>,
}

impl Configs {
    fn of(specs: Vec<JobSpec>, threads: usize) -> Configs {
        let bodies = specs.iter().map(body).collect();
        let refs = references(&specs, threads);
        Configs {
            specs,
            bodies,
            refs,
        }
    }
}

/// What the open-loop steps send: every tiny configuration (11 kernels ×
/// 7 orgs × 3 schemes × 4 memory profiles; smoke: two kernels).
pub fn tiny_configs(ctx: &Ctx) -> Configs {
    let mut spec = SweepSpec::full(WorkloadSize::Tiny);
    if ctx.smoke {
        spec = spec.workloads(&SMOKE_KERNELS);
    }
    Configs::of(spec.enumerate(), ctx.nproc)
}

/// What a pass's bursts send: the kernel space of its `POST /sweep`.
pub fn kernel_configs(ctx: &Ctx) -> Configs {
    Configs::of(kernel_spec(ctx).enumerate(), ctx.nproc)
}

/// The pass's `POST /sweep` body: the kernel-sweep space (every kernel ×
/// organization × scheme at default size on the paper hierarchy; smoke: two
/// kernels at tiny size), answered inline.
pub fn sweep_body(ctx: &Ctx) -> String {
    let workloads = if ctx.smoke {
        format!(
            ", \"workloads\": [\"{}\", \"{}\"]",
            SMOKE_KERNELS[0], SMOKE_KERNELS[1]
        )
    } else {
        String::new()
    };
    let size = crate::sweeps::kernel_size(ctx).name();
    format!(
        "{{\"sizes\": [\"{size}\"], \"schemes\": [\"2bit\", \"3bit\", \"halfword\"], \
         \"mems\": [\"paper\"]{workloads}, \"sync\": true}}"
    )
}

/// Bursts of memo hits per pass, and how often a burst asks for each
/// configuration of the kernel space; `rerun_s` is the median burst of
/// the run.
const BURSTS: usize = 10;
const BURST_REPEAT: usize = 4;
/// Start-ups of an idle server per round besides the pass's and the step's
/// servers; `setup_s` is the median start-up of the run.
const STARTUPS: usize = 20;
/// A sweep answered inline can take a while on a slow machine.
const SWEEP_TIMEOUT: Duration = Duration::from_mins(2);

/// What one pass measured: its server's start-up, cold seconds, the
/// instructions that sweep simulated, and each burst's seconds.
pub struct PassFigures {
    pub startup_s: f64,
    pub cold_s: f64,
    pub instructions: u64,
    pub bursts_s: Vec<f64>,
}

/// One cold `POST /sweep` of `body` on a fresh server (batcher, simulation,
/// cache store, then the outcome JSON), which must carry the reference
/// digest; then `BURSTS` closed-loop bursts of single `POST /simulate`
/// requests for the same configurations over `nproc` keep-alive
/// connections. Every burst answer must be a memo hit equal to
/// `simulate_job`.
pub fn pass(
    ctx: &mut Ctx,
    report: &mut Report,
    body: &str,
    kernel: &Configs,
) -> Option<PassFigures> {
    let live = match start(ctx) {
        Ok(live) => live,
        Err(e) => {
            report.tally(1, 1, || format!("serve-mix: server start-up failed: {e}"));
            return None;
        }
    };
    let (response, t) = timed(|| HttpClient::new(SWEEP_TIMEOUT).post(&live.addr, "/sweep", body));
    let text = match response {
        Ok(r) if r.status == 200 => r.body,
        Ok(r) => {
            report.tally(1, 1, || {
                format!("serve-mix: POST /sweep answered {}", r.status)
            });
            live.handle.shutdown();
            return None;
        }
        Err(e) => {
            report.tally(1, 1, || format!("serve-mix: POST /sweep failed: {e}"));
            live.handle.shutdown();
            return None;
        }
    };
    let cold_s = secs(t);
    let doc = Json::parse(&text).ok();
    let count = |key: &str| doc.as_ref().and_then(|d| d.get(key)).and_then(Json::as_u64);
    let jobs = count("jobs").unwrap_or(0);
    report.check(jobs > 0 && count("served_from_cache") == Some(0), || {
        format!(
            "serve-mix: cold sweep answered {jobs} jobs, {:?} from cache",
            count("served_from_cache")
        )
    });
    let key = format!("serve-mix/{}/cold.json", ctx.scope());
    let problem = ctx.digests.check(&key, &text);
    report.check(problem.is_none(), || problem.unwrap_or_default());
    let instructions = doc
        .as_ref()
        .and_then(|d| d.get("outcomes"))
        .and_then(Json::as_arr)
        .map_or(0, |o| {
            o.iter()
                .filter_map(|j| j.get("instructions")?.as_u64())
                .sum()
        });

    let n = kernel.specs.len();
    let mut items: Vec<usize> = (0..n * BURST_REPEAT).map(|i| i % n).collect();
    shuffle(&mut items, &mut ctx.rng);
    let mut bursts = Vec::new();
    for _ in 0..BURSTS {
        let ((answers, failed), t) =
            timed(|| closed_loop(&live.addr, ctx.nproc, &items, &kernel.bodies, true));
        report.tally(items.len() as u64 - answers.len() as u64, failed, || {
            format!("serve-mix: {failed} memo-hit requests failed")
        });
        check_answers(report, &answers, kernel);
        bursts.push(secs(t));
    }
    live.handle.shutdown();
    Some(PassFigures {
        startup_s: live.startup_s,
        cold_s,
        instructions,
        bursts_s: bursts,
    })
}

/// Checks every answer against the direct `simulate_job` of its
/// configuration, and that it came from the memo exactly when expected.
pub fn check_answers(report: &mut Report, answers: &[Answer], configs: &Configs) {
    let bad = answers
        .iter()
        .filter(|(item, hit, text)| {
            !(check::response_matches(text, &configs.refs[*item])
                && text.contains(if *hit {
                    "\"from_cache\": true"
                } else {
                    "\"from_cache\": false"
                }))
        })
        .count() as u64;
    report.tally(answers.len() as u64, bad, || {
        format!("serve-mix: {bad} responses differ from simulate_job")
    });
}

pub fn serve_mix(ctx: &mut Ctx, report: &mut Report) {
    let started = Instant::now();
    let configs = tiny_configs(ctx);
    let kernel = kernel_configs(ctx);
    let sweep = sweep_body(ctx);

    // Rounds of a pass and an open-loop step at the reference rate, each on
    // a fresh server, until `--seconds` have gone since the run began, so
    // every figure is a median over samples spread across the run. Every
    // server start-up is a set-up sample.
    let (rate, step_s) = if ctx.smoke {
        (REFERENCE_RATE / 4.0, 0.3)
    } else {
        (REFERENCE_RATE, STEP_S)
    };
    let mut setup = Vec::new();
    let mut passes: Vec<PassFigures> = Vec::new();
    let mut steps: Vec<[f64; 5]> = Vec::new();
    while passes.len() < 2 || started.elapsed().as_secs_f64() < ctx.seconds {
        let Some(figures) = pass(ctx, report, &sweep, &kernel) else {
            break;
        };
        setup.push(figures.startup_s);
        passes.push(figures);
        let count = (rate * step_s) as usize;
        let Some(out) = step(ctx, report, &configs, rate, count) else {
            break;
        };
        setup.push(out.startup_s);
        for _ in 0..STARTUPS {
            match start(ctx) {
                Ok(live) => {
                    setup.push(live.startup_s);
                    live.handle.shutdown();
                }
                Err(e) => report.tally(1, 1, || format!("serve-mix: server start-up failed: {e}")),
            }
        }
        let (hit, miss) = (out.step.latencies(true), out.step.latencies(false));
        steps.push([
            quantile(&hit, 0.5),
            quantile(&hit, 0.99),
            quantile(&miss, 0.5),
            quantile(&miss, 0.99),
            out.step.lag_p99_ms(),
        ]);
    }
    let rss = crate::util::peak_rss_mb();

    let pick = |f: fn(&PassFigures) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    report.note(format!(
        "serve-mix set-up ms: {}",
        setup
            .iter()
            .map(|t| format!("{:.3}", t * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.metric("setup_s", median(&setup), "s");
    report.metric("sweep_s", pick(|p| p.cold_s), "s");
    let bursts: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.bursts_s.iter().copied())
        .collect();
    report.metric("rerun_s", median(&bursts), "s");
    report.metric(
        "sim_inst_per_s",
        pick(|p| p.instructions as f64 / p.cold_s),
        "1/s",
    );
    report.metric("peak_rss_mb", rss, "MiB");
    let step_median = |k: usize| median(&steps.iter().map(|s| s[k]).collect::<Vec<_>>());
    report.figure("hit_p50_ms", step_median(0), "ms");
    report.figure("hit_p99_ms", step_median(1), "ms");
    report.figure("miss_p50_ms", step_median(2), "ms");
    report.figure("miss_p99_ms", step_median(3), "ms");
    report.note(format!(
        "serve-mix: {} rounds; memo-hit bursts of {} requests (s: {}); open loop at {rate:.0}/s (hit p99 ms: {}), generator lag p99 {:.3} ms",
        passes.len(),
        kernel.specs.len() * BURST_REPEAT,
        passes.iter().map(|p| format!("{:.4}", median(&p.bursts_s))).collect::<Vec<_>>().join(" "),
        steps.iter().map(|s| format!("{:.3}", s[1])).collect::<Vec<_>>().join(" "),
        step_median(4)
    ));
}

/// `simulate_job` of every configuration, computed on `threads` threads.
pub fn references(specs: &[JobSpec], threads: usize) -> Vec<JobMetrics> {
    let mut kernels = HashMap::new();
    for s in specs {
        kernels
            .entry((s.workload, s.size))
            .or_insert_with(|| find(s.workload, s.size).expect("suite kernel"));
    }
    let out: Vec<Mutex<JobMetrics>> = specs
        .iter()
        .map(|_| Mutex::new(JobMetrics::default()))
        .collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(s) = specs.get(i) else { break };
                *out[i].lock().expect("reference slot") =
                    simulate_job(s, &kernels[&(s.workload, s.size)]);
            });
        }
    });
    out.into_iter()
        .map(|m| m.into_inner().expect("reference slot"))
        .collect()
}
