//! The open-loop request engine behind serve-mix's `POST /simulate` steps.
//!
//! Arrivals follow a seeded Poisson schedule fixed before the step starts.
//! A bounded set of client threads (one per core, each with its own
//! connection or handle) takes requests in schedule order, waits until each
//! one is due and sends it. Latency is measured from the due time, so a
//! stall also charges the requests queued behind it.

use crate::util::{ms, quantile};
use sigcomp_workloads::SmallRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One scheduled request: when it is due (offset from the step start),
/// whether it repeats an earlier request, and which item it carries.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    pub due: Duration,
    pub hit: bool,
    pub item: usize,
}

/// Builds a seeded schedule of `count` requests at `rate` per second. A
/// `hit_share` of them draw from the `hits` items (already answered once);
/// the rest take the next unused `misses` item, which must not run out.
pub fn plan(
    rng: &mut SmallRng,
    rate: f64,
    count: usize,
    hit_share: f64,
    hits: usize,
    misses: &mut std::ops::Range<usize>,
) -> Vec<Planned> {
    let mut at = 0.0f64;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let u: f64 = rng.gen::<f64>().max(1e-12);
        at += -u.ln() / rate;
        let hit = hits > 0 && (misses.start >= misses.end || rng.gen::<f64>() < hit_share);
        let item = if hit {
            rng.gen_range(0..hits)
        } else {
            misses
                .next()
                .expect("the miss stream never runs out within a step")
        };
        out.push(Planned {
            due: Duration::from_secs_f64(at),
            hit,
            item,
        });
    }
    out
}

/// What one request observed.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub hit: bool,
    pub ok: bool,
    /// Completion minus due time.
    pub latency_ms: f64,
    /// How late the request was sent (generator lag plus waiting for a
    /// free client).
    pub lag_ms: f64,
}

/// The samples of one step.
pub struct Step {
    pub samples: Vec<Sample>,
}

impl Step {
    pub fn latencies(&self, hit: bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.hit == hit)
            .map(|s| s.latency_ms)
            .collect()
    }

    pub fn failures(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }

    pub fn lag_p99_ms(&self) -> f64 {
        let lags: Vec<f64> = self.samples.iter().map(|s| s.lag_ms).collect();
        quantile(&lags, 0.99)
    }
}

/// Runs `schedule` with `clients` threads. `connect` builds each thread's
/// client state; `op` sends one request and reports success.
pub fn run<C, F>(
    schedule: &[Planned],
    clients: usize,
    connect: impl Fn(usize) -> C + Sync,
    op: F,
) -> Step
where
    F: Fn(&mut C, &Planned) -> bool + Sync,
{
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(schedule.len()));
    let start = Instant::now() + Duration::from_millis(2);
    std::thread::scope(|scope| {
        for c in 0..clients.max(1) {
            let (next, samples, connect, op) = (&next, &samples, &connect, &op);
            scope.spawn(move || {
                let mut client = connect(c);
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(p) = schedule.get(i) else { break };
                    let due = start + p.due;
                    let now = Instant::now();
                    if now < due {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    let ok = op(&mut client, p);
                    let done = Instant::now();
                    local.push(Sample {
                        hit: p.hit,
                        ok,
                        latency_ms: ms(done.saturating_duration_since(due)),
                        lag_ms: ms(sent.saturating_duration_since(due)),
                    });
                }
                samples.lock().expect("sample sink").extend(local);
            });
        }
    });
    Step {
        samples: samples.into_inner().expect("sample sink"),
    }
}
