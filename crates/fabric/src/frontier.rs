//! The frontier: the fleet transport of the scatter/merge core.
//!
//! [`run_fleet_jobs`] is the [`FleetRunner`](sigcomp_explore::FleetRunner)
//! behind [`ExecBackend::Fleet`](sigcomp_explore::ExecBackend). It picks
//! the live workers and hands the sweep to
//! [`sigcomp_explore::scatter_jobs`], which dedups, sorts by job id, deals
//! shards round-robin, re-shards a lost worker's jobs, falls back to local
//! execution and merges through the [`ResultCache`](sigcomp_explore::ResultCache)
//! — byte-identical to a single process for any worker count, including
//! zero, a list of dead addresses, or a worker killed mid-sweep.
//!
//! This module is only the transport: a shard travels as one `POST
//! /fleet/dispatch` body with retry and backoff, and its results come back
//! as digest-verified cache-entry bytes replicated into the local cache.
//! Entries are keyed by config hash, so the merge cannot tell which machine
//! produced a result.

use crate::client::HttpClient;
use crate::pool::{self, WorkerPool, DEFAULT_LIVENESS_TTL};
use crate::proto::{self, FleetReport};
use sigcomp_explore::{
    scatter_jobs, ExecError, FleetConfig, JobSpec, Shard, ShardOutcome, ShardReport,
    ShardTransport, SweepOptions, SweepSummary, TraceInput, TraceSource,
};
use std::collections::HashSet;
use std::time::Duration;

/// Upper bound on the exponential retry backoff.
const MAX_BACKOFF: Duration = Duration::from_secs(2);

/// Runs `jobs` across the fleet through the scatter/merge core.
///
/// Workers come from [`FleetConfig::workers`] when non-empty, otherwise
/// from the registered [`pool::global()`] members that heartbeated within
/// [`DEFAULT_LIVENESS_TTL`]; they are sorted so the partition is a pure
/// function of the worker set.
///
/// # Errors
///
/// [`ExecError::CacheRequired`] without a cache (it is the merge point),
/// [`ExecError::Config`] for trace-file jobs (the fleet wire carries only
/// content digests and workers have no trace channel yet), and
/// [`ExecError::ResultMissing`] if the cache lost an entry after execution.
/// Worker failures are *not* errors: they cost retries, then a re-shard,
/// then at worst a local fallback.
pub fn run_fleet_jobs(
    jobs: &[JobSpec],
    traces: &[TraceInput],
    options: &SweepOptions,
    config: &FleetConfig,
) -> Result<SweepSummary, ExecError> {
    if let Some(job) = jobs
        .iter()
        .find(|j| matches!(j.source, TraceSource::File { .. }))
    {
        return Err(ExecError::Config(format!(
            "job {:016x} is trace-sourced; the fleet backend dispatches kernel jobs only \
             (run trace sweeps locally or on the subprocess backend)",
            job.job_id()
        )));
    }
    let pool = pool::global();
    let mut live: Vec<String> = if config.workers.is_empty() {
        pool.live(DEFAULT_LIVENESS_TTL)
    } else {
        config.workers.clone()
    };
    live.sort_unstable();
    live.dedup();
    let dispatcher = Dispatcher {
        client: HttpClient::new(Duration::from_millis(config.timeout_ms.max(1))),
        config,
        pool,
    };
    scatter_jobs(jobs, traces, options, &dispatcher, live)
}

/// The fleet transport: one worker server per slot.
struct Dispatcher<'a> {
    client: HttpClient,
    config: &'a FleetConfig,
    pool: &'a WorkerPool,
}

impl ShardTransport for Dispatcher<'_> {
    type Slot = String;
    const BACKEND: &'static str = "fleet";

    fn run_shard(&self, addr: &String, shard: Shard<'_>) -> Result<ShardOutcome, ExecError> {
        let jobs: Vec<JobSpec> = shard.jobs().copied().collect();
        let Some(report) = dispatch_with_retry(&self.client, addr, &jobs, self.config, self.pool)
        else {
            // The worker exhausted its attempts: the core drops it from
            // this sweep and re-shards its jobs.
            self.pool.note_failure(addr);
            return Ok(ShardOutcome::Lost);
        };
        // Replicate the worker's verified entry bytes into the local cache.
        // Store failures are deliberately ignored: the core's restore pass
        // is the arbiter, and a missing entry becomes ResultMissing there.
        for (id, text) in &report.entries {
            let _ = shard.cache.store_entry_text(*id, text);
        }
        let obs = sigcomp_obs::global();
        obs.counter("fleet.frontier.dispatches").incr();
        obs.counter("fleet.frontier.jobs_remote")
            .add(report.jobs.len() as u64);
        self.pool.note_dispatch(addr);
        self.pool.update_obs(addr, report.obs.clone());
        Ok(ShardOutcome::Done(ShardReport {
            jobs: report.jobs,
            obs: report.obs,
        }))
    }
}

/// One worker's shard: up to [`FleetConfig::attempts`] `POST /fleet/dispatch`
/// exchanges with exponential backoff, each response verified by
/// [`proto::parse_report`] against the exact id set dispatched. `None`
/// once every attempt failed.
///
/// An overloaded worker's `503` honors its `Retry-After` header (capped at
/// [`MAX_BACKOFF`]); every other failure — connect/read timeout, non-200
/// status, protocol violation — waits `100ms · 2^attempt`.
fn dispatch_with_retry(
    client: &HttpClient,
    addr: &str,
    shard: &[JobSpec],
    config: &FleetConfig,
    pool: &WorkerPool,
) -> Option<FleetReport> {
    let body = proto::encode_dispatch(shard);
    let expected: HashSet<u64> = shard.iter().map(JobSpec::job_id).collect();
    let attempts = config.attempts.max(1);
    for attempt in 0..attempts {
        if attempt > 0 {
            pool.note_retry(addr);
            sigcomp_obs::global()
                .counter("fleet.frontier.retries")
                .incr();
        }
        let mut backoff = Duration::from_millis(100 << attempt.min(8)).min(MAX_BACKOFF);
        match client.post(addr, "/fleet/dispatch", &body) {
            Ok(response) if response.status == 200 => {
                if let Ok(report) = proto::parse_report(&response.body, &expected) {
                    return Some(report);
                }
            }
            Ok(response) if response.status == 503 => {
                if let Some(secs) = response
                    .header("retry-after")
                    .and_then(|v| v.parse::<u64>().ok())
                {
                    backoff = Duration::from_secs(secs).min(MAX_BACKOFF);
                }
            }
            Ok(_) | Err(_) => {}
        }
        if attempt + 1 < attempts {
            std::thread::sleep(backoff);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigcomp_explore::{ExecBackend, ResultCache, SweepSpec};
    use sigcomp_workloads::WorkloadSize;

    fn jobs() -> Vec<JobSpec> {
        SweepSpec::paper(WorkloadSize::Tiny)
            .workloads(&["rawcaudio"])
            .enumerate()
    }

    fn temp_cache(tag: &str) -> (std::path::PathBuf, ResultCache) {
        let dir = std::env::temp_dir().join(format!(
            "sigcomp-fabric-frontier-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).expect("cache opens");
        (dir, cache)
    }

    #[test]
    fn fleet_without_a_cache_is_a_named_error() {
        let err = run_fleet_jobs(
            &jobs(),
            &[],
            &SweepOptions::default(),
            &FleetConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::CacheRequired), "{err}");
    }

    #[test]
    fn no_workers_degrades_to_local_and_matches_the_local_backend() {
        let (dir, cache) = temp_cache("local");
        let jobs = jobs();
        let options = SweepOptions {
            workers: Some(2),
            cache: Some(cache),
            backend: ExecBackend::LocalThreads,
        };
        // Explicitly empty worker list and (in a fresh process) an empty
        // registration pool: the run must fall through to local execution.
        let fleet = run_fleet_jobs(&jobs, &[], &options, &FleetConfig::default()).expect("runs");
        assert_eq!(fleet.backend, "fleet");
        assert_eq!(fleet.outcomes.len(), jobs.len());
        assert!(fleet.totals.simulated + fleet.totals.cached == jobs.len() as u64);

        let local = sigcomp_explore::try_run_jobs_traced(&jobs, &[], &options).expect("runs");
        for (a, b) in fleet.outcomes.iter().zip(&local.outcomes) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.metrics, b.metrics);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_workers_are_retried_then_execution_falls_back_locally() {
        let (dir, cache) = temp_cache("dead");
        // Bind-then-drop: almost certainly nothing listens on this port.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr").port()
        };
        let jobs = jobs();
        let options = SweepOptions {
            workers: Some(2),
            cache: Some(cache),
            backend: ExecBackend::LocalThreads,
        };
        let config = FleetConfig {
            workers: vec![format!("127.0.0.1:{port}")],
            timeout_ms: 300,
            attempts: 2,
        };
        let before = sigcomp_obs::global()
            .snapshot()
            .counter("fleet.frontier.workers_lost");
        let fleet = run_fleet_jobs(&jobs, &[], &options, &config).expect("completes anyway");
        assert_eq!(fleet.outcomes.len(), jobs.len());
        let after = sigcomp_obs::global()
            .snapshot()
            .counter("fleet.frontier.workers_lost");
        assert!(after > before, "the dead worker must be counted as lost");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_jobs_are_rejected_with_a_named_error() {
        let (dir, cache) = temp_cache("trace");
        let mut job = jobs()[0];
        job.source = TraceSource::File { digest: 0xdead };
        let options = SweepOptions {
            workers: Some(1),
            cache: Some(cache),
            backend: ExecBackend::LocalThreads,
        };
        let err = run_fleet_jobs(&[job], &[], &options, &FleetConfig::default()).unwrap_err();
        assert!(err.to_string().contains("kernel jobs only"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
