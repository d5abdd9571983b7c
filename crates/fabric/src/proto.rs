//! The `sigcomp-fleet v1` line protocol: dispatch requests, dispatch
//! reports carrying replicated cache entries, and registration/heartbeat
//! bodies.
//!
//! Like the `sigcomp-worker` stdout protocol it generalizes, the grammar is
//! strict by design — every violation is a named error, because a frontier
//! merging results from machines it does not control must be able to prove
//! (not assume) that what arrived is what was sent. The payload of a report
//! is the worker's results encoded as **verbatim on-disk cache-entry text**
//! ([`sigcomp_explore::encode_entry`]) guarded by an FNV-1a digest
//! ([`sigcomp_explore::entry_digest`]); the frontier checks the digest and
//! the decodability of every entry before a byte touches its cache.
//!
//! ```text
//! # request (POST /fleet/dispatch)
//! sigcomp-fleet v1 dispatch jobs=2
//! kernel rawcaudio tiny paper 3bit byte-serial
//! kernel pgp tiny paper 3bit byte-serial
//!
//! # response
//! sigcomp-fleet v1 report jobs=2
//! job 00f3a6e2d41b9c70 simulated
//! entry 00f3a6e2d41b9c70 9c41b70f3a6e2d05 lines=39
//! sigcomp-explore v2
//! instructions=181203
//! ...
//! job 3b1e09c55a7d2f18 cached
//! entry 3b1e09c55a7d2f18 05f8a2c91d3e6b47 lines=39
//! ...
//! obs counter replay.jobs_simulated 1
//! done jobs=2
//! ```

use sigcomp_explore::{
    decode_entry, encode_entry, entry_digest, JobLedger, JobMetrics, JobSpec, TraceSource,
};
use sigcomp_obs::Snapshot;
use std::collections::HashSet;
use std::fmt::Write as _;

/// First token run of every fleet payload; bumped whenever any body grammar
/// changes so mismatched frontier/worker builds fail loudly.
pub const FLEET_HEADER: &str = "sigcomp-fleet v1";

/// One job's result as a worker reports it: the spec it was asked to run,
/// the measured metrics, and whether the worker answered from cache/memo
/// rather than a fresh simulation.
#[derive(Debug, Clone)]
pub struct DispatchOutcome {
    /// The dispatched job.
    pub spec: JobSpec,
    /// Its measured counters.
    pub metrics: JobMetrics,
    /// `true` when the worker answered without simulating (memo or cache).
    pub from_cache: bool,
}

/// A parsed and fully verified dispatch report.
#[derive(Debug, Default)]
pub struct FleetReport {
    /// `(job_id, from_cache)` per job, in the worker's report order.
    pub jobs: Vec<(u64, bool)>,
    /// `(job_id, entry_text)` per job — digest-verified, decodable,
    /// ready for [`ResultCache::store_entry_text`](sigcomp_explore::ResultCache::store_entry_text).
    pub entries: Vec<(u64, String)>,
    /// The worker's observability-registry snapshot (cumulative over the
    /// worker's lifetime — attribution, not a per-dispatch delta).
    pub obs: Snapshot,
}

/// Encodes a dispatch request: the header with the job count, then one
/// [`JobSpec::to_wire`] line per job.
#[must_use]
pub fn encode_dispatch(jobs: &[JobSpec]) -> String {
    let mut out = format!("{FLEET_HEADER} dispatch jobs={}\n", jobs.len());
    for job in jobs {
        out.push_str(&job.to_wire());
        out.push('\n');
    }
    out
}

/// Parses a dispatch request body into its job list.
///
/// Trace-file jobs are rejected here — the fleet wire carries only content
/// digests and workers have no trace upload channel yet, so a frontier that
/// let one through would hand the worker a job it cannot resolve.
///
/// # Errors
///
/// A message naming the violation: bad header, a declared count that does
/// not match the lines present, an unparsable job line, or a trace job.
pub fn parse_dispatch(body: &str) -> Result<Vec<JobSpec>, String> {
    let mut lines = body.lines().filter(|l| !l.trim().is_empty());
    let header = lines
        .next()
        .ok_or_else(|| "empty dispatch body".to_owned())?;
    let declared = header
        .strip_prefix(FLEET_HEADER)
        .and_then(|rest| rest.trim().strip_prefix("dispatch jobs="))
        .and_then(|n| n.parse::<usize>().ok())
        .ok_or_else(|| {
            format!("bad dispatch header '{header}' (expected '{FLEET_HEADER} dispatch jobs=N')")
        })?;
    let jobs: Vec<JobSpec> = lines.map(JobSpec::from_wire).collect::<Result<_, _>>()?;
    if jobs.len() != declared {
        return Err(format!(
            "dispatch declares {declared} jobs but carries {}",
            jobs.len()
        ));
    }
    if let Some(job) = jobs
        .iter()
        .find(|j| matches!(j.source, TraceSource::File { .. }))
    {
        return Err(format!(
            "job {:016x} is trace-sourced; the fleet protocol dispatches kernel jobs only",
            job.job_id()
        ));
    }
    Ok(jobs)
}

/// Encodes a dispatch report: per job a `job` provenance line followed by
/// its digest-guarded cache-entry block, then the worker's obs snapshot,
/// then the `done` trailer.
#[must_use]
pub fn encode_report(outcomes: &[DispatchOutcome], obs: &Snapshot) -> String {
    let mut out = format!("{FLEET_HEADER} report jobs={}\n", outcomes.len());
    for outcome in outcomes {
        let id = outcome.spec.job_id();
        let text = encode_entry(&outcome.metrics);
        let _ = writeln!(out, "{}", JobLedger::line(id, outcome.from_cache));
        let _ = writeln!(
            out,
            "entry {id:016x} {:016x} lines={}",
            entry_digest(&text),
            text.lines().count()
        );
        out.push_str(&text);
    }
    for line in obs.to_wire().lines() {
        let _ = writeln!(out, "obs {line}");
    }
    let _ = writeln!(out, "done jobs={}", outcomes.len());
    out
}

/// Parses and verifies a dispatch report against the job-id set that was
/// dispatched: every assigned job must be answered exactly once, every
/// entry's digest must match its bytes and its bytes must decode as a
/// current-version cache entry.
///
/// # Errors
///
/// A message naming the violation — these are protocol violations, and the
/// frontier treats the worker that produced one as failed.
pub fn parse_report(body: &str, expected: &HashSet<u64>) -> Result<FleetReport, String> {
    let mut lines = body.lines();
    let header = lines
        .by_ref()
        .find(|l| !l.trim().is_empty())
        .ok_or("empty report")?;
    let declared = header
        .strip_prefix(FLEET_HEADER)
        .and_then(|rest| rest.trim().strip_prefix("report jobs="))
        .and_then(|n| n.parse::<usize>().ok())
        .ok_or_else(|| {
            format!("bad report header '{header}' (expected '{FLEET_HEADER} report jobs=N')")
        })?;

    let mut ledger = JobLedger::new(expected, "was not dispatched to this worker");
    let mut report = FleetReport::default();
    let mut awaiting_entry: Option<u64> = None;
    while let Some(line) = lines.next() {
        if line.trim().is_empty() {
            continue;
        }
        ledger.check_open(line)?;
        // A job line must be followed by its entry block, nothing else.
        if let Some(id) = awaiting_entry.filter(|_| !line.starts_with("entry ")) {
            return Err(format!("job {id:016x} has no entry block"));
        }
        if line.starts_with("job ") {
            awaiting_entry = Some(ledger.job(line)?);
        } else if let Some(rest) = line.strip_prefix("entry ") {
            let job_id = awaiting_entry
                .take()
                .ok_or_else(|| format!("entry block without a preceding job line: '{line}'"))?;
            let mut parts = rest.split_whitespace();
            let id = parts
                .next()
                .and_then(|t| u64::from_str_radix(t, 16).ok())
                .ok_or_else(|| format!("malformed entry id in '{line}'"))?;
            let digest = parts
                .next()
                .and_then(|t| u64::from_str_radix(t, 16).ok())
                .ok_or_else(|| format!("malformed entry digest in '{line}'"))?;
            let count = parts
                .next()
                .and_then(|t| t.strip_prefix("lines="))
                .and_then(|n| n.parse::<usize>().ok())
                .ok_or_else(|| format!("malformed entry line count in '{line}'"))?;
            if parts.next().is_some() {
                return Err(format!("trailing tokens in '{line}'"));
            }
            if id != job_id {
                return Err(format!(
                    "entry {id:016x} does not match its job line {job_id:016x}"
                ));
            }
            let mut text = String::new();
            for _ in 0..count {
                let raw = lines
                    .next()
                    .ok_or_else(|| format!("entry {id:016x} truncated mid-block"))?;
                text.push_str(raw);
                text.push('\n');
            }
            if entry_digest(&text) != digest {
                return Err(format!(
                    "entry {id:016x} digest mismatch (corrupted in transit?)"
                ));
            }
            if decode_entry(&text).is_none() {
                return Err(format!("entry {id:016x} does not decode as a cache entry"));
            }
            report.entries.push((id, text));
        } else if let Some(rest) = line.strip_prefix("obs ") {
            report
                .obs
                .parse_wire_line(rest)
                .map_err(|e| e.to_string())?;
        } else if line.starts_with("done ") {
            ledger.done(line)?;
        } else {
            return Err(format!("unexpected line '{line}'"));
        }
    }
    report.jobs = ledger.finish()?;
    if declared != report.jobs.len() {
        return Err(format!(
            "report header declares {declared} jobs but {} were reported",
            report.jobs.len()
        ));
    }
    Ok(report)
}

/// Encodes a registration body: the worker's dial-back address and its
/// capacity (worker threads it can bring to bear).
#[must_use]
pub fn encode_register(addr: &str, capacity: u64) -> String {
    format!("{FLEET_HEADER} register addr={addr} capacity={capacity}\n")
}

/// Encodes a heartbeat body: the registration fields plus the worker's
/// current observability snapshot as `obs` lines.
#[must_use]
pub fn encode_heartbeat(addr: &str, capacity: u64, obs: &Snapshot) -> String {
    let mut out = format!("{FLEET_HEADER} heartbeat addr={addr} capacity={capacity}\n");
    for line in obs.to_wire().lines() {
        let _ = writeln!(out, "obs {line}");
    }
    out
}

/// Parses a registration body into `(addr, capacity)`.
///
/// # Errors
///
/// A message naming the violation (bad header/fields, or an address that is
/// not a plain `host:port` authority).
pub fn parse_register(body: &str) -> Result<(String, u64), String> {
    let (addr, capacity, mut rest) = parse_announcement(body, "register")?;
    if rest.next().is_some() {
        return Err("trailing lines after a register body".to_owned());
    }
    Ok((addr, capacity))
}

/// Parses a heartbeat body into `(addr, capacity, obs_snapshot)`.
///
/// # Errors
///
/// Same conditions as [`parse_register`], plus malformed `obs` lines.
pub fn parse_heartbeat(body: &str) -> Result<(String, u64, Snapshot), String> {
    let (addr, capacity, rest) = parse_announcement(body, "heartbeat")?;
    let mut obs = Snapshot::default();
    for line in rest {
        let payload = line
            .strip_prefix("obs ")
            .ok_or_else(|| format!("unexpected heartbeat line '{line}'"))?;
        obs.parse_wire_line(payload).map_err(|e| e.to_string())?;
    }
    Ok((addr, capacity, obs))
}

/// Shared head of register/heartbeat bodies:
/// `sigcomp-fleet v1 <verb> addr=A capacity=N`.
fn parse_announcement<'a>(
    body: &'a str,
    verb: &str,
) -> Result<(String, u64, impl Iterator<Item = &'a str>), String> {
    let mut lines = body.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or_else(|| format!("empty {verb} body"))?;
    let bad = || {
        format!(
            "bad {verb} header '{header}' \
             (expected '{FLEET_HEADER} {verb} addr=HOST:PORT capacity=N')"
        )
    };
    let rest = header.strip_prefix(FLEET_HEADER).ok_or_else(bad)?.trim();
    let mut parts = rest.split_whitespace();
    if parts.next() != Some(verb) {
        return Err(bad());
    }
    let addr = parts
        .next()
        .and_then(|t| t.strip_prefix("addr="))
        .ok_or_else(bad)?;
    let capacity: u64 = parts
        .next()
        .and_then(|t| t.strip_prefix("capacity="))
        .and_then(|n| n.parse().ok())
        .ok_or_else(bad)?;
    if parts.next().is_some() {
        return Err(bad());
    }
    validate_addr(addr)?;
    Ok((addr.to_owned(), capacity, lines))
}

/// A worker address must be a plain `host:port` authority from a restricted
/// alphabet: it is echoed into JSON status documents and used as a dial
/// target, so anything exotic is rejected at the door.
fn validate_addr(addr: &str) -> Result<(), String> {
    let ok = !addr.is_empty()
        && addr.contains(':')
        && addr
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | ':' | '-' | '_' | '[' | ']'));
    if ok {
        Ok(())
    } else {
        Err(format!(
            "invalid worker address '{addr}' (expected host:port)"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigcomp_explore::SweepSpec;
    use sigcomp_obs::Registry;
    use sigcomp_workloads::WorkloadSize;

    fn jobs(n: usize) -> Vec<JobSpec> {
        let all = SweepSpec::paper(WorkloadSize::Tiny).enumerate();
        all.into_iter().take(n).collect()
    }

    fn outcome(spec: JobSpec, seed: u64, from_cache: bool) -> DispatchOutcome {
        DispatchOutcome {
            spec,
            metrics: JobMetrics {
                instructions: 100 + seed,
                cycles: 170 + seed,
                ..JobMetrics::default()
            },
            from_cache,
        }
    }

    #[test]
    fn dispatch_round_trips() {
        let jobs = jobs(3);
        let body = encode_dispatch(&jobs);
        assert!(body.starts_with(&format!("{FLEET_HEADER} dispatch jobs=3\n")));
        let parsed = parse_dispatch(&body).expect("parses");
        assert_eq!(parsed, jobs);
        assert_eq!(
            parsed.iter().map(JobSpec::job_id).collect::<Vec<_>>(),
            jobs.iter().map(JobSpec::job_id).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn dispatch_violations_are_named() {
        let good = encode_dispatch(&jobs(2));
        for (body, needle) in [
            (String::new(), "empty dispatch body"),
            ("who goes there\n".to_owned(), "bad dispatch header"),
            (
                good.replace("jobs=2", "jobs=5"),
                "declares 5 jobs but carries 2",
            ),
            (
                format!(
                    "{FLEET_HEADER} dispatch jobs=1\nkernel nope tiny paper 3bit byte-serial\n"
                ),
                "unknown workload",
            ),
            (
                format!(
                    "{FLEET_HEADER} dispatch jobs=1\n\
                     trace 00000000deadbeef paper 3bit byte-serial mystery\n"
                ),
                "kernel jobs only",
            ),
        ] {
            let err = parse_dispatch(&body).unwrap_err();
            assert!(err.contains(needle), "{body:?}: {err}");
        }
    }

    #[test]
    fn reports_round_trip_with_verified_entries_and_obs() {
        let specs = jobs(2);
        let outcomes = vec![outcome(specs[0], 1, false), outcome(specs[1], 2, true)];
        let registry = Registry::new();
        registry.counter("replay.jobs_simulated").add(1);
        let body = encode_report(&outcomes, &registry.snapshot());
        let expected: HashSet<u64> = specs.iter().map(JobSpec::job_id).collect();
        let report = parse_report(&body, &expected).expect("parses");
        assert_eq!(report.jobs.len(), 2);
        assert_eq!(report.entries.len(), 2);
        assert_eq!(report.obs.counter("replay.jobs_simulated"), 1);
        for (outcome, &(id, from_cache)) in outcomes.iter().zip(&report.jobs) {
            assert_eq!(outcome.spec.job_id(), id);
            assert_eq!(outcome.from_cache, from_cache);
        }
        // The replicated text decodes to the exact metrics that were sent.
        for (outcome, (id, text)) in outcomes.iter().zip(&report.entries) {
            assert_eq!(outcome.spec.job_id(), *id);
            assert_eq!(decode_entry(text), Some(outcome.metrics));
        }
    }

    #[test]
    fn report_violations_are_named() {
        let specs = jobs(2);
        let outcomes = vec![outcome(specs[0], 1, false), outcome(specs[1], 2, false)];
        let good = encode_report(&outcomes, &Snapshot::default());
        let expected: HashSet<u64> = specs.iter().map(JobSpec::job_id).collect();
        let id0 = specs[0].job_id();

        // A flipped byte inside an entry block breaks that entry's digest.
        let corrupted = good.replacen("instructions=101", "instructions=999", 1);
        let err = parse_report(&corrupted, &expected).unwrap_err();
        assert!(err.contains("digest mismatch"), "{err}");

        for (body, needle) in [
            (String::new(), "empty report"),
            ("hello\n".to_owned(), "bad report header"),
            (
                format!("{FLEET_HEADER} report jobs=0\ndone jobs=0\n"),
                "answered 0 of its 2",
            ),
            (
                format!("{FLEET_HEADER} report jobs=1\njob {id0:016x} simulated\ndone jobs=1\n"),
                "has no entry block",
            ),
            (
                format!("{FLEET_HEADER} report jobs=1\njob {id0:016x} teleported\n"),
                "unknown provenance",
            ),
            (
                format!(
                    "{FLEET_HEADER} report jobs=1\njob 00000000deadbeef simulated\n\
                     done jobs=1\n"
                ),
                "was not dispatched",
            ),
            (
                format!("{FLEET_HEADER} report jobs=1\njob {id0:016x} simulated\n"),
                "without a done line",
            ),
            (
                format!(
                    "{FLEET_HEADER} report jobs=1\njob {id0:016x} simulated\n\
                     entry {id0:016x} 0000000000000000 lines=400\nsigcomp-explore v2\n"
                ),
                "truncated mid-block",
            ),
            (
                good.replace("done jobs=2", "done jobs=3"),
                "declares 3 jobs",
            ),
            (good.replace("done jobs=2\n", ""), "without a done line"),
            (format!("{good}late line\n"), "line after the done line"),
        ] {
            let err = parse_report(&body, &expected).unwrap_err();
            assert!(err.contains(needle), "{body:?}: {err}");
        }
    }

    #[test]
    fn partial_reports_are_rejected() {
        // A worker that silently drops one of its jobs must not pass.
        let specs = jobs(2);
        let body = encode_report(&[outcome(specs[0], 1, false)], &Snapshot::default());
        let expected: HashSet<u64> = specs.iter().map(JobSpec::job_id).collect();
        let err = parse_report(&body, &expected).unwrap_err();
        assert!(err.contains("answered 1 of its 2"), "{err}");
    }

    #[test]
    fn registration_and_heartbeats_round_trip() {
        let (addr, capacity) =
            parse_register(&encode_register("127.0.0.1:7878", 8)).expect("parses");
        assert_eq!(addr, "127.0.0.1:7878");
        assert_eq!(capacity, 8);

        let registry = Registry::new();
        registry.counter("replay.jobs_simulated").add(42);
        let body = encode_heartbeat("worker-3.local:9000", 4, &registry.snapshot());
        let (addr, capacity, obs) = parse_heartbeat(&body).expect("parses");
        assert_eq!(addr, "worker-3.local:9000");
        assert_eq!(capacity, 4);
        assert_eq!(obs.counter("replay.jobs_simulated"), 42);
    }

    #[test]
    fn announcement_violations_are_named() {
        for (body, needle) in [
            ("", "empty register body"),
            ("nope", "bad register header"),
            (
                "sigcomp-fleet v1 register addr=127.0.0.1:1",
                "bad register header",
            ),
            (
                "sigcomp-fleet v1 register addr=127.0.0.1:1 capacity=x",
                "bad register header",
            ),
            (
                "sigcomp-fleet v1 register addr=spaces-not-ok capacity=1",
                "invalid worker address",
            ),
            (
                "sigcomp-fleet v1 register addr=evil\"quote:1 capacity=1",
                "invalid worker address",
            ),
            (
                "sigcomp-fleet v1 register addr=127.0.0.1:1 capacity=1\nextra",
                "trailing lines",
            ),
        ] {
            let err = parse_register(body).unwrap_err();
            assert!(err.contains(needle), "{body:?}: {err}");
        }
        let err =
            parse_heartbeat("sigcomp-fleet v1 heartbeat addr=a:1 capacity=1\nnot-obs").unwrap_err();
        assert!(err.contains("unexpected heartbeat line"), "{err}");
    }
}
