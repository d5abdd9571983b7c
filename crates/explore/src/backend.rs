//! Pluggable execution backends: where the jobs of a sweep actually run.
//!
//! Every execution path in the workspace — `repro sweep`, the serving
//! front-end's [`Batcher`](../../sigcomp_serve/batch/struct.Batcher.html),
//! the examples — funnels through one dispatch point
//! ([`crate::try_run_jobs_traced`]) parameterized by an [`ExecBackend`]:
//!
//! * [`ExecBackend::LocalThreads`] — the in-process work-stealing executor
//!   ([`crate::executor`]).
//! * [`ExecBackend::Subprocess`] and [`ExecBackend::Fleet`] — the one
//!   scatter/merge core ([`crate::scatter`]) with two transports: `repro
//!   worker` child processes (here) and remote `repro serve` workers
//!   (`sigcomp-fabric`). The core dedups, sorts by [`JobSpec::job_id`],
//!   deals shards round-robin and merges through the shared
//!   [`crate::ResultCache`], so output is byte-identical to one process.
//!
//! # The worker protocol
//!
//! The parent pipes the **whole** id-sorted pending list, one
//! [`JobSpec::to_wire`] line per job, to every child's stdin. A child
//! started with `--shard i/n` executes its
//! [`round_robin`](crate::round_robin) share of the lines; every child sees
//! the same list in the same order, so the partition needs no
//! coordination. Children store results into the shared cache (atomic
//! write-to-temp + rename) and answer on stdout with a versioned report:
//!
//! ```text
//! sigcomp-worker v2 shard 0/3
//! job 00f3a6e2d41b9c70 simulated
//! job 3b1e09c55a7d2f18 cached
//! obs counter replay.jobs_simulated 1
//! obs counter replay.jobs_cached 1
//! done jobs=2 simulated=1 cached=1
//! ```
//!
//! `obs` lines carry the worker's registry snapshot in
//! [`sigcomp_obs::Snapshot::to_wire`] form; the parent folds each verified
//! shard's snapshot into its own global registry (the merge is commutative)
//! and keeps them in [`SweepSummary::shard_obs`](crate::SweepSummary::shard_obs).
//! A child that cannot spawn, dies, or emits a malformed report is a fatal,
//! named [`ExecError`] — never a hang, a panic or a partial merge.

use crate::scatter::{scatter_jobs, JobLedger, Shard, ShardOutcome, ShardReport, ShardTransport};
use crate::spec::{JobSpec, TraceInput};
use crate::sweep::{SweepOptions, SweepSummary};
use std::collections::HashSet;
use std::fmt;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::OnceLock;

/// First line of a worker's stdout report (followed by ` shard i/n`); the
/// version is bumped whenever the report grammar changes so a parent can
/// never misread an incompatible worker.
pub const WORKER_HEADER: &str = "sigcomp-worker v2";

/// Where the jobs of a sweep execute.
///
/// The default is [`ExecBackend::LocalThreads`] — the original in-process
/// engine, bit-for-bit. Every backend upholds the same contract: outcomes
/// come back in submission order and merged results are byte-identical to a
/// single-worker, single-process run.
#[derive(Debug, Clone, Default)]
pub enum ExecBackend {
    /// The in-process work-stealing thread pool ([`crate::executor`]).
    #[default]
    LocalThreads,
    /// Worker child processes sharing one on-disk [`crate::ResultCache`]
    /// (which [`SweepOptions::cache`] must therefore provide).
    Subprocess(SubprocessConfig),
    /// Remote `repro serve` worker servers dispatched over HTTP by the
    /// `sigcomp-fabric` frontier, merging through the local
    /// [`crate::ResultCache`] (which [`SweepOptions::cache`] must provide).
    /// The runner itself lives in `sigcomp-fabric` and is registered via
    /// [`install_fleet_runner`]; selecting this backend without a linked
    /// fabric is a named [`ExecError::Config`].
    Fleet(FleetConfig),
}

impl ExecBackend {
    /// Stable identifier used in summaries, logs and server metrics.
    #[must_use]
    pub fn id(&self) -> &'static str {
        match self {
            ExecBackend::LocalThreads => "local",
            ExecBackend::Subprocess(_) => "subprocess",
            ExecBackend::Fleet(_) => "fleet",
        }
    }
}

/// How the fleet backend reaches its worker servers.
///
/// This is pure data — the HTTP client and the dispatch/retry/re-shard
/// machinery live in `sigcomp-fabric` — so `sigcomp-explore` stays free of
/// any networking while the [`ExecBackend`] enum remains the single
/// execution dispatch point of the workspace.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker base addresses (`host:port`). The frontier sorts them before
    /// sharding so the partition is a pure function of the worker set, not
    /// of registration order. Empty means "no workers": the fleet runner
    /// degrades gracefully to local execution over the same cache.
    pub workers: Vec<String>,
    /// Per-dispatch HTTP timeout in milliseconds (connect + request +
    /// response). A dispatch that exceeds it counts as one failed attempt.
    pub timeout_ms: u64,
    /// Dispatch attempts per worker (with backoff between them) before the
    /// worker is declared dead and its jobs are re-sharded to survivors.
    pub attempts: u32,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: Vec::new(),
            timeout_ms: 60_000,
            attempts: 3,
        }
    }
}

/// Signature of the fleet runner `sigcomp-fabric` installs: the same
/// contract as the other backends — outcomes in submission order, merged
/// output byte-identical to a single-process run.
pub type FleetRunner =
    fn(&[JobSpec], &[TraceInput], &SweepOptions, &FleetConfig) -> Result<SweepSummary, ExecError>;

static FLEET_RUNNER: OnceLock<FleetRunner> = OnceLock::new();

/// Registers the fleet runner (called by `sigcomp_fabric::install`).
/// Idempotent: the first installation wins, later calls are no-ops — the
/// runner is a stateless `fn` pointer, so "again" could only ever mean
/// "the same".
pub fn install_fleet_runner(runner: FleetRunner) {
    let _ = FLEET_RUNNER.set(runner);
}

/// Dispatches to the installed fleet runner.
pub(crate) fn run_fleet(
    jobs: &[JobSpec],
    traces: &[TraceInput],
    options: &SweepOptions,
    config: &FleetConfig,
) -> Result<SweepSummary, ExecError> {
    match FLEET_RUNNER.get() {
        Some(runner) => runner(jobs, traces, options, config),
        None => Err(ExecError::Config(
            "no fleet runner is installed (link sigcomp-fabric and call its install())".to_owned(),
        )),
    }
}

/// How the subprocess backend spawns its workers.
#[derive(Debug, Clone)]
pub struct SubprocessConfig {
    /// Worker processes to spawn (clamped to the deduped job count; must be
    /// at least 1).
    pub shards: usize,
    /// The worker executable — normally the `repro` binary itself (the
    /// parent's `std::env::current_exe()`), overridable to interpose a
    /// launcher (a container or ssh wrapper, say).
    pub program: PathBuf,
    /// Arguments placed before the protocol flags, normally `["worker"]`.
    pub args: Vec<String>,
    /// `.sctrace` paths forwarded to workers so they can resolve
    /// [`crate::TraceSource::File`] jobs (the wire line carries only the
    /// content digest).
    pub trace_paths: Vec<String>,
    /// When set, each worker is started with `--obs-log <path>.shard-<i>`
    /// so its JSONL structured-event stream lands next to the parent's.
    pub obs_log: Option<PathBuf>,
}

impl SubprocessConfig {
    /// A config running `program worker` with the given shard count.
    #[must_use]
    pub fn new(shards: usize, program: impl Into<PathBuf>) -> Self {
        SubprocessConfig {
            shards,
            program: program.into(),
            args: vec!["worker".to_owned()],
            trace_paths: Vec::new(),
            obs_log: None,
        }
    }
}

/// Why a backend could not produce a summary. The subprocess and fleet
/// backends are the fallible paths; the local backend never returns these.
#[derive(Debug)]
pub enum ExecError {
    /// The backend configuration is unusable (e.g. zero shards).
    Config(String),
    /// The subprocess and fleet backends need [`SweepOptions::cache`]: the
    /// cache directory is the merge point results are published through.
    CacheRequired,
    /// A worker process could not be spawned.
    Spawn {
        /// Shard index of the worker.
        shard: usize,
        /// Total shard count.
        shards: usize,
        /// The underlying spawn failure.
        error: std::io::Error,
    },
    /// A worker exited unsuccessfully (crashed, was killed, or reported a
    /// failure of its own).
    WorkerFailed {
        /// Shard index of the worker.
        shard: usize,
        /// Total shard count.
        shards: usize,
        /// Exit-status description.
        detail: String,
    },
    /// A worker's stdout report violated the protocol.
    Protocol {
        /// Shard index of the worker.
        shard: usize,
        /// Total shard count.
        shards: usize,
        /// What was malformed.
        detail: String,
    },
    /// Every worker succeeded yet the shared cache holds no entry for a
    /// job — the merge point lost a result (e.g. the directory was cleaned
    /// mid-run).
    ResultMissing {
        /// The orphaned job's content hash.
        job_id: u64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Config(detail) => write!(f, "bad backend configuration: {detail}"),
            ExecError::CacheRequired => write!(
                f,
                "this backend requires a result cache \
                 (the cache directory is the merge point)"
            ),
            ExecError::Spawn {
                shard,
                shards,
                error,
            } => write!(f, "cannot spawn worker shard {shard}/{shards}: {error}"),
            ExecError::WorkerFailed {
                shard,
                shards,
                detail,
            } => write!(f, "worker shard {shard}/{shards} failed: {detail}"),
            ExecError::Protocol {
                shard,
                shards,
                detail,
            } => write!(
                f,
                "worker shard {shard}/{shards} protocol violation: {detail}"
            ),
            ExecError::ResultMissing { job_id } => write!(
                f,
                "job {job_id:016x} missing from the shared cache after all workers finished"
            ),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Spawn { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// Parses a `--shard i/n` value into `(index, count)`.
///
/// # Errors
///
/// A message naming the malformation: not of the form `i/n`, a zero count,
/// or an index not below the count (e.g. `3/2`).
pub fn parse_shard(value: &str) -> Result<(usize, usize), String> {
    let (index, count) = value
        .split_once('/')
        .ok_or_else(|| format!("invalid shard '{value}' (expected INDEX/COUNT, e.g. 0/3)"))?;
    let index: usize = index
        .parse()
        .map_err(|_| format!("invalid shard '{value}': '{index}' is not an integer"))?;
    let count: usize = count
        .parse()
        .map_err(|_| format!("invalid shard '{value}': '{count}' is not an integer"))?;
    if count == 0 {
        return Err(format!(
            "invalid shard '{value}': the shard count must be positive"
        ));
    }
    if index >= count {
        return Err(format!(
            "invalid shard '{value}': the shard index must be below the shard count"
        ));
    }
    Ok((index, count))
}

/// The subprocess transport: one `repro worker` child per shard, fed the
/// whole pending list on stdin and answering with a `sigcomp-worker v2`
/// report on stdout.
struct Children<'a> {
    config: &'a SubprocessConfig,
    /// Threads per child: [`SweepOptions::workers`] when set.
    workers: Option<usize>,
}

impl ShardTransport for Children<'_> {
    type Slot = ();
    const BACKEND: &'static str = "subprocess";

    fn run_shard(&self, _slot: &(), shard: Shard<'_>) -> Result<ShardOutcome, ExecError> {
        let Shard { index, count, .. } = shard;
        // An explicit --workers is forwarded as-is (it is documented as
        // "per shard"); otherwise the machine's parallelism is divided
        // across the shards so a default run never oversubscribes the host.
        let threads = self.workers.unwrap_or_else(|| {
            let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
            (cores / count).max(1)
        });
        let mut command = Command::new(&self.config.program);
        command
            .args(&self.config.args)
            .arg("--shard")
            .arg(format!("{index}/{count}"))
            .arg("--cache")
            .arg(shard.cache.root())
            .arg("--workers")
            .arg(threads.to_string());
        if !self.config.trace_paths.is_empty() {
            command
                .arg("--traces")
                .arg(self.config.trace_paths.join(","));
        }
        if let Some(obs_log) = &self.config.obs_log {
            command
                .arg("--obs-log")
                .arg(format!("{}.shard-{index}", obs_log.display()));
        }
        // stderr is inherited: a worker's own named error surfaces directly
        // on the parent's stderr next to the ExecError naming the shard.
        let mut child = command
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|error| ExecError::Spawn {
                shard: index,
                shards: count,
                error,
            })?;
        let failed = |detail: String| ExecError::WorkerFailed {
            shard: index,
            shards: count,
            detail,
        };
        // The child drains stdin to EOF before it simulates, so feeding the
        // whole list and then collecting its output cannot deadlock.
        if let Some(mut stdin) = child.stdin.take() {
            let wire: String = shard
                .pending
                .iter()
                .map(|job| job.to_wire() + "\n")
                .collect();
            // A write failure means the child died early; its exit status
            // carries the real diagnosis below.
            let _ = stdin.write_all(wire.as_bytes());
        }
        let output = child
            .wait_with_output()
            .map_err(|error| failed(format!("collecting its output failed: {error}")))?;
        if !output.status.success() {
            return Err(failed(output.status.to_string()));
        }
        let expected: HashSet<u64> = shard.jobs().map(JobSpec::job_id).collect();
        let stdout = String::from_utf8_lossy(&output.stdout);
        parse_report(&stdout, index, count, &expected).map(ShardOutcome::Done)
    }
}

/// Runs `jobs` on the subprocess backend: the scatter core over `shards`
/// `repro worker` children, then every verified shard's obs snapshot folded
/// into the parent's global registry.
///
/// # Errors
///
/// Any [`ExecError`]. A failed child is fatal; cache entries already
/// published by finished workers stay for later runs to reuse.
pub(crate) fn run_subprocess(
    jobs: &[JobSpec],
    traces: &[TraceInput],
    options: &SweepOptions,
    config: &SubprocessConfig,
) -> Result<SweepSummary, ExecError> {
    if config.shards == 0 {
        return Err(ExecError::Config(
            "the shard count must be positive".to_owned(),
        ));
    }
    let children = Children {
        config,
        workers: options.workers,
    };
    let summary = scatter_jobs(jobs, traces, options, &children, vec![(); config.shards])?;
    // The merge is commutative, so the merged totals equal the
    // single-process run's regardless of how the jobs were sharded.
    for (shard, snap) in summary.shard_obs.iter().enumerate() {
        sigcomp_obs::global()
            .merge_snapshot(snap)
            .map_err(|e| ExecError::Protocol {
                shard,
                shards: summary.workers,
                detail: e.to_string(),
            })?;
    }
    Ok(summary)
}

/// Parses and verifies one worker's stdout report against the job-id set
/// the shard was assigned.
fn parse_report(
    stdout: &str,
    shard: usize,
    shards: usize,
    expected: &HashSet<u64>,
) -> Result<ShardReport, ExecError> {
    let parse = || -> Result<ShardReport, String> {
        let mut lines = stdout.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or("empty report")?;
        let expected_header = format!("{WORKER_HEADER} shard {shard}/{shards}");
        if header != expected_header {
            return Err(format!(
                "bad header '{header}' (expected '{expected_header}')"
            ));
        }
        let stranger = format!("does not belong to shard {shard}/{shards}");
        let mut ledger = JobLedger::new(expected, &stranger);
        let mut obs = sigcomp_obs::Snapshot::default();
        for line in lines {
            ledger.check_open(line)?;
            if let Some(rest) = line.strip_prefix("obs ") {
                obs.parse_wire_line(rest).map_err(|e| e.to_string())?;
            } else if line.starts_with("job ") {
                ledger.job(line)?;
            } else if line.starts_with("done ") {
                ledger.done(line)?;
            } else {
                return Err(format!("unexpected line '{line}'"));
            }
        }
        Ok(ShardReport {
            jobs: ledger.finish()?,
            obs,
        })
    };
    parse().map_err(|detail| ExecError::Protocol {
        shard,
        shards,
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ResultCache;
    use crate::spec::{MemProfile, SweepSpec, TraceSource};
    use sigcomp::ExtScheme;
    use sigcomp_pipeline::OrgKind;
    use sigcomp_workloads::{suite_names, WorkloadSize};

    fn spec(workload_index: usize, org: OrgKind) -> JobSpec {
        JobSpec {
            scheme: ExtScheme::ThreeBit,
            org,
            workload: suite_names()[workload_index],
            size: WorkloadSize::Tiny,
            mem: MemProfile::Paper,
            source: TraceSource::Kernel,
        }
    }

    #[test]
    fn shard_values_parse_and_malformed_ones_are_named() {
        assert_eq!(parse_shard("0/1"), Ok((0, 1)));
        assert_eq!(parse_shard("2/3"), Ok((2, 3)));
        for (raw, needle) in [
            ("", "expected INDEX/COUNT"),
            ("3", "expected INDEX/COUNT"),
            ("a/2", "'a' is not an integer"),
            ("1/b", "'b' is not an integer"),
            ("0/0", "must be positive"),
            ("3/2", "below the shard count"),
            ("2/2", "below the shard count"),
        ] {
            let err = parse_shard(raw).unwrap_err();
            assert!(err.contains(needle), "{raw:?}: {err}");
        }
    }

    #[test]
    fn worker_reports_are_verified_strictly() {
        let job = spec(0, OrgKind::ByteSerial);
        let id = job.job_id();
        let expected: HashSet<u64> = [id].into_iter().collect();
        let good = format!("{WORKER_HEADER} shard 0/2\njob {id:016x} simulated\ndone jobs=1\n");
        let report = parse_report(&good, 0, 2, &expected).expect("valid report");
        assert_eq!(report.jobs, vec![(id, false)]);
        assert!(report.obs.is_empty());

        // v2: obs lines carry the worker's registry snapshot.
        let with_obs = format!(
            "{WORKER_HEADER} shard 0/2\njob {id:016x} simulated\n\
             obs counter replay.jobs_simulated 1\n\
             obs hist replay.job count=1 sum=7 min=7 max=7 bounds=10,100 buckets=1,0,0\n\
             done jobs=1\n"
        );
        let report = parse_report(&with_obs, 0, 2, &expected).expect("valid report with obs");
        assert_eq!(report.obs.counter("replay.jobs_simulated"), 1);
        assert_eq!(report.obs.histograms["replay.job"].count, 1);

        for (stdout, needle) in [
            (String::new(), "empty report"),
            ("definitely not the header\n".to_owned(), "bad header"),
            (
                format!("{WORKER_HEADER} shard 1/2\ndone jobs=0\n"),
                "bad header",
            ),
            (
                format!("{WORKER_HEADER} shard 0/2\njob zz simulated\ndone jobs=1\n"),
                "malformed job id",
            ),
            (
                format!("{WORKER_HEADER} shard 0/2\njob {id:016x} teleported\ndone jobs=1\n"),
                "unknown provenance",
            ),
            (
                format!(
                    "{WORKER_HEADER} shard 0/2\njob {:016x} simulated\ndone jobs=1\n",
                    id ^ 1
                ),
                "does not belong to shard",
            ),
            (
                format!(
                    "{WORKER_HEADER} shard 0/2\njob {id:016x} simulated\n\
                     job {id:016x} cached\ndone jobs=2\n"
                ),
                "reported twice",
            ),
            (
                format!("{WORKER_HEADER} shard 0/2\njob {id:016x} simulated\ndone jobs=7\n"),
                "declares 7 jobs",
            ),
            (
                format!("{WORKER_HEADER} shard 0/2\njob {id:016x} simulated\n"),
                "without a done line",
            ),
            (
                format!("{WORKER_HEADER} shard 0/2\ndone jobs=0\n"),
                "0 of its 1 assigned jobs",
            ),
            (
                format!(
                    "{WORKER_HEADER} shard 0/2\njob {id:016x} simulated\n\
                     obs widget x 1\ndone jobs=1\n"
                ),
                "unknown metric kind",
            ),
            (
                format!(
                    "{WORKER_HEADER} shard 0/2\njob {id:016x} simulated\n\
                     done jobs=1\nobs counter replay.jobs_simulated 1\n"
                ),
                "obs line after the done line",
            ),
        ] {
            let err = parse_report(&stdout, 0, 2, &expected).unwrap_err();
            assert!(err.to_string().contains(needle), "{stdout:?}: {err}");
        }
    }

    #[test]
    fn subprocess_without_a_cache_is_a_named_error() {
        let jobs = SweepSpec::paper(WorkloadSize::Tiny)
            .workloads(&["rawcaudio"])
            .enumerate();
        let config = SubprocessConfig::new(2, "/definitely/not/a/binary");
        let options = SweepOptions::default();
        let err = run_subprocess(&jobs, &[], &options, &config).unwrap_err();
        assert!(matches!(err, ExecError::CacheRequired), "{err}");

        let zero = SubprocessConfig::new(0, "/definitely/not/a/binary");
        let err = run_subprocess(&jobs, &[], &options, &zero).unwrap_err();
        assert!(matches!(err, ExecError::Config(_)), "{err}");
    }

    #[test]
    fn subprocess_spawn_failures_name_the_shard() {
        let _guard = crate::scatter::tests::COUNTERS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let dir =
            std::env::temp_dir().join(format!("sigcomp-backend-spawn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).expect("cache opens");
        let jobs = SweepSpec::paper(WorkloadSize::Tiny)
            .workloads(&["rawcaudio"])
            .enumerate();
        let config = SubprocessConfig::new(2, "/definitely/not/a/binary");
        let options = SweepOptions {
            cache: Some(cache),
            ..SweepOptions::default()
        };
        let err = run_subprocess(&jobs, &[], &options, &config).unwrap_err();
        assert!(
            matches!(
                err,
                ExecError::Spawn {
                    shard: 0,
                    shards: 2,
                    ..
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("cannot spawn worker shard 0/2"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_job_lists_short_circuit_without_spawning() {
        let dir =
            std::env::temp_dir().join(format!("sigcomp-backend-empty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).expect("cache opens");
        let config = SubprocessConfig::new(3, "/definitely/not/a/binary");
        let options = SweepOptions {
            cache: Some(cache),
            ..SweepOptions::default()
        };
        let summary = run_subprocess(&[], &[], &options, &config).expect("empty run");
        assert!(summary.outcomes.is_empty());
        assert_eq!(summary.workers, 0);
        assert_eq!(summary.backend, "subprocess");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
