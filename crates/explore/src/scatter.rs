//! The scatter/merge core behind every scaled-out backend.
//!
//! A scaled-out sweep is one algorithm with a pluggable middle:
//!
//! 1. dedup the submission by [`JobSpec::job_id`] ([`dedup_jobs`]);
//! 2. sort the unique jobs by id, so shard membership is a pure function of
//!    the job *contents*, never of submission order;
//! 3. deal the pending jobs round-robin over the live slots
//!    ([`round_robin`]) and run every shard through a [`ShardTransport`],
//!    one thread per shard;
//! 4. return a lost slot's jobs to the pending set and re-shard them over
//!    the survivors; when no slot survives, run what is left on the local
//!    backend over the same cache;
//! 5. restore every unique job from the shared [`crate::ResultCache`] — the
//!    cache is the merge point — and fold totals per submitted position.
//!
//! Two transports plug in: `repro worker` child processes speaking the
//! `sigcomp-worker v2` protocol ([`crate::backend`]) and remote `repro
//! serve` workers speaking `sigcomp-fleet v1` (`sigcomp-fabric`). Results
//! are restored from cache entries keyed by content hash, so the merged
//! [`SweepSummary`] is byte-identical to a single-process run for either
//! transport and any slot count. Both report grammars answer a shard with
//! `job ID simulated|cached` lines and a `done jobs=N` trailer, verified by
//! one [`JobLedger`].

use crate::backend::{ExecBackend, ExecError};
use crate::cache::ResultCache;
use crate::spec::{JobSpec, TraceInput};
use crate::sweep::{run_jobs_local, JobOutcome, SweepOptions, SweepShard, SweepSummary};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// A job list deduplicated by content hash: the first occurrence of each
/// [`JobSpec::job_id`] leads; every position maps back to its leader.
///
/// This is the *one* dedup-by-`job_id` implementation in the workspace —
/// the serve batcher and [`scatter_jobs`] (so both the subprocess and the
/// fleet backend) group through it, so coalescing semantics can never
/// drift between schedulers.
#[derive(Debug)]
pub struct DedupedJobs {
    /// First occurrence of each distinct job id, in submission order.
    pub unique: Vec<JobSpec>,
    /// For every input position, the index into [`DedupedJobs::unique`]
    /// that answers it.
    pub leader_of: Vec<usize>,
    /// For every unique entry, the input position that introduced it.
    pub leader_position: Vec<usize>,
}

impl DedupedJobs {
    /// Whether input position `pos` coalesced onto an earlier submission
    /// (i.e. is not the first occurrence of its job id).
    #[must_use]
    pub fn is_follower(&self, pos: usize) -> bool {
        self.leader_position[self.leader_of[pos]] != pos
    }

    /// Input positions minus unique jobs: how many submissions coalesced.
    #[must_use]
    pub fn followers(&self) -> usize {
        self.leader_of.len() - self.unique.len()
    }
}

/// Groups `jobs` by [`JobSpec::job_id`], first occurrence leading.
#[must_use]
pub fn dedup_jobs(jobs: &[JobSpec]) -> DedupedJobs {
    let mut unique = Vec::new();
    let mut leader_of = Vec::with_capacity(jobs.len());
    let mut leader_position = Vec::new();
    let mut index_of: HashMap<u64, usize> = HashMap::new();
    for (pos, job) in jobs.iter().enumerate() {
        let leader = *index_of.entry(job.job_id()).or_insert_with(|| {
            unique.push(*job);
            leader_position.push(pos);
            unique.len() - 1
        });
        leader_of.push(leader);
    }
    let obs = sigcomp_obs::global();
    obs.counter("explore.dedup.unique").add(unique.len() as u64);
    obs.counter("explore.dedup.followers")
        .add((jobs.len() - unique.len()) as u64);
    DedupedJobs {
        unique,
        leader_of,
        leader_position,
    }
}

/// Shard `index` of `count`: the items whose 0-based rank satisfies
/// `rank % count == index`. Every round of [`scatter_jobs`] and the shard
/// filter of `repro worker` partition through this one function.
pub fn round_robin<T>(items: &[T], index: usize, count: usize) -> impl Iterator<Item = &T> {
    items.iter().skip(index).step_by(count)
}

/// One shard of a round, as a [`ShardTransport`] sees it.
#[derive(Debug, Clone, Copy)]
pub struct Shard<'a> {
    /// This shard's index within the round.
    pub index: usize,
    /// Shards in the round.
    pub count: usize,
    /// Every job still pending, sorted by id; this shard owns
    /// [`Shard::jobs`] of them.
    pub pending: &'a [JobSpec],
    /// The merge point: results must land here before the shard reports.
    pub cache: &'a ResultCache,
}

impl<'a> Shard<'a> {
    /// The jobs this shard owns, in id order.
    pub fn jobs(&self) -> impl Iterator<Item = &'a JobSpec> {
        round_robin(self.pending, self.index, self.count)
    }
}

/// A shard's verified report.
#[derive(Debug, Default)]
pub struct ShardReport {
    /// `(job_id, from_cache)` per executed job, in the executor's order.
    pub jobs: Vec<(u64, bool)>,
    /// The executor's observability-registry snapshot.
    pub obs: sigcomp_obs::Snapshot,
}

/// How one shard of a round ended.
#[derive(Debug)]
pub enum ShardOutcome {
    /// Every job of the shard ran and its result is in the shared cache.
    Done(ShardReport),
    /// The slot is gone for the rest of the sweep: its jobs are re-sharded
    /// over the surviving slots, or run locally if none survive.
    Lost,
}

/// Carries one shard to wherever it executes and brings its report back.
pub trait ShardTransport: Sync {
    /// Where a shard can run (a worker address, say).
    type Slot: Sync;
    /// The [`SweepSummary::backend`] id.
    const BACKEND: &'static str;

    /// Runs one shard. Called concurrently for every shard of a round; a
    /// [`ShardOutcome::Done`] report answers exactly [`Shard::jobs`].
    ///
    /// # Errors
    ///
    /// An error is fatal: the sweep fails with the error of the lowest
    /// failing shard once the round has finished.
    fn run_shard(&self, slot: &Self::Slot, shard: Shard<'_>) -> Result<ShardOutcome, ExecError>;
}

/// Runs `jobs` through `transport` over `slots` and merges the results
/// through [`SweepOptions::cache`].
///
/// Outcomes come back in submission order. Duplicate submissions are
/// coalesced: every follower position receives its leader's metrics with
/// `from_cache = true`, so `simulated + cached == outcomes.len()`.
///
/// # Errors
///
/// [`ExecError::CacheRequired`] without a cache, the first fatal
/// transport error, or [`ExecError::ResultMissing`] if the cache lost an
/// entry after execution.
pub fn scatter_jobs<T: ShardTransport>(
    jobs: &[JobSpec],
    traces: &[TraceInput],
    options: &SweepOptions,
    transport: &T,
    mut slots: Vec<T::Slot>,
) -> Result<SweepSummary, ExecError> {
    let cache = options.cache.as_ref().ok_or(ExecError::CacheRequired)?;
    let started = Instant::now();
    let mut summary = SweepSummary {
        outcomes: Vec::with_capacity(jobs.len()),
        totals: SweepShard::default(),
        worker_loads: Vec::new(),
        workers: 0,
        wall: Duration::ZERO,
        backend: T::BACKEND,
        shard_obs: Vec::new(),
    };
    if jobs.is_empty() {
        summary.wall = started.elapsed();
        return Ok(summary);
    }

    let deduped = dedup_jobs(jobs);
    let mut pending = deduped.unique.clone();
    pending.sort_unstable_by_key(JobSpec::job_id);
    let obs = sigcomp_obs::global();
    let mut provenance: HashMap<u64, bool> = HashMap::with_capacity(pending.len());
    while !pending.is_empty() && !slots.is_empty() {
        let count = slots.len().min(pending.len());
        let results: Vec<Result<ShardOutcome, ExecError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = slots[..count]
                .iter()
                .enumerate()
                .map(|(index, slot)| {
                    let shard = Shard {
                        index,
                        count,
                        pending: &pending,
                        cache,
                    };
                    scope.spawn(move || transport.run_shard(slot, shard))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard threads never panic"))
                .collect()
        });
        let idle = slots.split_off(count);
        let mut survivors = Vec::with_capacity(count + idle.len());
        let mut lost = false;
        for (slot, result) in slots.into_iter().zip(results) {
            match result? {
                ShardOutcome::Done(report) => {
                    provenance.extend(report.jobs.iter().copied());
                    summary.worker_loads.push((report.jobs.len() as u64, 0));
                    summary.shard_obs.push(report.obs);
                    survivors.push(slot);
                }
                ShardOutcome::Lost => {
                    obs.counter("fleet.frontier.workers_lost").incr();
                    lost = true;
                }
            }
        }
        survivors.extend(idle);
        slots = survivors;
        pending.retain(|job| !provenance.contains_key(&job.job_id()));
        // The re-shard and fallback counters keep the fleet frontier's
        // names: the fleet is the transport that loses slots.
        if lost && !pending.is_empty() && !slots.is_empty() {
            obs.counter("fleet.frontier.reshards").incr();
        }
    }

    // Graceful degradation: whatever no slot ran executes locally over the
    // same cache, so the sweep always completes and merges identically.
    if !pending.is_empty() {
        let local_options = SweepOptions {
            workers: options.workers,
            cache: Some(cache.clone()),
            backend: ExecBackend::LocalThreads,
        };
        let local = run_jobs_local(&pending, traces, &local_options);
        obs.counter("fleet.frontier.jobs_local")
            .add(local.outcomes.len() as u64);
        provenance.extend(
            local
                .outcomes
                .iter()
                .map(|o| (o.spec.job_id(), o.from_cache)),
        );
        summary.worker_loads.push((local.outcomes.len() as u64, 0));
    }

    // Merge through the cache. The loads are unobserved: the cache traffic
    // happened where each job ran, and counting the restore again would
    // make a scaled-out sweep's obs totals disagree with one process's.
    let restored: Vec<_> = deduped
        .unique
        .iter()
        .map(|job| {
            let id = job.job_id();
            let metrics = cache
                .load_unobserved(id)
                .ok_or(ExecError::ResultMissing { job_id: id })?;
            Ok((metrics, provenance[&id]))
        })
        .collect::<Result<_, ExecError>>()?;

    // Totals fold per submitted *position*, like the local backend: a
    // follower counts as cache-answered, a leader carries the provenance
    // its executor reported.
    let totals = &mut summary.totals;
    for (pos, &leader) in deduped.leader_of.iter().enumerate() {
        let (metrics, leader_cached) = restored[leader];
        let from_cache = leader_cached || deduped.is_follower(pos);
        totals.activity.merge(&metrics.activity);
        if from_cache {
            totals.cached += 1;
        } else {
            totals.simulated += 1;
            totals.instructions_simulated += metrics.instructions;
        }
        summary.outcomes.push(JobOutcome {
            spec: deduped.unique[leader],
            metrics,
            from_cache,
        });
    }
    summary.workers = summary.worker_loads.len();
    summary.wall = started.elapsed();
    Ok(summary)
}

/// The `job`/`done` lines both shard-report grammars share (`sigcomp-worker
/// v2` on a child's stdout, `sigcomp-fleet v1` in a dispatch response):
/// every assigned job answered exactly once as `job ID simulated|cached`,
/// then a `done jobs=N` trailer, then nothing.
#[derive(Debug)]
pub struct JobLedger<'a> {
    expected: &'a HashSet<u64>,
    stranger: &'a str,
    seen: HashSet<u64>,
    jobs: Vec<(u64, bool)>,
    done: bool,
}

impl<'a> JobLedger<'a> {
    /// A ledger for a report that must answer exactly `expected`;
    /// `stranger` finishes the message for any other id (`job ID …`).
    #[must_use]
    pub fn new(expected: &'a HashSet<u64>, stranger: &'a str) -> Self {
        JobLedger {
            expected,
            stranger,
            seen: HashSet::with_capacity(expected.len()),
            jobs: Vec::with_capacity(expected.len()),
            done: false,
        }
    }

    /// The `job` line a report carries for one executed job.
    #[must_use]
    pub fn line(id: u64, from_cache: bool) -> String {
        let provenance = if from_cache { "cached" } else { "simulated" };
        format!("job {id:016x} {provenance}")
    }

    /// Rejects, by name, every line once the `done` trailer was seen.
    pub fn check_open(&self, line: &str) -> Result<(), String> {
        if !self.done {
            return Ok(());
        }
        let kind = match line.split_once(' ') {
            Some((kind @ ("job" | "entry" | "obs" | "done"), _)) => kind,
            _ => "unexpected",
        };
        Err(format!("{kind} line after the done line: '{line}'"))
    }

    /// Records a `job ID simulated|cached` line and returns its id; a
    /// malformed line, an unassigned id or a repeat is an error.
    pub fn job(&mut self, line: &str) -> Result<u64, String> {
        let rest = line.strip_prefix("job ").unwrap_or(line);
        let (id, provenance) = rest
            .split_once(' ')
            .ok_or_else(|| format!("malformed job line '{line}'"))?;
        let id =
            u64::from_str_radix(id, 16).map_err(|_| format!("malformed job id in '{line}'"))?;
        let from_cache = match provenance {
            "simulated" => false,
            "cached" => true,
            other => return Err(format!("unknown provenance '{other}' in '{line}'")),
        };
        if !self.expected.contains(&id) {
            return Err(format!("job {id:016x} {}", self.stranger));
        }
        if !self.seen.insert(id) {
            return Err(format!("job {id:016x} reported twice"));
        }
        self.jobs.push((id, from_cache));
        Ok(id)
    }

    /// Checks the `done jobs=N …` trailer against the jobs seen so far.
    pub fn done(&mut self, line: &str) -> Result<(), String> {
        let declared = line
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix("jobs="))
            .and_then(|v| v.parse::<usize>().ok())
            .ok_or_else(|| format!("malformed done line '{line}'"))?;
        if declared != self.jobs.len() {
            return Err(format!(
                "done line declares {declared} jobs but {} were reported",
                self.jobs.len()
            ));
        }
        self.done = true;
        Ok(())
    }

    /// Ends the report: `(job_id, from_cache)` per job, in report order,
    /// or an error if the trailer is missing or a job went unanswered.
    pub fn finish(self) -> Result<Vec<(u64, bool)>, String> {
        if !self.done {
            return Err("report ended without a done line (worker died mid-report?)".to_owned());
        }
        if self.jobs.len() != self.expected.len() {
            return Err(format!(
                "report answered {} of its {} assigned jobs",
                self.jobs.len(),
                self.expected.len()
            ));
        }
        Ok(self.jobs)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::spec::{MemProfile, SweepSpec, TraceSource};
    use sigcomp::ExtScheme;
    use sigcomp_pipeline::OrgKind;
    use sigcomp_workloads::{suite_names, WorkloadSize};
    use std::sync::Mutex;

    /// Serializes the tests that assert exact deltas of the global dedup
    /// and frontier counters against the other tests that move them.
    pub(crate) static COUNTERS: Mutex<()> = Mutex::new(());

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
    fn dedup_groups_by_job_id_with_first_occurrence_leading() {
        let _guard = COUNTERS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let a = spec(0, OrgKind::Baseline32);
        let b = spec(0, OrgKind::ByteSerial);
        let deduped = dedup_jobs(&[a, b, a, b, a]);
        assert_eq!(deduped.unique, vec![a, b]);
        assert_eq!(deduped.leader_of, vec![0, 1, 0, 1, 0]);
        assert_eq!(deduped.leader_position, vec![0, 1]);
        assert_eq!(deduped.followers(), 3);
        let followers: Vec<bool> = (0..5).map(|p| deduped.is_follower(p)).collect();
        assert_eq!(followers, vec![false, false, true, true, true]);

        let empty = dedup_jobs(&[]);
        assert!(empty.unique.is_empty());
        assert_eq!(empty.followers(), 0);
    }

    #[test]
    fn round_robin_deals_ranks_modulo_the_count() {
        let items: Vec<usize> = (0..7).collect();
        let shards: Vec<Vec<usize>> = (0..3)
            .map(|i| round_robin(&items, i, 3).copied().collect())
            .collect();
        assert_eq!(shards, vec![vec![0, 3, 6], vec![1, 4], vec![2, 5]]);
        assert_eq!(round_robin(&items, 0, 1).count(), 7);
    }

    /// An in-memory transport: named slots that run their shard on the
    /// local backend over the shared cache, except the slots it loses.
    struct Fake {
        lost: &'static [&'static str],
        calls: Mutex<Vec<(&'static str, usize)>>,
    }

    impl Fake {
        fn losing(lost: &'static [&'static str]) -> Self {
            Fake {
                lost,
                calls: Mutex::new(Vec::new()),
            }
        }

        fn calls(&self) -> Vec<(&'static str, usize)> {
            let mut calls = self.calls.lock().expect("calls lock").clone();
            calls.sort_unstable();
            calls
        }
    }

    impl ShardTransport for Fake {
        type Slot = &'static str;
        const BACKEND: &'static str = "fake";

        fn run_shard(
            &self,
            slot: &&'static str,
            shard: Shard<'_>,
        ) -> Result<ShardOutcome, ExecError> {
            let jobs: Vec<JobSpec> = shard.jobs().copied().collect();
            self.calls
                .lock()
                .expect("calls lock")
                .push((slot, jobs.len()));
            if self.lost.contains(slot) {
                return Ok(ShardOutcome::Lost);
            }
            let options = SweepOptions::with_workers(1).cache(shard.cache.clone());
            let local = run_jobs_local(&jobs, &[], &options);
            Ok(ShardOutcome::Done(ShardReport {
                jobs: local
                    .outcomes
                    .iter()
                    .map(|o| (o.spec.job_id(), o.from_cache))
                    .collect(),
                obs: sigcomp_obs::Snapshot::default(),
            }))
        }
    }

    const COUNTER_NAMES: [&str; 5] = [
        "fleet.frontier.workers_lost",
        "fleet.frontier.reshards",
        "fleet.frontier.jobs_local",
        "explore.dedup.unique",
        "explore.dedup.followers",
    ];

    /// Runs `jobs` through `fake` over `slots` on a fresh cache and checks
    /// the result against the local backend; returns the counter deltas in
    /// [`COUNTER_NAMES`] order.
    fn run_against_local(
        tag: &str,
        jobs: &[JobSpec],
        fake: &Fake,
        slots: &[&'static str],
    ) -> (SweepSummary, [u64; 5]) {
        let dir =
            std::env::temp_dir().join(format!("sigcomp-scatter-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options =
            SweepOptions::with_workers(2).cache(ResultCache::open(&dir).expect("cache opens"));
        let counters = || COUNTER_NAMES.map(|n| sigcomp_obs::global().snapshot().counter(n));
        let before = counters();
        let summary = scatter_jobs(jobs, &[], &options, fake, slots.to_vec()).expect("runs");
        let after = counters();
        let _ = std::fs::remove_dir_all(&dir);

        let local = run_jobs_local(jobs, &[], &SweepOptions::with_workers(2));
        assert_eq!(summary.backend, "fake");
        assert_eq!(summary.outcomes.len(), jobs.len());
        for (a, b) in summary.outcomes.iter().zip(&local.outcomes) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.metrics, b.metrics);
        }
        assert_eq!(
            summary.totals.simulated + summary.totals.cached,
            summary.outcomes.len() as u64
        );
        assert_eq!(summary.workers, summary.worker_loads.len());
        (summary, std::array::from_fn(|i| after[i] - before[i]))
    }

    fn kernel_jobs() -> Vec<JobSpec> {
        SweepSpec::paper(WorkloadSize::Tiny)
            .workloads(&["rawcaudio"])
            .enumerate()
    }

    #[test]
    fn the_core_reshards_falls_back_and_coalesces_through_a_fake_transport() {
        let _guard = COUNTERS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let jobs = kernel_jobs();
        let n = jobs.len();
        assert!(n >= 6, "the cases below need at least two jobs per slot");

        // One slot of three is lost in round 1: its jobs are re-sharded
        // over the two survivors in round 2, and nothing runs locally.
        let fake = Fake::losing(&["b"]);
        let (summary, deltas) = run_against_local("reshard", &jobs, &fake, &["a", "b", "c"]);
        let calls = fake.calls();
        assert_eq!(calls.iter().filter(|c| c.0 == "b").count(), 1, "{calls:?}");
        assert_eq!(calls.iter().filter(|c| c.0 != "b").count(), 4, "{calls:?}");
        assert_eq!(
            calls
                .iter()
                .filter(|c| c.0 != "b")
                .map(|c| c.1)
                .sum::<usize>(),
            n,
            "the survivors ran every job between them"
        );
        assert_eq!(summary.totals.simulated, n as u64);
        assert_eq!(summary.workers, 4, "two survivors, two rounds");
        assert_eq!(deltas, [1, 1, 0, n as u64, 0]);

        // Every slot is lost: the core falls back to local execution.
        let fake = Fake::losing(&["a", "b"]);
        let (summary, deltas) = run_against_local("fallback", &jobs, &fake, &["a", "b"]);
        assert_eq!(fake.calls().len(), 2);
        assert_eq!(summary.worker_loads, vec![(n as u64, 0)]);
        assert_eq!(summary.totals.simulated, n as u64);
        assert_eq!(deltas, [2, 0, n as u64, n as u64, 0]);

        // Duplicate submissions: followers are answered from their
        // leader's run, flagged as cache-answered.
        let mut dup = jobs.clone();
        dup.extend_from_slice(&jobs[..3]);
        dup.push(jobs[0]);
        let fake = Fake::losing(&[]);
        let (summary, deltas) = run_against_local("dedup", &dup, &fake, &["a", "b"]);
        let deduped = dedup_jobs(&dup);
        for (pos, outcome) in summary.outcomes.iter().enumerate() {
            assert_eq!(
                outcome.from_cache,
                deduped.is_follower(pos),
                "position {pos}"
            );
        }
        assert_eq!(summary.totals.simulated, n as u64);
        assert_eq!(summary.totals.cached, 4);
        assert_eq!(deltas, [0, 0, 0, n as u64, 4]);
    }

    #[test]
    fn empty_submissions_short_circuit_without_a_round() {
        let dir =
            std::env::temp_dir().join(format!("sigcomp-scatter-empty-{}", std::process::id()));
        let options = SweepOptions::default().cache(ResultCache::open(&dir).expect("cache opens"));
        let fake = Fake::losing(&[]);
        let summary = scatter_jobs(&[], &[], &options, &fake, vec!["a"]).expect("runs");
        assert!(summary.outcomes.is_empty());
        assert_eq!(summary.workers, 0);
        assert!(fake.calls().is_empty());
        let _ = std::fs::remove_dir_all(&dir);

        let err = scatter_jobs(
            &kernel_jobs(),
            &[],
            &SweepOptions::default(),
            &fake,
            vec!["a"],
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::CacheRequired), "{err}");
    }

    #[test]
    fn the_ledger_checks_duplicates_counts_and_the_trailer() {
        let expected: HashSet<u64> = [1, 2].into_iter().collect();
        let mut ledger = JobLedger::new(&expected, "is a stranger");
        ledger.job("job 0000000000000001 simulated").expect("first");
        let err = ledger.job("job 0000000000000001 cached").unwrap_err();
        assert!(err.contains("reported twice"), "{err}");
        let err = ledger.job("job 0000000000000003 cached").unwrap_err();
        assert!(err.contains("0000000000000003 is a stranger"), "{err}");
        let err = ledger.done("done jobs=2").unwrap_err();
        assert!(err.contains("declares 2 jobs but 1 were reported"), "{err}");
        ledger.done("done jobs=1").expect("trailer");
        let err = ledger.check_open("late line").unwrap_err();
        assert!(err.contains("unexpected line after the done line"), "{err}");
        let err = ledger.finish().unwrap_err();
        assert!(err.contains("answered 1 of its 2 assigned jobs"), "{err}");

        let err = JobLedger::new(&expected, "").finish().unwrap_err();
        assert!(err.contains("without a done line"), "{err}");
    }
}
