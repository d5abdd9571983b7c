//! Running a sweep: fused replay passes, sharded accumulation, caching, and
//! dispatch onto the configured execution backend.

use crate::backend::{ExecBackend, ExecError};
use crate::cache::ResultCache;
use crate::executor::run_parallel;
use crate::spec::MemProfile;
use crate::spec::{JobSpec, SweepSpec, TraceInput, TraceSource};
use sigcomp::{
    instr_cost, step_memory, ActivityReport, EnergyModel, ExtScheme, StageActivity, TraceAnalyzer,
};
use sigcomp_isa::{DecodedTrace, ExecRecord, Trace};
use sigcomp_mem::MemoryHierarchy;
use sigcomp_pipeline::{OrgKind, Organization, PipelineSim, RecordFacts, SimResult, Stage};
use sigcomp_workloads::{find, Benchmark, WorkloadSize};
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The measured numbers of one job, independent of its specification.
///
/// Everything is an exact integer counter, so results are bit-identical
/// whether they come from a fresh simulation, a cache hit, or a merge of
/// either — floating-point derivations ([`JobOutcome::cpi`],
/// [`JobOutcome::energy_saving`]) happen only at read time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobMetrics {
    /// Retired instructions.
    pub instructions: u64,
    /// Total pipeline cycles.
    pub cycles: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Stall cycles from structural hazards (all stages).
    pub stall_structural: u64,
    /// Stall cycles from data hazards.
    pub stall_data_hazard: u64,
    /// Stall cycles from control hazards.
    pub stall_control: u64,
    /// Per-stage activity under this job's scheme vs the 32-bit baseline.
    pub activity: ActivityReport,
}

/// One simulated (or cache-restored) point of the design space.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The point this outcome belongs to.
    pub spec: JobSpec,
    /// The measured counters.
    pub metrics: JobMetrics,
    /// Whether the result was restored from the cache instead of simulated.
    pub from_cache: bool,
}

impl JobOutcome {
    /// Cycles per instruction. Like [`crate::ConfigPoint::cpi`], a job that
    /// retired no instructions (an empty replayed trace) has *infinite* CPI
    /// — not zero, which would rank it as the best-performing job in any
    /// export a consumer sorts by CPI.
    #[must_use]
    pub fn cpi(&self) -> f64 {
        if self.metrics.instructions == 0 {
            f64::INFINITY
        } else {
            self.metrics.cycles as f64 / self.metrics.instructions as f64
        }
    }

    /// Fractional total-energy (dynamic + static) saving of this
    /// configuration. The 32-bit baseline organization carries no extension
    /// bits, so its saving is zero by definition; every other organization
    /// is credited the reduction its scheme achieves under `model`. With a
    /// dynamic-only model this is exactly the dynamic saving.
    #[must_use]
    pub fn energy_saving(&self, model: &EnergyModel) -> f64 {
        if self.spec.org == OrgKind::Baseline32 {
            0.0
        } else {
            model.saving(&self.metrics.activity)
        }
    }

    /// Fractional saving of the dynamic (switching) term alone — the
    /// paper's number, independent of the model's leakage weights.
    #[must_use]
    pub fn dynamic_energy_saving(&self, model: &EnergyModel) -> f64 {
        if self.spec.org == OrgKind::Baseline32 {
            0.0
        } else {
            model.dynamic_saving(&self.metrics.activity)
        }
    }

    /// Fractional saving of the static (leakage) term alone; zero under a
    /// dynamic-only model.
    #[must_use]
    pub fn leakage_saving(&self, model: &EnergyModel) -> f64 {
        if self.spec.org == OrgKind::Baseline32 {
            0.0
        } else {
            model.leakage_saving(&self.metrics.activity)
        }
    }
}

/// Per-worker sharded accumulation: integer counters only, so the final
/// worker-order merge is bit-identical no matter how jobs were scheduled.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepShard {
    /// Jobs simulated (cache hits excluded).
    pub simulated: u64,
    /// Jobs restored from the result cache.
    pub cached: u64,
    /// Instructions simulated (cache hits excluded).
    pub instructions_simulated: u64,
    /// Total activity observed across the shard's jobs.
    pub activity: ActivityReport,
}

impl SweepShard {
    /// Folds another shard into this one.
    pub fn merge(&mut self, other: &SweepShard) {
        self.simulated += other.simulated;
        self.cached += other.cached;
        self.instructions_simulated += other.instructions_simulated;
        self.activity.merge(&other.activity);
    }
}

/// How to run a sweep.
#[derive(Debug, Default)]
pub struct SweepOptions {
    /// Worker threads; `None` uses the machine's available parallelism. On
    /// the subprocess backend this is the thread count *per shard*.
    pub workers: Option<usize>,
    /// Result cache; `None` simulates everything. Required by
    /// [`ExecBackend::Subprocess`], whose workers merge through it.
    pub cache: Option<ResultCache>,
    /// Where the jobs execute (default: the in-process thread pool).
    pub backend: ExecBackend,
}

impl SweepOptions {
    /// Runs with exactly `workers` threads and no cache.
    #[must_use]
    pub fn with_workers(workers: usize) -> Self {
        SweepOptions {
            workers: Some(workers),
            cache: None,
            backend: ExecBackend::LocalThreads,
        }
    }

    /// Attaches a result cache.
    #[must_use]
    pub fn cache(mut self, cache: ResultCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Selects the execution backend.
    #[must_use]
    pub fn backend(mut self, backend: ExecBackend) -> Self {
        self.backend = backend;
        self
    }

    fn effective_workers(&self) -> usize {
        self.workers.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
    }
}

/// Everything a finished sweep produced.
#[derive(Debug)]
pub struct SweepSummary {
    /// Per-job outcomes, in [`SweepSpec::enumerate`] order — deterministic
    /// and independent of the worker count.
    pub outcomes: Vec<JobOutcome>,
    /// The worker shards folded together in worker order.
    pub totals: SweepShard,
    /// `(jobs, steals)` per worker, in worker order. Jobs count every job a
    /// worker answered; steals count the replay passes it took from a
    /// sibling's queue. On the subprocess backend a "worker" is one shard
    /// process (steals are always 0 there — the shard partition is static).
    pub worker_loads: Vec<(u64, u64)>,
    /// Worker threads (local backend) or shard processes (subprocess
    /// backend) actually used.
    pub workers: usize,
    /// Wall-clock time of the parallel phase.
    pub wall: Duration,
    /// Stable id of the backend that executed the sweep
    /// ([`ExecBackend::id`]): `"local"`, `"subprocess"` or `"fleet"`.
    pub backend: &'static str,
    /// On the subprocess backend, each shard's observability snapshot as
    /// reported over the worker protocol, in shard order (on the fleet
    /// backend, each worker server's snapshot in dispatch order) — the
    /// per-shard attribution behind the merged view the parent's global
    /// registry carries. Empty on the local backend (metrics were recorded
    /// into the parent's registry directly).
    pub shard_obs: Vec<sigcomp_obs::Snapshot>,
}

impl SweepSummary {
    /// Jobs simulated this run (cache misses).
    #[must_use]
    pub fn simulated(&self) -> u64 {
        self.totals.simulated
    }

    /// Jobs answered from the result cache.
    #[must_use]
    pub fn cached(&self) -> u64 {
        self.totals.cached
    }
}

/// Simulates one design point against an already-built benchmark: a single
/// interpreter pass feeds both the cycle-level timing model and the
/// activity study.
///
/// # Panics
///
/// Panics if the kernel fails to execute (a workload bug, not a runtime
/// condition).
#[must_use]
pub fn simulate_job(spec: &JobSpec, benchmark: &Benchmark) -> JobMetrics {
    simulate_one(spec, Stream::Live(benchmark))
}

/// Simulates one design point against a recorded trace: the records are
/// replayed through exactly the models a live run feeds, in the same order,
/// so the resulting metrics are bit-identical to the run that recorded them.
#[must_use]
pub fn simulate_trace(spec: &JobSpec, trace: &Trace) -> JobMetrics {
    simulate_one(spec, Stream::Records(trace))
}

/// [`simulate_trace`] over a decode-once arena: the records come out of the
/// shared [`DecodedTrace`] instead of a `Vec<ExecRecord>`, but they are the
/// same records in the same order, so the metrics are bit-identical.
#[must_use]
pub fn simulate_decoded(spec: &JobSpec, trace: &DecodedTrace) -> JobMetrics {
    simulate_one(spec, Stream::Arena(trace))
}

fn simulate_one(spec: &JobSpec, stream: Stream<'_>) -> JobMetrics {
    simulate_group(std::slice::from_ref(spec), stream)
        .pop()
        .expect("a one-job pass yields one result")
}

/// Where a replay pass's records come from.
#[derive(Clone, Copy)]
enum Stream<'a> {
    /// A kernel executed live by the interpreter.
    Live(&'a Benchmark),
    /// A decode-once arena.
    Arena(&'a DecodedTrace),
    /// An in-memory record vector.
    Records(&'a Trace),
}

impl Stream<'_> {
    fn for_each(self, mut f: impl FnMut(&ExecRecord)) {
        match self {
            Stream::Live(benchmark) => benchmark
                .run_each(f)
                .unwrap_or_else(|e| panic!("kernel {} failed: {e}", benchmark.name())),
            Stream::Arena(trace) => trace.iter().for_each(|rec| f(&rec)),
            Stream::Records(trace) => trace.iter().for_each(f),
        }
    }
}

/// What one replay pass shares between its jobs: the instruction stream,
/// the scheme and the memory profile. A job's analyzer configuration is a
/// function of its scheme and profile, so the members of a pass differ only
/// in their organization.
#[derive(PartialEq, Eq, Hash)]
struct PassKey {
    stream: StreamId,
    scheme: ExtScheme,
    mem: MemProfile,
}

#[derive(PartialEq, Eq, Hash)]
enum StreamId {
    Kernel(&'static str, WorkloadSize),
    File(u64),
}

impl PassKey {
    fn of(job: &JobSpec) -> Self {
        PassKey {
            stream: match job.source {
                TraceSource::Kernel => StreamId::Kernel(job.workload, job.size),
                TraceSource::File { digest } => StreamId::File(digest),
            },
            scheme: job.scheme,
            mem: job.mem,
        }
    }
}

/// Simulates `jobs` — design points sharing one [`PassKey`] — in a single
/// pass over `stream`. Each record is distilled once into its cost, its
/// memory outcomes (one shared hierarchy walk) and its timing facts, and
/// observed once by the organization-independent activity study; only the
/// table-driven timing step is per job. Every job's metrics are
/// bit-identical to a pass of its own.
fn simulate_group(jobs: &[JobSpec], stream: Stream<'_>) -> Vec<JobMetrics> {
    let config = jobs[0].analyzer_config();
    debug_assert!(jobs
        .iter()
        .all(|job| job.scheme == config.scheme && job.mem == jobs[0].mem));
    let mut hierarchy = MemoryHierarchy::new(&config.hierarchy);
    let mut analyzer = TraceAnalyzer::without_hierarchy(config.clone());
    let mut sims: Vec<PipelineSim> = jobs
        .iter()
        .map(|job| PipelineSim::without_hierarchy(job.organization()))
        .collect();
    stream.for_each(|rec| {
        let cost = instr_cost(rec, config.scheme, &config.recoder);
        let step = step_memory(&mut hierarchy, rec);
        analyzer.observe_step(rec, &cost, &step);
        let facts = RecordFacts::new(rec, &cost, &step);
        for sim in &mut sims {
            sim.observe_facts(&facts);
        }
    });
    let shared = analyzer.report();
    sims.into_iter()
        .map(|sim| {
            let org = sim.organization().clone();
            let result = sim.finish();
            let mut activity = shared;
            apply_pipeline_gating(&mut activity, &org, &result);
            JobMetrics {
                instructions: result.instructions,
                cycles: result.cycles,
                branches: result.branches,
                stall_structural: result.stalls.structural.iter().sum(),
                stall_data_hazard: result.stalls.data_hazard,
                stall_control: result.stalls.control,
                activity,
            }
        })
        .collect()
}

/// Replaces the gated-lane occupancy of the datapath columns with the timed
/// pipeline's per-stage counters.
///
/// The analyzer's occupancy is one slot per instruction per structure — the
/// paper's organization-independent activity framing, right for the dynamic
/// (switching) term. Static leakage, though, accrues over *time* in the
/// lanes an organization actually builds: a byte-serial machine holds one
/// narrow ALU busy for many cycles (little to gate, long runtime), the
/// full-width compressed machine powers wide lanes briefly and gates most
/// of them. The sweep therefore weighs the leakage term with the timing
/// model's `lane width × occupied cycles` budgets (miss stalls included),
/// which differ per organization; the switching counters are untouched, so
/// every dynamic figure stays bit-identical to the activity study.
///
/// The PC incrementer, pipeline latches and tag array have no timed stage
/// of their own; their analyzer-side occupancy is kept.
fn apply_pipeline_gating(activity: &mut ActivityReport, org: &Organization, result: &SimResult) {
    fn mapped(activity: &mut ActivityReport, stage: Stage) -> &mut StageActivity {
        match stage {
            Stage::Fetch => &mut activity.fetch,
            Stage::RegRead => &mut activity.rf_read,
            Stage::Execute | Stage::ExecuteHi => &mut activity.alu,
            Stage::Memory | Stage::MemoryHi => &mut activity.dcache_data,
            Stage::Writeback => &mut activity.rf_write,
        }
    }
    for &stage in org.stages() {
        let column = mapped(activity, stage);
        column.gated_byte_cycles = 0;
        column.total_byte_cycles = 0;
    }
    for (s, &stage) in org.stages().iter().enumerate() {
        mapped(activity, stage)
            .add_gating(result.gated_byte_cycles[s], result.total_byte_cycles[s]);
    }
}

/// Runs the whole sweep: enumerates the design space, executes every job on
/// the configured [`ExecBackend`] (answering from the cache where possible),
/// and merges the shards.
///
/// Outcomes and totals are bit-identical for every worker count *and* shard
/// count: results are reassembled in job order and shards hold only integer
/// counters.
///
/// # Errors
///
/// Any [`ExecError`] from the subprocess backend (a dead or misbehaving
/// worker child, a missing cache); the local backend is infallible.
pub fn try_run_sweep(spec: &SweepSpec, options: &SweepOptions) -> Result<SweepSummary, ExecError> {
    try_run_jobs_traced(&spec.enumerate(), spec.trace_inputs(), options)
}

/// Infallible [`try_run_sweep`] for the local backend.
///
/// # Panics
///
/// Panics if a workload named by the spec does not exist or fails to run, or
/// if the configured backend reports an [`ExecError`] (use [`try_run_sweep`]
/// when running on the fallible subprocess backend).
#[must_use]
pub fn run_sweep(spec: &SweepSpec, options: &SweepOptions) -> SweepSummary {
    try_run_sweep(spec, options).unwrap_or_else(|e| panic!("sweep execution failed: {e}"))
}

/// Runs an explicit batch of jobs — the submission API that long-running
/// front-ends (e.g. `sigcomp-serve`) feed coalesced request batches into.
///
/// Exactly the engine behind [`try_run_sweep`], minus the design-space
/// enumeration: every job runs on the configured backend, cache hits are
/// substituted where [`SweepOptions::cache`] holds a result, and
/// [`SweepSummary::outcomes`] comes back in `jobs` order. On the local
/// backend duplicate specs in `jobs` are each answered — batch
/// deduplication is the caller's concern, keyed by [`JobSpec::job_id`]
/// (see [`crate::dedup_jobs`]); the subprocess and fleet backends dedup
/// internally ([`crate::scatter_jobs`]) and answer follower positions from
/// their leader's run.
///
/// # Errors
///
/// Any [`ExecError`] from the subprocess backend; the local backend is
/// infallible.
pub fn try_run_jobs(jobs: &[JobSpec], options: &SweepOptions) -> Result<SweepSummary, ExecError> {
    try_run_jobs_traced(jobs, &[], options)
}

/// Infallible [`try_run_jobs`] for the local backend.
///
/// # Panics
///
/// Panics if a workload named by a job does not exist or fails to run, if a
/// [`TraceSource::File`] job's digest has no matching trace (use
/// [`run_jobs_traced`] to supply recorded traces), or if the configured
/// backend reports an [`ExecError`].
#[must_use]
pub fn run_jobs(jobs: &[JobSpec], options: &SweepOptions) -> SweepSummary {
    try_run_jobs(jobs, options).unwrap_or_else(|e| panic!("job execution failed: {e}"))
}

/// [`try_run_jobs`] with a set of recorded traces resolving the jobs'
/// [`TraceSource::File`] digests. Kernel jobs ignore `traces` entirely.
/// (On the subprocess backend workers re-load traces from
/// [`crate::SubprocessConfig::trace_paths`]; the wire protocol ships only
/// content digests.)
///
/// # Errors
///
/// Any [`ExecError`] from the subprocess backend; the local backend is
/// infallible.
pub fn try_run_jobs_traced(
    jobs: &[JobSpec],
    traces: &[TraceInput],
    options: &SweepOptions,
) -> Result<SweepSummary, ExecError> {
    match &options.backend {
        ExecBackend::LocalThreads => Ok(run_jobs_local(jobs, traces, options)),
        ExecBackend::Subprocess(config) => {
            crate::backend::run_subprocess(jobs, traces, options, config)
        }
        ExecBackend::Fleet(config) => crate::backend::run_fleet(jobs, traces, options, config),
    }
}

/// Infallible [`try_run_jobs_traced`] for the local backend.
///
/// # Panics
///
/// Panics if a workload named by a job does not exist or fails to run, if a
/// file job's digest matches none of `traces` — both indicate a bug in the
/// caller's sweep assembly, not a runtime condition — or if the configured
/// backend reports an [`ExecError`].
#[must_use]
pub fn run_jobs_traced(
    jobs: &[JobSpec],
    traces: &[TraceInput],
    options: &SweepOptions,
) -> SweepSummary {
    try_run_jobs_traced(jobs, traces, options)
        .unwrap_or_else(|e| panic!("job execution failed: {e}"))
}

/// The [`ExecBackend::LocalThreads`] engine: jobs bucketed into replay
/// passes ([`PassKey`]), every pass on the in-process work-stealing
/// executor, results reassembled in job order.
///
/// A pass answers its cache hits first and simulates the rest in one walk of
/// its stream; with a cache, a spec repeated in the batch is simulated once.
/// Which jobs share a pass never changes a result, so outcomes are
/// bit-identical to one job at a time.
pub(crate) fn run_jobs_local(
    jobs: &[JobSpec],
    traces: &[TraceInput],
    options: &SweepOptions,
) -> SweepSummary {
    let passes = plan_passes(jobs);
    // Mirror the executor's clamp so the summary reports the worker count
    // actually used.
    let workers = options.effective_workers().min(passes.len().max(1));

    // Each (workload, size) is assembled at most once, shared by every pass
    // that needs it — and not at all when all of its jobs hit the cache.
    let mut benchmarks: HashMap<(&'static str, WorkloadSize), OnceLock<Benchmark>> = HashMap::new();
    for job in jobs {
        if job.source == TraceSource::Kernel {
            benchmarks.entry((job.workload, job.size)).or_default();
        }
    }
    let traces_by_digest: HashMap<u64, &TraceInput> =
        traces.iter().map(|t| (t.digest(), t)).collect();
    let stream_of = |job: &JobSpec| match job.source {
        TraceSource::Kernel => {
            Stream::Live(benchmarks[&(job.workload, job.size)].get_or_init(|| {
                find(job.workload, job.size)
                    .unwrap_or_else(|| panic!("unknown workload {}", job.workload))
            }))
        }
        TraceSource::File { digest } => Stream::Arena(
            traces_by_digest
                .get(&digest)
                .unwrap_or_else(|| {
                    panic!("no trace with digest {digest:016x} for job {}", job.label())
                })
                .decoded(),
        ),
    };

    // Handles are fetched once; the per-pass hot path below records through
    // them lock-free.
    let obs = sigcomp_obs::global();
    let obs_simulated = obs.counter("replay.jobs_simulated");
    let obs_cached = obs.counter("replay.jobs_cached");
    let obs_instructions = obs.counter("replay.instructions");
    obs.gauge("explore.workers").set_max(workers as u64);

    let started = Instant::now();
    let (per_pass, reports) =
        run_parallel::<Vec<JobOutcome>, SweepShard, _>(passes.len(), workers, |p, shard| {
            let members: Vec<JobSpec> = passes[p].iter().map(|&i| jobs[i]).collect();
            // With a cache, a repeated spec is simulated once and its later
            // copies are answered from what the first one stored.
            let mut hits: Vec<JobMetrics> = Vec::new();
            let mut misses: Vec<JobSpec> = Vec::new();
            let mut first_miss: HashMap<u64, usize> = HashMap::new();
            let answers: Vec<Answer> = members
                .iter()
                .map(|job| {
                    let Some(cache) = options.cache.as_ref() else {
                        misses.push(*job);
                        return Answer::Simulated(misses.len() - 1);
                    };
                    if let Some(&i) = first_miss.get(&job.job_id()) {
                        return Answer::Copy(i);
                    }
                    if let Some(hit) = cache.load(job.job_id()) {
                        hits.push(hit);
                        return Answer::Hit(hits.len() - 1);
                    }
                    misses.push(*job);
                    first_miss.insert(job.job_id(), misses.len() - 1);
                    Answer::Simulated(misses.len() - 1)
                })
                .collect();
            let mut fresh = Vec::new();
            if let Some(first) = misses.first() {
                let pass_start = Instant::now();
                fresh = simulate_group(&misses, stream_of(first));
                record_pass_spans(obs, pass_start, pass_start.elapsed(), &misses);
                if let Some(cache) = options.cache.as_ref() {
                    for (job, m) in misses.iter().zip(&fresh) {
                        // A failed store only costs a re-simulation next run.
                        let _ = cache.store(job.job_id(), m);
                    }
                }
            }
            members
                .into_iter()
                .zip(answers)
                .map(|(spec, answer)| {
                    let (metrics, from_cache) = match answer {
                        Answer::Hit(i) => (hits[i], true),
                        Answer::Copy(i) => (fresh[i], true),
                        Answer::Simulated(i) => (fresh[i], false),
                    };
                    if from_cache {
                        shard.cached += 1;
                        obs_cached.incr();
                    } else {
                        shard.simulated += 1;
                        shard.instructions_simulated += metrics.instructions;
                        obs_simulated.incr();
                        obs_instructions.add(metrics.instructions);
                    }
                    shard.activity.merge(&metrics.activity);
                    JobOutcome {
                        spec,
                        metrics,
                        from_cache,
                    }
                })
                .collect()
        });
    let wall = started.elapsed();
    obs.histogram("explore.batch.wall", sigcomp_obs::DEFAULT_SPAN_BOUNDS_US)
        .observe(u64::try_from(wall.as_micros()).unwrap_or(u64::MAX));

    let mut slots: Vec<Option<JobOutcome>> = vec![None; jobs.len()];
    for (members, outcomes) in passes.iter().zip(per_pass) {
        for (&i, outcome) in members.iter().zip(outcomes) {
            slots[i] = Some(outcome);
        }
    }
    let outcomes = slots
        .into_iter()
        .map(|slot| slot.expect("every job belongs to one pass"))
        .collect();

    // Worker loads count jobs (hits and misses), not passes; steals count
    // passes taken from a sibling's queue.
    let mut totals = SweepShard::default();
    let mut worker_loads = Vec::with_capacity(reports.len());
    for report in &reports {
        totals.merge(&report.shard);
        worker_loads.push((report.shard.simulated + report.shard.cached, report.steals));
    }

    SweepSummary {
        outcomes,
        totals,
        worker_loads,
        workers,
        wall,
        backend: "local",
        shard_obs: Vec::new(),
    }
}

/// How a pass answers one of its members.
enum Answer {
    /// Loaded from the result cache, as the hit at this index.
    Hit(usize),
    /// Simulated in the pass, as the miss at this index.
    Simulated(usize),
    /// A repeat of the miss at this index, answered by its stored result.
    Copy(usize),
}

/// Buckets job indices into replay passes by [`PassKey`], in order of first
/// appearance. Every copy of a spec lands in the same pass.
fn plan_passes(jobs: &[JobSpec]) -> Vec<Vec<usize>> {
    let mut index: HashMap<PassKey, usize> = HashMap::new();
    let mut passes: Vec<Vec<usize>> = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        let p = *index.entry(PassKey::of(job)).or_insert_with(|| {
            passes.push(Vec::new());
            passes.len() - 1
        });
        passes[p].push(i);
    }
    passes
}

/// Records one `replay.group` span for a pass and one `replay.job` span per
/// member. The members shared every record of the pass, so each is
/// attributed an equal, consecutive share of the pass's wall time: a job's
/// `dur_us` sums with its pass-mates' to the pass's.
fn record_pass_spans(
    obs: &sigcomp_obs::Registry,
    start: Instant,
    wall: Duration,
    members: &[JobSpec],
) {
    let share = wall / u32::try_from(members.len()).unwrap_or(u32::MAX);
    let mut at = start;
    for job in members {
        let id = job.job_id();
        obs.record_span(
            "replay.job",
            at,
            share,
            &[("job_id", &format_args!("{id:016x}"))],
        );
        at += share;
    }
    let job = &members[0];
    obs.record_span(
        "replay.group",
        start,
        wall,
        &[
            ("jobs", &members.len()),
            (
                "pass",
                &format_args!(
                    "{}/{}/{}/{}",
                    job.workload,
                    job.scheme.id(),
                    job.mem.id(),
                    job.size_label()
                ),
            ),
        ],
    );
}
