//! The batching scheduler: the core of the serving subsystem.
//!
//! Concurrent connections enqueue [`JobSpec`]s into one shared bounded
//! queue. A single dispatcher thread drains the queue into batches of up to
//! [`BatchConfig::max_batch`](BatchConfig#structfield.max_batch) jobs, **deduplicates** identical
//! configurations by their content hash ([`sigcomp_explore::dedup_jobs`] —
//! the same grouping the subprocess backend shards by, so coalescing
//! semantics can never drift between the server and the CLI), answers what
//! it can from a *bounded* in-memory memo and the shared on-disk
//! [`ResultCache`], and places only the remaining unique jobs on the
//! configured [`ExecBackend`] via [`sigcomp_explore::try_run_jobs`]: the
//! in-process work-stealing pool by default, or sharded `repro worker`
//! subprocesses so `/sweep` requests fan out across processes. A thousand
//! clients asking for overlapping configurations therefore cost one
//! simulation each, and every caller still receives bit-identical
//! [`JobMetrics`] (all counters are exact integers; cache hits are
//! substitutable for simulations by construction).
//!
//! Backpressure: when the queue is full, [`Batcher::submit`] blocks the
//! submitting connection thread until the dispatcher makes room, bounding
//! server memory under overload. The memo is bounded too
//! ([`BatchConfig::memo_capacity`](BatchConfig#structfield.memo_capacity),
//! insertion-order eviction), so sustained
//! *distinct* traffic holds server memory flat instead of growing a
//! result per job id forever.

use crate::metrics::ServerMetrics;
use sigcomp_explore::{
    dedup_jobs, try_run_jobs, ExecBackend, JobMetrics, JobSpec, ResultCache, SweepOptions,
};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Default [`BatchConfig::memo_capacity`](BatchConfig#structfield.memo_capacity): metrics are ~300 bytes, so the
/// default memo tops out around a megabyte.
pub const DEFAULT_MEMO_CAPACITY: usize = 4096;

/// Scheduler tuning knobs.
#[derive(Debug, Clone, Default)]
pub struct BatchConfig {
    /// Maximum jobs coalesced into one executor batch (0 = default 64).
    pub max_batch: usize,
    /// Bounded queue capacity; submitters block when it is full
    /// (0 = default 1024).
    pub queue_capacity: usize,
    /// Worker threads per batch; `None` uses the machine's available
    /// parallelism.
    pub sim_workers: Option<usize>,
    /// Shared on-disk result cache, if any. The same directory may be used
    /// concurrently by `repro sweep` — [`ResultCache::store`] publishes
    /// atomically. Required when `backend` is
    /// [`ExecBackend::Subprocess`] (it is the merge point).
    pub disk_cache: Option<ResultCache>,
    /// Where each batch's unique jobs execute (default: in-process
    /// threads).
    pub backend: ExecBackend,
    /// Result-memo entries retained, oldest evicted first
    /// (0 = [`DEFAULT_MEMO_CAPACITY`]). Evicted entries simply fall back
    /// to the disk cache or a re-simulation.
    pub memo_capacity: usize,
}

impl BatchConfig {
    fn max_batch(&self) -> usize {
        if self.max_batch == 0 {
            64
        } else {
            self.max_batch
        }
    }

    fn queue_capacity(&self) -> usize {
        if self.queue_capacity == 0 {
            1024
        } else {
            self.queue_capacity
        }
    }

    fn memo_capacity(&self) -> usize {
        if self.memo_capacity == 0 {
            DEFAULT_MEMO_CAPACITY
        } else {
            self.memo_capacity
        }
    }
}

/// Upper bound on the load-shed `Retry-After` hint, in seconds. A queue deep
/// enough to hit this cap is drained long before the hint expires, so a
/// larger value would only idle clients.
pub const MAX_RETRY_AFTER_SECS: u64 = 30;

/// [`Batcher::retry_after_hint`]'s backlog model as a pure function: one
/// second per `max_batch`-sized executor batch queued, clamped to
/// `1..=`[`MAX_RETRY_AFTER_SECS`].
fn retry_after_secs(queue_depth: u64, max_batch: u64) -> u64 {
    queue_depth
        .div_ceil(max_batch.max(1))
        .clamp(1, MAX_RETRY_AFTER_SECS)
}

/// The in-memory result memo: a capacity-bounded map from
/// [`JobSpec::job_id`] to metrics with insertion-order eviction. Bounded so
/// a long-running server under sustained *distinct* traffic holds memory
/// flat; an evicted entry merely costs a disk-cache load or re-simulation.
#[derive(Debug)]
struct BoundedMemo {
    entries: HashMap<u64, JobMetrics>,
    /// Insertion order, oldest first.
    order: VecDeque<u64>,
    capacity: usize,
}

impl BoundedMemo {
    fn new(capacity: usize) -> Self {
        BoundedMemo {
            entries: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    fn get(&self, id: u64) -> Option<JobMetrics> {
        self.entries.get(&id).copied()
    }

    fn insert(&mut self, id: u64, metrics: JobMetrics) {
        if self.entries.insert(id, metrics).is_none() {
            self.order.push_back(id);
            while self.entries.len() > self.capacity {
                if let Some(evicted) = self.order.pop_front() {
                    self.entries.remove(&evicted);
                }
            }
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// One answered job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchedResult {
    /// The measured counters — bit-identical whether simulated fresh,
    /// deduplicated against a concurrent request, or restored from a cache.
    pub metrics: JobMetrics,
    /// `true` when this caller's answer did not run a fresh simulation of
    /// its own (memo hit, disk-cache hit, or coalesced duplicate).
    pub from_cache: bool,
}

/// Why a submission failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The batcher is shutting down and no longer accepts work.
    ShuttingDown,
    /// The queue is full and the caller asked not to wait: the job was
    /// **shed**, not queued. The HTTP layer turns this into a fast `503`
    /// with a `Retry-After` header instead of a connection that hangs.
    Overloaded,
    /// The simulation of this job's batch panicked; the batcher survives
    /// and later submissions still work, but this request has no result.
    SimulationFailed,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
            SubmitError::Overloaded => {
                write!(
                    f,
                    "server is overloaded (batch queue is full); retry shortly"
                )
            }
            SubmitError::SimulationFailed => write!(f, "simulation failed (internal error)"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A per-request completion slot: the dispatcher fills it, the submitting
/// thread sleeps on the condvar until it does.
#[derive(Debug, Default)]
struct Slot {
    done: Mutex<Option<Result<BatchedResult, SubmitError>>>,
    ready: Condvar,
}

impl Slot {
    fn fill(&self, result: Result<BatchedResult, SubmitError>) {
        *self.done.lock().expect("slot poisoned") = Some(result);
        self.ready.notify_all();
    }

    fn wait(&self) -> Result<BatchedResult, SubmitError> {
        let mut done = self.done.lock().expect("slot poisoned");
        while done.is_none() {
            done = self.ready.wait(done).expect("slot poisoned");
        }
        done.take().expect("checked above")
    }
}

#[derive(Debug)]
struct QueueState {
    queue: VecDeque<(JobSpec, Arc<Slot>)>,
    /// Recently answered jobs, keyed by [`JobSpec::job_id`] and bounded by
    /// [`BatchConfig::memo_capacity`].
    memo: BoundedMemo,
    shutdown: bool,
}

#[derive(Debug)]
struct Shared {
    state: Mutex<QueueState>,
    /// Signalled when the queue gains work or shutdown begins.
    work_ready: Condvar,
    /// Signalled when the dispatcher drains the queue below capacity.
    space_ready: Condvar,
    config: BatchConfig,
    metrics: Arc<ServerMetrics>,
}

/// The batching scheduler. Dropping it shuts the dispatcher down, failing
/// any still-queued submissions with [`SubmitError::ShuttingDown`].
#[derive(Debug)]
pub struct Batcher {
    shared: Arc<Shared>,
    dispatcher: Option<JoinHandle<()>>,
}

impl Batcher {
    /// Starts the dispatcher thread.
    #[must_use]
    pub fn new(config: BatchConfig, metrics: Arc<ServerMetrics>) -> Self {
        let memo = BoundedMemo::new(config.memo_capacity());
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                memo,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            space_ready: Condvar::new(),
            config,
            metrics,
        });
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("sigcomp-serve-dispatcher".into())
                .spawn(move || dispatch_loop(&shared))
                .expect("spawning the dispatcher thread")
        };
        Batcher {
            shared,
            dispatcher: Some(dispatcher),
        }
    }

    /// Submits one job and blocks until its result is available. When the
    /// queue is full the job is **shed** with [`SubmitError::Overloaded`]
    /// instead of blocking the calling (connection) thread: an interactive
    /// `/simulate` client is better served by a fast `503 Retry-After` than
    /// by a connection that silently hangs until space appears.
    ///
    /// # Errors
    ///
    /// [`SubmitError::ShuttingDown`] when the batcher is stopping;
    /// [`SubmitError::Overloaded`] when the queue is full.
    pub fn submit(&self, spec: JobSpec) -> Result<BatchedResult, SubmitError> {
        match self.enqueue(spec, false)? {
            Enqueued::Ready(result) => Ok(*result),
            Enqueued::Waiting(slot) => slot.wait(),
        }
    }

    /// Submits a whole batch (e.g. an enumerated sweep) at once and waits
    /// for every result, returned in `specs` order. Enqueuing everything
    /// before waiting lets the dispatcher coalesce the entire batch instead
    /// of ping-ponging one job at a time. Unlike [`Batcher::submit`], a full
    /// queue **blocks** rather than sheds: batch callers (sweeps, fleet
    /// dispatches) are throughput work where backpressure is the right
    /// answer, and shedding mid-batch would discard partial results.
    ///
    /// # Errors
    ///
    /// [`SubmitError::ShuttingDown`] if any job was refused or failed;
    /// partial results are discarded.
    pub fn submit_many(&self, specs: &[JobSpec]) -> Result<Vec<BatchedResult>, SubmitError> {
        let pending: Vec<Enqueued> = specs
            .iter()
            .map(|&spec| self.enqueue(spec, true))
            .collect::<Result<_, _>>()?;
        pending
            .into_iter()
            .map(|p| match p {
                Enqueued::Ready(result) => Ok(*result),
                Enqueued::Waiting(slot) => slot.wait(),
            })
            .collect()
    }

    /// A non-blocking memo probe: answers `spec` from the in-memory memo
    /// iff the result is already there, with the same accounting as
    /// [`Batcher::submit`]'s memo-hit path. This is the reactor's fast
    /// path — a hit costs one short lock, so repeat `/simulate` traffic is
    /// answered on the event-loop worker itself; a miss costs one failed
    /// lookup and the caller falls back to a dispatch-thread
    /// [`Batcher::submit`] (which re-counts the request, so a miss here
    /// deliberately touches no counters).
    #[must_use]
    pub fn try_memo(&self, spec: JobSpec) -> Option<BatchedResult> {
        let cached = {
            let state = self.shared.state.lock().expect("queue poisoned");
            state.memo.get(spec.job_id())?
        };
        let metrics = &self.shared.metrics;
        ServerMetrics::incr(&metrics.jobs_requested);
        ServerMetrics::incr(&metrics.jobs_memo_hits);
        Some(BatchedResult {
            metrics: cached,
            from_cache: true,
        })
    }

    /// Jobs currently waiting in the queue (a point-in-time sample).
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("queue poisoned")
            .queue
            .len()
    }

    /// Results currently memoized (a point-in-time sample); never exceeds
    /// the configured
    /// [`BatchConfig::memo_capacity`](BatchConfig#structfield.memo_capacity).
    #[must_use]
    pub fn memo_len(&self) -> usize {
        self.shared.state.lock().expect("queue poisoned").memo.len()
    }

    /// The `Retry-After` hint (seconds) for a load-shed response, derived
    /// from the scheduler's actual backlog rather than a constant: one
    /// second per executor batch queued ahead of the retrying client
    /// (`queue_depth / max_batch`, rounded up), at least 1 and capped at
    /// [`MAX_RETRY_AFTER_SECS`]. A deeper queue or a smaller batch size
    /// pushes the hint out; a nearly drained queue says "come right back".
    #[must_use]
    pub fn retry_after_hint(&self) -> u64 {
        retry_after_secs(
            self.queue_depth() as u64,
            self.shared.config.max_batch() as u64,
        )
    }

    fn enqueue(&self, spec: JobSpec, block: bool) -> Result<Enqueued, SubmitError> {
        let metrics = &self.shared.metrics;
        ServerMetrics::incr(&metrics.jobs_requested);
        let mut state = self.shared.state.lock().expect("queue poisoned");
        if let Some(cached) = state.memo.get(spec.job_id()) {
            ServerMetrics::incr(&metrics.jobs_memo_hits);
            return Ok(Enqueued::Ready(Box::new(BatchedResult {
                metrics: cached,
                from_cache: true,
            })));
        }
        if !block && state.queue.len() >= self.shared.config.queue_capacity() && !state.shutdown {
            ServerMetrics::incr(&metrics.jobs_shed);
            return Err(SubmitError::Overloaded);
        }
        while state.queue.len() >= self.shared.config.queue_capacity() && !state.shutdown {
            state = self.shared.space_ready.wait(state).expect("queue poisoned");
        }
        if state.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        let slot = Arc::new(Slot::default());
        state.queue.push_back((spec, Arc::clone(&slot)));
        drop(state);
        self.shared.work_ready.notify_all();
        Ok(Enqueued::Waiting(slot))
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("queue poisoned");
            state.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        self.shared.space_ready.notify_all();
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
    }
}

enum Enqueued {
    // Boxed: a BatchedResult carries the full per-stage activity report
    // (~300 bytes), dwarfing the waiting variant's Arc.
    Ready(Box<BatchedResult>),
    Waiting(Arc<Slot>),
}

fn dispatch_loop(shared: &Shared) {
    loop {
        // Collect the next batch (blocking while the queue is empty).
        let batch: Vec<(JobSpec, Arc<Slot>)> = {
            let mut state = shared.state.lock().expect("queue poisoned");
            while state.queue.is_empty() && !state.shutdown {
                state = shared.work_ready.wait(state).expect("queue poisoned");
            }
            if state.queue.is_empty() && state.shutdown {
                return;
            }
            let n = state.queue.len().min(shared.config.max_batch());
            let batch = state.queue.drain(..n).collect();
            shared.space_ready.notify_all();
            batch
        };
        shared.metrics.observe_batch(batch.len() as u64);
        run_batch(shared, batch);
    }
}

/// Deduplicates one drained batch by job id, places the unique residue on
/// the configured execution backend, and fills every waiter's slot.
fn run_batch(shared: &Shared, batch: Vec<(JobSpec, Arc<Slot>)>) {
    let metrics = &shared.metrics;
    // Jobs enqueued before a previous batch finished may have been answered
    // by it; re-check the memo so they don't re-simulate, then group the
    // remainder with the workspace-wide dedup (first occurrence leads).
    let mut residue: Vec<(JobSpec, Arc<Slot>)> = Vec::with_capacity(batch.len());
    {
        let state = shared.state.lock().expect("queue poisoned");
        for (spec, slot) in batch {
            if let Some(cached) = state.memo.get(spec.job_id()) {
                ServerMetrics::incr(&metrics.jobs_memo_hits);
                slot.fill(Ok(BatchedResult {
                    metrics: cached,
                    from_cache: true,
                }));
                continue;
            }
            residue.push((spec, slot));
        }
    }
    if residue.is_empty() {
        return;
    }
    let specs: Vec<JobSpec> = residue.iter().map(|(spec, _)| *spec).collect();
    let deduped = dedup_jobs(&specs);
    let mut members: Vec<(usize, Arc<Slot>, bool)> = Vec::with_capacity(residue.len());
    for (pos, (_, slot)) in residue.into_iter().enumerate() {
        let follower = deduped.is_follower(pos);
        if follower {
            ServerMetrics::incr(&metrics.jobs_batch_deduped);
        }
        members.push((deduped.leader_of[pos], slot, follower));
    }

    // One backend pass over the deduplicated batch: the in-process executor
    // or a sharded subprocess fan-out, both consulting the shared on-disk
    // cache and returning outcomes in input order.
    // A panicking simulation must not unwind through the dispatcher: every
    // waiter would hang on its condvar forever (no socket timeout applies
    // there) and the queue would never drain again. Catch it, fail this
    // batch's waiters, and keep serving. AssertUnwindSafe is fine: on panic
    // the batch state is discarded (the memo is only written on success).
    // Backend errors (a dead worker child, say) fail the same way, after
    // logging the named cause server-side.
    let options = SweepOptions {
        workers: shared.config.sim_workers,
        cache: shared.config.disk_cache.clone(),
        backend: shared.config.backend.clone(),
    };
    let placed = match &shared.config.backend {
        ExecBackend::LocalThreads => &metrics.jobs_placed_local,
        ExecBackend::Subprocess(_) => &metrics.jobs_placed_subprocess,
        ExecBackend::Fleet(_) => &metrics.jobs_placed_fleet,
    };
    placed.fetch_add(
        deduped.unique.len() as u64,
        std::sync::atomic::Ordering::Relaxed,
    );
    let summary = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        try_run_jobs(&deduped.unique, &options)
    })) {
        Ok(Ok(summary)) => summary,
        Ok(Err(e)) => {
            eprintln!("sigcomp-serve: batch execution failed: {e}");
            for (_, slot, _) in members {
                slot.fill(Err(SubmitError::SimulationFailed));
            }
            return;
        }
        Err(_) => {
            for (_, slot, _) in members {
                slot.fill(Err(SubmitError::SimulationFailed));
            }
            return;
        }
    };

    // Publish into the memo, then wake every waiter.
    {
        let mut state = shared.state.lock().expect("queue poisoned");
        for outcome in &summary.outcomes {
            state.memo.insert(outcome.spec.job_id(), outcome.metrics);
        }
    }
    for outcome in &summary.outcomes {
        if outcome.from_cache {
            ServerMetrics::incr(&metrics.jobs_disk_cache_hits);
        } else {
            ServerMetrics::incr(&metrics.jobs_simulated);
        }
    }
    for (idx, slot, follower) in members {
        let outcome = &summary.outcomes[idx];
        slot.fill(Ok(BatchedResult {
            metrics: outcome.metrics,
            // A follower's answer reused the leader's run; the leader
            // reports whether *its* answer came from the disk cache.
            from_cache: follower || outcome.from_cache,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigcomp::ExtScheme;

    #[test]
    fn retry_after_tracks_the_batch_backlog() {
        // An empty (or racing-toward-empty) queue still asks for a 1 s
        // pause, never 0 — "Retry-After: 0" would invite a busy loop.
        assert_eq!(retry_after_secs(0, 64), 1);
        // Up to one batch pending: come back after one drain interval.
        assert_eq!(retry_after_secs(1, 64), 1);
        assert_eq!(retry_after_secs(64, 64), 1);
        // The hint grows with the number of batches queued ahead.
        assert_eq!(retry_after_secs(65, 64), 2);
        assert_eq!(retry_after_secs(640, 64), 10);
        // Tiny batches make the same queue look longer.
        assert_eq!(retry_after_secs(8, 1), 8);
        // Pathological backlogs are capped, not relayed verbatim.
        assert_eq!(retry_after_secs(1_000_000, 1), MAX_RETRY_AFTER_SECS);
        // A zero max_batch cannot divide-by-zero.
        assert_eq!(retry_after_secs(10, 0), 10);
    }

    use sigcomp_explore::{simulate_job, MemProfile};
    use sigcomp_pipeline::OrgKind;
    use sigcomp_workloads::{find, suite_names, WorkloadSize};
    use std::sync::atomic::Ordering;

    fn spec(workload_index: usize, org: OrgKind) -> JobSpec {
        JobSpec {
            scheme: ExtScheme::ThreeBit,
            org,
            workload: suite_names()[workload_index],
            size: WorkloadSize::Tiny,
            mem: MemProfile::Paper,
            source: sigcomp_explore::TraceSource::Kernel,
        }
    }

    fn batcher() -> (Batcher, Arc<ServerMetrics>) {
        let metrics = Arc::new(ServerMetrics::default());
        let config = BatchConfig {
            max_batch: 16,
            queue_capacity: 64,
            sim_workers: Some(2),
            ..BatchConfig::default()
        };
        (Batcher::new(config, Arc::clone(&metrics)), metrics)
    }

    #[test]
    fn concurrent_identical_submissions_simulate_once() {
        let (batcher, metrics) = batcher();
        let job = spec(0, OrgKind::ByteSerial);
        let expected = {
            let benchmark = find(job.workload, job.size).unwrap();
            simulate_job(&job, &benchmark)
        };
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let batcher = &batcher;
                scope.spawn(move || {
                    let result = batcher.submit(job).expect("submit succeeds");
                    assert_eq!(result.metrics, expected, "answers must be bit-identical");
                });
            }
        });
        let requested = metrics.jobs_requested.load(Ordering::Relaxed);
        let simulated = metrics.jobs_simulated.load(Ordering::Relaxed);
        assert_eq!(requested, 8);
        assert_eq!(simulated, 1, "one simulation serves all eight clients");
        let coalesced = metrics.jobs_batch_deduped.load(Ordering::Relaxed)
            + metrics.jobs_memo_hits.load(Ordering::Relaxed);
        assert_eq!(coalesced, 7);
    }

    #[test]
    fn submit_many_answers_in_order_with_duplicates() {
        let (batcher, metrics) = batcher();
        let a = spec(0, OrgKind::Baseline32);
        let b = spec(0, OrgKind::ByteSerial);
        let results = batcher.submit_many(&[a, b, a, b, a]).expect("batch runs");
        assert_eq!(results.len(), 5);
        assert_eq!(results[0].metrics, results[2].metrics);
        assert_eq!(results[0].metrics, results[4].metrics);
        assert_eq!(results[1].metrics, results[3].metrics);
        assert_ne!(results[0].metrics, results[1].metrics);
        assert!(metrics.jobs_simulated.load(Ordering::Relaxed) <= 2);
    }

    #[test]
    fn memo_serves_repeat_submissions_without_requeueing() {
        let (batcher, metrics) = batcher();
        let job = spec(1, OrgKind::Baseline32);
        let first = batcher.submit(job).expect("first submit");
        assert!(!first.from_cache);
        let second = batcher.submit(job).expect("second submit");
        assert!(second.from_cache, "repeat must be a memo hit");
        assert_eq!(first.metrics, second.metrics);
        assert_eq!(metrics.jobs_memo_hits.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.jobs_simulated.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn disk_cache_hits_are_counted_and_bit_identical() {
        let dir = std::env::temp_dir().join(format!(
            "sigcomp-serve-test-diskcache-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).expect("cache opens");
        let job = spec(2, OrgKind::ByteSerial);
        // Warm the cache the way a CLI sweep would.
        let direct = {
            let benchmark = find(job.workload, job.size).unwrap();
            simulate_job(&job, &benchmark)
        };
        cache.store(job.job_id(), &direct).expect("store succeeds");

        let metrics = Arc::new(ServerMetrics::default());
        let config = BatchConfig {
            disk_cache: Some(cache),
            sim_workers: Some(1),
            ..BatchConfig::default()
        };
        let batcher = Batcher::new(config, Arc::clone(&metrics));
        let result = batcher.submit(job).expect("submit succeeds");
        assert!(result.from_cache);
        assert_eq!(result.metrics, direct);
        assert_eq!(metrics.jobs_disk_cache_hits.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.jobs_simulated.load(Ordering::Relaxed), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn local_placement_is_counted_per_unique_job() {
        let (batcher, metrics) = batcher();
        let a = spec(0, OrgKind::Baseline32);
        let b = spec(0, OrgKind::ByteSerial);
        batcher.submit_many(&[a, b, a]).expect("batch runs");
        // Dedup happens before placement: at most 2 jobs reach the backend,
        // all on the local side (the default backend).
        let local = metrics.jobs_placed_local.load(Ordering::Relaxed);
        assert!(local == 2, "expected 2 local placements, saw {local}");
        assert_eq!(metrics.jobs_placed_subprocess.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn sustained_distinct_submissions_hold_the_memo_flat() {
        // The memory-flatness regression guard: a capped memo must never
        // grow past its capacity no matter how many distinct jobs stream
        // through, and evicted entries must still be answerable (from the
        // executor) rather than erroring.
        let metrics = Arc::new(ServerMetrics::default());
        let config = BatchConfig {
            max_batch: 4,
            queue_capacity: 16,
            sim_workers: Some(2),
            memo_capacity: 3,
            ..BatchConfig::default()
        };
        let batcher = Batcher::new(config, Arc::clone(&metrics));
        // 2 workloads × 4 orgs = 8 distinct jobs, submitted twice over.
        let orgs = [
            OrgKind::Baseline32,
            OrgKind::ByteSerial,
            OrgKind::ParallelSkewed,
            OrgKind::ParallelCompressed,
        ];
        let mut distinct = Vec::new();
        for workload in 0..2 {
            for org in orgs {
                distinct.push(spec(workload, org));
            }
        }
        for round in 0..2 {
            for &job in &distinct {
                let result = batcher.submit(job).expect("submit succeeds");
                assert!(result.metrics.cycles > 0);
                assert!(
                    batcher.memo_len() <= 3,
                    "round {round}: memo grew to {}",
                    batcher.memo_len()
                );
            }
        }
        assert_eq!(batcher.memo_len(), 3, "memo sits at its cap");
        // Every submission was answered; evicted entries re-simulated
        // rather than failing.
        assert_eq!(
            metrics.jobs_requested.load(Ordering::Relaxed),
            2 * distinct.len() as u64
        );
    }

    #[test]
    fn full_queue_sheds_single_submissions_instead_of_blocking() {
        let metrics = Arc::new(ServerMetrics::default());
        let config = BatchConfig {
            max_batch: 1,
            queue_capacity: 1,
            sim_workers: Some(1),
            ..BatchConfig::default()
        };
        let batcher = Batcher::new(config, Arc::clone(&metrics));
        // Fill the queue behind the dispatcher's back: push without
        // signalling work_ready, so the dispatcher stays asleep on its
        // condvar and cannot drain the entry before we observe the shed.
        {
            let mut state = batcher.shared.state.lock().unwrap();
            state
                .queue
                .push_back((spec(0, OrgKind::Baseline32), Arc::new(Slot::default())));
        }
        let shed = batcher.submit(spec(0, OrgKind::ByteSerial));
        assert_eq!(shed, Err(SubmitError::Overloaded));
        assert_eq!(metrics.jobs_shed.load(Ordering::Relaxed), 1);
        // Dropping the batcher wakes the dispatcher, which drains the
        // stuffed entry and exits cleanly.
    }

    #[test]
    fn shutdown_rejects_new_work() {
        let (first, _metrics) = batcher();
        drop(first);
        // Dropping joins the dispatcher; a fresh batcher still works.
        let (second, _metrics) = batcher();
        let result = second.submit(spec(0, OrgKind::Baseline32));
        assert!(result.is_ok());
    }
}
