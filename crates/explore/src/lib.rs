//! # sigcomp-explore
//!
//! Parallel design-space exploration for the significance-compression
//! models: the paper's results (Tables 5–6, Figures 4–10) are single points
//! in a space of extension scheme × pipeline organization × workload ×
//! workload size × cache geometry; this crate sweeps whole regions of that
//! space at once and reports the energy/performance trade-off.
//!
//! The engine has these parts:
//!
//! * [`SweepSpec`] — a builder that enumerates and filters the cross product
//!   into [`JobSpec`]s with deterministic indices and content-hashed
//!   [`JobSpec::job_id`]s,
//! * [`backend`] — the pluggable execution layer ([`ExecBackend`]):
//!   [`ExecBackend::LocalThreads`] runs jobs on the in-process
//!   work-stealing pool; [`ExecBackend::Subprocess`] and
//!   [`ExecBackend::Fleet`] are the one scatter/merge core ([`scatter`])
//!   with two transports — `repro worker` child processes and remote
//!   `repro serve` workers (`sigcomp-fabric`). The core dedups, sorts by
//!   job id, deals shards round-robin, re-shards lost ones and merges
//!   through the shared cache, with merged output **byte-identical to the
//!   single-process run for any shard or worker count**,
//! * [`executor`] — the dependency-free work-stealing thread pool
//!   (`std` threads + channels) behind the local backend, whose merged
//!   output is **bit-identical for every worker count**: results are
//!   reassembled in job order and the per-worker statistic shards hold
//!   only integer counters,
//! * [`ResultCache`] — an on-disk cache keyed by job content hash, so
//!   re-running a sweep only simulates configurations whose parameters
//!   changed — and the merge point scaled-out workers publish through,
//! * [`report`] — aggregation into per-configuration [`ConfigPoint`]s,
//!   Pareto-frontier extraction (dynamic-energy saving vs CPI) and CSV/JSON
//!   export.
//!
//! # Example
//!
//! ```
//! use sigcomp_explore::{run_sweep, SweepOptions, SweepSpec};
//! use sigcomp_workloads::WorkloadSize;
//!
//! let spec = SweepSpec::paper(WorkloadSize::Tiny).workloads(&["rawcaudio", "pgp"]);
//! let summary = run_sweep(&spec, &SweepOptions::with_workers(2));
//! assert_eq!(summary.outcomes.len(), 2 * 7);
//! let points = sigcomp_explore::config_points(&summary.outcomes);
//! let frontier = sigcomp_explore::pareto_frontier(&points, &Default::default());
//! assert!(!frontier.is_empty());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod backend;
mod cache;
pub mod executor;
pub mod prune;
pub mod report;
pub mod scatter;
mod spec;
mod sweep;

pub use backend::{
    install_fleet_runner, parse_shard, ExecBackend, ExecError, FleetConfig, FleetRunner,
    SubprocessConfig, WORKER_HEADER,
};
pub use cache::{
    cache_stats, column_slug, decode_entry, encode_entry, entry_digest, CacheStats, ResultCache,
};
pub use executor::{run_parallel, WorkerReport};
pub use prune::{static_prune, PruneOutcome, PruneReason, PrunedJob};
pub use report::{config_points, frontier_table, pareto_frontier, to_csv, to_json, ConfigPoint};
pub use scatter::{
    dedup_jobs, round_robin, scatter_jobs, DedupedJobs, JobLedger, Shard, ShardOutcome,
    ShardReport, ShardTransport,
};
pub use spec::{JobSpec, MemProfile, SweepSpec, TraceInput, TraceSource, SWEEP_FORMAT_VERSION};
pub use sweep::{
    run_jobs, run_jobs_traced, run_sweep, simulate_decoded, simulate_job, simulate_trace,
    try_run_jobs, try_run_jobs_traced, try_run_sweep, JobMetrics, JobOutcome, SweepOptions,
    SweepShard, SweepSummary,
};
