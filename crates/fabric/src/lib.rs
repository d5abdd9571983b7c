//! # sigcomp-fabric
//!
//! The distributed sweep fabric: a **frontier/worker topology over HTTP**,
//! the fleet transport of the scatter/merge core in `sigcomp-explore`
//! ([`sigcomp_explore::scatter`]). The core owns dedup, the id sort, the
//! round-robin partition, re-sharding, the local fallback and the merge;
//! this crate only carries shards to machines — so *N hosts × M shards*
//! stay byte-identical to one process, exactly as `--shards` does.
//!
//! Workers are ordinary `repro serve` processes. They register with a
//! frontier (`POST /register`), then heartbeat periodically with their
//! capacity and observability snapshot (`POST /heartbeat`); the frontier
//! tracks them in a [`WorkerPool`]. On
//! [`ExecBackend::Fleet`](sigcomp_explore::ExecBackend) each shard is one
//! `POST /fleet/dispatch` carrying
//! [`JobSpec::to_wire`](sigcomp_explore::JobSpec::to_wire) lines — the same
//! wire grammar the subprocess backend broadcasts on stdin.
//!
//! Results come back as **replicated cache entries**: each worker answers
//! with the exact on-disk [`ResultCache`](sigcomp_explore::ResultCache)
//! entry text for every job, guarded by an FNV-1a digest
//! ([`sigcomp_explore::entry_digest`]). The frontier verifies each digest
//! and publishes the bytes into its own cache
//! ([`ResultCache::store_entry_text`](sigcomp_explore::ResultCache::store_entry_text)),
//! from which the core restores every outcome. Entries are keyed by config
//! hash, so replication is conflict-free: two workers racing the same key
//! write identical bytes.
//!
//! Robustness:
//!
//! * per-dispatch timeouts with bounded retry + exponential backoff
//!   ([`FleetConfig`](sigcomp_explore::FleetConfig)),
//! * a worker that exhausts its attempts (killed mid-sweep, say) is
//!   reported lost, and the core **re-shards** its jobs across the
//!   survivors,
//! * with no workers left (or none registered), the core **degrades
//!   gracefully to local execution** over the same cache — the sweep always
//!   completes, byte-identically.
//!
//! `sigcomp-explore` stays free of networking: it exposes the
//! [`ExecBackend::Fleet`](sigcomp_explore::ExecBackend) variant as pure
//! data plus an [`install_fleet_runner`](sigcomp_explore::install_fleet_runner)
//! hook, and this crate registers its [`frontier`] runner via [`install`]
//! (called by `sigcomp_serve::Server::bind` and every `repro fleet` path).

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod frontier;
pub mod pool;
pub mod proto;
pub mod worker;

pub use client::{parse_response, read_response, HttpClient, HttpResponse};
pub use frontier::run_fleet_jobs;
pub use pool::{WorkerPool, WorkerStatus, DEFAULT_LIVENESS_TTL};
pub use proto::{
    encode_dispatch, encode_heartbeat, encode_register, encode_report, parse_dispatch,
    parse_heartbeat, parse_register, parse_report, DispatchOutcome, FleetReport, FLEET_HEADER,
};
pub use worker::Heartbeater;

/// Registers the fleet runner with `sigcomp-explore`, making
/// [`ExecBackend::Fleet`](sigcomp_explore::ExecBackend) executable.
/// Idempotent and cheap — call it from every entry point that might select
/// the fleet backend.
pub fn install() {
    sigcomp_explore::install_fleet_runner(frontier::run_fleet_jobs);
}
