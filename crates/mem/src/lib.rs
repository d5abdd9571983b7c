//! # sigcomp-mem
//!
//! Memory-hierarchy substrate for the significance-compression study: caches,
//! TLBs and a two-level hierarchy configured with the parameters of the paper
//! (§3, *Experimental Framework*):
//!
//! * split 8 KB direct-mapped L1 instruction and data caches, 32-byte lines,
//!   1-cycle hit,
//! * unified 64 KB 4-way L2, 32-byte lines, 6-cycle hit, 30-cycle miss,
//! * 16-entry 4-way I-TLB and 32-entry 4-way D-TLB, 1-cycle hit, 30-cycle
//!   miss.
//!
//! The hierarchy is trace-driven: callers present instruction-fetch and data
//! addresses and get back a latency in cycles plus structural information
//! (which level hit, whether a line was filled). Byte-level *activity*
//! accounting — how many data-array bytes the access had to touch once
//! significance compression gates the rest off — is the business of the
//! `sigcomp` core crate; this crate reports the raw events it needs.
//!
//! # Example
//!
//! ```
//! use sigcomp_mem::{HierarchyConfig, MemoryHierarchy, AccessKind};
//!
//! let mut mem = MemoryHierarchy::new(&HierarchyConfig::paper());
//! let first = mem.data_access(0x1000_0000, AccessKind::Load);
//! assert!(!first.l1_hit);                 // cold miss
//! let second = mem.data_access(0x1000_0004, AccessKind::Load);
//! assert!(second.l1_hit);                 // same 32-byte line
//! assert!(second.latency < first.latency);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

mod cache;
mod config;
mod hierarchy;
mod stats;
mod tlb;

pub use cache::{Cache, CacheAccess, EvictedLine};
pub use config::{CacheConfig, HierarchyConfig, TlbConfig};
pub use hierarchy::{AccessKind, HitLevel, MemResult, MemStep, MemoryHierarchy};
pub use stats::{CacheStats, HierarchyStats, TlbStats};
pub use tlb::Tlb;
