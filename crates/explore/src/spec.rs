//! Sweep specification: the axes of the design space and their cross
//! product, enumerated deterministically into job specifications.

use sigcomp::hash::{ConfigHash, StableHasher};
use sigcomp::{AnalyzerConfig, ExtScheme, FunctRecoder, ProcessNode};
use sigcomp_isa::tracefile::{self, TraceFileError};
use sigcomp_isa::{DecodedTrace, Trace};
use sigcomp_mem::HierarchyConfig;
use sigcomp_pipeline::{OrgKind, Organization};
use sigcomp_workloads::{suite_names, WorkloadSize};
use std::path::Path;
use std::sync::Arc;

/// Version folded into every job digest; bump it whenever the simulation
/// semantics change so stale cache entries can never be mistaken for fresh
/// results. (v2: job identity gained a trace-source tag.)
///
/// The leakage-aware energy model deliberately did NOT bump this: energy
/// models are pure post-processing over the cached integer counters, so the
/// [`SweepSpec::energy_models`] axis never enters a job digest, and the new
/// gated-byte-cycle counters are additive — the switching and timing numbers
/// they sit beside are unchanged, which the golden corpus (whose expected
/// JSON embeds these job ids) pins bit for bit. Pre-leakage cache *entries*
/// lack the new counters, so the on-disk entry format header was bumped
/// instead (`sigcomp-explore v2` in `cache.rs`), retiring them as clean
/// misses under unchanged keys.
pub const SWEEP_FORMAT_VERSION: u32 = 2;

/// A named memory-hierarchy variant for the cache-geometry axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemProfile {
    /// The paper's §3 hierarchy (8 KB direct-mapped L1s, 64 KB 4-way L2).
    Paper,
    /// Halved L1 capacity (4 KB), stressing the miss paths.
    SmallL1,
    /// A quadrupled 8-way L2, shrinking the L2 miss rate.
    WideL2,
    /// The paper hierarchy in front of a 100-cycle main memory.
    SlowMemory,
}

impl MemProfile {
    /// Every profile, paper configuration first.
    pub const ALL: &'static [MemProfile] = &[
        MemProfile::Paper,
        MemProfile::SmallL1,
        MemProfile::WideL2,
        MemProfile::SlowMemory,
    ];

    /// Stable identifier used in reports and cache keys.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            MemProfile::Paper => "paper",
            MemProfile::SmallL1 => "small-l1",
            MemProfile::WideL2 => "wide-l2",
            MemProfile::SlowMemory => "slow-memory",
        }
    }

    /// Parses an identifier as produced by [`MemProfile::id`].
    #[must_use]
    pub fn parse(id: &str) -> Option<Self> {
        MemProfile::ALL.iter().copied().find(|m| m.id() == id)
    }

    /// The concrete hierarchy parameters of this profile.
    #[must_use]
    pub fn hierarchy(self) -> HierarchyConfig {
        let mut h = HierarchyConfig::paper();
        match self {
            MemProfile::Paper => {}
            MemProfile::SmallL1 => {
                h.il1.size_bytes = 4 * 1024;
                h.dl1.size_bytes = 4 * 1024;
            }
            MemProfile::WideL2 => {
                h.l2.size_bytes = 256 * 1024;
                h.l2.associativity = 8;
            }
            MemProfile::SlowMemory => {
                h.memory_latency = 100;
            }
        }
        h
    }
}

impl ConfigHash for MemProfile {
    fn config_hash(&self, hasher: &mut StableHasher) {
        // Hash the resolved geometry, not the profile name: a renamed profile
        // with identical parameters keeps its cache entries.
        self.hierarchy().config_hash(hasher);
    }
}

/// Where a job's dynamic instruction stream comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceSource {
    /// A built-in kernel, named by [`JobSpec::workload`] and assembled and
    /// executed live at [`JobSpec::size`].
    Kernel,
    /// A recorded `.sctrace` file, identified purely by the FNV-1a digest of
    /// its record stream ([`sigcomp_isa::tracefile::payload_digest`]). The
    /// trace itself is resolved through the [`TraceInput`]s handed to the
    /// sweep; `workload` is only a display label and `size` is ignored, so a
    /// file job's [`JobSpec::job_id`] changes exactly when the trace
    /// *content* changes.
    File {
        /// Digest of the trace's encoded record stream.
        digest: u64,
    },
}

/// A loaded portable trace, usable as a sweep axis alongside the built-in
/// kernels.
///
/// The records live in a [`DecodedTrace`] arena behind an [`Arc`]: the file
/// is parsed and decoded exactly once, and every sweep job that replays the
/// trace shares the same arena instead of re-decoding (or deep-copying) the
/// record stream.
#[derive(Debug, Clone)]
pub struct TraceInput {
    name: &'static str,
    digest: u64,
    decoded: Arc<DecodedTrace>,
}

impl TraceInput {
    /// Loads and fully validates a `.sctrace` file. The display name is the
    /// file stem, interned for the life of the process (one leaked string
    /// per *distinct* name, so job labels stay cheap `&'static str`s like
    /// kernel names and repeated loads don't grow memory).
    ///
    /// # Errors
    ///
    /// Any [`TraceFileError`] from opening, parsing or validating the file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, TraceFileError> {
        let path = path.as_ref();
        let reader = tracefile::TraceReader::open(path)?;
        // Draining the reader verifies count and digest, so the header's
        // declared digest IS the payload digest — no need to re-encode the
        // records just to recompute it.
        let digest = reader.declared_digest();
        let decoded = DecodedTrace::from_reader(reader)?;
        let stem = path
            .file_stem()
            .map_or_else(|| path.to_string_lossy(), |s| s.to_string_lossy());
        Ok(TraceInput {
            name: intern_name(&stem),
            digest,
            decoded: Arc::new(decoded),
        })
    }

    /// Wraps an in-memory trace under a display name, computing its content
    /// digest.
    ///
    /// # Errors
    ///
    /// Fails if the trace cannot be represented in the `.sctrace` format
    /// (same conditions as [`sigcomp_isa::TraceWriter::push`]).
    pub fn from_trace(name: &'static str, trace: Trace) -> Result<Self, TraceFileError> {
        let digest = tracefile::payload_digest(&trace)?;
        Ok(TraceInput {
            name,
            digest,
            decoded: Arc::new(DecodedTrace::from_trace(&trace)),
        })
    }

    /// The display name used as the job's `workload` label.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The FNV-1a digest of the trace's encoded record stream.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The decoded records, shared by every job that replays this input.
    #[must_use]
    pub fn decoded(&self) -> &Arc<DecodedTrace> {
        &self.decoded
    }

    /// The [`TraceSource`] axis value this input contributes.
    #[must_use]
    pub fn source(&self) -> TraceSource {
        TraceSource::File {
            digest: self.digest,
        }
    }
}

/// Interns a trace display name: [`crate::JobSpec::workload`] is a
/// `&'static str` (kernel names are literals), so file names are leaked
/// once per distinct name and reused on every later load.
fn intern_name(name: &str) -> &'static str {
    use std::collections::HashSet;
    use std::sync::{Mutex, OnceLock};
    static INTERNED: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let mut set = INTERNED
        .get_or_init(Default::default)
        .lock()
        .expect("intern table is never poisoned");
    if let Some(&interned) = set.get(name) {
        interned
    } else {
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        set.insert(leaked);
        leaked
    }
}

/// One point of the design space: everything needed to run one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// Extension-bit scheme carried by the datapath.
    pub scheme: ExtScheme,
    /// Pipeline organization being timed.
    pub org: OrgKind,
    /// Benchmark name (from [`sigcomp_workloads::suite_names`]).
    pub workload: &'static str,
    /// Workload scale.
    pub size: WorkloadSize,
    /// Memory-hierarchy variant.
    pub mem: MemProfile,
    /// Where the instruction stream comes from (live kernel or trace file).
    pub source: TraceSource,
}

impl JobSpec {
    /// The pipeline organization under this job's scheme.
    #[must_use]
    pub fn organization(&self) -> Organization {
        Organization::with_scheme(self.org, self.scheme)
    }

    /// The activity-study configuration matching this job.
    #[must_use]
    pub fn analyzer_config(&self) -> AnalyzerConfig {
        AnalyzerConfig {
            scheme: self.scheme,
            hierarchy: self.mem.hierarchy(),
            pc_block_bits: 8 * self.scheme.granule_bytes(),
            recoder: FunctRecoder::paper_default(),
        }
    }

    /// The content-hashed job identity: a stable digest of every parameter
    /// that influences the simulation result, including the sweep format
    /// version. Equal digests ⇒ a cached result is valid.
    ///
    /// For a [`TraceSource::File`] job the instruction stream is fixed by
    /// the trace itself, so the digest folds in the trace *content* and
    /// leaves out the display name and the size axis: renaming a trace file
    /// keeps its cache entries, editing one record invalidates them.
    #[must_use]
    pub fn job_id(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_u32(SWEEP_FORMAT_VERSION);
        self.scheme.config_hash(&mut h);
        self.org.config_hash(&mut h);
        match self.source {
            TraceSource::Kernel => {
                h.write_u8(0);
                h.write_str(self.workload);
                h.write_str(self.size.name());
            }
            TraceSource::File { digest } => {
                h.write_u8(1);
                h.write_u64(digest);
            }
        }
        self.mem.config_hash(&mut h);
        self.analyzer_config().config_hash(&mut h);
        h.finish()
    }

    /// Stable identifier of the job's stream source (`kernel` or `trace`),
    /// used by the CSV/JSON exports.
    #[must_use]
    pub fn source_id(&self) -> &'static str {
        match self.source {
            TraceSource::Kernel => "kernel",
            TraceSource::File { .. } => "trace",
        }
    }

    /// The size-axis value as reported to humans and exports: the workload
    /// size for kernel jobs, `trace` for file jobs (whose stream length is
    /// fixed by the recording — a size value would be fabricated).
    #[must_use]
    pub fn size_label(&self) -> &'static str {
        match self.source {
            TraceSource::Kernel => self.size.name(),
            TraceSource::File { .. } => "trace",
        }
    }

    /// A compact human-readable label (`workload/org/scheme/mem/size`, with
    /// `trace` in place of the size for file-sourced jobs).
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/{}/{}",
            self.workload,
            self.org.id(),
            self.scheme.id(),
            self.mem.id(),
            self.size_label(),
        )
    }

    /// Serializes the spec as one line of the worker wire protocol
    /// ([`crate::backend`]): every axis by its stable id, space-separated.
    ///
    /// * kernel jobs: `kernel <workload> <size> <mem> <scheme> <org>`
    /// * trace jobs: `trace <digest> <mem> <scheme> <org> <name>` — the
    ///   display name comes last and is percent-escaped
    ///   (`escape_wire_name`): being a user-controlled file stem it may
    ///   contain spaces or even newlines, which must not break the
    ///   line-oriented protocol; every other token is a fixed identifier.
    ///
    /// [`JobSpec::from_wire`] is the exact inverse; a round trip preserves
    /// [`JobSpec::job_id`] bit for bit (pinned by tests), which is what lets
    /// a worker process re-derive the same cache keys as its parent.
    #[must_use]
    pub fn to_wire(&self) -> String {
        match self.source {
            TraceSource::Kernel => format!(
                "kernel {} {} {} {} {}",
                self.workload,
                self.size.name(),
                self.mem.id(),
                self.scheme.id(),
                self.org.id(),
            ),
            TraceSource::File { digest } => format!(
                "trace {digest:016x} {} {} {} {}",
                self.mem.id(),
                self.scheme.id(),
                self.org.id(),
                escape_wire_name(self.workload),
            ),
        }
    }

    /// Parses one wire-protocol line back into a spec (the inverse of
    /// [`JobSpec::to_wire`]).
    ///
    /// # Errors
    ///
    /// A message naming the offending token: unknown source kind, unknown
    /// workload/size/mem/scheme/org id, malformed digest, or a missing
    /// field.
    pub fn from_wire(line: &str) -> Result<JobSpec, String> {
        let line = line.trim();
        let (kind, rest) = line
            .split_once(' ')
            .ok_or_else(|| format!("bad job line '{line}': expected '<kind> <fields...>'"))?;
        let field = |parts: &mut std::str::SplitWhitespace<'_>, what: &str| {
            parts
                .next()
                .map(str::to_owned)
                .ok_or_else(|| format!("bad job line '{line}': missing {what}"))
        };
        let parse_with = |raw: &str, what: &str, ok: bool| {
            if ok {
                Ok(())
            } else {
                Err(format!("bad job line '{line}': unknown {what} '{raw}'"))
            }
        };
        match kind {
            "kernel" => {
                let mut parts = rest.split_whitespace();
                let workload_raw = field(&mut parts, "workload")?;
                let size_raw = field(&mut parts, "size")?;
                let mem_raw = field(&mut parts, "memory profile")?;
                let scheme_raw = field(&mut parts, "scheme")?;
                let org_raw = field(&mut parts, "organization")?;
                if parts.next().is_some() {
                    return Err(format!("bad job line '{line}': trailing fields"));
                }
                let workload = suite_names()
                    .iter()
                    .copied()
                    .find(|&n| n == workload_raw)
                    .ok_or_else(|| {
                        format!("bad job line '{line}': unknown workload '{workload_raw}'")
                    })?;
                let size = WorkloadSize::parse(&size_raw);
                parse_with(&size_raw, "size", size.is_some())?;
                let mem = MemProfile::parse(&mem_raw);
                parse_with(&mem_raw, "memory profile", mem.is_some())?;
                let scheme = ExtScheme::parse(&scheme_raw);
                parse_with(&scheme_raw, "scheme", scheme.is_some())?;
                let org = OrgKind::parse(&org_raw);
                parse_with(&org_raw, "organization", org.is_some())?;
                Ok(JobSpec {
                    scheme: scheme.expect("checked above"),
                    org: org.expect("checked above"),
                    workload,
                    size: size.expect("checked above"),
                    mem: mem.expect("checked above"),
                    source: TraceSource::Kernel,
                })
            }
            "trace" => {
                // The display name is the last (escaped) token; split off
                // exactly the four fixed fields first.
                let mut parts = rest.splitn(5, ' ');
                let mut fixed = |what: &str| {
                    parts
                        .next()
                        .filter(|t| !t.is_empty())
                        .map(str::to_owned)
                        .ok_or_else(|| format!("bad job line '{line}': missing {what}"))
                };
                let digest_raw = fixed("digest")?;
                let mem_raw = fixed("memory profile")?;
                let scheme_raw = fixed("scheme")?;
                let org_raw = fixed("organization")?;
                let name = fixed("trace name")?;
                let digest = u64::from_str_radix(&digest_raw, 16).map_err(|_| {
                    format!("bad job line '{line}': malformed digest '{digest_raw}'")
                })?;
                let mem = MemProfile::parse(&mem_raw);
                parse_with(&mem_raw, "memory profile", mem.is_some())?;
                let scheme = ExtScheme::parse(&scheme_raw);
                parse_with(&scheme_raw, "scheme", scheme.is_some())?;
                let org = OrgKind::parse(&org_raw);
                parse_with(&org_raw, "organization", org.is_some())?;
                let name =
                    unescape_wire_name(&name).map_err(|e| format!("bad job line '{line}': {e}"))?;
                Ok(JobSpec {
                    scheme: scheme.expect("checked above"),
                    org: org.expect("checked above"),
                    workload: intern_name(&name),
                    // Cosmetic for file jobs (job_id ignores it), mirroring
                    // SweepSpec::enumerate.
                    size: WorkloadSize::Default,
                    mem: mem.expect("checked above"),
                    source: TraceSource::File { digest },
                })
            }
            other => Err(format!(
                "bad job line '{line}': unknown source kind '{other}' (expected kernel or trace)"
            )),
        }
    }
}

/// Percent-escapes a trace display name for the one-line wire protocol:
/// `%`, space, tab, CR and LF become `%25`/`%20`/`%09`/`%0D`/`%0A`, so the
/// escaped name is a single whitespace-free token no matter what the file
/// stem contained. Kernel workload names never need this — they are
/// compiled-in identifiers validated against [`suite_names`].
fn escape_wire_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        match c {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '\t' => out.push_str("%09"),
            '\r' => out.push_str("%0D"),
            '\n' => out.push_str("%0A"),
            other => out.push(other),
        }
    }
    out
}

/// Inverse of [`escape_wire_name`].
fn unescape_wire_name(escaped: &str) -> Result<String, String> {
    let mut out = String::with_capacity(escaped.len());
    let mut chars = escaped.chars();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let pair: String = chars.by_ref().take(2).collect();
        let code = Some(&pair)
            .filter(|p| p.len() == 2)
            .and_then(|p| u8::from_str_radix(p, 16).ok())
            .ok_or_else(|| format!("malformed trace name escape '%{pair}'"))?;
        out.push(char::from(code));
    }
    Ok(out)
}

/// Builder for the cross product of the design-space axes.
///
/// Axis order is fixed (workload, size, memory profile, scheme,
/// organization), so [`SweepSpec::enumerate`] always yields the same job
/// list — job *index* is a stable identity within one sweep, and
/// [`JobSpec::job_id`] is a stable identity across sweeps and processes.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    schemes: Vec<ExtScheme>,
    orgs: Vec<OrgKind>,
    workloads: Vec<&'static str>,
    sizes: Vec<WorkloadSize>,
    mems: Vec<MemProfile>,
    traces: Vec<TraceInput>,
    energy_models: Vec<ProcessNode>,
}

impl SweepSpec {
    /// The paper's primary slice of the space: the 3-bit scheme, every
    /// organization, the full kernel suite, one size, the paper hierarchy.
    #[must_use]
    pub fn paper(size: WorkloadSize) -> Self {
        SweepSpec {
            schemes: vec![ExtScheme::ThreeBit],
            orgs: OrgKind::ALL.to_vec(),
            workloads: suite_names().to_vec(),
            sizes: vec![size],
            mems: vec![MemProfile::Paper],
            traces: Vec::new(),
            energy_models: vec![ProcessNode::Paper180nm],
        }
    }

    /// The full cross product: every scheme, organization, kernel and memory
    /// profile at the given size.
    ///
    /// Note that this includes [`OrgKind::Baseline32`] under every scheme
    /// even though the baseline's timing and energy are scheme-independent —
    /// the enumeration is deliberately a uniform cross product (`len` stays
    /// the plain axis product and every axis filter composes); narrow the
    /// scheme axis or the organization axis if the redundancy matters.
    #[must_use]
    pub fn full(size: WorkloadSize) -> Self {
        SweepSpec {
            schemes: ExtScheme::ALL.to_vec(),
            orgs: OrgKind::ALL.to_vec(),
            workloads: suite_names().to_vec(),
            sizes: vec![size],
            mems: MemProfile::ALL.to_vec(),
            traces: Vec::new(),
            energy_models: vec![ProcessNode::Paper180nm],
        }
    }

    /// Replaces the extension-scheme axis.
    #[must_use]
    pub fn schemes(mut self, schemes: &[ExtScheme]) -> Self {
        self.schemes = schemes.to_vec();
        self
    }

    /// Replaces the organization axis.
    #[must_use]
    pub fn orgs(mut self, orgs: &[OrgKind]) -> Self {
        self.orgs = orgs.to_vec();
        self
    }

    /// Keeps only the workloads whose names appear in `names` (suite order is
    /// preserved; unknown names are ignored).
    #[must_use]
    pub fn workloads(mut self, names: &[&str]) -> Self {
        self.workloads = suite_names()
            .iter()
            .copied()
            .filter(|n| names.contains(n))
            .collect();
        self
    }

    /// Replaces the size axis.
    #[must_use]
    pub fn sizes(mut self, sizes: &[WorkloadSize]) -> Self {
        self.sizes = sizes.to_vec();
        self
    }

    /// Replaces the memory-profile axis.
    #[must_use]
    pub fn mems(mut self, mems: &[MemProfile]) -> Self {
        self.mems = mems.to_vec();
        self
    }

    /// Replaces the recorded-trace axis. Each trace crosses with the scheme,
    /// organization and memory axes (but not sizes — a recorded stream has a
    /// fixed length), after the kernel jobs in enumeration order.
    ///
    /// Inputs with identical *content* are deduplicated (first name wins):
    /// they would enumerate jobs with equal `job_id`s, whose cache-hit
    /// provenance would then depend on scheduling — breaking the
    /// bit-identical-across-workers guarantee.
    #[must_use]
    pub fn trace_files(mut self, traces: &[TraceInput]) -> Self {
        self.traces.clear();
        for input in traces {
            if !self.traces.iter().any(|t| t.digest() == input.digest()) {
                self.traces.push(input.clone());
            }
        }
        self
    }

    /// Replaces the energy-model axis (process-node presets the reports are
    /// evaluated under; default: the paper's dynamic-only `paper-180nm`).
    ///
    /// Unlike every other axis this one does **not** multiply the job list:
    /// energy models are post-processing over the simulated counters, so a
    /// sweep runs each configuration once and [`JobSpec::job_id`]s (and with
    /// them the result-cache keys) are independent of the models chosen.
    /// Duplicates are dropped (first occurrence wins); an empty list falls
    /// back to `paper-180nm` so reports always have a model to evaluate.
    #[must_use]
    pub fn energy_models(mut self, models: &[ProcessNode]) -> Self {
        self.energy_models.clear();
        for &model in models {
            if !self.energy_models.contains(&model) {
                self.energy_models.push(model);
            }
        }
        if self.energy_models.is_empty() {
            self.energy_models.push(ProcessNode::Paper180nm);
        }
        self
    }

    /// The energy-model axis the reports should be evaluated under.
    #[must_use]
    pub fn energy_model_axis(&self) -> &[ProcessNode] {
        &self.energy_models
    }

    /// Drops the kernel-workload axis, leaving only recorded traces.
    #[must_use]
    pub fn no_kernels(mut self) -> Self {
        self.workloads.clear();
        self
    }

    /// The recorded-trace axis.
    #[must_use]
    pub fn trace_inputs(&self) -> &[TraceInput] {
        &self.traces
    }

    /// Number of jobs the sweep will enumerate.
    #[must_use]
    pub fn len(&self) -> usize {
        self.schemes.len()
            * self.orgs.len()
            * self.mems.len()
            * (self.workloads.len() * self.sizes.len() + self.traces.len())
    }

    /// Whether any axis is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerates the cross product in the fixed axis order: kernel jobs
    /// first, then one block per recorded trace.
    #[must_use]
    pub fn enumerate(&self) -> Vec<JobSpec> {
        let mut jobs = Vec::with_capacity(self.len());
        for &workload in &self.workloads {
            for &size in &self.sizes {
                for &mem in &self.mems {
                    for &scheme in &self.schemes {
                        for &org in &self.orgs {
                            jobs.push(JobSpec {
                                scheme,
                                org,
                                workload,
                                size,
                                mem,
                                source: TraceSource::Kernel,
                            });
                        }
                    }
                }
            }
        }
        for trace in &self.traces {
            for &mem in &self.mems {
                for &scheme in &self.schemes {
                    for &org in &self.orgs {
                        jobs.push(JobSpec {
                            scheme,
                            org,
                            workload: trace.name(),
                            // Cosmetic only: the stream length is the
                            // trace's own; job_id ignores this field.
                            size: WorkloadSize::Default,
                            mem,
                            source: trace.source(),
                        });
                    }
                }
            }
        }
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn enumeration_is_deterministic_and_covers_the_cross_product() {
        let spec = SweepSpec::full(WorkloadSize::Tiny);
        let a = spec.enumerate();
        let b = spec.enumerate();
        assert_eq!(a, b);
        assert_eq!(a.len(), spec.len());
        assert_eq!(a.len(), 3 * 7 * 11 * 4);
        let ids: HashSet<u64> = a.iter().map(JobSpec::job_id).collect();
        assert_eq!(ids.len(), a.len(), "job ids must be unique");
    }

    #[test]
    fn job_ids_are_stable_across_processes() {
        // A pinned digest: if this changes, SWEEP_FORMAT_VERSION must be
        // bumped or every on-disk cache silently becomes wrong.
        let job = JobSpec {
            scheme: ExtScheme::ThreeBit,
            org: OrgKind::ByteSerial,
            workload: "rawcaudio",
            size: WorkloadSize::Tiny,
            mem: MemProfile::Paper,
            source: TraceSource::Kernel,
        };
        assert_eq!(job.job_id(), job.job_id());
        let mut other = job;
        other.mem = MemProfile::SlowMemory;
        assert_ne!(job.job_id(), other.job_id());
    }

    #[test]
    fn mem_profiles_resolve_to_distinct_geometries() {
        let mut seen = HashSet::new();
        for &m in MemProfile::ALL {
            assert!(seen.insert(m.config_digest()), "{} duplicates", m.id());
            assert_eq!(MemProfile::parse(m.id()), Some(m));
            // Geometry must stay self-consistent (num_sets panics otherwise).
            let h = m.hierarchy();
            let _ = h.il1.num_sets();
            let _ = h.dl1.num_sets();
            let _ = h.l2.num_sets();
        }
    }

    fn tiny_trace(limit: i16) -> sigcomp_isa::Trace {
        use sigcomp_isa::{reg, Interpreter, ProgramBuilder};
        let mut b = ProgramBuilder::new();
        b.li(reg::T0, 0);
        b.li(reg::T1, i32::from(limit));
        b.label("loop");
        b.addiu(reg::T0, reg::T0, 1);
        b.bne(reg::T0, reg::T1, "loop");
        b.halt();
        Interpreter::new(&b.assemble().unwrap())
            .run(10_000)
            .unwrap()
    }

    #[test]
    fn trace_job_ids_change_exactly_when_trace_content_changes() {
        let a = TraceInput::from_trace("alpha", tiny_trace(10)).unwrap();
        let renamed = TraceInput::from_trace("beta", tiny_trace(10)).unwrap();
        let edited = TraceInput::from_trace("alpha", tiny_trace(11)).unwrap();

        let job_of = |input: &TraceInput| JobSpec {
            scheme: ExtScheme::ThreeBit,
            org: OrgKind::ByteSerial,
            workload: input.name(),
            size: WorkloadSize::Tiny,
            mem: MemProfile::Paper,
            source: input.source(),
        };

        // Renaming (or relabeling the cosmetic size) keeps the identity …
        assert_eq!(a.digest(), renamed.digest());
        assert_eq!(job_of(&a).job_id(), job_of(&renamed).job_id());
        let mut resized = job_of(&a);
        resized.size = WorkloadSize::Large;
        assert_eq!(job_of(&a).job_id(), resized.job_id());

        // … while any content change (and any model axis) moves it.
        assert_ne!(a.digest(), edited.digest());
        assert_ne!(job_of(&a).job_id(), job_of(&edited).job_id());
        let mut other_scheme = job_of(&a);
        other_scheme.scheme = ExtScheme::Halfword;
        assert_ne!(job_of(&a).job_id(), other_scheme.job_id());

        // And a file job can never collide with the kernel job of the same
        // label.
        let mut kernel_alias = job_of(&a);
        kernel_alias.source = TraceSource::Kernel;
        assert_ne!(job_of(&a).job_id(), kernel_alias.job_id());
    }

    #[test]
    fn trace_axis_crosses_schemes_orgs_and_mems_but_not_sizes() {
        let input = TraceInput::from_trace("alpha", tiny_trace(5)).unwrap();
        let spec = SweepSpec::full(WorkloadSize::Tiny)
            .no_kernels()
            .trace_files(std::slice::from_ref(&input));
        let jobs = spec.enumerate();
        assert_eq!(jobs.len(), spec.len());
        assert_eq!(jobs.len(), 3 * 7 * 4);
        assert!(jobs
            .iter()
            .all(|j| j.source == input.source() && j.workload == "alpha"));
        assert!(jobs[0].label().ends_with("/trace"));

        let mixed = SweepSpec::paper(WorkloadSize::Tiny).trace_files(std::slice::from_ref(&input));
        assert_eq!(mixed.len(), 11 * 7 + 7);
        assert_eq!(mixed.enumerate().len(), mixed.len());
    }

    #[test]
    fn duplicate_trace_content_is_deduplicated() {
        // Two inputs with the same records (a copied file, say) would
        // enumerate jobs with equal job_ids; only one block may survive.
        let a = TraceInput::from_trace("alpha", tiny_trace(9)).unwrap();
        let copy = TraceInput::from_trace("copy-of-alpha", tiny_trace(9)).unwrap();
        let distinct = TraceInput::from_trace("beta", tiny_trace(10)).unwrap();
        let spec = SweepSpec::paper(WorkloadSize::Tiny)
            .no_kernels()
            .trace_files(&[a.clone(), copy, distinct]);
        assert_eq!(spec.trace_inputs().len(), 2);
        assert_eq!(spec.len(), 2 * 7);
        let jobs = spec.enumerate();
        assert_eq!(jobs.len(), spec.len());
        // First name wins for the shared content.
        assert_eq!(jobs[0].workload, "alpha");
        let ids: HashSet<u64> = jobs.iter().map(JobSpec::job_id).collect();
        assert_eq!(ids.len(), jobs.len(), "job ids must be unique");
    }

    #[test]
    fn energy_model_axis_is_post_processing_only() {
        let spec = SweepSpec::paper(WorkloadSize::Tiny);
        assert_eq!(spec.energy_model_axis(), &[ProcessNode::Paper180nm]);
        let jobs_before = spec.enumerate();

        let leaky = spec.clone().energy_models(&[
            ProcessNode::Modern7nm,
            ProcessNode::Modern7nm,
            ProcessNode::Paper180nm,
        ]);
        assert_eq!(
            leaky.energy_model_axis(),
            &[ProcessNode::Modern7nm, ProcessNode::Paper180nm]
        );
        // The axis multiplies reports, never jobs: same length, same specs,
        // and therefore byte-identical job ids / cache keys.
        assert_eq!(leaky.len(), spec.len());
        assert_eq!(leaky.enumerate(), jobs_before);

        let empty = spec.energy_models(&[]);
        assert_eq!(empty.energy_model_axis(), &[ProcessNode::Paper180nm]);
    }

    #[test]
    fn wire_format_round_trips_every_job_and_preserves_job_ids() {
        // Kernel jobs: the whole cross product survives a wire round trip
        // with its identity intact — this is what lets a worker process
        // derive the same cache keys as its parent.
        for job in SweepSpec::full(WorkloadSize::Tiny).enumerate() {
            let line = job.to_wire();
            let back = JobSpec::from_wire(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, job, "{line}");
            assert_eq!(back.job_id(), job.job_id(), "{line}");
        }
        // Trace jobs, including hostile display names (file stems are
        // user-controlled): spaces, a literal %, leading/trailing
        // whitespace, even an embedded newline must survive the one-line
        // protocol via percent-escaping.
        for name in ["my recorded trace", " we%ird\nname\t", "plain"] {
            let input = TraceInput::from_trace(name, tiny_trace(4)).unwrap();
            let spec = SweepSpec::paper(WorkloadSize::Tiny)
                .no_kernels()
                .trace_files(std::slice::from_ref(&input));
            for job in spec.enumerate() {
                let line = job.to_wire();
                assert_eq!(line.lines().count(), 1, "{name:?} must stay one line");
                let back = JobSpec::from_wire(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
                assert_eq!(back, job, "{line}");
                assert_eq!(back.job_id(), job.job_id(), "{line}");
                assert_eq!(back.workload, name);
            }
        }
    }

    #[test]
    fn malformed_wire_lines_are_rejected_with_named_errors() {
        for (line, needle) in [
            ("", "bad job line"),
            ("kernel", "expected '<kind> <fields...>'"),
            (
                "warp rawcaudio tiny paper 3bit byte-serial",
                "unknown source kind 'warp'",
            ),
            (
                "kernel nope tiny paper 3bit byte-serial",
                "unknown workload 'nope'",
            ),
            (
                "kernel rawcaudio huge paper 3bit byte-serial",
                "unknown size 'huge'",
            ),
            (
                "kernel rawcaudio tiny ram 3bit byte-serial",
                "unknown memory profile 'ram'",
            ),
            (
                "kernel rawcaudio tiny paper 9bit byte-serial",
                "unknown scheme '9bit'",
            ),
            (
                "kernel rawcaudio tiny paper 3bit warp-drive",
                "unknown organization 'warp-drive'",
            ),
            ("kernel rawcaudio tiny paper 3bit", "missing organization"),
            (
                "kernel rawcaudio tiny paper 3bit byte-serial extra",
                "trailing fields",
            ),
            (
                "trace xyzzy paper 3bit byte-serial name",
                "malformed digest 'xyzzy'",
            ),
            ("trace 00ff paper 3bit byte-serial", "missing trace name"),
            (
                "trace 00ff paper 3bit byte-serial bad%zz",
                "malformed trace name escape",
            ),
        ] {
            let err = JobSpec::from_wire(line).unwrap_err();
            assert!(err.contains(needle), "{line:?}: {err}");
        }
    }

    #[test]
    fn workload_filter_preserves_suite_order() {
        let spec = SweepSpec::paper(WorkloadSize::Tiny).workloads(&["pgp", "rawcaudio"]);
        let jobs = spec.enumerate();
        assert_eq!(jobs.len(), 2 * 7);
        assert_eq!(jobs[0].workload, "rawcaudio");
        assert!(!spec.is_empty());
    }
}
