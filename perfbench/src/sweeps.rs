//! The two sweep workloads: kernel-sweep and trace-sweep.
//!
//! Each run sets up its inputs several times (the median is `setup_s`), then
//! repeats rounds of a cold pass (fresh cache: every job simulated, then
//! exported) and warm re-runs (every job answered from the cache).

use crate::check;
use crate::util::{median, secs, shuffle, timed, Report};
use crate::Ctx;
use sigcomp::ProcessNode;
use sigcomp_explore::{
    config_points, pareto_frontier, simulate_trace, to_csv, to_json, try_run_jobs_traced,
    JobOutcome, JobSpec, MemProfile, ResultCache, SweepOptions, SweepSpec, SweepSummary,
    TraceInput, TraceSource,
};
use sigcomp_isa::{tracefile::TraceWriter, Trace};
use sigcomp_workloads::{find, suite_names, SynthConfig, TraceSynthesizer, WorkloadSize};
use std::collections::HashMap;
use std::time::Instant;

/// The jobs one workload sweeps and the traces they replay.
pub struct Space {
    pub name: &'static str,
    /// In seeded submission order.
    pub jobs: Vec<JobSpec>,
    pub traces: Vec<TraceInput>,
    /// Digests of seeded synthetic traces: their rows change with the seed,
    /// so the export digest leaves them out (they are checked against a
    /// streaming replay instead).
    pub seeded: Vec<u64>,
}

/// Exports exactly what `repro sweep --csv --json` writes, sorted by job id,
/// plus the Pareto frontier.
pub fn export(outcomes: &[JobOutcome]) -> (String, String, usize) {
    let mut sorted = outcomes.to_vec();
    sorted.sort_by_key(|o| o.spec.job_id());
    let model = ProcessNode::Paper180nm.model();
    let csv = to_csv(&sorted, &model);
    let json = to_json(&sorted, &model);
    let frontier = pareto_frontier(&config_points(&sorted), &model).len();
    (csv, json, frontier)
}

/// Figures of one cold pass and its warm re-runs.
pub struct Pass {
    pub cold_s: f64,
    pub reruns_s: Vec<f64>,
    pub inst_per_s: f64,
    pub cold: SweepSummary,
}

/// Warm re-runs per cold pass; `rerun_s` is the median re-run of the whole
/// run. A re-run is short, so one sample per pass would be mostly noise.
const RERUNS: usize = 5;

/// One cold pass over a fresh cache on the local thread pool, then `RERUNS`
/// warm re-runs over it, each exported and checked. `None` when the sweep
/// failed (already counted).
pub fn pass(ctx: &mut Ctx, report: &mut Report, space: &Space) -> Option<Pass> {
    let cache = ResultCache::open(ctx.work.fresh("cache")).expect("opening a throwaway cache");
    let opts = SweepOptions::with_workers(ctx.nproc).cache(cache);
    let n = space.jobs.len() as u64;
    let mut cold = None;
    let mut reruns = Vec::new();
    for k in 0..=RERUNS {
        let label = if k == 0 { "cold" } else { "rerun" };
        let start = Instant::now();
        let summary = match try_run_jobs_traced(&space.jobs, &space.traces, &opts) {
            Ok(summary) => summary,
            Err(e) => {
                report.tally(n, n, || format!("{} {label} pass failed: {e}", space.name));
                return None;
            }
        };
        let (csv, json, frontier) = export(&summary.outcomes);
        let elapsed = secs(start.elapsed());
        std::hint::black_box(frontier);
        let expect_cached = if k == 0 { 0 } else { n };
        report.tally(n, summary.cached().abs_diff(expect_cached), || {
            format!(
                "{} {label} pass: {} of {n} jobs from cache, expected {expect_cached}",
                space.name,
                summary.cached()
            )
        });
        digest_exports(ctx, report, space, label, &summary.outcomes, &csv, &json);
        if k == 0 {
            cold = Some((elapsed, summary));
        } else {
            reruns.push(elapsed);
        }
    }
    let (cold_s, cold) = cold.expect("the cold pass ran first");
    Some(Pass {
        cold_s,
        reruns_s: reruns,
        inst_per_s: cold.totals.instructions_simulated as f64 / cold_s,
        cold,
    })
}

fn digest_exports(
    ctx: &mut Ctx,
    report: &mut Report,
    space: &Space,
    label: &str,
    outcomes: &[JobOutcome],
    csv: &str,
    json: &str,
) {
    let (csv, json) = if space.seeded.is_empty() {
        (csv.to_owned(), json.to_owned())
    } else {
        let stable: Vec<JobOutcome> = outcomes
            .iter()
            .filter(|o| !matches!(o.spec.source, TraceSource::File { digest } if space.seeded.contains(&digest)))
            .cloned()
            .collect();
        let (csv, json, _) = export(&stable);
        (csv, json)
    };
    for (ext, text) in [("csv", csv), ("json", json)] {
        let key = format!("{}/{}/{label}.{ext}", space.name, ctx.scope());
        let problem = ctx.digests.check(&key, &text);
        report.check(problem.is_none(), || problem.unwrap_or_default());
    }
}

/// Alternates cold/warm passes until `seconds` have gone (at least two), so
/// every figure is a median over samples spread across the whole run.
/// `between` runs before each pass.
fn rounds(
    ctx: &mut Ctx,
    report: &mut Report,
    space: &Space,
    seconds: f64,
    mut between: impl FnMut(),
) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        between();
        let Some(p) = pass(ctx, report, space) else {
            break;
        };
        passes.push(p);
    }
    passes
}

fn emit(report: &mut Report, setup: &[f64], done: &[Pass]) {
    let pick = |f: fn(&Pass) -> f64| median(&done.iter().map(f).collect::<Vec<_>>());
    report.metric("setup_s", median(setup), "s");
    report.metric("sweep_s", pick(|p| p.cold_s), "s");
    let reruns: Vec<f64> = done
        .iter()
        .flat_map(|p| p.reruns_s.iter().copied())
        .collect();
    report.metric("rerun_s", median(&reruns), "s");
    report.metric("sim_inst_per_s", pick(|p| p.inst_per_s), "1/s");
    report.note(format!(
        "rounds: {} (cold s: {})",
        done.len(),
        done.iter()
            .map(|p| format!("{:.3}", p.cold_s))
            .collect::<Vec<_>>()
            .join(" "),
    ));
}

/// The kernels a smoke run uses in place of the whole suite.
pub const SMOKE_KERNELS: [&str; 2] = ["rawcaudio", "pgp"];

/// The size the workload's kernels run at (smoke: tiny).
pub fn kernel_size(ctx: &Ctx) -> WorkloadSize {
    if ctx.smoke {
        WorkloadSize::Tiny
    } else {
        WorkloadSize::Default
    }
}

/// Every kernel × organization × scheme on the paper hierarchy (smoke: two
/// kernels at tiny size), in enumeration order.
pub fn kernel_spec(ctx: &Ctx) -> SweepSpec {
    let spec = SweepSpec::full(kernel_size(ctx)).mems(&[MemProfile::Paper]);
    if ctx.smoke {
        spec.workloads(&SMOKE_KERNELS)
    } else {
        spec
    }
}

/// The kernel space in seeded submission order.
pub fn kernel_space(ctx: &mut Ctx) -> Space {
    let mut jobs = kernel_spec(ctx).enumerate();
    shuffle(&mut jobs, &mut ctx.rng);
    Space {
        name: "kernel-sweep",
        jobs,
        traces: Vec::new(),
        seeded: Vec::new(),
    }
}

pub fn kernel_names(ctx: &Ctx) -> Vec<&'static str> {
    if ctx.smoke {
        SMOKE_KERNELS.to_vec()
    } else {
        suite_names().to_vec()
    }
}

/// Suite assemblies per set-up sample, and samples per round: one assembly
/// of the suite takes well under a millisecond, so a sample times several
/// and `setup_s` is the median sample of the run over the batch size.
const SETUP_BATCH: usize = 20;
const SETUP_SAMPLES: usize = 5;

pub fn kernel_sweep(ctx: &mut Ctx, report: &mut Report) {
    let size = kernel_size(ctx);
    let names = kernel_names(ctx);
    // Set-up is kernel assembly, sampled every round; the sweep assembles
    // again per job, so this only times the step.
    let mut setup = Vec::new();
    let sample = || {
        let ((), t) = timed(|| {
            for _ in 0..SETUP_BATCH {
                for n in &names {
                    std::hint::black_box(find(n, size).expect("suite kernel"));
                }
            }
        });
        secs(t) / SETUP_BATCH as f64
    };
    let space = kernel_space(ctx);
    let seconds = ctx.seconds;
    let done = rounds(ctx, report, &space, seconds, || {
        setup.extend((0..SETUP_SAMPLES).map(|_| sample()));
    });
    emit(report, &setup, &done);
    report.metric("peak_rss_mb", crate::util::peak_rss_mb(), "MiB");
}

/// A kernel's live execution as `.sctrace` bytes.
pub fn record(name: &str, size: WorkloadSize) -> Vec<u8> {
    let trace = find(name, size)
        .expect("suite kernel")
        .trace()
        .expect("suite kernels run to completion");
    let mut writer = TraceWriter::new();
    writer.set_meta("source", name);
    for rec in &trace {
        writer.push(rec).expect("kernel records encode");
    }
    let mut bytes = Vec::new();
    writer.finish(&mut bytes).expect("in-memory write");
    bytes
}

/// The golden corpus members, read from the checked-in `tests/data`.
pub const GOLDEN: &[&str] = &["rawcaudio", "rawdaudio", "gsmencode", "pgp"];

/// Trace-sweep inputs: recorded kernel traces, seeded synthetic traces and
/// the golden corpus, all decoded once into arenas.
pub struct TraceInputs {
    pub inputs: Vec<TraceInput>,
    pub synth: Vec<Trace>,
    pub golden: Vec<(String, u64)>,
}

pub fn trace_inputs(ctx: &mut Ctx) -> TraceInputs {
    let size = kernel_size(ctx);
    let dir = ctx.work.fresh("traces");
    let mut inputs = Vec::new();
    for name in kernel_names(ctx) {
        let path = dir.join(format!("{name}.{}.sctrace", size.name()));
        std::fs::write(&path, record(name, size))
            .expect("writing a recorded trace into the checkout");
        inputs.push(TraceInput::load(&path).expect("a freshly recorded trace decodes"));
    }
    let records = if ctx.smoke { 4_000 } else { 60_000 };
    let mut synth = Vec::new();
    for i in 0..2u64 {
        let mut config = SynthConfig::paper(records);
        config.seed = ctx.seed ^ (0x5eed_0000 + i);
        let trace = TraceSynthesizer::new(config).generate();
        let name: &'static str = if i == 0 { "synth-0" } else { "synth-1" };
        inputs.push(TraceInput::from_trace(name, trace.clone()).expect("synthetic traces encode"));
        synth.push(trace);
    }
    let mut golden = Vec::new();
    for name in GOLDEN {
        let path = ctx.data_dir.join(format!("{name}.sctrace"));
        let input = TraceInput::load(&path)
            .unwrap_or_else(|e| panic!("cannot load {}: {e}", path.display()));
        golden.push(((*name).to_owned(), input.digest()));
        inputs.push(input);
    }
    TraceInputs {
        inputs,
        synth,
        golden,
    }
}

pub fn trace_space(ctx: &mut Ctx, inputs: &TraceInputs) -> Space {
    let spec = SweepSpec::full(WorkloadSize::Tiny)
        .mems(&[MemProfile::Paper])
        .no_kernels()
        .trace_files(&inputs.inputs);
    let mut jobs = spec.enumerate();
    shuffle(&mut jobs, &mut ctx.rng);
    let seeded = inputs
        .inputs
        .iter()
        .filter(|t| t.name().starts_with("synth-"))
        .map(TraceInput::digest)
        .collect();
    Space {
        name: "trace-sweep",
        jobs,
        traces: spec.trace_inputs().to_vec(),
        seeded,
    }
}

pub fn trace_sweep(ctx: &mut Ctx, report: &mut Report) {
    let mut setup = Vec::new();
    let mut inputs = None;
    for _ in 0..3 {
        let (made, t) = timed(|| trace_inputs(ctx));
        setup.push(secs(t));
        inputs = Some(made);
    }
    let inputs = inputs.expect("set up at least once");
    let space = trace_space(ctx, &inputs);
    let seconds = ctx.seconds;
    let done = rounds(ctx, report, &space, seconds, || {});
    if let Some(first) = done.first() {
        check_trace_outcomes(ctx, report, &space, &inputs, &first.cold.outcomes);
    }
    emit(report, &setup, &done);
    report.metric("peak_rss_mb", crate::util::peak_rss_mb(), "MiB");
}

/// Golden-corpus jobs against `tests/data`, synthetic jobs against a
/// streaming (non-arena) replay of the same trace.
fn check_trace_outcomes(
    ctx: &Ctx,
    report: &mut Report,
    space: &Space,
    inputs: &TraceInputs,
    outcomes: &[JobOutcome],
) {
    match check::golden(outcomes, &inputs.golden, &ctx.data_dir) {
        Ok((checked, problems)) => {
            report.tally(checked, problems.len() as u64, || problems.join("; "));
        }
        Err(e) => report.tally(1, 1, || e),
    }
    let by_digest: HashMap<u64, &Trace> = inputs
        .inputs
        .iter()
        .filter(|t| space.seeded.contains(&t.digest()))
        .map(TraceInput::digest)
        .zip(&inputs.synth)
        .collect();
    for o in outcomes {
        if let TraceSource::File { digest } = o.spec.source {
            if let Some(trace) = by_digest.get(&digest) {
                let ok = simulate_trace(&o.spec, trace) == o.metrics;
                report.check(ok, || {
                    format!(
                        "{}: arena replay differs from streaming replay",
                        o.spec.label()
                    )
                });
            }
        }
    }
}
