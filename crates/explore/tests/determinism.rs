//! The engine's central guarantee: a sweep produces bit-identical merged
//! results for every worker count — and for every process count sharing one
//! result cache — and its cache keys are stable, so cached and
//! freshly-simulated runs are indistinguishable.

use sigcomp::EnergyModel;
use sigcomp_explore::{
    config_points, run_jobs_traced, run_sweep, simulate_decoded, simulate_job, to_csv, to_json,
    JobMetrics, JobSpec, MemProfile, ResultCache, SweepOptions, SweepSpec, SweepSummary,
    TraceInput, TraceSource,
};
use sigcomp_workloads::{find, suite_names, Benchmark, WorkloadSize};
use std::collections::{HashMap, HashSet};

fn small_spec() -> SweepSpec {
    // 2 workloads × 7 organizations × 2 schemes = 28 jobs; Tiny keeps each
    // job to a few thousand instructions.
    SweepSpec::paper(WorkloadSize::Tiny)
        .workloads(&["rawcaudio", "pgp"])
        .schemes(&[sigcomp::ExtScheme::ThreeBit, sigcomp::ExtScheme::Halfword])
}

#[test]
fn parallel_and_serial_sweeps_are_bit_identical() {
    let spec = small_spec();
    let serial = run_sweep(&spec, &SweepOptions::with_workers(1));
    for workers in [2, 4, 7] {
        let parallel = run_sweep(&spec, &SweepOptions::with_workers(workers));

        // Per-job outcomes match one for one, in the same order.
        assert_eq!(serial.outcomes, parallel.outcomes, "{workers} workers");

        // The sharded totals merge to the same integers.
        assert_eq!(
            serial.totals.activity, parallel.totals.activity,
            "{workers} workers"
        );
        assert_eq!(serial.totals.simulated, parallel.totals.simulated);
        assert_eq!(
            serial.totals.instructions_simulated,
            parallel.totals.instructions_simulated
        );

        // And the exported artefacts are byte-identical.
        let model = EnergyModel::default();
        assert_eq!(
            to_csv(&serial.outcomes, &model),
            to_csv(&parallel.outcomes, &model)
        );
        assert_eq!(
            to_json(&serial.outcomes, &model),
            to_json(&parallel.outcomes, &model)
        );
        assert_eq!(
            config_points(&serial.outcomes),
            config_points(&parallel.outcomes)
        );
    }
}

#[test]
fn cache_keys_are_identical_across_worker_counts_and_runs() {
    let spec = small_spec();
    let keys =
        |spec: &SweepSpec| -> Vec<u64> { spec.enumerate().iter().map(JobSpec::job_id).collect() };
    // Enumeration (and therefore the key sequence) does not depend on any
    // execution parameter — recompute a few times and compare.
    let reference = keys(&spec);
    assert_eq!(reference, keys(&spec));
    assert_eq!(reference.len(), 2 * 7 * 2);
    let unique: std::collections::HashSet<_> = reference.iter().collect();
    assert_eq!(unique.len(), reference.len());
}

#[test]
fn trace_file_jobs_are_deterministic_across_workers_and_cache_compatible() {
    // A recorded trace swept as a TraceSource::File axis behaves exactly
    // like a kernel axis: bit-identical across worker counts, and its
    // content-hashed job ids make cache hits indistinguishable from fresh
    // simulation.
    let trace = find("rawcaudio", WorkloadSize::Tiny)
        .unwrap()
        .trace()
        .unwrap();
    let input = TraceInput::from_trace("recorded-rawcaudio", trace).unwrap();
    let spec = SweepSpec::paper(WorkloadSize::Tiny)
        .no_kernels()
        .trace_files(std::slice::from_ref(&input));
    assert_eq!(spec.len(), 7);

    let serial = run_sweep(&spec, &SweepOptions::with_workers(1));
    let parallel = run_sweep(&spec, &SweepOptions::with_workers(4));
    assert_eq!(serial.outcomes, parallel.outcomes);

    // And the file-sourced metrics equal the live kernel's for the same
    // scheme/org/mem (the trace IS that execution).
    let kernel_spec = SweepSpec::paper(WorkloadSize::Tiny).workloads(&["rawcaudio"]);
    let live = run_sweep(&kernel_spec, &SweepOptions::with_workers(1));
    for (file_job, live_job) in serial.outcomes.iter().zip(&live.outcomes) {
        assert_eq!(file_job.spec.org, live_job.spec.org);
        assert_eq!(file_job.metrics, live_job.metrics);
        // Same result, different identity: the cache can never conflate a
        // file job with its kernel twin.
        assert_ne!(file_job.spec.job_id(), live_job.spec.job_id());
    }

    let dir = std::env::temp_dir().join(format!(
        "sigcomp-explore-trace-cache-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cold = run_sweep(
        &spec,
        &SweepOptions::with_workers(2).cache(ResultCache::open(&dir).unwrap()),
    );
    assert_eq!(cold.simulated(), 7);
    let warm = run_sweep(
        &spec,
        &SweepOptions::with_workers(3).cache(ResultCache::open(&dir).unwrap()),
    );
    assert_eq!(warm.cached(), 7);
    for (c, w) in cold.outcomes.iter().zip(&warm.outcomes) {
        assert_eq!(c.metrics, w.metrics);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn racing_executors_share_one_cache_without_tearing_or_duplicates() {
    // Two executors hammering one ResultCache directory concurrently — a
    // running server plus a CLI sweep, or two shard processes of a sharded
    // sweep — must produce: no torn or duplicate entries, and merged
    // summaries bit-identical to an uncached reference run.
    let dir = std::env::temp_dir().join(format!("sigcomp-explore-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let spec = small_spec();
    let reference = run_sweep(&spec, &SweepOptions::with_workers(2));

    let summaries: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|racer| {
                let spec = spec.clone();
                let dir = dir.clone();
                scope.spawn(move || {
                    run_sweep(
                        &spec,
                        &SweepOptions::with_workers(2 + racer)
                            .cache(ResultCache::open(&dir).expect("cache opens")),
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for summary in &summaries {
        // Bit-identical to the uncached run, whatever mix of fresh
        // simulation and concurrent-cache hits each racer saw.
        assert_eq!(summary.outcomes.len(), reference.outcomes.len());
        for (raced, direct) in summary.outcomes.iter().zip(&reference.outcomes) {
            assert_eq!(raced.spec, direct.spec);
            assert_eq!(raced.metrics, direct.metrics);
        }
        assert_eq!(summary.totals.activity, reference.totals.activity);
        // Every job was answered exactly once per racer, one way or the
        // other. (Exports are not compared verbatim here: their from_cache
        // provenance column legitimately depends on which racer published
        // an entry first — every *measured* byte was asserted above.)
        assert_eq!(
            summary.totals.simulated + summary.totals.cached,
            spec.len() as u64
        );
    }

    // The cache holds exactly one entry per distinct job — no duplicates —
    // and no torn temp files leaked from the races.
    let cache = ResultCache::open(&dir).unwrap();
    assert_eq!(cache.len().unwrap(), spec.len());
    let leftovers = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .is_some_and(|x| x == "tmp")
        })
        .count();
    assert_eq!(leftovers, 0, "temp files must not leak");
    // And every entry round-trips to the reference metrics.
    for outcome in &reference.outcomes {
        assert_eq!(
            cache.load(outcome.spec.job_id()),
            Some(outcome.metrics),
            "{}",
            outcome.spec.label()
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn obs_snapshots_merge_order_independently_and_round_trip_the_wire() {
    // The observability merge the sharded backend relies on: whatever order
    // the shard reports arrive in, the folded registry is identical — and
    // the wire form each worker prints re-parses to the exact snapshot.
    let make = |counter: u64, observations: &[u64]| {
        let registry = sigcomp_obs::Registry::new();
        registry.counter("replay.jobs_simulated").add(counter);
        registry.gauge("explore.workers").set_max(counter);
        let hist = registry.histogram("replay.job", sigcomp_obs::DEFAULT_SPAN_BOUNDS_US);
        for &value in observations {
            hist.observe(value);
        }
        registry.snapshot()
    };
    let shards = [
        make(3, &[40, 800, 120_000]),
        make(5, &[75, 75, 2_000_000]),
        make(1, &[999]),
    ];

    let merged = |order: &[usize]| {
        let target = sigcomp_obs::Registry::new();
        for &i in order {
            target.merge_snapshot(&shards[i]).unwrap();
        }
        target.snapshot()
    };
    let reference = merged(&[0, 1, 2]);
    for order in [[1, 2, 0], [2, 1, 0], [0, 2, 1]] {
        assert_eq!(reference, merged(&order), "merge order {order:?}");
    }
    assert_eq!(reference.counter("replay.jobs_simulated"), 9);
    assert_eq!(
        reference.gauges["explore.workers"], 5,
        "gauges merge by max"
    );

    // Wire round-trip, exactly as the worker protocol carries it.
    let wire = reference.to_wire();
    let reparsed = sigcomp_obs::Snapshot::from_wire(&wire).unwrap();
    assert_eq!(reference, reparsed);
    assert_eq!(wire, reparsed.to_wire());
}

#[test]
fn shard_registries_fold_to_the_single_process_registry() {
    // Splitting one run's observations across shard registries and merging
    // the snapshots must be indistinguishable from recording everything in
    // one process — the invariant behind `sweep --shards` obs totals.
    let observations: Vec<u64> = (0..28).map(|i| 50 + i * 37).collect();

    let single = sigcomp_obs::Registry::new();
    let hist = single.histogram("replay.job", sigcomp_obs::DEFAULT_SPAN_BOUNDS_US);
    for &value in &observations {
        single.counter("replay.jobs_simulated").incr();
        hist.observe(value);
    }

    let folded = sigcomp_obs::Registry::new();
    for shard in 0..3 {
        let registry = sigcomp_obs::Registry::new();
        let hist = registry.histogram("replay.job", sigcomp_obs::DEFAULT_SPAN_BOUNDS_US);
        for (i, &value) in observations.iter().enumerate() {
            if i % 3 == shard {
                registry.counter("replay.jobs_simulated").incr();
                hist.observe(value);
            }
        }
        folded.merge_snapshot(&registry.snapshot()).unwrap();
    }
    assert_eq!(single.snapshot(), folded.snapshot());

    // Quantiles are computed on the snapshot, so they agree too.
    let s = single.snapshot().histograms["replay.job"].clone();
    let f = folded.snapshot().histograms["replay.job"].clone();
    for q in [0.5, 0.95, 0.99] {
        assert_eq!(s.quantile(q).to_bits(), f.quantile(q).to_bits());
    }
}

#[test]
fn second_run_hits_the_cache_with_identical_results() {
    let dir = std::env::temp_dir().join(format!(
        "sigcomp-explore-determinism-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let spec = SweepSpec::paper(WorkloadSize::Tiny)
        .workloads(&["rawdaudio"])
        .mems(&[MemProfile::Paper, MemProfile::SlowMemory]);

    let cold = run_sweep(
        &spec,
        &SweepOptions::with_workers(2).cache(ResultCache::open(&dir).unwrap()),
    );
    assert_eq!(cold.simulated(), spec.len() as u64);
    assert_eq!(cold.cached(), 0);

    let warm = run_sweep(
        &spec,
        &SweepOptions::with_workers(3).cache(ResultCache::open(&dir).unwrap()),
    );
    assert_eq!(warm.simulated(), 0);
    assert_eq!(warm.cached(), spec.len() as u64);

    // Cache-restored outcomes are bit-identical to the simulated ones apart
    // from their provenance flag.
    for (c, w) in cold.outcomes.iter().zip(&warm.outcomes) {
        assert_eq!(c.spec, w.spec);
        assert_eq!(c.metrics, w.metrics);
        assert!(!c.from_cache);
        assert!(w.from_cache);
    }

    // A widened sweep only simulates the new configurations.
    let wider = spec.mems(&[
        MemProfile::Paper,
        MemProfile::SlowMemory,
        MemProfile::SmallL1,
    ]);
    let mixed = run_sweep(
        &wider,
        &SweepOptions::with_workers(2).cache(ResultCache::open(&dir).unwrap()),
    );
    assert_eq!(mixed.cached(), 2 * 7);
    assert_eq!(mixed.simulated(), 7);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The fused-replay differential's design space: tiny kernels × every scheme
/// × every organization × every memory profile, plus one recorded trace over
/// the same axes. Debug builds sweep one kernel to keep the tier-1 run
/// short; the release run covers the whole suite.
fn fused_space() -> (Vec<JobSpec>, Vec<TraceInput>) {
    let kernels: &[&str] = if cfg!(debug_assertions) {
        &["rawcaudio"]
    } else {
        suite_names()
    };
    let recorded = find("gsmencode", WorkloadSize::Tiny)
        .unwrap()
        .trace()
        .unwrap();
    let trace = TraceInput::from_trace("recorded-gsmencode", recorded).unwrap();
    let spec = SweepSpec::full(WorkloadSize::Tiny)
        .workloads(kernels)
        .mems(MemProfile::ALL)
        .trace_files(std::slice::from_ref(&trace));
    (spec.enumerate(), spec.trace_inputs().to_vec())
}

/// Every job simulated alone through the one-job entry points.
fn one_at_a_time(jobs: &[JobSpec], traces: &[TraceInput]) -> Vec<JobMetrics> {
    let mut kernels: HashMap<(&str, WorkloadSize), Benchmark> = HashMap::new();
    jobs.iter()
        .map(|job| match job.source {
            TraceSource::Kernel => {
                let kernel = kernels
                    .entry((job.workload, job.size))
                    .or_insert_with(|| find(job.workload, job.size).unwrap());
                simulate_job(job, kernel)
            }
            TraceSource::File { digest } => {
                let input = traces.iter().find(|t| t.digest() == digest).unwrap();
                simulate_decoded(job, input.decoded())
            }
        })
        .collect()
}

fn assert_job_order_identity(
    summary: &SweepSummary,
    jobs: &[JobSpec],
    reference: &[JobMetrics],
    what: &str,
) {
    assert_eq!(summary.outcomes.len(), jobs.len(), "{what}");
    for ((outcome, job), metrics) in summary.outcomes.iter().zip(jobs).zip(reference) {
        assert_eq!(outcome.spec, *job, "{what}");
        assert_eq!(outcome.metrics, *metrics, "{what}: {}", job.label());
    }
    // Worker loads count jobs, however they were grouped into passes.
    let loads: u64 = summary.worker_loads.iter().map(|&(jobs, _)| jobs).sum();
    assert_eq!(loads, jobs.len() as u64, "{what}");
}

/// [`fused_space`] and its one-at-a-time reference, computed once and
/// shared by the differential tests.
fn fused_reference() -> &'static (Vec<JobSpec>, Vec<TraceInput>, Vec<JobMetrics>) {
    static REFERENCE: std::sync::OnceLock<(Vec<JobSpec>, Vec<TraceInput>, Vec<JobMetrics>)> =
        std::sync::OnceLock::new();
    REFERENCE.get_or_init(|| {
        let (jobs, traces) = fused_space();
        let reference = one_at_a_time(&jobs, &traces);
        (jobs, traces, reference)
    })
}

#[test]
fn fused_replay_equals_one_job_at_a_time() {
    let (jobs, traces, reference) = fused_reference();
    for workers in [1, 2, 5] {
        let summary = run_jobs_traced(jobs, traces, &SweepOptions::with_workers(workers));
        assert_job_order_identity(&summary, jobs, reference, &format!("{workers} workers"));
        assert_eq!(summary.simulated(), jobs.len() as u64);
    }
}

#[test]
fn fused_replay_answers_duplicates_and_single_member_passes() {
    let (all, traces, _) = fused_reference();
    // One organization per (stream, scheme, memory) block: every pass has a
    // single member. Then the same spec three times in one pass, and a
    // second pass holding a duplicate, interleaved with the singles.
    let mut jobs: Vec<JobSpec> = all
        .chunks(7)
        .enumerate()
        .map(|(block, orgs)| orgs[block % 7])
        .collect();
    for (at, pick) in [(0, 0), (5, 3), (9, 0), (13, 0), (17, 6), (21, 8), (25, 8)] {
        jobs.insert(at, all[pick]);
    }
    let reference = one_at_a_time(&jobs, traces);
    let distinct = jobs
        .iter()
        .map(JobSpec::job_id)
        .collect::<HashSet<_>>()
        .len() as u64;
    for workers in [1, 2, 5] {
        let summary = run_jobs_traced(&jobs, traces, &SweepOptions::with_workers(workers));
        assert_job_order_identity(&summary, &jobs, &reference, &format!("{workers} workers"));
        // Without a cache every copy is simulated.
        assert_eq!(summary.simulated(), jobs.len() as u64);
        assert_eq!(summary.cached(), 0);

        // With one, each distinct spec is simulated once and its later
        // copies are answered from the cache.
        let dir = std::env::temp_dir().join(format!(
            "sigcomp-explore-duplicates-{}-{workers}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cached = run_jobs_traced(
            &jobs,
            traces,
            &SweepOptions::with_workers(workers).cache(ResultCache::open(&dir).unwrap()),
        );
        assert_job_order_identity(&cached, &jobs, &reference, &format!("cached, {workers}"));
        assert_eq!(cached.simulated(), distinct, "{workers} workers");
        assert_eq!(
            cached.cached(),
            jobs.len() as u64 - distinct,
            "{workers} workers"
        );
        let mut seen = HashSet::new();
        for outcome in &cached.outcomes {
            let first = seen.insert(outcome.spec.job_id());
            assert_eq!(outcome.from_cache, !first, "{}", outcome.spec.label());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    // A lone pass (with a duplicate) runs on one worker, however many are
    // offered.
    let lone: Vec<JobSpec> = all[..7].iter().chain(&all[..1]).copied().collect();
    let reference = one_at_a_time(&lone, traces);
    for workers in [1, 2, 5] {
        let summary = run_jobs_traced(&lone, traces, &SweepOptions::with_workers(workers));
        assert_job_order_identity(&summary, &lone, &reference, &format!("lone, {workers}"));
        assert_eq!(summary.workers, 1);
    }
}

#[test]
fn fused_replay_over_a_half_warm_cache() {
    let (jobs, traces, reference) = fused_reference();
    // Every third job is warm, so each pass mixes hits and misses.
    let warm: Vec<JobSpec> = jobs.iter().step_by(3).copied().collect();
    for workers in [1, 2, 5] {
        let dir = std::env::temp_dir().join(format!(
            "sigcomp-explore-half-warm-{}-{workers}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let options =
            || SweepOptions::with_workers(workers).cache(ResultCache::open(&dir).unwrap());
        let primed = run_jobs_traced(&warm, traces, &options());
        assert_eq!(primed.simulated(), warm.len() as u64);
        let summary = run_jobs_traced(jobs, traces, &options());
        assert_job_order_identity(&summary, jobs, reference, &format!("{workers} workers"));
        for (i, outcome) in summary.outcomes.iter().enumerate() {
            assert_eq!(outcome.from_cache, i % 3 == 0, "{}", outcome.spec.label());
        }
        assert_eq!(summary.cached(), warm.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
