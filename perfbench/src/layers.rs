//! The traced run (`--trace 1`): per-layer metrics over the workload's own
//! inputs.
//!
//! Every call the benchmark makes into a layer's public function runs inside
//! a span of the layer's name. Per-record work is driven staged over a
//! buffered job — drain the arena, then `instr_cost`, then the pipeline,
//! then the analyzer, one span per stage per job — and checked against the
//! fused `simulate_decoded` of the same job. The workload's own pass is timed
//! untraced and then traced, which gives the tracing overhead. Spans and the
//! self-time table are written to `.perfbench_out/` when the run ends.

use crate::serve_mix;
use crate::spans::Recorder;
use crate::sweeps::{self, Space};
use crate::util::{median, nproc, quantile, Report};
use crate::Ctx;
use sigcomp::{instr_cost, ActivityReport, InstrCost, ProcessNode, StageActivity, TraceAnalyzer};
use sigcomp_explore::{
    encode_entry, simulate_decoded, try_run_jobs, ExecBackend, FleetConfig, JobMetrics, JobSpec,
    MemProfile, ResultCache, SweepSpec, TraceSource,
};
use sigcomp_isa::tracefile::TraceReader;
use sigcomp_isa::{DecodedTrace, ExecRecord};
use sigcomp_mem::{AccessKind, MemoryHierarchy};
use sigcomp_pipeline::{Organization, PipelineSim, SimResult, Stage};
use sigcomp_serve::{
    api, BatchConfig, BatchedResult, Batcher, Json, RequestParser, ServeConfig, Server,
    ServerHandle, ServerMetrics,
};
use sigcomp_workloads::{find, SynthConfig, TraceSynthesizer, WorkloadSize};
use std::collections::HashMap;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn counter(name: &str) -> u64 {
    sigcomp_obs::global().snapshot().counter(name)
}

/// A `Write` sink the obs JSONL stream can be attached to and read back.
#[derive(Clone, Default)]
struct Captured(Arc<Mutex<Vec<u8>>>);

impl Write for Captured {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("capture buffer")
            .extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Captured {
    fn len(&self) -> usize {
        self.0.lock().expect("capture buffer").len()
    }

    /// `dur_us` of the first `n` `replay.job` events written after `from`.
    fn job_ms(&self, from: usize, n: usize) -> Vec<f64> {
        let bytes = self.0.lock().expect("capture buffer");
        String::from_utf8_lossy(&bytes[from.min(bytes.len())..])
            .lines()
            .filter(|l| l.contains("\"span\": \"replay.job\""))
            .filter_map(|l| Json::parse(l).ok()?.get("dur_us")?.as_f64())
            .take(n)
            .map(|us| us / 1e3)
            .collect()
    }
}

/// The job metrics of one job assembled from separately driven stages.
fn gated(mut activity: ActivityReport, org: &Organization, result: &SimResult) -> ActivityReport {
    fn column(a: &mut ActivityReport, stage: Stage) -> &mut StageActivity {
        match stage {
            Stage::Fetch => &mut a.fetch,
            Stage::RegRead => &mut a.rf_read,
            Stage::Execute | Stage::ExecuteHi => &mut a.alu,
            Stage::Memory | Stage::MemoryHi => &mut a.dcache_data,
            Stage::Writeback => &mut a.rf_write,
        }
    }
    for &stage in org.stages() {
        let c = column(&mut activity, stage);
        c.gated_byte_cycles = 0;
        c.total_byte_cycles = 0;
    }
    for (s, &stage) in org.stages().iter().enumerate() {
        column(&mut activity, stage)
            .add_gating(result.gated_byte_cycles[s], result.total_byte_cycles[s]);
    }
    activity
}

/// Stage totals over every job, in nanoseconds.
#[derive(Default)]
struct Staged {
    records: u64,
    iter_ns: u64,
    cost_ns: u64,
    pipeline_ns: u64,
    analyzer_ns: u64,
    fused_ns: u64,
}

fn staged_job(
    rec: &Recorder,
    spec: &JobSpec,
    arena: &DecodedTrace,
    totals: &mut Staged,
) -> (JobMetrics, JobMetrics) {
    let _job = rec.span("explore.job");
    let config = spec.analyzer_config();
    let org = spec.organization();
    let (records, t) = rec.time("isa.arena_iter", || {
        arena.iter().collect::<Vec<ExecRecord>>()
    });
    totals.iter_ns += t;
    let (costs, t) = rec.time("core.instr_cost", || {
        records
            .iter()
            .map(|r| instr_cost(r, config.scheme, &config.recoder))
            .collect::<Vec<InstrCost>>()
    });
    totals.cost_ns += t;
    let (result, t) = rec.time("pipeline.observe", || {
        let mut sim =
            PipelineSim::with_config(org.clone(), &spec.mem.hierarchy(), config.recoder.clone());
        for (r, c) in records.iter().zip(&costs) {
            sim.observe_with_cost(r, c);
        }
        sim.finish()
    });
    totals.pipeline_ns += t;
    let (activity, t) = rec.time("core.analyzer", || {
        let mut analyzer = TraceAnalyzer::new(config.clone());
        for (r, c) in records.iter().zip(&costs) {
            analyzer.observe_with_cost(r, c);
        }
        analyzer.report()
    });
    totals.analyzer_ns += t;
    totals.records += records.len() as u64;
    let staged = JobMetrics {
        instructions: result.instructions,
        cycles: result.cycles,
        branches: result.branches,
        stall_structural: result.stalls.structural.iter().sum(),
        stall_data_hazard: result.stalls.data_hazard,
        stall_control: result.stalls.control,
        activity: gated(activity, &org, &result),
    };
    let (fused, t) = rec.time("explore.simulate_decoded", || simulate_decoded(spec, arena));
    totals.fused_ns += t;
    (staged, fused)
}

pub fn run(ctx: &mut Ctx, report: &mut Report, workload: &str) {
    let rec = Recorder::new(ctx.seed);
    let fleet_before = (
        counter("fleet.frontier.dispatches"),
        counter("fleet.frontier.retries"),
        counter("fleet.frontier.workers_lost"),
    );

    // obs: one span with the sink detached (no sink is attached yet).
    let probes = 200_000u64;
    let ((), t) = rec.time("obs.span_probe", || {
        for _ in 0..probes {
            let _s = sigcomp_obs::span!("perfbench.probe");
        }
    });
    let span_ns = t as f64 / probes as f64;

    // Inputs: the workload's kernels (assembled, run, recorded, decoded).
    let size = sweeps::kernel_size(ctx);
    let names: Vec<&'static str> = sweeps::kernel_names(ctx);
    let mut build_ms = Vec::new();
    let (mut interp_ns, mut interp_insts) = (0u64, 0u64);
    let (mut decode_ns, mut decode_recs) = (0u64, 0u64);
    let mut arenas: HashMap<&'static str, Arc<DecodedTrace>> = HashMap::new();
    for &name in &names {
        let (bench, t) = rec.time("workloads.find", || find(name, size).expect("suite kernel"));
        build_ms.push(t as f64 / 1e6);
        let mut count = 0u64;
        let (ran, t) = rec.time("isa.run_each", || bench.run_each(|_| count += 1));
        report.check(ran.is_ok(), || format!("kernel {name} failed to run"));
        interp_ns += t;
        interp_insts += count;
        let bytes = sweeps::record(name, size);
        let (arena, t) = rec.time("isa.decode", || {
            TraceReader::new(std::io::Cursor::new(bytes)).and_then(DecodedTrace::from_reader)
        });
        let arena = arena.expect("a freshly recorded trace decodes");
        decode_ns += t;
        decode_recs += arena.len() as u64;
        arenas.insert(name, Arc::new(arena));
    }
    let synth_recs = if ctx.smoke { 4_000 } else { 100_000 };
    let (_, t) = rec.time("workloads.synth", || {
        let mut config = SynthConfig::paper(synth_recs);
        config.seed = ctx.seed;
        TraceSynthesizer::new(config).generate()
    });
    let synth_ns = t as f64 / synth_recs as f64;

    // The workload's jobs and the arena each replays.
    let trace_inputs = (workload == "trace-sweep").then(|| sweeps::trace_inputs(ctx));
    let space: Space = match &trace_inputs {
        Some(inputs) => sweeps::trace_space(ctx, inputs),
        None => sweeps::kernel_space(ctx),
    };
    let by_digest: HashMap<u64, Arc<DecodedTrace>> = space
        .traces
        .iter()
        .map(|t| (t.digest(), Arc::clone(t.decoded())))
        .collect();
    let arena_of = |job: &JobSpec| -> Arc<DecodedTrace> {
        match job.source {
            TraceSource::Kernel => Arc::clone(&arenas[job.workload]),
            TraceSource::File { digest } => Arc::clone(&by_digest[&digest]),
        }
    };

    // Per-record stages, staged against fused, for every job.
    let mut staged = Staged::default();
    let mut metrics_of: Vec<(JobSpec, JobMetrics)> = Vec::new();
    for job in &space.jobs {
        let (s, f) = staged_job(&rec, job, &arena_of(job), &mut staged);
        report.check(s == f, || {
            format!(
                "{}: staged replay differs from simulate_decoded",
                job.label()
            )
        });
        metrics_of.push((*job, f));
    }

    // mem: the recorded address streams through the paper hierarchy.
    let mut hierarchy = MemoryHierarchy::new(&MemProfile::Paper.hierarchy());
    let mut streams: Vec<Arc<DecodedTrace>> = arenas.values().cloned().collect();
    streams.extend(by_digest.values().cloned());
    let mut accesses = 0u64;
    let ((), mem_ns) = rec.time("mem.access", || {
        for arena in &streams {
            for r in arena.iter() {
                std::hint::black_box(hierarchy.fetch_instruction(r.pc));
                accesses += 1;
                if let Some(m) = r.mem {
                    let kind = if m.is_store {
                        AccessKind::Store
                    } else {
                        AccessKind::Load
                    };
                    std::hint::black_box(hierarchy.data_access(m.addr, kind));
                    accesses += 1;
                }
            }
        }
    });
    let mem_stats = hierarchy.stats();

    // explore: the workload's own pass untraced, then traced.
    let captured = Captured::default();
    let sweep_body = serve_mix::sweep_body(ctx);
    let kernel = (workload == "serve-mix").then(|| serve_mix::kernel_configs(ctx));
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut job_ms = Vec::new();
    let mut busy = Vec::new();
    let mut steals = 0u64;
    let mut export_ms = Vec::new();
    // Three untraced passes, then three with the obs event sink attached
    // (it cannot be detached again).
    for round in 0..6 {
        let tracing = round >= 3;
        if round == 3 {
            sigcomp_obs::global().set_jsonl_writer(Box::new(captured.clone()));
        }
        let from = captured.len();
        let span = tracing.then(|| rec.span("explore.pass"));
        let Some(p) = workload_pass(ctx, report, &space, &sweep_body, kernel.as_ref()) else {
            break;
        };
        drop(span);
        if tracing {
            traced.push(p.cold_s);
            let jobs = captured.job_ms(from, space.jobs.len());
            busy.push(jobs.iter().sum::<f64>() / 1e3 / (nproc() as f64 * p.cold_s));
            job_ms.extend(jobs);
            steals += p.steals;
            if let Some(outcomes) = p.outcomes {
                let (_, t) = rec.time("explore.export", || sweeps::export(&outcomes));
                export_ms.push(t as f64 / 1e6);
            }
        } else {
            untraced.push(p.cold_s);
        }
    }
    if export_ms.is_empty() {
        let outcomes: Vec<sigcomp_explore::JobOutcome> = metrics_of
            .iter()
            .map(|&(spec, metrics)| sigcomp_explore::JobOutcome {
                spec,
                metrics,
                from_cache: false,
            })
            .collect();
        let (_, t) = rec.time("explore.export", || sweeps::export(&outcomes));
        export_ms.push(t as f64 / 1e6);
    }
    let overhead = median(&traced) / median(&untraced);

    // explore: the result cache over this workload's results.
    let cache =
        ResultCache::open(ctx.work.fresh("layer-cache")).expect("opening a throwaway cache");
    let ((), store_ns) = rec.time("explore.cache_store", || {
        for (spec, m) in &metrics_of {
            let _ = cache.store(spec.job_id(), m);
        }
    });
    let (loaded, load_ns) = rec.time("explore.cache_load", || {
        metrics_of
            .iter()
            .filter(|(spec, m)| cache.load(spec.job_id()) == Some(*m))
            .count()
    });
    report.tally(
        metrics_of.len() as u64,
        (metrics_of.len() - loaded) as u64,
        || "cache round trip lost entries".to_owned(),
    );
    let n_jobs = metrics_of.len().max(1) as f64;

    // serve: the front door's stages over requests for this workload's
    // configurations (trace jobs have no request form: tiny kernels stand in).
    let requests: Vec<(JobSpec, JobMetrics)> = if workload == "trace-sweep" {
        let specs = SweepSpec::full(WorkloadSize::Tiny)
            .mems(&[MemProfile::Paper])
            .enumerate();
        specs
            .into_iter()
            .zip(metrics_of.iter().map(|m| m.1).cycle())
            .collect()
    } else {
        metrics_of.clone()
    };
    let bodies: Vec<String> = requests.iter().map(|(s, _)| serve_mix::body(s)).collect();
    let wire: Vec<u8> = bodies
        .iter()
        .flat_map(|b| {
            format!(
                "POST /simulate HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{b}",
                b.len()
            )
            .into_bytes()
        })
        .collect();
    let (parsed, parse_ns) = rec.time("serve.parse", || {
        let mut parser = RequestParser::new();
        parser.push(&wire);
        let mut n = 0;
        while let Ok(Some(req)) = parser.next_request() {
            std::hint::black_box(req);
            n += 1;
        }
        n
    });
    report.check(parsed == bodies.len(), || {
        format!("RequestParser read {parsed} of {} requests", bodies.len())
    });
    let (decoded, json_ns) = rec.time("serve.json", || {
        bodies
            .iter()
            .filter(|b| {
                Json::parse(b)
                    .ok()
                    .and_then(|d| api::job_spec_from_json(&d).ok())
                    .is_some()
            })
            .count()
    });
    report.check(decoded == bodies.len(), || {
        "a request body failed to decode".to_owned()
    });
    let ((), encode_ns) = rec.time("serve.encode", || {
        for (spec, m) in &requests {
            let result = BatchedResult {
                metrics: *m,
                from_cache: false,
            };
            std::hint::black_box(api::simulate_response(
                spec,
                &result,
                ProcessNode::Paper180nm,
            ));
        }
    });
    let n_req = requests.len().max(1) as f64;
    let batcher = Batcher::new(
        BatchConfig {
            sim_workers: Some(ctx.nproc),
            ..BatchConfig::default()
        },
        Arc::new(ServerMetrics::default()),
    );
    let submitted: Vec<JobSpec> = requests.iter().map(|r| r.0).take(24).collect();
    let (ok, submit_ns) = rec.time("serve.submit", || {
        submitted
            .iter()
            .filter(|&&s| batcher.submit(s).is_ok())
            .count()
    });
    report.check(ok == submitted.len(), || {
        "Batcher::submit failed".to_owned()
    });
    let memo_rounds = 200;
    let (hits, memo_ns) = rec.time("serve.memo", || {
        (0..memo_rounds)
            .map(|_| {
                submitted
                    .iter()
                    .filter(|&&s| batcher.try_memo(s).is_some())
                    .count()
            })
            .sum::<usize>()
    });
    report.check(hits == memo_rounds * submitted.len(), || {
        "Batcher::try_memo missed a submitted job".to_owned()
    });
    drop(batcher);

    // serve: one live open-loop step for the server's own counters.
    let configs = serve_mix::tiny_configs(ctx);
    let live = {
        let _s = rec.span("serve.step");
        serve_mix::step(
            ctx,
            report,
            &configs,
            200.0,
            if ctx.smoke { 100 } else { 400 },
        )
    };
    let counters = live.as_ref().map(|s| s.counters).unwrap_or_default();
    let gen_lag = live.as_ref().map_or(0.0, |s| s.step.lag_p99_ms());

    // fabric: the wire protocol, entry replication and a canned dispatch.
    let fleet_jobs: Vec<(JobSpec, JobMetrics)> = requests.iter().take(231).copied().collect();
    let (proto_ok, proto_ns) = rec.time("fabric.proto", || {
        let specs: Vec<JobSpec> = fleet_jobs.iter().map(|j| j.0).collect();
        let body = sigcomp_fabric::encode_dispatch(&specs);
        let back = sigcomp_fabric::parse_dispatch(&body).is_ok_and(|v| v.len() == specs.len());
        let outcomes: Vec<sigcomp_fabric::DispatchOutcome> = fleet_jobs
            .iter()
            .map(|&(spec, metrics)| sigcomp_fabric::DispatchOutcome {
                spec,
                metrics,
                from_cache: false,
            })
            .collect();
        let text = sigcomp_fabric::encode_report(&outcomes, &sigcomp_obs::Snapshot::default());
        let ids = specs.iter().map(JobSpec::job_id).collect();
        back && sigcomp_fabric::parse_report(&text, &ids).is_ok()
    });
    report.check(proto_ok, || "fleet protocol round trip failed".to_owned());
    let replica = ResultCache::open(ctx.work.fresh("replica")).expect("opening a throwaway cache");
    let entries: Vec<(u64, String)> = fleet_jobs
        .iter()
        .map(|(s, m)| (s.job_id(), encode_entry(m)))
        .collect();
    let ((), replicate_ns) = rec.time("fabric.replicate", || {
        for (id, text) in &entries {
            let _ = replica.store_entry_text(*id, text);
        }
    });
    let mut dispatch_ms = Vec::new();
    match Fleet::start(ctx) {
        Ok(fleet) => {
            let addr = fleet.handles[0].addr().to_string();
            let canned: Vec<JobSpec> = SweepSpec::full(WorkloadSize::Tiny)
                .mems(&[MemProfile::Paper])
                .workloads(&[names[0]])
                .enumerate()
                .into_iter()
                .take(8)
                .collect();
            let body = sigcomp_fabric::encode_dispatch(&canned);
            let ids = canned.iter().map(JobSpec::job_id).collect();
            let client = sigcomp_fabric::HttpClient::new(Duration::from_secs(10));
            for _ in 0..50 {
                let (ok, t) = rec.time("fabric.dispatch", || {
                    client.post(&addr, "/fleet/dispatch", &body).is_ok_and(|r| {
                        r.status == 200 && sigcomp_fabric::parse_report(&r.body, &ids).is_ok()
                    })
                });
                report.check(ok, || "canned /fleet/dispatch failed".to_owned());
                dispatch_ms.push(t as f64 / 1e6);
            }
            // A small fleet sweep, so the frontier counters move here too.
            let cache = ResultCache::open(ctx.work.fresh("fleet-frontier"))
                .expect("opening a throwaway cache");
            let options = sigcomp_explore::SweepOptions {
                workers: Some(ctx.nproc),
                cache: Some(cache),
                backend: fleet.backend(),
            };
            let ran = rec
                .time("fabric.fleet_sweep", || try_run_jobs(&canned, &options))
                .0;
            report.check(ran.is_ok(), || "small fleet sweep failed".to_owned());
            fleet.stop();
        }
        Err(e) => report.check(false, || format!("fleet start-up failed: {e}")),
    }
    let fleet_after = (
        counter("fleet.frontier.dispatches"),
        counter("fleet.frontier.retries"),
        counter("fleet.frontier.workers_lost"),
    );

    // Per-layer metrics, in the order BENCHMARK.json lists them.
    let out = &mut *report;
    out.metric("workloads.build_ms", median(&build_ms), "ms");
    out.metric("workloads.synth_ns_per_rec", synth_ns, "ns");
    out.metric(
        "isa.interp_ns_per_inst",
        interp_ns as f64 / interp_insts.max(1) as f64,
        "ns",
    );
    out.metric(
        "isa.decode_ns_per_rec",
        decode_ns as f64 / decode_recs.max(1) as f64,
        "ns",
    );
    let recs = staged.records.max(1) as f64;
    out.metric(
        "isa.arena_iter_ns_per_rec",
        staged.iter_ns as f64 / recs,
        "ns",
    );
    out.metric(
        "core.instr_cost_ns_per_rec",
        staged.cost_ns as f64 / recs,
        "ns",
    );
    out.metric(
        "core.analyzer_ns_per_rec",
        staged.analyzer_ns as f64 / recs,
        "ns",
    );
    out.metric(
        "pipeline.observe_ns_per_rec",
        staged.pipeline_ns as f64 / recs,
        "ns",
    );
    out.metric(
        "explore.fused_ns_per_rec",
        staged.fused_ns as f64 / recs,
        "ns",
    );
    let staged_ns = staged.iter_ns + staged.cost_ns + staged.pipeline_ns + staged.analyzer_ns;
    out.metric(
        "explore.staged_fused_ratio",
        staged_ns as f64 / staged.fused_ns.max(1) as f64,
        "ratio",
    );
    out.metric(
        "mem.access_ns",
        mem_ns as f64 / accesses.max(1) as f64,
        "ns",
    );
    let ratio = |s: &sigcomp_mem::CacheStats| s.misses as f64 / s.accesses.max(1) as f64;
    out.metric("mem.l1i_miss_ratio", ratio(&mem_stats.il1), "ratio");
    out.metric("mem.l1d_miss_ratio", ratio(&mem_stats.dl1), "ratio");
    out.metric("explore.job_ms_p50", quantile(&job_ms, 0.5), "ms");
    out.metric("explore.job_ms_p99", quantile(&job_ms, 0.99), "ms");
    out.metric("explore.worker_busy_frac", median(&busy), "ratio");
    out.metric(
        "explore.cache_store_us",
        store_ns as f64 / 1e3 / n_jobs,
        "us",
    );
    out.metric("explore.cache_load_us", load_ns as f64 / 1e3 / n_jobs, "us");
    out.metric("explore.export_ms", median(&export_ms), "ms");
    out.metric("serve.parse_ns_per_req", parse_ns as f64 / n_req, "ns");
    out.metric("serve.json_ns_per_req", json_ns as f64 / n_req, "ns");
    out.metric("serve.encode_ns_per_resp", encode_ns as f64 / n_req, "ns");
    out.metric(
        "serve.memo_us",
        memo_ns as f64 / 1e3 / (memo_rounds * submitted.len()).max(1) as f64,
        "us",
    );
    out.metric(
        "serve.submit_ms",
        submit_ns as f64 / 1e6 / submitted.len().max(1) as f64,
        "ms",
    );
    let c = counters;
    out.metric(
        "serve.memo_hit_ratio",
        c.memo_hits as f64 / c.jobs_requested.max(1) as f64,
        "ratio",
    );
    let batched = c.jobs_requested - c.memo_hits - c.shed;
    out.metric(
        "serve.batch_size_mean",
        batched as f64 / c.batches.max(1) as f64,
        "count",
    );
    out.metric("serve.gen_lag_p99_ms", gen_lag, "ms");
    out.metric("fabric.dispatch_ms", median(&dispatch_ms), "ms");
    out.metric(
        "fabric.proto_ns_per_job",
        proto_ns as f64 / fleet_jobs.len().max(1) as f64,
        "ns",
    );
    out.metric(
        "fabric.replicate_us_per_entry",
        replicate_ns as f64 / 1e3 / entries.len().max(1) as f64,
        "us",
    );
    out.metric(
        "fabric.dispatch_attempts",
        (fleet_after.0 - fleet_before.0 + fleet_after.1 - fleet_before.1) as f64,
        "count",
    );
    out.metric("obs.span_ns", span_ns, "ns");
    out.metric("obs.trace_overhead_ratio", overhead, "ratio");
    report.tally(0, fleet_after.2 - fleet_before.2, || {
        "fleet workers were lost".to_owned()
    });
    // Counters a correct run keeps at 0 (a shed or timed-out request and a
    // lost worker already fail the run): printed, not reported.
    report.note(format!(
        "explore.steals {steals}, serve.jobs_shed {}, serve.request_timeouts {}, fabric.retries {}, fabric.workers_lost {}",
        c.shed,
        c.request_timeouts,
        fleet_after.1 - fleet_before.1,
        fleet_after.2 - fleet_before.2
    ));

    report.note(format!(
        "staged vs fused over {} records: staged {:.1} ns/rec, fused {:.1} ns/rec",
        staged.records,
        staged_ns as f64 / recs,
        staged.fused_ns as f64 / recs
    ));
    report.note(format!(
        "sweep_s untraced {:?}, traced {:?}",
        untraced
            .iter()
            .map(|v| format!("{v:.3}"))
            .collect::<Vec<_>>(),
        traced.iter().map(|v| format!("{v:.3}")).collect::<Vec<_>>()
    ));
    for line in rec.table().lines() {
        report.note(line.to_owned());
    }
    let dir = std::path::Path::new(".perfbench_out");
    let stem = format!("{workload}-seed{}", ctx.seed);
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(format!("spans-{stem}.jsonl")), rec.to_jsonl()))
        .and_then(|()| std::fs::write(dir.join(format!("layers-{stem}.txt")), rec.table()));
    if let Err(e) = written {
        report.note(format!("could not write the span files: {e}"));
    }
}

/// What one pass of the workload's own user path gives the traced run.
struct PassFigures {
    cold_s: f64,
    steals: u64,
    outcomes: Option<Vec<sigcomp_explore::JobOutcome>>,
}

/// One pass of the workload's own user path: serve-mix's when `kernel` (its
/// burst requests) is given, else a sweep pass over `space`.
fn workload_pass(
    ctx: &mut Ctx,
    report: &mut Report,
    space: &Space,
    sweep_body: &str,
    kernel: Option<&serve_mix::Configs>,
) -> Option<PassFigures> {
    match kernel {
        Some(kernel) => {
            let p = serve_mix::pass(ctx, report, sweep_body, kernel)?;
            Some(PassFigures {
                cold_s: p.cold_s,
                steals: 0,
                outcomes: None,
            })
        }
        None => sweeps::pass(ctx, report, space).map(|p| PassFigures {
            cold_s: p.cold_s,
            steals: p.cold.worker_loads.iter().map(|l| l.1).sum(),
            outcomes: Some(p.cold.outcomes),
        }),
    }
}

/// Two in-process loopback worker servers with throwaway caches, for the
/// fabric measurements.
pub struct Fleet {
    pub handles: Vec<ServerHandle>,
}

impl Fleet {
    pub fn start(ctx: &Ctx) -> std::io::Result<Fleet> {
        let mut handles = Vec::new();
        for _ in 0..2 {
            let cache = ResultCache::open(ctx.work.fresh("worker-cache"))?;
            let server = Server::bind(ServeConfig {
                addr: "127.0.0.1:0".to_owned(),
                batch: BatchConfig {
                    sim_workers: Some((nproc() / 2).max(1)),
                    disk_cache: Some(cache),
                    ..BatchConfig::default()
                },
                ..ServeConfig::default()
            })?;
            handles.push(server.spawn());
        }
        let client = sigcomp_fabric::HttpClient::new(Duration::from_secs(5));
        for h in &handles {
            let addr = h.addr().to_string();
            let ok = client.get(&addr, "/healthz").is_ok_and(|r| r.status == 200);
            if !ok {
                return Err(std::io::Error::other(format!(
                    "worker {addr} is not healthy"
                )));
            }
        }
        Ok(Fleet { handles })
    }

    pub fn backend(&self) -> ExecBackend {
        ExecBackend::Fleet(FleetConfig {
            workers: self.handles.iter().map(|h| h.addr().to_string()).collect(),
            timeout_ms: 30_000,
            attempts: 3,
        })
    }

    pub fn stop(self) {
        for h in self.handles {
            h.shutdown();
        }
    }
}
