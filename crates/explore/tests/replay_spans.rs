//! The replay observability contract: exactly one `replay.job` span — one
//! histogram observation and one JSONL event carrying its `job_id` — per
//! simulated job, and one `replay.group` span per fused pass, however the
//! jobs were grouped and whichever of them hit the cache.
//!
//! The sweep engine records into the process-global registry, so this file
//! holds a single test: nothing else in its process records replay spans.

use sigcomp_explore::{run_jobs, JobSpec, MemProfile, ResultCache, SweepOptions, SweepSpec};
use sigcomp_workloads::WorkloadSize;
use std::collections::BTreeSet;
use std::io::Write;
use std::sync::{Arc, Mutex};

#[derive(Clone, Default)]
struct Captured(Arc<Mutex<Vec<u8>>>);

impl Write for Captured {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn span_count(name: &str) -> u64 {
    sigcomp_obs::global()
        .snapshot()
        .histograms
        .get(name)
        .map_or(0, |h| h.count)
}

/// The `"job_id"` fields of the captured `replay.job` events.
fn job_events(log: &str) -> Vec<String> {
    log.lines()
        .filter(|l| l.starts_with("{\"span\": \"replay.job\""))
        .map(|l| {
            let at = l.find("\"job_id\": \"").expect("replay.job carries job_id") + 11;
            l[at..at + 16].to_owned()
        })
        .collect()
}

#[test]
fn one_replay_job_span_per_simulated_job() {
    let captured = Captured::default();
    sigcomp_obs::global().set_jsonl_writer(Box::new(captured.clone()));
    let dir = std::env::temp_dir().join(format!("sigcomp-replay-spans-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = || SweepOptions::with_workers(2).cache(ResultCache::open(&dir).unwrap());

    // 2 kernels × 3 schemes × 7 organizations: 6 passes of 7 jobs.
    let jobs = SweepSpec::full(WorkloadSize::Tiny)
        .workloads(&["rawcaudio", "pgp"])
        .mems(&[MemProfile::Paper])
        .enumerate();
    // Warm every fourth job, then run the whole batch over the half-warm
    // cache: only the misses may record replay spans.
    let warm: Vec<JobSpec> = jobs.iter().step_by(4).copied().collect();
    let mut simulated_ids = BTreeSet::new();
    for batch in [&warm, &jobs] {
        let (jobs_before, groups_before) = (span_count("replay.job"), span_count("replay.group"));
        let log_from = captured.0.lock().unwrap().len();
        let summary = run_jobs(batch, &options());

        let simulated = summary.simulated();
        assert_eq!(span_count("replay.job") - jobs_before, simulated);
        // Every (kernel, scheme) pass had at least one miss in both batches.
        assert_eq!(span_count("replay.group") - groups_before, 6);

        let log = String::from_utf8(captured.0.lock().unwrap()[log_from..].to_vec()).unwrap();
        let events = job_events(&log);
        let expected: BTreeSet<String> = summary
            .outcomes
            .iter()
            .filter(|o| !o.from_cache)
            .map(|o| format!("{:016x}", o.spec.job_id()))
            .collect();
        assert_eq!(events.len() as u64, simulated);
        assert_eq!(events.iter().cloned().collect::<BTreeSet<_>>(), expected);
        simulated_ids.extend(expected);
    }
    // The second batch simulated exactly the jobs the first left cold.
    assert_eq!(simulated_ids.len(), jobs.len());
    let _ = std::fs::remove_dir_all(&dir);
}
