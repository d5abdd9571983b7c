//! Small shared pieces: order statistics, digests, seeded shuffles, peak
//! memory, and the per-run result that `main` prints.

use sigcomp_workloads::SmallRng;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Linear-interpolation quantile of `values` (`q` in `0..=1`); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// FNV-1a over the text: the digest the reference file records.
pub fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Fisher-Yates shuffle driven by the run's seed.
pub fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i as u64) as usize;
        items.swap(i, j);
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A scratch directory inside the checkout, removed on drop.
pub struct WorkDir {
    root: PathBuf,
    next: std::sync::atomic::AtomicU64,
}

impl WorkDir {
    pub fn new() -> std::io::Result<WorkDir> {
        let root = PathBuf::from(".perfbench_work").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(WorkDir {
            root,
            next: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// A fresh, empty subdirectory (a throwaway cache, a trace folder).
    pub fn fresh(&self, label: &str) -> PathBuf {
        let n = self.next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = self.root.join(format!("{label}-{n}"));
        std::fs::create_dir_all(&dir).expect("creating a scratch directory in the checkout");
        dir
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leave the parent only if another run still uses it.
        let _ = std::fs::remove_dir(".perfbench_work");
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Figures printed for people but not part of the result line: too
    /// noisy on a shared machine to gate on.
    pub figures: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures, each one line.
    pub problems: Vec<String>,
    /// Human-readable context lines (sample counts, per-pass figures).
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    pub fn figure(&mut self, name: &str, value: f64, unit: &'static str) {
        self.figures.push((name.to_owned(), value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts one checked operation; a failed one also records why.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(what());
            }
        }
    }

    /// Counts `n` operations of which `bad` failed.
    pub fn tally(&mut self, n: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        if bad > 0 {
            self.failed += bad;
            if self.problems.len() < 20 {
                self.problems.push(what());
            }
        }
    }
}
