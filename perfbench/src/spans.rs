//! The traced run's span recorder: one span (name, start, end, parent, run
//! id) around each call the benchmark makes into a layer, kept in memory and
//! written out when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRecord {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    run_id: u64,
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    next_id: std::sync::atomic::AtomicU64,
}

thread_local! {
    /// Open spans of this thread, innermost last: the parent of a new span.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Ends its span on drop.
pub struct Guard<'a> {
    recorder: &'a Recorder,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Instant,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end = Instant::now();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if open.last() == Some(&self.id) {
                open.pop();
            }
        });
        let rel = |t: Instant| t.duration_since(self.recorder.epoch).as_nanos() as u64;
        self.recorder
            .spans
            .lock()
            .expect("span sink")
            .push(SpanRecord {
                id: self.id,
                parent: self.parent,
                name: self.name,
                start_ns: rel(self.start),
                end_ns: rel(end),
            });
    }
}

impl Recorder {
    pub fn new(run_id: u64) -> Recorder {
        Recorder {
            run_id,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: std::sync::atomic::AtomicU64::new(1),
        }
    }

    /// Opens a span; it closes when the guard drops.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        let id = self
            .next_id
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        Guard {
            recorder: self,
            id,
            parent,
            name,
            start: Instant::now(),
        }
    }

    /// Runs `f` inside a span named `name` and returns its result and the
    /// span's duration in nanoseconds.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let start = Instant::now();
        let out = {
            let _g = self.span(name);
            f()
        };
        (out, start.elapsed().as_nanos() as u64)
    }

    pub fn records(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("span sink").clone()
    }

    /// Per span name: `(count, total ns, self ns)`, where self time is the
    /// span's duration minus the time its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let spans = self.records();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for s in &spans {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += s
                .dur_ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        }
        out
    }

    /// Self time per layer (the span name up to its first `.`).
    pub fn layer_self_ns(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for (name, (_, _, self_ns)) in self.self_times() {
            let layer = name.split('.').next().unwrap_or(name).to_owned();
            *out.entry(layer).or_default() += self_ns;
        }
        out
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.records() {
            let _ = writeln!(
                out,
                "{{\"run\": {}, \"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                self.run_id,
                s.id,
                s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string()),
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        out
    }

    /// The self-time table: per layer, then per span name.
    pub fn table(&self) -> String {
        let mut out = String::from("layer          self_ms\n");
        for (layer, ns) in self.layer_self_ns() {
            let _ = writeln!(out, "{layer:<14} {:>10.3}", ns as f64 / 1e6);
        }
        out.push_str("span                              count    total_ms     self_ms\n");
        for (name, (count, total, self_ns)) in self.self_times() {
            let _ = writeln!(
                out,
                "{name:<32} {count:>7} {:>11.3} {:>11.3}",
                total as f64 / 1e6,
                self_ns as f64 / 1e6
            );
        }
        out
    }
}
