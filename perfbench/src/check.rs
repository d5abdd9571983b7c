//! Output checks: export digests against the reference file, golden-corpus
//! jobs against their checked-in expectations, and served results against a
//! direct simulation.

use crate::util::fnv1a;
use sigcomp::ExtScheme;
use sigcomp_explore::{column_slug, JobMetrics, JobOutcome, TraceSource};
use sigcomp_pipeline::OrgKind;
use sigcomp_serve::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// Reference digests keyed `"<workload>/<scope>/<export>"`.
pub struct Digests {
    known: BTreeMap<String, u64>,
    /// When set, every digest is recorded instead of compared.
    bless: bool,
    seen: BTreeMap<String, u64>,
}

impl Digests {
    pub fn load(path: &Path, bless: bool) -> Result<Digests, String> {
        let mut known = BTreeMap::new();
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(_) if bless => String::new(),
            Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        };
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, hex) = line
                .split_once(' ')
                .ok_or_else(|| format!("{}:{}: expected 'KEY DIGEST'", path.display(), n + 1))?;
            let digest = u64::from_str_radix(hex.trim(), 16)
                .map_err(|e| format!("{}:{}: bad digest: {e}", path.display(), n + 1))?;
            known.insert(key.to_owned(), digest);
        }
        Ok(Digests {
            known,
            bless,
            seen: BTreeMap::new(),
        })
    }

    /// Compares the digest of `text` with the reference under `key`; `None`
    /// when it matches (or is being recorded), else the reason.
    pub fn check(&mut self, key: &str, text: &str) -> Option<String> {
        let digest = fnv1a(text);
        if let Some(&prev) = self.seen.get(key) {
            if prev != digest {
                return Some(format!(
                    "{key}: digest {digest:016x} differs between passes ({prev:016x})"
                ));
            }
        }
        self.seen.insert(key.to_owned(), digest);
        if self.bless {
            return None;
        }
        match self.known.get(key) {
            Some(&want) if want == digest => None,
            Some(&want) => Some(format!(
                "{key}: digest {digest:016x}, reference {want:016x}"
            )),
            None => Some(format!("{key}: no reference digest")),
        }
    }

    /// Writes every digest seen this run back into `path`, keeping the
    /// references of other workloads and scopes.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let mut all = self.known.clone();
        all.extend(self.seen.iter().map(|(k, v)| (k.clone(), *v)));
        let mut out = String::from(
            "# FNV-1a digests of the sweep exports, sorted by job id.\n\
             # Written by `perfbench --bless`; see README.md.\n",
        );
        for (key, digest) in all {
            out.push_str(&format!("{key} {digest:016x}\n"));
        }
        std::fs::write(path, out)
    }
}

fn field_u64(doc: &Json, key: &str) -> Option<u64> {
    doc.get(key).and_then(Json::as_u64)
}

fn counters_match(doc: &Json, m: &JobMetrics) -> bool {
    field_u64(doc, "instructions") == Some(m.instructions)
        && field_u64(doc, "cycles") == Some(m.cycles)
        && field_u64(doc, "branches") == Some(m.branches)
        && field_u64(doc, "stall_structural") == Some(m.stall_structural)
        && field_u64(doc, "stall_data_hazard") == Some(m.stall_data_hazard)
        && field_u64(doc, "stall_control") == Some(m.stall_control)
}

/// Whether a `/simulate` response body carries exactly `want`'s counters
/// and activity (`from_cache` is not compared).
pub fn response_matches(body: &str, want: &JobMetrics) -> bool {
    let Ok(doc) = Json::parse(body) else {
        return false;
    };
    let Some(activity) = doc.get("activity") else {
        return false;
    };
    counters_match(&doc, want)
        && want.activity.columns().iter().all(|(name, stage)| {
            activity.get(&column_slug(name)).is_some_and(|col| {
                field_u64(col, "compressed") == Some(stage.compressed_bits)
                    && field_u64(col, "baseline") == Some(stage.baseline_bits)
                    && field_u64(col, "gated_byte_cycles") == Some(stage.gated_byte_cycles)
                    && field_u64(col, "total_byte_cycles") == Some(stage.total_byte_cycles)
            })
        })
}

/// Compares every golden-corpus job among `outcomes` (trace jobs whose
/// digest matches a corpus file) with `tests/data/<name>.expected.json`.
/// Returns `(jobs checked, problems)`.
pub fn golden(
    outcomes: &[JobOutcome],
    corpus: &[(String, u64)],
    data_dir: &Path,
) -> Result<(u64, Vec<String>), String> {
    let mut checked = 0;
    let mut problems = Vec::new();
    for (name, digest) in corpus {
        let path = data_dir.join(format!("{name}.expected.json"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("digest").and_then(Json::as_str) != Some(format!("{digest:016x}").as_str()) {
            problems.push(format!(
                "{name}: corpus digest differs from {}",
                path.display()
            ));
        }
        for o in outcomes {
            if o.spec.source != (TraceSource::File { digest: *digest }) {
                continue;
            }
            checked += 1;
            let scheme = doc.get("schemes").and_then(|s| s.get(o.spec.scheme.id()));
            let expected_org = scheme
                .and_then(|s| s.get("orgs"))
                .and_then(|orgs| orgs.get(o.spec.org.id()));
            let activity_ok = scheme.and_then(|s| s.get("activity")).is_some_and(|a| {
                o.metrics.activity.columns().iter().all(|(col, stage)| {
                    a.get(&column_slug(col)).is_some_and(|c| {
                        field_u64(c, "compressed") == Some(stage.compressed_bits)
                            && field_u64(c, "baseline") == Some(stage.baseline_bits)
                    })
                })
            });
            let ok = expected_org.is_some_and(|e| {
                counters_match(e, &o.metrics)
                    && e.get("job_id").and_then(Json::as_str)
                        == Some(format!("{:016x}", o.spec.job_id()).as_str())
            }) && activity_ok;
            if !ok {
                problems.push(format!(
                    "golden {}: {} differs from {}",
                    name,
                    o.spec.label(),
                    path.display()
                ));
            }
        }
    }
    // Every scheme × organization of every corpus trace must have been seen.
    let want = (corpus.len() * ExtScheme::ALL.len() * OrgKind::ALL.len()) as u64;
    if checked < want {
        problems.push(format!(
            "golden: {checked} corpus jobs checked, expected at least {want}"
        ));
    }
    Ok((checked, problems))
}
