//! The sigcomp workspace's benchmark.
//!
//! ```text
//! perfbench --workload <kernel-sweep|trace-sweep|serve-mix>
//!           --seed <n> --seconds <s> --trace <0|1> [--smoke] [--digests FILE] [--bless]
//! ```
//!
//! Run from the root of the repository. With `--trace 0` it prints every
//! end-to-end metric, with `--trace 1` every per-layer metric; either way the
//! last line of standard output is one JSON object, and the exit code is
//! nonzero when any output check failed. `README.md` beside this crate
//! describes the workloads and what each metric measures.

mod check;
mod layers;
mod openloop;
mod serve_mix;
mod spans;
mod sweeps;
mod util;

use sigcomp_workloads::SmallRng;
use std::path::PathBuf;
use std::process::ExitCode;
use util::{Report, WorkDir};

pub const WORKLOADS: &[&str] = &["kernel-sweep", "trace-sweep", "serve-mix"];

/// Everything a workload run shares.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub nproc: usize,
    /// The one seeded source of job order, synthetic traces and requests.
    pub rng: SmallRng,
    pub work: WorkDir,
    pub digests: check::Digests,
    /// The checked-in golden corpus.
    pub data_dir: PathBuf,
}

impl Ctx {
    /// Which reference digests apply: the smoke configuration sweeps a
    /// smaller space.
    pub fn scope(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            "full"
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    bless: bool,
    digests: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        bless: false,
        digests: PathBuf::from("perfbench/digests.txt"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                };
            }
            "--digests" => args.digests = PathBuf::from(value()?),
            "--smoke" => args.smoke = true,
            "--bless" => args.bless = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    Ok(args)
}

fn json_line(report: &Report, correct: bool) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let data_dir = PathBuf::from("tests/data");
    if !data_dir.is_dir() {
        eprintln!("perfbench: run from the repository root (no tests/data here)");
        return ExitCode::from(2);
    }
    let digests = match check::Digests::load(&args.digests, args.bless) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = match WorkDir::new() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: cannot create the scratch directory: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        nproc: util::nproc(),
        rng: SmallRng::seed_from_u64(args.seed),
        work,
        digests,
        data_dir,
    };
    let mut report = Report::default();
    if args.trace {
        layers::run(&mut ctx, &mut report, &args.workload);
    } else {
        match args.workload.as_str() {
            "kernel-sweep" => sweeps::kernel_sweep(&mut ctx, &mut report),
            "trace-sweep" => sweeps::trace_sweep(&mut ctx, &mut report),
            _ => serve_mix::serve_mix(&mut ctx, &mut report),
        }
    }
    if args.bless {
        if let Err(e) = ctx.digests.save(&args.digests) {
            eprintln!("perfbench: cannot write {}: {e}", args.digests.display());
            return ExitCode::from(2);
        }
    }
    for (name, value, _) in &report.metrics {
        if !value.is_finite() {
            report
                .problems
                .push(format!("metric {name} is not a finite number"));
        }
    }
    let correct = report.failed == 0 && report.problems.is_empty();
    for note in &report.notes {
        println!("# {note}");
    }
    println!(
        "# workload {} seed {} on {} cpus: {} operations, {} failed, fail_frac {}",
        args.workload,
        args.seed,
        ctx.nproc,
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    for (name, value, unit) in &report.metrics {
        println!("#   {name:<34} {value:>16.6} {unit}");
    }
    for (name, value, unit) in &report.figures {
        println!("#   {name:<34} {value:>16.6} {unit}   (printed only)");
    }
    for problem in &report.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    println!("{}", json_line(&report, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
