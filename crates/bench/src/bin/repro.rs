//! `repro` — regenerate every table and figure of the paper, run
//! design-space sweeps (single-process or sharded across worker processes),
//! record/replay portable traces, and serve simulations over HTTP.
//!
//! ```text
//! repro [--size tiny|default|large] [table1|table2|table3|table4|table5|table6|
//!        fig4|fig6|fig8|fig10|bottleneck|sweep|energy|serve|bench|all]
//! repro trace record|replay|stat|golden …
//! repro analyze WORKLOAD|FILE.sctrace [--size S] [--csv PATH] [--json PATH]
//! repro worker --shard I/N --cache DIR [--workers N] [--traces a,b]
//!              [--obs-log FILE]
//! repro fleet serve|sweep|status …
//! repro --help
//!
//! sweep options:
//!   --workers N          worker threads (default: available parallelism;
//!                        with --shards, threads per shard process)
//!   --shards N           fan the sweep out across N `repro worker` child
//!                        processes sharing the result cache; merged output
//!                        is byte-identical to the single-process run
//!                        (requires the cache: incompatible with --no-cache;
//!                        set REPRO_WORKER to interpose a worker launcher)
//!   --schemes a,b        extension schemes: 2bit,3bit,halfword (default: all)
//!   --orgs a,b           organizations by id, or "all" (default: all)
//!   --mems a,b           memory profiles: paper,small-l1,wide-l2,slow-memory
//!                        (default: paper)
//!   --traces a,b         recorded .sctrace files to sweep alongside kernels
//!   --energy-model a,b   process-node energy models the reports are
//!                        evaluated under: paper-180nm,generic-45nm,modern-7nm
//!                        (default: paper-180nm; post-processing only — the
//!                        exports use the first, the frontier is printed per
//!                        model)
//!   --cache DIR          result-cache directory (default: target/sweep-cache)
//!   --no-cache           disable the result cache
//!   --csv PATH           write per-job results as CSV
//!   --json PATH          write per-job results as JSON
//!   --static-prune PCT   skip configurations whose statically predicted
//!                        saving is below PCT % (each one is reported)
//!   --obs-log FILE       stream observability span events as JSONL (sweep,
//!                        serve and bench; workers append to FILE.shard-<i>)
//!
//! energy (a per-preset comparison of the same sweep; accepts
//! --schemes/--orgs/--mems and the --workers/--cache options):
//!   repro [--size S] energy
//!
//! serve options (plus --workers/--cache/--no-cache as above):
//!   --addr HOST:PORT     listen address (default: 127.0.0.1:7878)
//!   --max-batch N        jobs coalesced per executor batch (default: 64)
//!   --backend B          where batches execute: local (default) or
//!                        subprocess[:SHARDS] — sharded `repro worker`
//!                        children merging through the shared cache
//!                        (requires --cache)
//!   --memo-cap N         in-memory result-memo entries retained (default
//!                        4096, oldest evicted first)
//!   --ticket-cap N       finished /sweep tickets retained for polling
//!                        (default 64, oldest evicted first)
//!   --max-conns N        reactor connection cap; above it new connections
//!                        are shed with a fast 503 + Retry-After
//!                        (default 1024)
//!   --read-deadline-ms N per-connection read deadline: a partial request
//!                        older than this is answered 408 and closed
//!                        (default 10000)
//!   --frontier HOST:PORT register with (and heartbeat to) this frontier so
//!                        it dispatches fleet shards here
//!   --self-addr H:P      the address advertised to the frontier (default:
//!                        the bound listen address)
//!   --heartbeat-ms N     heartbeat interval (default 2000)
//!   (keep-alive is the client's choice: a request that sends `Connection:
//!   keep-alive` keeps its connection; any other gets one response and a
//!   close)
//!
//! fleet (the frontier/worker topology over HTTP; see `sigcomp_fabric`):
//!   fleet serve …        a worker: `serve` plus registration — same options,
//!                        --frontier names the frontier to announce to
//!   fleet sweep …        run a sweep as the frontier of a worker fleet:
//!                        the sweep options above (cache required) plus
//!                          --fleet a:p,b:p   worker addresses to dispatch to
//!                                            (default: none — degrades to a
//!                                            local run over the same cache)
//!                          --timeout-ms N    per-dispatch timeout (60000)
//!                          --attempts N      dispatch attempts per worker
//!                                            before re-sharding its jobs (3)
//!   fleet status --frontier H:P   print a frontier's /fleet document
//!                        (workers, liveness, merged worker obs)
//!
//! bench (the self-timed perf harness; see `sigcomp_bench::perf`): replays
//! the golden corpus, runs the standard tiny sweep cache-cold and
//! cache-warm against a throwaway cache, and times repeated Pareto-frontier
//! extraction, writing a schema-checked `BENCH_<label>.json`:
//!   --quick              shrunk phases for CI smoke runs
//!   --label NAME         report label (default: local)
//!   --out PATH           report path (default: BENCH_<label>.json)
//!   --corpus DIR         replay a pre-recorded golden corpus directory
//!   --check FILE         only validate FILE against the report schema
//!   --compare FILE       diff the fresh report against baseline FILE:
//!                        shape metrics must match, throughput metrics may
//!                        regress at most 2x; each violation is named and
//!                        the exit code fails
//!   --trajectory PATH    rolling history document each measuring run
//!                        appends a compact row to
//!                        (default: BENCH_trajectory.json)
//!
//! worker (the subprocess-backend shard protocol; normally spawned by
//! `repro sweep --shards` or `repro serve --backend subprocess`, not by
//! hand): reads the deduped job list on stdin — one line per job, sorted by
//! job id — executes the lines with index % N == I against the shared
//! cache, and reports per-job provenance on stdout. `--traces` must name at
//! least one file, as for `sweep`.
//!
//! trace subcommands:
//!   trace record WORKLOAD|--all --out|-o PATH [--size S]
//!                        run kernels live and write .sctrace files
//!                        (--all writes <PATH>/<workload>.sctrace)
//!   trace replay FILE [--schemes a,b] [--orgs all|a,b] [--mems a,b]
//!                        replay a recorded trace through the models
//!   trace stat FILE      header, digest and instruction-mix summary
//!   trace golden DIR     regenerate the golden conformance corpus
//! ```
//!
//! With no subcommand (or `all`) every paper artefact is printed in paper
//! order (`all` does not include `sweep`, `serve`, `bench` or `trace`).
//!
//! Every flag applies only to the commands listed with it above, and is an
//! error anywhere else: `--size` sizes the paper artefacts, `sweep`,
//! `fleet sweep`, `energy`, `trace record` and `analyze`.

use sigcomp::analyzer::AnalyzerConfig;
use sigcomp::{EnergyModel, ExtScheme, ProcessNode, SigStats};
use sigcomp_bench::{
    activity_study, activity_table, bottleneck, cpi_study, figure, figure_orgs, golden, histogram,
    merged_stats, pattern_histogram_rows, perf, table1, table2, table3, table4,
};
use sigcomp_explore::{
    config_points, frontier_table, parse_shard, round_robin, run_jobs_traced, run_sweep,
    static_prune, to_csv, to_json, try_run_jobs_traced, try_run_sweep, ExecBackend, FleetConfig,
    JobLedger, JobSpec, MemProfile, PruneReason, ResultCache, SubprocessConfig, SweepOptions,
    SweepSpec, TraceInput, TraceSource, WORKER_HEADER,
};
use sigcomp_fabric::client::HttpClient;
use sigcomp_fabric::worker::Heartbeater;
use sigcomp_isa::TraceReader;
use sigcomp_pipeline::OrgKind;
use sigcomp_serve::{BatchConfig, ServeConfig, Server};
use sigcomp_static::{
    analyze_program, program_from_records, verify_trace_against_bounds, EntryState, Width,
    WidthReport,
};
use sigcomp_workloads::{find, suite_names, WorkloadSize};
use std::any::Any;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "\
usage: repro [--size tiny|default|large] \
[table1|table2|table3|table4|table5|table6|fig4|fig6|fig8|fig10|bottleneck|sweep|energy|serve|bench|all]
       repro trace record WORKLOAD|--all --out|-o PATH [--size tiny|default|large]
       repro trace replay FILE [--schemes a,b] [--orgs all|a,b] [--mems a,b]
                   [--energy-model paper-180nm|generic-45nm|modern-7nm]
       repro trace stat FILE
       repro trace golden DIR
       repro analyze WORKLOAD|FILE.sctrace [--size tiny|default|large]
                   [--csv PATH] [--json PATH]
       repro worker --shard I/N --cache DIR [--workers N] [--traces a,b]
                    [--obs-log FILE]
       repro fleet serve [serve options] [--frontier HOST:PORT]
       repro fleet sweep [sweep options] [--fleet a:p,b:p] [--timeout-ms N]
                   [--attempts N]
       repro fleet status --frontier HOST:PORT
       repro --help|-h
(--size applies to the tables, figures, bottleneck, all, sweep, fleet sweep
and energy)
sweep options: [--workers N] [--shards N] [--schemes 2bit,3bit,halfword]
[--orgs all|id,id,...] [--mems paper,small-l1,wide-l2,slow-memory]
[--traces f1.sctrace,f2.sctrace]
[--energy-model paper-180nm,generic-45nm,modern-7nm]
[--cache DIR] [--no-cache] [--csv PATH] [--json PATH] [--obs-log FILE]
[--static-prune PCT]
(--shards requires the cache: worker processes merge through it; set
REPRO_WORKER to interpose a worker launcher)
energy options: [--workers N] [--schemes a,b] [--orgs all|a,b] [--mems a,b]
[--cache DIR] [--no-cache]
serve options: [--addr HOST:PORT] [--max-batch N] [--backend local|subprocess[:N]]
[--memo-cap N] [--ticket-cap N] [--max-conns N] [--read-deadline-ms N]
[--workers N] [--cache DIR] [--no-cache] [--obs-log FILE]
[--frontier HOST:PORT] [--self-addr HOST:PORT] [--heartbeat-ms N]
bench options: [--quick] [--label NAME] [--out PATH] [--corpus DIR]
[--compare BASELINE.json] [--trajectory PATH] [--obs-log FILE], or
`repro bench --check FILE` to schema-validate a report";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}

/// Reports a malformed invocation: the specific problem first, the usage
/// text after, and a failing exit code back to the shell.
fn fail(message: &str) -> ExitCode {
    eprintln!("repro: {message}");
    usage()
}

/// Every main-grammar command. `fleet <verb>` is rewritten to its
/// `fleet-<verb>` entry before parsing. Ordered so that `PAPER` and the
/// commands `--size` applies to are prefixes.
const COMMANDS: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "fig4",
    "fig6",
    "fig8",
    "fig10",
    "bottleneck",
    "all",
    "sweep",
    "fleet-sweep",
    "energy",
    "serve",
    "fleet-serve",
    "fleet-status",
    "bench",
];

/// The paper artefacts, in paper order: what `all` (the default) prints.
const PAPER: &[&str] = COMMANDS.split_at(11).0;

/// The commands that own their grammars, so must come first, each with an
/// example for the error that says so.
const STANDALONE: [(&str, &str); 4] = [
    (
        "trace",
        "repro trace record rawcaudio --size tiny --out f.sctrace",
    ),
    ("worker", "repro worker --shard 0/2 --cache DIR"),
    ("analyze", "repro analyze rawcaudio --size tiny"),
    ("fleet", "repro fleet sweep --fleet host:port --cache DIR"),
];

/// Where a flag is accepted, and how its "only applies to" error names
/// that set.
#[derive(Clone, Copy)]
struct Scope {
    /// The accepting commands: main-grammar commands, or the one standalone
    /// command (`trace record`, `trace replay`, `analyze`, `worker`).
    commands: &'static [&'static str],
    /// The error's name for `commands`.
    phrase: &'static str,
    /// The flags that share one error, named together.
    group: Option<&'static str>,
}

impl Scope {
    /// Whether any of `commands` accepts the flag.
    fn covers<S: AsRef<str>>(self, commands: &[S]) -> bool {
        self.commands
            .iter()
            .any(|c| commands.iter().any(|p| p.as_ref() == *c))
    }

    /// The error for `flag` given without any of the accepting commands.
    fn error(self, flag: &str) -> String {
        match self.group {
            Some(group) => format!("{group} only apply to the {}", self.phrase),
            None => format!("{flag} only applies to the {}", self.phrase),
        }
    }
}

const fn scope(commands: &'static [&'static str], phrase: &'static str) -> Scope {
    Scope {
        commands,
        phrase,
        group: None,
    }
}

const EVERYWHERE: Scope = scope(COMMANDS, "listed subcommands");
/// The paper artefacts, `all`, and the sweep and energy runs.
const SIZED: Scope = scope(
    COMMANDS.split_at(15).0,
    "table, figure, bottleneck, all, sweep, fleet sweep and energy subcommands",
);
const SWEEP: Scope = scope(&["sweep"], "sweep subcommand");
const SWEEPS: Scope = scope(
    &["sweep", "fleet-sweep"],
    "sweep and fleet sweep subcommands",
);
const AXES: Scope = scope(
    &["sweep", "fleet-sweep", "energy"],
    "sweep, fleet sweep and energy subcommands",
);
const RUNNERS: Scope = Scope {
    group: Some("--workers/--cache/--no-cache"),
    ..scope(
        &["sweep", "fleet-sweep", "energy", "serve", "fleet-serve"],
        "sweep, energy and serve subcommands",
    )
};
const OBSERVED: Scope = scope(
    &["sweep", "fleet-sweep", "serve", "fleet-serve", "bench"],
    "sweep, serve and bench subcommands",
);
const SERVES: Scope = scope(
    &["serve", "fleet-serve"],
    "serve and fleet serve subcommands",
);
const FRONTIER: Scope = scope(
    &["serve", "fleet-serve", "fleet-status"],
    "serve and fleet status subcommands",
);
const FLEET_SWEEP: Scope = scope(&["fleet-sweep"], "fleet sweep subcommand");
const FLEET_CLIENT: Scope = scope(
    &["fleet-sweep", "fleet-status"],
    "fleet sweep and fleet status subcommands",
);
const BENCH: Scope = scope(&["bench"], "bench subcommand");
const RECORD: Scope = scope(&["trace record"], "trace record subcommand");
const REPLAY: Scope = scope(&["trace replay"], "trace replay subcommand");
const ANALYZE: Scope = scope(&["analyze"], "analyze subcommand");
const WORKER: Scope = scope(&["worker"], "worker subcommand");

/// How a flag's value is read and validated.
#[derive(Clone, Copy)]
enum Kind {
    /// No value: the flag is present or not.
    Switch,
    /// Any text: a path, an address, a label.
    Text,
    Positive,
    /// A non-negative saving percentage.
    Percent,
    Size,
    /// `local` or `subprocess[:SHARDS]`.
    Backend,
    /// `INDEX/COUNT`.
    Shard,
    /// One process-node energy model.
    Node,
    /// A comma-separated list.
    List(Items),
}

/// What a comma-separated list holds.
#[derive(Clone, Copy)]
enum Items {
    Schemes,
    /// Organization ids, or `all`.
    Orgs,
    Mems,
    Nodes,
    /// `.sctrace` paths; empty items are dropped, and one must remain.
    Traces,
    /// Worker `host:port` addresses, likewise.
    Workers,
}

impl Kind {
    /// Reads one value (a switch has none), or says why it is invalid: the
    /// tail of the "invalid value" error, ` (expected …)` for most kinds.
    fn read(self, raw: &str) -> Result<Box<dyn Any>, String> {
        fn boxed<T: Any>(value: T) -> Box<dyn Any> {
            Box::new(value)
        }
        let value = match self {
            // These two explain their own errors.
            Kind::Backend => return parse_backend(raw).map(boxed).map_err(|e| format!(" ({e})")),
            Kind::Shard => return parse_shard(raw).map(boxed).map_err(|e| format!(": {e}")),
            Kind::Switch => Some(boxed(true)),
            Kind::Text => Some(boxed(raw.to_owned())),
            Kind::Positive => raw.parse().ok().filter(|&n: &usize| n > 0).map(boxed),
            Kind::Percent => raw
                .parse()
                .ok()
                .filter(|&p: &f64| p.is_finite() && p >= 0.0)
                .map(boxed),
            Kind::Size => WorkloadSize::parse(raw).map(boxed),
            Kind::Node => ProcessNode::parse(raw).map(boxed),
            Kind::List(Items::Schemes) => parse_list(raw, ExtScheme::parse).map(boxed),
            Kind::List(Items::Orgs) if raw == "all" => Some(boxed(OrgKind::ALL.to_vec())),
            Kind::List(Items::Orgs) => parse_list(raw, OrgKind::parse).map(boxed),
            Kind::List(Items::Mems) => parse_list(raw, MemProfile::parse).map(boxed),
            Kind::List(Items::Nodes) => parse_list(raw, ProcessNode::parse).map(boxed),
            Kind::List(Items::Traces | Items::Workers) => {
                let words: Vec<String> = raw
                    .split(',')
                    .map(str::trim)
                    .filter(|word| !word.is_empty())
                    .map(str::to_owned)
                    .collect();
                Some(words).filter(|words| !words.is_empty()).map(boxed)
            }
        };
        value.ok_or_else(|| format!(" (expected {})", self.accepted()))
    }

    /// What an invalid value should have been.
    fn accepted(self) -> String {
        fn ids<T: Copy>(all: &[T], id: fn(T) -> &'static str) -> String {
            let ids: Vec<&str> = all.iter().map(|&item| id(item)).collect();
            ids.join(", ")
        }
        let subset = |ids: String| format!("a comma-separated subset of {ids}");
        match self {
            Kind::Positive => "a positive integer".to_owned(),
            Kind::Percent => "a non-negative saving percentage".to_owned(),
            Kind::Size => "tiny, default or large".to_owned(),
            Kind::Node => format!("one of {}", ids(ProcessNode::ALL, ProcessNode::id)),
            Kind::List(Items::Schemes) => subset(ids(ExtScheme::ALL, ExtScheme::id)),
            Kind::List(Items::Orgs) => {
                format!("'all' or {}", subset(ids(OrgKind::ALL, OrgKind::id)))
            }
            Kind::List(Items::Mems) => subset(ids(MemProfile::ALL, MemProfile::id)),
            Kind::List(Items::Nodes) => subset(ids(ProcessNode::ALL, ProcessNode::id)),
            Kind::List(Items::Traces) => "a comma-separated list of .sctrace paths".to_owned(),
            Kind::List(Items::Workers) => {
                "a comma-separated list of host:port worker addresses".to_owned()
            }
            // Accepting anything, or explaining their own errors.
            Kind::Switch | Kind::Text | Kind::Backend | Kind::Shard => String::new(),
        }
    }
}

/// One row of the option table.
struct Opt {
    /// The flag, then its aliases.
    names: &'static [&'static str],
    kind: Kind,
    scope: Scope,
}

const fn opt(names: &'static [&'static str], kind: Kind, scope: Scope) -> Opt {
    Opt { names, kind, scope }
}

/// Every flag of every grammar. A flag of several grammars has a row in
/// each; the main grammar's row is scoped to the commands that use it.
const OPTS: &[Opt] = &[
    opt(&["--help", "-h"], Kind::Switch, EVERYWHERE),
    opt(&["--size"], Kind::Size, SIZED),
    opt(&["--workers"], Kind::Positive, RUNNERS),
    opt(&["--cache"], Kind::Text, RUNNERS),
    opt(&["--no-cache"], Kind::Switch, RUNNERS),
    opt(&["--shards"], Kind::Positive, SWEEP),
    opt(&["--schemes"], Kind::List(Items::Schemes), AXES),
    opt(&["--orgs"], Kind::List(Items::Orgs), AXES),
    opt(&["--mems"], Kind::List(Items::Mems), AXES),
    opt(&["--traces"], Kind::List(Items::Traces), SWEEPS),
    opt(&["--energy-model"], Kind::List(Items::Nodes), SWEEPS),
    opt(&["--csv"], Kind::Text, SWEEPS),
    opt(&["--json"], Kind::Text, SWEEPS),
    opt(&["--static-prune"], Kind::Percent, SWEEPS),
    opt(&["--obs-log"], Kind::Text, OBSERVED),
    opt(&["--addr"], Kind::Text, SERVES),
    opt(&["--max-batch"], Kind::Positive, SERVES),
    opt(&["--backend"], Kind::Backend, SERVES),
    opt(&["--memo-cap"], Kind::Positive, SERVES),
    opt(&["--ticket-cap"], Kind::Positive, SERVES),
    opt(&["--max-conns"], Kind::Positive, SERVES),
    opt(&["--read-deadline-ms"], Kind::Positive, SERVES),
    opt(&["--self-addr"], Kind::Text, SERVES),
    opt(&["--heartbeat-ms"], Kind::Positive, SERVES),
    opt(&["--frontier"], Kind::Text, FRONTIER),
    opt(&["--fleet"], Kind::List(Items::Workers), FLEET_SWEEP),
    opt(&["--attempts"], Kind::Positive, FLEET_SWEEP),
    opt(&["--timeout-ms"], Kind::Positive, FLEET_CLIENT),
    opt(&["--quick"], Kind::Switch, BENCH),
    opt(&["--label"], Kind::Text, BENCH),
    opt(&["--out"], Kind::Text, BENCH),
    opt(&["--corpus"], Kind::Text, BENCH),
    opt(&["--check"], Kind::Text, BENCH),
    opt(&["--compare"], Kind::Text, BENCH),
    opt(&["--trajectory"], Kind::Text, BENCH),
    opt(&["--size"], Kind::Size, RECORD),
    opt(&["--out", "-o"], Kind::Text, RECORD),
    opt(&["--all"], Kind::Switch, RECORD),
    opt(&["--schemes"], Kind::List(Items::Schemes), REPLAY),
    opt(&["--orgs"], Kind::List(Items::Orgs), REPLAY),
    opt(&["--mems"], Kind::List(Items::Mems), REPLAY),
    opt(&["--energy-model"], Kind::Node, REPLAY),
    opt(&["--size"], Kind::Size, ANALYZE),
    opt(&["--csv"], Kind::Text, ANALYZE),
    opt(&["--json"], Kind::Text, ANALYZE),
    opt(&["--shard"], Kind::Shard, WORKER),
    opt(&["--cache"], Kind::Text, WORKER),
    opt(&["--workers"], Kind::Positive, WORKER),
    opt(&["--traces"], Kind::List(Items::Traces), WORKER),
    opt(&["--obs-log"], Kind::Text, WORKER),
];

/// One command line's grammar: the rows it admits, how it names an unknown
/// flag, and what its positional arguments are.
struct Grammar {
    /// The commands parsed for; the rows scoped to any of them are admitted.
    commands: &'static [&'static str],
    /// The unknown-flag error's prefix.
    unknown: &'static str,
    positionals: Positionals,
}

#[derive(Clone, Copy, PartialEq)]
enum Positionals {
    /// Command names (`all` when none), which every flag is checked against.
    Commands,
    /// At most one (a workload or file); a second is this error.
    One(&'static str),
    /// None: a stray word is reported like an unknown flag.
    Nothing,
}

const MAIN_ARGS: Grammar = Grammar {
    commands: COMMANDS,
    unknown: "unknown option",
    positionals: Positionals::Commands,
};

const RECORD_ARGS: Grammar = Grammar {
    commands: RECORD.commands,
    unknown: "unknown option",
    positionals: Positionals::One("trace record expects exactly one workload"),
};

const REPLAY_ARGS: Grammar = Grammar {
    commands: REPLAY.commands,
    unknown: "unknown option",
    positionals: Positionals::One("trace replay expects exactly one file"),
};

const ANALYZE_ARGS: Grammar = Grammar {
    commands: ANALYZE.commands,
    unknown: "unknown analyze option",
    positionals: Positionals::One("analyze expects exactly one workload or .sctrace file"),
};

const WORKER_ARGS: Grammar = Grammar {
    commands: WORKER.commands,
    unknown: "unknown worker option",
    positionals: Positionals::Nothing,
};

/// A parsed command line.
#[derive(Default)]
struct Opts {
    values: Vec<(&'static Opt, Box<dyn Any>)>,
    positionals: Vec<String>,
}

impl Opts {
    /// The value last given for `flag` (named as in its row), if any.
    fn get<T: Any + Clone>(&self, flag: &str) -> Option<T> {
        debug_assert!(OPTS.iter().any(|row| row.names[0] == flag), "{flag}");
        let (_, value) = self
            .values
            .iter()
            .rev()
            .find(|(row, _)| row.names[0] == flag)?;
        debug_assert!(value.is::<T>(), "{flag} is read as the wrong type");
        value.downcast_ref().cloned()
    }

    /// Whether the switch `flag` was given.
    fn has(&self, flag: &str) -> bool {
        self.get(flag).unwrap_or(false)
    }
}

/// Parses `args` under `grammar`. Values are validated as they are read, so
/// an invalid value is reported before a flag outside its commands' scope.
fn parse(grammar: &Grammar, args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let row = OPTS
            .iter()
            .find(|row| row.names.contains(&arg.as_str()) && row.scope.covers(grammar.commands));
        if let Some(row) = row {
            let flag = row.names[0];
            let raw = match row.kind {
                Kind::Switch => "",
                _ => args
                    .next()
                    .ok_or_else(|| format!("{flag} expects a value"))?,
            };
            let value = row
                .kind
                .read(raw)
                .map_err(|why| format!("invalid value '{raw}' for {flag}{why}"))?;
            opts.values.push((row, value));
            continue;
        }
        match grammar.positionals {
            _ if arg.starts_with('-') => return Err(format!("{} '{arg}'", grammar.unknown)),
            Positionals::Nothing => return Err(format!("{} '{arg}'", grammar.unknown)),
            Positionals::One(too_many) if !opts.positionals.is_empty() => {
                return Err(too_many.to_owned())
            }
            Positionals::One(_) => {}
            Positionals::Commands => {
                if let Some((word, example)) = STANDALONE.iter().find(|(word, _)| word == arg) {
                    return Err(format!(
                        "'{word}' must be the first argument (e.g. `{example}`)"
                    ));
                }
                if !grammar.commands.contains(&arg.as_str()) {
                    return Err(format!("unknown command '{arg}'"));
                }
            }
        }
        opts.positionals.push(arg.clone());
    }
    if grammar.positionals == Positionals::Commands {
        if opts.positionals.is_empty() {
            opts.positionals.push("all".to_owned());
        }
        // A flag must not be silently ignored: one passed without any
        // command that reads it is an error.
        let ignored = opts
            .values
            .iter()
            .find(|(row, _)| !row.scope.covers(&opts.positionals));
        if let Some((row, _)) = ignored {
            return Err(row.scope.error(row.names[0]));
        }
    }
    Ok(opts)
}

/// Parses `args` under `grammar` and runs `run` on them; a malformed command
/// line is a named error and the usage text.
fn run_with(grammar: &Grammar, args: &[String], run: fn(&Opts) -> ExitCode) -> ExitCode {
    match parse(grammar, args) {
        Ok(opts) => run(&opts),
        Err(e) => fail(&e),
    }
}

/// The `--backend` value of `repro serve`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BackendChoice {
    /// In-process threads (the default).
    Local,
    /// Sharded `repro worker` subprocesses.
    Subprocess(usize),
}

/// Parses a `--backend` value: `local`, `subprocess`, or `subprocess:N`.
fn parse_backend(raw: &str) -> Result<BackendChoice, String> {
    if raw == "local" {
        return Ok(BackendChoice::Local);
    }
    let shards = match raw.split_once(':') {
        None if raw == "subprocess" => {
            std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get)
        }
        Some(("subprocess", n)) => n
            .parse()
            .ok()
            .filter(|&n: &usize| n > 0)
            .ok_or("the shard count must be a positive integer")?,
        _ => return Err("expected local or subprocess[:SHARDS]".to_owned()),
    };
    Ok(BackendChoice::Subprocess(shards))
}

/// The worker executable the subprocess backend spawns: `REPRO_WORKER` when
/// set (to interpose a launcher — a container or ssh wrapper, say),
/// otherwise this very binary.
fn worker_program() -> Result<std::path::PathBuf, String> {
    if let Some(program) = std::env::var_os("REPRO_WORKER") {
        return Ok(std::path::PathBuf::from(program));
    }
    std::env::current_exe()
        .map_err(|e| format!("cannot locate the repro binary to spawn workers: {e}"))
}

/// Builds the subprocess backend config shared by `sweep --shards` and
/// `serve --backend subprocess`. When `--obs-log` is set each worker also
/// streams its span events to `<obs-log>.shard-<i>`.
fn subprocess_backend(
    shards: usize,
    trace_paths: &[String],
    opts: &Opts,
) -> Result<ExecBackend, String> {
    let mut config = SubprocessConfig::new(shards, worker_program()?);
    config.trace_paths = trace_paths.to_vec();
    config.obs_log = opts
        .get::<String>("--obs-log")
        .map(std::path::PathBuf::from);
    Ok(ExecBackend::Subprocess(config))
}

fn parse_list<T>(value: &str, parse: impl Fn(&str) -> Option<T>) -> Option<Vec<T>> {
    value.split(',').map(|part| parse(part.trim())).collect()
}

/// Opens the result cache named by `--cache`/`--no-cache` (shared, via the
/// same default directory, by CLI sweeps and a running server).
fn open_cache(opts: &Opts, what: &str) -> Option<ResultCache> {
    if opts.has("--no-cache") {
        return None;
    }
    let dir = opts
        .get("--cache")
        .unwrap_or_else(|| "target/sweep-cache".to_owned());
    match ResultCache::open(&dir) {
        Ok(cache) => Some(cache),
        Err(e) => {
            eprintln!("{what}: cannot open result cache at {dir}: {e}; caching disabled");
            None
        }
    }
}

/// Narrows `spec` to the `--schemes`, `--orgs` and `--mems` axes given.
fn with_axes(mut spec: SweepSpec, opts: &Opts) -> SweepSpec {
    if let Some(schemes) = opts.get::<Vec<ExtScheme>>("--schemes") {
        spec = spec.schemes(&schemes);
    }
    if let Some(orgs) = opts.get::<Vec<OrgKind>>("--orgs") {
        spec = spec.orgs(&orgs);
    }
    if let Some(mems) = opts.get::<Vec<MemProfile>>("--mems") {
        spec = spec.mems(&mems);
    }
    spec
}

/// A millisecond `flag` as a duration (`default` when not given).
fn millis(opts: &Opts, flag: &str, default: usize) -> std::time::Duration {
    std::time::Duration::from_millis(opts.get(flag).unwrap_or(default) as u64)
}

/// Runs `repro sweep` (`fleet = false`) or `repro fleet sweep` (`fleet =
/// true` — this process is the frontier and the configured backend is the
/// worker fleet).
fn run_sweep_command(size: WorkloadSize, opts: &Opts, fleet: bool) -> ExitCode {
    let mut spec = with_axes(SweepSpec::full(size).mems(&[MemProfile::Paper]), opts);
    if let Some(models) = opts.get::<Vec<ProcessNode>>("--energy-model") {
        spec = spec.energy_models(&models);
    }
    let trace_paths: Vec<String> = opts.get("--traces").unwrap_or_default();
    if !trace_paths.is_empty() {
        let mut inputs = Vec::with_capacity(trace_paths.len());
        for path in &trace_paths {
            match TraceInput::load(path) {
                Ok(input) => inputs.push(input),
                Err(e) => {
                    eprintln!("sweep: cannot read trace {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        spec = spec.trace_files(&inputs);
    }
    if spec.is_empty() {
        eprintln!("sweep: the requested design space is empty");
        return ExitCode::FAILURE;
    }

    let cache = open_cache(opts, "sweep");
    let backend = if fleet {
        let defaults = FleetConfig::default();
        // Attempts are counted in a u32: a larger count is an invalid
        // value, never a silent clamp.
        let attempts = match opts.get::<usize>("--attempts") {
            None => defaults.attempts,
            Some(n) => match u32::try_from(n) {
                Ok(attempts) => attempts,
                Err(_) => {
                    return fail(&format!(
                        "invalid value '{n}' for --attempts (expected a positive integer \
                         up to {})",
                        u32::MAX
                    ))
                }
            },
        };
        // The frontier replicates every worker's cache entries into this
        // cache and merges the sweep from it — exactly the subprocess
        // backend's merge discipline, so the output stays byte-identical.
        if opts.has("--no-cache") {
            return fail("fleet sweep requires the result cache (drop --no-cache)");
        }
        if cache.is_none() {
            eprintln!("sweep: fleet sweep requires the result cache, which could not be opened");
            return ExitCode::FAILURE;
        }
        sigcomp_fabric::install();
        ExecBackend::Fleet(FleetConfig {
            workers: opts.get("--fleet").unwrap_or_default(),
            timeout_ms: opts
                .get::<usize>("--timeout-ms")
                .map_or(defaults.timeout_ms, |n| n as u64),
            attempts,
        })
    } else {
        match opts.get("--shards") {
            None => ExecBackend::LocalThreads,
            Some(shards) => {
                // The shared cache directory is how worker processes publish
                // their results back; without it there is nothing to merge.
                if opts.has("--no-cache") {
                    return fail("--shards requires the result cache (drop --no-cache)");
                }
                if cache.is_none() {
                    eprintln!(
                        "sweep: --shards requires the result cache, which could not be opened"
                    );
                    return ExitCode::FAILURE;
                }
                match subprocess_backend(shards, &trace_paths, opts) {
                    Ok(backend) => backend,
                    Err(e) => {
                        eprintln!("sweep: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    };
    let options = SweepOptions {
        workers: opts.get("--workers"),
        cache,
        backend,
    };

    println!(
        "sweep: {} configurations at size {}",
        spec.len(),
        size.name()
    );
    let run = if let Some(threshold) = opts.get("--static-prune") {
        // The static pre-screen. Kept jobs stay in enumeration order, so
        // their outcomes (and export rows) are byte-identical to the
        // corresponding rows of an unpruned run; pruned configurations are
        // reported here, never silently dropped.
        let jobs = spec.enumerate();
        let outcome = static_prune(&jobs, threshold);
        println!(
            "static prune (< {threshold} % predicted saving): kept {} of {} configurations",
            outcome.kept.len(),
            jobs.len()
        );
        for pruned in &outcome.pruned {
            let PruneReason::BelowThreshold { predicted_pct } = pruned.reason;
            println!(
                "  pruned {} (predicted saving {predicted_pct:.1} %)",
                pruned.spec.label()
            );
        }
        if outcome.kept.is_empty() {
            eprintln!("sweep: --static-prune removed every configuration");
            return ExitCode::FAILURE;
        }
        try_run_jobs_traced(&outcome.kept, spec.trace_inputs(), &options)
    } else {
        try_run_sweep(&spec, &options)
    };
    let summary = match run {
        Ok(summary) => summary,
        Err(e) => {
            eprintln!("sweep: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "ran on {} {} in {:.2} s: {} simulated, {} from cache",
        summary.workers,
        if summary.backend == "subprocess" {
            "worker processes"
        } else {
            "workers"
        },
        summary.wall.as_secs_f64(),
        summary.simulated(),
        summary.cached()
    );
    let loads: Vec<String> = summary
        .worker_loads
        .iter()
        .map(|(jobs, steals)| format!("{jobs}/{steals}"))
        .collect();
    println!("worker loads (jobs/steals): {}", loads.join(" "));
    if options.cache.is_some() {
        let stats = sigcomp_explore::cache_stats();
        println!(
            "cache: {} hits, {} misses, {} retired, {} stores",
            stats.hits, stats.misses, stats.retired, stats.stores
        );
    }
    // The replay/cache counters are invariant across backends: a sharded run
    // merges its workers' registries, so this line must match the
    // single-process run byte for byte (CI pins that). Scheduling-dependent
    // counters (dedup, worker gauges) are deliberately left out.
    let totals: Vec<String> = sigcomp_obs::global()
        .snapshot()
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("replay.") || name.starts_with("explore.cache."))
        .map(|(name, value)| format!("{name}={value}"))
        .collect();
    if !totals.is_empty() {
        println!("obs totals: {}", totals.join(" "));
    }
    println!();

    // One frontier per requested energy model; the axis is post-processing,
    // so every model reads the same simulated counters.
    let nodes = spec.energy_model_axis();
    let points = config_points(&summary.outcomes);
    for (i, &node) in nodes.iter().enumerate() {
        if nodes.len() > 1 {
            if i > 0 {
                println!();
            }
            println!("energy model: {node}");
        }
        print!("{}", frontier_table(&points, &node.model()));
    }

    // Exports are evaluated under the first requested model (the only one,
    // unless --energy-model named several).
    let model = nodes[0].model();
    type Serializer = fn(&[sigcomp_explore::JobOutcome], &EnergyModel) -> String;
    for (flag, serialize, what) in [
        ("--csv", to_csv as Serializer, "CSV"),
        ("--json", to_json as Serializer, "JSON"),
    ] {
        if let Some(path) = opts.get::<String>(flag) {
            if let Err(e) = std::fs::write(&path, serialize(&summary.outcomes, &model)) {
                eprintln!("sweep: cannot write {what} to {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {what} to {path}");
        }
    }
    ExitCode::SUCCESS
}

/// Runs one sweep and compares its energy/performance picture across every
/// process-node preset: the dynamic term is preset-independent (the paper's
/// number), while the leakage term rewards gated-off byte lanes more the
/// leakier the node — shifting which configurations are Pareto-optimal.
fn run_energy_command(size: WorkloadSize, opts: &Opts) -> ExitCode {
    let spec = with_axes(SweepSpec::paper(size), opts);
    if spec.is_empty() {
        eprintln!("energy: the requested design space is empty");
        return ExitCode::FAILURE;
    }
    let options = SweepOptions {
        workers: opts.get("--workers"),
        cache: open_cache(opts, "energy"),
        backend: ExecBackend::LocalThreads,
    };
    println!(
        "energy: {} configurations at size {}, compared across {} process-node presets",
        spec.len(),
        size.name(),
        ProcessNode::ALL.len()
    );
    let summary = run_sweep(&spec, &options);
    let points = config_points(&summary.outcomes);
    let models: Vec<EnergyModel> = ProcessNode::ALL.iter().map(|n| n.model()).collect();

    // Per-preset frontier membership, computed on the shared points.
    let frontiers: Vec<Vec<String>> = models
        .iter()
        .map(|model| {
            sigcomp_explore::pareto_frontier(&points, model)
                .iter()
                .map(sigcomp_explore::ConfigPoint::label)
                .collect()
        })
        .collect();

    // Per-point figures computed once, before sorting and printing — the
    // comparators and row loop must not re-derive CPI, savings or labels.
    struct Row {
        label: String,
        cpi: f64,
        dynamic: f64,
        totals: Vec<f64>,
    }
    let mut rows: Vec<Row> = points
        .iter()
        .map(|p| Row {
            label: p.label(),
            cpi: p.cpi(),
            dynamic: p.dynamic_energy_saving(&EnergyModel::default()),
            totals: models.iter().map(|m| p.energy_saving(m)).collect(),
        })
        .collect();
    rows.sort_by(|a, b| {
        a.cpi
            .partial_cmp(&b.cpi)
            .expect("CPI is never NaN")
            .then_with(|| a.label.cmp(&b.label))
    });

    println!();
    println!("Total-energy saving by process node (* = Pareto-optimal under that node)");
    print!("{:<44} {:>8} {:>9}", "configuration", "CPI", "dynamic");
    for node in ProcessNode::ALL {
        print!(" {:>13}", node.id());
    }
    println!();
    for row in &rows {
        print!(
            "{:<44} {:>8.3} {:>8.1}%",
            row.label,
            row.cpi,
            row.dynamic * 100.0
        );
        for (ni, total) in row.totals.iter().enumerate() {
            let star = if frontiers[ni].contains(&row.label) {
                "*"
            } else {
                " "
            };
            print!(" {:>11.1}%{star}", total * 100.0);
        }
        println!();
    }
    println!();
    for (ni, node) in ProcessNode::ALL.iter().enumerate() {
        println!(
            "frontier under {:<13} ({} configurations): {}",
            node.id(),
            frontiers[ni].len(),
            frontiers[ni].join(", ")
        );
    }
    ExitCode::SUCCESS
}

/// Runs the HTTP serving front-end (blocks until the listener fails).
fn run_serve_command(opts: &Opts) -> ExitCode {
    let disk_cache = open_cache(opts, "serve");
    let backend = match opts.get("--backend").unwrap_or(BackendChoice::Local) {
        BackendChoice::Local => ExecBackend::LocalThreads,
        BackendChoice::Subprocess(shards) => {
            if opts.has("--no-cache") {
                return fail("--backend subprocess requires the result cache (drop --no-cache)");
            }
            if disk_cache.is_none() {
                eprintln!(
                    "serve: --backend subprocess requires the result cache, \
                     which could not be opened"
                );
                return ExitCode::FAILURE;
            }
            match subprocess_backend(shards, &[], opts) {
                Ok(backend) => backend,
                Err(e) => {
                    eprintln!("serve: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    let config = ServeConfig {
        addr: opts.get("--addr").unwrap_or_default(),
        batch: BatchConfig {
            max_batch: opts.get("--max-batch").unwrap_or(0),
            queue_capacity: 0,
            sim_workers: opts.get("--workers"),
            disk_cache,
            backend,
            memo_capacity: opts.get("--memo-cap").unwrap_or(0),
        },
        finished_tickets: opts.get("--ticket-cap").unwrap_or(0),
        max_conns: opts.get("--max-conns").unwrap_or(0),
        read_deadline: millis(opts, "--read-deadline-ms", 0),
    };
    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("serve: cannot bind listener: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = server.local_addr();
    println!("serving on http://{addr}");
    println!("  GET  /healthz   liveness probe");
    println!("  GET  /metrics   request/batching/cache counters (+ fleet section)");
    println!("  GET  /metrics.json  full observability registry snapshot");
    println!("  POST /simulate  one configuration -> metrics (batched + deduplicated)");
    println!("  POST /sweep     a design-space slice -> poll ticket (or \"sync\": true)");
    println!("  GET  /jobs/:id  sweep progress and results");
    println!("  POST /register, POST /heartbeat, POST /fleet/dispatch, GET /fleet");
    println!("                  the sigcomp-fleet worker protocol");
    // A worker announces itself to its frontier and keeps heartbeating for
    // as long as it serves; the heartbeater thread dies with the process.
    let heartbeater = opts.get::<String>("--frontier").map(|frontier| {
        let advertised = opts.get("--self-addr").unwrap_or_else(|| addr.to_string());
        let interval = millis(opts, "--heartbeat-ms", 2000);
        println!("fleet worker: announcing {advertised} to frontier {frontier}");
        Heartbeater::spawn(frontier, advertised, interval)
    });
    let result = server.run();
    if let Some(heartbeater) = heartbeater {
        heartbeater.stop();
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve: listener failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints a frontier's `/fleet` document: its known workers, their
/// liveness/capacity/dispatch counters, and the merged worker obs snapshot.
fn run_fleet_status_command(opts: &Opts) -> ExitCode {
    let Some(frontier) = opts.get::<String>("--frontier") else {
        return fail("fleet status requires --frontier HOST:PORT");
    };
    let timeout = millis(opts, "--timeout-ms", 5_000);
    match HttpClient::new(timeout).get(&frontier, "/fleet") {
        Ok(response) if response.status == 200 => {
            print!("{}", response.body);
            ExitCode::SUCCESS
        }
        Ok(response) => {
            eprintln!(
                "fleet status: {frontier} answered {}: {}",
                response.status,
                response.body.trim()
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("fleet status: cannot reach {frontier}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the self-timed perf harness (or, with `--check`, only the report
/// validator) and writes/validates `BENCH_<label>.json`.
fn run_bench_command(opts: &Opts) -> ExitCode {
    if let Some(path) = opts.get::<String>("--check") {
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("bench: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match perf::validate(&text) {
            Ok(()) => {
                println!("{path}: valid {} report", perf::SCHEMA);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("bench: {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let options = perf::BenchOptions {
        quick: opts.has("--quick"),
        label: opts.get("--label").unwrap_or_else(|| "local".to_owned()),
        corpus: opts.get::<String>("--corpus").map(std::path::PathBuf::from),
    };
    println!(
        "bench: label {}{}",
        options.label,
        if options.quick { " (quick)" } else { "" }
    );
    let report = match perf::run(&options) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "replay:   {} workloads, {} instructions in {:.2} s ({:.0} instructions/s)",
        report.replay_workloads,
        report.replay.units,
        report.replay.wall_s,
        report.replay.rate()
    );
    println!(
        "sweep:    {} configurations; cold {:.2} s ({:.1} configs/s), \
         warm {:.2} s ({:.1} configs/s), {:.1}x speedup",
        report.sweep_configs,
        report.sweep_cold.wall_s,
        report.sweep_cold.rate(),
        report.sweep_warm.wall_s,
        report.sweep_warm.rate(),
        report.warm_speedup()
    );
    println!(
        "frontier: {} iterations over {} points in {:.2} s ({:.0} points/s)",
        report.frontier_iterations,
        report.frontier.units / report.frontier_iterations.max(1),
        report.frontier.wall_s,
        report.frontier.rate()
    );
    println!(
        "serve:    {} clients x{} pipelined; reactor {} req in {:.2} s ({:.0} req/s, \
         p50 {:.0} us, p99 {:.0} us)",
        report.serve.clients,
        report.serve.pipeline_depth,
        report.serve.reactor.units,
        report.serve.reactor.wall_s,
        report.serve.reactor.rate(),
        report.serve.reactor_p50_us,
        report.serve.reactor_p99_us
    );

    let json = report.to_json();
    // Self-check before writing: an emitted report that fails its own
    // schema is a bug, not an artifact.
    if let Err(e) = perf::validate(&json) {
        eprintln!("bench: emitted report fails validation: {e}");
        return ExitCode::FAILURE;
    }
    let path = opts
        .get("--out")
        .unwrap_or_else(|| format!("BENCH_{}.json", options.label));
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("bench: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {path}");

    // The regression gate: diff the fresh report against a baseline. Any
    // violation (shape mismatch or a >2x throughput regression) is printed
    // by name and fails the run — this is what CI diffs against the
    // checked-in baseline.
    if let Some(baseline_path) = opts.get::<String>("--compare") {
        let baseline = match std::fs::read_to_string(&baseline_path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("bench: cannot read baseline {baseline_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match perf::compare(&json, &baseline, perf::DEFAULT_MAX_SLOWDOWN) {
            Ok(lines) => {
                println!("compare vs {baseline_path}:");
                for line in lines {
                    println!("  {line}");
                }
            }
            Err(violations) => {
                for violation in violations {
                    eprintln!("bench: compare vs {baseline_path}: {violation}");
                }
                return ExitCode::FAILURE;
            }
        }
    }

    // Accumulate the perf trajectory: one compact row per measuring run,
    // appended to a rolling document CI archives alongside the full report.
    let trajectory_path = opts
        .get("--trajectory")
        .unwrap_or_else(|| "BENCH_trajectory.json".to_owned());
    let row = perf::trajectory_row(&report, &head_commit());
    match perf::append_trajectory(std::path::Path::new(&trajectory_path), &row) {
        Ok(rows) => println!("appended to {trajectory_path} ({rows} rows)"),
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// The short commit hash of `HEAD`, or `"unknown"` outside a git checkout.
fn head_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|hash| hash.trim().to_owned())
        .filter(|hash| !hash.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Records one kernel execution to a `.sctrace` file.
fn record_one(workload: &str, size: WorkloadSize, path: &Path) -> Result<(u64, u64), String> {
    let benchmark = find(workload, size).ok_or_else(|| format!("unknown workload '{workload}'"))?;
    let mut writer = sigcomp_isa::TraceWriter::new();
    writer.set_meta("source", workload);
    writer.set_meta("size", size.name());
    let mut encode_error = None;
    benchmark
        .run_each(|rec| {
            if encode_error.is_none() {
                if let Err(e) = writer.push(rec) {
                    encode_error = Some(e);
                }
            }
        })
        .map_err(|e| format!("kernel {workload} failed: {e}"))?;
    if let Some(e) = encode_error {
        return Err(format!("encoding {workload}: {e}"));
    }
    writer
        .finish_to_path(path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok((writer.records(), writer.digest()))
}

fn trace_record(opts: &Opts) -> ExitCode {
    let size = opts.get("--size").unwrap_or(WorkloadSize::Default);
    let Some(out) = opts.get::<String>("--out") else {
        return fail("trace record requires --out PATH");
    };
    let workload = opts.positionals.first().cloned();
    let targets: Vec<(String, std::path::PathBuf)> = match (opts.has("--all"), workload) {
        (true, Some(_)) => return fail("--all and a workload name are mutually exclusive"),
        (false, None) => return fail("trace record expects a workload name or --all"),
        (true, None) => {
            let dir = Path::new(&out);
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("trace record: cannot create {out}: {e}");
                return ExitCode::FAILURE;
            }
            suite_names()
                .iter()
                .map(|&name| (name.to_owned(), dir.join(format!("{name}.sctrace"))))
                .collect()
        }
        (false, Some(workload)) => vec![(workload, Path::new(&out).to_path_buf())],
    };
    for (workload, path) in &targets {
        match record_one(workload, size, path) {
            Ok((records, digest)) => println!(
                "recorded {workload} ({}): {records} records, digest {digest:016x} -> {}",
                size.name(),
                path.display()
            ),
            Err(e) => {
                eprintln!("trace record: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn trace_replay(opts: &Opts) -> ExitCode {
    let Some(file) = opts.positionals.first() else {
        return fail("trace replay expects a .sctrace file");
    };
    let input = match TraceInput::load(file) {
        Ok(input) => input,
        Err(e) => {
            eprintln!("trace replay: cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "replaying {} ({} records, digest {:016x})",
        input.name(),
        input.decoded().len(),
        input.digest()
    );
    let spec = SweepSpec::full(WorkloadSize::Tiny)
        .no_kernels()
        .trace_files(std::slice::from_ref(&input))
        .mems(&[MemProfile::Paper]);
    let spec = with_axes(spec, opts);
    if spec.is_empty() {
        eprintln!("trace replay: the requested configuration set is empty");
        return ExitCode::FAILURE;
    }
    let summary = run_sweep(&spec, &SweepOptions::default());
    let node = opts
        .get("--energy-model")
        .unwrap_or(ProcessNode::Paper180nm);
    let model = node.model();
    let leaky = model.has_leakage();
    if leaky {
        println!("energy model: {node}");
    }
    print!(
        "{:<44} {:>16} {:>12} {:>12} {:>7} {:>8}",
        "configuration", "job id", "instructions", "cycles", "CPI", "saving"
    );
    if leaky {
        print!(" {:>8} {:>8}", "leakage", "total");
    }
    println!();
    for outcome in &summary.outcomes {
        print!(
            "{:<44} {:016x} {:>12} {:>12} {:>7.3} {:>7.1}%",
            outcome.spec.label(),
            outcome.spec.job_id(),
            outcome.metrics.instructions,
            outcome.metrics.cycles,
            outcome.cpi(),
            outcome.dynamic_energy_saving(&model) * 100.0
        );
        if leaky {
            print!(
                " {:>7.1}% {:>7.1}%",
                outcome.leakage_saving(&model) * 100.0,
                outcome.energy_saving(&model) * 100.0
            );
        }
        println!();
    }
    ExitCode::SUCCESS
}

fn trace_stat(args: &[String]) -> ExitCode {
    let [file] = args else {
        return fail("trace stat expects exactly one .sctrace file");
    };
    let mut reader = match TraceReader::open(file) {
        Ok(reader) => reader,
        Err(e) => {
            eprintln!("trace stat: cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{file}:");
    println!("  records  {}", reader.records());
    println!("  digest   {:016x}", reader.declared_digest());
    for (key, value) in reader.meta().to_vec() {
        println!("  {key:<8} {value}");
    }
    let (mut loads, mut stores, mut branches, mut taken, mut writebacks) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut stats = SigStats::new();
    loop {
        match reader.next_record() {
            Ok(Some(rec)) => {
                stats.observe(&rec);
                if let Some(mem) = rec.mem {
                    if mem.is_store {
                        stores += 1;
                    } else {
                        loads += 1;
                    }
                }
                if let Some(branch) = rec.branch {
                    branches += 1;
                    taken += u64::from(branch.taken);
                }
                writebacks += u64::from(rec.writeback.is_some());
            }
            Ok(None) => break,
            Err(e) => {
                eprintln!("trace stat: {file}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("  loads      {loads}");
    println!("  stores     {stores}");
    println!("  branches   {branches} ({taken} taken)");
    println!("  writebacks {writebacks}");
    print!(
        "{}",
        histogram(
            "significant-byte patterns over the recorded operand values",
            "pattern",
            &pattern_histogram_rows(&stats)
        )
    );
    println!("  payload verified (count and digest match the header)");
    ExitCode::SUCCESS
}

fn trace_golden(args: &[String]) -> ExitCode {
    let [dir] = args else {
        return fail("trace golden expects exactly one output directory");
    };
    match golden::write_corpus(Path::new(dir)) {
        Ok(paths) => {
            for path in paths {
                println!("wrote {}", path.display());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace golden: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs `repro analyze <workload|file.sctrace>`: builds the CFG, solves the
/// width fixpoint and prints the static significance picture without
/// simulating a cycle. Trace files are reconstructed from their recorded
/// (pc, word) pairs and analyzed under an unknown entry state — and since
/// the dynamic values are right there, every record is differentially
/// verified against the computed bounds on the spot.
fn run_analyze_command(opts: &Opts) -> ExitCode {
    let Some(target) = opts.positionals.first().cloned() else {
        return fail("analyze expects a workload name or a .sctrace file");
    };
    let size = opts.get("--size").unwrap_or(WorkloadSize::Default);

    let is_trace = target.ends_with(".sctrace") || Path::new(&target).is_file();
    let report = if is_trace {
        let mut reader = match TraceReader::open(&target) {
            Ok(reader) => reader,
            Err(e) => {
                eprintln!("analyze: cannot read trace {target}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut records = Vec::new();
        loop {
            match reader.next_record() {
                Ok(Some(rec)) => records.push(rec),
                Ok(None) => break,
                Err(e) => {
                    eprintln!("analyze: {target}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let Some(program) = program_from_records(&records) else {
            eprintln!("analyze: {target}: the trace is empty, nothing to reconstruct");
            return ExitCode::FAILURE;
        };
        let analysis = analyze_program(&program, EntryState::Unknown);
        println!(
            "{target}: program reconstructed from {} records",
            records.len()
        );
        match verify_trace_against_bounds(&analysis, &records) {
            Ok(verified) => println!(
                "verified {} records ({} operand values) against the static bounds",
                verified.records, verified.values_checked
            ),
            Err(e) => {
                eprintln!("analyze: {target}: {e}");
                return ExitCode::FAILURE;
            }
        }
        WidthReport::from_analysis(&target, &analysis)
    } else {
        let Some(bench) = find(&target, size) else {
            return fail(&format!(
                "unknown workload '{target}' (expected one of {}, or an .sctrace file)",
                suite_names().join(", ")
            ));
        };
        let analysis = analyze_program(bench.program(), EntryState::KernelBoot);
        println!("{target} ({}): static width analysis", size.name());
        WidthReport::from_analysis(&target, &analysis)
    };

    println!(
        "  blocks        {} ({} reachable)",
        report.blocks, report.reachable_blocks
    );
    println!("  instructions  {}", report.instructions);
    println!("  operand slots {}", report.operand_slots());
    println!(
        "  mean bound    {:.2} bytes (predicted saving {:.1} %)",
        report.mean_bound_bytes(),
        report.predicted_saving() * 100.0
    );
    println!();
    print!(
        "{}",
        histogram(
            "Static width bounds (operand slots proven to fit k bytes)",
            "bound",
            &report.histogram_rows()
        )
    );
    println!();
    println!(
        "{:<10} {:>8} {:>14} {:>12}",
        "op", "count", "mean op bytes", "result bound"
    );
    for row in &report.per_op {
        println!(
            "{:<10} {:>8} {:>14.2} {:>12}",
            row.op.mnemonic(),
            row.count,
            row.mean_operand_bytes,
            row.result.map_or("-", Width::label)
        );
    }

    for (flag, content, what) in [
        ("--csv", report.to_csv(), "CSV"),
        ("--json", report.to_json(), "JSON"),
    ] {
        if let Some(path) = opts.get::<String>(flag) {
            if let Err(e) = std::fs::write(&path, content) {
                eprintln!("analyze: cannot write {what} to {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {what} to {path}");
        }
    }
    ExitCode::SUCCESS
}

/// Runs one shard of a sharded sweep (the subprocess-backend worker
/// protocol; see `sigcomp_explore::backend`): reads the deduped job list
/// from stdin — one wire line per job, sorted by job id by the parent —
/// executes its `round_robin` share `I/N` on the in-process executor
/// against the shared result cache, and reports per-job provenance on
/// stdout for the parent to verify.
fn run_worker_command(opts: &Opts) -> ExitCode {
    let Some((index, count)) = opts.get("--shard") else {
        return fail("worker requires --shard INDEX/COUNT");
    };
    if let Some(path) = opts.get::<String>("--obs-log") {
        if let Err(e) = sigcomp_obs::global().open_jsonl_log(Path::new(&path)) {
            eprintln!("worker: cannot open obs log {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let Some(cache_dir) = opts.get::<String>("--cache") else {
        return fail("worker requires --cache DIR (the shared merge point)");
    };
    let cache = match ResultCache::open(&cache_dir) {
        Ok(cache) => cache,
        Err(e) => {
            eprintln!("worker: cannot open result cache at {cache_dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace_paths: Vec<String> = opts.get("--traces").unwrap_or_default();
    let mut traces = Vec::with_capacity(trace_paths.len());
    for path in &trace_paths {
        match TraceInput::load(path) {
            Ok(input) => traces.push(input),
            Err(e) => {
                eprintln!("worker: cannot read trace {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Drain stdin to EOF *before* simulating — the parent relies on this to
    // feed every worker without deadlocking against their reports.
    let mut wire = String::new();
    if let Err(e) = std::io::Read::read_to_string(&mut std::io::stdin().lock(), &mut wire) {
        eprintln!("worker: cannot read the job list from stdin: {e}");
        return ExitCode::FAILURE;
    }
    // Every line is validated — a malformed list must fail loudly even if
    // the bad line belongs to a sibling shard.
    let all: Vec<JobSpec> = match wire
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(JobSpec::from_wire)
        .collect()
    {
        Ok(all) => all,
        Err(e) => {
            eprintln!("worker: {e}");
            return ExitCode::FAILURE;
        }
    };
    let jobs: Vec<JobSpec> = round_robin(&all, index, count).copied().collect();
    for job in &jobs {
        if let TraceSource::File { digest } = job.source {
            if !traces.iter().any(|t| t.digest() == digest) {
                eprintln!(
                    "worker: no trace with digest {digest:016x} for job {} \
                     (pass its .sctrace file via --traces)",
                    job.label()
                );
                return ExitCode::FAILURE;
            }
        }
    }

    let options = SweepOptions {
        workers: opts.get("--workers"),
        cache: Some(cache),
        backend: ExecBackend::LocalThreads,
    };
    let summary = run_jobs_traced(&jobs, &traces, &options);
    println!("{WORKER_HEADER} shard {index}/{count}");
    for outcome in &summary.outcomes {
        println!(
            "{}",
            JobLedger::line(outcome.spec.job_id(), outcome.from_cache)
        );
    }
    // The registry snapshot travels home on the report stream (v2 `obs`
    // lines, strictly before `done`) so the parent can merge a per-shard
    // view that sums to the single-process run.
    for line in sigcomp_obs::global().snapshot().to_wire().lines() {
        println!("obs {line}");
    }
    println!(
        "done jobs={} simulated={} cached={}",
        summary.outcomes.len(),
        summary.simulated(),
        summary.cached()
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    // `trace`, `worker` and `analyze` own their own grammars (subcommand +
    // positional files / the shard protocol flags), so they are dispatched
    // before the main grammar.
    match argv.first().map(String::as_str) {
        Some("trace") => {
            let rest = argv.get(2..).unwrap_or_default();
            return match argv.get(1).map(String::as_str) {
                Some("record") => run_with(&RECORD_ARGS, rest, trace_record),
                Some("replay") => run_with(&REPLAY_ARGS, rest, trace_replay),
                Some("stat") => trace_stat(rest),
                Some("golden") => trace_golden(rest),
                Some(other) => fail(&format!("unknown trace subcommand '{other}'")),
                None => fail("trace expects a subcommand (record, replay, stat or golden)"),
            };
        }
        Some("worker") => return run_with(&WORKER_ARGS, &argv[1..], run_worker_command),
        Some("analyze") => return run_with(&ANALYZE_ARGS, &argv[1..], run_analyze_command),
        // `fleet <verb>` reuses the main grammar (a fleet sweep takes the
        // same axes/cache/export flags as a plain sweep): the verb is
        // rewritten into an internal command name.
        Some("fleet") => {
            let command = match argv.get(1).map(String::as_str) {
                Some("serve") => "fleet-serve",
                Some("sweep") => "fleet-sweep",
                Some("status") => "fleet-status",
                Some(other) => {
                    return fail(&format!(
                        "unknown fleet subcommand '{other}' (expected serve, sweep or status)"
                    ))
                }
                None => return fail("fleet expects a subcommand (serve, sweep or status)"),
            };
            argv.splice(..2, [command.to_owned()]);
        }
        _ => {}
    }
    run_with(&MAIN_ARGS, &argv, run_commands)
}

/// Runs the main grammar's commands in order, stopping at the first failure.
fn run_commands(opts: &Opts) -> ExitCode {
    if opts.has("--help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let size = opts.get("--size").unwrap_or(WorkloadSize::Default);

    // One JSONL event stream per process: opened up front so every
    // instrumented path of every requested subcommand feeds it.
    if let Some(path) = opts.get::<String>("--obs-log") {
        if let Err(e) = sigcomp_obs::global().open_jsonl_log(Path::new(&path)) {
            eprintln!("repro: cannot open obs log {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    // The activity studies feed several tables; run them lazily and only once.
    let mut byte_rows = None;
    let mut half_rows = None;
    let mut byte_activity = |size: WorkloadSize| {
        byte_rows
            .get_or_insert_with(|| activity_study(size, &AnalyzerConfig::paper_byte()))
            .clone()
    };
    let mut half_activity = |size: WorkloadSize| {
        half_rows
            .get_or_insert_with(|| activity_study(size, &AnalyzerConfig::paper_halfword()))
            .clone()
    };

    for command in &opts.positionals {
        let expanded: Vec<&str> = if command == "all" {
            PAPER.to_vec()
        } else {
            vec![command.as_str()]
        };
        for cmd in expanded {
            let code = match cmd {
                "sweep" => run_sweep_command(size, opts, false),
                "fleet-sweep" => run_sweep_command(size, opts, true),
                "fleet-status" => run_fleet_status_command(opts),
                "energy" => run_energy_command(size, opts),
                "serve" | "fleet-serve" => return run_serve_command(opts),
                "bench" => run_bench_command(opts),
                artefact => {
                    let text = match artefact {
                        "table1" => table1(&merged_stats(&byte_activity(size))),
                        "table2" => table2(),
                        "table3" => table3(&merged_stats(&byte_activity(size))),
                        "table4" => table4(),
                        "table5" => activity_table(&byte_activity(size), ExtScheme::ThreeBit),
                        "table6" => activity_table(&half_activity(size), ExtScheme::Halfword),
                        "bottleneck" => bottleneck(size),
                        fig => {
                            let number = fig["fig".len()..].parse().expect("a figure command");
                            let title = match number {
                                4 => "Figure 4: CPI of the byte-serial and halfword-serial pipelines",
                                6 => "Figure 6: CPI of the byte semi-parallel pipeline",
                                8 => "Figure 8: CPI of the byte-parallel skewed pipeline",
                                _ => "Figure 10: CPI of the byte-parallel compressed and skewed+bypass pipelines",
                            };
                            let kinds = figure_orgs(number);
                            figure(title, &cpi_study(size, &kinds), &kinds)
                        }
                    };
                    print!("{text}");
                    ExitCode::SUCCESS
                }
            };
            if code != ExitCode::SUCCESS {
                return code;
            }
            println!();
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|&arg| arg.to_owned()).collect()
    }

    fn parse_main(args: &[&str]) -> Result<Opts, String> {
        parse(&MAIN_ARGS, &strings(args))
    }

    /// The flag-like tokens of the usage text: `--size`, `-o`, …
    fn usage_flags() -> Vec<&'static str> {
        USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|token| token.starts_with('-') && token.len() > 1)
            .collect()
    }

    #[test]
    fn the_usage_text_and_the_table_name_the_same_flags() {
        let usage = usage_flags();
        for row in OPTS {
            for name in row.names {
                assert!(usage.contains(name), "{name} is missing from USAGE");
            }
        }
        for token in usage {
            assert!(
                OPTS.iter().any(|row| row.names.contains(&token)),
                "USAGE names {token}, which no table row accepts"
            );
        }
    }

    #[test]
    fn scope_errors_render_the_messages_the_cli_tests_pin() {
        for (args, message) in [
            (
                &["--csv", "out.csv", "table1"][..],
                "--csv only applies to the sweep and fleet sweep subcommands",
            ),
            (
                &["serve", "--schemes", "3bit"],
                "--schemes only applies to the sweep, fleet sweep and energy subcommands",
            ),
            (
                &["sweep", "--addr", "127.0.0.1:1"],
                "--addr only applies to the serve and fleet serve subcommands",
            ),
            (
                &["energy", "--energy-model", "modern-7nm"],
                "--energy-model only applies to the sweep and fleet sweep subcommands",
            ),
            (
                &["table1", "--workers", "2"],
                "--workers/--cache/--no-cache only apply to the sweep, energy and serve \
                 subcommands",
            ),
            (
                &["bench", "--no-cache"],
                "--workers/--cache/--no-cache only apply to the sweep, energy and serve \
                 subcommands",
            ),
            (
                &["table1", "--traces", "x.sctrace"],
                "--traces only applies to the sweep and fleet sweep subcommands",
            ),
            (
                &["table1", "--shards", "2"],
                "--shards only applies to the sweep subcommand",
            ),
            (
                &["table1", "--backend", "local"],
                "--backend only applies to the serve and fleet serve subcommands",
            ),
            (
                &["table1", "--max-conns", "64"],
                "--max-conns only applies to the serve and fleet serve subcommands",
            ),
            (
                &["table1", "--static-prune", "50"],
                "--static-prune only applies to the sweep and fleet sweep subcommands",
            ),
            (
                &["sweep", "--check", "x.json"],
                "--check only applies to the bench subcommand",
            ),
            (
                &["table1", "--obs-log", "x.jsonl"],
                "--obs-log only applies to the sweep, serve and bench subcommands",
            ),
            (
                &["--size", "tiny", "serve"],
                "--size only applies to the table, figure, bottleneck, all, sweep, fleet sweep \
                 and energy subcommands",
            ),
        ] {
            assert_eq!(parse_main(args).err().as_deref(), Some(message), "{args:?}");
        }
    }

    #[test]
    fn an_invalid_value_is_reported_before_the_scope() {
        assert_eq!(
            parse_main(&["table1", "--workers", "0"]).err().as_deref(),
            Some("invalid value '0' for --workers (expected a positive integer)")
        );
    }

    #[test]
    fn values_read_back_as_the_types_their_commands_use() {
        let opts = parse_main(&[
            "--size",
            "tiny",
            "sweep",
            "--workers",
            "3",
            "--workers",
            "4",
            "--orgs",
            "all",
            "--static-prune",
            "12.5",
            "--no-cache",
        ])
        .unwrap();
        assert_eq!(opts.positionals, ["sweep"]);
        assert_eq!(opts.get("--size"), Some(WorkloadSize::Tiny));
        assert_eq!(opts.get("--workers"), Some(4usize), "the last value wins");
        assert_eq!(opts.get("--orgs"), Some(OrgKind::ALL.to_vec()));
        assert_eq!(opts.get("--static-prune"), Some(12.5f64));
        assert!(opts.has("--no-cache"));
        assert_eq!(opts.get::<String>("--cache"), None);

        let opts = parse_main(&[]).unwrap();
        assert_eq!(opts.positionals, ["all"], "no command means all");
        assert_eq!(PAPER.last(), Some(&"bottleneck"));
        assert_eq!(SIZED.commands.last(), Some(&"energy"));
    }

    #[test]
    fn standalone_grammars_admit_only_their_own_rows() {
        let opts = parse(&RECORD_ARGS, &strings(&["rawcaudio", "-o", "x.sctrace"])).unwrap();
        assert_eq!(opts.get::<String>("--out").as_deref(), Some("x.sctrace"));
        assert_eq!(
            parse(
                &REPLAY_ARGS,
                &strings(&["f.sctrace", "--energy-model", "a,b"])
            )
            .err()
            .as_deref(),
            Some(
                "invalid value 'a,b' for --energy-model \
                 (expected one of paper-180nm, generic-45nm, modern-7nm)"
            )
        );
        assert_eq!(
            parse(&WORKER_ARGS, &strings(&["--no-cache"]))
                .err()
                .as_deref(),
            Some("unknown worker option '--no-cache'")
        );
        assert_eq!(
            parse(&ANALYZE_ARGS, &strings(&["a", "b"])).err().as_deref(),
            Some("analyze expects exactly one workload or .sctrace file")
        );
        assert_eq!(
            parse(&MAIN_ARGS, &strings(&["-o", "x"])).err().as_deref(),
            Some("unknown option '-o'")
        );
    }
}
