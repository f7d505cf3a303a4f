//! `obs_report` — the profiler CLI over `eadrl-obs` JSONL traces.
//!
//! ```text
//! obs_report tree    TRACE [--json] [--raw] [--top N]
//! obs_report flame   TRACE [--raw] [--out FILE]
//! obs_report workers TRACE [--json]
//! obs_report diff    BASE NEW [--threshold X] [--min-us N] [--json] [--raw]
//! obs_report check   TRACE [--schema DESIGN.md] [--require NAME]... [--allow-truncated]
//! ```
//!
//! `check` is the trace health gate: every line must parse as an
//! [`eadrl_obs::Event`], the trace must hold events and no ring-buffer
//! drops, `--schema` checks every event and span-path segment against
//! DESIGN.md's "Telemetry event schema" table, and each `--require NAME`
//! demands an event whose name or one of its span-path segments is NAME
//! ([`eadrl_obs::Event::name_matches`]).
//!
//! By default the span tree collapses `par.worker` chunk spans so the
//! report shape is independent of `EADRL_PAR_THREADS` (see
//! [`eadrl_prof::TreeOptions::shape_stable`]); `--raw` keeps them.
//!
//! Exit codes: `0` clean, `1` gate failure (`diff` found a regression,
//! `check` found a problem), `2` usage or I/O error.

use eadrl_obs::{ObsSchema, Value};
use eadrl_prof::{
    flame, report, DiffOptions, DiffReport, SpanTree, Trace, TreeOptions, Utilization,
};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: obs_report <tree|flame|workers|diff|check> ... (see --help)";

const HELP: &str = "obs_report - profile eadrl-obs JSONL traces

subcommands:
  tree    TRACE [--json] [--raw] [--top N]    span-tree attribution report
  flame   TRACE [--raw] [--out FILE]          folded stacks for flamegraph tools
  workers TRACE [--json]                      per-worker utilization
  diff    BASE NEW [--threshold X] [--min-us N] [--json] [--raw]
                                              latency diff; exit 1 on regression
  check   TRACE [--schema DESIGN.md] [--require NAME]... [--allow-truncated]
                                              trace health gate; exit 1 on problems

--raw keeps per-chunk par.worker spans (thread-count-dependent shape).";

/// Errors carry the exit code they deserve: 1 = gate, 2 = usage/I/O.
struct Failure {
    code: u8,
    message: String,
}

fn usage_err(message: impl Into<String>) -> Failure {
    Failure {
        code: 2,
        message: message.into(),
    }
}

fn gate_err(message: impl Into<String>) -> Failure {
    Failure {
        code: 1,
        message: message.into(),
    }
}

fn load(path: &str) -> Result<Trace, Failure> {
    Trace::load(Path::new(path)).map_err(usage_err)
}

fn tree_options(raw: bool) -> TreeOptions {
    if raw {
        TreeOptions::default()
    } else {
        TreeOptions::shape_stable()
    }
}

struct Flags {
    positional: Vec<String>,
    json: bool,
    raw: bool,
    top: usize,
    out: Option<String>,
    threshold: f64,
    min_us: u64,
    schema: Option<String>,
    require: Vec<String>,
    allow_truncated: bool,
}

fn parse_flags(args: impl Iterator<Item = String>) -> Result<Flags, Failure> {
    let defaults = DiffOptions::default();
    let mut flags = Flags {
        positional: Vec::new(),
        json: false,
        raw: false,
        top: 10,
        out: None,
        threshold: defaults.threshold,
        min_us: defaults.min_us,
        schema: None,
        require: Vec::new(),
        allow_truncated: false,
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let value_of = |flag: &str, args: &mut dyn Iterator<Item = String>| {
            args.next()
                .ok_or_else(|| usage_err(format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--json" => flags.json = true,
            "--raw" => flags.raw = true,
            "--allow-truncated" => flags.allow_truncated = true,
            "--top" => {
                let v = value_of("--top", &mut args)?;
                flags.top = v
                    .parse()
                    .map_err(|_| usage_err(format!("--top: '{v}' is not a count")))?;
            }
            "--out" => flags.out = Some(value_of("--out", &mut args)?),
            "--threshold" => {
                let v = value_of("--threshold", &mut args)?;
                flags.threshold = v
                    .parse()
                    .ok()
                    .filter(|t: &f64| t.is_finite() && *t > 0.0)
                    .ok_or_else(|| {
                        usage_err(format!("--threshold: '{v}' is not a positive ratio"))
                    })?;
            }
            "--min-us" => {
                let v = value_of("--min-us", &mut args)?;
                flags.min_us = v
                    .parse()
                    .map_err(|_| usage_err(format!("--min-us: '{v}' is not a count")))?;
            }
            "--schema" => flags.schema = Some(value_of("--schema", &mut args)?),
            "--require" => flags.require.push(value_of("--require", &mut args)?),
            other if other.starts_with("--") => {
                return Err(usage_err(format!("unknown flag '{other}'")));
            }
            _ => flags.positional.push(arg),
        }
    }
    Ok(flags)
}

fn one_trace(flags: &Flags) -> Result<String, Failure> {
    match flags.positional.as_slice() {
        [path] => Ok(path.clone()),
        _ => Err(usage_err("expected exactly one TRACE argument")),
    }
}

fn cmd_tree(flags: &Flags) -> Result<(), Failure> {
    let trace = load(&one_trace(flags)?)?;
    let tree = SpanTree::build(&trace, &tree_options(flags.raw));
    if flags.json {
        println!("{}", report::tree_json(&tree, &trace).to_json());
    } else {
        print!("{}", report::tree_text(&tree, &trace));
        println!();
        print!("{}", report::hotspots_text(&tree, flags.top));
    }
    eadrl_obs::event(
        "prof.report",
        eadrl_obs::Level::Info,
        &[("spans", Value::U64(tree.nodes.len() as u64))],
    );
    Ok(())
}

fn cmd_flame(flags: &Flags) -> Result<(), Failure> {
    let trace = load(&one_trace(flags)?)?;
    let tree = SpanTree::build(&trace, &tree_options(flags.raw));
    let folded = flame::folded(&tree);
    match &flags.out {
        Some(path) => std::fs::write(path, &folded)
            .map_err(|e| usage_err(format!("cannot write {path}: {e}")))?,
        None => print!("{folded}"),
    }
    Ok(())
}

fn cmd_workers(flags: &Flags) -> Result<(), Failure> {
    let trace = load(&one_trace(flags)?)?;
    let util = Utilization::analyze(&trace);
    if flags.json {
        println!("{}", report::workers_json(&util).to_json());
    } else {
        print!("{}", report::workers_text(&util));
    }
    Ok(())
}

fn cmd_diff(flags: &Flags) -> Result<(), Failure> {
    let [base_path, new_path] = flags.positional.as_slice() else {
        return Err(usage_err("expected BASE and NEW trace arguments"));
    };
    let options = tree_options(flags.raw);
    let base = SpanTree::build(&load(base_path)?, &options);
    let new = SpanTree::build(&load(new_path)?, &options);
    let diff_options = DiffOptions {
        threshold: flags.threshold,
        min_us: flags.min_us,
    };
    let result = DiffReport::compare(&base, &new, &diff_options);
    if flags.json {
        println!("{}", report::diff_json(&result).to_json());
    } else {
        print!("{}", report::diff_text(&result));
    }
    eadrl_obs::event(
        "prof.diff",
        eadrl_obs::Level::Info,
        &[("regressions", Value::U64(result.regressions().len() as u64))],
    );
    if result.has_regressions() {
        return Err(gate_err(format!(
            "{}: {} path(s) regressed past {:.2}x vs {}",
            new_path,
            result.regressions().len(),
            flags.threshold,
            base_path,
        )));
    }
    Ok(())
}

fn cmd_check(flags: &Flags) -> Result<(), Failure> {
    let path = one_trace(flags)?;
    let trace = load(&path)?;
    if trace.events.is_empty() {
        return Err(gate_err(format!("{path}: trace contains no events")));
    }
    if !flags.allow_truncated {
        if let Some((lineno, err)) = trace.bad_lines.first() {
            return Err(gate_err(format!(
                "{path}:{lineno}: damaged line ({err}); {} total",
                trace.bad_lines.len()
            )));
        }
        if let Some(dropped) = trace.ring_dropped {
            return Err(gate_err(format!(
                "{path}: ring buffer dropped {dropped} event(s); trace is incomplete"
            )));
        }
    }
    if let Some(md_path) = &flags.schema {
        let md = std::fs::read_to_string(md_path)
            .map_err(|e| usage_err(format!("cannot read {md_path}: {e}")))?;
        let schema = ObsSchema::from_design_md(&md).ok_or_else(|| {
            usage_err(format!(
                "{md_path}: no 'Telemetry event schema' table found"
            ))
        })?;
        for event in &trace.events {
            if event.kind != eadrl_obs::EventKind::Metric && !schema.matches_path(&event.name) {
                return Err(gate_err(format!(
                    "{path}: event name '{}' is not in the schema table",
                    event.name
                )));
            }
        }
    }
    for name in &flags.require {
        if !trace.events.iter().any(|event| event.name_matches(name)) {
            return Err(gate_err(format!(
                "{path}: no event named '{name}' in {} events",
                trace.events.len()
            )));
        }
    }
    let tree = SpanTree::build(&trace, &TreeOptions::shape_stable());
    println!(
        "{path}: {} events, {} span paths OK",
        trace.events.len(),
        tree.nodes.len()
    );
    Ok(())
}

fn run() -> Result<(), Failure> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or_else(|| usage_err(USAGE))?;
    if command == "--help" || command == "-h" || command == "help" {
        println!("{HELP}");
        return Ok(());
    }
    let flags = parse_flags(args)?;
    match command.as_str() {
        "tree" => cmd_tree(&flags),
        "flame" => cmd_flame(&flags),
        "workers" => cmd_workers(&flags),
        "diff" => cmd_diff(&flags),
        "check" => cmd_check(&flags),
        other => Err(usage_err(format!("unknown subcommand '{other}'; {USAGE}"))),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(failure) => {
            eprintln!("obs_report: {}", failure.message);
            ExitCode::from(failure.code)
        }
    }
}
