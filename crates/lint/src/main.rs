//! CLI for `eadrl-lint`. See the library docs for the rule set.
//!
//! ```text
//! cargo run -p eadrl-lint -- [--json] [--design DESIGN.md] [--list-rules] [paths…]
//! cargo run -p eadrl-lint -- --deep [--report F] [--baseline F] [--graph F] [paths…]
//! cargo run -p eadrl-lint -- --explain <fn> | --stale-allows [paths…]
//! ```
//!
//! `--deep` runs the call-graph passes (`panic-reachable`,
//! `hot-path-alloc`, `determinism-taint`, `unreachable-pub`) and the
//! `stale-allow` check on top of the line rules. `--report` writes the panic verdict table
//! (`lint-panic-report.json`); `--baseline` diffs fresh verdicts against
//! a committed report and fails on any new panic-reachable pub fn;
//! `--graph` writes the call graph as DOT; `--explain <fn>` prints a
//! fn's verdict and offending chains; `--stale-allows` reports *only*
//! unused suppression markers.
//!
//! Exit codes: 0 clean, 1 unsuppressed findings or baseline regression,
//! 2 usage or I/O error.

use eadrl_lint::deep::{self, Analysis, HotPathConfig};
use eadrl_lint::{default_rules, lint_file, report_to_json, LintContext, LintReport, ObsSchema};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Options {
    json: bool,
    list_rules: bool,
    deep: bool,
    stale_only: bool,
    design: PathBuf,
    report_path: Option<PathBuf>,
    baseline_path: Option<PathBuf>,
    graph_path: Option<PathBuf>,
    explain: Option<String>,
    paths: Vec<PathBuf>,
}

fn usage() {
    eprintln!(
        "usage: eadrl-lint [--json] [--design DESIGN.md] [--list-rules] [paths…]\n\
         \x20      eadrl-lint --deep [--report FILE] [--baseline FILE] [--graph FILE] [paths…]\n\
         \x20      eadrl-lint --explain <fn> [paths…]\n\
         \x20      eadrl-lint --stale-allows [paths…]\n\
         default paths: crates src examples tests"
    );
}

fn parse_args() -> Result<Options, ExitCode> {
    let mut opts = Options {
        json: false,
        list_rules: false,
        deep: false,
        stale_only: false,
        design: PathBuf::from("DESIGN.md"),
        report_path: None,
        baseline_path: None,
        graph_path: None,
        explain: None,
        paths: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    let path_arg = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().map(PathBuf::from).ok_or_else(|| {
            eprintln!("eadrl-lint: {flag} needs a path");
            ExitCode::from(2)
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--list-rules" => opts.list_rules = true,
            "--deep" => opts.deep = true,
            "--stale-allows" => {
                opts.deep = true;
                opts.stale_only = true;
            }
            "--design" => opts.design = path_arg(&mut args, "--design")?,
            "--report" => {
                opts.deep = true;
                opts.report_path = Some(path_arg(&mut args, "--report")?);
            }
            "--baseline" => {
                opts.deep = true;
                opts.baseline_path = Some(path_arg(&mut args, "--baseline")?);
            }
            "--graph" => {
                opts.deep = true;
                opts.graph_path = Some(path_arg(&mut args, "--graph")?);
            }
            "--explain" => {
                opts.deep = true;
                match args.next() {
                    Some(p) => opts.explain = Some(p),
                    None => {
                        eprintln!(
                            "eadrl-lint: --explain needs a fn name (e.g. `core::EaDrl::fit`)"
                        );
                        return Err(ExitCode::from(2));
                    }
                }
            }
            "--help" | "-h" => {
                usage();
                return Err(ExitCode::SUCCESS);
            }
            flag if flag.starts_with('-') => {
                eprintln!("eadrl-lint: unknown flag {flag}");
                return Err(ExitCode::from(2));
            }
            path => opts.paths.push(PathBuf::from(path)),
        }
    }
    if opts.paths.is_empty() {
        opts.paths = eadrl_lint::workspace_dirs(Path::new(""));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(code) => return code,
    };
    if opts.list_rules {
        for rule in default_rules() {
            println!("{:<18} {}", rule.name(), rule.description());
        }
        for (name, help) in deep::RULE_HELP {
            println!("{name:<18} {help}");
        }
        return ExitCode::SUCCESS;
    }

    let design_text = std::fs::read_to_string(&opts.design).ok();
    let schema = design_text.as_deref().and_then(ObsSchema::from_design_md);
    if schema.is_none() {
        eprintln!(
            "eadrl-lint: warning: no telemetry schema table found at {} — obs-event-schema rule disabled",
            opts.design.display()
        );
    }
    let have_schema = schema.is_some();
    let ctx = LintContext { schema };

    if !opts.deep {
        return run_line_only(&opts, &ctx);
    }

    // Deep mode: parse once, run the line engine and the call-graph
    // passes over the same files.
    let analysis = match Analysis::load(&opts.paths, Path::new(".")) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("eadrl-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let rules = default_rules();
    let mut report = LintReport::default();
    for file in &analysis.files {
        let (active, suppressed) = lint_file(&rules, &ctx, file);
        report.findings.extend(active);
        report.suppressed.extend(suppressed);
        report.files += 1;
    }

    let hot = design_text
        .as_deref()
        .and_then(HotPathConfig::from_design_md);
    if hot.is_none() {
        eprintln!(
            "eadrl-lint: warning: no hot-path table found at {} — hot-path-alloc pass disabled",
            opts.design.display()
        );
    }
    let deep_report = deep::run_deep(&analysis, hot.as_ref());

    if let Some(pattern) = &opts.explain {
        return explain(&analysis, &deep_report, pattern);
    }

    if let Some(path) = &opts.graph_path {
        if let Err(e) = std::fs::write(path, analysis.graph.to_dot()) {
            eprintln!("eadrl-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if let Some(path) = &opts.report_path {
        if let Err(e) = std::fs::write(path, deep::panic_report_json(&deep_report.verdicts)) {
            eprintln!("eadrl-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    // Stale-allow check: markers neither engine used.
    let line_used = deep::line_used_markers(&analysis.files, &report.suppressed);
    let stale = deep::stale_allows(
        &analysis.files,
        &line_used,
        &deep_report.used_markers,
        have_schema,
    );

    let mut combined = LintReport {
        findings: Vec::new(),
        suppressed: report.suppressed,
        files: report.files,
    };
    if opts.stale_only {
        combined.findings = stale;
    } else {
        combined.findings.extend(report.findings);
        combined
            .findings
            .extend(deep_report.findings.iter().cloned());
        combined.findings.extend(stale);
        combined
            .findings
            .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    }

    let mut baseline_errors = Vec::new();
    if let Some(path) = &opts.baseline_path {
        match std::fs::read_to_string(path) {
            Ok(text) => match deep::diff_baseline(&deep_report.verdicts, &text) {
                Ok(errs) => baseline_errors = errs,
                Err(e) => {
                    eprintln!("eadrl-lint: {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            },
            Err(e) => {
                eprintln!("eadrl-lint: cannot read baseline {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }

    if opts.json {
        println!("{}", report_to_json(&combined));
        for e in &baseline_errors {
            eprintln!("eadrl-lint: baseline: {e}");
        }
    } else {
        for f in &combined.findings {
            println!("{}:{}: [{}] {}", f.path, f.line, f.rule, f.message);
        }
        for e in &baseline_errors {
            println!("baseline: {e}");
        }
        let panicking = deep_report
            .verdicts
            .iter()
            .filter(|v| v.verdict == "panics-via")
            .count();
        let allowed = deep_report
            .verdicts
            .iter()
            .filter(|v| v.verdict == "allowed")
            .count();
        println!(
            "eadrl-lint: {} finding(s), {} suppressed, {} file(s), {} fn(s) in graph; verdicts: {} safe / {} allowed / {} panics-via",
            combined.findings.len(),
            combined.suppressed.len(),
            combined.files,
            analysis.graph.nodes.len(),
            deep_report.verdicts.len() - allowed - panicking,
            allowed,
            panicking,
        );
    }
    if combined.findings.is_empty() && baseline_errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_line_only(opts: &Options, ctx: &LintContext) -> ExitCode {
    let report = match eadrl_lint::lint_paths(&opts.paths, ctx) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("eadrl-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.json {
        println!("{}", report_to_json(&report));
    } else {
        for f in &report.findings {
            println!("{}:{}: [{}] {}", f.path, f.line, f.rule, f.message);
        }
        println!(
            "eadrl-lint: {} finding(s), {} suppressed, {} file(s) checked",
            report.findings.len(),
            report.suppressed.len(),
            report.files
        );
    }
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--explain <fn>`: the fn's panic verdict (with chain) plus every deep
/// finding whose chain mentions it.
fn explain(analysis: &Analysis, deep_report: &deep::DeepReport, pattern: &str) -> ExitCode {
    let mut shown = false;
    for v in &deep_report.verdicts {
        if v.qualified == pattern || v.qualified.ends_with(&format!("::{pattern}")) {
            shown = true;
            println!("{} ({}:{})", v.qualified, v.file, v.line);
            println!("  panic verdict: {}", v.verdict);
            if let Some(chain) = &v.chain {
                println!("  chain: {chain}");
            }
        }
    }
    let mut related = 0;
    for f in &deep_report.findings {
        if f.message.contains(pattern) {
            related += 1;
            println!("finding [{}] {}:{}: {}", f.rule, f.path, f.line, f.message);
        }
    }
    if !shown && related == 0 {
        // Maybe it's a non-pub fn: report graph membership at least.
        let ids = analysis.graph.find(&analysis.asts, pattern);
        if ids.is_empty() {
            eprintln!("eadrl-lint: no workspace fn matches `{pattern}`");
            return ExitCode::from(2);
        }
        for id in ids {
            let n = &analysis.graph.nodes[id];
            println!(
                "{} ({}:{}) — not a pub library fn; no verdict tracked, {} outgoing call edge(s)",
                n.qualified(),
                n.rel_path,
                n.line,
                analysis.graph.edges[id].len()
            );
        }
    }
    ExitCode::SUCCESS
}
