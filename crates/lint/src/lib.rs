//! `eadrl-lint` — project-specific static analysis for the EA-DRL
//! workspace.
//!
//! A reproduction of EA-DRL (Saadallah et al., ICDE 2021) lives or dies
//! on numeric and run-to-run determinism: rank rewards (`r_t = m + 1 −
//! rank`) and Bayesian sign-rank comparisons are meaningless if a
//! panicking `.unwrap()`, an accidental float `==`, or a
//! `HashMap`-ordered iteration corrupts one of the compared methods.
//! This crate is a zero-dependency (std-only) lint tool with a
//! hand-rolled Rust lexer and a pluggable rule engine, run in CI as a
//! blocking step:
//!
//! ```text
//! cargo run -p eadrl-lint -- [--json] [--design DESIGN.md] [paths…]
//! ```
//!
//! Rules (see `CONTRIBUTING.md` for the full contract):
//!
//! * `no-unwrap-in-lib` — no panicking escape hatches in library code;
//! * `no-float-eq` — exact float comparison must be annotated;
//! * `determinism` — no wall-clock reads outside obs/bench, no hash
//!   collections in result-producing crates;
//! * `obs-event-schema` — telemetry names validate against `DESIGN.md`;
//! * `doc-header` — public linalg/timeseries items carry doc comments.
//!
//! Findings are suppressed line-by-line with
//! `// eadrl-lint: allow(<rule>): <justification>`; a marker without a
//! justification is itself a finding.
#![forbid(unsafe_code)]

pub mod ast;
pub mod callgraph;
pub mod deep;
pub mod lexer;
pub mod rules;
pub mod source;

pub use rules::{
    default_rules, lint_file, lint_source, Finding, LintContext, LintReport, ObsSchema, Rule,
};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Recursively collects `.rs` files under `root`, sorted for
/// deterministic output. Directories named `target`, `fixtures` or
/// `.git` are skipped (fixtures contain *intentional* findings).
pub fn collect_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    if root.is_file() {
        if root.extension().is_some_and(|e| e == "rs") {
            out.push(root.to_path_buf());
        }
        return Ok(out);
    }
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().to_string())
                .unwrap_or_default();
            if path.is_dir() {
                if name != "target" && name != "fixtures" && name != ".git" {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lints every `.rs` file under the given roots with the default rules.
pub fn lint_paths(roots: &[PathBuf], ctx: &LintContext) -> io::Result<LintReport> {
    let rules = default_rules();
    let mut report = LintReport::default();
    for root in roots {
        for path in collect_rs_files(root)? {
            let text = fs::read_to_string(&path)?;
            let rel = path.to_string_lossy().replace('\\', "/");
            let (active, suppressed) = lint_source(&rules, ctx, &rel, &text);
            report.findings.extend(active);
            report.suppressed.extend(suppressed);
            report.files += 1;
        }
    }
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(report)
}

/// Minimal JSON string escaping for report output (the crate is
/// std-only by design, mirroring `eadrl-obs`'s hand-rolled codec).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a report as a JSON object (findings, suppressed count, file
/// count) — the artifact CI uploads.
pub fn report_to_json(report: &LintReport) -> String {
    let mut s = String::from("{\"findings\":[");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            json_escape(f.rule),
            json_escape(&f.path),
            f.line,
            json_escape(&f.message),
        ));
    }
    s.push_str(&format!(
        "],\"suppressed\":{},\"files\":{}}}",
        report.suppressed.len(),
        report.files
    ));
    s
}
