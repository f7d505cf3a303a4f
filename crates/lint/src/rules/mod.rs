//! The pluggable rule engine.
//!
//! A rule inspects one [`SourceFile`] and pushes [`Finding`]s; the
//! engine applies suppression markers afterwards, so rules never need to
//! know about `eadrl-lint: allow(...)`. Adding a rule is: implement
//! [`Rule`], add it to [`default_rules`], document it in
//! `CONTRIBUTING.md`, and add a fixture to `tests/fixtures/`.

pub mod determinism;
pub mod doc_header;
pub mod float_eq;
pub mod no_unwrap;
pub mod obs_schema;

use crate::source::SourceFile;

pub use obs_schema::ObsSchema;

/// The pseudo-rule name used for malformed suppression markers. Not
/// itself suppressible.
pub const SUPPRESSION_RULE: &str = "suppression";

/// Deep-pass rule: an unallowed panic escape hatch is transitively
/// reachable from a pub library fn (see `crate::deep`).
pub const PANIC_RULE: &str = "panic-reachable";
/// Deep-pass rule: a `DESIGN.md` hot-path fn transitively reaches an
/// allocating call.
pub const HOT_RULE: &str = "hot-path-alloc";
/// Deep-pass rule: a nondeterminism source is reachable from a
/// `fit`/`predict` path without passing the obs trace gate.
pub const TAINT_RULE: &str = "determinism-taint";
/// Deep-pass rule: a library pub fn that no bin, example, bench,
/// integration test or other module's test reaches.
pub const UNREACHABLE_RULE: &str = "unreachable-pub";
/// Deep-pass rule: a suppression marker that no longer suppresses any
/// finding. Not itself suppressible.
pub const STALE_RULE: &str = "stale-allow";

/// Rules evaluated by the call-graph passes rather than per line —
/// `allow(...)` may name them (at line or fn granularity), so the
/// marker validator accepts them alongside the line rules.
pub const DEEP_RULES: &[&str] = &[PANIC_RULE, HOT_RULE, TAINT_RULE, UNREACHABLE_RULE];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule that fired.
    pub rule: &'static str,
    /// File, workspace-relative.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description of the defect.
    pub message: String,
}

/// A single lint rule.
pub trait Rule {
    /// Stable kebab-case rule name — what `allow(...)` refers to.
    fn name(&self) -> &'static str;
    /// One-line description for `--list-rules`.
    fn description(&self) -> &'static str;
    /// Inspects one file. Rules do their own path scoping so the engine
    /// stays policy-free.
    fn check(&self, file: &SourceFile, ctx: &LintContext, out: &mut Vec<Finding>);
}

/// Shared context handed to every rule.
#[derive(Debug, Default)]
pub struct LintContext {
    /// The obs event-name schema parsed from `DESIGN.md`, when available.
    pub schema: Option<ObsSchema>,
}

/// The rule set shipped with the workspace.
pub fn default_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(no_unwrap::NoUnwrapInLib),
        Box::new(float_eq::NoFloatEq),
        Box::new(determinism::Determinism),
        Box::new(obs_schema::ObsEventSchema),
        Box::new(doc_header::DocHeader),
    ]
}

/// The outcome of linting a set of files.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Findings that must be fixed (or suppressed with justification).
    pub findings: Vec<Finding>,
    /// Findings silenced by a well-formed `allow(...)` marker.
    pub suppressed: Vec<Finding>,
    /// Number of files inspected.
    pub files: usize,
}

/// Lints one file's source text through `rules`, applying suppression
/// markers and validating the markers themselves.
pub fn lint_source(
    rules: &[Box<dyn Rule>],
    ctx: &LintContext,
    rel_path: &str,
    text: &str,
) -> (Vec<Finding>, Vec<Finding>) {
    lint_file(rules, ctx, &SourceFile::parse(rel_path, text))
}

/// Like [`lint_source`] but over an already-parsed file, so callers that
/// also run the deep passes lex each file exactly once.
pub fn lint_file(
    rules: &[Box<dyn Rule>],
    ctx: &LintContext,
    file: &SourceFile,
) -> (Vec<Finding>, Vec<Finding>) {
    let mut raw = Vec::new();
    for rule in rules {
        rule.check(file, ctx, &mut raw);
    }
    let mut active = Vec::new();
    let mut suppressed = Vec::new();
    for finding in raw {
        if file.allows(finding.line, finding.rule) {
            suppressed.push(finding);
        } else {
            active.push(finding);
        }
    }
    // Validate the markers themselves: a suppression that names an
    // unknown rule or carries no justification is a finding, so stale or
    // lazy `allow(...)`s cannot silently accumulate.
    let mut known: Vec<&str> = rules.iter().map(|r| r.name()).collect();
    known.extend(DEEP_RULES);
    for s in &file.suppressions {
        if s.rules.is_empty() {
            active.push(Finding {
                rule: SUPPRESSION_RULE,
                path: file.rel_path.clone(),
                line: s.marker_line,
                message: "malformed eadrl-lint marker: expected `eadrl-lint: allow(<rule>, …): <justification>`".to_string(),
            });
            continue;
        }
        for r in &s.rules {
            if !known.contains(&r.as_str()) {
                active.push(Finding {
                    rule: SUPPRESSION_RULE,
                    path: file.rel_path.clone(),
                    line: s.marker_line,
                    message: format!("allow() names unknown rule `{r}`"),
                });
            }
        }
        if s.justification.len() < 3 {
            active.push(Finding {
                rule: SUPPRESSION_RULE,
                path: file.rel_path.clone(),
                line: s.marker_line,
                message: format!(
                    "allow({}) needs a trailing justification, e.g. `// eadrl-lint: allow({}): exact zero test is deliberate`",
                    s.rules.join(", "),
                    s.rules.join(", "),
                ),
            });
        }
    }
    active.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    (active, suppressed)
}

/// The library crates whose non-test code must be panic-free and
/// float-eq-clean: everything that can sit on a forecast-producing path.
pub const RESULT_CRATES: &[&str] = &[
    "crates/rng/src/",
    "crates/linalg/src/",
    "crates/nn/src/",
    "crates/models/src/",
    "crates/rl/src/",
    "crates/core/src/",
    "crates/eval/src/",
    "crates/timeseries/src/",
    "crates/par/src/",
];
