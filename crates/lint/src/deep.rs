//! The interprocedural (`--deep`) passes over the workspace call graph.
//!
//! Three dataflow arguments, each a static proof of a contract the test
//! suite only samples, and one reachability report:
//!
//! * **panic-reachability** (`panic-reachable`) — every `pub` fn in a
//!   library crate gets a verdict: `safe` (no panic escape hatch is
//!   transitively reachable), `allowed` (every reachable hatch sits
//!   behind a justified `allow` marker), or `panics-via` (an unallowed
//!   hatch is reachable; the shortest call chain is reported). The
//!   verdict table is committed as `lint-panic-report.json` and diffed
//!   in CI — a *new* panic-reachable pub fn fails the build.
//! * **hot-path allocation** (`hot-path-alloc`) — fns named `hot` in
//!   `DESIGN.md`'s "Hot-path functions" table must not transitively
//!   reach an allocating call. Traversal stops at rows classed
//!   `exempt`, at `crates/obs` (telemetry is trace-gated), and at
//!   fn-level allows.
//! * **determinism taint** (`determinism-taint`) — nondeterminism
//!   sources (clock reads, hash-ordered collections, thread-id
//!   observation) must not be reachable from `fit`/`predict` paths
//!   except through `crates/obs` (the trace gate) or a justified allow.
//! * **unreachable pub fns** (`unreachable-pub`) — every library pub fn,
//!   tool crates included, must be reached from a root: a fn outside the
//!   library units (bins, examples, benches, integration tests), a
//!   `const`/`static` initializer or a macro body, an impl of a
//!   trait the workspace does not declare (`Display`, `Drop`, … run
//!   implicitly), or another file's unit test (an oracle is live). A fn
//!   only its own file's tests reach is dead code.
//!
//! Suppression markers are lifted to **function granularity** for these
//! rules: a marker on (or in the doc/attribute stack directly above) a
//! `fn` header absorbs the whole fn — it neither fires findings nor
//! propagates them to callers. The passes also report which markers
//! they *used*, feeding the `stale-allow` check.

use crate::ast::{self, FileAst, SiteKind};
pub use crate::callgraph::TOOL_CRATES;
use crate::callgraph::{workspace_deps, CallGraph};
use crate::rules::{Finding, HOT_RULE, PANIC_RULE, STALE_RULE, TAINT_RULE, UNREACHABLE_RULE};
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Fn names that root the determinism-taint traversal (the
/// forecast-producing entry points).
pub const TAINT_ROOTS: &[&str] = &["fit", "predict", "predict_next"];

/// A `(rel_path, marker_line)` pair identifying one suppression marker.
pub type MarkerId = (String, usize);

/// `--list-rules` help lines for the deep passes and the stale-allow
/// check.
pub const RULE_HELP: [(&str, &str); 5] = [
    (
        PANIC_RULE,
        "(deep) no pub library fn may transitively reach an unallowed panic escape hatch",
    ),
    (
        HOT_RULE,
        "(deep) DESIGN.md hot-path fns must not transitively reach allocating calls",
    ),
    (
        TAINT_RULE,
        "(deep) clocks/hash-order/thread-id must not be reachable from fit/predict paths",
    ),
    (
        UNREACHABLE_RULE,
        "(deep) every library pub fn needs a caller outside its own file's unit tests",
    ),
    (
        STALE_RULE,
        "(deep) allow(...) markers that no longer suppress any finding are errors",
    ),
];

/// Parsed workspace: sources, item trees, call graph.
pub struct Analysis {
    /// Lexed + marker-parsed files, index-aligned with `asts`.
    pub files: Vec<SourceFile>,
    /// Parsed item trees.
    pub asts: Vec<FileAst>,
    /// The call graph over all files.
    pub graph: CallGraph,
}

impl Analysis {
    /// Collects, lexes and parses every `.rs` file under `roots`, then
    /// builds the call graph with the dependency map read from
    /// `workspace_root`'s manifests. Paths under `workspace_root` are
    /// kept relative to it, as the path-scoped rules expect.
    pub fn load(roots: &[PathBuf], workspace_root: &Path) -> io::Result<Analysis> {
        let mut files = Vec::new();
        for root in roots {
            for path in crate::collect_rs_files(root)? {
                let text = fs::read_to_string(&path)?;
                let rel = path.strip_prefix(workspace_root).unwrap_or(&path);
                files.push(SourceFile::parse(&rel.to_string_lossy(), &text));
            }
        }
        Ok(Analysis::from_files(files, workspace_root))
    }

    /// Builds the analysis from already-parsed files (used by tests and
    /// by the CLI, which shares the parse with the line-level engine).
    pub fn from_files(files: Vec<SourceFile>, workspace_root: &Path) -> Analysis {
        let asts: Vec<FileAst> = files.iter().map(ast::parse_file).collect();
        let deps = workspace_deps(workspace_root).unwrap_or_default();
        let graph = CallGraph::build(&asts, &deps);
        Analysis { files, asts, graph }
    }

    fn def(&self, id: usize) -> &ast::FnDef {
        let n = &self.graph.nodes[id];
        &self.asts[n.file].fns[n.fn_idx]
    }

    fn file(&self, id: usize) -> &SourceFile {
        &self.files[self.graph.nodes[id].file]
    }
}

/// One row of the committed panic verdict table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictEntry {
    /// `crate::Type::fn`.
    pub qualified: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based `fn` line (`--explain` prints it; the committed table
    /// leaves it out).
    pub line: usize,
    /// `safe` / `allowed` / `panics-via`.
    pub verdict: &'static str,
    /// The shortest offending call chain, for `panics-via`.
    pub chain: Option<String>,
}

/// Everything a deep run produces.
#[derive(Debug, Default)]
pub struct DeepReport {
    /// Blocking findings across all four passes.
    pub findings: Vec<Finding>,
    /// Panic verdicts for every pub fn in library (non-tool) crates.
    pub verdicts: Vec<VerdictEntry>,
    /// Markers the deep passes used (absorbed or suppressed something).
    pub used_markers: BTreeSet<MarkerId>,
}

/// One row of the `DESIGN.md` hot-path table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotEntry {
    /// Fn pattern: `Type::name`, `module::name`, or bare `name`.
    pub pattern: String,
    /// `exempt` rows stop traversal instead of rooting it.
    pub exempt: bool,
    /// The table's justification column (documentation only).
    pub why: String,
}

/// The machine-readable hot-path function set, parsed from `DESIGN.md`
/// (same pattern as the obs event schema).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HotPathConfig {
    /// Table rows in order.
    pub entries: Vec<HotEntry>,
}

impl HotPathConfig {
    /// Parses the markdown table under the `### Hot-path functions`
    /// heading. Returns `None` when the section is missing entirely.
    pub fn from_design_md(text: &str) -> Option<HotPathConfig> {
        let mut in_section = false;
        let mut saw_section = false;
        let mut entries = Vec::new();
        for line in text.lines() {
            let t = line.trim();
            if t.starts_with('#') {
                in_section = t.to_ascii_lowercase().contains("hot-path functions");
                saw_section |= in_section;
                continue;
            }
            if !in_section || !t.starts_with('|') {
                continue;
            }
            let cells: Vec<&str> = t.trim_matches('|').split('|').map(str::trim).collect();
            if cells.len() < 3 {
                continue;
            }
            let pattern = cells[0].trim_matches('`').trim();
            let class = cells[1].trim_matches('`').to_ascii_lowercase();
            if pattern.is_empty()
                || pattern.eq_ignore_ascii_case("function")
                || pattern.chars().all(|c| c == '-' || c == ':' || c == ' ')
            {
                continue; // header / separator row
            }
            if class != "hot" && class != "exempt" {
                continue; // unknown class — the pass reports this via resolution
            }
            entries.push(HotEntry {
                pattern: pattern.to_string(),
                exempt: class == "exempt",
                why: cells[2].to_string(),
            });
        }
        saw_section.then_some(HotPathConfig { entries })
    }
}

/// Runs all four deep passes.
pub fn run_deep(analysis: &Analysis, hot: Option<&HotPathConfig>) -> DeepReport {
    let mut report = DeepReport::default();
    panic_pass(analysis, &mut report);
    if let Some(cfg) = hot {
        hot_path_pass(analysis, cfg, &mut report);
    }
    taint_pass(analysis, &mut report);
    unreachable_pass(analysis, &mut report);
    report.findings.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });
    report.findings.dedup();
    report
        .verdicts
        .sort_by(|a, b| (&a.qualified, &a.file, a.line).cmp(&(&b.qualified, &b.file, b.line)));
    report
}

/// The suppression covering `(line, one of rules)` in `file`, if any.
fn marker_at(file: &SourceFile, line: usize, rules: &[&str]) -> Option<usize> {
    file.suppressions
        .iter()
        .find(|s| s.lines.contains(&line) && s.rules.iter().any(|r| rules.contains(&r.as_str())))
        .map(|s| s.marker_line)
}

/// A fn-level marker: on the header line or in the contiguous
/// doc/attribute/marker stack directly above it.
fn fn_marker(file: &SourceFile, header_line: usize, rules: &[&str]) -> Option<usize> {
    let mut l = header_line;
    loop {
        if let Some(m) = marker_at(file, l, rules) {
            return Some(m);
        }
        if l <= 1 {
            return None;
        }
        let prev = l - 1;
        let marker = file.suppressions.iter().any(|s| s.marker_line == prev);
        if marker || file.doc_lines.contains(&prev) || file.attr_lines.contains(&prev) {
            l = prev;
            continue;
        }
        return None;
    }
}

fn site_label(analysis: &Analysis, id: usize, site: &ast::Site) -> String {
    format!(
        "{} ({}:{})",
        site.what, analysis.graph.nodes[id].rel_path, site.line
    )
}

/// Renders `chain_ids` (caller → … → offender) plus the site.
fn render_chain(analysis: &Analysis, chain: &[(usize, Option<usize>)], site: &ast::Site) -> String {
    let mut parts = Vec::new();
    for &(id, call_line) in chain {
        let n = &analysis.graph.nodes[id];
        match call_line {
            Some(l) => parts.push(format!("{} ({}:{})", n.qualified(), n.rel_path, l)),
            None => parts.push(n.qualified().to_string()),
        }
    }
    let last = chain.last().map(|&(id, _)| id).unwrap_or(0);
    format!(
        "{} -> {}",
        parts.join(" -> "),
        site_label(analysis, last, site)
    )
}

// ---------------------------------------------------------------------
// Pass 1: panic reachability
// ---------------------------------------------------------------------

fn panic_pass(analysis: &Analysis, report: &mut DeepReport) {
    let g = &analysis.graph;
    let n = g.nodes.len();
    let panic_rules: &[&str] = &[PANIC_RULE, "no-unwrap-in-lib"];

    let mut fn_allow: Vec<Option<usize>> = vec![None; n];
    let mut unallowed_site: Vec<Option<usize>> = vec![None; n]; // site index
    let mut has_allowed_site = vec![false; n];
    let mut any_site = vec![false; n];
    for id in 0..n {
        let node = &g.nodes[id];
        let def = analysis.def(id);
        let file = analysis.file(id);
        fn_allow[id] = fn_marker(file, def.line, &[PANIC_RULE]);
        for (si, s) in def.sites.iter().enumerate() {
            if s.kind != SiteKind::Panic {
                continue;
            }
            any_site[id] = true;
            if s.allowed {
                has_allowed_site[id] = true;
                if node.is_lib && !node.is_test {
                    if let Some(m) = marker_at(file, s.line, panic_rules) {
                        report.used_markers.insert((file.rel_path.clone(), m));
                    }
                }
            } else if unallowed_site[id].is_none() {
                unallowed_site[id] = Some(si);
            }
        }
    }

    let rev = g.reverse_edges();

    // BFS 1: which fns reach an unallowed hatch through non-allowed fns.
    let mut panicky = vec![false; n];
    let mut next: Vec<Option<(usize, usize)>> = vec![None; n]; // (toward-panic node, call line)
    let mut queue = VecDeque::new();
    for id in 0..n {
        if unallowed_site[id].is_some() && fn_allow[id].is_none() {
            panicky[id] = true;
            queue.push_back(id);
        }
    }
    while let Some(u) = queue.pop_front() {
        for e in &rev[u] {
            let c = e.to;
            if panicky[c] || fn_allow[c].is_some() {
                continue;
            }
            panicky[c] = true;
            next[c] = Some((u, e.line));
            queue.push_back(c);
        }
    }

    // BFS 2: which non-panicky fns reach an *allowed* hatch or fn.
    let mut allowed_reach = vec![false; n];
    let mut queue = VecDeque::new();
    for id in 0..n {
        if !panicky[id] && (fn_allow[id].is_some() || has_allowed_site[id]) {
            allowed_reach[id] = true;
            queue.push_back(id);
        }
    }
    while let Some(u) = queue.pop_front() {
        for e in &rev[u] {
            let c = e.to;
            if panicky[c] || allowed_reach[c] {
                continue;
            }
            allowed_reach[c] = true;
            queue.push_back(c);
        }
    }

    // BFS 3 (marker staleness only): raw reachability to *any* hatch,
    // ignoring absorption — a fn-level allow is "used" iff the fn could
    // reach a hatch at all.
    let mut reach_any = vec![false; n];
    let mut queue = VecDeque::new();
    for id in 0..n {
        if any_site[id] {
            reach_any[id] = true;
            queue.push_back(id);
        }
    }
    while let Some(u) = queue.pop_front() {
        for e in &rev[u] {
            if !reach_any[e.to] {
                reach_any[e.to] = true;
                queue.push_back(e.to);
            }
        }
    }
    for id in 0..n {
        if let Some(m) = fn_allow[id] {
            if reach_any[id] {
                report
                    .used_markers
                    .insert((analysis.file(id).rel_path.clone(), m));
            }
        }
    }

    // Verdicts + findings for pub fns of library (non-tool) crates.
    for id in 0..n {
        let node = &g.nodes[id];
        if !node.is_lib
            || node.is_test
            || !node.is_pub
            || TOOL_CRATES.contains(&node.crate_name.as_str())
        {
            continue;
        }
        let def = analysis.def(id);
        if !def.has_body {
            continue; // trait signatures get their verdict via implementors
        }
        let (verdict, chain): (&'static str, Option<String>) = if panicky[id] {
            // Reconstruct the shortest chain.
            let mut ids = vec![(id, None)];
            let mut cur = id;
            while let Some((to, line)) = next[cur] {
                if let Some(e) = ids.last_mut() {
                    e.1 = Some(line);
                }
                ids.push((to, None));
                cur = to;
            }
            let site = &analysis.def(cur).sites[unallowed_site[cur].unwrap_or(0)];
            ("panics-via", Some(render_chain(analysis, &ids, site)))
        } else if fn_allow[id].is_some() || has_allowed_site[id] || allowed_reach[id] {
            ("allowed", None)
        } else {
            ("safe", None)
        };
        if verdict == "panics-via" {
            report.findings.push(Finding {
                rule: PANIC_RULE,
                path: node.rel_path.clone(),
                line: node.line,
                message: format!(
                    "pub fn `{}` can panic: {}",
                    node.qualified(),
                    chain.clone().unwrap_or_default()
                ),
            });
        }
        report.verdicts.push(VerdictEntry {
            qualified: node.qualified(),
            file: node.rel_path.clone(),
            line: node.line,
            verdict,
            chain,
        });
    }
}

// ---------------------------------------------------------------------
// Pass 2: hot-path allocation
// ---------------------------------------------------------------------

fn hot_path_pass(analysis: &Analysis, cfg: &HotPathConfig, report: &mut DeepReport) {
    let g = &analysis.graph;
    let n = g.nodes.len();

    let mut exempt = vec![false; n];
    let mut roots: Vec<(usize, String)> = Vec::new();
    for entry in &cfg.entries {
        let ids = g.find(&analysis.asts, &entry.pattern);
        if ids.is_empty() && !entry.exempt {
            report.findings.push(Finding {
                rule: HOT_RULE,
                path: "DESIGN.md".to_string(),
                line: 0,
                message: format!(
                    "hot-path table names `{}` but no workspace fn matches it",
                    entry.pattern
                ),
            });
            continue;
        }
        for id in ids {
            if entry.exempt {
                exempt[id] = true;
            } else {
                roots.push((id, entry.pattern.clone()));
            }
        }
    }

    // Traversal stops: exempt rows, the obs crate (trace-gated), fn-level
    // allows.
    let mut stop = vec![false; n];
    let mut fn_allow: Vec<Option<usize>> = vec![None; n];
    for id in 0..n {
        let node = &g.nodes[id];
        let def = analysis.def(id);
        fn_allow[id] = fn_marker(analysis.file(id), def.line, &[HOT_RULE]);
        stop[id] = exempt[id] || node.crate_name == "obs" || fn_allow[id].is_some();
    }

    let mut reported: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut reachable_any = vec![false; n];
    for (root, pattern) in &roots {
        let mut prev: Vec<Option<(usize, usize)>> = vec![None; n];
        let mut seen = vec![false; n];
        let mut queue = VecDeque::new();
        seen[*root] = true;
        queue.push_back(*root);
        while let Some(u) = queue.pop_front() {
            reachable_any[u] = true;
            let def = analysis.def(u);
            let file = analysis.file(u);
            for s in &def.sites {
                if s.kind != SiteKind::Alloc {
                    continue;
                }
                if s.allowed {
                    if let Some(m) = marker_at(file, s.line, &[HOT_RULE]) {
                        report.used_markers.insert((file.rel_path.clone(), m));
                    }
                    continue;
                }
                if !reported.insert((u, s.line)) {
                    continue;
                }
                let chain = chain_from(*root, u, &prev);
                report.findings.push(Finding {
                    rule: HOT_RULE,
                    path: g.nodes[u].rel_path.clone(),
                    line: s.line,
                    message: format!(
                        "hot path `{pattern}` reaches allocation: {}",
                        render_chain(analysis, &chain, s)
                    ),
                });
            }
            for e in &g.edges[u] {
                let v = e.to;
                if seen[v] {
                    continue;
                }
                if stop[v] {
                    if let Some(m) = fn_allow[v] {
                        report
                            .used_markers
                            .insert((analysis.file(v).rel_path.clone(), m));
                    }
                    continue;
                }
                seen[v] = true;
                prev[v] = Some((u, e.line));
                queue.push_back(v);
            }
        }
    }
    // Line-level allows on unreachable fns are stale only w.r.t. this
    // pass; fn-level allows on unreachable fns likewise stay unused.
    let _ = reachable_any;
}

/// Root → … → `target` chain from forward-BFS `prev` pointers, as
/// `(node, call-line-into-next)` pairs.
fn chain_from(
    root: usize,
    target: usize,
    prev: &[Option<(usize, usize)>],
) -> Vec<(usize, Option<usize>)> {
    let mut rev = vec![(target, None)];
    let mut cur = target;
    while cur != root {
        match prev[cur] {
            Some((p, line)) => {
                rev.push((p, Some(line)));
                cur = p;
            }
            None => break,
        }
    }
    rev.reverse();
    rev
}

// ---------------------------------------------------------------------
// Pass 3: determinism taint
// ---------------------------------------------------------------------

fn taint_pass(analysis: &Analysis, report: &mut DeepReport) {
    let g = &analysis.graph;
    let n = g.nodes.len();
    let taint_rules: &[&str] = &[TAINT_RULE, "determinism"];

    let mut roots = Vec::new();
    let mut stop = vec![false; n];
    let mut fn_allow: Vec<Option<usize>> = vec![None; n];
    for id in 0..n {
        let node = &g.nodes[id];
        let def = analysis.def(id);
        fn_allow[id] = fn_marker(analysis.file(id), def.line, &[TAINT_RULE]);
        stop[id] = node.crate_name == "obs" || fn_allow[id].is_some();
        if node.is_lib
            && !node.is_test
            && def.has_body
            && TAINT_ROOTS.contains(&node.name.as_str())
            && !TOOL_CRATES.contains(&node.crate_name.as_str())
        {
            roots.push(id);
        }
    }

    let mut reported: BTreeSet<(usize, usize)> = BTreeSet::new();
    for root in roots {
        let mut prev: Vec<Option<(usize, usize)>> = vec![None; n];
        let mut seen = vec![false; n];
        let mut queue = VecDeque::new();
        seen[root] = true;
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            let def = analysis.def(u);
            let file = analysis.file(u);
            for s in &def.sites {
                if s.kind != SiteKind::Taint {
                    continue;
                }
                if s.allowed {
                    if let Some(m) = marker_at(file, s.line, taint_rules) {
                        report.used_markers.insert((file.rel_path.clone(), m));
                    }
                    continue;
                }
                if !reported.insert((u, s.line)) {
                    continue;
                }
                let chain = chain_from(root, u, &prev);
                report.findings.push(Finding {
                    rule: TAINT_RULE,
                    path: g.nodes[u].rel_path.clone(),
                    line: s.line,
                    message: format!(
                        "nondeterminism source reachable from `{}`: {}",
                        g.nodes[root].qualified(),
                        render_chain(analysis, &chain, s)
                    ),
                });
            }
            for e in &g.edges[u] {
                let v = e.to;
                if seen[v] {
                    continue;
                }
                if stop[v] {
                    if let Some(m) = fn_allow[v] {
                        report
                            .used_markers
                            .insert((analysis.file(v).rel_path.clone(), m));
                    }
                    continue;
                }
                seen[v] = true;
                prev[v] = Some((u, e.line));
                queue.push_back(v);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Pass 4: unreachable pub fns
// ---------------------------------------------------------------------

fn unreachable_pass(analysis: &Analysis, report: &mut DeepReport) {
    let g = &analysis.graph;
    let workspace_traits: BTreeSet<&str> = (0..g.nodes.len())
        .filter(|&id| analysis.def(id).in_trait_decl)
        .filter_map(|id| analysis.def(id).self_type.as_deref())
        .collect();
    let mut live = vec![false; g.nodes.len()];
    let mut queue = VecDeque::new();
    for (id, node) in g.nodes.iter().enumerate() {
        let def = analysis.def(id);
        let unit_test = node.is_lib && def.is_test;
        let implicit = def
            .trait_impl
            .as_deref()
            .is_some_and(|t| !workspace_traits.contains(t));
        if !(unit_test || !node.is_lib || def.init || implicit) {
            continue;
        }
        for e in &g.edges[id] {
            // A unit test keeps alive only what lives in other files.
            let own_file = unit_test && g.nodes[e.to].file == node.file;
            if !own_file && !live[e.to] {
                live[e.to] = true;
                queue.push_back(e.to);
            }
        }
    }
    while let Some(u) = queue.pop_front() {
        for e in &g.edges[u] {
            if !live[e.to] {
                live[e.to] = true;
                queue.push_back(e.to);
            }
        }
    }
    for (id, node) in g.nodes.iter().enumerate() {
        let def = analysis.def(id);
        if live[id] || !node.is_lib || node.is_test || !node.is_pub || !def.has_body || def.init {
            continue;
        }
        let file = analysis.file(id);
        if let Some(m) = fn_marker(file, def.line, &[UNREACHABLE_RULE]) {
            report.used_markers.insert((file.rel_path.clone(), m));
            continue;
        }
        report.findings.push(Finding {
            rule: UNREACHABLE_RULE,
            path: node.rel_path.clone(),
            line: node.line,
            message: format!(
                "pub fn `{}` is reached only by its own file's unit tests, if at all",
                node.qualified()
            ),
        });
    }
}

// ---------------------------------------------------------------------
// Stale-allow detection
// ---------------------------------------------------------------------

/// Rules whose usage only the deep passes can decide.
const DEEP_ONLY: &[&str] = &[PANIC_RULE, HOT_RULE, TAINT_RULE, UNREACHABLE_RULE];

/// Flags suppression markers that suppressed nothing: neither the
/// line-level engine (`line_used`) nor the deep passes (`deep_used`)
/// consumed them. `have_schema` exempts `obs-event-schema` markers when
/// no schema was loaded (their findings cannot be evaluated).
pub fn stale_allows(
    files: &[SourceFile],
    line_used: &BTreeSet<MarkerId>,
    deep_used: &BTreeSet<MarkerId>,
    have_schema: bool,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in files {
        for s in &file.suppressions {
            if s.rules.is_empty() {
                continue; // malformed — the line engine reports these
            }
            if !have_schema && s.rules.iter().any(|r| r == "obs-event-schema") {
                continue;
            }
            let id: MarkerId = (file.rel_path.clone(), s.marker_line);
            if line_used.contains(&id) || deep_used.contains(&id) {
                continue;
            }
            out.push(Finding {
                rule: STALE_RULE,
                path: file.rel_path.clone(),
                line: s.marker_line,
                message: format!(
                    "allow({}) suppresses nothing — delete the stale marker{}",
                    s.rules.join(", "),
                    if s.rules.iter().any(|r| DEEP_ONLY.contains(&r.as_str())) {
                        " (checked by the deep passes)"
                    } else {
                        ""
                    }
                ),
            });
        }
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

/// The markers the *line-level* engine used, derived from its
/// suppressed-findings list.
pub fn line_used_markers(files: &[SourceFile], suppressed: &[Finding]) -> BTreeSet<MarkerId> {
    let by_path: BTreeMap<&str, &SourceFile> =
        files.iter().map(|f| (f.rel_path.as_str(), f)).collect();
    let mut used = BTreeSet::new();
    for f in suppressed {
        if let Some(file) = by_path.get(f.path.as_str()) {
            if let Some(m) = marker_at(file, f.line, &[f.rule]) {
                used.insert((f.path.clone(), m));
            }
        }
    }
    used
}

// ---------------------------------------------------------------------
// Panic report serialization + baseline diff
// ---------------------------------------------------------------------

/// Renders the verdict table as the committed `lint-panic-report.json`
/// (sorted, diffable, one object per pub fn). Rows carry no line
/// number, so the table changes only when a verdict or the set of pub
/// fns does, not when code moves within a file.
pub fn panic_report_json(verdicts: &[VerdictEntry]) -> String {
    let mut s = String::from("{\n  \"version\": 1,\n  \"fns\": [\n");
    for (i, v) in verdicts.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"fn\": \"{}\", \"file\": \"{}\", \"verdict\": \"{}\"{}}}{}\n",
            crate::json_escape(&v.qualified),
            crate::json_escape(&v.file),
            v.verdict,
            match &v.chain {
                Some(c) => format!(", \"chain\": \"{}\"", crate::json_escape(c)),
                None => String::new(),
            },
            if i + 1 < verdicts.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Compares fresh verdicts against a committed baseline report. Returns
/// human-readable gate violations: a fn that is `panics-via` now but was
/// not in the baseline (or is new) fails; improvements do not.
pub fn diff_baseline(
    verdicts: &[VerdictEntry],
    baseline_text: &str,
) -> Result<Vec<String>, String> {
    let parsed = eadrl_obs::json::parse(baseline_text)
        .map_err(|e| format!("baseline is not valid JSON: {e:?}"))?;
    let mut old: BTreeMap<String, String> = BTreeMap::new();
    if let Some(fns) = parsed.get("fns").and_then(|v| v.as_arr()) {
        for f in fns {
            let (Some(name), Some(verdict)) = (
                f.get("fn").and_then(|v| v.as_str()),
                f.get("verdict").and_then(|v| v.as_str()),
            ) else {
                continue;
            };
            let file = f.get("file").and_then(|v| v.as_str()).unwrap_or("");
            old.insert(format!("{name}@{file}"), verdict.to_string());
        }
    }
    let mut errors = Vec::new();
    for v in verdicts {
        if v.verdict != "panics-via" {
            continue;
        }
        let key = format!("{}@{}", v.qualified, v.file);
        match old.get(&key).map(String::as_str) {
            Some("panics-via") => {} // pre-existing, already visible in the committed report
            Some(prev) => errors.push(format!(
                "`{}` regressed {prev} -> panics-via: {}",
                v.qualified,
                v.chain.clone().unwrap_or_default()
            )),
            None => errors.push(format!(
                "new panic-reachable pub fn `{}`: {}",
                v.qualified,
                v.chain.clone().unwrap_or_default()
            )),
        }
    }
    Ok(errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(files: &[(&str, &str)]) -> Analysis {
        let files: Vec<SourceFile> = files.iter().map(|(p, s)| SourceFile::parse(p, s)).collect();
        Analysis::from_files(files, Path::new("/nonexistent"))
    }

    #[test]
    fn panic_chain_is_shortest_and_reported() {
        let a = analyze(&[(
            "crates/mini/src/lib.rs",
            "pub fn entry(v: Option<u8>) { middle(v); }\n\
             fn middle(v: Option<u8>) { bottom(v); }\n\
             fn bottom(v: Option<u8>) { v.unwrap(); }\n",
        )]);
        let r = run_deep(&a, None);
        let entry = r
            .verdicts
            .iter()
            .find(|v| v.qualified == "mini::entry")
            .unwrap();
        assert_eq!(entry.verdict, "panics-via");
        let chain = entry.chain.as_deref().unwrap();
        assert!(chain.contains("mini::entry"), "{chain}");
        assert!(chain.contains("mini::middle"), "{chain}");
        assert!(chain.contains(".unwrap()"), "{chain}");
        assert_eq!(
            r.findings.iter().filter(|f| f.rule == PANIC_RULE).count(),
            1
        );
    }

    #[test]
    fn fn_level_allow_absorbs_the_whole_subtree() {
        let a = analyze(&[
            (
                "crates/mini/src/lib.rs",
                "pub fn entry(v: Option<u8>) { locked(v); }\n\
                 // eadrl-lint: allow(panic-reachable): poisoning needs a prior panic\n\
                 pub fn locked(v: Option<u8>) { v.unwrap(); }\n",
            ),
            ("crates/mini/src/main.rs", "fn main() { entry(None); }\n"),
        ]);
        let r = run_deep(&a, None);
        let entry = r
            .verdicts
            .iter()
            .find(|v| v.qualified == "mini::entry")
            .unwrap();
        assert_eq!(entry.verdict, "allowed");
        let locked = r
            .verdicts
            .iter()
            .find(|v| v.qualified == "mini::locked")
            .unwrap();
        assert_eq!(locked.verdict, "allowed");
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert!(r
            .used_markers
            .contains(&("crates/mini/src/lib.rs".to_string(), 2)));
    }

    #[test]
    fn line_level_allow_still_counts_as_allowed() {
        let a = analyze(&[
            (
                "crates/mini/src/lib.rs",
                "pub fn entry(v: Option<u8>) {\n\
                 \x20   v.unwrap(); // eadrl-lint: allow(no-unwrap-in-lib): checked by caller\n\
                 }\n",
            ),
            ("crates/mini/src/main.rs", "fn main() { entry(None); }\n"),
        ]);
        let r = run_deep(&a, None);
        let entry = r
            .verdicts
            .iter()
            .find(|v| v.qualified == "mini::entry")
            .unwrap();
        assert_eq!(entry.verdict, "allowed");
        assert!(r.findings.is_empty());
    }

    #[test]
    fn fn_markers_skip_attr_doc_and_marker_lines() {
        let src = "// eadrl-lint: allow(panic-reachable): poisoning needs a prior panic\n\
                   #[inline]\n/// Docs.\n\
                   // eadrl-lint: allow(unreachable-pub): kept for a planned caller\n\
                   pub fn locked() {}\n";
        let file = SourceFile::parse("crates/obs/src/x.rs", src);
        assert_eq!(fn_marker(&file, 5, &[PANIC_RULE]), Some(1));
        assert_eq!(fn_marker(&file, 5, &[UNREACHABLE_RULE]), Some(4));
        assert_eq!(fn_marker(&file, 5, &[HOT_RULE]), None);
    }

    #[test]
    fn safe_fns_get_safe_verdicts() {
        let a = analyze(&[(
            "crates/mini/src/lib.rs",
            "pub fn add(a: u64, b: u64) -> u64 { a.wrapping_add(b) }\n",
        )]);
        let r = run_deep(&a, None);
        assert_eq!(r.verdicts[0].verdict, "safe");
    }

    #[test]
    fn hot_path_alloc_found_transitively_with_chain() {
        let design = "### Hot-path functions\n\n| Function | Class | Why |\n|---|---|---|\n| `mini::step` | hot | inner loop |\n| `mini::setup` | exempt | construction |\n";
        let cfg = HotPathConfig::from_design_md(design).unwrap();
        let a = analyze(&[(
            "crates/mini/src/lib.rs",
            "pub fn step(out: &mut Vec<f64>) { helper(out); setup(); }\n\
             fn helper(out: &mut Vec<f64>) { out.push(1.0); }\n\
             pub fn setup() -> Vec<f64> { Vec::new() }\n",
        )]);
        let r = run_deep(&a, Some(&cfg));
        let hot: Vec<_> = r.findings.iter().filter(|f| f.rule == HOT_RULE).collect();
        assert_eq!(hot.len(), 1, "{hot:?}");
        assert!(
            hot[0].message.contains("mini::helper"),
            "{}",
            hot[0].message
        );
        assert!(hot[0].message.contains(".push()"), "{}", hot[0].message);
    }

    #[test]
    fn unresolvable_hot_row_is_a_finding() {
        let design = "### Hot-path functions\n\n| Function | Class | Why |\n|---|---|---|\n| `mini::no_such_fn` | hot | typo |\n";
        let cfg = HotPathConfig::from_design_md(design).unwrap();
        let a = analyze(&[("crates/mini/src/lib.rs", "pub fn real() {}\n")]);
        let r = run_deep(&a, Some(&cfg));
        assert!(r
            .findings
            .iter()
            .any(|f| f.rule == HOT_RULE && f.message.contains("no_such_fn")));
    }

    #[test]
    fn taint_flows_from_predict_root_unless_gated() {
        let a = analyze(&[(
            "crates/mini/src/lib.rs",
            "pub struct M;\nimpl M {\n\
             \x20   pub fn predict(&self) -> f64 { seed() }\n\
             }\n\
             fn seed() -> f64 { let t = Instant::now(); 0.0 }\n",
        )]);
        let r = run_deep(&a, None);
        let taint: Vec<_> = r.findings.iter().filter(|f| f.rule == TAINT_RULE).collect();
        assert_eq!(taint.len(), 1, "{taint:?}");
        assert!(taint[0].message.contains("Instant::now"));
        assert!(taint[0].message.contains("mini::M::predict"));
    }

    #[test]
    fn taint_allowed_by_line_marker_uses_it() {
        let a = analyze(&[(
            "crates/mini/src/lib.rs",
            "pub fn fit() { clocked(); }\n\
             fn clocked() {\n\
             \x20   // eadrl-lint: allow(determinism): timing is the payload\n\
             \x20   let t = Instant::now();\n\
             }\n",
        )]);
        let r = run_deep(&a, None);
        assert!(r.findings.iter().all(|f| f.rule != TAINT_RULE));
        assert!(r
            .used_markers
            .contains(&("crates/mini/src/lib.rs".to_string(), 3)));
    }

    #[test]
    fn unreachable_pub_fns_are_those_no_root_reaches() {
        let a = analyze(&[
            (
                "crates/mini/src/lib.rs",
                "pub mod other;\n\
                 pub fn served() -> u8 { 1 }\n\
                 pub fn own_tests_only() -> u8 { 2 }\n\
                 pub fn oracle() -> u8 { 3 }\n\
                 // eadrl-lint: allow(unreachable-pub): kept for a planned caller\n\
                 pub fn planned() -> u8 { 4 }\n\
                 pub fn shown() -> u8 { 5 }\n\
                 pub struct S;\n\
                 impl std::fmt::Display for S {\n\
                 \x20   fn fmt(&self, f: &mut std::fmt::Formatter) -> std::fmt::Result { write!(f, \"{}\", shown()) }\n\
                 }\n\
                 #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { super::own_tests_only(); }\n}\n",
            ),
            (
                "crates/mini/src/other.rs",
                "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { crate::oracle(); }\n}\n",
            ),
            ("crates/mini/src/main.rs", "fn main() { served(); }\n"),
        ]);
        let r = run_deep(&a, None);
        let hits: Vec<&str> = r
            .findings
            .iter()
            .filter(|f| f.rule == UNREACHABLE_RULE)
            .map(|f| f.message.as_str())
            .collect();
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].contains("`mini::own_tests_only`"), "{}", hits[0]);
        assert!(r
            .used_markers
            .contains(&("crates/mini/src/lib.rs".to_string(), 5)));
    }

    #[test]
    fn hot_config_parses_design_table() {
        let md = "# Design\n\n### Hot-path functions\n\nProse.\n\n| Function | Class | Why |\n|----------|-------|-----|\n| `Dense::forward_batch` | hot | per-minibatch |\n| `Workspace::take` | exempt | arena |\n\n### Next section\n\n| Other | table | here |\n";
        let cfg = HotPathConfig::from_design_md(md).unwrap();
        assert_eq!(cfg.entries.len(), 2);
        assert_eq!(cfg.entries[0].pattern, "Dense::forward_batch");
        assert!(!cfg.entries[0].exempt);
        assert!(cfg.entries[1].exempt);
        assert!(HotPathConfig::from_design_md("# nope\n").is_none());
    }

    #[test]
    fn report_roundtrips_through_baseline_diff() {
        let verdicts = vec![
            VerdictEntry {
                qualified: "mini::ok".into(),
                file: "crates/mini/src/lib.rs".into(),
                line: 1,
                verdict: "safe",
                chain: None,
            },
            VerdictEntry {
                qualified: "mini::bad".into(),
                file: "crates/mini/src/lib.rs".into(),
                line: 5,
                verdict: "panics-via",
                chain: Some("mini::bad -> .unwrap() (crates/mini/src/lib.rs:6)".into()),
            },
        ];
        let json = panic_report_json(&verdicts);
        // Same verdicts vs their own report: no errors.
        assert_eq!(
            diff_baseline(&verdicts, &json).unwrap(),
            Vec::<String>::new()
        );
        // A fresh regression against a baseline that had it safe: error.
        let mut worse = verdicts.clone();
        worse[0].verdict = "panics-via";
        worse[0].chain = Some("mini::ok -> panic! (x:1)".into());
        let errs = diff_baseline(&worse, &json).unwrap();
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("regressed"));
        // A brand-new panicking fn: error.
        let mut extra = verdicts.clone();
        extra.push(VerdictEntry {
            qualified: "mini::newbad".into(),
            file: "crates/mini/src/lib.rs".into(),
            line: 9,
            verdict: "panics-via",
            chain: None,
        });
        let errs = diff_baseline(&extra, &json).unwrap();
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("new panic-reachable"));
    }

    #[test]
    fn stale_markers_are_flagged_and_used_ones_are_not() {
        let files = vec![SourceFile::parse(
            "crates/mini/src/lib.rs",
            "fn f() {}\n// eadrl-lint: allow(no-float-eq): nothing here anymore\nfn g() {}\n",
        )];
        let stale = stale_allows(&files, &BTreeSet::new(), &BTreeSet::new(), true);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].rule, STALE_RULE);
        assert_eq!(stale[0].line, 2);
        let mut used = BTreeSet::new();
        used.insert(("crates/mini/src/lib.rs".to_string(), 2));
        assert!(stale_allows(&files, &used, &BTreeSet::new(), true).is_empty());
    }
}
