//! Integration suite for the deep (call-graph) analysis.
//!
//! Three layers:
//!
//! 1. **Golden chains** over `fixtures/deep_golden/` — a parse-only
//!    mini-crate with hand-computed panic chains exercising trait
//!    dispatch, closures inside a `par_map`-style combinator, a free fn
//!    shadowing a trait-method name, and cross-module `use` resolution,
//!    plus one pub fn per `unreachable-pub` root kind.
//! 2. **Deliberately broken** `fixtures/deep_bad/` — one violation per
//!    pass (panic chain, hot-path `Vec::push`, unguarded
//!    `Instant::now`, an unreachable pub fn), each of which must fire.
//!    CI runs the binary over the same tree with inverted exit-code
//!    checks.
//! 3. **Workspace acceptance** — the whole workspace is deep-clean
//!    under the real `DESIGN.md`: zero findings across line rules and
//!    all four deep passes, zero `panics-via` pub fns, zero stale
//!    suppression markers. The `cargo test` twin of the blocking CI
//!    step.

use eadrl_lint::deep::{self, Analysis, HotPathConfig};
use eadrl_lint::rules::{HOT_RULE, PANIC_RULE, TAINT_RULE, UNREACHABLE_RULE};
use eadrl_lint::{default_rules, lint_file, workspace_dirs, LintContext, ObsSchema};
use std::path::{Path, PathBuf};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Loads a fixture tree as its own little workspace (its `crates/*/
/// Cargo.toml` manifests are the dependency map).
fn load_fixture(name: &str) -> Analysis {
    let root = fixture_root(name);
    Analysis::load(std::slice::from_ref(&root), &root).expect("fixture tree loads")
}

fn verdict<'a>(report: &'a deep::DeepReport, qualified: &str) -> &'a deep::VerdictEntry {
    report
        .verdicts
        .iter()
        .find(|v| v.qualified == qualified)
        .unwrap_or_else(|| {
            panic!(
                "no verdict for {qualified}; have: {:?}",
                report
                    .verdicts
                    .iter()
                    .map(|v| v.qualified.as_str())
                    .collect::<Vec<_>>()
            )
        })
}

/// Asserts every needle appears in `hay`, in the given order — the
/// hand-computed shape of a chain without pinning file:line noise.
fn in_order(hay: &str, needles: &[&str]) {
    let mut at = 0;
    for n in needles {
        match hay[at..].find(n) {
            Some(i) => at += i + n.len(),
            None => panic!("expected {n:?} (in order, after byte {at}) in:\n  {hay}"),
        }
    }
}

// ---------------------------------------------------------------- golden

#[test]
fn golden_verdict_table_is_exactly_the_pub_fns() {
    let a = load_fixture("deep_golden");
    let r = deep::run_deep(&a, None);
    let names: Vec<&str> = r.verdicts.iter().map(|v| v.qualified.as_str()).collect();
    // Sorted by `run_deep`; trait-impl methods are not `pub` so they
    // carry no verdict of their own.
    assert_eq!(
        names,
        [
            "mini::call_free",
            "mini::evaluate",
            "mini::evaluate_all",
            "mini::from_bin",
            "mini::from_const",
            "mini::from_example",
            "mini::from_macro",
            "mini::helper",
            "mini::only_own_tests",
            "mini::oracle",
            "mini::score",
        ]
    );
}

#[test]
fn golden_trait_dispatch_reaches_the_panicking_impl() {
    let a = load_fixture("deep_golden");
    let r = deep::run_deep(&a, None);
    let v = verdict(&r, "mini::evaluate");
    assert_eq!(v.verdict, "panics-via");
    let chain = v.chain.as_deref().expect("panics-via carries a chain");
    in_order(chain, &["mini::evaluate", "Risky::score", ".unwrap()"]);
}

#[test]
fn golden_closure_in_par_map_is_attributed_to_enclosing_fn() {
    let a = load_fixture("deep_golden");
    let r = deep::run_deep(&a, None);
    let v = verdict(&r, "mini::evaluate_all");
    assert_eq!(v.verdict, "panics-via");
    let chain = v.chain.as_deref().expect("chain");
    // The `helper(*x)` call sits inside the closure passed to
    // `par_map`, resolved through `use crate::util::helper`, and
    // panics two private hops down in another module.
    in_order(
        chain,
        &[
            "mini::evaluate_all",
            "mini::helper",
            "mini::deep",
            ".expect()",
        ],
    );
}

#[test]
fn golden_cross_module_chain_through_private_fns() {
    let a = load_fixture("deep_golden");
    let r = deep::run_deep(&a, None);
    let v = verdict(&r, "mini::helper");
    assert_eq!(v.verdict, "panics-via");
    in_order(
        v.chain.as_deref().expect("chain"),
        &["mini::helper", "mini::deep", ".expect()"],
    );
}

#[test]
fn golden_shadowed_free_fn_stays_safe() {
    let a = load_fixture("deep_golden");
    let r = deep::run_deep(&a, None);
    // `shadow::call_free` calls the module-local free `score`; if the
    // resolver confused it with the `Model::score` implementors, the
    // panic in `Risky::score` would leak into both of these.
    for q in ["mini::score", "mini::call_free"] {
        let v = verdict(&r, q);
        assert_eq!(v.verdict, "safe", "{q} must not inherit Risky::score");
        assert_eq!(v.chain, None);
    }
}

#[test]
fn golden_findings_are_one_per_panicking_pub_fn() {
    let a = load_fixture("deep_golden");
    let r = deep::run_deep(&a, None);
    let panics = r.findings.iter().filter(|f| f.rule == PANIC_RULE).count();
    assert_eq!(
        panics, 3,
        "evaluate, evaluate_all, helper: {:#?}",
        r.findings
    );
    // The fourth is the one unreachable pub fn.
    assert_eq!(r.findings.len(), 4, "{:#?}", r.findings);
}

#[test]
fn golden_unreachable_pub_reports_only_the_own_test_fn() {
    // Reached from a bin, an example through `eadrl::mini::…`, a `const`
    // initializer, a `macro_rules!` body and another file's unit test:
    // none reported. Only `only_own_tests`, which nothing but its own
    // file's unit test calls, is.
    let a = load_fixture("deep_golden");
    let r = deep::run_deep(&a, None);
    let hits: Vec<&str> = r
        .findings
        .iter()
        .filter(|f| f.rule == UNREACHABLE_RULE)
        .map(|f| f.message.as_str())
        .collect();
    assert_eq!(hits.len(), 1, "{hits:#?}");
    assert!(hits[0].contains("`mini::only_own_tests`"), "{}", hits[0]);
}

// -------------------------------------------------------------- deep_bad

fn bad_report() -> deep::DeepReport {
    let root = fixture_root("deep_bad");
    let a = Analysis::load(std::slice::from_ref(&root), &root).expect("fixture tree loads");
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("fixture DESIGN.md");
    let hot = HotPathConfig::from_design_md(&design).expect("fixture hot-path table parses");
    deep::run_deep(&a, Some(&hot))
}

#[test]
fn bad_fixture_panic_chain_fires() {
    let r = bad_report();
    let v = verdict(&r, "bad::entry");
    assert_eq!(v.verdict, "panics-via");
    in_order(
        v.chain.as_deref().expect("chain"),
        &["bad::entry", "bad::inner", ".unwrap()"],
    );
    assert!(
        r.findings.iter().any(|f| f.rule == PANIC_RULE),
        "panic finding missing: {:#?}",
        r.findings
    );
}

#[test]
fn bad_fixture_hot_path_alloc_fires() {
    let r = bad_report();
    let f = r
        .findings
        .iter()
        .find(|f| f.rule == HOT_RULE)
        .unwrap_or_else(|| panic!("hot-path finding missing: {:#?}", r.findings));
    in_order(&f.message, &["Engine::update", ".push()"]);
}

#[test]
fn bad_fixture_unreachable_pub_fires() {
    let r = bad_report();
    let hits: Vec<&str> = r
        .findings
        .iter()
        .filter(|f| f.rule == UNREACHABLE_RULE)
        .map(|f| f.message.as_str())
        .collect();
    assert_eq!(hits.len(), 1, "{hits:#?}");
    assert!(hits[0].contains("`bad::orphan`"), "{}", hits[0]);
}

#[test]
fn bad_fixture_determinism_taint_fires() {
    let r = bad_report();
    let f = r
        .findings
        .iter()
        .find(|f| f.rule == TAINT_RULE)
        .unwrap_or_else(|| panic!("taint finding missing: {:#?}", r.findings));
    in_order(&f.message, &["bad::fit", "bad::stamp", "Instant::now"]);
}

// ------------------------------------------------------------- workspace

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
}

/// The real workspace, exactly as the CLI sees it when run from the repo
/// root (the path-scoped rules key off `crates/…/src/` prefixes).
fn load_workspace() -> Analysis {
    let root = workspace_root();
    Analysis::load(&workspace_dirs(root), root).expect("workspace loads")
}

/// Edges the graph could not see while it stopped at crate borders:
/// every manifest spells `eadrl-x.workspace = true`, and examples reach
/// the libraries through the umbrella's `eadrl::<crate>::` re-exports.
#[test]
fn workspace_graph_crosses_crate_borders() {
    let a = load_workspace();
    let g = &a.graph;
    let edge = |from: &str, from_file: &str, to: &str| {
        let f = g
            .nodes
            .iter()
            .position(|n| n.qualified() == from && n.rel_path == from_file)
            .unwrap_or_else(|| panic!("no node {from} in {from_file}"));
        g.edges[f].iter().any(|e| g.nodes[e.to].qualified() == to)
    };
    assert!(edge(
        "core::EaDrlPolicy::warm_up",
        "crates/core/src/eadrl.rs",
        "rl::DdpgAgent::run_episode"
    ));
    assert!(edge(
        "eadrl::main",
        "examples/quickstart.rs",
        "core::EaDrl::fit"
    ));
}

/// End-to-end acceptance: the workspace itself is deep-clean under the
/// real `DESIGN.md` — line rules, panic reachability, hot-path
/// allocations, determinism taint, unreachable pub fns and stale
/// markers all at zero.
#[test]
fn workspace_is_deep_clean() {
    let root = workspace_root();
    let md = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md readable");
    let schema = ObsSchema::from_design_md(&md);
    assert!(schema.is_some(), "telemetry schema table must parse");
    let hot = HotPathConfig::from_design_md(&md).expect("hot-path table must parse");
    assert!(
        hot.entries.iter().any(|e| !e.exempt),
        "hot-path table must name at least one checked fn"
    );

    let analysis = load_workspace();

    let rules = default_rules();
    let ctx = LintContext { schema };
    let mut line_findings = Vec::new();
    let mut suppressed = Vec::new();
    for file in &analysis.files {
        let (active, supp) = lint_file(&rules, &ctx, file);
        line_findings.extend(active);
        suppressed.extend(supp);
    }

    let deep_report = deep::run_deep(&analysis, Some(&hot));
    let line_used = deep::line_used_markers(&analysis.files, &suppressed);
    let stale = deep::stale_allows(&analysis.files, &line_used, &deep_report.used_markers, true);

    let mut bad: Vec<String> = Vec::new();
    for f in line_findings
        .iter()
        .chain(&deep_report.findings)
        .chain(&stale)
    {
        bad.push(format!("{}:{}: [{}] {}", f.path, f.line, f.rule, f.message));
    }
    for v in &deep_report.verdicts {
        if v.verdict == "panics-via" {
            bad.push(format!(
                "{} is panic-reachable: {}",
                v.qualified,
                v.chain.as_deref().unwrap_or("?")
            ));
        }
    }
    assert!(
        bad.is_empty(),
        "workspace must stay deep-clean; fix or annotate:\n{}",
        bad.join("\n")
    );
}
