//! Benchmarks the deep lint analysis end-to-end over the real
//! workspace: parse + call-graph construction, the four
//! interprocedural passes on a prebuilt analysis, and one cold
//! everything-included run.
//!
//! The analyzer is a blocking CI step, so its latency is a developer-
//! facing budget, not a curiosity. The gate: a cold end-to-end run
//! (collect + lex + parse + graph + all passes) must finish within 5 s
//! on one core.
//!
//! Takes the harness flags (`--quick`, `--json`, `--out <p>`, `--check`;
//! see [`eadrl_bench::harness`]). `--check` fails if the cold run
//! exceeds the budget (the latency regression gate wired into CI). The
//! report describes the workspace's `files` and the call graph's
//! `graph_fns`.

use eadrl_bench::harness::{Gate, Harness};
use eadrl_lint::deep::{self, Analysis, HotPathConfig};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Hard ceiling for one cold end-to-end deep run on one core.
const GATES: [Gate; 1] = [Gate::within(
    "lint_deep/cold_end_to_end",
    Duration::from_secs(5),
)];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .to_path_buf()
}

/// Reads, lexes and parses every workspace source file and builds the
/// call graph, as the CLI does from the repo root.
fn load_workspace(root: &Path) -> Analysis {
    Analysis::load(&eadrl_lint::workspace_dirs(root), root).expect("workspace loads")
}

fn hot_config(root: &Path) -> HotPathConfig {
    let md = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md readable");
    HotPathConfig::from_design_md(&md).expect("hot-path table parses")
}

fn main() {
    let root = workspace_root();
    let hot = hot_config(&root);
    let mut h = Harness::new("lint_deep");
    let mut group = h.benchmark_group("lint_deep");
    // One cold run, everything included: I/O, lexing, parsing, call-graph
    // construction, all four passes. This is what a CI invocation costs,
    // so it runs first, while caches are coldest this process will ever
    // have them.
    group.bench_function("cold_end_to_end", |b| {
        b.once(|| {
            let analysis = load_workspace(&root);
            let report = deep::run_deep(&analysis, Some(&hot));
            (analysis, report)
        })
    });
    // Phase split: construction (lex + parse + graph) vs the passes.
    group.bench_function("parse_and_graph", |b| {
        b.iter(|| black_box(load_workspace(&root)))
    });
    let analysis = load_workspace(&root);
    group.bench_function("deep_passes", |b| {
        b.iter(|| black_box(deep::run_deep(&analysis, Some(&hot))))
    });
    h.describe("files", analysis.files.len());
    h.describe("graph_fns", analysis.graph.nodes.len());
    h.finish(&GATES);
}
