//! Benchmarks the deep lint analysis end-to-end over the real
//! workspace: parse + call-graph construction, the three
//! interprocedural passes on a prebuilt analysis, and one cold
//! everything-included run.
//!
//! The analyzer is a blocking CI step, so its latency is a developer-
//! facing budget, not a curiosity. The gate: a cold end-to-end run
//! (collect + lex + parse + graph + all passes) must finish in under
//! [`COLD_BUDGET`] on one core.
//!
//! Flags (combinable):
//! - `--quick`   shrink the measurement budget for CI smoke runs;
//! - `--json`    print a machine-readable `lint_deep_bench` report;
//! - `--out <p>` also write that JSON document to the file `<p>`;
//! - `--check`   exit non-zero if the cold run exceeds the budget (the
//!   latency regression gate wired into CI).

use eadrl_bench::harness::{median_ns, Harness};
use eadrl_bench::{emit_bench_report, exit_on_gate_failures};
use eadrl_lint::deep::{self, Analysis, HotPathConfig};
use eadrl_lint::source::SourceFile;
use eadrl_obs::json::JsonValue;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Hard ceiling for one cold end-to-end deep run on one core.
const COLD_BUDGET: Duration = Duration::from_secs(5);

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .to_path_buf()
}

/// Reads and lexes every workspace source file with workspace-relative
/// paths (the path-scoped rules key off `crates/…/src/` prefixes).
fn parse_workspace(root: &Path) -> Vec<SourceFile> {
    let mut files = Vec::new();
    for dir in ["crates", "src", "examples"] {
        let p = root.join(dir);
        if !p.exists() {
            continue;
        }
        for path in eadrl_lint::collect_rs_files(&p).expect("walk workspace") {
            let rel = path
                .strip_prefix(root)
                .expect("under root")
                .to_string_lossy()
                .replace('\\', "/");
            let text = std::fs::read_to_string(&path).expect("read source");
            files.push(SourceFile::parse(&rel, &text));
        }
    }
    files
}

fn hot_config(root: &Path) -> HotPathConfig {
    let md = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md readable");
    HotPathConfig::from_design_md(&md).expect("hot-path table parses")
}

/// One cold run, everything included: I/O, lexing, parsing, call-graph
/// construction, all three passes. This is what a CI invocation costs.
fn cold_run(root: &Path, hot: &HotPathConfig) -> (Duration, usize, usize) {
    let start = Instant::now();
    let analysis = Analysis::from_files(parse_workspace(root), root);
    let report = deep::run_deep(&analysis, Some(hot));
    let elapsed = start.elapsed();
    let fns = analysis.graph.nodes.len();
    black_box(&report);
    (elapsed, fns, analysis.files.len())
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    let root = workspace_root();
    let hot = hot_config(&root);

    // Gate measurement first, while caches are coldest this process
    // will ever have them.
    let (cold, graph_fns, file_count) = cold_run(&root, &hot);
    println!(
        "lint_deep/cold_end_to_end    {:.1} ms  ({} files, {} fns in graph)",
        cold.as_secs_f64() * 1e3,
        file_count,
        graph_fns,
    );

    let mut h = if quick {
        Harness::default()
            .measurement_time(Duration::from_millis(300))
            .warm_up_time(Duration::from_millis(100))
            .sample_size(10)
    } else {
        Harness::default()
            .measurement_time(Duration::from_secs(2))
            .warm_up_time(Duration::from_millis(500))
            .sample_size(20)
    };

    // Phase split: construction (lex + parse + graph) vs the passes.
    let mut group = h.benchmark_group("lint_deep");
    group.bench_function("parse_and_graph", |b| {
        b.iter(|| black_box(Analysis::from_files(parse_workspace(&root), &root)))
    });
    let analysis = Analysis::from_files(parse_workspace(&root), &root);
    group.bench_function("deep_passes", |b| {
        b.iter(|| black_box(deep::run_deep(&analysis, Some(&hot))))
    });
    let summaries = group.finish();

    let fields: Vec<(String, JsonValue)> = vec![
        ("files".to_string(), file_count.into()),
        ("graph_fns".to_string(), graph_fns.into()),
        (
            "cold_end_to_end_ms".to_string(),
            (cold.as_secs_f64() * 1e3).into(),
        ),
        (
            "budget_ms".to_string(),
            (COLD_BUDGET.as_secs_f64() * 1e3).into(),
        ),
        (
            "parse_and_graph_median_ns".to_string(),
            median_ns(&summaries, "parse_and_graph").into(),
        ),
        (
            "deep_passes_median_ns".to_string(),
            median_ns(&summaries, "deep_passes").into(),
        ),
    ];
    emit_bench_report("lint_deep_bench", fields);
    let (cold_ms, budget_ms) = (cold.as_secs_f64() * 1e3, COLD_BUDGET.as_secs_f64() * 1e3);
    let mut gate_failures = Vec::new();
    if cold > COLD_BUDGET {
        gate_failures.push(format!(
            "lint_deep cold end-to-end run took {cold_ms:.1} ms (budget {budget_ms:.0} ms)"
        ));
    }
    exit_on_gate_failures(
        &gate_failures,
        &format!("lint_deep {cold_ms:.1} ms cold (budget {budget_ms:.0} ms)"),
    );
}
