//! The committed `BENCH_*.json` reports at the workspace root are row
//! reports in the schema `eadrl_bench::harness` writes:
//! `{"bench","cores","rows":[{"case","median_ns"}]}`.

use eadrl_obs::json::{parse, JsonValue};
use std::path::Path;

/// The reports under version control. The `BENCH_*_ci.json` files CI runs
/// write are local artifacts and are not checked here.
const COMMITTED: [&str; 4] = [
    "BENCH_kernels.json",
    "BENCH_obs.json",
    "BENCH_recurrent.json",
    "BENCH_refresh.json",
];

#[test]
fn committed_bench_reports_use_the_row_schema() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for name in COMMITTED {
        let text = std::fs::read_to_string(root.join(name))
            .unwrap_or_else(|e| panic!("{name}: cannot read: {e}"));
        let doc = parse(&text).unwrap_or_else(|e| panic!("{name}: not JSON: {e}"));

        let bench = doc.get("bench").and_then(JsonValue::as_str);
        assert!(bench.is_some_and(|b| !b.is_empty()), "{name}: bench");
        let cores = doc.get("cores").and_then(JsonValue::as_f64);
        assert!(
            cores.is_some_and(|c| c >= 1.0 && c.fract() == 0.0),
            "{name}: cores must be a positive integer, got {cores:?}"
        );
        let rows = doc.get("rows").and_then(JsonValue::as_arr).unwrap_or(&[]);
        assert!(!rows.is_empty(), "{name}: no rows");
        for row in rows {
            let case = row.get("case").and_then(JsonValue::as_str);
            assert!(
                case.is_some_and(|c| c.contains('/')),
                "{name}: a row's case is `group/function`: {row}"
            );
            let ns = row.get("median_ns").and_then(JsonValue::as_f64);
            assert!(
                ns.is_some_and(|ns| ns.is_finite() && ns > 0.0),
                "{name}: median_ns must be finite and positive: {row}"
            );
        }
    }
}
