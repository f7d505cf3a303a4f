#!/bin/sh
# Rebuilds the numerics ledger (traces/numerics.golden) on stdout from
# the outputs of three runs:
#   1. `chaos run` (eadrl-sim): the five scenario lines with their
#      telemetry fingerprints;
#   2. `table2 --quick --json` (eadrl-bench): the quick Table II report;
#   3. `serve_bench --all --seconds 2` (seed 42, as CI's smoke runs it):
#      each workload's `forecast_rmse`, which is computed on fixed
#      reference inputs served as fast as the server answers, and so does
#      not depend on `--seconds`; it is printed as Rust's shortest
#      round-trip decimal, which names exactly one f64 bit pattern. Then
#      each workload's `forecast_digest`, the FNV-1a digest of the bits
#      of every forecast of the paced pass, where steps arrive at the
#      workload's rate and sidecar helpers park and wake between them;
#      it depends on `--seconds` and `--seed`.
#
# Usage, from the workspace root:
#   sh traces/numerics.sh chaos.txt table2.json serve_bench.jsonl > numerics.fresh
#   diff -u traces/numerics.golden numerics.fresh
set -eu
echo "# chaos run"
cat "$1"
echo "# table2 --quick --json"
cat "$2"
echo "# serve_bench --all: workload forecast_rmse"
sed -n -e 's/.*"workload":"\([a-z0-9_]*\)".*/\1/p' \
    -e 's/.*"forecast_rmse":{"value":\([^,}]*\).*/\1/p' "$3" | paste -d' ' - -
echo "# serve_bench --all --seconds 2: workload forecast_digest"
sed -n 's/.*"workload":"\([a-z0-9_]*\)".*"forecast_digest":"\([0-9a-f]*\)".*/\1 \2/p' "$3"
