#!/usr/bin/env bash
# Generated-header size gate for the ten checked-in bench queries.
#
# Counts the lines of every dbtc-generated header under
# <build>/generated/bench/gen/, writes the per-query breakdown to
# <build>/BENCH_gen_loc.json, and fails if the total grows past MAX_LOC.
# The seed (11384 lines) is the pre-typed-IR output, when each relation
# carried separate on_insert_/on_delete_ handler clones; the
# sign-parameterized trigger bodies (src/compiler/tir.cc) took the first
# cut, and checkpoint/restore (save_state/load_state/relation_schemas) and
# serving (publish_snapshot) boilerplate that lint_gen.sh requires then
# grew it back to 8417.
#
# MAX_LOC is the measured total once each relation's batch handler lost its
# column-tag check, its g.row() row-shim fallback and its selection-knob
# branch, and the per-event on_event dispatcher was deleted (8417 -> 8135).
# Any growth past it has to be paid for by a deletion elsewhere.
#
# Usage: tools/check_gen_loc.sh [build-dir]   (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
GEN_DIR="$BUILD_DIR/generated/bench/gen"
OUT="$BUILD_DIR/BENCH_gen_loc.json"

SEED_LOC=11384
MAX_LOC=8135

QUERIES="vwap sobi_bids mm best_bid q41 revenue q3s q6s q12s q13s"

total=0
entries=""
for q in $QUERIES; do
  hpp="$GEN_DIR/$q.hpp"
  if [ ! -f "$hpp" ]; then
    echo "check_gen_loc: FAIL — missing generated header $hpp" >&2
    echo "check_gen_loc: build the codegen targets first (cmake --build $BUILD_DIR)" >&2
    exit 1
  fi
  loc=$(wc -l < "$hpp")
  total=$((total + loc))
  if [ -n "$entries" ]; then entries="$entries, "; fi
  entries="$entries\"$q\": $loc"
done

status=ok
if [ "$total" -gt "$MAX_LOC" ]; then status=fail; fi

cat > "$OUT" <<EOF
{
  "bench": "gen_loc",
  "unit": "lines",
  "queries": { $entries },
  "total": $total,
  "seed_total": $SEED_LOC,
  "max_total": $MAX_LOC,
  "reduction_vs_seed": $(awk "BEGIN { printf \"%.3f\", 1 - $total / $SEED_LOC }"),
  "status": "$status"
}
EOF

echo "generated-header LoC: $total (seed $SEED_LOC, gate <= $MAX_LOC) -> $OUT"
if [ "$status" = fail ]; then
  echo "check_gen_loc: FAIL — total $total exceeds $MAX_LOC" >&2
  exit 1
fi
