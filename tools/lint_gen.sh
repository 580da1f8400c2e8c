#!/usr/bin/env bash
# Generated-header lint for the checked-in bench queries.
#
# dbtc output must hold three invariants that keep the compiled backends
# honest (run in the perf-smoke CI job, after the build):
#
#   1. no std::unordered_map — every aggregate store is a dbt::FlatMap (or a
#      dbt::Sharded wrapper); falling back to the node-based container is a
#      silent 2-3x regression on the map-ops microbenchmarks.
#   2. no raw `new` — generated programs own no heap allocations directly;
#      everything lives in value-semantic stores.
#   3. per-relation handler completeness — every relation dispatched in
#      on_batch() has both its embedded entry point (on_REL) and its batch
#      handler (on_batch_REL).
#   4. selection loops are kernel-only — the selection prologue of a vec_
#      handler may call dbt::Sel* kernels but must never compare strings
#      per row (== "...", dbt::Like, strcmp); string guards go through the
#      SelStrEq/SelStrNe kernels.
#   5. vectorized statement phases iterate selection vectors — a vec_
#      handler body (from its signature to its closing brace) must never
#      materialize g.row() or rescan the raw group 0..n; every row loop
#      walks a sel*/srt* index vector.
#   6. durability surface — every generated program overrides save_state()/
#      load_state() (and publishes relation_schemas() for the ingest
#      validator), so compiled programs participate in checkpoint/restore
#      like the interpreted engines.
#   7. one trigger body per relation — a relation with a vec_REL body has
#      an on_REL that only forwards one event to it, so the delta
#      statements are generated once.
#   8. one ingest path — no row shim (g.row()), no per-event string
#      dispatcher (on_event()) and no process-wide selection switch
#      (SelectionEnabled); batches reach the typed handlers only through
#      on_batch and dbt::Lane.
#   9. one per-group renderer per view — every view V has exactly one
#      row_V(group key, &row), and view_V() is built on it, so a full render
#      and the incremental publish of touched groups share one code path.
#
# Usage: tools/lint_gen.sh [build-dir]   (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
GEN_DIR="$BUILD_DIR/generated/bench/gen"

QUERIES="vwap sobi_bids mm best_bid q41 revenue q3s q6s q12s q13s"
QUERIES="$QUERIES selzero selhalf selall micro"

fail=0
checked=0
for q in $QUERIES; do
  hpp="$GEN_DIR/$q.hpp"
  if [ ! -f "$hpp" ]; then
    echo "lint_gen: FAIL — missing generated header $hpp" >&2
    echo "lint_gen: build the codegen targets first (cmake --build $BUILD_DIR)" >&2
    exit 1
  fi
  checked=$((checked + 1))

  if grep -n 'std::unordered_map' "$hpp" >&2; then
    echo "lint_gen: FAIL — $q.hpp uses std::unordered_map (expected dbt::FlatMap)" >&2
    fail=1
  fi

  # Raw `new` expressions; word-boundary keeps 'newest'/placement-free code
  # in comments from tripping it.
  if grep -nE '(^|[^[:alnum:]_])new[[:space:]]+[[:alnum:]_:<]' "$hpp" >&2; then
    echo "lint_gen: FAIL — $q.hpp contains a raw new-expression" >&2
    fail=1
  fi

  # Selection prologues (between the two region markers inside each vec_
  # handler) must route every guard through a dbt::Sel* kernel; a per-row
  # string comparison there defeats the vectorized rewrite.
  prologue=$(awk '/--- selection prologue/,/--- statement phases/' "$hpp")
  if [ -n "$prologue" ] && \
     echo "$prologue" | grep -nE '== *"|!= *"|dbt::Like|strcmp' >&2; then
    echo "lint_gen: FAIL — $q.hpp has a per-row string comparison inside a selection loop" >&2
    fail=1
  fi

  # Vectorized statement phases iterate sel*/srt* index vectors; a g.row()
  # materialization or a raw 0..n rescan inside a vec_ handler means the
  # selection vector was computed and then ignored.
  vecbody=$(awk '/void vec_/,/^  }$/' "$hpp")
  if [ -n "$vecbody" ] && \
     echo "$vecbody" | grep -nE 'g\.row\(|for \(size_t i = 0; i < n;' >&2; then
    echo "lint_gen: FAIL — $q.hpp vec handler iterates the raw group instead of a selection vector" >&2
    fail=1
  fi

  # Handlers for every dispatched relation.
  rels=$(grep -oE 'g\.relation == "[A-Za-z0-9_]+"' "$hpp" | \
         sed 's/.*"\(.*\)"/\1/' | sort -u)
  if [ -z "$rels" ]; then
    echo "lint_gen: FAIL — $q.hpp dispatches no relations" >&2
    fail=1
  fi
  for rel in $rels; do
    if ! grep -q "void on_${rel}(" "$hpp"; then
      echo "lint_gen: FAIL — $q.hpp dispatches $rel but has no on_${rel}() handler" >&2
      fail=1
    fi
    if ! grep -q "on_batch_${rel}(" "$hpp"; then
      echo "lint_gen: FAIL — $q.hpp dispatches $rel but has no on_batch_${rel}() handler" >&2
      fail=1
    fi
  done

  # Durability surface: snapshot/restore overrides + published schemas.
  for member in "bool save_state(" "bool load_state(" "relation_schemas("; do
    if ! grep -qF "$member" "$hpp"; then
      echo "lint_gen: FAIL — $q.hpp is missing the ${member%%(*}() durability member" >&2
      fail=1
    fi
  done

  # One trigger body per relation: on_REL beside a vec_REL is a one-line
  # forwarder of a single-row selection.
  for rel in $(grep -oE 'void vec_[A-Za-z0-9_]+\(' "$hpp" | \
               sed 's/void vec_\(.*\)(/\1/' | sort -u); do
    if ! grep -qE "void on_${rel}\(.*\) \{ vec_${rel}\([^;]*nullptr, 1, sign\); \}$" \
         "$hpp"; then
      echo "lint_gen: FAIL — $q.hpp has vec_${rel} but on_${rel} is not a one-line forwarder to it" >&2
      fail=1
    fi
  done

  # One per-group renderer per view, and view_V() renders through it.
  views=$(grep -A1 'view_names() const override' "$hpp" | \
          grep -oE '"[A-Za-z0-9_]+"' | tr -d '"')
  if [ -z "$views" ]; then
    echo "lint_gen: FAIL — $q.hpp declares no views" >&2
    fail=1
  fi
  for v in $views; do
    if [ "$(grep -c "bool row_${v}(" "$hpp")" -ne 1 ]; then
      echo "lint_gen: FAIL — $q.hpp needs exactly one per-group renderer row_${v}()" >&2
      fail=1
    fi
    if ! grep -qE "view_${v}\(\) \{ return dbt::Render\(this, &[A-Za-z0-9_]+::row_${v}," \
         "$hpp"; then
      echo "lint_gen: FAIL — $q.hpp view_${v}() does not render through row_${v}()" >&2
      fail=1
    fi
  done

  # One ingest path: batches go through on_batch and dbt::Lane only.
  if grep -nE 'g\.row\(|on_event\(|SelectionEnabled' "$hpp" >&2; then
    echo "lint_gen: FAIL — $q.hpp has a row shim, on_event() dispatcher or selection switch" >&2
    fail=1
  fi
done

if [ "$checked" -eq 0 ]; then
  echo "lint_gen: FAIL — no generated headers checked" >&2
  exit 1
fi

if [ "$fail" -ne 0 ]; then
  echo "lint_gen: FAIL" >&2
  exit 1
fi
echo "lint_gen: OK — $checked generated headers clean"
