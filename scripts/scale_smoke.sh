#!/bin/sh
# Smoke-test the large-topology mapping path in release: the pinned
# 256/1024-core scale goldens and the 4096-core mesh wall-clock smoke
# (SUNMAP_SCALE_SMOKE=1 opts the 4096 run in; it is skipped in the debug
# tier-1 suite, where the wall-clock bound is meaningless).
#
# That both route-table preparations (eager, and lazy with closed-form
# or BFS hop distances) map to the same bytes is proven by
# crates/mapping/tests/table_prep_equivalence.rs (its 64- and 100-core
# tiers, and every topology and routing function in its property
# tests); no user surface names a preparation.
#
# Usage: scripts/scale_smoke.sh
set -eu

SUNMAP_SCALE_SMOKE=1 cargo test --locked --release -q \
    --test golden_cost_fixtures -- --nocapture scale_tier mesh_4096 \
    || { echo "scale-smoke: release scale goldens failed" >&2; exit 1; }

echo "scale-smoke: ok (1024-core goldens, 4096-core mesh)"
