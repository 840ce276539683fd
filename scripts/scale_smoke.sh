#!/bin/sh
# Smoke-test the large-topology mapping path in release: the pinned
# 256/1024-core scale goldens, the 4096-core mesh wall-clock smoke and
# the route-enumeration smokes (32x32 mesh and torus route plans, each
# simulated once against the reference engine; pinned split-all-paths
# counts from the corners of a 16x16 mesh). SUNMAP_SCALE_SMOKE=1 opts
# the wall-clock-bounded runs in; they are skipped in the debug tier-1
# suite, where the bounds are meaningless.
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
    --test golden_cost_fixtures -- --nocapture scale_tier mesh_4096 route_enumeration \
    || { echo "scale-smoke: release scale goldens failed" >&2; exit 1; }

echo "scale-smoke: ok (1024-core goldens, 4096-core mesh, 32x32 route plans, 16x16 SA candidates)"
