#!/bin/sh
# Runs every workload once, untraced, and prints each one's metrics by
# name and unit (results also go to perfbench/results/).
#
#   sh perfbench/run_all.sh [seed] [seconds] [trace]
set -e
for workload in paper-grid synth-scale sim-ladder; do
    cargo run --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed "${1:-7}" --seconds "${2:-50}" --trace "${3:-0}"
done
