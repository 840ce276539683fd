# Developer entry points. Each target runs exactly what CI runs
# (.github/workflows/ci.yml), so `make ci` passing locally means the
# workflow will pass too.
#
# Every cargo invocation carries --locked: Cargo.lock is committed, and
# silent lockfile drift should fail loudly here and in CI.

CARGO ?= cargo

.PHONY: all build test examples bench-record bench-ab bench-check batch-smoke serve-smoke shard-smoke scale-smoke sim-equiv table-equiv perfbench-test doc lint fmt ci clean

all: build

## Build every crate in release mode (the tier-1 build).
build:
	$(CARGO) build --locked --release --workspace

## Run the full test suite: unit, integration, property, doc tests.
test:
	$(CARGO) test --locked -q --workspace

## Build every example under examples/ in release and run each once:
## they are what prints the paper's figure tables, so an example that
## stops compiling or panics fails here.
examples:
	$(CARGO) build --locked --release -p sunmap-core --examples
	set -e; for src in examples/*.rs; do \
		ex=$$(basename $$src .rs); echo "== $$ex"; target/release/examples/$$ex; \
	done

## Record the benchmark: every workload BENCHMARK.json declares, run
## BENCH_RUNS times (runs interleave the workloads) with the command
## and run length BENCHMARK.json gives, results in BENCH_OUT; then
## perfbench/compare.py prints each metric's median, quartiles and
## spread against its bound. Not part of `make ci`: a run lasts the
## workload's run_seconds. To compare two commits, record each into its
## own BENCH_OUT and run `python3 perfbench/compare.py PARENT CHANGE`.
BENCH_RUNS ?= 5
BENCH_OUT ?= target/bench-record
bench-record:
	mkdir -p $(BENCH_OUT)
	python3 -c 'import json, shlex; b = json.load(open("BENCHMARK.json")); \
		cmd = " ".join(map(shlex.quote, b["command"])); \
		[print(cmd, "--workload", shlex.quote(w["name"]), "--seconds", b["run_seconds"], \
		       "--out", shlex.quote("$(BENCH_OUT)")) \
		 for _ in range($(BENCH_RUNS)) for w in b["workloads"]]' | sh -ex
	python3 perfbench/compare.py $(BENCH_OUT)

## A/B the benchmark against a parent revision: builds perfbench with
## BENCHMARK.json's command in a git archive export of PARENT and in
## the working tree, runs ten pairs of every workload at its run length,
## alternating which side goes first (about 35 minutes; keep the machine
## idle), prints perfbench/compare.py's verdicts and writes a
## sunmap-bench-record/1 file to target/bench-ab/record.json. Not part of
## `make ci`. scripts/bench_ab.sh takes more options (seed, pairs,
## traced runs, workloads, record file).
bench-ab:
	@test -n "$(PARENT)" || { echo "usage: make bench-ab PARENT=<rev>" >&2; exit 2; }
	sh scripts/bench_ab.sh $(PARENT)

## Check the benchmark's pinned outputs: every workload BENCHMARK.json
## declares, then paper-grid (the only pins over the paper apps' DO, SM
## and SA reports), runs once, with that file's command, for one second
## (results in target/bench-check), and the check fails unless each
## run's last output line reports "correct":true. The benchmark itself
## exits 0 when an output digest misses perfbench/pins.txt.
bench-check:
	python3 scripts/bench_check.py target/bench-check

## Smoke-run the batch exploration engine end-to-end: the committed
## 20-job sample manifest (4 seed benchmarks + 16 synthetic workloads)
## through the sunmap binary, sharded across 2 workers. Output must be
## non-empty JSONL with one line per job.
batch-smoke:
	rm -rf target/batch-smoke
	$(CARGO) run --locked --release -p sunmap-cli -- batch \
		--jobs examples/batch.manifest --out target/batch-smoke --workers 2
	@test "$$(wc -l < target/batch-smoke/batch.jsonl)" -eq 20 \
		|| { echo "batch-smoke: expected 20 JSONL lines"; exit 1; }
	@echo "wrote target/batch-smoke/batch.jsonl (20 jobs)"

## Smoke-run the `sunmap serve` daemon end-to-end through the release
## binary: start it on a free port, answer three explore requests (one
## synthetic), assert the stats counters record a warm-cache hit and
## byte-identity with the one-shot CLI, drain gracefully, and replay
## the request log.
serve-smoke: build
	sh scripts/serve_smoke.sh target/release/sunmap target/serve-smoke

## Smoke-run the distributed batch pipeline through the release
## binary: a coordinator and two workers run the sample manifest, one
## worker is kill -9'd mid-run, and the assembled JSONL must be
## byte-identical to a single-process `batch` run.
shard-smoke: build
	sh scripts/shard_smoke.sh target/release/sunmap target/shard-smoke

## Smoke-run the large-topology mapping path in release: the pinned
## 256/1024-core scale goldens, the 4096-core mesh wall-clock smoke, the
## MinPath smoke (the 128-core synthetic explore under MinDelay, each
## topology's outcome and candidate count pinned) and the
## route-enumeration smokes (32×32 mesh and torus route plans, each
## simulated once against the reference engine; pinned split-all-paths
## counts from the corners of a 16×16 mesh), each under a wall-clock
## bound (release only — the debug tier-1 suite skips them). That
## every route-table preparation maps to the same bytes is proven by
## `make test` (table_prep_equivalence.rs), not here.
scale-smoke:
	sh scripts/scale_smoke.sh

## Deep-run the engine equivalence suite (reference == event-driven,
## bit for bit). SIM_EQUIV_CASES=N adds N extra injection rates per
## scenario on top of the committed ones; raise it for a longer soak
## (CI runs the default via `make test`).
SIM_EQUIV_CASES ?= 4
sim-equiv:
	SIM_EQUIV_CASES=$(SIM_EQUIV_CASES) $(CARGO) test --locked -p sunmap-sim \
		--test engine_equivalence -- --nocapture

## Deep-run the route-table preparation equivalence suite (lazy ==
## eager, bit for bit, with closed-form and BFS hop distances).
## TABLE_EQUIV_CASES=N soaks N extra synthetic seeds per scale tier on
## top of the committed ones (CI runs the default via `make test`).
TABLE_EQUIV_CASES ?= 4
table-equiv:
	TABLE_EQUIV_CASES=$(TABLE_EQUIV_CASES) $(CARGO) test --locked -p sunmap-mapping \
		--test table_prep_equivalence -- --nocapture

## Build and test the benchmark package (perfbench/, its own Cargo
## workspace) against the current crates, then its result comparer:
## nothing else compiles the benchmark, so a public name it uses that
## goes missing fails here rather than in the benchmark run.
perfbench-test:
	$(CARGO) test --release --locked --manifest-path perfbench/Cargo.toml
	python3 perfbench/test_compare.py

## Build API docs for every workspace crate with rustdoc warnings as
## hard errors (broken intra-doc links rot fast otherwise).
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --locked --workspace --no-deps

LINT_JSON := target/lint.json

## Formatting + clippy + sunmap-lint (the in-tree determinism &
## concurrency pass), all as hard errors, matching the CI gates. The
## machine-readable report lands in $(LINT_JSON) whether or not the
## human-readable run passes.
lint:
	$(CARGO) fmt --all -- --check
	$(CARGO) clippy --locked --workspace --all-targets -- -D warnings
	$(CARGO) run --locked --release -q -p sunmap-lint -- --workspace --json \
		> $(LINT_JSON)
	@echo "wrote $(LINT_JSON)"

## Apply rustfmt in place.
fmt:
	$(CARGO) fmt --all

## Everything CI gates on, in CI's order.
ci: lint build test perfbench-test bench-check doc examples batch-smoke serve-smoke shard-smoke scale-smoke

clean:
	$(CARGO) clean
