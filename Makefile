# Convenience targets; `make check` is the tier-1 gate.

.PHONY: all check test bench-verify bench-analysis bench-analysis-smoke \
        bench-loadgen bench-loadgen-smoke bench-sched sched-smoke \
        serve-smoke perf-smoke bench-pairs experiments-diff \
        chaos chaos-net sweep lint fmt fmt-check verify loc clean

all:
	dune build

# Build + full test suite (unit, property, integration, service).
check:
	dune build && dune runtest

test: check

# Analysis fast-path benchmark: summary construction per registry
# workload, seed path vs the memoized fast path; writes
# BENCH_analysis.json (geomean CME speedup target: >= 3x). The smoke
# variant is the CI bit-rot gate: 3 workloads at
# scale 0.1, and it cross-checks fast = seed summaries byte-for-byte.
bench-analysis:
	dune exec bench/analysis_bench.exe

bench-analysis-smoke:
	dune exec bench/analysis_bench.exe -- --smoke --out /dev/null

# Network load benchmark: open-loop Poisson arrivals against a
# self-hosted `lib/net` server — throughput, shed rate, served/shed
# latency percentiles. The smoke variant is the CI bit-rot gate.
bench-loadgen:
	dune exec bench/loadgen_bench.exe

bench-loadgen-smoke:
	dune exec bench/loadgen_bench.exe -- --smoke

# Cluster-scheduler benchmark: fcfs vs EASY backfilling vs
# locality-aware contiguous placement over the 21-workload registry at
# a sweep of offered loads; writes BENCH_sched.json (modelled numbers
# only, byte-stable run to run) and exits non-zero unless the
# locality-aware policy beats both baselines on mean stretch or
# deadline-miss rate somewhere while keeping utilization within 5% of
# EASY. The smoke variant is the CI gate: 6 workloads, 60 jobs, one
# load.
bench-sched:
	dune exec bench/sched_bench.exe

sched-smoke:
	dune exec bench/sched_bench.exe -- --smoke --out /dev/null

# End-to-end serve smoke: start `locmap serve` on an ephemeral port,
# drive a loadgen burst to completion, then SIGTERM the server in the
# middle of a second burst and require a clean drain — the server
# exits 0 only if every admitted request was answered. The server runs
# as the built binary (not via `dune exec`) so the signal reaches it.
serve-smoke:
	dune build bin/locmap_cli.exe bench/loadgen_bench.exe
	@rm -f .smoke_port; \
	./_build/default/bin/locmap_cli.exe serve --port 0 \
	  --port-file .smoke_port --max-inflight 2 -d 2 & \
	pid=$$!; \
	for i in $$(seq 1 100); do \
	  [ -s .smoke_port ] && break; sleep 0.1; \
	done; \
	if ! [ -s .smoke_port ]; then echo "server never came up"; \
	  kill $$pid 2> /dev/null; exit 1; fi; \
	port=$$(cat .smoke_port); \
	./_build/default/bench/loadgen_bench.exe --smoke --port $$port \
	  || { kill -TERM $$pid; exit 1; }; \
	./_build/default/bench/loadgen_bench.exe --smoke --port $$port \
	  --tolerate-drain & lg=$$!; \
	sleep 0.3; \
	kill -TERM $$pid; \
	wait $$pid; server_status=$$?; \
	wait $$lg; lg_status=$$?; \
	rm -f .smoke_port; \
	if [ $$server_status -ne 0 ]; then \
	  echo "serve-smoke FAILED: server exit $$server_status (lost requests?)"; \
	  exit 1; \
	fi; \
	if [ $$lg_status -ne 0 ]; then \
	  echo "serve-smoke FAILED: drain-tolerant loadgen exit $$lg_status"; \
	  exit 1; \
	fi; \
	echo "serve-smoke ok: clean drain, zero admitted requests lost"

# Output gate: one short perfbench `simulate` run (private and shared
# LLC, default and location-aware mapping) and one short `map` run (all
# 21 programs under both LLCs, MAI/CAI error replay included) must each
# reproduce perfbench/reference.txt with no failed operation. perfbench
# exits 0 even when a check fails, so the verdict is read from the JSON
# object on the last line it prints.
perf-smoke:
	@for w in simulate map; do \
	  python3 perfbench/run.py --workload $$w --seed 1 --seconds 1 \
	    --trace 0 | tail -n 1 | python3 -c '\
	import json, sys; \
	d = json.load(sys.stdin); \
	ok = d["correct"] is True and d["failed"] == 0; \
	print("perf-smoke", sys.argv[1], "ok:" if ok else "FAILED:", \
	      "correct", d["correct"], "attempted", d["attempted"], \
	      "failed", d["failed"]); \
	sys.exit(0 if ok else 1)' $$w || exit 1; \
	done

# Change against parent: 20-second perfbench runs of the working tree
# and of revision PARENT, alternating which runs first, for 10 pairs of
# WORKLOAD, then 3 pairs of each other workload for the other metrics;
# writes BENCH_$(NAME).json with the 9-of-10 verdict (bench/pairs.py).
# About 20 minutes; keep the host otherwise idle.
WORKLOAD ?= simulate
SEED ?= 1
CLAIM ?= sim_shared_maccess_per_s
bench-pairs:
	@test -n "$(PARENT)" -a -n "$(NAME)" || \
	  { echo "usage: make bench-pairs PARENT=<rev> NAME=<name>"; exit 2; }
	python3 bench/pairs.py --parent $(PARENT) --name $(NAME) \
	  --workload $(WORKLOAD) --seed $(SEED) \
	  $(foreach c,$(CLAIM),--claim $(c))

# Figure output against revision BASE: BASE is exported with `git
# archive` into a temporary directory and built there, then
# `locmap experiments --list` and `locmap experiments` (every id, scale
# 1.0) run in that copy and in the working tree, and the two outputs
# are diffed; exits 1 on any difference. About 9 minutes per side on
# two cores, so it is not a CI step.
experiments-diff:
	dune build bin/locmap_cli.exe
	@tmp=$$(mktemp -d); mkdir $$tmp/base; \
	git archive $(BASE) | tar -x -C $$tmp/base && \
	(cd $$tmp/base && dune build --root . bin/locmap_cli.exe) || \
	  { rm -rf $$tmp; exit 2; }; \
	for side in base work; do \
	  if [ $$side = base ]; then exe=$$tmp/base/_build/default/bin/locmap_cli.exe; \
	  else exe=./_build/default/bin/locmap_cli.exe; fi; \
	  $$exe experiments --list > $$tmp/$$side.txt && \
	  $$exe experiments >> $$tmp/$$side.txt || { rm -rf $$tmp; exit 2; }; \
	done; \
	diff -u --label $(BASE) --label working-tree $$tmp/base.txt $$tmp/work.txt; \
	status=$$?; rm -rf $$tmp; \
	[ $$status -eq 0 ] && echo "experiments-diff: identical to $(BASE)"; \
	exit $$status

# Chaos gate: the resilience suite (fault matrix, deadlines,
# 1/2/4/8-domain byte-determinism under injection) repeated under three
# fixed seeds that parameterise the injection plans.
chaos:
	dune build test/test_resilience.exe
	@for seed in 1 42 1337; do \
	  echo "== CHAOS_SEED=$$seed =="; \
	  CHAOS_SEED=$$seed dune exec test/test_resilience.exe || exit 1; \
	done

# Socket-chaos gate: the loadgen drives a self-hosted server whose
# socket ops are wrapped in seeded fault injection (short reads/writes,
# trickle, mid-stream resets) across three fixed seeds, otherwise at
# the default server config. The loadgen reconnects through resets
# (--tolerate-resets accepts the stranded sends), but the
# server-side zero-loss invariant is never relaxed: any admitted
# request that goes unanswered fails the run.
chaos-net:
	dune build bench/loadgen_bench.exe
	@for seed in 7 42 1337; do \
	  echo "== chaos-net seed=$$seed =="; \
	  ./_build/default/bench/loadgen_bench.exe --smoke \
	    --chaos "seed=$$seed,short=0.3,reset=0.25,reset_bytes=768,trickle=0.1" \
	    --tolerate-resets || exit 1; \
	done; \
	echo "chaos-net ok: 3 seeds, clean drains, zero admitted requests lost"
sweep:
	dune exec bin/locmap_cli.exe -- sweep -w fmm,lu,fft -m 4x4,6x6 -d 4

# Concurrency lint (lib/lint, see Lint.Ast_lint): parsetree-based lock-order,
# blocking-under-lock, domain-escape and thread-safety-contract rules,
# interprocedural over a per-run call graph, scanning all of lib/, bin/
# and bench/. Findings also land in lint_findings.json — the CI
# artifact. Then the self-test gate: every rule must fire on its seeded
# fixture and stay silent on the near-miss negative.
lint:
	dune build bin/locmap_lint.exe
	./_build/default/bin/locmap_lint.exe --json lint_findings.json
	./_build/default/bin/locmap_lint.exe --selftest test/fixtures/ast_lint

# Semantic verifier over every bundled workload, plus the negative
# self-test (corrupted artifacts must be rejected).
verify:
	dune exec bin/locmap_cli.exe -- check --selftest
	dune exec bin/locmap_cli.exe -- check --selftest --llc shared -q

# Formatting gate. ocamlformat is optional tooling: skip (successfully)
# when the binary is not on PATH so minimal containers still pass.
fmt-check:
	@if command -v ocamlformat > /dev/null 2>&1; then \
	  dune build @fmt; \
	else \
	  echo "fmt-check: ocamlformat not installed, skipping"; \
	fi

fmt:
	@if command -v ocamlformat > /dev/null 2>&1; then \
	  dune build @fmt --auto-promote; \
	else \
	  echo "fmt: ocamlformat not installed, skipping"; \
	fi

# Verification-cost benchmark: Mapper.map with ~verify on vs off,
# paired per round over >= 50 ms samples; exits non-zero when the
# aggregate overhead passes the 5% budget. A CI step (about 35 s).
bench-verify:
	dune exec bench/verify_bench.exe

# Net line delta against revision BASE (default HEAD) under lib/,
# bin/, bench/ and test/, from `git diff --numstat`: added, deleted and
# net lines per directory, then the total. New files count once they
# are in the index (`git add`).
BASE ?= HEAD
loc:
	@git diff --numstat --no-renames $(BASE) -- lib bin bench test | awk ' \
	  { split($$3, p, "/"); a[p[1]] += $$1; d[p[1]] += $$2 } \
	  END { n = split("lib bin bench test", ds, " "); \
	    for (i = 1; i <= n; i++) { \
	      k = ds[i]; ta += a[k]; td += d[k]; \
	      printf "%-6s +%d -%d net %+d\n", k, a[k], d[k], a[k] - d[k] } \
	    printf "%-6s +%d -%d net %+d\n", "total", ta, td, ta - td }'

clean:
	dune clean
