.PHONY: build test bench bench-smoke bench-smoke-json bench-json bench-compare bench-ab perfbench-smoke counts-check lint-examples flow-examples batch-examples delta-examples serve-examples clean

# Output path for bench-json; override to record a new baseline, e.g.
#   make bench-json OUT=BENCH_PR2.json
OUT ?= BENCH.json

# Output path for bench-smoke-json (the CI metrics artifact).
SMOKE_OUT ?= BENCH_SMOKE.json

# Baselines for bench-compare, e.g.
#   make bench-compare BASE=BENCH_PR1.json NEW=BENCH_PR3.json
# Exits nonzero when any kernel regressed by more than 10%.
BASE ?= BENCH_PR10.json
NEW ?= BENCH_PR12.json

# Workload and pair count for bench-ab, e.g.
#   make bench-ab BASE=HEAD~1 W=cold N=10
# (there BASE names a git revision, not a baseline file, and defaults
# to HEAD when not given on the command line).
W ?= hot
N ?= 10

# Optional kernel filter (Str regexp) for bench-json, e.g.
#   make bench-json FILTER=simplex
FILTER ?=

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Tiny-quota timing pass over every kernel: exercises the whole bechamel
# harness (including the pruned-vs-naive twins) in a few seconds.
bench-smoke:
	dune exec bench/main.exe -- --smoke

# Tiny-quota timing pass recorded to JSON: the file carries per-kernel
# Svutil.Metrics registries (work counts) next to the wall-clock rows,
# and CI uploads it as a build artifact.
bench-smoke-json:
	dune exec bench/main.exe -- --timings --smoke --json $(SMOKE_OUT)

# Full timing run, recorded as a flat JSON baseline; FILTER narrows the
# kernel set (Str regexp over kernel names).
bench-json:
	dune exec bench/main.exe -- --timings --json $(OUT) $(if $(FILTER),--filter '$(FILTER)')

# Per-kernel speedups between two bench-json baselines; regressions
# beyond 10% are flagged in the output.
bench-compare:
	dune exec bench/main.exe -- --compare $(BASE) $(NEW)

# Correctness smoke of the request-level benchmark: one short untraced
# run per workload, gated on the exit code only (every response passes
# the oracle and matches the recorded optima in perfbench/expected.json;
# no timing is checked).
perfbench-smoke:
	for w in hot cold corpus; do \
	  python3 perfbench/run.py --workload $$w --seed 1 --seconds 1 --trace 0 || exit 1; \
	done

# A/B of the request-level benchmark: the git revision BASE, unpacked
# with git archive, against this checkout, N alternating pairs of 10 s
# runs of workload W. Prints the median, IQR and win count of every
# end-to-end metric in BENCHMARK.json; fails on a failed run or a metric
# worse than its bound.
bench-ab:
	python3 bench/ab.py --base $(if $(filter command line,$(origin BASE)),$(BASE),HEAD) --workload $(W) --n $(N)

# Deterministic work counts of the request-level benchmark: one traced
# run per workload at the seed recorded in bench/counts.json, every
# count-unit metric (derive calls, cache hits/evictions, engine calls,
# B&B nodes, float pivots, certify fallbacks, unproven results) compared
# exactly. Fails with a diff on any mismatch.
counts-check:
	python3 bench/counts_check.py bench/counts.json

# Wfcheck over the example corpus: shipped specs must lint clean, and
# every fixture under examples/bad/ must report the W0xx code its file
# name announces, in both text and JSON output.
lint-examples:
	dune build bin/secure_view_cli.exe
	@for f in examples/*.swf; do \
	  ./_build/default/bin/secure_view_cli.exe lint $$f || exit 1; \
	done
	@for f in examples/bad/*.swf; do \
	  code=$$(basename $$f | cut -d_ -f1 | tr a-z A-Z); \
	  out=$$(./_build/default/bin/secure_view_cli.exe lint $$f; :); \
	  echo "$$out" | grep -q "$$code" \
	    || { echo "FAIL: $$f did not report $$code (text)"; echo "$$out"; exit 1; }; \
	  json=$$(./_build/default/bin/secure_view_cli.exe lint $$f --json; :); \
	  echo "$$json" | grep -q "\"code\":\"$$code\"" \
	    || { echo "FAIL: $$f did not report $$code (json)"; echo "$$json"; exit 1; }; \
	  echo "ok: $$f -> $$code"; \
	done

# Privacy-flow analysis over the example corpus: every shipped spec
# must analyze without error in both text and JSON form, and the JSON
# must carry the verdict partition the solvers prune with.
flow-examples:
	dune build bin/secure_view_cli.exe
	@for f in examples/*.swf; do \
	  ./_build/default/bin/secure_view_cli.exe flow $$f >/dev/null || exit 1; \
	  json=$$(./_build/default/bin/secure_view_cli.exe flow $$f --json) || exit 1; \
	  echo "$$json" | grep -q '"must_hide"' \
	    || { echo "FAIL: $$f flow --json lacks verdicts"; echo "$$json"; exit 1; }; \
	  echo "ok: $$f -> flow"; \
	done

# Engine batch driver over the shipped specs: every good example must
# yield one "ok":true JSON line, with output independent of --jobs.
batch-examples:
	dune build bin/secure_view_cli.exe
	./_build/default/bin/secure_view_cli.exe batch examples/*.swf --jobs 4

# Incremental re-solve over the shipped edit scripts: each delta file
# names its base spec (SPEC_edit.delta -> SPEC.swf) and --verify
# re-solves the edited instance from scratch, failing on any optimum
# drift between the incremental and reference answers.
delta-examples:
	dune build bin/secure_view_cli.exe
	@for d in examples/deltas/*.delta; do \
	  spec=examples/$$(basename $$d .delta | sed 's/_[^_]*$$//').swf; \
	  ./_build/default/bin/secure_view_cli.exe delta $$spec --edits $$d --verify \
	    || { echo "FAIL: $$spec + $$d"; exit 1; }; \
	  echo "ok: $$spec + $$d"; \
	done

# Scripted JSON-lines session through the serve daemon, with cache hits
# differentially verified (--verify-hits re-solves every hit from
# scratch and fails the request on optimum drift). Asserts the expected
# hit/miss counts — including a hit on a bijectively renamed inline
# resubmission — and that two fresh runs produce byte-identical output.
# The stderr dump must show requirement-memo hits, and replaying the
# renamed resubmission after fig1 must add memo hits but no misses.
serve-examples:
	dune build bin/secure_view_cli.exe
	@./_build/default/bin/secure_view_cli.exe serve --verify-hits \
	  < examples/serve/session.jsonl 2>/tmp/serve_run1.err > /tmp/serve_run1.out
	@./_build/default/bin/secure_view_cli.exe serve --verify-hits \
	  < examples/serve/session.jsonl 2>/dev/null > /tmp/serve_run2.out
	@cmp /tmp/serve_run1.out /tmp/serve_run2.out \
	  || { echo "FAIL: serve responses differ between runs"; exit 1; }
	@grep -q '"id":"fig1-renamed","ok":true,"cache":"hit"' /tmp/serve_run1.out \
	  || { echo "FAIL: renamed resubmission did not hit the cache"; \
	       cat /tmp/serve_run1.out; exit 1; }
	@grep -q '"hits":3,"misses":2' /tmp/serve_run1.out \
	  || { echo "FAIL: unexpected hit/miss counts"; cat /tmp/serve_run1.out; exit 1; }
	@grep -c '"ok":true' /tmp/serve_run1.out | grep -qx 10 \
	  || { echo "FAIL: expected 10 ok responses"; cat /tmp/serve_run1.out; exit 1; }
	@grep -q '^serve derive-memo {"hits":[1-9]' /tmp/serve_run1.err \
	  || { echo "FAIL: no requirement-memo hit"; cat /tmp/serve_run1.err; exit 1; }
	@grep -e '"id":"fig1-cold"' examples/serve/session.jsonl \
	  | ./_build/default/bin/secure_view_cli.exe serve 2>&1 >/dev/null \
	  | grep '^serve derive-memo' > /tmp/serve_memo1.err
	@grep -e '"id":"fig1-cold"' -e '"id":"fig1-renamed"' examples/serve/session.jsonl \
	  | ./_build/default/bin/secure_view_cli.exe serve 2>&1 >/dev/null \
	  | grep '^serve derive-memo' > /tmp/serve_memo2.err
	@m1=$$(grep -o '"misses":[0-9]*' /tmp/serve_memo1.err); \
	 m2=$$(grep -o '"misses":[0-9]*' /tmp/serve_memo2.err); \
	 h1=$$(grep -o '"hits":[0-9]*' /tmp/serve_memo1.err | cut -d: -f2); \
	 h2=$$(grep -o '"hits":[0-9]*' /tmp/serve_memo2.err | cut -d: -f2); \
	 [ -n "$$m1" ] && [ "$$m1" = "$$m2" ] && [ "$$h2" -gt "$$h1" ] \
	  || { echo "FAIL: renamed resubmission missed the requirement memo"; \
	       cat /tmp/serve_memo1.err /tmp/serve_memo2.err; exit 1; }
	@echo "ok: serve session (byte-identical runs, 3 hits / 2 misses, hits verified, renamed modules hit the requirement memo)"

clean:
	dune clean
