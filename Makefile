# Developer entry points. `make ci` is the full gate: formatting, vet,
# build, the spatiallint analyzer suite, the complete test suite under
# the race detector, a fuzz smoke pass over the wire/SQL decoders, and a
# one-iteration benchmark smoke run (so benchmarks cannot silently rot).

GO ?= go

.PHONY: ci fmt-check vet perfbench-vet build lint test race race-hot fuzz-smoke bench bench-smoke bench-wire bench-record obs-smoke crash-smoke cluster-smoke

ci: fmt-check vet perfbench-vet build lint race-hot race fuzz-smoke bench-smoke obs-smoke crash-smoke cluster-smoke

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# perfbench is a nested module, so the root vet and build skip it; this
# lane type-checks it against the current root API, so a root change
# that breaks the benchmark fails here rather than at benchmark time.
perfbench-vet:
	cd perfbench && $(GO) vet .

build:
	$(GO) build ./...

# The project's own analyzer suite (cmd/spatiallint): pin/Unpin pairing,
# cursor Close discipline, locks across blocking calls (interprocedural),
# lock-order cycle detection, atomic/plain mixed access, discarded wire
# errors, exact float comparison, decoded-size taint tracking, goroutine
# accounting, release-func summaries, and hot-path allocation findings.
# Zero findings required.
# Timing budget, enforced: the CFG/summary/escape engine must keep a
# warm full-repo run under 10s. The binary is built first so the budget
# times the analysis, not the compiler.
LINT_BUDGET_SECS ?= 10
lint:
	@$(GO) build -o /tmp/spatiallint.$$$$ ./cmd/spatiallint; \
	bin=/tmp/spatiallint.$$$$; \
	start=$$(date +%s); \
	$$bin ./... ; status=$$?; \
	end=$$(date +%s); rm -f $$bin; \
	elapsed=$$((end - start)); \
	if [ $$status -ne 0 ]; then exit $$status; fi; \
	if [ $$elapsed -gt $(LINT_BUDGET_SECS) ]; then \
		echo "lint: FAIL: spatiallint took $${elapsed}s, budget $(LINT_BUDGET_SECS)s"; exit 1; \
	fi; \
	echo "lint: clean in $${elapsed}s (budget $(LINT_BUDGET_SECS)s)"

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Focused race lane over the concurrency-heavy surfaces — the root
# package's reader/writer tests, the pager's checkpoint-under-load
# churn, the grid join's atomic tile claiming, the server, and the
# parallel join — so races there fail fast before the full -race sweep.
race-hot:
	$(GO) test -race -run 'TestConcurrent|TestSnapshot' .
	$(GO) test -race -run 'TestCheckpointUnderLoad' ./internal/pager
	$(GO) test -race -run 'TestGridJoinRace' ./internal/sjoin
	$(GO) test -race ./internal/server ./internal/sjoin

# A few seconds of coverage-guided fuzzing per target: enough to catch
# decoder regressions that panic or over-allocate on the seed corpus's
# immediate neighbourhood, and any verdict where the edge-pruned
# geometry kernels part from the every-pair reference. Long runs stay a
# manual `go test -fuzz` away.
fuzz-smoke:
	$(GO) test -run NONE -fuzz FuzzWireDecode -fuzztime 5s ./internal/wire
	$(GO) test -run NONE -fuzz FuzzParse -fuzztime 5s ./internal/sqlmini
	$(GO) test -run NONE -fuzz FuzzWALDecode -fuzztime 5s ./internal/pager
	$(GO) test -run NONE -fuzz FuzzIntersectsMatchesReference -fuzztime 5s ./internal/geom

bench:
	$(GO) test -bench=. -benchmem ./...

# Compile-and-run smoke over every benchmark: one iteration each, no
# timing fidelity, just proof they still execute.
# The trailing lane re-runs the grid-partitioned join benches at 2
# iterations: tile claiming and the per-tile skew metrics only exercise
# interesting paths once the fixtures are warm, so give them one warm
# pass beyond what the full 1x sweep above provides.
# The allocs/op lane re-runs the two headline join benchmarks with
# -benchmem so an allocation regression on the fetch/sweep hot paths
# shows up in CI output next to the hotalloc lint (see DESIGN.md §16).
bench-smoke:
	$(GO) test -run NONE -bench . -benchtime 1x -count 1 ./...
	$(GO) test -run NONE -bench 'Table2GridJoin|AblationGridVsSubtree' -benchtime 2x -count 1 .
	$(GO) test -run NONE -bench 'Table2IndexJoin$$|Table2GridJoin' -benchmem -benchtime 2x -count 1 .

# End-to-end observability check: boot spatialserverd with -metrics-addr,
# run a join over the wire, scrape /metrics and assert the core series
# moved, hit pprof, then SIGTERM and require a clean drain.
obs-smoke:
	./scripts/obs_smoke.sh

# End-to-end crash recovery: boot spatialserverd on a -data-dir, load
# and mutate over the wire, SIGKILL, reboot on the same directory, and
# require identical counts and join answers after WAL redo.
crash-smoke:
	./scripts/crash_smoke.sh

# End-to-end cluster check: three shards behind spatialrouterd must
# answer counts, a cross-shard join, and a window query exactly like a
# single node; SIGKILL one shard and require typed degradation (partial
# result on streams, hard failure on counts); clean SIGTERM drain.
cluster-smoke:
	./scripts/cluster_smoke.sh

# Wire-protocol streaming throughput (loopback server + client).
bench-wire:
	$(GO) test -run NONE -bench BenchmarkWireJoinStream -benchmem .

# Full benchmark sweep recorded as NDJSON (one `go test -json` event
# per line) for before/after comparison; writes BENCH_pr3.json unless an
# output file is given: `make bench-record BENCH_OUT=BENCH_x.json`.
bench-record:
	./scripts/bench_record.sh $(BENCH_OUT)
