GO ?= go

.PHONY: all build vet test race fmt lint lint-report faults crash torture fuzz-smoke cover perfgate results gates engine-bench sim-bench kv-bench loc reach ci bench-async

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# -shuffle=on randomizes test (and subtest) execution order per run so
# hidden order dependencies surface in CI instead of on a contributor's
# machine; every test builds its own engine/world, so none may rely on
# state a sibling left behind.
test:
	$(GO) test -shuffle=on ./...

# The observability layer (tracer, registry, profiler) shares data across
# goroutines, and the background evictor daemons run as extra procs inside the
# simulated worlds; keep both race-clean. The profile subpackage is covered by
# the ./internal/obs/... pattern.
# internal/sim/mem holds the buddy frame allocator the 2 MB path leans on;
# internal/host and internal/detutil are the baseline world and what the two
# worlds share (page index, range set, lifecycle table, scratch stacks).
# The engine itself is one thread of control (Run's goroutine and the proc
# coroutines it switches into never overlap, and every switch is a
# happens-before edge), so what the detector guards there is the boundary:
# Spawn/PostIRQ/Close from outside Run, possibly from another goroutine than
# the one that ran last, and the tracer/profiler sinks procs feed; -cpu 4
# gives those callers a second P to race on. internal/torture recovers op
# panics the engine re-raises on Run's caller and closes half-run worlds.
# internal/ycsb's KeyBytes and Value carve from one package arena behind a
# mutex, and eight goroutines draw from it at once in its tests.
# internal/cachetest's contracts run inside the core and host test packages,
# the four-thread collection contract among them, so those patterns cover it.
# internal/kvs's stores keep host state per simulated thread across the
# coroutine switches of Load and AdvanceUser: scratch stacks, and the held
# buffer each thread's Get value is lent in.
race:
	$(GO) test -race ./internal/obs/... ./internal/core/... ./internal/host/... ./internal/detutil/... ./internal/sim/mem/... ./internal/torture/... ./internal/ycsb/... ./internal/kvs/...
	$(GO) test -race -count=10 -cpu 1,4 ./internal/sim/engine/...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Aquila's own static-analysis suite (DESIGN.md "Static invariants"):
# determinism, cycle accounting, span pairing, typed-I/O-error propagation
# and crash unwinding. (That every WriteAt gets its Persist is checked at run
# time, by the device audit at every quiesce point: DESIGN.md §9.)
# `go vet` runs first for the generic mistakes, then aqlint sweeps the tree.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/aqlint ./...

# Machine-readable findings archive for CI artifacts: aqlint -json emits the
# findings, suppression count, and package census even when the tree is
# clean. The report is scratch output, not a golden.
lint-report:
	$(GO) run ./cmd/aqlint -json ./... > aqlint-report.json || true
	@echo "wrote aqlint-report.json"

# The fault-injection suite end to end under the race detector: device fault
# plans, retry/requeue/quarantine, errseq msync, SIGBUS delivery, io_uring
# error completions, and fault-plan determinism.
faults:
	$(GO) test -race -run 'Fault|SigBus|Msync|Quarantin|Poison|IOURingInjected' \
		./internal/sim/device/ ./internal/core/ ./internal/host/

# The crash-consistency suite end to end under the race detector: durability
# model + torn sectors, crash-point injection and determinism, durable-image
# capture/recovery, errseq across restart, Kreon CRC replay, the io_uring
# in-flight drain, the msync durability-point pin and the owed-write audit's
# write paths (DESIGN.md §9).
crash:
	$(GO) test -race -run 'Crash|Recover|Durab|TornSector|CrashPlan' \
		. ./internal/sim/device/ ./internal/sim/engine/ ./internal/core/ \
		./internal/host/ ./internal/kvs/kreon/

# Torture harness (DESIGN.md §10): the fixed 64-seed bank across all
# world × device × fault × crash × schedule combinations, each seed run
# twice (-dup) to prove fingerprint determinism, failures auto-shrunk to
# repros under internal/torture/testdata/repros/. -prove-unsafe first: the
# planted UnsafeMsyncAtSubmit bug must be caught, or the battery is vacuous.
torture:
	$(GO) run ./cmd/aqtort -prove-unsafe -bank 64 -dup -shrink

# Short native-fuzz smoke: a few seconds of FuzzKreonRecover, of
# FuzzStoreMatchesReference (the device store against its untrimmed,
# non-recycling reference) and of FuzzFrameMatchesReference (frame payloads
# against a plain 4 KB page each) per CI run. The corpora
# (internal/kvs/testdata, the f.Add seeds + the cached interesting inputs)
# still replay in plain `make test`; this target actually mutates.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzKreonRecover -fuzztime 10s ./internal/kvs/kreon/
	$(GO) test -run '^$$' -fuzz FuzzStoreMatchesReference -fuzztime 5s ./internal/sim/device/
	$(GO) test -run '^$$' -fuzz FuzzFrameMatchesReference -fuzztime 5s ./internal/sim/mem/

# Per-function coverage report for the mmio core (scratch output, not a
# golden): `make cover` prints the table and leaves core-cover.out for
# `go tool cover -html`.
cover:
	$(GO) test -coverprofile=core-cover.out ./internal/core/
	$(GO) tool cover -func=core-cover.out

# The perf gate: every BENCH_*.json golden at the repo root against its
# candidate in .perfgate/, byte for byte. A report is deterministic bytes (one
# seed, one simulated clock, encoding/json with sorted keys), so `diff -u` is
# the whole comparator and a red gate prints the exact before and after value
# of every line that moved. A name on one side only fails too: diff -N shows
# the absent file as empty. Defined once, run by perfgate and gates.
diff-reports = s=0; for f in $$( (ls BENCH_*.json; ls .perfgate) | sort -u); do \
		diff -uN $$f .perfgate/$$f || s=1; \
	done; \
	if [ $$s != 0 ]; then echo "perf gate: reports differ from their goldens; regenerate with \`make results\` if intended"; fi; \
	exit $$s

# Re-run the six report-backed experiments into .perfgate/ and diff them.
# The goldens' own git history (`git log -p BENCH_*.json`) is the trajectory.
perfgate:
	rm -rf .perfgate && mkdir -p .perfgate
	$(GO) run ./cmd/aquila-bench -exp fig8a,fig7,fig5b,fig10a,ablate-hugepages,ablate-crash -report-dir .perfgate > /dev/null
	@$(diff-reports)

# results_full.txt is the byte-exact golden of all 26 experiments at scale 1
# (the driver prints simulated Mcycles, not wall-clock, so two runs of one tree
# are identical). `make results` regenerates it and the six BENCH_*.json
# goldens from ONE run, so both always come from the same tree: -exp all
# writes exactly the six reports.
results:
	$(GO) run ./cmd/aquila-bench -exp all -report-dir . > results_full.txt

# gates is what ci runs: ONE run of the 26 experiments feeds both gates.
# -report-dir only adds files and stderr lines, so stdout is still the
# results_full.txt golden, and the six reports land in .perfgate for the diff.
# A row retires its world once its numbers are taken (harness/obs.go), so one
# world is alive at a time: measured on a 2-vCPU box, the whole target takes
# 53 s and peaks at 0.53 GB RSS.
gates:
	rm -rf .perfgate && mkdir -p .perfgate
	$(GO) run ./cmd/aquila-bench -exp all -report-dir .perfgate | diff results_full.txt -
	@$(diff-reports)

# The engine's benchmark rows, one sync point of each kind and one spawn: a
# yield handoff, a contended mutex handoff, one busy period of an event, a
# writer round admitting a reader batch on an RWMutex, a spawn-and-run.
# engine-bench and sim-bench both run exactly these.
engine-rows = Handoff|Handoff32|MutexHandoff|EventArmFireWait|RWMutexReaderBatch|SpawnRun

# Host cost of the engine layer alone, no world on top, with allocations
# (DESIGN.md §3 quotes these). Not part of ci: the numbers are for reading,
# the alloc tests do the gating.
engine-bench:
	$(GO) test ./internal/sim/engine -run '^$$' -bench '$(engine-rows)' -benchmem -count=5 -cpu 1

# Host cost of the simulated hardware's own state, no world on top: a TLB
# flush, an insert into a full TLB, a 32-CPU shootdown, a PTE map/unmap, the
# device store's rewrite-persist-settle cycle over dense blocks and over
# blocks carrying one 8-byte stamp (StoreStampWriteBack), a stamped page
# written back into a block never written (StoreFirstStampWriteBack: ~1/64
# allocs/op, its line carved from a 4 KB slab), an 8 MB dense write into
# fresh blocks (StoreBulkWrite8MB: 1 alloc/op, one array), a fill read of a
# materialized block and the settle of a Submit with 4 K blocks staged and
# none due, a frame
# and a 2 MB block out of and back into simulated DRAM, a 128 MB pool booted,
# a whole-page copy into a new content buffer, the engine's rows (engine-rows:
# a page's event busy period among them, so an engine change shows both), the
# cache index's lookup-insert-remove
# (beside the map it replaced), an address-space lookup in the shared range set,
# the munmap of a 96 MB mapping with 24 K live PTEs, the delete of a file with
# 24 K cached pages and a 64-page ranged msync with 16 K pages cached and 4 K
# dirty across four cores
# (DESIGN.md §3 "Simulated hardware state is flat"). The munmap and delete
# rows re-fault their 24 K pages untimed before every timed op, so they run
# a fixed 200 ops: under the default -benchtime the set-up, not the op, would
# set the row's wall time (~45 s). Not part of ci, like
# engine-bench: the AllocsPerRun tests beside these benchmarks do the gating
# in `make test`.
sim-bench:
	$(GO) test ./internal/sim/cpu ./internal/sim/pagetable ./internal/sim/device ./internal/sim/mem -run '^$$' -bench . -benchmem -cpu 1
	$(GO) test ./internal/sim/engine -run '^$$' -bench '$(engine-rows)' -benchmem -cpu 1
	$(GO) test ./internal/detutil ./internal/core -run '^$$' -bench 'PageIndexLookupInsertRemove|RegionFind|MsyncRange64Of16k' -benchmem -cpu 1
	$(GO) test ./internal/core -run '^$$' -bench 'Munmap24kPages|DeleteFile24kPages' -benchtime 200x -benchmem -cpu 1

# Host cost of the KV and graph data paths alone, the stores over an in-memory
# namespace (internal/kvs/kvtest) and the graph over a wrapped DRAM heap, so
# nothing of a world is in the numbers: the value generator, a Kreon tree
# lookup, put and spill, an LSM bulk load, an mmio point lookup, a block-cache
# miss and a graph neighbour fetch (DESIGN.md §3 "KV data path: one owner per
# buffer"), and the graph's construction at bfs-rmat-8t's 128 K vertices:
# BenchmarkRMAT draws the edge list, BenchmarkLayout lays out its CSR image
# (DESIGN.md §3 "Graph construction"). BenchmarkKreonGetTreeHit and
# BenchmarkLSMGetMmio also report mallocs/op: 0, a Get's value is lent in the
# calling thread's held buffer. So do BenchmarkValue and BenchmarkKeyBytes:
# the YCSB helpers carve from an arena chunk, a fraction of an allocation that
# -benchmem's whole allocs/op rounds to 0. Not part of ci: the allocation tests
# beside these benchmarks gate in `make test`.
kv-bench:
	$(GO) test ./internal/ycsb ./internal/kvs/... ./internal/graph -run '^$$' -bench . -benchmem -cpu 1

# The code-diet ledger (ROADMAP "One write seam, then a code diet"): Go lines
# per package, non-test and test, and in total. bench/ (the frozen benchmark
# harness) and testdata/ are not counted. Last step of ci, so every CI log
# ends with the size of what it just checked.
loc:
	@printf '%-28s %8s %8s\n' package non-test test
	@find . -name '*.go' -not -path './bench/*' -not -path '*/testdata/*' -print0 | xargs -0 wc -l | \
	awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); \
		if ($$2 ~ /_test\.go$$/) { t[d] += $$1; T += $$1 } else { n[d] += $$1; N += $$1 } \
		seen[d] = 1 } \
	END { for (d in seen) printf "%-28s %8d %8d\n", d, n[d], t[d] | "sort"; close("sort"); \
		printf "%-28s %8d %8d\n", "total", N, T }'

# The call-reach census: every main built with coverage of all of
# aquila/..., run the way programs run, into one GOCOVERDIR: every experiment
# at -scale 0.3 and fig5a, fig5b, fig7 and fig9 at scale 1 (and fig8a with
# -profile-dir), the torture bank as ci runs it (proof plan, -dup, -shrink),
# the six bench workloads (and one per-layer run at scale 1, whose micro loops
# are the only LSM puts that reach a compaction), the CLI golden invocations,
# aqlint over the whole tree, ycsb over every store x world x device plus the
# LSM scan workload (E), and the five examples. It prints every function no
# run entered (0.0 %). Link-reach
# lists what no main links; this lists what no run calls, which includes
# methods linked only because their type is converted to an interface. Not
# part of ci: its list is for reading, not a gate. Scratch output in .reach/
# (bin/, cov/, run/).
reach-dir = .reach
reach:
	rm -rf $(reach-dir) && mkdir -p $(reach-dir)/bin $(reach-dir)/cov $(reach-dir)/run
	for m in ./cmd/* ./bench ./examples/*; do \
		$(GO) build -cover -coverpkg=aquila/... -o $(reach-dir)/bin/$$(basename $$m) $$m || exit 1; \
	done
	@b=$(reach-dir)/bin; r=$(reach-dir)/run; export GOCOVERDIR=$(reach-dir)/cov; set -x; \
	$$b/aquila-bench -exp all -scale 0.3 > /dev/null; \
	$$b/aquila-bench -exp fig5a,fig5b,fig7,fig9 > /dev/null; \
	$$b/aquila-bench -list > /dev/null; $$b/aquila-bench -exp table1,memcpy -format csv > /dev/null; \
	$$b/aquila-bench -exp table1,nosuch 2> /dev/null; \
	$$b/aquila-bench -exp fig8a -profile-dir $$r -profile-top 5 > /dev/null; \
	$$b/aqtort -prove-unsafe -bank 64 -dup -shrink -repro-dir $$r > /dev/null; \
	$$b/aqtort -bank 2 -v > /dev/null; $$b/aqtort -prove-unsafe -repro-dir $$r > /dev/null; \
	$$b/aqtort -repro internal/torture/testdata/repros/unsafe_msync.json > /dev/null; \
	$$b/aqtort -repro cmd/aqtort/testdata/slot-out-of-range.json 2> /dev/null; \
	$$b/aqtort -repro cmd/aqtort/testdata/impossible-crash.json 2> /dev/null; $$b/aqtort -nosuch 2> /dev/null; \
	for w in fault-cold-32t evict-mixed-16t linux-evict-mixed-16t kreon-ycsb-a-nvme-1t bfs-rmat-8t figs-gated; do \
		$$b/bench -workload $$w -scale 0.05 > /dev/null; \
	done; \
	$$b/bench -workload fault-cold-32t -trace 1 > /dev/null; \
	$$b/aqlint ./... 2> /dev/null; $$b/aqlint -json ./internal/sim/device/... > /dev/null 2>&1; \
	$$b/aqlint -nosuch 2> /dev/null; $$b/aqlint ./nosuch/... 2> /dev/null; \
	$$b/mmio-micro -mode aquila -threads 4 -cache 16 -dataset 64 -ops 500 -trace $$r/t.json \
		-metrics-json $$r/m.json -profile-dir $$r -profile-top 5 > /dev/null; \
	$$b/mmio-micro -mode mmap -device nvme -threads 2 -shared=false -cache 8 -dataset 32 -ops 300 -metrics-json $$r/m.json > /dev/null; \
	$$b/mmio-micro -cache 8 -dataset 32 -ops 200 > /dev/null; \
	$$b/mmio-micro -threads 2 -cache 8 -dataset 32 -ops 2000 -crash-plan testdata/crashplans/at-cycle.json \
		-metrics-json $$r/m.json > /dev/null; \
	$$b/mmio-micro -mode dax 2> /dev/null; $$b/mmio-micro -cache 8 -dataset 32 -ops 10 -trace $$r/nosuchdir/t.json > /dev/null 2>&1; \
	$$b/ycsb -store lsm -engine aquila -workload C -threads 2 -records 2000 -ops 300 -trace $$r/t.json -metrics-json $$r/m.json > /dev/null; \
	$$b/ycsb -store lsm -engine aquila -workload E -records 2000 -ops 300 > /dev/null; \
	$$b/ycsb -store kreon -engine kmmap -device nvme -workload A -dist zipfian -records 2000 -ops 300 -metrics-json $$r/m.json > /dev/null; \
	$$b/ycsb -engine direct -records 2000 -ops 200 > /dev/null; \
	$$b/ycsb -engine spdk 2> /dev/null; $$b/ycsb -store btree 2> /dev/null; \
	$$b/ycsb -records 2000 -ops 10 -metrics-json $$r/nosuchdir/m.json > /dev/null 2>&1; \
	for s in lsm kreon; do for w in aquila mmap direct kmmap; do for d in pmem nvme; do \
		$$b/ycsb -store $$s -engine $$w -device $$d -workload A -records 2000 -ops 300 > /dev/null 2>&1; \
	done; done; done; \
	for x in custompolicy graphbfs kvstore multiprocess quickstart; do $$b/$$x > /dev/null; done; \
	true
	@$(GO) tool covdata func -i=$(reach-dir)/cov | awk '$$NF == "0.0%" { n++; print } \
		$$1 != "total" { m++ } END { printf "%d of %d functions never called\n", n, m }'

ci: build vet fmt lint test race faults crash fuzz-smoke torture gates loc

# Background-eviction comparison: fig5b's sync-vs-async rows plus the
# watermark-sweep ablation.
bench-async:
	$(GO) run ./cmd/aquila-bench -exp fig5b,ablate-async-evict
