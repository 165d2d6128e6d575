# tcpdemux build targets. Everything is pure Go with no dependencies;
# these targets just name the common invocations.

GO ?= go
FUZZTIME ?= 30s

.PHONY: all build vet lint lint-fixtures loc gates mutants bench-check bench-pairs test golden race chaos shard failover live demuxd demuxload bench fuzz fuzz-long figures clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint builds the repository's own analyzer suite (cmd/demuxvet, built on
# internal/lint) and runs it under the go vet driver over every package,
# examples/ included. It mechanically enforces the determinism,
# hot-path, and concurrency-contract invariants documented in
# DESIGN.md §9 and §14. lint-fixtures runs first so a broken analyzer fails loudly
# on its fixture corpus instead of silently passing the real tree.
lint: lint-fixtures bin/demuxvet
	$(GO) vet -vettool=$(CURDIR)/bin/demuxvet ./...

# lint-fixtures exercises each analyzer against the flagged-and-waived
# corpus under internal/lint/testdata before the suite is trusted on the
# repository itself.
lint-fixtures:
	$(GO) test -short ./internal/lint

bin/demuxvet: FORCE
	$(GO) build -o bin/demuxvet ./cmd/demuxvet

# loc prints the figure ROADMAP.md tracks as "non-test Go lines outside
# bench/": the lines of every *.go file that is not a *_test.go, not under
# a testdata/ directory, not under bench/ and not under .bench_build/.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './bench/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l

FORCE:

# gates fails when a `go test -run` filter in this Makefile or in CI's
# workflow selects no test in a package it names (scripts/gates.sh, using
# `go test -list`): a gate whose tests were renamed away would otherwise
# pass green on zero tests.
gates:
	GO=$(GO) scripts/gates.sh

# mutants keeps every broken build a change has shown its tests catch:
# scripts/mutants.sh applies each testdata/mutants/*.patch to a copy of the
# tree and runs the tests its header names, and fails when one no longer
# applies or when its mutant survives.
mutants:
	GO=$(GO) scripts/mutants.sh

# bench-check vets and tests the benchmark harness. bench/ is a module of
# its own (go.mod replaces tcpdemux with ../), so `go build ./...` and
# `go test ./...` at the root never compile it — an API moved under its
# feet would otherwise surface only when bench/run.sh next runs.
bench-check:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# bench-pairs is how a performance claim is measured (bench/README.md
# §Noise): PARENT's tree is exported under .bench_build/parent, each side's
# benchmark is built by its own bench/run.sh, and cmd/benchpairs alternates
# N pairs of every BENCHMARK.json workload between the two, printing per
# metric and workload both medians, the parent's quartile distance and the
# change's wins. PAIRFLAGS passes the rest (-workloads, -seed, -trace 1).
# Half an hour at N=10; nothing under bench/ is edited.
PARENT ?= HEAD
N ?= 10
bench-pairs:
	rm -rf .bench_build/parent && mkdir -p .bench_build/parent
	git archive $(PARENT) | tar -x -C .bench_build/parent
	$(GO) run ./cmd/benchpairs -parent .bench_build/parent -change . -n $(N) $(PAIRFLAGS)

# test is the tier-1 gate: vet, the invariant analyzers, the full test
# suite (the benchmark module's included, and TestGoldens, which holds
# every exact number EXPERIMENTS.md quotes), the race target, and the
# demuxsim -metrics endpoint smoke test.
test: vet lint bench-check race
	$(GO) test ./...
	$(GO) test -run 'TestMetricsEndpoint|TestAdversarialSnapshotUnified' -count=1 ./cmd/demuxsim

# golden rewrites every exact-number golden from testdata/golden/MANIFEST,
# the list TestGoldens (golden_test.go) checks them against: each line
# names a golden, a main package and its arguments, and lines naming the
# same golden append to it in order. After a change that moves an exact
# number on purpose, run it and commit the goldens with the change; `git
# diff` then shows every number that moved.
GOLDENS = awk '!/^\#/ && NF' testdata/golden/MANIFEST
golden:
	@mkdir -p bin/golden
	$(GO) build -o bin/golden/ $$($(GOLDENS) | awk '{print "./" $$2}' | sort -u)
	$(GOLDENS) | awk '{print $$1}' | sort -u | xargs rm -f
	$(GOLDENS) | while read -r out pkg args; do bin/golden/$${pkg##*/} $$args >> $$out || exit 1; done

# race runs the race detector over the locking disciplines plus the
# timer-driven engine and the telemetry registry, whose atomic words a
# metrics snapshot reads while their owner writes them.
race:
	$(GO) test -race ./internal/parallel ./internal/engine ./internal/timer ./internal/telemetry

# chaos runs the adversarial conformance suite under the race detector:
# collision attacks against AutoSequent's skew watchdog and its one-pass
# rekey (core), scripted link faults (chaos), and the SYN-cookie flood
# tests in the engine.
chaos:
	$(GO) test -race -count=1 ./internal/chaos
	$(GO) test -race -count=1 -run 'Skewed|Attack|Watchdog' ./internal/core
	$(GO) test -race -count=1 -run 'SynCookies|SynFlood|Adversarial' ./internal/engine ./cmd/demuxsim

# shard is the cross-shard conformance gate: the full multi-queue engine
# suite under the race detector, whose core is FuzzStackSet's seed corpus —
# one schedule of opens, requests, bursts, fragments, resets, rekeys,
# failovers and fault windows per scenario, run against a single MapDemux
# stack and every discipline at 1 and 4 shards, with delivered bytes,
# the ledger, ownership and the watchdog's verdicts checked — plus the
# Extract/Adopt migration primitives.
shard:
	$(GO) test -race -count=1 ./internal/shard
	$(GO) test -race -count=1 -run 'ExtractAdopt|AdoptRearms' ./internal/engine

# failover is the shard failure-domain conformance gate: FuzzStackSet's
# seeds, whose crash, stall and wedge windows, direct failovers and
# backlogs are held to the watchdog's verdicts, byte-identical delivery
# and a balanced ledger; a second drain after a first; the backlog's
# ordering across a fault that clears; the no-records-on-a-healthy-set
# property; the telemetry bundle; and
# demuxsim's failover workload with its latency and goodput checks — all
# under the race detector.
failover:
	$(GO) test -race -count=1 -run 'FuzzStackSet|Failover|Backpressure|OwnershipRecords|ShardSetMetrics' ./internal/shard ./internal/telemetry
	$(GO) test -race -count=1 -run 'TestRunFailover' ./cmd/demuxsim

# live is the real-socket frontend gate: the in-process loopback
# integration suite (demuxd's server core + demuxload's generator) under
# the race detector — ≥1000 concurrent kernel TCP connections with
# byte-verified TPC/A responses, graceful-shutdown draining with a
# balanced connection conservation ledger, goroutine-leak checks, and
# the live metrics endpoint; then hostile and clumsy peers (never-reading,
# reset, half-close, dribbled, pipelined, over-long), descriptor reuse
# inside one epoll batch, and the frontend's shape (descriptors back at
# baseline, no goroutine per socket, an idle server parked). Run on one
# processor and on two: the readiness loop shares the scheduler with
# whatever else the process runs, and must not depend on having its own.
live:
	GOMAXPROCS=1 $(GO) test -race -count=1 -run 'TestLive' ./internal/server ./cmd/demuxd
	GOMAXPROCS=2 $(GO) test -race -count=1 -run 'TestLive' ./internal/server ./cmd/demuxd

# demuxd / demuxload build the server and load-generator binaries.
demuxd:
	$(GO) build -o bin/demuxd ./cmd/demuxd

demuxload:
	$(GO) build -o bin/demuxload ./cmd/demuxload

bench:
	$(GO) test -bench=. -benchmem .

# Short fuzz pass over the wire parsers (held to their reference
# implementations), the full receive path, the TPC/A line codec and the
# sharded engine's differential oracle (CI-sized; raise FUZZTIME locally).
# A failing input is minimized into the package's testdata/fuzz/<Fuzz>/,
# where plain `go test` replays it.
fuzz:
	$(GO) test -fuzz=FuzzParseSegment -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -fuzz=FuzzExtractTuple -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -fuzz=FuzzDeliver -fuzztime=$(FUZZTIME) ./internal/engine
	$(GO) test -fuzz=FuzzProtocolCodec -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -fuzz=FuzzFlatOps -fuzztime=$(FUZZTIME) ./internal/flat
	$(GO) test -fuzz=FuzzStackSet -fuzztime=$(FUZZTIME) ./internal/shard

# fuzz-long is the same list at 100 × FUZZTIME each (50 minutes a target
# at the default 30s), for a change to the engine or the sharded set whose
# seeds alone would not reach it. FUZZTIME is a Go duration ("90s",
# "1m30s") or an execution count ("500x"). CI's weekly fuzz-long job runs
# it at FUZZTIME=12s (20 minutes a target).
fuzz-long:
	$(MAKE) fuzz FUZZTIME=$$(echo '$(FUZZTIME)' | awk '/x$$/ { print $$0 * 100 "x"; exit } \
		{ d = $$0; s = 0; while (match(d, /^[0-9.]+[a-zµ]+/)) { t = substr(d, 1, RLENGTH); d = substr(d, RLENGTH + 1); \
		u = t; sub(/^[0-9.]+/, "", u); s += t * (u == "h" ? 3600 : u == "m" ? 60 : u == "s" ? 1 : u == "ms" ? 1e-3 : 1e-6) } \
		print s * 100 "s" }')

figures:
	$(GO) run ./cmd/figures -fig 4
	$(GO) run ./cmd/figures -fig 13
	$(GO) run ./cmd/figures -fig 14
	$(GO) run ./cmd/figures -fig 15

clean:
	$(GO) clean ./...
	rm -rf bin
