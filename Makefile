# Development targets for the FragVisor reproduction. `make check` is the
# pre-commit gate: formatting, vet, build, the full test suite under the
# race detector, a one-iteration benchmark smoke pass, vet and tests of
# the perfbench/ benchmark module, and the determinism smoke gates.
# Performance itself is measured by `bash perfbench/run.sh` (see
# BENCHMARK.json and "Performance tracking" in the README).

GO ?= go

.PHONY: check check-race fmt vet build test test-times race bench-smoke bench-module \
	trace-smoke sweep-smoke balloon-smoke topo-smoke netstorm-smoke chaos-smoke

check: fmt vet build race bench-smoke bench-module sweep-smoke balloon-smoke topo-smoke netstorm-smoke chaos-smoke
	@echo "check: all gates passed"

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt: files need formatting:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 test wall-time report: runs the suite uncached and prints each
# package's test time, slowest first, then the sum of package times and
# the wall time of the whole run (packages run in parallel, so the wall
# time is the smaller). A report, not a gate: it exits non-zero only when
# a test fails, printing the full log.
test-times:
	@start=$$(date +%s); \
	$(GO) test -count=1 ./... > /tmp/test-times.log 2>&1; st=$$?; \
	end=$$(date +%s); \
	awk '($$1 == "ok" || $$1 == "FAIL") && $$3 ~ /^[0-9.]+s$$/ { sum += $$3; printf "%8.2fs  %s\n", $$3, $$2 | "sort -rn" } \
		END { close("sort -rn"); printf "%8.2fs  sum of package times\n", sum }' /tmp/test-times.log; \
	printf "%8ds  wall time of go test -count=1 ./...\n" $$((end - start)); \
	if [ $$st -ne 0 ]; then cat /tmp/test-times.log; fi; \
	exit $$st

race:
	$(GO) test -race ./...

# Uncached full-suite race pass; the dedicated CI race job runs this.
check-race:
	$(GO) test -race -count=1 ./...

bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# perfbench/ is its own Go module (the repo benchmark), so the root
# ./... never compiles it: vet and test it here.
bench-module:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# Runs one traced experiment end to end and validates the emitted Chrome
# trace file; fragtrace exits non-zero if the critical-path categories do
# not sum to the total or the JSON is malformed.
trace-smoke:
	$(GO) run ./cmd/fragtrace -experiment fig4 -scale 0.005 -out /tmp/fragtrace-smoke.json

# Determinism-under-concurrency gate: the same >=16-run fragsweep grid
# (2 experiments x 8 seeds) run sequentially and across the worker pool
# must produce byte-identical JSON. -parallel changes wall time, never
# bytes.
sweep-smoke:
	$(GO) run ./cmd/fragsweep -scales 0.02 -seeds 8 -runs -json -parallel 1 > /tmp/fragsweep-seq.json
	$(GO) run ./cmd/fragsweep -scales 0.02 -seeds 8 -runs -json > /tmp/fragsweep-par.json
	cmp /tmp/fragsweep-seq.json /tmp/fragsweep-par.json
	@echo "sweep-smoke: parallel output byte-identical to sequential"

# Three-way reclaim-policy gate: the consolidate/evict/resize soak grid
# (3 experiments x 6 seeds = 18 runs) must be byte-identical across
# worker counts, and the appended policy-comparison table must carry one
# row per policy.
balloon-smoke:
	$(GO) run ./cmd/fragsweep -experiments fleetsoak,fleetsoak-evict,fleetsoak-resize \
		-scales 0.02 -seeds 6 -json -parallel 1 > /tmp/balloon-seq.json
	$(GO) run ./cmd/fragsweep -experiments fleetsoak,fleetsoak-evict,fleetsoak-resize \
		-scales 0.02 -seeds 6 -json > /tmp/balloon-par.json
	cmp /tmp/balloon-seq.json /tmp/balloon-par.json
	grep -q '"consolidate"' /tmp/balloon-par.json
	grep -q '"evict"' /tmp/balloon-par.json
	grep -q '"resize"' /tmp/balloon-par.json
	@echo "balloon-smoke: three-policy grid byte-identical; all policy rows present"

# Tree-topology gate: the fleettopo oversubscribed-spine sweep must be
# byte-identical across worker counts. The flat fabric's output bytes are
# pinned by the golden tests in the main suite (fabric_golden_test.go,
# internal/netsim/golden_test.go).
topo-smoke:
	$(GO) run ./cmd/fragsweep -experiments fleettopo -scales 0.05 -seeds 6 -runs -json -parallel 1 > /tmp/topo-seq.json
	$(GO) run ./cmd/fragsweep -experiments fleettopo -scales 0.05 -seeds 6 -runs -json > /tmp/topo-par.json
	cmp /tmp/topo-seq.json /tmp/topo-par.json
	@echo "topo-smoke: tree sweep deterministic under -parallel"

# Reliable-transport / fault-domain gate. The netstorm experiment (drop
# storms and a ToR-uplink cut against the data plane, a probe-visible
# storm plus a host-link cut/heal against all three fleet reclaim
# policies) must complete — the fault schedules once deadlocked blocking
# senders — be byte-identical run-to-run and across sweep workers, and
# actually exercise the typed-unreachable path (nonzero unreachable
# probes in the fleet rows, recorded deaths in the cut rows).
netstorm-smoke:
	$(GO) run ./cmd/fragbench -fig netstorm -scale 0.02 > /tmp/netstorm-a.txt
	$(GO) run ./cmd/fragbench -fig netstorm -scale 0.02 > /tmp/netstorm-b.txt
	cmp /tmp/netstorm-a.txt /tmp/netstorm-b.txt
	grep -q 'vm-tor-cut' /tmp/netstorm-a.txt
	awk '$$1 == "fleet-storm" && $$10 == 0.000 { exit 1 }' /tmp/netstorm-a.txt
	$(GO) run ./cmd/fragsweep -experiments netstorm -scales 0.02 -seeds 4 -runs -json -parallel 1 > /tmp/netstorm-seq.json
	$(GO) run ./cmd/fragsweep -experiments netstorm -scales 0.02 -seeds 4 -runs -json > /tmp/netstorm-par.json
	cmp /tmp/netstorm-seq.json /tmp/netstorm-par.json
	@echo "netstorm-smoke: storm/cut recovery deterministic; unreachable path exercised"

# Chaos gate, two halves. Clean search: a bounded ~64-episode search
# over seed code must come back with zero violations, byte-identical
# across worker counts (-parallel changes wall time, never bytes).
# Seeded bug: with a fixed historical bug re-introduced behind its test
# hook, the search must find it (non-zero exit), shrink it, and export
# an artifact that -replay re-executes byte-identically.
chaos-smoke:
	$(GO) run ./cmd/fragchaos -episodes 64 -seed 1 -json /tmp/chaos-seq.json -parallel 1
	$(GO) run ./cmd/fragchaos -episodes 64 -seed 1 -json /tmp/chaos-par.json
	cmp /tmp/chaos-seq.json /tmp/chaos-par.json
	! $(GO) run ./cmd/fragchaos -episodes 12 -seed 2 -no-dedup -artifact /tmp/chaos-repro.json > /dev/null 2>&1
	$(GO) run ./cmd/fragchaos -replay /tmp/chaos-repro.json
	@echo "chaos-smoke: clean search deterministic; seeded bug found, shrunk, replayed byte-identically"
