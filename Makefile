GO ?= go

.PHONY: all build vet fmt-check lint test race exp-check check soak soak-byzantine soak-catchup soak-smoke-race fuzz fuzz-smoke bench-smoke bench-repo bench-repo-smoke clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt-check fails when any file is not gofmt-clean, and lists them.
fmt-check:
	@out=$$(gofmt -l .); [ -z "$$out" ] || { echo "gofmt -l:"; echo "$$out"; exit 1; }

# lint is the analyzer sweep `go test ./...` already runs, by name: the
# protocol-aware suite (analysis.Analyzers()) over every package of the
# module against one whole-program call graph, one subtest per package
# directory; see internal/analysis/README.md. Any finding fails it.
lint:
	$(GO) test -count=1 -run '^TestTreeIsClean$$' ./internal/analysis

test:
	$(GO) test ./...

# race is the whole suite under the race detector. That includes the
# sharded engine's determinism tests (worker-count trace identity in sim
# and netsim, shard-count invariance of soak traces and replay reports);
# CI runs it at GOMAXPROCS 1 and 4, so they are checked under both
# serialized and genuinely parallel worker schedules.
race:
	$(GO) test -race ./...

# exp-check is the capture gate `go test ./...` already runs, by name:
# every experiment at seed 1 must hold its claim and print exactly
# experiments_output.txt (the figures EXPERIMENTS.md quotes). A protocol
# refactor gets a byte-identity gate from it in about a second; a
# deliberate change regenerates the file with the command the failure
# prints.
exp-check:
	$(GO) test -count=1 -run '^TestAllExperimentsHold$$' ./internal/experiments

# check is the gate for every change: compile everything, lint with
# gofmt and vet, and run the full suite under the race detector — which
# holds the analyzer sweep (TestTreeIsClean), the experiment capture
# (TestAllExperimentsHold) and the soak traces (TestGoldenTraces). It does
# not run benchmarks: a perf claim is measured with `go run ./benchmarks`
# on the parent and on the change (`-compare a.json b.json`).
check: build vet fmt-check race

# soak runs a quick randomized sweep of every scenario class (the
# partition-trap class is excluded: it fails by design).
soak: build
	$(GO) run ./cmd/rbsoak -class uniform -count 500
	$(GO) run ./cmd/rbsoak -class churn -count 500
	$(GO) run ./cmd/rbsoak -class partition -count 500
	$(GO) run ./cmd/rbsoak -class mixed -count 500
	$(GO) run ./cmd/rbsoak -class recovery -count 500

# soak-byzantine sweeps the adversarial classes: hostile hosts whose
# traffic is rewritten at the transmit seam. Maskable seeds must
# converge despite the adversary; trap seeds (equivocating source) pass
# only when the harness catches the violation, so a clean sweep proves
# both the protocol and the monitor.
soak-byzantine: build
	$(GO) run ./cmd/rbsoak -class byzantine -count 200
	$(GO) run ./cmd/rbsoak -class byzantine-partition -count 200

# soak-catchup sweeps the late-joiner class: a host misses a long,
# partly-pruned history and must converge via snapshot transfer plus
# range sync, under randomized mid-sync partitions, sync-source crashes,
# and joiner kill/restarts. Every seed asserts the O(missing) sync-round
# budget. The sweep starts at seed 1 and so always includes the trap
# seeds (3 partitions mid-sync; 24 stacks all three arms), which force
# the timeout/resume/failover paths on every run.
soak-catchup: build
	$(GO) run ./cmd/rbsoak -class late-joiner -count 200

# soak-smoke-race is a short randomized sweep with the race detector
# compiled in: small counts, one class per scenario family that stresses
# the event queue and membership machinery hardest. CI runs it across a
# GOMAXPROCS matrix so both serialized and parallel schedules are
# exercised; locally it is the cheap pre-push race check.
soak-smoke-race:
	$(GO) run -race ./cmd/rbsoak -class uniform -count 25
	$(GO) run -race ./cmd/rbsoak -class mixed -count 25
	$(GO) run -race ./cmd/rbsoak -class byzantine -count 10
	$(GO) run -race ./cmd/rbsoak -class late-joiner -count 10

# bench-smoke runs every Benchmark* function in the module for one
# iteration: enough to catch one that stops compiling or starts failing,
# with no timing worth reading. For a layer's own figures run its package,
# e.g. `go test -run '^$' -bench EngineQueueDepth ./internal/sim`, or —
# the real-socket path, which the repository benchmark cannot profile —
# `go test -run '^$' -bench Loopback -memprofile mem.out ./internal/udp`.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench-repo runs the repository benchmark declared in BENCHMARK.json
# (benchmarks/README.md): four workloads, an untraced pass for the
# end-to-end metrics and a traced one for the per-layer split, ≈4 min.
# Results land in benchmarks/out/; compare two of them with
# `go run ./benchmarks -compare a.json b.json`.
bench-repo:
	$(GO) run ./benchmarks

# bench-repo-smoke is the CI-sized check of the same program: three
# seconds each of the 512-host control-plane workload, of the
# 10 000-broadcast data-plane one, of the real-socket one and of the soak
# sweep, untraced. The second checks every delivery's payload digest and
# the exact delivery count, so the store and recording path are
# self-checked on every pull request. It fails unless each run's closing
# JSON line reports "correct":true — and unless allocs_per_work, the one
# benchmark number that is a count and not a timing, stays under a ceiling
# on each. The simulated counts repeat to four digits on any machine:
# sim-wide-seq 0.0374 (limit 0.045; 0.0443 while a MAP entry shared the
# frame's INFO storage, 0.2304 before sends stopped boxing their payload),
# sim-stream 0.0202 (limit 0.03; 0.0836 until the same change, 0.2599
# before kept payloads were carved from chunks) and soak-sweep 1 977 per
# seed (limit 2 300; 3 270 before MAP entries kept their own storage and
# a settling seed stopped writing reports). udp-loopback's moves in the
# second digit with the scheduler: 0.07 (limit 0.2; 0.45 while
# DecodeEnvelope cloned every INFO a handler would keep, 3.92 before the
# socket calls took addresses by value and Broadcast reused its
# rendezvous).
bench-repo-smoke:
	@check() { \
		line=$$($(GO) run ./benchmarks -workload $$1 -seed 1 -seconds 3 -trace 0 | tail -n 1); \
		echo "$$line" | grep -q '"correct":true' || { echo "bench-repo-smoke: $$1 did not report correct: $$line"; exit 1; }; \
		allocs=$$(echo "$$line" | sed -n 's/.*"allocs_per_work":{"value":\([0-9.e+-]*\).*/\1/p'); \
		echo "bench-repo-smoke: $$1 correct, allocs_per_work $$allocs (limit $$2)"; \
		awk -v a="$$allocs" -v limit="$$2" 'BEGIN { exit !(a != "" && a + 0 <= limit + 0) }' || { echo "bench-repo-smoke: $$1 allocs_per_work over the limit"; exit 1; }; \
	}; \
	check sim-wide-seq 0.045 && check sim-stream 0.03 && check udp-loopback 0.2 && check soak-sweep 2300

# fuzz gives each fuzz target a short budget; raise -fuzztime for real
# campaigns.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzDecodeEnvelope -fuzztime=$(FUZZTIME) ./internal/live/
	$(GO) test -run=^$$ -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -run=^$$ -fuzz=FuzzEngineOrder -fuzztime=$(FUZZTIME) ./internal/sim/
	$(GO) test -run=^$$ -fuzz=FuzzWindow -fuzztime=$(FUZZTIME) ./internal/seqset/

# fuzz-smoke is the CI-sized fuzz budget: long enough to shake out
# shallow decoder and event-order regressions, short enough for every
# pull request.
fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=20s

clean:
	$(GO) clean ./...
