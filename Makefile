GO ?= go

.PHONY: all build vet fmt-check test race exp-check check mutate soak soak-byzantine soak-catchup soak-smoke-race fuzz fuzz-smoke bench-smoke bench-repo bench-repo-smoke bench-ab clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt-check fails when any file is not gofmt-clean, and lists them.
fmt-check:
	@out=$$(gofmt -l .); [ -z "$$out" ] || { echo "gofmt -l:"; echo "$$out"; exit 1; }

test:
	$(GO) test ./...

# race is the whole suite under the race detector, and it is the
# shared-state check. CI runs it at GOMAXPROCS 1 and 4. The tests that drive each of the six mutexes
# concurrently: live.Transport.mu and the live recorder's mu
# (TestLiveBroadcast*, TestLivePartitionHeals), udp.Node.mu
# (TestUDPGroupSurvivesBurst), trace.Buffer.mu (TestConcurrentAdds),
# replica.Store.mu (TestStoreConcurrentApplyAndRead) and soak.Run's
# progressMu (TestProgressCallsAreSerialized). Lane workers of the sharded
# engine share no lock; TestShardedWorkerCountIdentity and
# TestShardTraceIdentity run them in parallel. What a lane event may call
# is checked by the engine as it runs, with one worker, where it knows the
# executing lane: TestShardedScheduleFromLaneEventPanics holds every row of
# DESIGN.md's "Lane discipline" table, and the shard-count suites run
# every lane path at one worker too. What -race cannot see, a callback
# that waits on a lock its caller holds, is held by the OnDeliver
# re-entrancy tests of udp, live and node (TestOnDeliverMayRead*).
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
# holds the experiment capture (TestAllExperimentsHold), the soak traces
# (TestGoldenTraces) and the tests that took over from the static
# analyzers (README "Contracts held by tests"). It does
# not run benchmarks: a perf claim is measured with `go run ./benchmarks`
# on the parent and on the change (`-compare a.json b.json`).
check: build vet fmt-check race

# mutate runs the mutant catalogue (scripts/mutants.tsv) against HEAD's
# tree: each mutant's edits in an exported copy, the tests the catalogue
# names for it, killed or survived per mutant. It fails on a survivor, and
# on an edit whose anchor no longer matches. The script takes a revision
# and an id regex, e.g. sh scripts/mutate.sh HEAD '^(K1|K2)$'.
mutate:
	sh scripts/mutate.sh

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
# on each; check takes the workload and then metric/limit pairs. The
# simulated counts repeat to four digits on any machine: sim-wide-seq
# 0.0192 (limit 0.024; 0.0356 while every in-flight record's payload box
# was an allocation of its own, 0.0360 while every cold Schedule took a cancel cell
# of its own, 0.0371 while each route recomputation allocated its own
# scratch, 0.0374 while every receiver copied each payload
# and the workload took a closure per broadcast, 0.0443 while a MAP entry
# shared the frame's INFO storage, 0.2304 before sends stopped boxing
# their payload), sim-stream 0.0023 (limit 0.003; 0.0036 while merge
# copied every delivery into per-host maps and every cold Schedule took a
# cancel cell of its own, 0.0187 while every INFO
# frame carried a Snapshot that the sender's next Add copied, 0.0202
# until the 0.0374 change, 0.0836 until the MAP change, 0.2599 before
# kept payloads were carved from chunks) and soak-sweep 1 005.1 per seed
# (limit 1 105; 1 129.9 while merge copied every delivery into maps and
# every cold Schedule took its own cancel cell, 1 216.7 while each route
# recomputation allocated its own
# scratch, 1 900.5 while frames carried a Snapshot of INFO and
# per-message Parts, the replica decoded every update into new strings
# and a send through the adversary hook boxed its payload twice, 1 971
# until the 0.0374 change, 1 977 while netsim kept its hosts in a hash
# map, 3 270 before MAP entries kept their own storage and a settling
# seed stopped writing reports).
# bytes_per_work is gated on three workloads. sim-wide-seq's, because a
# run of n hosts holds n² peer records, two cache lines each: 15.0 (limit
# 17; 20.8 while each record held its Delta-INFO state, 232 bytes).
# sim-stream's, because a
# simulated payload is stored once, as the source's copy
# (core.SharedPayloads), a store past 2 048 slots grows by pages, not
# by copies, and a Result reads deliveries in the lanes' windows: 18.4
# (limit 21; 28.9 while merge copied every delivery into per-host maps,
# 47.0 while every store doubled by copying
# and the delay samples grew by append, 91.7 while every receiver kept a
# copy). soak-sweep's, because a sync response carries its parts at
# their count: 274 107 per seed (limit 301 500; 294 557 while merge
# copied deliveries into maps, 301 517 before the route
# scratch, 345 319 while every response took SyncBatch parts, with the
# per-message garbage above).
# udp-loopback's allocs_per_work moves in the third digit with the
# scheduler: 0.0075 to 0.0095 (limit 0.014; a burst of envelopes past
# the free list is carved 32 at a time, where each took two allocations;
# 0.010 to 0.014 while the
# envelope and command free lists were sync.Pools, which every GC emptied,
# 0.07 while INFO frames carried a Snapshot, 0.45 while DecodeEnvelope
# cloned every INFO a handler would keep, 3.92 before the socket calls
# took addresses by value and Broadcast reused its rendezvous).
bench-repo-smoke:
	@check() { \
		w=$$1; shift; \
		line=$$($(GO) run ./benchmarks -workload $$w -seed 1 -seconds 3 -trace 0 | tail -n 1); \
		echo "$$line" | grep -q '"correct":true' || { echo "bench-repo-smoke: $$w did not report correct: $$line"; exit 1; }; \
		while [ $$# -gt 0 ]; do \
			v=$$(echo "$$line" | sed -n "s/.*\"$$1\":{\"value\":\([0-9.e+-]*\).*/\1/p"); \
			echo "bench-repo-smoke: $$w correct, $$1 $$v (limit $$2)"; \
			awk -v a="$$v" -v limit="$$2" 'BEGIN { exit !(a != "" && a + 0 <= limit + 0) }' || { echo "bench-repo-smoke: $$w $$1 over the limit"; exit 1; }; \
			shift 2; \
		done; \
	}; \
	check sim-wide-seq allocs_per_work 0.024 bytes_per_work 17 && check sim-stream allocs_per_work 0.003 bytes_per_work 21 && \
		check udp-loopback allocs_per_work 0.014 && check soak-sweep allocs_per_work 1105 bytes_per_work 301500

# bench-ab is the paired measurement a performance claim rests on
# (README "Performance"): ./benchmarks built once at BASE and once from the
# working tree, run alternately PAIRS times on WORKLOAD, the change first
# in every second pair; it prints each end-to-end metric's median and
# quartiles per side and the pairs the change won. The runs' JSON lines
# stay in a temporary directory the output names. Example:
#   make bench-ab BASE=HEAD~1 WORKLOAD=sim-wide-seq PAIRS=10 SECONDS=25
PAIRS ?= 10
SECONDS ?= 8
SEED ?= 1
bench-ab:
	@[ -n "$(BASE)" ] && [ -n "$(WORKLOAD)" ] || { echo "usage: make bench-ab BASE=<rev> WORKLOAD=<name> [PAIRS=10 SECONDS=8 SEED=1]"; exit 2; }
	sh scripts/bench-ab.sh '$(BASE)' '$(WORKLOAD)' '$(PAIRS)' '$(SECONDS)' '$(SEED)'

# fuzz gives each fuzz target a short budget; raise -fuzztime for real
# campaigns.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzDecodeEnvelope -fuzztime=$(FUZZTIME) ./internal/live/
	$(GO) test -run=^$$ -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -run=^$$ -fuzz=FuzzEngineOrder -fuzztime=$(FUZZTIME) ./internal/sim/
	$(GO) test -run=^$$ -fuzz=FuzzWindow -fuzztime=$(FUZZTIME) ./internal/seqset/
	$(GO) test -run=^$$ -fuzz=FuzzDecodeCheckpoint -fuzztime=$(FUZZTIME) ./internal/replica/
	$(GO) test -run=^$$ -fuzz=FuzzApplyEncoded -fuzztime=$(FUZZTIME) ./internal/replica/

# fuzz-smoke is the CI-sized fuzz budget: long enough to shake out
# shallow decoder and event-order regressions, short enough for every
# pull request.
fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=20s

clean:
	$(GO) clean ./...
