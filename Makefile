GO ?= go

.PHONY: all check build test race chaos bench spine tenant-smoke persist-smoke stream-smoke cluster-smoke serve loadgen medrouter vet cover fuzz-smoke

all: build test

# Full local gate: tier-1 build+test plus the race-enabled chaos suite.
check: build test chaos

build:
	$(GO) build ./...

# Tier-1 gate: everything must build and pass.
test: build
	$(GO) test ./...

# Race-detector pass over the full suite. Evaluation is serial; what
# runs concurrently is the mediator's source fan-out (exercised with
# GOMAXPROCS 8 by internal/mediator fanout_test.go), the serve and
# cluster layers, and the stream feeds.
race:
	$(GO) test -race ./...

# Fault-injection chaos & property suite under the race detector: the
# seed matrix is fixed inside the tests (chaos_test.go: 1, 7, 42,
# 1001), so a pass is reproducible. Covers the wrapper fault injector,
# retry/deadline/breaker unit tests, chaos equivalence, monotone
# degradation, and the degraded medsh/comparison sessions.
chaos:
	$(GO) test -race -run 'Chaos|Fault|Degrad|Breaker|Retry|Deadline|Down|InMemoryConcurrent|GuardDisabled|Reports' \
		./internal/wrapper ./internal/mediator ./cmd/medsh ./examples/comparison

bench:
	$(GO) test -bench=. -benchmem .

# The benchmark spine (BENCHMARK.json, benchmark/README.md): one
# workload's five gated end-to-end metrics, built and run exactly as
# the driver does. W picks the workload.
W ?= live_update
spine:
	bash benchmark/run.sh --workload $(W)

# Resource-governance smoke, race-enabled: the DRR grant-order unit
# test, the single-flight leader-cancel and 504-slot-release
# regressions, the budget->422 mapping, cache partition isolation, the
# early-400 logging fix, the abusive-tenant chaos test, and the
# engine-level budget/cancellation suite.
tenant-smoke:
	$(GO) test -race -count=1 -run 'TestDRRWeightedOrder|TestSingleFlightLeaderCancelRecovery|TestTenantCachePartitionIsolation|TestTimeoutFreesAdmissionSlot|TestBudgetExceededReturns422|TestEarlyBadRequestLogged|TestAbusiveTenantFairness' ./internal/serve
	$(GO) test -race -count=1 -run 'Budget|StopsFixpoint|StopsRun|SpendsGas|ChargesGas|HonoursCancelled' ./internal/datalog

# Durability smoke: the crash-recovery harness (sampled WAL offsets
# under -short), corruption/torn-write/golden/version-skew codec tests,
# the mediator warm-restore suite (including the WAL tails of the
# push, pull and stream routes and replayed anchor re-indexing), the
# mid-drain delta regression, the medd warm-restart round trip, the
# source-state package a restore builds through, and the dump route's
# agreement with the move — all race-enabled.
persist-smoke:
	$(GO) test -race -short -count=1 ./internal/persist
	$(GO) test -race -count=1 ./internal/srcstate
	$(GO) test -race -count=1 -run 'WarmRestore|RestoreRejections|RestoreFullMarker|SnapshotState|ReplayIdempotence|ReplayReindexes|SourceRoutesAgree|ReadMovesNoState|DumpRouteAgrees' ./internal/mediator
	$(GO) test -race -count=1 -run 'DeltaDuringDrain' ./internal/serve
	$(GO) test -race -count=1 -run 'DaemonWarmRestart|DaemonCrashMidStream' ./cmd/medd

# Live-federation smoke, race-enabled: wrapper delta-stream emission
# and the stream fault injector, the mediator's sequencing/resync and
# feed-loop suite, the seeded streaming-vs-batch-vs-scratch
# differential, the push/pull/stream route agreement and the dump
# route's, the source-state package every move folds through, refused
# foreign facts and pushed anchors (mediator and /v1/delta), chaos
# convergence under faulty feeds, the SSE subscription surface (push,
# tenant caps, drain), the mid-stream crash/warm-restart regression,
# and the wall-clock budget suite.
stream-smoke:
	$(GO) test -race -count=1 -run 'Stream|Subscribe|Feed|SourceRoutesAgree|DumpRouteAgrees|PushedAnchors|DeltaStatusCodes' ./internal/wrapper ./internal/mediator ./internal/serve ./cmd/medd
	$(GO) test -race -count=1 ./internal/srcstate
	$(GO) test -race -count=1 -run 'Wall' ./internal/datalog

# Sharded-cluster smoke, race-enabled: the whole internal/cluster
# suite — decomposition modes, shard-spec parsing, router cache and
# precise delta invalidation, the 2-/4-shard differential against a
# monolithic reference (Section 5 workload + 50 seeded query/delta
# sequences + a concurrent leg), the router replica tests (the
# differential's replica-equals-a-one-off-build check after every
# delta and gather, and TestGatherCyclePatches: the benchmark's gather
# cycle with concurrent readers patches, never rebuilds, and
# TestReplicaMoveOutlivesItsRequest), the downed-shard chaos test, and the client-cancel breaker regression —
# plus the medrouter and medd flag/daemon tests.
cluster-smoke:
	$(GO) test -race -count=1 ./internal/cluster
	$(GO) test -race -count=1 ./cmd/medrouter ./cmd/medd

# Run the query service daemon on its default address (127.0.0.1:8344).
SERVE_ADDR ?= 127.0.0.1:8344
serve:
	$(GO) run ./cmd/medd -addr $(SERVE_ADDR)

# Closed-loop load against a running daemon (make serve in another
# terminal first).
loadgen:
	$(GO) run ./cmd/loadgen -addr http://$(SERVE_ADDR)

# Run the cluster query router on its default address (127.0.0.1:8345).
# Point ROUTER_SHARDS at running medd shards, e.g.
#   make medrouter ROUTER_SHARDS=http://127.0.0.1:8344,http://127.0.0.1:8346
ROUTER_SHARDS ?= http://127.0.0.1:8344
medrouter:
	$(GO) run ./cmd/medrouter -shards $(ROUTER_SHARDS)

vet:
	$(GO) vet ./...

# Ratcheted coverage gate: the suite currently sits at ~76.6% of
# statements; the threshold trails it so coverage can only move up.
# Raise the ratchet when the total grows. The durability layer carries
# its own floor: internal/persist (currently ~83%) must stay >= 80%,
# since a silently-untested recovery path is worse than none. The
# live-federation code (wrapper/mediator stream.go, serve/load
# subscribe.go, mediator incr.go, where every streamed batch is
# applied, and srcstate move.go, where it is folded under the
# shared-fact rule into layers over the held state, which a failed
# move simply drops) carries the same 80% floor — it is all
# push-path code, where an untested branch is a silent divergence.
COVER_THRESHOLD ?= 76.0
PERSIST_COVER_THRESHOLD ?= 80.0
STREAM_COVER_THRESHOLD ?= 80.0

cover:
	$(GO) test -count=1 -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	awk -v t=$$total -v min=$(COVER_THRESHOLD) 'BEGIN { \
		if (t+0 < min+0) { printf "coverage %.1f%% is below the %.1f%% ratchet\n", t, min; exit 1 } \
		printf "coverage %.1f%% (ratchet %.1f%%)\n", t, min }'
	$(GO) test -count=1 -coverprofile=coverage_persist.out ./internal/persist
	@total=$$($(GO) tool cover -func=coverage_persist.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	awk -v t=$$total -v min=$(PERSIST_COVER_THRESHOLD) 'BEGIN { \
		if (t+0 < min+0) { printf "internal/persist coverage %.1f%% is below the %.1f%% floor\n", t, min; exit 1 } \
		printf "internal/persist coverage %.1f%% (floor %.1f%%)\n", t, min }'
	@awk -v min=$(STREAM_COVER_THRESHOLD) '\
		NR > 1 && $$1 ~ /internal\/((wrapper|mediator|serve|load)\/(stream|subscribe)|mediator\/incr|srcstate\/move)\.go:/ { total += $$2; if ($$3 > 0) covered += $$2 } \
		END { \
			if (total == 0) { print "no stream code in the profile"; exit 1 } \
			pct = 100 * covered / total; \
			if (pct < min+0) { printf "stream code coverage %.1f%% is below the %.1f%% floor\n", pct, min; exit 1 } \
			printf "stream code coverage %.1f%% (floor %.1f%%)\n", pct, min }' coverage.out

# Ten-second smoke run of every native fuzz target (corpus seeds plus
# fresh mutations; a crasher fails the target).
FUZZTIME ?= 10s

fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParseRules -fuzztime=$(FUZZTIME) ./internal/parser
	$(GO) test -run='^$$' -fuzz=FuzzParseTerm -fuzztime=$(FUZZTIME) ./internal/parser
	$(GO) test -run='^$$' -fuzz=FuzzReify -fuzztime=$(FUZZTIME) ./internal/xmlio
	$(GO) test -run='^$$' -fuzz=FuzzDecodeModel -fuzztime=$(FUZZTIME) ./internal/xmlio
	$(GO) test -run='^$$' -fuzz=FuzzParseAxioms -fuzztime=$(FUZZTIME) ./internal/dl
	$(GO) test -run='^$$' -fuzz=FuzzWALDecode -fuzztime=$(FUZZTIME) ./internal/persist
	$(GO) test -run='^$$' -fuzz=FuzzQueryResponse -fuzztime=$(FUZZTIME) ./internal/serve
