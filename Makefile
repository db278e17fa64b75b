GO ?= go

.PHONY: verify build fmtcheck vet test perfbench race benchsmoke bench benchfull chaos crash fuzzsmoke

# Tier-1 verification: everything must be green before a merge.
verify: build fmtcheck vet test perfbench race benchsmoke chaos crash fuzzsmoke

build:
	$(GO) build ./...

fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The repo benchmark (BENCHMARK.json) is its own module, so ./... above
# skips it, yet it compiles against the public clam API: vet and test it
# here so an API change cannot silently break the benchmark.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The concurrency-heavy packages additionally run under the race detector:
# sessions, heartbeats, eviction, upcall queues, the RUC table and the
# task scheduler all share state across goroutines. wire and rpc ride
# along so the allocation guards are also exercised with the race
# runtime's different allocator behaviour.
race:
	$(GO) test -race ./internal/core/... ./internal/mesh ./internal/upcall/... ./internal/wire ./internal/rpc ./internal/ruc ./internal/task

# Fault-injection and resurrection tests, twice under the race detector:
# scripted link kills, flap schedules, session resumes and chain healing
# are timing-sensitive, so -count=2 shakes out order-dependent passes.
chaos:
	$(GO) test -race -count=2 -run 'Chaos|Resume|Reconnect|Flap|Resurrect|Disconnect|Kill|Breaker|Partition|PeerDown|Cancel|Deadline' ./internal/core/... ./internal/wire

# The crash-restart suite: a re-exec'd server process is SIGKILLed
# mid-burst and restarted on its write-ahead journal (DESIGN.md §6.5);
# the at-most-once ledger must balance exactly. The journal's own
# torn-tail/compaction tests ride along.
crash:
	$(GO) test -race -count=2 -run 'Crash|Kill|ReplayGap|Retransmit' ./internal/core/...
	$(GO) test -race -count=2 ./internal/journal/...

# Every benchmark body runs exactly once: catches bit-rotted bench code
# (fixture boot failures, renamed methods) without paying for measurement.
# The fan-out matrix rides along at toy scale — it is self-checking (cells
# are lossless-or-fatal, the tree row verifies its counters), so this also
# smoke-tests the multicast path end to end.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	$(GO) run ./cmd/clambench -fanout -fanout-subs 64 -fanout-events 20
	$(GO) run ./cmd/clambench -mesh -mesh-iters 50
	$(GO) run ./cmd/clambench -transport -transport-iters 100
	$(GO) run ./cmd/clambench -overload -overload-dur 300ms

# Reproducible bench pipeline: regenerates BENCH_3.json (Fig 5.1 suite,
# pooling ablation and the dispatch-throughput matrix, with the embedded
# pre-change baselines for comparison), BENCH_4.json (the fan-out matrix,
# 10k-subscriber scale row and mid-tier multiplication proof) and
# BENCH_5.json (the mesh routing matrix: local vs routed calls/upcalls,
# with the 1-peer ablation parity row against the chain numbers) and
# BENCH_6.json (the transport matrix: the same call/upcall/throughput
# rows across tcp, unix, pipe and the shared-memory rings, with the
# WithoutSharedMemory ablation and the pre-shm baseline embedded).
# See EXPERIMENTS.md for the schemas.
bench:
	$(GO) run ./cmd/clambench -iters 300 -json BENCH_3.json
	$(GO) run ./cmd/clambench -fanout -fanout-json BENCH_4.json
	$(GO) run ./cmd/clambench -mesh -mesh-json BENCH_5.json
	$(GO) run ./cmd/clambench -transport -transport-json BENCH_6.json
	$(GO) run ./cmd/clambench -overload -overload-json BENCH_7.json

# The full testing.B suite, for apples-to-apples -benchmem numbers.
benchfull:
	$(GO) test -bench=. -benchmem

# Short coverage-guided fuzzing of the wire parsers a hostile peer can
# reach pre-session: the frame header and the MsgCancel body. A few
# seconds each is enough to catch parser regressions in CI; run
# `go test -fuzz FuzzFrameHeader ./internal/wire` for a real campaign.
fuzzsmoke:
	$(GO) test -run '^$$' -fuzz 'FuzzFrameHeader' -fuzztime 5s ./internal/wire
	$(GO) test -run '^$$' -fuzz 'FuzzCancelBody' -fuzztime 5s ./internal/wire
