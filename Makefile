# Standard developer entry points. Everything is plain `go` underneath; the
# Makefile just names the common invocations.

GO ?= go

.PHONY: all build test test-race test-short cover bench bench-smoke bench-check profile fuzz vet fmt tables html examples clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

test-short:
	$(GO) test -short ./...

cover:
	$(GO) test -cover ./...

# Full benchmark sweep. The raw text (benchstat-comparable) is kept in
# BENCH_latest.txt and a machine-diffable JSON form in BENCH_latest.json.
# Recorded at one P: at GOMAXPROCS=N>1 go test names each row BenchmarkX-N,
# and bench-check and the CI gate match rows by name.
bench:
	$(GO) test -bench=. -benchmem -cpu 1 ./... | tee BENCH_latest.txt
	$(GO) run ./cmd/benchjson < BENCH_latest.txt > BENCH_latest.json

# One iteration per benchmark — CI smoke test that every benchmark still
# runs, without paying for stable numbers.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -benchmem ./...

# Regression gate: re-run the full sweep (best of 2) and fail if any
# benchmark regressed more than 10% on its primary metric (events/s where
# reported, else ns/op) against the committed BENCH_latest.json. CI runs a
# faster throughput-only subset of this; see .github/workflows/ci.yml.
bench-check:
	$(GO) test -bench=. -benchmem -count=2 -cpu 1 ./... | $(GO) run ./cmd/benchjson -compare BENCH_latest.json > /dev/null

# CPU + heap profile of a checker hot loop. Writes cpu.prof / mem.prof and
# prints the pprof -top summaries. Override the package or benchmark:
#   make profile PROFILE_PKG=./internal/core PROFILE_BENCH=BenchmarkCheckerEvent
PROFILE_PKG   ?= ./internal/race
PROFILE_BENCH ?= .
profile:
	$(GO) test -run='^$$' -bench='$(PROFILE_BENCH)' -benchmem \
		-cpuprofile cpu.prof -memprofile mem.prof \
		-o profile.test $(PROFILE_PKG)
	$(GO) tool pprof -top -nodecount 15 profile.test cpu.prof
	$(GO) tool pprof -top -nodecount 15 -sample_index=alloc_space profile.test mem.prof

fuzz:
	$(GO) test ./internal/trace -run FuzzRead -fuzz=FuzzRead -fuzztime=30s

# vet runs the stock Go checks plus the project's own static
# cooperability pass over every example program.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/coopvet examples/bank examples/quickstart examples/pipeline examples/explore examples/deadlock
	$(GO) run ./cmd/cooptrans internal/cooptrans/testdata/corpus/counter internal/cooptrans/testdata/corpus/pipeline internal/cooptrans/testdata/corpus/racybank

fmt:
	gofmt -l -w .

# Regenerate every evaluation artifact (tables 1-6, figures 1-3, summary).
tables:
	$(GO) run ./cmd/benchtab -all -seeds 4

html:
	$(GO) run ./cmd/benchtab -all -seeds 4 -html evaluation.html

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/bank
	$(GO) run ./examples/pipeline
	$(GO) run ./examples/explore
	$(GO) run ./examples/deadlock

clean:
	rm -f evaluation.html test_output.txt bench_output.txt BENCH_latest.txt BENCH_latest.json
	rm -f cpu.prof mem.prof profile.test telemetry.json
