package main

import (
	"io"
	"strings"
	"testing"
)

func parse(t *testing.T, text string) []Result {
	t.Helper()
	rs, err := parseText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

const baseline = `pkg: repro/internal/race
BenchmarkRaceEvent   	 1000	 100.0 ns/op	 0 B/op	 0 allocs/op
`

// A row named with go test's -N suffix (GOMAXPROCS=N>1) is a different
// benchmark from the one-P baseline row, and a run of only such rows
// compares nothing, which fails the gate.
func TestSuffixedNameDoesNotMatch(t *testing.T) {
	run := parse(t, "pkg: repro/internal/race\nBenchmarkRaceEvent-2   	 1000	 100.0 ns/op\n")
	if _, compared := compare(io.Discard, parse(t, baseline), run, 0.10); compared != 0 {
		t.Fatalf("compared %d rows, want 0: BenchmarkRaceEvent-2 matched BenchmarkRaceEvent", compared)
	}
	if err := gate(io.Discard, parse(t, baseline), run, 0.10); err == nil {
		t.Fatal("gate passed a run in which no row matched the baseline")
	}
}

func TestMatchedRegressionFails(t *testing.T) {
	base := parse(t, baseline)
	if err := gate(io.Discard, base, parse(t, "pkg: repro/internal/race\nBenchmarkRaceEvent   	 1000	 105.0 ns/op\n"), 0.10); err != nil {
		t.Fatalf("a 5%% slowdown failed a 10%% gate: %v", err)
	}
	run := parse(t, "pkg: repro/internal/race\nBenchmarkRaceEvent   	 1000	 150.0 ns/op\n")
	regressions, compared := compare(io.Discard, base, run, 0.10)
	if compared != 1 || len(regressions) != 1 {
		t.Fatalf("compared %d, regressed %d; want 1 and 1", compared, len(regressions))
	}
	if err := gate(io.Discard, base, run, 0.10); err == nil {
		t.Fatal("gate passed a 50% slowdown")
	}
}

func TestEmptyMatchFails(t *testing.T) {
	if err := gate(io.Discard, parse(t, baseline), parse(t, ""), 0.10); err == nil {
		t.Fatal("gate passed a run with no benchmarks")
	}
	other := parse(t, "pkg: repro/internal/lockset\nBenchmarkRaceEvent   	 1000	 100.0 ns/op\n")
	if err := gate(io.Discard, parse(t, baseline), other, 0.10); err == nil {
		t.Fatal("gate passed a run whose only row is in another package")
	}
}
