// Command benchjson converts `go test -bench` text output (stdin) into a
// JSON array (stdout), one object per benchmark line, keeping every
// value/unit pair (ns/op, B/op, allocs/op, custom metrics like events/s).
// `make bench` tees the raw text through it into BENCH_latest.json so runs
// can be diffed mechanically; the text form stays benchstat-compatible.
//
// With -compare it additionally diffs the parsed results against a
// committed baseline JSON (exit 1 on regression), which is what the CI
// regression gate runs:
//
//	go test -bench=. -benchmem -cpu 1 ./... | go run ./cmd/benchjson > BENCH_latest.json
//	go test -bench=. -benchmem -cpu 1 ./... | go run ./cmd/benchjson -compare BENCH_latest.json > /dev/null
//
// Comparison is per benchmark (matched by package+name) on one primary
// metric: events/s when both sides report it (higher is better), ns/op
// otherwise (lower is better). A change past -threshold (default 0.10,
// i.e. 10%) in the losing direction is a regression; benchmarks present on
// only one side are listed but never fail the run, so adding or removing a
// benchmark does not require regenerating the baseline in the same commit.
// A run in which no benchmark matched the baseline fails: `go test` names
// a benchmark BenchmarkX-N at GOMAXPROCS=N>1, so a run at another -cpu
// than the baseline's (which is recorded at -cpu 1) compares nothing.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name       string             `json:"name"`
	Package    string             `json:"package,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

func (r Result) key() string { return r.Package + "/" + r.Name }

// parseText reads `go test -bench` text output.
func parseText(r io.Reader) ([]Result, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	out := []Result{} // encode as [] (not null) when nothing matches
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iterations, then value/unit pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := Result{Name: fields[0], Package: pkg, Iterations: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			r.Metrics[fields[i+1]] = v
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// primaryMetric picks the metric a pair of results is compared on.
// events/s is the throughput the fused-engine benchmarks exist to guard, so
// it wins when both sides have it; ns/op is the universal fallback.
func primaryMetric(old, new Result) (name string, higherIsBetter bool, ok bool) {
	if _, a := old.Metrics["events/s"]; a {
		if _, b := new.Metrics["events/s"]; b {
			return "events/s", true, true
		}
	}
	if _, a := old.Metrics["ns/op"]; a {
		if _, b := new.Metrics["ns/op"]; b {
			return "ns/op", false, true
		}
	}
	return "", false, false
}

// mergeBest collapses duplicate benchmark keys (from `go test -count=N`)
// into one best-of-N result: max for throughput metrics (.../s), min for
// everything else (ns/op, B/op, allocs/op). Best-of-N is the standard
// noise filter for regression gating on shared CI runners.
func mergeBest(in []Result) map[string]Result {
	out := map[string]Result{}
	for _, r := range in {
		k := r.key()
		prev, ok := out[k]
		if !ok {
			out[k] = r
			continue
		}
		for m, v := range r.Metrics {
			pv, seen := prev.Metrics[m]
			better := v < pv // lower is better by default
			if strings.HasSuffix(m, "/s") {
				better = v > pv
			}
			if !seen || better {
				prev.Metrics[m] = v
			}
		}
		out[k] = prev
	}
	return out
}

// compare diffs new against base and reports regressions past threshold.
// It writes a human-readable summary to w and returns the regressed lines
// and the number of benchmarks compared.
func compare(w io.Writer, base, new []Result, threshold float64) (regressions []string, compared int) {
	baseBy := mergeBest(base)
	newBy := mergeBest(new)
	keys := make([]string, 0, len(newBy))
	for k := range newBy {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	for _, k := range keys {
		nr := newBy[k]
		br, ok := baseBy[k]
		if !ok {
			fmt.Fprintf(w, "  new       %-60s (no baseline)\n", k)
			continue
		}
		metric, higher, ok := primaryMetric(br, nr)
		if !ok {
			fmt.Fprintf(w, "  skip      %-60s (no comparable metric)\n", k)
			continue
		}
		ov, nv := br.Metrics[metric], nr.Metrics[metric]
		if ov == 0 {
			continue
		}
		compared++
		change := nv/ov - 1 // signed relative change in the metric
		verdict := "ok"
		regressed := false
		if higher {
			regressed = change < -threshold
		} else {
			regressed = change > threshold
		}
		if regressed {
			verdict = "REGRESSED"
		}
		line := fmt.Sprintf("%-9s %-60s %-10s %14.4g -> %14.4g  (%+.1f%%)",
			verdict, k, metric, ov, nv, change*100)
		fmt.Fprintln(w, " ", line)
		if regressed {
			regressions = append(regressions, line)
		}
	}
	for k := range baseBy {
		if _, ok := newBy[k]; !ok {
			fmt.Fprintf(w, "  removed   %-60s (in baseline only)\n", k)
		}
	}
	return regressions, compared
}

// gate compares new against base, writing the summary to w, and returns
// an error when a benchmark regressed past threshold or when not one
// benchmark could be compared with the baseline.
func gate(w io.Writer, base, new []Result, threshold float64) error {
	regressions, compared := compare(w, base, new, threshold)
	if compared == 0 {
		return fmt.Errorf("none of %d benchmarks matched the baseline; "+
			"at GOMAXPROCS=N>1 go test names them BenchmarkX-N, so run at the baseline's -cpu 1", len(new))
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d of %d benchmark(s) regressed more than %.0f%%:\n  %s",
			len(regressions), compared, threshold*100, strings.Join(regressions, "\n  "))
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

func main() {
	compareWith := flag.String("compare", "", "baseline JSON file to compare against (exit 1 on regression)")
	threshold := flag.Float64("threshold", 0.10, "relative regression tolerance on the primary metric")
	flag.Parse()

	results, err := parseText(os.Stdin)
	if err != nil {
		fatal(err)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fatal(err)
	}

	if *compareWith == "" {
		return
	}
	raw, err := os.ReadFile(*compareWith)
	if err != nil {
		fatal(err)
	}
	var base []Result
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal(fmt.Errorf("parsing baseline %s: %w", *compareWith, err))
	}
	fmt.Fprintf(os.Stderr, "benchjson: comparing %d benchmarks against %s (threshold %.0f%%)\n",
		len(results), *compareWith, *threshold*100)
	if err := gate(os.Stderr, base, results, *threshold); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "benchjson: no regressions")
}
