package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/workloads"
)

// benchSpec is the part of BENCHMARK.json the self-test checks against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// runBench runs the benchmark command the way it is run for real, from the
// repository root, on tiny inputs, and decodes its last line.
func runBench(t *testing.T, workload, trace string, extra ...string) result {
	t.Helper()
	args := append([]string{"perfbench/run.py", "--workload", workload, "--seed", "7",
		"--seconds", "0.1", "--trace", trace, "--tiny"}, extra...)
	cmd := exec.Command("python3", args...)
	cmd.Dir = ".."
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s --trace %s: %v\n%s", workload, trace, err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s --trace %s: last line is not the result: %v", workload, trace, err)
	}
	return r
}

func TestTinyRunPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for trace, want := range map[string][]metricSpec{"0": spec.EndToEnd, "1": spec.PerLayer} {
			r := runBench(t, w.Name, trace)
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s --trace %s: correct=%v attempted=%d failed=%d", w.Name, trace, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s --trace %s: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				switch {
				case !ok || got.Value == nil:
					t.Errorf("%s --trace %s: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s --trace %s: metric %s in %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

func TestCorruptedAnswerFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	e, err := loadExpected("expected", "certify")
	if err != nil {
		t.Fatal(err)
	}
	a := e.Answers["certify/philo"]
	a.Runs++
	e.Answers["certify/philo"] = a
	dir := t.TempDir()
	if err := writeExpected(dir, "certify", e); err != nil {
		t.Fatal(err)
	}
	r := runBench(t, "certify", "0", "--expected", dir)
	if r.Correct || r.Failed == 0 {
		t.Errorf("corrupted answer: correct=%v failed=%d, want a failure", r.Correct, r.Failed)
	}
	if ok := r.Metrics["verdict_ok_frac"].Value; ok == nil || *ok >= 1 {
		t.Errorf("corrupted answer: verdict_ok_frac = %v, want below 1", ok)
	}
}

// TestDPORAgreesWithCertify: at certify's configuration, the exhaustive and
// the conflict-directed explorer find a violation on the same workloads.
func TestDPORAgreesWithCertify(t *testing.T) {
	if testing.Short() {
		t.Skip("explores every workload twice")
	}
	for _, spec := range workloads.All() {
		var verdicts [2]string
		for i, kind := range []string{"certify", "dpor"} {
			a, err := runItem(exploreItem(kind, spec.Name, spec.New(certifyThreads, exploreSize)), nil)
			if err != nil {
				t.Fatalf("%s %s: %v", kind, spec.Name, err)
			}
			verdicts[i] = a.Verdict
		}
		if (verdicts[0] == "FAILED") != (verdicts[1] == "FAILED") {
			t.Errorf("%s: certify says %s, dpor says %s", spec.Name, verdicts[0], verdicts[1])
		}
	}
}
