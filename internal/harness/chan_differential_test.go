package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sched"
	"repro/internal/workloads"
)

// chanWorkloads is the production-service family: every scheduling
// interaction in these programs goes through the channel runtime, so they
// are the channel-op stress corpus for the analysis pipeline.
var chanWorkloads = []string{"ratelimit", "connpool", "pubsub", "heartbeat"}

// TestFusedDifferentialChanWorkloads sweeps 200 seeded-random schedules of
// the channel workloads through the fused batched pipeline and the legacy
// per-event path. Chan ops ride the same batched dispatch as every other
// op, so any divergence in how a checker consumes OpSend/OpRecv/OpClose/
// OpSelect between the two paths shows up as a violation-set mismatch.
func TestFusedDifferentialChanWorkloads(t *testing.T) {
	const seedsPerWorkload = 50 // 4 workloads x 50 = 200 schedules
	for _, name := range chanWorkloads {
		spec, ok := workloads.Get(name)
		if !ok {
			t.Fatalf("workload %q not registered", name)
		}
		sawChanOps := false
		for seed := int64(1); seed <= seedsPerWorkload; seed++ {
			res, err := sched.Run(spec.New(0, 0), sched.Options{
				Strategy:    sched.NewRandom(seed),
				RecordTrace: true,
			})
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if !sawChanOps {
				for _, e := range res.Trace.Events {
					if e.Op.IsChanOp() {
						sawChanOps = true
						break
					}
				}
			}
			label := fmt.Sprintf("%s seed %d", name, seed)
			diffFused(t, label, res.Trace)
			if seed%2 == 1 {
				n := 3 + int(seed%13)
				diffWindows(t, fmt.Sprintf("%s (windows of %d)", label, n), res.Trace, n)
			}
		}
		if !sawChanOps {
			t.Errorf("%s: no chan ops in any trace — the differential is vacuous", name)
		}
	}
}

// chanGoldenConfig pins the channel-family determinism guard the same way
// goldenConfig pins the original Table 3 snapshot. It is deliberately a
// separate config and snapshot file: the pre-existing golden must stay
// byte-identical, untouched by the channel surface.
func chanGoldenConfig() Config {
	return Config{
		Seeds:     2,
		Workloads: chanWorkloads,
		Quick:     true,
	}
}

// TestTable3ChanGoldenDeterminism extends the golden coverage to the
// channel scenarios: the checker-comparison table over the service
// workloads must be byte-identical to the committed snapshot. Refresh
// with: go test ./internal/harness -run TestTable3ChanGolden -update-golden
func TestTable3ChanGoldenDeterminism(t *testing.T) {
	tbl, err := Table3(chanGoldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := tbl.String()

	path := filepath.Join("testdata", "table3_chan_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden snapshot rewritten: %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden snapshot missing (run with -update-golden to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("channel Table 3 diverged from golden snapshot %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestTable3ChanParallelDeterminism: the (workloads x seeds) fan-out over
// the channel family must stay a pure performance knob — Table 3 renders
// byte-identically at Parallel 1 and 8.
func TestTable3ChanParallelDeterminism(t *testing.T) {
	seq := chanGoldenConfig()
	seq.Parallel = 1
	par := chanGoldenConfig()
	par.Parallel = 8
	ta, err := Table3(seq)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := Table3(par)
	if err != nil {
		t.Fatal(err)
	}
	if ta.String() != tb.String() {
		t.Fatalf("channel Table 3 differs across parallelism:\n%s\nvs\n%s", ta.String(), tb.String())
	}
}

// TestChanWorkloadTracesReachAllObservers: every one of the four chan op
// kinds must actually occur somewhere in the channel family's standard
// battery — otherwise the differential and golden gates above exercise
// less of the surface than they claim.
func TestChanWorkloadTracesReachAllObservers(t *testing.T) {
	counts := map[string]int{}
	cfg := chanGoldenConfig()
	cfg.ensurePool()
	specs, err := cfg.specs()
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		col, err := Collect(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range col.Traces {
			for _, e := range tr.Events {
				if e.Op.IsChanOp() {
					counts[e.Op.String()]++
				}
			}
		}
	}
	for _, op := range []string{"send", "recv", "close", "select"} {
		if counts[op] == 0 {
			t.Errorf("no %s op in the channel battery (saw %v)", op, counts)
		}
	}
}
