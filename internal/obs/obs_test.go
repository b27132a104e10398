package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrent hammers one counter, one gauge, and one histogram
// from many goroutines; run under -race this is the data-race check, and
// the final values verify no increment is lost.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Resolve handles inside the goroutine so create-or-get itself
			// races too.
			c := r.Counter("c")
			g := r.Gauge("g")
			h := r.Histogram("h", []int64{10, 100})
			for i := 0; i < per; i++ {
				c.Inc()
				g.SetMax(int64(w*per + i))
				h.Observe(int64(i % 200))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("c").Load(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Gauge("g").Load(); got != workers*per-1 {
		t.Errorf("gauge hwm = %d, want %d", got, workers*per-1)
	}
	if got := r.Histogram("h", nil).Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
}

// TestRegistryHandleIdentity verifies create-or-get returns the same handle
// for the same name, so pre-resolved handles all feed one metric.
func TestRegistryHandleIdentity(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Error("Counter returned distinct handles for one name")
	}
	if r.Gauge("x") != r.Gauge("x") {
		t.Error("Gauge returned distinct handles for one name")
	}
	if r.Histogram("x", []int64{1}) != r.Histogram("x", []int64{5}) {
		t.Error("Histogram returned distinct handles for one name")
	}
}

// TestHistogramBoundaries pins the bucket edge semantics: v <= bound lands
// in the bucket, v > last bound lands in the overflow bucket.
func TestHistogramBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []int64{10, 100, 1000})
	for _, v := range []int64{-5, 0, 10, 11, 100, 101, 1000, 1001, 5000} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["lat"]
	wantCounts := []int64{3, 2, 2, 2} // (-inf,10], (10,100], (100,1000], overflow
	if len(s.Counts) != len(wantCounts) {
		t.Fatalf("counts len = %d, want %d", len(s.Counts), len(wantCounts))
	}
	for i, want := range wantCounts {
		if s.Counts[i] != want {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], want)
		}
	}
	if s.Count != 9 {
		t.Errorf("count = %d, want 9", s.Count)
	}
	if want := int64(-5 + 0 + 10 + 11 + 100 + 101 + 1000 + 1001 + 5000); s.Sum != want {
		t.Errorf("sum = %d, want %d", s.Sum, want)
	}
}

// fill applies one fixed metric workload to a registry.
func fill(r *Registry) {
	r.Counter("explore.states").Add(1234)
	r.Counter("checker.events").Add(99)
	r.Gauge("explore.frontier.hwm").SetMax(17)
	h := r.Histogram("run.events", []int64{64, 4096})
	h.Observe(100)
	h.Observe(100000)
	r.Counter("battery.count") // registered at zero, like a meter before its first span
	r.Counter("battery.ns")
}

// TestSnapshotDeterministic encodes two independently built registries with
// identical contents and requires byte-identical JSON — the run-report
// determinism the telemetry artifact diffing relies on.
func TestSnapshotDeterministic(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	fill(a)
	fill(b)
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Meta = map[string]string{"tool": "test", "workload": "w"}
	sb.Meta = map[string]string{"workload": "w", "tool": "test"}
	ea, err := sa.Encode()
	if err != nil {
		t.Fatal(err)
	}
	eb, err := sb.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea, eb) {
		t.Errorf("snapshots differ:\n%s\nvs\n%s", ea, eb)
	}
	// Round-trip: the encoding is plain JSON with the documented keys.
	var back Snapshot
	if err := json.Unmarshal(ea, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["explore.states"] != 1234 {
		t.Errorf("round-trip counters = %v", back.Counters)
	}
	if back.Gauges["explore.frontier.hwm"] != 17 {
		t.Errorf("round-trip gauges = %v", back.Gauges)
	}
}

// TestServe spins up the live endpoint on an ephemeral port and checks the
// /metrics JSON and the pprof index respond.
func TestServe(t *testing.T) {
	r := NewRegistry()
	r.Counter("explore.states").Add(7)
	addr, shutdown, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdown() })
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"explore.states": 7`) {
		t.Errorf("metrics body = %s", body)
	}
	resp, err = http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index status = %d", resp.StatusCode)
	}
}

// TestServeGracefulShutdown: shutdown drains cleanly (no error on the
// graceful path) and the listener actually stops serving afterwards.
func TestServeGracefulShutdown(t *testing.T) {
	r := NewRegistry()
	addr, shutdown, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err := shutdown(); err != nil {
		t.Fatalf("graceful shutdown returned %v", err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("endpoint still serving after shutdown")
	}
}

func TestProgressLine(t *testing.T) {
	r := NewRegistry()
	r.Counter(ProgressStates).Add(50_000)
	r.Counter(ProgressRuns).Add(3)
	r.Gauge(ProgressFrontier).SetMax(9)
	r.Gauge(ProgressMaxRuns).Set(6)
	var buf syncBuffer
	stop := StartProgress(&buf, 10*time.Millisecond, r)
	time.Sleep(35 * time.Millisecond)
	stop()
	out := buf.String()
	if !strings.Contains(out, "50.0k states") || !strings.Contains(out, "3 runs") ||
		!strings.Contains(out, "frontier hwm 9") || !strings.Contains(out, "eta") {
		t.Errorf("progress output = %q", out)
	}
}

func TestHumanCount(t *testing.T) {
	cases := map[int64]string{
		0:             "0",
		9999:          "9999",
		10_000:        "10.0k",
		2_500_000:     "2.5M",
		3_000_000_000: "3.0G",
	}
	for n, want := range cases {
		if got := humanCount(n); got != want {
			t.Errorf("humanCount(%d) = %q, want %q", n, got, want)
		}
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for the progress test.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
