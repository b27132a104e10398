package cli

import (
	"context"
	"strings"
	"testing"

	"repro/internal/obs/flight"
	"repro/internal/sched"
)

func TestParseStrategy(t *testing.T) {
	cases := []struct {
		name string
		want string
	}{
		{"cooperative", "cooperative"},
		{"coop", "cooperative"},
		{"roundrobin", "roundrobin(q=3)"},
		{"rr", "roundrobin(q=3)"},
		{"random", "random(p=0.25)"},
		{"rand", "random(p=0.25)"},
		{"pct", "pct(d=3)"},
	}
	for _, c := range cases {
		s, err := ParseStrategy(c.name, 7, 3)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if s.Name() != c.want {
			t.Errorf("%s: Name = %q, want %q", c.name, s.Name(), c.want)
		}
	}
	if _, err := ParseStrategy("bogus", 0, 0); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("bogus strategy: err = %v", err)
	}
}

func TestBattery(t *testing.T) {
	traces, results, err := Battery("philo", 2, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 5 || len(results) != 5 {
		t.Fatalf("battery sizes %d/%d", len(traces), len(results))
	}
	for _, tr := range traces {
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		if tr.Meta.Workload != "philo" {
			t.Fatalf("meta workload = %q", tr.Meta.Workload)
		}
	}
	// Deterministic strategies come first and differ from the seeded ones.
	if traces[0].Meta.Strategy != "cooperative" {
		t.Fatalf("first strategy = %q", traces[0].Meta.Strategy)
	}
}

func TestBatteryUnknownWorkload(t *testing.T) {
	_, _, err := Battery("nope", 1, 0, 0)
	if err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Fatalf("err = %v", err)
	}
}

func TestByteSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"1048576", 1 << 20, false},
		{"0", 0, false},
		{"512MiB", 512 << 20, false},
		{"512mib", 512 << 20, false},
		{"2GB", 2_000_000_000, false},
		{"2GiB", 2 << 30, false},
		{"1kb", 1000, false},
		{"64k", 64 << 10, false},
		{"1.5MiB", 3 << 19, false},
		{" 8 KiB ", 8 << 10, false},
		{"12B", 12, false},
		{"", 0, true},
		{"MiB", 0, true},
		{"-1", 0, true},
		{"lots", 0, true},
		{"inf", 0, true},
		{"nan", 0, true},
		{"1e19", 0, true},
		{"9223372036854775807", 0, true},
		{"8589934592GiB", 0, true},
	}
	for _, c := range cases {
		var b ByteSize
		err := b.Set(c.in)
		if c.err {
			if err == nil {
				t.Errorf("Set(%q) accepted invalid input as %d", c.in, int64(b))
			}
			continue
		}
		if err != nil {
			t.Errorf("Set(%q): %v", c.in, err)
			continue
		}
		if int64(b) != c.want {
			t.Errorf("Set(%q) = %d, want %d", c.in, int64(b), c.want)
		}
	}
}

// TestBatteryBudgetCancelled: a pre-cancelled context yields an empty
// battery with the cancelled status and no error.
func TestBatteryBudgetCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	traces, results, status, err := BatteryBudget(sched.Budget{Ctx: ctx}, "philo", 2, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 0 || len(results) != 0 {
		t.Fatalf("cancelled battery returned %d traces", len(traces))
	}
	if status != sched.StatusCancelled {
		t.Fatalf("status = %s, want %s", status, sched.StatusCancelled)
	}
}

// TestBatteryBudgetMaxStates: a one-state budget admits exactly the first
// run (the budget is checked between runs) and reports the cutoff.
func TestBatteryBudgetMaxStates(t *testing.T) {
	traces, results, status, err := BatteryBudget(sched.Budget{MaxStates: 1}, "philo", 2, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 || len(results) != 1 {
		t.Fatalf("budgeted battery returned %d traces, want 1", len(traces))
	}
	if status != sched.StatusBudget {
		t.Fatalf("status = %s, want %s", status, sched.StatusBudget)
	}
	// The one completed run is the battery's deterministic first strategy.
	if traces[0].Meta.Strategy != "cooperative" {
		t.Fatalf("first strategy = %q", traces[0].Meta.Strategy)
	}
}

// TestFlightFlag drives the -flight plumbing end to end: StartTelemetry
// enables the recorder, the battery records schedule spans, and Close
// writes a recording that parses back with at least one schedule span —
// the same contract the CI telemetry smoke asserts on the built binary.
func TestFlightFlag(t *testing.T) {
	path := t.TempDir() + "/rec.json"
	c := NewCommon("cli-test")
	c.Flight = path
	c.Workload = "philo"
	c.Seeds = 1
	if err := c.StartTelemetry(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Battery(); err != nil {
		c.Close() //nolint:errcheck
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if flight.Enabled() {
		t.Fatal("recorder still enabled after Close")
	}
	rec, err := flight.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	schedules := 0
	for _, tr := range rec.Tracks {
		for _, e := range tr.Events {
			if e.Kind == flight.KindBegin && e.Name == "schedule" {
				schedules++
			}
		}
	}
	if schedules < 1 {
		t.Fatalf("recording has %d schedule spans, want >= 1", schedules)
	}
	// Close is idempotent and must not rewrite or re-disable anything.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFlightFlagSpill checks the non-.json suffix writes the binary spill.
func TestFlightFlagSpill(t *testing.T) {
	path := t.TempDir() + "/rec.bin"
	c := NewCommon("cli-test")
	c.Flight = path
	c.Workload = "philo"
	c.Seeds = 0
	if err := c.StartTelemetry(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Battery(); err != nil {
		c.Close() //nolint:errcheck
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := flight.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Events() == 0 {
		t.Fatal("spill recording is empty")
	}
}
