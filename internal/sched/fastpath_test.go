package sched

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/trace"
)

// TestZeroFrameSentinel pins the runtime.Callers zero-frame fallback: when
// the unwinder produces no frames (an absurd skip depth stands in for the
// degenerate stacks that trigger it in the wild), capture must intern the
// deterministic "unknown:0" sentinel — not id 0, which DisableLocations
// owns — and return the same id every time.
func TestZeroFrameSentinel(t *testing.T) {
	strs := trace.NewStrings()
	var c locCache
	id := c.capture(strs, 1<<20)
	if id == 0 {
		t.Fatal("zero-frame capture returned location id 0")
	}
	if got := strs.Name(id); got != unknownLoc {
		t.Fatalf("zero-frame capture = %q, want %q", got, unknownLoc)
	}
	if again := c.capture(strs, 1<<20); again != id {
		t.Fatalf("zero-frame capture not deterministic: %d then %d", id, again)
	}
	if c.hits != 0 || c.miss != 2 {
		t.Fatalf("zero-frame stats hits=%d miss=%d, want 0/2", c.hits, c.miss)
	}
}

// TestLocationCacheInliningCorrectness pins the property that makes raw
// PCs valid cache keys: distinct source lines resolve to distinct, correct
// locations even though every op funnels through the same (inlined)
// capture helper, and repeated events from one line are answered from the
// cache with the identical id.
func TestLocationCacheInliningCorrectness(t *testing.T) {
	p := NewProgram("inline-locs")
	x := p.Var("x")
	p.SetMain(func(tt *T) {
		for i := 0; i < 3; i++ {
			tt.Write(x, 1) // site A
		}
		tt.Write(x, 2) // site B
	})
	res, err := Run(p, Options{Strategy: Cooperative{}, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	var locs []trace.LocID
	for _, e := range res.Trace.Events {
		if e.Op == trace.OpWrite {
			locs = append(locs, e.Loc)
		}
	}
	if len(locs) != 4 {
		t.Fatalf("got %d writes, want 4", len(locs))
	}
	if locs[0] != locs[1] || locs[1] != locs[2] {
		t.Fatalf("same call site produced different ids: %v", locs[:3])
	}
	if locs[3] == locs[0] {
		t.Fatalf("distinct call sites share id %d (%s)", locs[0], res.Strings.Name(locs[0]))
	}
	for i, id := range locs {
		if name := res.Strings.Name(id); !strings.Contains(name, "fastpath_test.go:") {
			t.Fatalf("write %d location = %q, want a fastpath_test.go line", i, name)
		}
	}
	if res.Strings.Name(locs[0]) == res.Strings.Name(locs[3]) {
		t.Fatalf("distinct lines symbolized identically: %q", res.Strings.Name(locs[0]))
	}
	if res.Stats.LocCacheHits == 0 || res.Stats.LocCacheMisses == 0 {
		t.Fatalf("stats hits=%d misses=%d, want both > 0", res.Stats.LocCacheHits, res.Stats.LocCacheMisses)
	}
}

// TestWarmSymbolTableKeepsTraces pins that the process-wide symbol table
// is a pure memoization behind the per-run location cache: replaying one
// schedule with the table cold and then warm yields byte-identical
// serialized traces — events, LocIDs and string-table order — with the
// same per-run cache misses, and the warm run adds no table entry. Runs
// that fill an empty table concurrently agree with them too.
func TestWarmSymbolTableKeepsTraces(t *testing.T) {
	first, err := Run(counterProgram(3, 4, true), Options{Strategy: NewRandom(7), RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	emptyTable := func() {
		symtab.mu.Lock()
		symtab.names = nil
		symtab.mu.Unlock()
	}
	entries := func() int {
		symtab.mu.RLock()
		defer symtab.mu.RUnlock()
		return len(symtab.names)
	}
	// replay runs first's schedule and returns its serialized trace; it
	// may run on any goroutine, so it returns errors instead of failing.
	replay := func() (*Result, []byte, error) {
		res, err := Run(counterProgram(3, 4, true), Options{
			Strategy:    NewReplayChoices(tidsOf(first.Trace), first.Choices),
			RecordTrace: true,
		})
		if err != nil {
			return nil, nil, err
		}
		var buf bytes.Buffer
		_, err = res.Trace.WriteTo(&buf)
		return res, buf.Bytes(), err
	}

	emptyTable()
	cold, coldBytes, err := replay()
	if err != nil {
		t.Fatal(err)
	}
	filled := entries()
	if filled == 0 {
		t.Fatal("the cold run left the symbol table empty")
	}
	warm, warmBytes, err := replay()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldBytes, warmBytes) {
		t.Fatalf("warm-table trace differs from the cold-table trace (%d vs %d bytes)", len(warmBytes), len(coldBytes))
	}
	if n := entries(); n != filled {
		t.Fatalf("the warm run grew the symbol table from %d to %d entries", filled, n)
	}
	if cold.Stats.LocCacheMisses != warm.Stats.LocCacheMisses || cold.Stats.LocCacheHits != warm.Stats.LocCacheHits {
		t.Fatalf("per-run cache hits/misses cold %d/%d, warm %d/%d; want equal",
			cold.Stats.LocCacheHits, cold.Stats.LocCacheMisses, warm.Stats.LocCacheHits, warm.Stats.LocCacheMisses)
	}

	emptyTable()
	var wg sync.WaitGroup
	traces := make([][]byte, 4)
	errs := make([]error, len(traces))
	for i := range traces {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, traces[i], errs[i] = replay()
		}()
	}
	wg.Wait()
	for i, b := range traces {
		if errs[i] != nil {
			t.Errorf("concurrent run %d: %v", i, errs[i])
		} else if !bytes.Equal(b, coldBytes) {
			t.Errorf("concurrent run %d: trace differs from the sequential one", i)
		}
	}
	if n := entries(); n != filled {
		t.Errorf("concurrent runs left %d table entries, want %d", n, filled)
	}
}

// TestFastPathStats asserts the SchedStats fast-path counters move: switches
// are one-hop direct handoffs, declined preemptions are elided parks, and
// repeated call sites hit the location cache. Every switch but the first
// (main's first turn, which run's caller takes without a handoff) is a
// direct one.
func TestFastPathStats(t *testing.T) {
	fast, err := Run(counterProgram(3, 30, true), Options{Strategy: NewRandom(3)})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Stats.DirectHandoffs == 0 {
		t.Fatal("fast path recorded no direct handoffs")
	}
	if fast.Stats.ElidedParks == 0 {
		t.Fatal("fast path recorded no elided parks")
	}
	if fast.Stats.LocCacheHits == 0 {
		t.Fatal("fast path recorded no location-cache hits")
	}
	if fast.Stats.DirectHandoffs != fast.Stats.Switches-1 {
		t.Fatalf("%d direct handoffs for %d switches, want switches-1", fast.Stats.DirectHandoffs, fast.Stats.Switches)
	}
}

// TestHandoffBudgetSemantics pins the event-budget abort on the handoff
// paths: the run stops at the budget with the documented error, the
// aborting event is neither counted nor recorded, and every virtual thread
// unwinds. A run cut off by its context counts only what it recorded too.
func TestHandoffBudgetSemantics(t *testing.T) {
	res, err := Run(counterProgram(3, 1000, true), Options{
		Strategy:    NewRandom(5),
		MaxEvents:   500,
		RecordTrace: true,
	})
	const want = "sched: event budget exceeded (500 events); livelock?"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if res.Events != 500 || res.Trace.Len() != 500 {
		t.Fatalf("events %d, trace %d; want 500/500", res.Events, res.Trace.Len())
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = Run(counterProgram(3, 1000, true), Options{
		Strategy:    NewRandom(5),
		RecordTrace: true,
		Ctx:         ctx,
	})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if res.Events != 1023 || res.Trace.Len() != 1023 {
		t.Fatalf("cancelled run: events %d, trace %d; want 1023/1023", res.Events, res.Trace.Len())
	}
}

// TestLocCacheGrowth forces the open-addressed table through several
// rehashes and checks every site still resolves consistently.
func TestLocCacheGrowth(t *testing.T) {
	strs := trace.NewStrings()
	var c locCache
	ids := make(map[uintptr]trace.LocID)
	// Synthetic PCs: not symbolizable to real lines, but lookup must still
	// intern a stable name per PC and return identical ids on re-probe.
	for pc := uintptr(1); pc <= 4*locCacheMinSize; pc++ {
		ids[pc] = c.lookup(strs, pc)
	}
	for pc, want := range ids {
		if got := c.lookup(strs, pc); got != want {
			t.Fatalf("pc %#x resolved to %d after growth, was %d", pc, got, want)
		}
	}
	if c.n != 4*locCacheMinSize {
		t.Fatalf("occupancy %d, want %d", c.n, 4*locCacheMinSize)
	}
	if c.hits != 4*locCacheMinSize || c.miss != 4*locCacheMinSize {
		t.Fatalf("stats hits=%d miss=%d, want %d/%d", c.hits, c.miss, 4*locCacheMinSize, 4*locCacheMinSize)
	}
}
