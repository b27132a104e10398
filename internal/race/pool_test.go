package race

import (
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/dense"
	"repro/internal/obs"
	"repro/internal/trace"
)

// raceCounters are the checker.race.* counters an analysis adds to (the
// dedup gauge is a running maximum, so it has no per-analysis delta).
var raceCounters = []*obs.Counter{mCheckerEvents, mEvents, mFastPath, mSlowPath, mRaces, mArenaBytes}

// counterDeltas runs f and returns how much it added to each race counter.
func counterDeltas(f func()) []int64 {
	d := make([]int64, len(raceCounters))
	for i, c := range raceCounters {
		d[i] = c.Load()
	}
	f()
	for i, c := range raceCounters {
		d[i] = c.Load() - d[i]
	}
	return d
}

// reuseTraces is a sequence of traces that varies everything a reused
// detector must forget: thread count, variable ids in and past the first
// page, volatiles in the overflow map, read-shared inflation, channels,
// lock clocks, race reports, an empty trace, and small traces after large
// ones.
func reuseTraces() []*trace.Trace {
	var out []*trace.Trace

	// Two threads: a write-write race on 1, a lock-protected 2.
	b := trace.NewBuilder()
	b.On(0).Begin().Fork(1)
	b.On(1).Begin().Write(1).Acq(0).Write(2).Rel(0)
	b.On(0).Write(1).Acq(0).Read(2).Rel(0)
	b.On(1).End()
	b.On(0).Join(1).End()
	out = append(out, b.Trace())

	// Four threads read 100 concurrently (a read vector), then one writes
	// it; volatiles at runtime ids (offset by 1<<32) publish 101.
	b = trace.NewBuilder()
	b.On(0).Begin()
	for t := trace.TID(1); t < 4; t++ {
		b.On(0).Fork(t)
		b.On(t).Begin()
	}
	for t := trace.TID(0); t < 4; t++ {
		b.On(t).Read(100)
	}
	b.On(2).Write(100)
	b.On(1).Write(101).VolWrite(1<<32 + 7)
	b.On(3).VolRead(1<<32 + 7).Read(101).VolRead(1<<32 + 9)
	for t := trace.TID(3); t >= 1; t-- {
		b.On(t).End()
		b.On(0).Join(t)
	}
	b.On(0).End()
	out = append(out, b.Trace())

	// Channels: a send orders a write before the receiver's read; an
	// unrelated write still races.
	tr := trace.New()
	ch := trace.ChanTarget(3, false)
	for _, e := range []trace.Event{
		{Tid: 0, Op: trace.OpBegin}, {Tid: 0, Op: trace.OpFork, Target: 1}, {Tid: 1, Op: trace.OpBegin},
		{Tid: 0, Op: trace.OpWrite, Target: 5}, {Tid: 0, Op: trace.OpSend, Target: ch},
		{Tid: 1, Op: trace.OpRecv, Target: ch}, {Tid: 1, Op: trace.OpRead, Target: 5},
		{Tid: 1, Op: trace.OpWrite, Target: 6}, {Tid: 0, Op: trace.OpWrite, Target: 6},
		{Tid: 1, Op: trace.OpEnd}, {Tid: 0, Op: trace.OpJoin, Target: 1}, {Tid: 0, Op: trace.OpEnd},
	} {
		tr.Append(e)
	}
	out = append(out, tr, trace.New())

	// The same race twice in a row, so a kept dedup set would drop the
	// second report. Then a thread that releases lock 5 many times, then
	// a trace in which a lock 5 acquire is all that stands between a
	// write and a racing read: a kept lock clock would order them.
	out = append(out, out[0], out[0])
	b = trace.NewBuilder()
	b.On(0).Begin()
	for i := 0; i < 8; i++ {
		b.Acq(5).Write(9).Rel(5)
	}
	b.End()
	out = append(out, b.Trace())
	b = trace.NewBuilder()
	b.On(0).Begin().Fork(1).Write(7)
	b.On(1).Begin().Acq(5).Read(7).Rel(5).End()
	b.On(0).Join(1).End()
	out = append(out, b.Trace())

	// Random lock, volatile and fork/join traces; their volatile ids land
	// past the sync table's first page.
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 6; i++ {
		out = append(out, randomSyncTrace(r))
	}

	// A large trace: twenty threads, variables across three pages and the
	// overflow map, each raced by every thread. Then small ones again.
	b = trace.NewBuilder()
	b.On(0).Begin()
	for t := trace.TID(1); t < 20; t++ {
		b.On(0).Fork(t)
		b.On(t).Begin()
	}
	for v := uint64(0); v < 700; v += 7 {
		for t := trace.TID(0); t < 20; t++ {
			b.On(t).Read(v).Write(v)
		}
	}
	b.On(5).Write(1<<21 + 3)
	b.On(6).Read(1<<21 + 3)
	out = append(out, b.Trace(), out[0], out[2], out[1])

	// Every fast-path boundary id, raced by two threads.
	b = trace.NewBuilder()
	b.On(0).Begin().Fork(1)
	b.On(1).Begin()
	for _, v := range fastPathVarPool {
		b.On(0).Write(v)
		b.On(1).Read(v)
	}
	out = append(out, b.Trace(), out[0])
	return out
}

// sameAnalysis reports how two detectors that consumed the same trace
// differ, or "".
func sameAnalysis(got, want *Detector) string {
	switch {
	case !maps.Equal(got.RacyVarSet(), want.RacyVarSet()):
		return "racy set"
	case !slices.Equal(got.RacyVars(), want.RacyVars()):
		return "racy vars"
	case !slices.Equal(got.Races(), want.Races()):
		return "races"
	case !maps.Equal(got.RaceOnsets(), want.RaceOnsets()):
		return "race onsets"
	case got.Events() != want.Events():
		return "event count"
	}
	return ""
}

// TestResetDetectorMatchesFresh reuses one detector over reuseTraces,
// resetting it after each trace (and replacing it when reset refuses), and
// compares each analysis and its counter deltas with a fresh detector's.
func TestResetDetectorMatchesFresh(t *testing.T) {
	d := New()
	reused, dropped := 0, 0
	for i, tr := range reuseTraces() {
		var fresh *Detector
		want := counterDeltas(func() { fresh = Analyze(tr) })
		got := counterDeltas(func() { d.analyze(tr) })
		if what := sameAnalysis(d, fresh); what != "" {
			t.Errorf("trace %d: reused detector's %s differs from a fresh one's", i, what)
		}
		if !slices.Equal(got, want) {
			t.Errorf("trace %d: reused detector's counter deltas %v, fresh %v", i, got, want)
		}
		if d.reset() {
			reused++
		} else {
			dropped++
			d = New()
		}
	}
	if reused == 0 || dropped == 0 {
		t.Fatalf("%d resets, %d drops: the sequence should exercise both", reused, dropped)
	}
}

// TestResetRefusesLargeDetector: a detector grown past its first page is
// not reset, so small traces never pay to clear its tables.
func TestResetRefusesLargeDetector(t *testing.T) {
	b := trace.NewBuilder()
	b.On(0).Begin().Write(dense.PageSize).End()
	d := Analyze(b.Trace())
	if d.reset() {
		t.Fatal("reset kept a detector whose variable table grew past its first page")
	}
	if d.Events() != 3 {
		t.Fatal("a refused reset changed the detector")
	}
	b = trace.NewBuilder()
	b.On(0).Begin().Write(1).End()
	if d := Analyze(b.Trace()); !d.reset() {
		t.Fatal("reset refused a one-page detector")
	}
}

// TestRacyVarsOfMatchesFresh: the pooled race pass returns a fresh
// detector's racy set and adds the same counter deltas.
func TestRacyVarsOfMatchesFresh(t *testing.T) {
	for i, tr := range reuseTraces() {
		var want, got map[uint64]bool
		wantD := counterDeltas(func() { want = Analyze(tr).RacyVarSet() })
		gotD := counterDeltas(func() { got = RacyVarsOf(tr) })
		if !maps.Equal(got, want) {
			t.Errorf("trace %d: RacyVarsOf = %v, fresh detector %v", i, got, want)
		}
		if !slices.Equal(gotD, wantD) {
			t.Errorf("trace %d: RacyVarsOf counter deltas %v, fresh %v", i, gotD, wantD)
		}
	}
}

// TestRacyVarsOfConcurrent runs the pooled race pass from several
// goroutines at once; run it under -race.
func TestRacyVarsOfConcurrent(t *testing.T) {
	traces := reuseTraces()
	want := make([]map[uint64]bool, len(traces))
	for i, tr := range traces {
		want[i] = Analyze(tr).RacyVarSet()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 40; k++ {
				i := (g*7 + k) % len(traces)
				if got := RacyVarsOf(traces[i]); !maps.Equal(got, want[i]) {
					t.Errorf("goroutine %d: trace %d: RacyVarsOf = %v, want %v", g, i, got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}

// racyVarsOfRaces is the set of Race.Var over d's reports. Every racy
// variable's first race is reported, since the dedup key includes the
// variable, so this is the racy set computed without the onsets.
func racyVarsOfRaces(d *Detector) map[uint64]bool {
	out := map[uint64]bool{}
	for _, r := range d.Races() {
		out[r.Var] = true
	}
	return out
}

// TestPooledRacyVarSetMatchesRaces runs one detector the way RacyVarsOf
// does, analyze then RacyVarSet then reset, over traces that touch
// different parts of its tables, and compares each racy set with the
// variables of a fresh detector's race reports.
func TestPooledRacyVarSetMatchesRaces(t *testing.T) {
	var traces []*trace.Trace

	// A short racy trace: 1 races, 2 is lock-protected.
	b := trace.NewBuilder()
	b.On(0).Begin().Fork(1).Write(1).Acq(0).Write(2).Rel(0)
	b.On(1).Begin().Read(1).Acq(0).Write(2).Rel(0).Write(1).End()
	b.On(0).Join(1).End()
	traces = append(traces, b.Trace())

	// Variable ids on the second page, and 1 again, raced the other way.
	b = trace.NewBuilder()
	b.On(0).Begin().Fork(1).Write(dense.PageSize + 44).Read(1)
	b.On(1).Begin().Write(1).Read(dense.PageSize + 44).Write(dense.PageSize + 3).End()
	b.On(0).Write(dense.PageSize + 3).Join(1).End()
	traces = append(traces, b.Trace())

	// Volatile ids at 1<<32 and up, which land in the overflow maps: a
	// volatile publishes 5 to one reader, a plain variable with such an
	// id races.
	b = trace.NewBuilder()
	b.On(0).Begin().Fork(1).Fork(2).Write(5).VolWrite(1<<32 + 7).Write(1<<32 + 9)
	b.On(1).Begin().VolRead(1<<32 + 7).Read(5).End()
	b.On(2).Begin().Read(1<<32 + 9).Read(5).End()
	b.On(0).Join(1).Join(2).End()
	traces = append(traces, b.Trace())

	// Locks and channels order most accesses; 12 still races.
	tr := trace.New()
	ch := trace.ChanTarget(4, true)
	for _, e := range []trace.Event{
		{Tid: 0, Op: trace.OpBegin}, {Tid: 0, Op: trace.OpFork, Target: 1}, {Tid: 1, Op: trace.OpBegin},
		{Tid: 0, Op: trace.OpAcquire, Target: 3}, {Tid: 0, Op: trace.OpWrite, Target: 10}, {Tid: 0, Op: trace.OpRelease, Target: 3},
		{Tid: 1, Op: trace.OpAcquire, Target: 3}, {Tid: 1, Op: trace.OpRead, Target: 10}, {Tid: 1, Op: trace.OpRelease, Target: 3},
		{Tid: 0, Op: trace.OpWrite, Target: 11}, {Tid: 0, Op: trace.OpSend, Target: ch},
		{Tid: 1, Op: trace.OpRecv, Target: ch}, {Tid: 1, Op: trace.OpWrite, Target: 11},
		{Tid: 1, Op: trace.OpWait, Target: 3}, {Tid: 0, Op: trace.OpNotify, Target: 3},
		{Tid: 0, Op: trace.OpWrite, Target: 12}, {Tid: 1, Op: trace.OpWrite, Target: 12},
		{Tid: 1, Op: trace.OpClose, Target: ch}, {Tid: 1, Op: trace.OpEnd},
		{Tid: 0, Op: trace.OpJoin, Target: 1}, {Tid: 0, Op: trace.OpEnd},
	} {
		tr.Append(e)
	}
	traces = append(traces, tr)

	// A trace that grows the variable table past its first page, so
	// reset refuses the detector; then the first trace again.
	b = trace.NewBuilder()
	b.On(0).Begin().Fork(1)
	b.On(1).Begin()
	for v := uint64(0); v < 3*dense.PageSize; v += 5 {
		b.On(0).Write(v)
		b.On(1).Write(v)
	}
	traces = append(traces, b.Trace(), traces[0])

	large := len(traces) - 2
	d := New()
	reused := 0
	for i, tr := range traces {
		want := racyVarsOfRaces(Analyze(tr))
		if len(want) == 0 {
			t.Fatalf("trace %d races on no variable", i)
		}
		d.analyze(tr)
		if got := d.RacyVarSet(); !maps.Equal(got, want) {
			t.Errorf("trace %d: RacyVarSet = %v, the races name %v", i, got, want)
		}
		wantVars := make([]uint64, 0, len(want))
		for v := range want {
			wantVars = append(wantVars, v)
		}
		slices.Sort(wantVars)
		if got := d.RacyVars(); !slices.Equal(got, wantVars) {
			t.Errorf("trace %d: RacyVars = %v, want %v", i, got, wantVars)
		}
		// reset also refuses the second page's detector: any table past
		// its first page is left for the caller to drop.
		kept := d.reset()
		if i == large && kept {
			t.Fatal("reset kept the large trace's detector")
		}
		if kept {
			reused++
		} else {
			d = New()
		}
	}
	if reused == 0 {
		t.Fatal("reset refused every detector")
	}
}
