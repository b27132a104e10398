package sched

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/trace"
)

// tidsOf returns the thread of each of tr's events, the schedule that
// NewReplay and NewReplayChoices take.
func tidsOf(tr *trace.Trace) []trace.TID {
	tids := make([]trace.TID, len(tr.Events))
	for i, e := range tr.Events {
		tids[i] = e.Tid
	}
	return tids
}

// counterProgram increments a shared counter n times from each of k workers,
// guarded by a mutex when locked is true.
func counterProgram(workers, n int, locked bool) *Program {
	p := NewProgram("counter")
	c := p.Var("count")
	m := p.Mutex("mu")
	p.SetMain(func(t *T) {
		hs := make([]Handle, workers)
		for i := 0; i < workers; i++ {
			hs[i] = t.Fork("worker", func(t *T) {
				for j := 0; j < n; j++ {
					if locked {
						t.Acquire(m)
					}
					v := t.Read(c)
					t.Write(c, v+1)
					if locked {
						t.Release(m)
					}
				}
			})
		}
		for _, h := range hs {
			t.Join(h)
		}
	})
	return p
}

func TestRunRequiresMainAndStrategy(t *testing.T) {
	p := NewProgram("empty")
	if _, err := Run(p, Options{Strategy: Cooperative{}}); err == nil {
		t.Fatal("Run accepted a program without main")
	}
	p.SetMain(func(*T) {})
	if _, err := Run(p, Options{}); err == nil {
		t.Fatal("Run accepted options without strategy")
	}
}

func TestTrivialProgram(t *testing.T) {
	p := NewProgram("trivial")
	x := p.Var("x")
	p.SetMain(func(tt *T) {
		tt.Write(x, 42)
		if got := tt.Read(x); got != 42 {
			t.Errorf("Read = %d, want 42", got)
		}
	})
	res, err := Run(p, Options{Strategy: Cooperative{}, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalVars[0] != 42 {
		t.Fatalf("final value = %d", res.FinalVars[0])
	}
	// begin, write, read, end
	if res.Events != 4 {
		t.Fatalf("Events = %d, want 4", res.Events)
	}
	if err := res.Trace.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	ops := []trace.Op{trace.OpBegin, trace.OpWrite, trace.OpRead, trace.OpEnd}
	for i, e := range res.Trace.Events {
		if e.Op != ops[i] {
			t.Fatalf("event %d op = %v, want %v", i, e.Op, ops[i])
		}
	}
}

func TestLockedCounterAlwaysCorrect(t *testing.T) {
	for _, strat := range []Strategy{
		Cooperative{},
		&RoundRobin{Quantum: 1},
		&RoundRobin{Quantum: 3},
		NewRandom(1),
		NewRandom(99),
		&PCT{SeedVal: 7, Depth: 3},
	} {
		p := counterProgram(4, 10, true)
		res, err := Run(p, Options{Strategy: strat})
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		if res.FinalVars[0] != 40 {
			t.Errorf("%s: count = %d, want 40", strat.Name(), res.FinalVars[0])
		}
		if res.Threads != 5 {
			t.Errorf("%s: threads = %d, want 5", strat.Name(), res.Threads)
		}
	}
}

func TestUnlockedCounterLosesUpdatesUnderPreemption(t *testing.T) {
	// Under round-robin with quantum 1, the read-modify-write pairs of the
	// two workers interleave and updates are lost — evidence that the
	// virtual scheduler actually exhibits preemptive behaviour.
	p := counterProgram(2, 20, false)
	res, err := Run(p, Options{Strategy: &RoundRobin{Quantum: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalVars[0] >= 40 {
		t.Fatalf("count = %d; expected lost updates under q=1", res.FinalVars[0])
	}
	// Under cooperative scheduling the same racy program is correct,
	// because nothing preempts the read-modify-write.
	res, err = Run(counterProgram(2, 20, false), Options{Strategy: Cooperative{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalVars[0] != 40 {
		t.Fatalf("cooperative count = %d, want 40", res.FinalVars[0])
	}
}

func TestDeterminismSameSeedSameTrace(t *testing.T) {
	run := func(seed int64) *Result {
		res, err := Run(counterProgram(3, 5, true), Options{Strategy: NewRandom(seed), RecordTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(42), run(42)
	if !reflect.DeepEqual(a.Trace.Events, b.Trace.Events) {
		t.Fatal("same seed produced different traces")
	}
	c := run(43)
	if reflect.DeepEqual(a.Trace.Events, c.Trace.Events) {
		t.Fatal("different seeds produced identical traces (suspicious)")
	}
}

func TestReplayReproducesTrace(t *testing.T) {
	orig, err := Run(counterProgram(3, 4, true), Options{Strategy: NewRandom(7), RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(counterProgram(3, 4, true), Options{Strategy: NewReplay(tidsOf(orig.Trace)), RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig.Trace.Events, rep.Trace.Events) {
		t.Fatal("replay did not reproduce the original trace")
	}
}

func TestReplayDivergenceDetected(t *testing.T) {
	// A schedule demanding a thread that does not exist must fail cleanly.
	_, err := Run(counterProgram(1, 1, false), Options{Strategy: NewReplay([]trace.TID{9, 9, 9})})
	if !errors.Is(err, ErrReplayDiverged) {
		t.Fatalf("err = %v, want ErrReplayDiverged", err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	p := NewProgram("deadlock")
	a := p.Mutex("A")
	b := p.Mutex("B")
	p.SetMain(func(t *T) {
		h := t.Fork("w", func(t *T) {
			t.Acquire(b)
			t.Yield()
			t.Acquire(a)
			t.Release(a)
			t.Release(b)
		})
		t.Acquire(a)
		t.Yield()
		t.Acquire(b)
		t.Release(b)
		t.Release(a)
		t.Join(h)
	})
	// Round-robin q=1 forces the classic AB/BA deadlock interleaving.
	_, err := Run(p, Options{Strategy: &RoundRobin{Quantum: 1}})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	if !strings.Contains(err.Error(), "blocked on lock") {
		t.Fatalf("deadlock error lacks diagnostics: %v", err)
	}
}

func TestReentrantLock(t *testing.T) {
	p := NewProgram("reentrant")
	m := p.Mutex("m")
	x := p.Var("x")
	p.SetMain(func(t *T) {
		t.Acquire(m)
		t.Acquire(m)
		t.Write(x, 1)
		t.Release(m)
		t.Release(m)
	})
	res, err := Run(p, Options{Strategy: &RoundRobin{Quantum: 1}, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseUnheldLockFails(t *testing.T) {
	p := NewProgram("bad")
	m := p.Mutex("m")
	p.SetMain(func(t *T) { t.Release(m) })
	if _, err := Run(p, Options{Strategy: Cooperative{}}); err == nil {
		t.Fatal("Run accepted release of unheld lock")
	}
}

func TestWorkloadPanicIsReported(t *testing.T) {
	p := NewProgram("panics")
	p.SetMain(func(t *T) {
		t.Fork("w", func(t *T) { panic("boom") })
		t.Yield()
		t.Yield()
	})
	_, err := Run(p, Options{Strategy: &RoundRobin{Quantum: 1}})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want panic report", err)
	}
}

func TestEventBudget(t *testing.T) {
	p := NewProgram("livelock")
	x := p.Var("x")
	p.SetMain(func(t *T) {
		for {
			t.Read(x)
		}
	})
	_, err := Run(p, Options{Strategy: Cooperative{}, MaxEvents: 1000})
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("err = %v, want budget error", err)
	}
}

func TestCondWaitSignal(t *testing.T) {
	// Single-slot producer/consumer handshake through a condition variable.
	p := NewProgram("cond")
	m := p.Mutex("m")
	full := p.Cond("full", m)
	empty := p.Cond("empty", m)
	slot := p.Var("slot")
	has := p.Var("has")
	sum := p.Var("sum")
	const items = 5
	p.SetMain(func(t *T) {
		prod := t.Fork("producer", func(t *T) {
			for i := 1; i <= items; i++ {
				t.Acquire(m)
				for t.Read(has) == 1 {
					t.Wait(empty)
				}
				t.Write(slot, int64(i))
				t.Write(has, 1)
				t.Signal(full)
				t.Release(m)
			}
		})
		cons := t.Fork("consumer", func(t *T) {
			for i := 0; i < items; i++ {
				t.Acquire(m)
				for t.Read(has) == 0 {
					t.Wait(full)
				}
				v := t.Read(slot)
				t.Write(has, 0)
				t.Write(sum, t.Read(sum)+v)
				t.Signal(empty)
				t.Release(m)
			}
		})
		t.Join(prod)
		t.Join(cons)
	})
	totalWaits := 0
	for _, strat := range []Strategy{Cooperative{}, &RoundRobin{Quantum: 1}, NewRandom(3), NewRandom(77)} {
		res, err := Run(p, Options{Strategy: strat, RecordTrace: true})
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		if res.FinalVars[2] != 15 {
			t.Fatalf("%s: sum = %d, want 15", strat.Name(), res.FinalVars[2])
		}
		if err := res.Trace.Validate(); err != nil {
			t.Fatalf("%s: trace invalid: %v", strat.Name(), err)
		}
		totalWaits += res.Trace.CountOp(trace.OpWait)
	}
	if totalWaits == 0 {
		t.Fatal("expected at least one wait across strategies")
	}
}

func TestBroadcastWakesAll(t *testing.T) {
	p := NewProgram("broadcast")
	m := p.Mutex("m")
	go_ := p.Cond("go", m)
	ready := p.Var("ready")
	woke := p.Var("woke")
	const waiters = 3
	p.SetMain(func(t *T) {
		hs := make([]Handle, waiters)
		for i := 0; i < waiters; i++ {
			hs[i] = t.Fork("waiter", func(t *T) {
				t.Acquire(m)
				for t.Read(ready) == 0 {
					t.Wait(go_)
				}
				t.Write(woke, t.Read(woke)+1)
				t.Release(m)
			})
		}
		t.Yield()
		t.Acquire(m)
		t.Write(ready, 1)
		t.Broadcast(go_)
		t.Release(m)
		for _, h := range hs {
			t.Join(h)
		}
	})
	for _, strat := range []Strategy{&RoundRobin{Quantum: 1}, NewRandom(5)} {
		res, err := Run(p, Options{Strategy: strat})
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		if res.FinalVars[1] != waiters {
			t.Fatalf("%s: woke = %d, want %d", strat.Name(), res.FinalVars[1], waiters)
		}
	}
}

func TestWaitWithoutLockFails(t *testing.T) {
	p := NewProgram("badwait")
	m := p.Mutex("m")
	c := p.Cond("c", m)
	p.SetMain(func(t *T) { t.Wait(c) })
	if _, err := Run(p, Options{Strategy: Cooperative{}}); err == nil {
		t.Fatal("Run accepted wait without lock")
	}
	p2 := NewProgram("badnotify")
	m2 := p2.Mutex("m")
	c2 := p2.Cond("c", m2)
	p2.SetMain(func(t *T) { t.Signal(c2) })
	if _, err := Run(p2, Options{Strategy: Cooperative{}}); err == nil {
		t.Fatal("Run accepted notify without lock")
	}
}

func TestVolatileAndSymbols(t *testing.T) {
	p := NewProgram("vol")
	v := p.Volatile("flag")
	x := p.Var("data")
	m := p.Mutex("mu")
	p.SetMain(func(t *T) {
		t.Call("publish", func() {
			t.Write(x, 9)
			t.VolWrite(v, 1)
		})
		if t.VolRead(v) != 1 {
			t.rt.fail("volatile readback failed")
		}
		t.Acquire(m)
		t.Release(m)
	})
	res, err := Run(p, Options{Strategy: Cooperative{}, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	sym := res.Symbols
	var volEv, plainEv, lockEv, methodEv *trace.Event
	for i := range res.Trace.Events {
		e := &res.Trace.Events[i]
		switch e.Op {
		case trace.OpVolWrite:
			volEv = e
		case trace.OpWrite:
			plainEv = e
		case trace.OpAcquire:
			lockEv = e
		case trace.OpEnter:
			methodEv = e
		}
	}
	if volEv == nil || sym.TargetName(*volEv) != "flag" {
		t.Errorf("volatile symbol = %q", sym.TargetName(*volEv))
	}
	if plainEv == nil || sym.TargetName(*plainEv) != "data" {
		t.Errorf("var symbol = %q", sym.TargetName(*plainEv))
	}
	if lockEv == nil || sym.TargetName(*lockEv) != "mu" {
		t.Errorf("lock symbol = %q", sym.TargetName(*lockEv))
	}
	if methodEv == nil || sym.TargetName(*methodEv) != "publish" {
		t.Errorf("method symbol = %q", sym.TargetName(*methodEv))
	}
	if volEv.Target < volatileBase {
		t.Error("volatile target not offset into volatile id space")
	}
}

func TestLocationsCaptured(t *testing.T) {
	p := NewProgram("locs")
	x := p.Var("x")
	p.SetMain(func(t *T) { t.Write(x, 1) })
	res, err := Run(p, Options{Strategy: Cooperative{}, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	var wr *trace.Event
	for i := range res.Trace.Events {
		if res.Trace.Events[i].Op == trace.OpWrite {
			wr = &res.Trace.Events[i]
		}
	}
	loc := res.Strings.Name(wr.Loc)
	if !strings.Contains(loc, "sched_test.go:") {
		t.Fatalf("write location = %q, want sched_test.go line", loc)
	}
	// Disabled locations yield id 0.
	res, err = Run(p, Options{Strategy: Cooperative{}, RecordTrace: true, DisableLocations: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Trace.Events {
		if e.Loc != 0 {
			t.Fatalf("location captured despite DisableLocations: %v", res.Strings.Name(e.Loc))
		}
	}
}

func TestObserversSeeEveryEvent(t *testing.T) {
	var co CountObserver
	br := &batchRecorder{}
	res, err := Run(counterProgram(2, 3, true), Options{Observers: []Observer{&co, br}, Strategy: NewRandom(11)})
	if err != nil {
		t.Fatal(err)
	}
	if co.Total != res.Events || len(br.events) != res.Events {
		t.Fatalf("observer totals %d/%d, want %d", co.Total, len(br.events), res.Events)
	}
	if co.PerOp[trace.OpAcquire] != 6 || co.PerOp[trace.OpRelease] != 6 {
		t.Fatalf("lock op counts = %d/%d, want 6/6", co.PerOp[trace.OpAcquire], co.PerOp[trace.OpRelease])
	}
}

func TestAtomicSpansEmitted(t *testing.T) {
	p := NewProgram("atomic")
	x := p.Var("x")
	p.SetMain(func(t *T) {
		t.Atomic(func() {
			t.Write(x, 1)
			t.Write(x, 2)
		})
	})
	res, err := Run(p, Options{Strategy: Cooperative{}, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.CountOp(trace.OpAtomicBegin) != 1 || res.Trace.CountOp(trace.OpAtomicEnd) != 1 {
		t.Fatal("atomic span events missing")
	}
}

func TestJoinAlreadyDoneChild(t *testing.T) {
	p := NewProgram("join")
	p.SetMain(func(t *T) {
		h := t.Fork("w", func(t *T) {})
		// Let the child run to completion before joining.
		t.Yield()
		t.Yield()
		t.Join(h)
	})
	if _, err := Run(p, Options{Strategy: &RoundRobin{Quantum: 1}}); err != nil {
		t.Fatal(err)
	}
}

func TestExploreFindsRacyOutcome(t *testing.T) {
	// x=1 ; x=2 in parallel: exploration must find both final values.
	build := func() *Program {
		p := NewProgram("tiny")
		x := p.Var("x")
		p.SetMain(func(t *T) {
			h := t.Fork("w", func(t *T) { t.Write(x, 2) })
			t.Write(x, 1)
			t.Join(h)
		})
		return p
	}
	outcomes := map[int64]bool{}
	rep, err := Explore(build(), ExploreOptions{
		MaxRuns:        200,
		MaxPreemptions: 2,
		Visit: func(res *Result, err error) bool {
			if err != nil {
				t.Fatalf("run error: %v", err)
			}
			outcomes[res.FinalVars[0]] = true
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs < 2 {
		t.Fatalf("explored %d runs, expected several", rep.Runs)
	}
	if !outcomes[1] || !outcomes[2] {
		t.Fatalf("outcomes = %v, want both 1 and 2", outcomes)
	}
}

func TestExploreVisitCanStop(t *testing.T) {
	rep, err := Explore(counterProgram(2, 1, true), ExploreOptions{
		MaxRuns:        100,
		MaxPreemptions: 1,
		Visit:          func(*Result, error) bool { return false },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 1 {
		t.Fatalf("runs = %d, want 1 after early stop", rep.Runs)
	}
}

func TestExploreRequiresVisit(t *testing.T) {
	if _, err := Explore(counterProgram(1, 1, true), ExploreOptions{}); err == nil {
		t.Fatal("Explore accepted missing Visit")
	}
}

func TestStrategyNamesAndSeeds(t *testing.T) {
	cases := []struct {
		s    Strategy
		name string
	}{
		{Cooperative{}, "cooperative"},
		{&RoundRobin{Quantum: 2}, "roundrobin(q=2)"},
		{&Random{SeedVal: 3, P: 0.5}, "random(p=0.5)"},
		{&PCT{SeedVal: 4, Depth: 2}, "pct(d=2)"},
		{NewReplay(nil), "replay"},
		{&Guided{}, "guided"},
	}
	for _, c := range cases {
		if c.s.Name() != c.name {
			t.Errorf("Name = %q, want %q", c.s.Name(), c.name)
		}
	}
	if (&Random{SeedVal: 9}).Seed() != 9 {
		t.Error("Random.Seed")
	}
}

func BenchmarkBareCounter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(counterProgram(4, 50, true), Options{Strategy: Cooperative{}, DisableLocations: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCounterWithTraceAndLocs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(counterProgram(4, 50, true), Options{Strategy: Cooperative{}, RecordTrace: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDeadlockCycleReported(t *testing.T) {
	p := NewProgram("abba")
	a := p.Mutex("A")
	b := p.Mutex("B")
	p.SetMain(func(t *T) {
		h := t.Fork("w", func(t *T) {
			t.Acquire(b)
			t.Yield()
			t.Acquire(a)
			t.Release(a)
			t.Release(b)
		})
		t.Acquire(a)
		t.Yield()
		t.Acquire(b)
		t.Release(b)
		t.Release(a)
		t.Join(h)
	})
	_, err := Run(p, Options{Strategy: &RoundRobin{Quantum: 1}})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "waits-for cycle") {
		t.Fatalf("deadlock report lacks cycle: %v", err)
	}
	// The AB/BA cycle involves both T0 and T1.
	if !strings.Contains(err.Error(), "T0") || !strings.Contains(err.Error(), "T1") {
		t.Fatalf("cycle should involve T0 and T1: %v", err)
	}
}

func TestLostWakeupDeadlockNoCycle(t *testing.T) {
	// A thread waits forever on a condition no one signals: deadlock
	// without a waits-for cycle.
	p := NewProgram("lost")
	m := p.Mutex("m")
	c := p.Cond("c", m)
	p.SetMain(func(t *T) {
		t.Acquire(m)
		t.Wait(c)
		t.Release(m)
	})
	_, err := Run(p, Options{Strategy: Cooperative{}})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v", err)
	}
	if strings.Contains(err.Error(), "waits-for cycle") {
		t.Fatalf("lost wakeup should not report a lock cycle: %v", err)
	}
	if !strings.Contains(err.Error(), "blocked in wait") {
		t.Fatalf("report should mention the wait: %v", err)
	}
}

// The virtual scheduler must be independent of the host's parallelism:
// the same seed yields the same trace whether Go runs the goroutines on
// one OS thread or many.
func TestDeterminismAcrossGOMAXPROCS(t *testing.T) {
	run := func() *Result {
		res, err := Run(counterProgram(4, 6, true), Options{Strategy: NewRandom(21), RecordTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run()
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	single := run()
	if !reflect.DeepEqual(base.Trace.Events, single.Trace.Events) {
		t.Fatal("trace depends on GOMAXPROCS")
	}
}
