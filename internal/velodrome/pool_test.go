package velodrome

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// veloCounters are the counters one analysis adds to.
var veloCounters = []*obs.Counter{mCheckerEvents, mEvents, mNodes, mEdges, mBlocks, mViolations}

// analysis is what one trace's analysis reports.
type analysis struct {
	vios           []Violation
	blocks, events int
	deltas         []int64
}

// analyzeOn feeds c tr in the runtime's batches and reads its results and
// the counters its flush added.
func analyzeOn(c *Checker, tr *trace.Trace) analysis {
	before := make([]int64, len(veloCounters))
	for i, m := range veloCounters {
		before[i] = m.Load()
	}
	sched.FeedTrace(tr, c)
	a := analysis{vios: c.Violations(), blocks: c.Blocks(), events: c.Events()}
	c.FlushMetrics(len(a.vios))
	for i, m := range veloCounters {
		a.deltas = append(a.deltas, m.Load()-before[i])
	}
	return a
}

// commTrace draws an edge of every kind, each from a lock, volatile,
// channel, variable or thread id the traces before it in reuseTraces also
// use, so that a reset that kept any of those entries would add edges.
func commTrace() *trace.Trace {
	b := trace.NewBuilder()
	tr := b.Trace()
	ch := func(t trace.TID, op trace.Op) {
		tr.Append(trace.Event{Tid: t, Op: op, Target: trace.ChanTarget(3, true)})
	}
	b.On(0).Begin().AtomicBegin().Acq(7).VolRead(1<<32 + 5).Read(9)
	ch(0, trace.OpRecv)
	b.Fork(1)
	b.On(1).Begin().AtomicBegin().Acq(8).Write(9).VolWrite(1<<32 + 5)
	ch(1, trace.OpSend)
	b.Rel(8).AtomicEnd().End()
	b.On(0).Join(1).Acq(8).Read(9).VolRead(1<<32 + 5)
	ch(0, trace.OpClose)
	b.Rel(7).AtomicEnd().End()
	return tr
}

// reuseTraces is a sequence of traces that varies what a reused checker
// must forget: a large trace, a small one after it, one that ends inside
// open transactions, and one with an edge of every kind.
func reuseTraces(t *testing.T) []*trace.Trace {
	spec, _ := workloads.Get("lufact")
	res, err := sched.Run(spec.New(0, 0), sched.Options{Strategy: &sched.RoundRobin{Quantum: 1}, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	large := res.Trace

	b := trace.NewBuilder()
	b.On(0).Begin().AtomicBegin().Read(1)
	b.On(1).Begin().Write(1).End()
	b.On(0).Read(1).AtomicEnd().End()
	small := b.Trace()

	// Both threads stop inside transactions, thread 1 inside a nested
	// one, on variables, locks, volatiles and a channel that commTrace
	// reads first.
	b = trace.NewBuilder()
	b.On(0).Begin().Write(9).Rel(7).VolWrite(1<<32 + 5).Fork(1).AtomicBegin().Read(9)
	b.On(1).Begin().AtomicBegin().AtomicBegin().Write(9).Rel(8)
	b.Trace().Append(trace.Event{Tid: 1, Op: trace.OpSend, Target: trace.ChanTarget(3, true)})
	b.On(0).Read(9)
	open := b.Trace()

	return []*trace.Trace{large, small, open, commTrace(), small, large}
}

// TestReusedCheckerMatchesFresh: a checker reset between traces, as
// Release resets it for Borrow, reports on each trace the violations,
// blocks and events a fresh checker reports, and adds the same counts to
// every checker.velodrome counter. It extends TestFlushMetricsOncePerAnalysis's
// contract to a reused checker. Between traces the checker is also fed
// the trace that ends inside open transactions and reset unread, as a
// caller that gives up on a trace would release it.
func TestReusedCheckerMatchesFresh(t *testing.T) {
	traces := reuseTraces(t)
	for _, opts := range []Options{{MethodsAtomic: true}, {}} {
		reused := New(opts)
		for i, tr := range traces {
			want := analyzeOn(New(opts), tr)
			got := analyzeOn(reused, tr)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v trace %d: reused checker %+v, fresh %+v", opts, i, got, want)
			}
			reused.reset()
			reused.opts = opts
			sched.FeedTrace(traces[2], reused)
			reused.reset()
			reused.opts = opts
		}
	}
}

// TestBorrowedCheckerIsEmpty: Borrow hands out checkers that report what
// New's do, after Release has returned a used one with other options.
func TestBorrowedCheckerIsEmpty(t *testing.T) {
	tr := commTrace()
	want := analyzeOn(New(Options{}), tr)
	for i := 0; i < 3; i++ {
		c := Borrow(Options{MethodsAtomic: true})
		analyzeOn(c, tr)
		c.Release()
		c = Borrow(Options{})
		if got := analyzeOn(c, tr); !reflect.DeepEqual(got, want) {
			t.Fatalf("borrowed checker %+v, fresh %+v", got, want)
		}
		c.Release()
	}
}

// TestAnalyzeConcurrent: goroutines that analyze traces at once, each
// through checkers borrowed from the one pool, get a fresh checker's
// violations for every trace.
func TestAnalyzeConcurrent(t *testing.T) {
	traces := reuseTraces(t)
	opts := Options{MethodsAtomic: true}
	want := make([][]Violation, len(traces))
	for i, tr := range traces {
		want[i] = analyzeOn(New(opts), tr).vios
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i, tr := range traces {
					if got := Analyze(tr, opts); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("trace %d: %v, fresh %v", i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
