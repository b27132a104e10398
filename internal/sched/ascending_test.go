package sched_test

import (
	"fmt"
	"testing"

	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// ascendingCheck is Random plus a check of the Strategy.Pick contract that
// Guided relies on instead of sorting: every runnable set the runtime
// hands a strategy is strictly ascending.
type ascendingCheck struct {
	*sched.Random
	picks int
	bad   []trace.TID // the first set that broke the contract
}

func (s *ascendingCheck) Pick(runnable []trace.TID, current trace.TID) trace.TID {
	s.picks++
	for i := 1; i < len(runnable) && s.bad == nil; i++ {
		if runnable[i-1] >= runnable[i] {
			s.bad = append([]trace.TID(nil), runnable...)
		}
	}
	return s.Random.Pick(runnable, current)
}

// lockHandover releases the lock a higher thread waits on before the one
// a lower thread waits on, so T2 becomes runnable while T1 is blocked.
func lockHandover() *sched.Program {
	p := sched.NewProgram("lock-handover")
	l1, l2 := p.Mutex("l1"), p.Mutex("l2")
	arrived := p.Volatile("arrived")
	p.SetMain(func(t *sched.T) {
		t.Acquire(l1)
		t.Acquire(l2)
		waiter := func(m *sched.Mutex) sched.Proc {
			return func(t *sched.T) {
				t.VolAdd(arrived, 1)
				t.Acquire(m)
				t.Release(m)
			}
		}
		lo := t.Fork("lo", waiter(l2))
		hi := t.Fork("hi", waiter(l1))
		for t.VolRead(arrived) < 2 {
			t.Yield()
		}
		t.Release(l1)
		t.Yield()
		t.Release(l2)
		t.Join(lo)
		t.Join(hi)
	})
	return p
}

// condBroadcast wakes waiters in their wait order, which the schedule
// decides: a signal first, then a broadcast for the rest.
func condBroadcast() *sched.Program {
	p := sched.NewProgram("cond-broadcast")
	m := p.Mutex("m")
	c := p.Cond("c", m)
	waiting := p.Var("waiting")
	p.SetMain(func(t *sched.T) {
		var hs []sched.Handle
		for i := 0; i < 3; i++ {
			hs = append(hs, t.Fork(fmt.Sprintf("w%d", i), func(t *sched.T) {
				t.Acquire(m)
				t.Write(waiting, t.Read(waiting)+1)
				t.Wait(c)
				t.Release(m)
			}))
		}
		for {
			t.Acquire(m)
			if t.Read(waiting) == 3 {
				break
			}
			t.Release(m)
			t.Yield()
		}
		t.Signal(c)
		t.Release(m)
		t.Yield()
		t.Acquire(m)
		t.Broadcast(c)
		t.Release(m)
		for _, h := range hs {
			t.Join(h)
		}
	})
	return p
}

// chanClose hands one value to whichever receiver queued first, then
// closes the channel, waking the rest together.
func chanClose() *sched.Program {
	p := sched.NewProgram("chan-close")
	ch := p.Chan("ch", 0)
	p.SetMain(func(t *sched.T) {
		var hs []sched.Handle
		for i := 0; i < 3; i++ {
			hs = append(hs, t.Fork(fmt.Sprintf("r%d", i), func(t *sched.T) { t.Recv(ch) }))
		}
		t.Send(ch, 1)
		t.Close(ch)
		for _, h := range hs {
			t.Join(h)
		}
	})
	return p
}

// TestRunnableSetsAscending pins the ordering contract of Strategy.Pick
// over every workload at quick size, the digest golden's generated
// programs, and three programs in which a higher thread can wake before a
// lower one: lock hand-over, condition broadcast and channel close.
func TestRunnableSetsAscending(t *testing.T) {
	check := func(label string, p *sched.Program, seed int64) error {
		t.Helper()
		s := &ascendingCheck{Random: sched.NewRandom(seed)}
		_, err := sched.Run(p, sched.Options{Strategy: s})
		if s.bad != nil {
			t.Errorf("%s seed %d: runnable set %v is not strictly ascending", label, seed, s.bad)
		}
		if s.picks == 0 {
			t.Errorf("%s seed %d: the strategy was never consulted", label, seed)
		}
		return err
	}
	for seed := int64(0); seed < 50; seed++ {
		for _, p := range []*sched.Program{lockHandover(), condBroadcast(), chanClose()} {
			if err := check(p.Name(), p, seed); err != nil {
				t.Errorf("%s seed %d: %v", p.Name(), seed, err)
			}
		}
	}
	// A generated program or a buggy workload may deadlock or fail on some
	// schedule; the contract covers every set handed out before that, so
	// run errors are not failures here.
	for seed := int64(0); seed < digestGenSeeds; seed++ {
		_ = check(fmt.Sprintf("gen/%d", seed), digestGenProgram(seed), seed)
	}
	for _, spec := range workloads.All() {
		for seed := int64(1); seed <= 2; seed++ {
			_ = check("workload/"+spec.Name, spec.New(0, quickSize(spec)), seed)
		}
	}
}
