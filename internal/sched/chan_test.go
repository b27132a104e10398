package sched

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
)

// Channel runtime semantics: buffered FIFO, unbuffered rendezvous, close
// behavior, misuse failures, deadlock diagnostics, select (blocking,
// default, replay, exploration).

func TestChanBufferedFIFO(t *testing.T) {
	p := NewProgram("buffered-fifo")
	c := p.Chan("c", 2)
	a, b := p.Var("a"), p.Var("b") // FinalVars[0], FinalVars[1]
	p.SetMain(func(t *T) {
		t.Send(c, 10)
		t.Send(c, 20)
		v1, ok1 := t.Recv(c)
		v2, ok2 := t.Recv(c)
		if !ok1 || !ok2 {
			panic("recv from open buffered chan must report ok")
		}
		t.Write(a, v1)
		t.Write(b, v2)
	})
	res, err := Run(p, Options{Strategy: Cooperative{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalVars[0] != 10 || res.FinalVars[1] != 20 {
		t.Errorf("buffered channel must deliver in FIFO order, got %v", res.FinalVars)
	}
}

func TestChanUnbufferedRendezvous(t *testing.T) {
	p := NewProgram("unbuf-rendezvous")
	c := p.Chan("c", 0)
	got := p.Var("got")
	p.SetMain(func(t *T) {
		h := t.Fork("recv", func(t *T) {
			v, ok := t.Recv(c)
			if !ok {
				panic("rendezvous recv must report ok")
			}
			t.Write(got, v)
		})
		t.Send(c, 77)
		t.Join(h)
	})
	res, err := Run(p, Options{Strategy: Cooperative{}, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalVars[0] != 77 {
		t.Errorf("unbuffered send must hand its value to the receiver, got %v", res.FinalVars)
	}
	// The event protocol: the offer (OpSend) precedes the take (OpRecv),
	// so the release/acquire edge is visible in trace order.
	sendIdx, recvIdx := -1, -1
	for i, e := range res.Trace.Events {
		switch e.Op {
		case trace.OpSend:
			sendIdx = i
			if !trace.ChanUnbuffered(e.Target) {
				t.Error("send on a cap-0 channel must carry the unbuffered bit")
			}
		case trace.OpRecv:
			recvIdx = i
		}
	}
	if sendIdx < 0 || recvIdx < 0 || sendIdx > recvIdx {
		t.Errorf("want OpSend before OpRecv in trace order, got send=%d recv=%d", sendIdx, recvIdx)
	}
}

func TestChanCloseDrainThenNotOk(t *testing.T) {
	p := NewProgram("close-drain")
	c := p.Chan("c", 2)
	sum := p.Var("sum")
	p.SetMain(func(t *T) {
		t.Send(c, 1)
		t.Send(c, 2)
		t.Close(c)
		s := int64(0)
		for {
			v, ok := t.Recv(c)
			if !ok {
				if v != 0 {
					panic("closed-channel recv must return the zero value")
				}
				break
			}
			s += v
		}
		t.Write(sum, s)
	})
	res, err := Run(p, Options{Strategy: Cooperative{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalVars[0] != 3 {
		t.Errorf("close must let buffered values drain before (0,false), got %v", res.FinalVars)
	}
}

func TestChanCloseWakesBlockedReceivers(t *testing.T) {
	p := NewProgram("close-wakes")
	c := p.Chan("c", 0)
	done := p.Var("done")
	p.SetMain(func(t *T) {
		h := t.Fork("recv", func(t *T) {
			_, ok := t.Recv(c)
			if ok {
				panic("recv woken by close must report !ok")
			}
			t.Write(done, 1)
		})
		t.Close(c)
		t.Join(h)
	})
	res, err := Run(p, Options{Strategy: Cooperative{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalVars[0] != 1 {
		t.Errorf("close must wake a blocked receiver, got %v", res.FinalVars)
	}
}

func TestChanSendOnClosedFailsRun(t *testing.T) {
	p := NewProgram("send-on-closed")
	c := p.Chan("c", 1)
	p.SetMain(func(t *T) {
		t.Close(c)
		t.Send(c, 1)
	})
	_, err := Run(p, Options{Strategy: Cooperative{}})
	if err == nil || !strings.Contains(err.Error(), "closed channel") {
		t.Errorf("send on closed channel must fail the run, got %v", err)
	}
}

func TestChanDoubleCloseFailsRun(t *testing.T) {
	p := NewProgram("double-close")
	c := p.Chan("c", 1)
	p.SetMain(func(t *T) {
		t.Close(c)
		t.Close(c)
	})
	_, err := Run(p, Options{Strategy: Cooperative{}})
	if err == nil || !strings.Contains(err.Error(), "already-closed") {
		t.Errorf("double close must fail the run, got %v", err)
	}
}

// TestChanDeadlockDiagnostics: a thread stuck on a channel op must show up
// in the deadlock report with the op kind and the channel's name.
func TestChanDeadlockDiagnostics(t *testing.T) {
	cases := []struct {
		name string
		body func(t *T, c *Chan)
		want string
	}{
		{"recv", func(t *T, c *Chan) { t.Recv(c) }, "blocked receiving on chan c"},
		{"send", func(t *T, c *Chan) { t.Send(c, 1) }, "blocked sending on chan c"},
		{"select", func(t *T, c *Chan) { t.Select(RecvCase(c)) }, "blocked in select (1 cases)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewProgram("chan-deadlock-" + tc.name)
			c := p.Chan("c", 0)
			p.SetMain(func(t *T) { tc.body(t, c) })
			_, err := Run(p, Options{Strategy: Cooperative{}})
			if !errors.Is(err, ErrDeadlock) {
				t.Fatalf("want ErrDeadlock, got %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("deadlock report %q missing %q", err, tc.want)
			}
		})
	}
}

func TestSelectDefaultNonBlocking(t *testing.T) {
	p := NewProgram("select-default")
	c := p.Chan("c", 1)
	first, second := p.Var("first"), p.Var("second")
	p.SetMain(func(t *T) {
		// Nothing ready: the default arm commits with index -1.
		idx, _, _ := t.SelectDefault(RecvCase(c))
		t.Write(first, int64(idx))
		// A buffered value makes the case ready: the poll commits it.
		t.Send(c, 5)
		idx, v, ok := t.SelectDefault(RecvCase(c))
		if idx != 0 || v != 5 || !ok {
			panic("ready case must win over the default arm")
		}
		t.Write(second, v)
	})
	res, err := Run(p, Options{Strategy: Cooperative{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalVars[0] != -1 || res.FinalVars[1] != 5 {
		t.Errorf("SelectDefault semantics wrong: %v", res.FinalVars)
	}
}

func TestSelectCommitsSendCase(t *testing.T) {
	p := NewProgram("select-send")
	c := p.Chan("c", 1)
	got := p.Var("got")
	p.SetMain(func(t *T) {
		idx, _, ok := t.Select(SendCase(c, 9))
		if idx != 0 || !ok {
			panic("lone ready send case must commit")
		}
		v, _ := t.Recv(c)
		t.Write(got, v)
	})
	res, err := Run(p, Options{Strategy: Cooperative{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalVars[0] != 9 {
		t.Errorf("select-committed send must deliver its value, got %v", res.FinalVars)
	}
}

// selectRace builds the canonical select-nondeterminism program: both
// cases are ready when the lone thread selects, so the final state is
// decided purely by the select choice point.
func selectRace() *Program {
	p := NewProgram("select-race")
	c1 := p.Chan("c1", 1)
	c2 := p.Chan("c2", 1)
	x := p.Var("x")
	p.SetMain(func(t *T) {
		t.Send(c1, 1)
		t.Send(c2, 2)
		_, v, _ := t.Select(RecvCase(c1), RecvCase(c2))
		t.Write(x, v)
	})
	return p
}

// TestSelectChoicePointExplored: both exhaustive explorers must enumerate
// the select alternatives — the choice point costs no preemption budget,
// so even bound 0 reaches both outcomes.
func TestSelectChoicePointExplored(t *testing.T) {
	naive, _ := outcomeSet(t, Explore, selectRace, 0)
	dpor, _ := outcomeSet(t, ExploreDPOR, selectRace, 0)
	for name, got := range map[string]map[string]bool{"Explore": naive, "ExploreDPOR": dpor} {
		if len(got) != 2 {
			t.Errorf("%s: want both select outcomes, got %v", name, got)
		}
	}
	if !reflect.DeepEqual(naive, dpor) {
		t.Errorf("outcome sets differ: naive %v dpor %v", naive, dpor)
	}
}

// TestSelectReplayWithChoices: the trace's thread order alone cannot
// disambiguate a select among simultaneously ready cases; with Choices it
// must reproduce the run event for event.
func TestSelectReplayWithChoices(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		orig, err := Run(selectRace(), Options{Strategy: NewRandom(seed), RecordTrace: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(orig.Choices) == 0 {
			t.Fatalf("seed %d: select among ready cases must record a choice", seed)
		}
		rep, err := Run(selectRace(), Options{
			Strategy:    NewReplayChoices(tidsOf(orig.Trace), orig.Choices),
			RecordTrace: true,
		})
		if err != nil {
			t.Fatalf("seed %d replay: %v", seed, err)
		}
		if !reflect.DeepEqual(orig.Trace.Events, rep.Trace.Events) {
			t.Fatalf("seed %d: replay with recorded choices diverged", seed)
		}
	}
}

// TestChanMetrics: one run's channel ops must land in the runtime.chan.*
// counters (read as deltas — the obs registry is cumulative per process).
func TestChanMetrics(t *testing.T) {
	before := [4]int64{
		mRunChanSends.Load(), mRunChanRecvs.Load(),
		mRunChanCloses.Load(), mRunChanSelects.Load(),
	}
	p := NewProgram("chan-metrics")
	c := p.Chan("c", 1)
	p.SetMain(func(t *T) {
		t.Send(c, 1)
		t.Recv(c)
		t.SelectDefault(RecvCase(c))
		t.Close(c)
	})
	if _, err := Run(p, Options{Strategy: Cooperative{}}); err != nil {
		t.Fatal(err)
	}
	after := [4]int64{
		mRunChanSends.Load(), mRunChanRecvs.Load(),
		mRunChanCloses.Load(), mRunChanSelects.Load(),
	}
	names := [4]string{"runtime.chan.sends", "runtime.chan.recvs", "runtime.chan.closes", "runtime.chan.selects"}
	for i, name := range names {
		if d := after[i] - before[i]; d != 1 {
			t.Errorf("%s advanced by %d, want 1", name, d)
		}
	}
}
