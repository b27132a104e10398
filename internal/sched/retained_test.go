package sched_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// retainedSearch is one search of TestRetainedResultsMatchReplay.
type retainedSearch struct {
	label   string
	build   func() *sched.Program
	bound   int
	maxRuns int
	// observe runs every replay with an eventLog observer.
	observe bool
}

// eventLog is an observer that copies every event it is handed.
type eventLog struct{ events []trace.Event }

func (l *eventLog) ObserveBatch(batch []trace.Event) { l.events = append(l.events, batch...) }

// TestRetainedResultsMatchReplay keeps every Result that Explore and
// ExploreDPOR hand to Visit and, once the search has returned, compares
// each with a fresh Run of its schedule: trace events, string table, final
// values, symbols, schedule and choices. A search recycles its runtime's
// buffers across replays, so this pins that none of them reaches a
// Result. The searches are explore.golden's (the certify items at 2
// threads, the generated programs, the fixtures), the fault fixtures,
// whose runs end in thread panics and deadlocks, so that the runs after a
// killed one are covered, and one search whose replays run an observer,
// which must see exactly the run's trace. A run that ended in an error is
// compared with a copy taken when it was visited instead: a deadlocked
// run's schedule holds the events its threads emit while they are killed,
// so a replay of it diverges.
func TestRetainedResultsMatchReplay(t *testing.T) {
	var searches []retainedSearch
	for _, name := range certifyGoldenItems {
		spec, ok := workloads.Get(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		searches = append(searches, retainedSearch{label: "workload/" + name, build: func() *sched.Program { return spec.New(2, 1) }, bound: 2, maxRuns: 20000})
	}
	for seed := int64(0); seed < digestGenSeeds; seed++ {
		searches = append(searches, retainedSearch{label: fmt.Sprintf("gen/%d", seed), build: func() *sched.Program { return digestGenProgram(seed) }, bound: 2, maxRuns: genGoldenCap})
	}
	for _, f := range slices.Concat(sched.ExploreFixtures, sched.FaultFixtures) {
		searches = append(searches, retainedSearch{label: f.Name, build: f.New, bound: 2, maxRuns: 4000})
	}
	bank, _ := workloads.Get("bank-buggy")
	searches = append(searches, retainedSearch{label: "observed/bank-buggy", build: func() *sched.Program { return bank.New(2, 1) }, bound: 2, maxRuns: 20000, observe: true})

	explorers := []struct {
		name    string
		explore func(*sched.Program, sched.ExploreOptions) (*sched.ExploreReport, error)
	}{{"explore", sched.Explore}, {"dpor", sched.ExploreDPOR}}
	for _, ex := range explorers {
		t.Run(ex.name, func(t *testing.T) {
			for _, s := range searches {
				checkRetained(t, ex.explore, s)
			}
		})
	}
}

// checkRetained runs one search, keeping every visited Result, and then
// compares each with a fresh Run of its schedule, or, for a run that ended
// in an error, with the copy taken at its visit.
func checkRetained(t *testing.T, explore func(*sched.Program, sched.ExploreOptions) (*sched.ExploreReport, error), s retainedSearch) {
	t.Helper()
	type visit struct {
		res  *sched.Result
		err  error
		at   resultView // the Result as Visit saw it
		seen []trace.Event
	}
	var visits []visit
	var log *eventLog
	opts := sched.ExploreOptions{
		MaxRuns:        s.maxRuns,
		MaxPreemptions: s.bound,
		RecordTrace:    true,
		Visit: func(res *sched.Result, err error) bool {
			v := visit{res: res, err: err}
			if res != nil {
				v.at = viewOf(res)
			}
			if log != nil {
				v.seen = log.events
			}
			visits = append(visits, v)
			return true
		},
	}
	if s.observe {
		opts.Observers = func() []sched.Observer {
			log = &eventLog{}
			return []sched.Observer{log}
		}
	}
	p := s.build()
	if _, err := explore(p, opts); err != nil {
		t.Fatalf("%s: %v", s.label, err)
	}
	failed := 0
	for i, v := range visits {
		if v.res == nil {
			continue
		}
		want := v.at
		if v.err == nil {
			res, err := sched.Run(p, sched.Options{Strategy: sched.NewReplayChoices(v.res.Schedule, v.res.Choices), RecordTrace: true})
			if err != nil {
				t.Fatalf("%s: visit %d: replay: %v", s.label, i, err)
			}
			want = viewOf(res)
		}
		diff := viewOf(v.res).diff(want)
		if diff == "" && s.observe && !slices.Equal(v.seen, v.res.Trace.Events) {
			diff = "the observer saw other events than the trace holds"
		}
		if diff != "" {
			t.Errorf("%s: visit %d of %d: %s", s.label, i, len(visits), diff)
			if failed++; failed == 3 {
				return
			}
		}
	}
}

// resultView is a copy of what a Visit can keep of a Result.
type resultView struct {
	events     []trace.Event
	strings    []string
	vars, vols []int64
	symbols    sched.Symbols
	schedule   []trace.TID
	choices    []int
}

func viewOf(r *sched.Result) resultView {
	sym := *r.Symbols
	for _, names := range []*[]string{&sym.Vars, &sym.Volatiles, &sym.Mutexes, &sym.Methods, &sym.Threads, &sym.Chans} {
		*names = slices.Clone(*names)
	}
	return resultView{
		events:   slices.Clone(r.Trace.Events),
		strings:  slices.Clone(r.Strings.All()),
		vars:     slices.Clone(r.FinalVars),
		vols:     slices.Clone(r.FinalVolatiles),
		symbols:  sym,
		schedule: slices.Clone(r.Schedule),
		choices:  slices.Clone(r.Choices),
	}
}

// diff names the first part of v that differs from want, or returns "".
func (v resultView) diff(want resultView) string {
	switch {
	case !slices.Equal(v.events, want.events):
		return "trace events differ"
	case !slices.Equal(v.strings, want.strings):
		return fmt.Sprintf("string tables differ: %q, want %q", v.strings, want.strings)
	case !slices.Equal(v.vars, want.vars) || !slices.Equal(v.vols, want.vols):
		return fmt.Sprintf("final values differ: %v %v, want %v %v", v.vars, v.vols, want.vars, want.vols)
	case !reflect.DeepEqual(v.symbols, want.symbols):
		return fmt.Sprintf("symbols differ: %+v, want %+v", v.symbols, want.symbols)
	case !slices.Equal(v.schedule, want.schedule) || !slices.Equal(v.choices, want.choices):
		return "schedule or choices differ"
	}
	return ""
}

// internObserver interns names into each run's string table before the
// run starts, as an observer resolving its own names may.
type internObserver struct{ names []string }

func (o *internObserver) ObserveBatch([]trace.Event) {}

func (o *internObserver) SetStrings(s *trace.Strings) {
	for _, n := range o.names {
		s.Intern(n)
	}
}

// TestObserverInternedLocationsStayUnique runs an exploration whose
// observers intern, ahead of every replay, the location names the replay
// will capture (in reverse, so their ids differ from the capture order).
// The runtime appends a location to the run's table unhashed while nothing
// has interned into it; here each name must still appear once, and every
// event must name the location a replay without the observer names.
func TestObserverInternedLocationsStayUnique(t *testing.T) {
	bank, _ := workloads.Get("bank-buggy")
	p := bank.New(2, 1)
	ref, err := sched.Run(p, sched.Options{Strategy: &sched.Cooperative{}, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	names := slices.Clone(ref.Strings.All())
	slices.Reverse(names)
	runs := 0
	_, err = sched.Explore(p, sched.ExploreOptions{
		MaxRuns: 200, MaxPreemptions: 2, RecordTrace: true,
		Observers: func() []sched.Observer { return []sched.Observer{&internObserver{names: names}} },
		Visit: func(res *sched.Result, err error) bool {
			if err != nil || res == nil {
				t.Fatalf("run %d: %v", runs, err)
			}
			runs++
			all := res.Strings.All()
			sorted := slices.Clone(all)
			slices.Sort(sorted)
			if len(slices.Compact(sorted)) != len(all) {
				t.Fatalf("run %d: a name appears twice in %q", runs, all)
			}
			want, err := sched.Run(p, sched.Options{Strategy: sched.NewReplayChoices(res.Schedule, res.Choices), RecordTrace: true})
			if err != nil {
				t.Fatalf("run %d: replay: %v", runs, err)
			}
			for i, e := range res.Trace.Events {
				if got, w := res.Strings.Name(e.Loc), want.Strings.Name(want.Trace.Events[i].Loc); got != w {
					t.Fatalf("run %d: event %d at %q, want %q", runs, i, got, w)
				}
			}
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs < 2 {
		t.Fatalf("explored %d runs, want several", runs)
	}
}
