package sched_test

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
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
// each with a fresh Run of its schedule, the threads of its trace's
// events: trace events, string table, final values, symbols and choices.
// A search recycles its runtime's buffers across replays, so this pins
// that none of them reaches a Result. The searches are explore.golden's
// (the certify items at 2 threads, the generated programs, the fixtures),
// the fault fixtures, whose runs end in thread panics and deadlocks, so
// that the runs after a killed one are covered, and bank-buggy. A
// deadlocked run's replay must end in the same deadlock: its threads are
// killed inside WithLock bodies, and nothing their deferred Releases run
// while they unwind may be recorded. A run that ended in another error is
// compared with a copy taken when it was visited instead. A panicked run
// is replayed from its ExploreError's prefix. The replays of the fault
// fixtures' and bank-buggy's runs, deadlocked and panicked ones included,
// run an observer, which must see exactly the kept trace.
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
	for _, f := range sched.ExploreFixtures {
		searches = append(searches, retainedSearch{label: f.Name, build: f.New, bound: 2, maxRuns: 4000})
	}
	for _, f := range sched.FaultFixtures {
		searches = append(searches, retainedSearch{label: f.Name, build: f.New, bound: 2, maxRuns: 4000, observe: true})
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
// in an error other than a deadlock, with the copy taken at its visit.
func checkRetained(t *testing.T, explore func(*sched.Program, sched.ExploreOptions) (*sched.ExploreReport, error), s retainedSearch) {
	t.Helper()
	type visit struct {
		res *sched.Result
		err error
		at  resultView // the Result as Visit saw it
	}
	var visits []visit
	opts := sched.ExploreOptions{
		MaxRuns:        s.maxRuns,
		MaxPreemptions: s.bound,
		RecordTrace:    true,
		Visit: func(res *sched.Result, err error) bool {
			v := visit{res: res, err: err}
			if res != nil {
				v.at = viewOf(res)
			}
			visits = append(visits, v)
			return true
		},
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
		var log eventLog
		var pe *sched.ExploreError
		panicked := errors.As(v.err, &pe)
		if v.err == nil || errors.Is(v.err, sched.ErrDeadlock) || panicked {
			// A panicked run replays from its forced-decision prefix: its
			// trace's threads do not name the thread picked to panic after
			// its last event.
			ro := sched.Options{Strategy: sched.NewReplayChoices(tidsOf(v.res.Trace), v.res.Choices), RecordTrace: true}
			if panicked {
				ro.Strategy = &sched.Guided{Prefix: pe.Prefix}
			}
			if s.observe {
				ro.Observers = []sched.Observer{&log}
			}
			res, err := sched.Run(p, ro)
			if !sameError(err, v.err) {
				t.Fatalf("%s: visit %d: replay ended in %v, want %v", s.label, i, err, v.err)
			}
			want = viewOf(res)
		}
		diff := viewOf(v.res).diff(want)
		if diff == "" && s.observe && !slices.Equal(log.events, v.res.Trace.Events) {
			diff = "the replay's observer saw other events than the trace holds"
		}
		if diff != "" {
			t.Errorf("%s: visit %d of %d: %s", s.label, i, len(visits), diff)
			if failed++; failed == 3 {
				return
			}
		}
	}
}

// sameError reports whether a replay's error reads as the original run's,
// a search's panic as a run's panic of the same value.
func sameError(got, want error) bool {
	var pe *sched.ExploreError
	if errors.As(want, &pe) && got != nil {
		return strings.HasSuffix(got.Error(), fmt.Sprint(pe.Panic))
	}
	if got == nil || want == nil {
		return got == want
	}
	return got.Error() == want.Error()
}

// resultView is a copy of what a Visit can keep of a Result.
type resultView struct {
	count      int // Result.Events
	events     []trace.Event
	strings    []string
	vars, vols []int64
	symbols    sched.Symbols
	choices    []int
}

func viewOf(r *sched.Result) resultView {
	sym := *r.Symbols
	for _, names := range []*[]string{&sym.Vars, &sym.Volatiles, &sym.Mutexes, &sym.Methods, &sym.Threads, &sym.Chans} {
		*names = slices.Clone(*names)
	}
	return resultView{
		count:   r.Events,
		events:  slices.Clone(r.Trace.Events),
		strings: slices.Clone(r.Strings.All()),
		vars:    slices.Clone(r.FinalVars),
		vols:    slices.Clone(r.FinalVolatiles),
		symbols: sym,
		choices: slices.Clone(r.Choices),
	}
}

// diff names the first part of v that differs from want, or returns "".
func (v resultView) diff(want resultView) string {
	switch {
	case v.count != want.count:
		return fmt.Sprintf("event counts differ: %d, want %d", v.count, want.count)
	case !slices.Equal(v.events, want.events):
		return "trace events differ"
	case !slices.Equal(v.strings, want.strings):
		return fmt.Sprintf("string tables differ: %q, want %q", v.strings, want.strings)
	case !slices.Equal(v.vars, want.vars) || !slices.Equal(v.vols, want.vols):
		return fmt.Sprintf("final values differ: %v %v, want %v %v", v.vars, v.vols, want.vars, want.vols)
	case !reflect.DeepEqual(v.symbols, want.symbols):
		return fmt.Sprintf("symbols differ: %+v, want %+v", v.symbols, want.symbols)
	case !slices.Equal(v.choices, want.choices):
		return "choices differ"
	}
	return ""
}
