package sched

import (
	"testing"

	"repro/internal/obs/flight"
	"repro/internal/trace"
)

// exploreBoth runs the same search with the flight recorder enabled and
// disabled, returning the recording plus both visit sequences.
func exploreBoth(t *testing.T, explore func(*Program, ExploreOptions) (*ExploreReport, error)) (flight.Recording, *ExploreReport, []int, []int) {
	t.Helper()
	search := func() (*ExploreReport, []int) {
		var visits []int
		rep, err := explore(counterProgram(2, 2, true), ExploreOptions{
			MaxPreemptions: 1,
			Visit: func(res *Result, err error) bool {
				if err != nil {
					t.Fatalf("replay error: %v", err)
				}
				visits = append(visits, res.Events)
				return true
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep, visits
	}
	flight.Enable(flight.Options{})
	rep, withRec := search()
	r := flight.Disable()
	_, without := search()
	return r.Snapshot(), rep, withRec, without
}

// countSpans returns how many spans named name begin in the recording.
func countSpans(rec flight.Recording, name string) int {
	n := 0
	for _, tr := range rec.Tracks {
		for _, e := range tr.Events {
			if e.Kind == flight.KindBegin && e.Name == name {
				n++
			}
		}
	}
	return n
}

func TestExploreFlightSpans(t *testing.T) {
	checkSearchSpans(t, Explore, "explore")
}

// TestExploreParallelFlightFlows checks ExploreDPOR's recording as
// TestExploreFlightSpans checks Explore's.
func TestExploreParallelFlightFlows(t *testing.T) {
	checkSearchSpans(t, ExploreDPOR, "explore-dpor")
}

// checkSearchSpans checks one search's recording: the recorder leaves the
// visit sequence unchanged, the search has one span named span, ended
// with the report's status, and every run has one schedule span.
func checkSearchSpans(t *testing.T, explore func(*Program, ExploreOptions) (*ExploreReport, error), span string) {
	t.Helper()
	rec, rep, withRec, without := exploreBoth(t, explore)
	if len(withRec) != rep.Runs || len(without) != rep.Runs {
		t.Fatalf("visits %d with the recorder, %d without, for %d runs", len(withRec), len(without), rep.Runs)
	}
	for i := range withRec {
		if withRec[i] != without[i] {
			t.Fatalf("recorder changed visit %d: %d vs %d events", i, withRec[i], without[i])
		}
	}
	if got := countSpans(rec, span); got != 1 {
		t.Fatalf("%s spans = %d, want 1", span, got)
	}
	if got := countSpans(rec, "schedule"); got != rep.Runs {
		t.Fatalf("schedule spans = %d, want %d (one per run)", got, rep.Runs)
	}
	var endStr string
	for _, tr := range rec.Tracks {
		for _, e := range tr.Events {
			if e.Kind == flight.KindEnd && e.Name == span {
				endStr = e.Str
			}
		}
	}
	if endStr != string(rep.Status) {
		t.Fatalf("%s end note = %q, want %q", span, endStr, rep.Status)
	}
}

func TestPhaseAttribution(t *testing.T) {
	flight.Enable(flight.Options{})
	defer flight.Disable()
	res, err := Run(counterProgram(3, 50, true), Options{
		Strategy:    &RoundRobin{Quantum: 1},
		RecordTrace: true,
		Observers:   []Observer{&CountObserver{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.PhaseTotalNs <= 0 {
		t.Fatalf("PhaseTotalNs = %d, want > 0", st.PhaseTotalNs)
	}
	if st.PhaseHandoffNs <= 0 {
		t.Fatalf("PhaseHandoffNs = %d, want > 0 (quantum-1 round robin switches constantly)", st.PhaseHandoffNs)
	}
	if st.PhaseAnalysisNs <= 0 {
		t.Fatalf("PhaseAnalysisNs = %d, want > 0 (observer attached)", st.PhaseAnalysisNs)
	}
	if sum := st.PhaseGenNs + st.PhaseHandoffNs + st.PhaseAnalysisNs; sum != st.PhaseTotalNs && st.PhaseGenNs != 0 {
		t.Fatalf("phases don't partition total: gen %d + handoff %d + analysis %d != %d",
			st.PhaseGenNs, st.PhaseHandoffNs, st.PhaseAnalysisNs, st.PhaseTotalNs)
	}
}

func TestPhaseAttributionDisabled(t *testing.T) {
	if flight.Enabled() {
		t.Fatal("recorder unexpectedly enabled")
	}
	res, err := Run(counterProgram(2, 10, true), Options{Strategy: Cooperative{}})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.PhaseTotalNs != 0 || st.PhaseGenNs != 0 || st.PhaseHandoffNs != 0 || st.PhaseAnalysisNs != 0 {
		t.Fatalf("phase stats nonzero with recorder disabled: %+v", st)
	}
}

func TestFeedTraceCheckerSpans(t *testing.T) {
	res, err := Run(longCounter(), Options{Strategy: Cooperative{}, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	r := flight.Enable(flight.Options{})
	defer flight.Disable()
	named := &namedObserver{}
	anon := &anonObserver{}
	FeedTrace(res.Trace, named, anon)
	rec := r.Snapshot()
	batches := (res.Trace.Len() + DefaultBatchSize - 1) / DefaultBatchSize
	if got := countSpans(rec, "test-checker"); got != batches {
		t.Fatalf("named checker spans = %d, want %d", got, batches)
	}
	if got := countSpans(rec, "observer-1"); got != batches {
		t.Fatalf("fallback-named spans = %d, want %d", got, batches)
	}
	if named.events != res.Trace.Len() || anon.events != res.Trace.Len() {
		t.Fatalf("observers saw %d/%d events, want %d", named.events, anon.events, res.Trace.Len())
	}
}

type namedObserver struct{ events int }

func (o *namedObserver) ObserveBatch(b []trace.Event) { o.events += len(b) }
func (o *namedObserver) FlightName() string           { return "test-checker" }

type anonObserver struct{ events int }

func (o *anonObserver) ObserveBatch(b []trace.Event) { o.events += len(b) }
