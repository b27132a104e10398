package sched

import (
	"fmt"

	"repro/internal/obs/flight"
	"repro/internal/trace"
)

// DefaultBatchSize is the number of events in every observer batch but
// the last: a run hands its observers each staging chunk as it fills, and
// FeedTrace walks a recorded trace in windows of the same size. 4096
// events (128 KiB of trace.Event) amortizes the per-observer interface
// dispatch ~4000× while the batch plus one analysis's working set stays
// cache-resident.
const DefaultBatchSize = 4096

// FeedTrace streams a recorded trace through observers exactly once, as
// zero-copy windows of DefaultBatchSize events.
//
// This is the offline half of the fused pipeline: one pass over the decoded
// trace fans out to any number of analyses, so N checkers cost one trace
// scan instead of N (see harness.FusedRunner).
func FeedTrace(tr *trace.Trace, observers ...Observer) {
	// When the flight recorder is on, each ObserveBatch gets its own span
	// named after the checker (FlightNamed) on an acquired lane — FeedTrace
	// runs concurrently from pool workers, so lanes cannot be shared.
	var ftrack *flight.Track
	var names []string
	if fr := flight.Active(); fr != nil && len(observers) > 0 {
		ftrack = fr.Acquire("checkers")
		defer fr.Release(ftrack)
		names = make([]string, len(observers))
		for i, o := range observers {
			if fn, ok := o.(FlightNamed); ok {
				names[i] = fn.FlightName()
			} else {
				names[i] = fmt.Sprintf("observer-%d", i)
			}
		}
	}
	events := tr.Events
	for start := 0; start < len(events); start += DefaultBatchSize {
		end := min(start+DefaultBatchSize, len(events))
		for i, o := range observers {
			if ftrack != nil {
				s := ftrack.Begin(flight.CatChecker, names[i], 0, flight.A("events", int64(end-start)))
				o.ObserveBatch(events[start:end])
				s.End()
				continue
			}
			o.ObserveBatch(events[start:end])
		}
	}
}
