package sched

import "repro/internal/trace"

// Observer consumes instrumented events in batches instead of one virtual
// call per event. The runtime (and FeedTrace) delivers every event exactly
// once, in trace order, as a sequence of contiguous batches of
// DefaultBatchSize events; the final batch may be shorter, and on an
// aborted run it ends at the last event recorded before the abort.
//
// The batch slice is owned by the caller: in a run, a chunk of the run's
// staging log, which the runtime refills; in FeedTrace, a window of the
// recorded trace. It is valid only during the call, so observers must
// consume it synchronously, must not retain it past the call, and must not
// modify it.
type Observer interface {
	ObserveBatch(batch []trace.Event)
}

// CountObserver counts events per operation kind; it is the cheapest
// possible observer and anchors the overhead experiments.
type CountObserver struct {
	// Total is the number of events seen.
	Total int
	// PerOp counts events by operation kind.
	PerOp [32]int
	// Other counts events whose op is outside PerOp's range (future or
	// corrupted op kinds); previously these were silently dropped from the
	// per-op breakdown, so Total and the sum of PerOp disagreed.
	Other int
}

// ObserveBatch implements Observer.
func (c *CountObserver) ObserveBatch(batch []trace.Event) {
	for i := range batch {
		c.Event(batch[i])
	}
}

// Event counts one event.
func (c *CountObserver) Event(e trace.Event) {
	c.Total++
	if int(e.Op) < len(c.PerOp) {
		c.PerOp[e.Op]++
	} else {
		c.Other++
	}
}
