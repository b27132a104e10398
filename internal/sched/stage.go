package sched

import (
	"sync"

	"repro/internal/trace"
)

// chunkEvents is the capacity of a staging chunk, 128 KiB of trace.Event.
// A full chunk is one observer batch.
const chunkEvents = DefaultBatchSize

// chunkPool holds staging chunks between runtimes, process-wide: a Runtime
// takes chunks from it as its runs need them and returns them on close, so
// back-to-back Runs record into the same few chunks instead of each growing
// a trace of its own. It fills lazily, never at package init.
var chunkPool sync.Pool // of *[chunkEvents]trace.Event

// stageLog is where a run records its events: each event is written once,
// into fixed-size chunks that the log keeps across its Runtime's runs, so
// a run never regrows an array. Observers are handed each chunk as a batch
// when it fills, and the last, partial one when the run ends; then, under
// RecordTrace, the run's trace is copied out at its exact length (fill).
type stageLog struct {
	// cur is the chunk being filled; the run's earlier chunks are full.
	cur []trace.Event
	// chunks holds the log's chunks: the run's first n, the last of which
	// cur windows, then spares kept from earlier runs.
	chunks []*[chunkEvents]trace.Event
	n      int
}

// reset empties the log for a new run, keeping its chunks.
func (l *stageLog) reset() { l.cur, l.n = nil, 0 }

// next makes room in cur for one more event: the run moves on to its next
// chunk — one kept from an earlier run, a pooled chunk, or a new one.
func (l *stageLog) next() {
	if l.n == len(l.chunks) {
		c, ok := chunkPool.Get().(*[chunkEvents]trace.Event)
		if !ok {
			c = new([chunkEvents]trace.Event)
		}
		l.chunks = append(l.chunks, c)
	}
	l.cur = l.chunks[l.n][:0]
	l.n++
}

// fill copies the run's events into events, which has the run's length.
func (l *stageLog) fill(events []trace.Event) {
	at := 0
	for k := range l.n {
		c := l.cur
		if k < l.n-1 {
			c = l.chunks[k][:]
		}
		at += copy(events[at:], c)
	}
}

// release returns the log's chunks to the pool.
func (l *stageLog) release() {
	for i, c := range l.chunks {
		chunkPool.Put(c)
		l.chunks[i] = nil
	}
	l.chunks, l.cur, l.n = l.chunks[:0], nil, 0
}
