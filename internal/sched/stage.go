package sched

import (
	"sync"

	"repro/internal/trace"
)

// chunkEvents is the capacity of a pooled staging chunk, 128 KiB of
// trace.Event: the default observer batch, so a chunk holds one.
const chunkEvents = DefaultBatchSize

// chunkPool holds staging chunks between runtimes, process-wide: a Runtime
// takes chunks from it as its runs need them and returns them on close, so
// back-to-back Runs record into the same few chunks instead of each growing
// a trace of its own. It fills lazily, never at package init.
var chunkPool sync.Pool // of *[chunkEvents]trace.Event

// stageLog is where a run records its events: each event is written once,
// into fixed-size chunks that the log keeps across its Runtime's runs, so
// a run never regrows an array. Observers are handed windows of the chunks
// as their batches, and when the run ends its Result's schedule and trace
// are copied out at their exact length (fill).
type stageLog struct {
	// cur is the chunk being filled, capped at usable; done counts the
	// events in the run's earlier chunks, which hold usable events each.
	cur  []trace.Event
	done int
	// flushed is the length of cur's prefix already delivered to observers.
	flushed int
	// batch is the observers' batch size, 0 when the run has none, and
	// usable the number of events a chunk takes: its capacity rounded down
	// to a whole number of batches, so that no batch spans two chunks.
	batch, usable int
	// chunks holds the log's chunks at full length: the run's first n, the
	// last of which cur windows, then spares kept from earlier runs.
	chunks [][]trace.Event
	n      int
}

// reset empties the log for a run whose observers take batches of batch
// events (0: no observers), keeping its chunks unless they were sized for
// another batch size.
func (l *stageLog) reset(batch int) {
	if batch != l.batch {
		l.release()
	}
	size := max(chunkEvents, batch)
	l.usable = size
	if batch > 0 {
		l.usable -= size % batch
	}
	l.cur, l.done, l.flushed, l.batch, l.n = nil, 0, 0, batch, 0
}

// len returns the number of events the run has recorded.
func (l *stageLog) len() int { return l.done + len(l.cur) }

// next makes room in cur for one more event: the run moves on to its next
// chunk — one kept from an earlier run, a pooled chunk, or a new one. Every
// batch of the full chunk has been delivered, since usable is a whole
// number of batches.
func (l *stageLog) next() {
	l.done += len(l.cur)
	l.flushed = 0
	if l.n == len(l.chunks) {
		l.chunks = append(l.chunks, l.take())
	}
	c := l.chunks[l.n]
	l.n++
	l.cur = c[:0:l.usable]
}

// take returns a pooled chunk, or a new one when the pool is empty or the
// run's batches are longer than a pooled chunk.
func (l *stageLog) take() []trace.Event {
	if l.batch <= chunkEvents {
		if c, ok := chunkPool.Get().(*[chunkEvents]trace.Event); ok {
			return c[:]
		}
	}
	return make([]trace.Event, max(chunkEvents, l.batch))
}

// fill copies the run's events into schedule, by thread id, and into
// events when it is non-nil; both have the log's length.
func (l *stageLog) fill(schedule []trace.TID, events []trace.Event) {
	at := 0
	for k := range l.n {
		c := l.cur
		if k < l.n-1 {
			c = l.chunks[k][:l.usable]
		}
		for i := range c {
			schedule[at+i] = c[i].Tid
		}
		if events != nil {
			copy(events[at:], c)
		}
		at += len(c)
	}
}

// release returns the log's pool-sized chunks to the pool and forgets the
// larger ones.
func (l *stageLog) release() {
	for i, c := range l.chunks {
		if len(c) == chunkEvents {
			chunkPool.Put((*[chunkEvents]trace.Event)(c))
		}
		l.chunks[i] = nil
	}
	l.chunks, l.cur, l.n = l.chunks[:0], nil, 0
}
