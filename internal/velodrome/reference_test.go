package velodrome

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// refGraph builds the transactional happens-before graph with the
// checker's node and communication rules but keeps every edge it draws,
// duplicates included, as the checker did before it stored each
// (source, target) pair once. It is a test oracle: its nodes and edges
// have the checker's layout, so Violations runs on it unchanged.
type refGraph struct {
	opts  Options
	nodes []node
	edges []edge
	// pairs is the set of distinct (source, target) pairs among edges.
	pairs    map[[2]int32]bool
	current  map[trace.TID]int32 // open node +1
	depth    map[trace.TID]int
	lastNode map[trace.TID]int32 // last closed node +1
	release  map[uint64]int32
	volWrite map[uint64]int32
	chans    map[uint64]int32
	writer   map[uint64]int32
	readers  map[uint64][]int32
	blocks   int
}

func newRefGraph(opts Options) *refGraph {
	return &refGraph{
		opts: opts, pairs: map[[2]int32]bool{},
		current: map[trace.TID]int32{}, depth: map[trace.TID]int{}, lastNode: map[trace.TID]int32{},
		release: map[uint64]int32{}, volWrite: map[uint64]int32{}, chans: map[uint64]int32{},
		writer: map[uint64]int32{}, readers: map[uint64][]int32{},
	}
}

func (r *refGraph) addEdge(from, to int32) {
	if from == to {
		return
	}
	r.edges = append(r.edges, edge{to: to, next: r.nodes[from].edge})
	r.nodes[from].edge = int32(len(r.edges) - 1)
	r.pairs[[2]int32{from, to}] = true
}

func (r *refGraph) open(t trace.TID, idx int, inTx bool) int32 {
	if id := r.current[t]; id != 0 {
		return id - 1
	}
	id := int32(len(r.nodes))
	r.nodes = append(r.nodes, node{tid: t, start: idx, inTx: inTx, edge: -1})
	r.current[t] = id + 1
	if prev := r.lastNode[t]; prev != 0 {
		r.addEdge(prev-1, id)
	}
	return id
}

func (r *refGraph) close(t trace.TID) {
	if id := r.current[t]; id != 0 {
		r.lastNode[t] = id
		delete(r.current, t)
	}
}

func (r *refGraph) event(e trace.Event) {
	t := e.Tid
	switch {
	case e.Op == trace.OpAtomicBegin || (r.opts.MethodsAtomic && e.Op == trace.OpEnter):
		if r.depth[t] == 0 {
			r.close(t)
			r.open(t, e.Idx, true)
			r.blocks++
		}
		r.depth[t]++
		return
	case e.Op == trace.OpAtomicEnd || (r.opts.MethodsAtomic && e.Op == trace.OpExit):
		if r.depth[t] > 0 {
			if r.depth[t]--; r.depth[t] == 0 {
				r.close(t)
			}
		}
		return
	}
	id := r.open(t, e.Idx, false)
	from := func(prev int32) {
		if prev != 0 {
			r.addEdge(prev-1, id)
		}
	}
	switch e.Op {
	case trace.OpAcquire:
		from(r.release[e.Target])
	case trace.OpRelease, trace.OpWait:
		r.release[e.Target] = id + 1
	case trace.OpVolWrite:
		r.volWrite[e.Target] = id + 1
	case trace.OpVolRead:
		from(r.volWrite[e.Target])
	case trace.OpSend, trace.OpRecv, trace.OpClose:
		ch := trace.ChanID(e.Target)
		from(r.chans[ch])
		r.chans[ch] = id + 1
	case trace.OpFork:
		r.lastNode[trace.TID(e.Target)] = id + 1
	case trace.OpJoin:
		from(r.lastNode[trace.TID(e.Target)])
	case trace.OpRead:
		from(r.writer[e.Target])
		if rs := r.readers[e.Target]; !slices.Contains(rs, id) {
			r.readers[e.Target] = append(rs, id)
		}
	case trace.OpWrite:
		from(r.writer[e.Target])
		for _, rd := range r.readers[e.Target] {
			r.addEdge(rd, id)
		}
		delete(r.readers, e.Target)
		r.writer[e.Target] = id + 1
	case trace.OpEnd:
		r.close(t)
	}
	if !r.nodes[id].inTx {
		r.close(t)
	}
}

// edgePairs returns the distinct (source, target) pairs of c's graph and
// its edge count.
func edgePairs(c *Checker) (map[[2]int32]bool, int) {
	pairs := map[[2]int32]bool{}
	n := 0
	for from := range c.nodes {
		for i := c.nodes[from].edge; i != -1; i = c.edges[i].next {
			pairs[[2]int32{int32(from), c.edges[i].to}] = true
			n++
		}
	}
	return pairs, n
}

// diffReference holds a checker fed tr, once event by event and once in
// the runtime's batches, to the reference graph: the same violations and
// blocks, and exactly one edge per distinct pair the reference drew.
func diffReference(t *testing.T, label string, tr *trace.Trace, opts Options) (kept, drawn int) {
	t.Helper()
	ref := newRefGraph(opts)
	for _, e := range tr.Events {
		ref.event(e)
	}
	want := (&Checker{nodes: ref.nodes, edges: ref.edges}).Violations()

	perEvent, batched := New(opts), New(opts)
	for _, e := range tr.Events {
		perEvent.Event(e)
	}
	sched.FeedTrace(tr, batched)
	for _, c := range []*Checker{perEvent, batched} {
		if got := c.Violations(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: violations %v, reference %v", label, got, want)
		}
		if c.Blocks() != ref.blocks || len(c.nodes) != len(ref.nodes) {
			t.Fatalf("%s: %d blocks and %d nodes, reference %d and %d", label, c.Blocks(), len(c.nodes), ref.blocks, len(ref.nodes))
		}
		pairs, n := edgePairs(c)
		if n != len(c.edges) || n > len(ref.edges) || n != len(ref.pairs) || !reflect.DeepEqual(pairs, ref.pairs) {
			t.Fatalf("%s: %d edges over %d pairs; the reference drew %d edges over %d pairs", label, n, len(pairs), len(ref.edges), len(ref.pairs))
		}
	}
	return len(ref.pairs), len(ref.edges)
}

// manyThreads is a trace whose threads reach past the 64 that have a
// linked bit: transactions on threads 60-69 each read, twice over, the
// variables two writer nodes wrote, and then write them back.
func manyThreads() *trace.Trace {
	b := trace.NewBuilder()
	b.On(0).Begin()
	for t := trace.TID(1); t < 70; t++ {
		b.On(0).Fork(t)
		b.On(t).Begin()
	}
	b.On(1).AtomicBegin().Write(1).Write(2).AtomicEnd()
	b.On(2).AtomicBegin().Write(3).AtomicEnd()
	for round := 0; round < 2; round++ {
		for t := trace.TID(60); t < 70; t++ {
			if round == 0 {
				b.On(t).AtomicBegin()
			}
			b.On(t).Read(1).Read(3).Read(2)
		}
	}
	for t := trace.TID(60); t < 70; t++ {
		b.On(t).Write(1).Write(3).AtomicEnd()
	}
	for t := trace.TID(1); t < 70; t++ {
		b.On(t).End()
		b.On(0).Join(t)
	}
	b.On(0).End()
	return b.Trace()
}

// TestEdgeRuleMatchesReference: the checker's edge rule keeps exactly one
// edge per distinct (source, target) pair of the full graph and loses no
// violation, on every workload's battery at its default size, lufact and
// sor at eight times it, the generated programs of the harness's fused
// differential, and a trace with more than 64 threads.
func TestEdgeRuleMatchesReference(t *testing.T) {
	opts := Options{MethodsAtomic: true}
	battery := func(spec workloads.Spec, size int) {
		kept, drawn := 0, 0
		for _, strat := range sched.BatteryStrategies(4) {
			res, err := sched.Run(spec.New(0, size), sched.Options{Strategy: strat, RecordTrace: true})
			if err != nil {
				t.Fatalf("%s under %s: %v", spec.Name, strat.Name(), err)
			}
			k, d := diffReference(t, fmt.Sprintf("%s size %d under %s", spec.Name, size, strat.Name()), res.Trace, opts)
			kept, drawn = kept+k, drawn+d
		}
		t.Logf("%s size %d: %d of %d edges kept", spec.Name, size, kept, drawn)
	}
	for _, spec := range workloads.All() {
		battery(spec, spec.DefaultSize)
	}
	for _, name := range []string{"lufact", "sor"} {
		spec, _ := workloads.Get(name)
		battery(spec, 8*spec.DefaultSize)
	}
	for seed := int64(0); seed < 200; seed++ {
		cfg := gen.Config{Threads: 2 + int(seed%4), Vars: 3 + int(seed%3), OpsPerThread: 10 + int(seed%8)}
		res, err := sched.Run(gen.Program(seed, cfg), sched.Options{Strategy: sched.NewRandom(seed), RecordTrace: true})
		if err != nil {
			t.Fatalf("gen seed %d: %v", seed, err)
		}
		diffReference(t, fmt.Sprintf("gen seed %d", seed), res.Trace, opts)
		diffReference(t, fmt.Sprintf("gen seed %d (blocks only)", seed), res.Trace, Options{})
	}
	if kept, drawn := diffReference(t, "70 threads", manyThreads(), opts); kept == drawn {
		t.Fatalf("70 threads: no edge repeats (%d drawn), so the trace does not test the rule", drawn)
	}
}
