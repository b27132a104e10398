package sched

import (
	"fmt"

	"repro/internal/dense"
	"repro/internal/obs/flight"
	"repro/internal/trace"
)

// conflictsDPOR is the cross-thread restriction of trace.Conflict: program
// order is not a scheduling choice, and fork/join orderings are enforced by
// runnability, so only data and lock conflicts justify backtracking.
func conflictsDPOR(a, b trace.Event) bool {
	return a.Tid != b.Tid && trace.Conflict(a, b)
}

// ExploreDPOR explores schedules like Explore but adds backtracking points
// only where the executed trace exhibits a cross-thread conflict — the
// heuristic at the heart of dynamic partial-order reduction (Flanagan &
// Godefroid, POPL 2005): reorderings of non-conflicting operations are
// equivalent, so only conflicting pairs justify a new schedule.
//
// For every event j, the two latest earlier events of each other thread
// that conflict with j each justify one flip: the explorer re-runs with a
// prefix that, at the decision point of such an event i, schedules j's
// thread instead. A flip is dropped when the current prefix froze i's
// decision, when j's thread was not runnable there, or when it would
// exceed MaxPreemptions; a flip the bound forbids is not moved to an
// earlier free switch point, as bounded partial-order reduction does
// (Coons, Musuvathi & McKinley, OOPSLA 2013). Every alternative case of
// every select decision is pushed as well.
//
// The search is therefore a bug-hunting heuristic, not a complete one.
// Every run it makes is a schedule within the bound, so it never reaches
// an outcome Explore misses, but under a preemption bound it can miss
// conflict-inequivalent outcomes that Explore reaches: on the digest's
// generated programs and the workloads at two threads it reached a strict
// subset of Explore's final states in 280 of 403 configurations at bounds
// 0-2 (ROADMAP item 7). It typically runs orders of magnitude fewer
// schedules than Explore.
//
// MaxPreemptions is interpreted as in Explore; fork/join/blocking-induced
// switches are free. Budgets, cancellation, and panic isolation behave as
// in Explore: the returned report says how far the reduced search got and
// why it stopped, and a crashing replay is visited as an *ExploreError.
func ExploreDPOR(p *Program, opts ExploreOptions) (*ExploreReport, error) {
	if opts.Visit == nil {
		return nil, fmt.Errorf("sched: ExploreOptions.Visit is required")
	}
	opts.RecordTrace = true // the conflict analysis below needs the trace
	var seen prefixSet
	var scan dporScan
	defer func() {
		mExploreDPORFrozen.Add(scan.frozen)
		mExploreDPORScanned.Add(scan.scanned)
	}()
	return exploreDFS(p, &opts, "explore-dpor",
		func(f frontier, res *Result, g *Guided, push func(frontier), ftrack *flight.Track) {
			pushed := 0
			seen.run(g)
			scan.expand(res, g.Points, f.pre, opts.MaxPreemptions, func(dp int, t trace.TID, n int) {
				if seen.add(dp, t) {
					push(frontier{g.prefixAt(dp, t), n})
					pushed++
				}
			})
			if ftrack != nil && pushed > 0 {
				ftrack.Instant(flight.CatSched, "backtrack", "", flight.A("pushed", int64(pushed)))
			}
		})
}

// dporScan is one ExploreDPOR search's backtrack scan, with the buffers it
// reuses across the search's runs.
//
// For each event j the scan needs, for each other thread, the two latest
// earlier events of that thread that conflict with j. Instead of testing
// every earlier event, it keeps each thread's events on backward chains by
// conflict key, and walks, for each other thread, only the chains that
// can hold a conflict with j (see plan), merged in descending order, until
// it has two. That is sound because of one property of trace.Conflict,
// which TestConflictIndexSound checks over every op pair: events of
// different threads conflict only when
//
//   - they share a key: the same plain variable, volatile, lock, or
//     channel id (and, for a variable or volatile, one of them writes);
//   - one is a select and the other a channel op;
//   - one is a fork or join that targets the other's thread;
//   - one is an invalid op.
//
// conflictsDPOR still filters what the chains yield, and the candidates of
// all threads are flipped in descending order, so the pushed prefixes and
// their order are exactly those of testing every pair.
type dporScan struct {
	// events is the run being expanded, and threads one more than its
	// largest thread id.
	events  []trace.Event
	threads int
	// decisionOf[e] is the recorded thread-pick point that scheduled event
	// e, or -1; it is set only for the events the scan walks.
	decisionOf []int32
	// links[via][e] is the previous event of e's thread on e's chain of
	// that kind, or -1: viaKey the keyed chain, viaChan the chain of
	// channel ops and selects, viaAll the chain of every event.
	links [numVias][]int32
	// heads[r*threads+t] is thread t's latest event on chain row r, or -1.
	// The fixed rows hold every event, the channel ops and selects, the
	// selects, and the invalid ops; rows[f] maps a key of family f to its
	// rows (two for variables and volatiles: reads, then writes), and
	// forkJoin[t] is the row of the forks and joins that target thread t,
	// or -1.
	heads    []int32
	rows     [numFamilies]dense.Table[int32]
	forkJoin []int32
	// cands collects one event's flip candidates.
	cands []int32
	// frozen and scanned count the events of the search's runs before and
	// from their frozen frontiers (see expand), for explore.dpor.*.
	frozen, scanned int64
}

// chainKind classifies an event by the chains it sits on and walks.
type chainKind uint8

const (
	chainNone     chainKind = iota // begin, end, yield, enter, exit, atomic begin/end
	chainRead                      // plain read; key: variable
	chainWrite                     // plain write; key: variable
	chainVolRead                   // volatile read; key: volatile
	chainVolWrite                  // volatile write; key: volatile
	chainLock                      // acquire, release, wait, notify; key: lock
	chainChan                      // send, recv, close; key: channel id
	chainSelect                    // select: conflicts with every channel op
	chainForkJoin                  // fork, join: key: target thread
	chainInvalid                   // conflicts with everything
)

// chainOf classifies an op. Ops trace.Conflict does not model are
// chainInvalid, which the scan treats as conflicting with everything.
func chainOf(op trace.Op) chainKind {
	switch op {
	case trace.OpBegin, trace.OpEnd, trace.OpYield, trace.OpEnter, trace.OpExit,
		trace.OpAtomicBegin, trace.OpAtomicEnd:
		return chainNone
	case trace.OpRead:
		return chainRead
	case trace.OpWrite:
		return chainWrite
	case trace.OpVolRead:
		return chainVolRead
	case trace.OpVolWrite:
		return chainVolWrite
	case trace.OpAcquire, trace.OpRelease, trace.OpWait, trace.OpNotify:
		return chainLock
	case trace.OpSend, trace.OpRecv, trace.OpClose:
		return chainChan
	case trace.OpSelect:
		return chainSelect
	case trace.OpFork, trace.OpJoin:
		return chainForkJoin
	}
	return chainInvalid
}

// Key families, the namespaces of keyed rows.
const (
	familyVar = iota
	familyVol
	familyLock
	familyChan
	numFamilies
)

// The fixed chain rows.
const (
	rowAll     = iota // every event, linked by viaAll
	rowChans          // channel ops and selects, linked by viaChan
	rowSelects        // selects
	rowInvalid        // invalid ops
	fixedRows
)

// The kinds of back link.
const (
	viaKey = iota
	viaChan
	viaAll
	numVias
)

// reset prepares the scan for a run's events, of which it links and walks
// only events[from:] (see expand).
func (s *dporScan) reset(events []trace.Event, from int) {
	n := len(events)
	s.events = events
	s.threads = 1
	for _, e := range events[from:] {
		s.threads = max(s.threads, int(e.Tid)+1)
	}
	if cap(s.decisionOf) < n {
		s.decisionOf = make([]int32, n)
		for v := range s.links {
			s.links[v] = make([]int32, n)
		}
	}
	s.decisionOf = s.decisionOf[:n]
	for v := range s.links {
		s.links[v] = s.links[v][:n]
	}
	for i := from; i < n; i++ {
		s.decisionOf[i] = -1
	}
	for f := range s.rows {
		s.rows[f].Clear()
	}
	s.heads = s.heads[:0]
	s.newRows(fixedRows)
	s.forkJoin = s.forkJoin[:0]
	for t := 0; t < s.threads; t++ {
		s.forkJoin = append(s.forkJoin, -1)
	}
}

// newRows appends n empty chain rows and returns the first.
func (s *dporScan) newRows(n int) int32 {
	r := len(s.heads) / s.threads
	for k := 0; k < n*s.threads; k++ {
		s.heads = append(s.heads, -1)
	}
	return int32(r)
}

// targetTID is the thread a fork or join targets, as trace.Conflict
// compares it, or -1 when no thread of the run has that id.
func (s *dporScan) targetTID(e trace.Event) int {
	if t := trace.TID(e.Target); t >= 0 && int(t) < s.threads {
		return int(t)
	}
	return -1
}

// rowsOf returns the first keyed row of e, making its rows on first use:
// for a variable or volatile, its reads' row, followed by its writes'; for
// a fork or join, the row of those that target its target thread. Other
// kinds, and forks and joins of a thread with no event in the run, have
// none; it returns -1.
func (s *dporScan) rowsOf(kind chainKind, e trace.Event) int32 {
	f, id, n := 0, e.Target, 1
	switch kind {
	case chainRead, chainWrite:
		f, n = familyVar, 2
	case chainVolRead, chainVolWrite:
		f, n = familyVol, 2
	case chainLock:
		f = familyLock
	case chainChan:
		f, id = familyChan, trace.ChanID(e.Target)
	case chainForkJoin:
		t := s.targetTID(e)
		if t < 0 {
			return -1
		}
		if s.forkJoin[t] < 0 {
			s.forkJoin[t] = s.newRows(1)
		}
		return s.forkJoin[t]
	default:
		return -1
	}
	r := s.rows[f].At(id)
	if *r == 0 { // a keyed row is never row 0, which is rowAll
		*r = s.newRows(n)
	}
	return *r
}

// link appends event j to its thread's chains, after j's own walk; rows is
// rowsOf(kind, j).
func (s *dporScan) link(e trace.Event, j int, kind chainKind, rows int32) {
	push := func(row int32, via int) {
		at := int(row)*s.threads + int(e.Tid)
		s.links[via][j], s.heads[at] = s.heads[at], int32(j)
	}
	push(rowAll, viaAll)
	switch kind {
	case chainRead, chainVolRead, chainLock, chainChan, chainForkJoin:
		if rows >= 0 {
			push(rows, viaKey)
		}
	case chainWrite, chainVolWrite:
		push(rows+1, viaKey)
	case chainSelect:
		push(rowSelects, viaKey)
	case chainInvalid:
		push(rowInvalid, viaKey)
	}
	if kind == chainChan || kind == chainSelect {
		push(rowChans, viaChan)
	}
}

// walkPlan is the set of chains, at most four, that a walk of one thread
// merges: rows and the links that follow them.
type walkPlan struct {
	row [4]int32
	via [4]uint8
	n   int
}

func (p *walkPlan) add(row int32, via uint8) {
	p.row[p.n], p.via[p.n] = row, via
	p.n++
}

// plan sets p to the chains that can hold an earlier event of another
// thread conflicting with event e (rows is rowsOf(kind, e)): the same-key
// chains (for a read, only the writes), the selects for a channel op,
// every channel op and select for a select, and, for every kind, the forks
// and joins that target e's thread and the invalid ops. For an invalid op
// it is every event. Like walk, it fills p in place.
func (s *dporScan) plan(p *walkPlan, e trace.Event, kind chainKind, rows int32) {
	p.n = 0
	switch kind {
	case chainInvalid:
		p.add(rowAll, viaAll)
		return
	case chainRead, chainVolRead:
		p.add(rows+1, viaKey)
	case chainWrite, chainVolWrite:
		p.add(rows+1, viaKey)
		p.add(rows, viaKey)
	case chainLock:
		p.add(rows, viaKey)
	case chainChan:
		p.add(rows, viaKey)
		p.add(rowSelects, viaKey)
	case chainSelect:
		p.add(rowChans, viaChan)
	}
	if r := s.forkJoin[e.Tid]; r >= 0 {
		p.add(r, viaKey)
	}
	p.add(rowInvalid, viaKey)
}

// chainWalk is a backward walk over one thread's chains of a plan,
// merged: peek returns the largest index left on any of them. For any one
// event the chains walked hold disjoint events, so no index comes back
// twice.
type chainWalk struct {
	at  [4]int32
	via [4]uint8
	n   int
}

// walk starts w as thread t's walk for event e, of e's plan p, except that
// a fork or join conflicts with every event of the thread it targets, whose
// whole chain it walks instead. It fills w in place: returning the walk by
// value cost more than the walks themselves.
func (s *dporScan) walk(w *chainWalk, p *walkPlan, e trace.Event, kind chainKind, t int) {
	if kind == chainForkJoin && t == s.targetTID(e) {
		w.at[0], w.via[0], w.n = s.heads[rowAll*s.threads+t], viaAll, 1
		return
	}
	w.via, w.n = p.via, p.n
	for c := 0; c < p.n; c++ {
		w.at[c] = s.heads[int(p.row[c])*s.threads+t]
	}
}

// peek returns the walk's largest remaining index and the chain it is on,
// or -1 when every chain is exhausted.
func (w *chainWalk) peek() (int32, int) {
	best, k := int32(-1), -1
	for c := 0; c < w.n; c++ {
		if w.at[c] > best {
			best, k = w.at[c], c
		}
	}
	return best, k
}

// advance moves chain k to its previous event.
func (w *chainWalk) advance(s *dporScan, k int) {
	w.at[k] = s.links[w.via[k]][w.at[k]]
}

// candidates returns, in descending order, the events a flip for event j
// considers: the two latest earlier events of each other thread that
// conflict with j.
func (s *dporScan) candidates(ej trace.Event, kind chainKind, rows int32) []int32 {
	cands := s.cands[:0]
	var p walkPlan
	s.plan(&p, ej, kind, rows)
	var w chainWalk
	for t := 0; t < s.threads; t++ {
		// A thread with no event linked yet has none on any chain.
		if t == int(ej.Tid) || s.heads[rowAll*s.threads+t] < 0 {
			continue
		}
		s.walk(&w, &p, ej, kind, t)
		for found := 0; found < 2; {
			i, k := w.peek()
			if i < 0 {
				break
			}
			if conflictsDPOR(s.events[i], ej) {
				cands = append(cands, i)
				found++
			}
			w.advance(s, k)
		}
	}
	// Descending order across threads: an insertion sort, since there
	// are at most two per thread.
	for a := 1; a < len(cands); a++ {
		for b := a; b > 0 && cands[b] > cands[b-1]; b-- {
			cands[b], cands[b-1] = cands[b-1], cands[b]
		}
	}
	s.cands = cands
	return cands
}

// flip returns the decision of event i, at which a flip schedules thread
// t instead, and the flipped prefix's preemptions, or dp = -1 when no
// recorded point scheduled i (the prefix froze its decision or Guided
// settled it as forced), t was not runnable there or already chosen, or
// the switch would exceed the preemption bound. used is the run's
// preemption count at every recorded point.
func (s *dporScan) flip(i int32, t trace.TID, points []ChoicePoint, used, maxPreemptions int) (dp, n int) {
	pi := s.decisionOf[i]
	if pi < 0 {
		return -1, 0
	}
	pt := &points[pi]
	if !containsTID(pt.Runnable, t) || t == pt.Chosen {
		return -1, 0
	}
	// Preemption budget: the flip costs one if the previously running
	// thread was still runnable.
	cost := 0
	if pt.Current >= 0 && containsTID(pt.Runnable, pt.Current) && t != pt.Current {
		cost = 1
	}
	if used+cost > maxPreemptions {
		return -1, 0
	}
	return int(pt.decision), used + cost
}

// flippable reports whether some flip at thread pick pt fits the bound: an
// alternative runnable thread, which, when the run has no preemption left,
// must cost none, so the thread pt found running must have blocked or
// ended. A recorded pick past the prefix keeps a runnable current thread,
// so every alternative to it costs one.
func flippable(pt *ChoicePoint, used, maxPreemptions int) bool {
	return len(pt.Runnable) > 1 && (used < maxPreemptions || !containsTID(pt.Runnable, pt.Current))
}

// expand offers the backtracking prefixes of one run, each as the decision
// dp it changes, the thread, or select case, t it decides there (the
// prefix is Guided.prefixAt(dp, t)) and the prefix's preemptions n: a flip
// at each recorded thread pick where a cross-thread conflict justifies
// one, then every alternative case of every recorded select decision.
// points are the run's recorded decisions and used its preemption count
// at each.
func (s *dporScan) expand(res *Result, points []ChoicePoint, used, maxPreemptions int, offer func(dp int, t trace.TID, n int)) {
	if res == nil || res.Trace == nil {
		return
	}
	events := res.Trace.Events

	// The frozen frontier is the event of the first recorded thread pick
	// at which some flip fits the bound. EventIdx never decreases along
	// points, so every earlier event's decision is frozen by the prefix,
	// forced (Guided settled it unrecorded), or recorded where no flip
	// fits. A flip for a conflicting pair happens at the earlier event's
	// decision, so no pair with an event before the frontier yields one;
	// and from the frontier on, each thread's two latest conflicting
	// events are those of the two latest overall that lie there. So only
	// events[from:] are linked and walked, and the offered prefixes and
	// their order do not change.
	from := len(events)
	for pi := range points {
		if pt := &points[pi]; !pt.Select && pt.EventIdx < len(events) && flippable(pt, used, maxPreemptions) {
			from = pt.EventIdx
			break
		}
	}
	s.frozen += int64(from)
	s.scanned += int64(len(events) - from)
	s.reset(events, from)

	// decisionOf[e] = index of the recorded point that scheduled event e
	// (the last thread-pick point whose EventIdx equals e). A decision
	// Guided settled without recording is the first at its EventIdx, so a
	// later recorded pick there still supersedes it. Select decisions are
	// skipped: their "runnable" sets hold case indices, not tids, so a
	// thread flip must target the pick that scheduled the selecting
	// thread, not the case decision stacked on top of it.
	for pi := range points {
		if pt := &points[pi]; !pt.Select && pt.EventIdx >= from && pt.EventIdx < len(events) {
			s.decisionOf[pt.EventIdx] = int32(pi)
		}
	}
	// For each event j, consider the latest earlier conflicting events
	// of each other thread: reversing such a pair is the only
	// reordering that can change behaviour locally. Two predecessors
	// per thread are considered, not one: a blocked lock acquisition
	// leaves no event, so the schedule where T1 takes a lock *before*
	// T0's critical section is reachable only by flipping at T0's
	// acquire, which hides behind T0's release in the observed trace.
	for j := from; j < len(events); j++ {
		ej := events[j]
		kind := chainOf(ej.Op)
		rows := s.rowsOf(kind, ej)
		for _, i := range s.candidates(ej, kind, rows) {
			if dp, n := s.flip(i, ej.Tid, points, used, maxPreemptions); dp >= 0 {
				offer(dp, ej.Tid, n)
			}
		}
		s.link(ej, j, kind, rows)
	}
	// Select nondeterminism is enumerated exhaustively — no reduction
	// is attempted over select commits, since the dependence relation
	// already treats a select as conflicting with every channel op.
	// Every alternative ready case of every recorded select decision is
	// pushed; a select branch never costs a preemption (Current is -1).
	for pi := len(points) - 1; pi >= 0; pi-- {
		pt := &points[pi]
		if !pt.Select || len(pt.Runnable) < 2 {
			continue
		}
		for _, alt := range pt.Runnable {
			if alt != pt.Chosen {
				offer(int(pt.decision), alt, used)
			}
		}
	}
}

// prefixSet is the set of prefixes an ExploreDPOR search has pushed, each
// keyed by two bytes per decision. key holds the current run's choices so
// encoded, so that testing an offer allocates nothing: the prefix that
// decides t at decision dp is key[:2*dp] followed by t's bytes, which add
// writes into key in place and then restores. Only a new prefix's key is
// copied into a string.
type prefixSet struct {
	seen map[string]bool
	key  []byte
}

// run encodes the decisions of the run whose offers follow: g's prefix,
// then its path.
func (s *prefixSet) run(g *Guided) {
	s.key = s.key[:0]
	for _, steps := range [2][]trace.TID{g.Prefix, g.path} {
		for _, c := range steps {
			s.key = append(s.key, byte(c), byte(c>>8))
		}
	}
}

// add adds g.prefixAt(dp, t), for the g of the last run call, and reports
// whether it is new.
func (s *prefixSet) add(dp int, t trace.TID) bool {
	k := s.key[:2*dp+2]
	c0, c1 := k[2*dp], k[2*dp+1]
	k[2*dp], k[2*dp+1] = byte(t), byte(t>>8)
	dup := s.seen[string(k)]
	if !dup {
		if s.seen == nil {
			s.seen = make(map[string]bool)
		}
		s.seen[string(k)] = true
	}
	k[2*dp], k[2*dp+1] = c0, c1
	return !dup
}
