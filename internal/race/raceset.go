package race

// raceSet is an open-addressed hash set deduplicating race reports on the
// detector's report path, following the same design as the cooperability
// checker's violation set (core/vioset.go): keys are packed into a few
// machine words stored inline, so membership tests allocate nothing and the
// set costs a single backing array even across detector re-creation in the
// per-trace harness pattern.
type raceSet struct {
	entries []raceEntry
	n       int
}

// raceEntry is one packed key. kd packs the race kind and the detecting
// access's op; since reports only arise from read/write events (op 2 or 3),
// kd is never zero for a live entry, so kd == 0 marks an empty slot.
type raceEntry struct {
	v, tids, locs, kd uint64
}

// packRaceKey flattens the dedup identity of a race: variable, ordered
// thread pair, both source locations, kind, and detecting op.
func packRaceKey(r Race) (v, tids, locs, kd uint64) {
	v = r.Var
	tids = uint64(uint32(r.Access.Tid))<<32 | uint64(uint32(r.PrevTid))
	locs = uint64(uint32(r.Access.Loc))<<32 | uint64(uint32(r.PrevLoc))
	kd = uint64(r.Kind)<<8 | uint64(r.Access.Op)
	return
}

func raceHash(v, tids, locs, kd uint64) uint64 {
	// splitmix64-style mixing across all four words.
	x := v*0x9E3779B97F4A7C15 + tids
	x ^= x >> 30
	x = x*0xBF58476D1CE4E5B9 + locs
	x ^= x >> 27
	x = x*0x94D049BB133111EB + kd
	x ^= x >> 31
	return x
}

// Add inserts r's key and reports whether it was absent (newly added).
func (s *raceSet) Add(r Race) bool {
	if s.n*4 >= len(s.entries)*3 {
		s.grow()
	}
	v, tids, locs, kd := packRaceKey(r)
	mask := uint64(len(s.entries) - 1)
	i := raceHash(v, tids, locs, kd) & mask
	for s.entries[i].kd != 0 {
		e := &s.entries[i]
		if e.v == v && e.tids == tids && e.locs == locs && e.kd == kd {
			return false
		}
		i = (i + 1) & mask
	}
	s.entries[i] = raceEntry{v: v, tids: tids, locs: locs, kd: kd}
	s.n++
	return true
}

// reset empties the set, keeping its backing array.
func (s *raceSet) reset() {
	clear(s.entries)
	s.n = 0
}

// Len returns the number of distinct keys added.
func (s *raceSet) Len() int { return s.n }

func (s *raceSet) grow() {
	old := s.entries
	size := 16
	if len(old) > 0 {
		size = len(old) * 2
	}
	s.entries = make([]raceEntry, size)
	mask := uint64(size - 1)
	for _, e := range old {
		if e.kd == 0 {
			continue
		}
		i := raceHash(e.v, e.tids, e.locs, e.kd) & mask
		for s.entries[i].kd != 0 {
			i = (i + 1) & mask
		}
		s.entries[i] = e
	}
}
