//go:build race

package sched

// raceEnabled reports whether the race detector is on. It allocates on
// its own, so allocation pins skip under it.
const raceEnabled = true
