package sched

import (
	"testing"

	"repro/internal/trace"
)

// TestCountObserverOther verifies out-of-range ops are counted in Other
// instead of silently dropped, so Total always equals sum(PerOp) + Other.
func TestCountObserverOther(t *testing.T) {
	var c CountObserver
	c.ObserveBatch([]trace.Event{
		{Op: trace.OpRead},
		{Op: trace.OpWrite},
		{Op: trace.Op(32)}, // first op past PerOp
		{Op: trace.Op(255)},
	})
	if c.Total != 4 {
		t.Fatalf("Total = %d, want 4", c.Total)
	}
	if c.PerOp[trace.OpRead] != 1 || c.PerOp[trace.OpWrite] != 1 {
		t.Fatalf("PerOp = %v", c.PerOp)
	}
	if c.Other != 2 {
		t.Fatalf("Other = %d, want 2", c.Other)
	}
	sum := c.Other
	for _, n := range c.PerOp {
		sum += n
	}
	if sum != c.Total {
		t.Fatalf("sum(PerOp)+Other = %d, Total = %d", sum, c.Total)
	}
}
