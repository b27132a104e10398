package dense

import "testing"

func TestAtAndProbe(t *testing.T) {
	var tb Table[int]
	if tb.Probe(5) != nil {
		t.Fatal("Probe on empty table should be nil")
	}
	*tb.At(5) = 42
	if p := tb.Probe(5); p == nil || *p != 42 {
		t.Fatalf("Probe(5) = %v, want 42", p)
	}
	// Same page, different slot: materialized but zero.
	if p := tb.Probe(6); p == nil || *p != 0 {
		t.Fatalf("Probe(6) = %v, want zero slot", p)
	}
	// Different page: not materialized.
	if tb.Probe(PageSize*3) != nil {
		t.Fatal("unmaterialized page should Probe nil")
	}
}

func TestPointerStability(t *testing.T) {
	var tb Table[int]
	p := tb.At(0)
	*p = 7
	// Force the page directory to grow several times.
	for k := uint64(1); k < 40*PageSize; k += PageSize {
		*tb.At(k) = int(k)
	}
	if *p != 7 || tb.Probe(0) != p {
		t.Fatal("slot pointer moved when the directory grew")
	}
}

func TestOverflowKeys(t *testing.T) {
	var tb Table[int]
	huge := uint64(1)<<32 + 100 // volatile-style offset id
	*tb.At(huge) = 9
	if p := tb.Probe(huge); p == nil || *p != 9 {
		t.Fatalf("overflow Probe = %v, want 9", p)
	}
	if tb.Probe(huge+1) != nil {
		t.Fatal("absent overflow key should Probe nil")
	}
	if tb.At(huge) != tb.Probe(huge) {
		t.Fatal("overflow slots must be stable")
	}
}

func TestBoundaryAroundMaxDense(t *testing.T) {
	var tb Table[int]
	for _, k := range []uint64{MaxDense - 1, MaxDense, MaxDense + 1} {
		*tb.At(k) = int(k % 97)
	}
	for _, k := range []uint64{MaxDense - 1, MaxDense, MaxDense + 1} {
		if p := tb.Probe(k); p == nil || *p != int(k%97) {
			t.Fatalf("boundary key %d lost", k)
		}
	}
}

func TestClearKeepsPages(t *testing.T) {
	var tb Table[int]
	*tb.At(3) = 1
	*tb.At(300) = 2 // on the second page, the largest key At returned
	huge := uint64(1)<<32 + 5
	*tb.At(huge) = 3
	p := tb.Probe(3)
	if pages, overflow := tb.Footprint(); pages != 2 || overflow != 1 {
		t.Fatalf("Footprint = %d pages, %d overflow; want 2, 1", pages, overflow)
	}
	tb.Clear()
	if *tb.Probe(3) != 0 || *tb.Probe(300) != 0 || tb.Probe(huge) != nil {
		t.Fatal("Clear left a value behind")
	}
	if tb.At(3) != p {
		t.Fatal("Clear dropped a page")
	}
	if pages, overflow := tb.Footprint(); pages != 2 || overflow != 0 {
		t.Fatalf("after Clear, Footprint = %d pages, %d overflow; want 2, 0", pages, overflow)
	}
	for k := uint64(0); k < 2*PageSize; k++ {
		if *tb.Probe(k) != 0 {
			t.Fatalf("slot %d is non-zero after Clear", k)
		}
	}
	var empty Table[int]
	empty.Clear()
	if empty.Probe(0) != nil {
		t.Fatal("Clear materialized a page")
	}
}
