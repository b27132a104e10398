// Package dense provides paged, allocation-lean lookup tables keyed by the
// small, near-dense integer ids the analysis observers use (variable ids,
// lock ids, thread ids). A Table replaces a map on per-event hot paths: a
// lookup is two array indexings, slots materialize zeroed one page at a
// time, and outlier keys (e.g. volatile ids offset by 1<<32 in the virtual
// runtime's target encoding) transparently fall back to a map, so
// correctness never depends on the keys actually being dense.
//
// The zero Table is empty and ready to use. A Table's slots are stable:
// pointers returned by At and Probe remain valid across later calls (pages
// are never moved, only the page directory grows).
package dense

const (
	pageBits = 8
	// PageSize is the number of slots materialized per page.
	PageSize = 1 << pageBits
	pageMask = PageSize - 1
	// MaxDense bounds the directly-indexed key space. Keys at or above it
	// (sparse outliers) are stored in the overflow map instead of forcing
	// a huge page directory.
	MaxDense = 1 << 21
)

// Table is a paged array from uint64 keys to values of type T. The zero
// value of T means "absent"; callers whose zero value is meaningful embed
// their own presence flag.
type Table[T any] struct {
	pages    [][]T
	overflow map[uint64]*T
	// used is one more than the largest paged key At has returned since
	// the last Clear, or 0: every paged slot from it on is zero.
	used uint64
}

// At returns a stable pointer to key's slot, materializing it zeroed if
// needed. Every write to a slot must go through a pointer At returned:
// Clear zeroes only the slots below the largest key At has returned.
func (t *Table[T]) At(key uint64) *T {
	if key < MaxDense {
		if key >= t.used {
			t.used = key + 1
		}
		pi := int(key >> pageBits)
		if pi >= len(t.pages) {
			pages := make([][]T, pi+1, 2*(pi+1))
			copy(pages, t.pages)
			t.pages = pages
		}
		p := t.pages[pi]
		if p == nil {
			p = make([]T, PageSize)
			t.pages[pi] = p
		}
		return &p[key&pageMask]
	}
	if t.overflow == nil {
		t.overflow = make(map[uint64]*T)
	}
	v := t.overflow[key]
	if v == nil {
		v = new(T)
		t.overflow[key] = v
	}
	return v
}

// Probe returns a stable pointer to key's slot, or nil when the slot was
// never materialized. It never allocates. The slot is for reading; write
// through At.
func (t *Table[T]) Probe(key uint64) *T {
	if key < MaxDense {
		pi := int(key >> pageBits)
		if pi >= len(t.pages) || t.pages[pi] == nil {
			return nil
		}
		return &t.pages[pi][key&pageMask]
	}
	return t.overflow[key]
}

// Clear empties the table for reuse without giving its memory back: it
// keeps the pages, zeroes their slots below the largest key At has
// returned since the last Clear (the rest are still zero), and empties the
// overflow map, so every key reads as absent again and a later At
// allocates nothing on a kept page. Its cost is that key plus the overflow
// keys, however large the table has grown.
func (t *Table[T]) Clear() {
	for base := uint64(0); base < t.used; base += PageSize {
		if p := t.pages[base>>pageBits]; p != nil {
			clear(p[:min(PageSize, t.used-base)])
		}
	}
	t.used = 0
	clear(t.overflow)
}

// Footprint returns the number of pages in the page directory and the
// number of overflow keys: the memory the table keeps.
func (t *Table[T]) Footprint() (pages, overflow int) {
	return len(t.pages), len(t.overflow)
}
