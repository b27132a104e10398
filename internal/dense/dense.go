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

import "sort"

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
}

// At returns a stable pointer to key's slot, materializing it zeroed if
// needed.
func (t *Table[T]) At(key uint64) *T {
	if key < MaxDense {
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
// never materialized. It never allocates.
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
// keeps the pages, zeroes their slots, and empties the overflow map, so
// every key reads as absent again and a later At allocates nothing on a
// kept page. Its cost is the table's Footprint, however few slots the last
// use touched; a caller that reuses a table for many small inputs should
// drop it once it has grown large.
func (t *Table[T]) Clear() {
	for _, p := range t.pages {
		clear(p)
	}
	clear(t.overflow)
}

// Footprint returns the number of pages in the page directory and the
// number of overflow keys: the work Clear does.
func (t *Table[T]) Footprint() (pages, overflow int) {
	return len(t.pages), len(t.overflow)
}

// Range calls f for every materialized slot in ascending key order (paged
// keys first, then overflow keys, which are all larger by construction).
// Zero-valued slots of materialized pages are included; callers filter by
// their own presence convention.
func (t *Table[T]) Range(f func(key uint64, v *T)) {
	for pi, p := range t.pages {
		if p == nil {
			continue
		}
		base := uint64(pi) << pageBits
		for i := range p {
			f(base+uint64(i), &p[i])
		}
	}
	if len(t.overflow) > 0 {
		keys := make([]uint64, 0, len(t.overflow))
		for k := range t.overflow {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			f(k, t.overflow[k])
		}
	}
}
