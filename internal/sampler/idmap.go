package sampler

import "salient/internal/flathash"

// localMapper assigns consecutive local IDs to global node IDs in discovery
// order. Implementations differ only in the lookup structure — exactly the
// first design axis of the paper's sampler study.
type localMapper interface {
	// GetOrAssign returns the local ID for global, assigning the next free
	// local ID if global is new.
	GetOrAssign(global int32) int32
	// Len returns the number of assigned IDs.
	Len() int32
	// Reset prepares the mapper for a new mini-batch, pre-sizing for
	// expected entries where the implementation supports it.
	Reset(expected int)
}

// stdMapper wraps the built-in Go map, standing in for the C++ STL
// unordered_map of the PyG baseline.
type stdMapper struct {
	m    map[int32]int32
	next int32
}

func (s *stdMapper) GetOrAssign(global int32) int32 {
	if l, ok := s.m[global]; ok {
		return l
	}
	l := s.next
	s.m[global] = l
	s.next++
	return l
}

func (s *stdMapper) Len() int32 { return s.next }

func (s *stdMapper) Reset(expected int) {
	// The baseline gets a fresh mapper, and so a fresh table, per batch;
	// pooled reuse clears the table in place.
	if s.m == nil {
		s.m = make(map[int32]int32, expected)
	}
	clear(s.m)
	s.next = 0
}

// flatMapper uses the swiss-table flat map.
type flatMapper struct {
	m       *flathash.Map
	next    int32
	presize bool
}

func (f *flatMapper) GetOrAssign(global int32) int32 {
	l, added := f.m.GetOrInsert(global, f.next)
	if added {
		f.next++
	}
	return l
}

func (f *flatMapper) Len() int32 { return f.next }

func (f *flatMapper) Reset(expected int) {
	hint := 64
	if f.presize {
		hint = expected
	}
	if f.m == nil {
		f.m = flathash.NewMap(hint)
	} else {
		f.m.Reset()
	}
	f.next = 0
}

// directMapper is a dense array indexed by global node ID with generation
// tags, so Reset is O(1). It trades memory proportional to |V| for O(1)
// un-hashed lookups — the extreme point of the design space.
type directMapper struct {
	local []int32
	gen   []uint32
	cur   uint32
	next  int32
	n     int32
}

func newDirectMapper(numNodes int32) *directMapper {
	return &directMapper{
		local: make([]int32, numNodes),
		gen:   make([]uint32, numNodes),
		cur:   0,
		n:     numNodes,
	}
}

func (d *directMapper) GetOrAssign(global int32) int32 {
	if d.gen[global] == d.cur {
		return d.local[global]
	}
	l := d.next
	d.gen[global] = d.cur
	d.local[global] = l
	d.next++
	return l
}

func (d *directMapper) Len() int32 { return d.next }

func (d *directMapper) Reset(expected int) {
	d.cur++
	if d.cur == 0 { // generation counter wrapped: clear tags once
		for i := range d.gen {
			d.gen[i] = 0
		}
		d.cur = 1
	}
	d.next = 0
}
