package replacement

import "fmt"

// Stack is the exact recency order of every set of one structure, a TLB
// or a cache level: the substrate iTP and xPTP define their positions on
// (MRUpos−N, LRUpos+M, LRUpos+K). Position 0 is MRU and position ways−1
// is LRU. The whole structure's order lives in one flat slice,
// order[set*ways+pos] = way, so a move is a copy of at most ways−1 bytes
// and a victim scan walks up from the LRU end and stops at its first
// match.
type Stack struct {
	ways  int
	order []uint8
}

// NewStack returns the order of a structure with the given geometry,
// each set starting with way i at position i.
func NewStack(sets, ways int) *Stack {
	if sets <= 0 || ways <= 0 || ways > 256 {
		panic(fmt.Sprintf("replacement: stack of %d sets x %d ways: want sets > 0 and 1..256 ways", sets, ways))
	}
	s := &Stack{ways: ways, order: make([]uint8, sets*ways)}
	for w := 0; w < ways; w++ {
		s.order[w] = uint8(w)
	}
	for base := ways; base < len(s.order); base += ways {
		copy(s.order[base:base+ways], s.order[:ways])
	}
	return s
}

// Order returns set si's ways from MRU to LRU. Policies read it; only
// Move reorders it.
//
//itp:hotpath
func (s *Stack) Order(si int) []uint8 {
	base := si * s.ways
	return s.order[base : base+s.ways : base+s.ways]
}

// LRU returns the way at the bottom of set si's stack.
//
//itp:hotpath
func (s *Stack) LRU(si int) int { return int(s.order[(si+1)*s.ways-1]) }

// Pos returns way's position in set si's stack.
//
//itp:hotpath
func (s *Stack) Pos(si, way int) int {
	for p, w := range s.Order(si) {
		if int(w) == way {
			return p
		}
	}
	panic("replacement: way missing from its set's stack")
}

// Move repositions way to position pos of set si's stack, shifting the
// ways in between by one.
//
//itp:hotpath
func (s *Stack) Move(si, way, pos int) {
	o := s.Order(si)
	old := s.Pos(si, way)
	switch {
	case pos < old:
		copy(o[pos+1:old+1], o[pos:old])
	case pos > old:
		copy(o[old:pos], o[old+1:pos+1])
	default:
		return
	}
	o[pos] = uint8(way)
}

// IsPermutation reports whether set si's order holds every way exactly
// once, the invariant every stack-based policy assumes (audits check it).
func (s *Stack) IsPermutation(si int) bool {
	var seen [256]bool
	for _, w := range s.Order(si) {
		if int(w) >= s.ways || seen[w] {
			return false
		}
		seen[w] = true
	}
	return true
}
