// Package tlb implements the TLB hierarchy structures: set-associative
// TLBs with exact recency stacks (the substrate iTP's insertion and
// promotion rules are defined on), multi-page-size lookup, the unified
// and split STLB organisations of Section 6.6, and the TLB-side baseline
// policies LRU and CHiRP.
package tlb

import (
	"fmt"

	"itpsim/internal/arch"
	"itpsim/internal/replacement"
)

// Entry is one TLB entry plus the metadata iTP adds: the Type bit
// (Class) and the saturating Freq counter (Section 4.1.3's 4 extra bits).
type Entry struct {
	Valid    bool
	VPN      uint64 // virtual page number (in units of its own page size)
	PPN      uint64 // physical page number
	PageBits uint8  // arch.PageBits4K or arch.PageBits2M
	Class    arch.Class
	Thread   uint8

	// Policy state. The recency order is not per entry: the TLB owns
	// one replacement.Stack for all its sets.
	Freq   uint8 // iTP frequency counter
	Sig    uint16
	Reused bool
}

// Request carries the context a policy sees on insertion/promotion.
type Request struct {
	VPN      uint64
	PC       uint64
	Class    arch.Class
	Thread   uint8
	PageBits uint8
}

// Policy decides TLB victims and stack movement, mirroring the cache-side
// replacement.Policy shape: stack is the TLB's recency order, the TLB
// fills the deepest invalid way of a set itself, and Victim runs only on
// a full set.
type Policy interface {
	Name() string
	//itp:hotpath
	Victim(setIdx int, set []Entry, stack *replacement.Stack, req *Request) int
	//itp:hotpath
	OnFill(setIdx int, set []Entry, stack *replacement.Stack, way int, req *Request)
	//itp:hotpath
	OnHit(setIdx int, set []Entry, stack *replacement.Stack, way int, req *Request)
	//itp:hotpath
	OnEvict(setIdx int, set []Entry, way int)
}

// Store is the lookup/insert interface shared by unified and split STLBs
// (and the first-level TLBs).
type Store interface {
	// Lookup searches for the translation of vaddr. On a hit it returns
	// the physical page number and the entry's page size.
	//itp:hotpath
	Lookup(vaddr arch.Addr, pc uint64, class arch.Class, thread uint8) (ppn uint64, pageBits uint8, hit bool)
	// Insert installs a translation after a fill.
	//itp:hotpath
	Insert(vaddr arch.Addr, ppn uint64, pageBits uint8, class arch.Class, pc uint64, thread uint8)
	// Entries returns total capacity.
	Entries() int
}

// TLB is a set-associative translation lookaside buffer supporting mixed
// 4KB and 2MB entries (both sizes index with their own VPN bits).
type TLB struct {
	name    string
	sets    [][]Entry
	stack   *replacement.Stack
	setMask uint64
	policy  Policy

	// req is the scratch request record Lookup/Insert hand to the policy.
	// Policies receive it by pointer through the Policy interface — which
	// would heap-allocate a stack local on every access — and never retain
	// it past the call, so one per-TLB scratch makes the hot path
	// allocation-free.
	req Request
}

// New creates a TLB with the given geometry and replacement policy.
func New(name string, nsets, ways int, policy Policy) *TLB {
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("tlb %s: sets must be a positive power of two, got %d", name, nsets))
	}
	t := &TLB{
		name:    name,
		sets:    make([][]Entry, nsets),
		stack:   replacement.NewStack(nsets, ways),
		setMask: uint64(nsets - 1),
		policy:  policy,
	}
	for i := range t.sets {
		t.sets[i] = make([]Entry, ways)
	}
	return t
}

// Name returns the TLB's name.
func (t *TLB) Name() string { return t.name }

// Entries implements Store.
func (t *TLB) Entries() int { return len(t.sets) * len(t.sets[0]) }

// Policy returns the replacement policy in use.
func (t *TLB) Policy() Policy { return t.policy }

// Stack returns the recency order of all sets (audits and tests).
func (t *TLB) Stack() *replacement.Stack { return t.stack }

// setFor returns the set index for a VPN.
//
//itp:hotpath
func (t *TLB) setFor(vpn uint64) int { return int(vpn & t.setMask) }

// lookupSize probes one page size. Returns (way, setIdx, found).
//
//itp:hotpath
func (t *TLB) lookupSize(vaddr arch.Addr, pageBits uint8, thread uint8) (int, int) {
	vpn := vaddr >> pageBits
	si := t.setFor(vpn)
	set := t.sets[si]
	for w := range set {
		// VPN first: it is the most discriminating field, so the common
		// non-matching way falls out after one compare.
		if set[w].VPN == vpn && set[w].Valid && set[w].PageBits == pageBits && set[w].Thread == thread {
			return si, w
		}
	}
	return si, -1
}

// Lookup implements Store. A hit triggers the policy's promotion rule.
//
//itp:hotpath
func (t *TLB) Lookup(vaddr arch.Addr, pc uint64, class arch.Class, thread uint8) (uint64, uint8, bool) {
	for _, pageBits := range [2]uint8{arch.PageBits4K, arch.PageBits2M} {
		si, w := t.lookupSize(vaddr, pageBits, thread)
		if w < 0 {
			continue
		}
		set := t.sets[si]
		req := &t.req
		*req = Request{VPN: set[w].VPN, PC: pc, Class: class, Thread: thread, PageBits: pageBits}
		t.policy.OnHit(si, set, t.stack, w, req)
		return set[w].PPN, pageBits, true
	}
	return 0, 0, false
}

// Contains reports whether the translation is present without touching
// replacement state (used by tests and the FDIP probe path).
//
//itp:hotpath
func (t *TLB) Contains(vaddr arch.Addr, thread uint8) bool {
	_, _, _, ok := t.Peek(vaddr, thread)
	return ok
}

// Peek returns the translation without updating replacement state.
//
//itp:hotpath
func (t *TLB) Peek(vaddr arch.Addr, thread uint8) (ppn uint64, pageBits uint8, class arch.Class, ok bool) {
	for _, bits := range [2]uint8{arch.PageBits4K, arch.PageBits2M} {
		if si, w := t.lookupSize(vaddr, bits, thread); w >= 0 {
			e := &t.sets[si][w]
			return e.PPN, e.PageBits, e.Class, true
		}
	}
	return 0, 0, 0, false
}

// Insert implements Store: take the deepest invalid way of the set, or
// victimise per policy when it is full, write the entry, then apply the
// policy's insertion rule.
//
//itp:hotpath
func (t *TLB) Insert(vaddr arch.Addr, ppn uint64, pageBits uint8, class arch.Class, pc uint64, thread uint8) {
	vpn := vaddr >> pageBits
	si := t.setFor(vpn)
	set := t.sets[si]
	req := &t.req
	*req = Request{VPN: vpn, PC: pc, Class: class, Thread: thread, PageBits: pageBits}
	// Refuse duplicate inserts (a second walk for the same page may have
	// completed first); treat as a touch instead.
	if _, w := t.lookupSize(vaddr, pageBits, thread); w >= 0 {
		t.policy.OnHit(si, set, t.stack, w, req)
		return
	}
	w := -1
	order := t.stack.Order(si)
	for pos := len(order) - 1; pos >= 0; pos-- {
		if v := int(order[pos]); !set[v].Valid {
			w = v
			break
		}
	}
	if w < 0 {
		w = t.policy.Victim(si, set, t.stack, req)
		t.policy.OnEvict(si, set, w)
	}
	set[w] = Entry{
		Valid:    true,
		VPN:      vpn,
		PPN:      ppn,
		PageBits: pageBits,
		Class:    class,
		Thread:   thread,
	}
	t.policy.OnFill(si, set, t.stack, w, req)
}

// Flush invalidates all entries; the recency order is kept.
func (t *TLB) Flush() {
	for si := range t.sets {
		for w := range t.sets[si] {
			t.sets[si][w].Valid = false
		}
	}
}

// Occupancy returns how many valid entries hold each class (test/debug aid).
func (t *TLB) Occupancy() (instr, data int) {
	for si := range t.sets {
		for w := range t.sets[si] {
			if !t.sets[si][w].Valid {
				continue
			}
			if t.sets[si][w].Class == arch.InstrClass {
				instr++
			} else {
				data++
			}
		}
	}
	return
}

// Split is the split-STLB organisation of Section 6.6: separate
// structures for instruction and data translations, each half-sized.
type Split struct {
	instr *TLB
	data  *TLB
}

// NewSplit builds a split STLB; each side gets nsets sets of the given
// associativity.
func NewSplit(nsets, ways int, instrPolicy, dataPolicy Policy) *Split {
	return &Split{
		instr: New("STLB-I", nsets, ways, instrPolicy),
		data:  New("STLB-D", nsets, ways, dataPolicy),
	}
}

// Lookup implements Store, routing by class.
//
//itp:hotpath
func (s *Split) Lookup(vaddr arch.Addr, pc uint64, class arch.Class, thread uint8) (uint64, uint8, bool) {
	return s.side(class).Lookup(vaddr, pc, class, thread)
}

// Insert implements Store.
//
//itp:hotpath
func (s *Split) Insert(vaddr arch.Addr, ppn uint64, pageBits uint8, class arch.Class, pc uint64, thread uint8) {
	s.side(class).Insert(vaddr, ppn, pageBits, class, pc, thread)
}

// Entries implements Store.
func (s *Split) Entries() int { return s.instr.Entries() + s.data.Entries() }

//itp:hotpath
func (s *Split) side(class arch.Class) *TLB {
	if class == arch.InstrClass {
		return s.instr
	}
	return s.data
}
