package tlb

import (
	"math/rand"
	"testing"
	"testing/quick"

	"itpsim/internal/arch"
	"itpsim/internal/replacement"
)

func TestNewPanicsOnBadSets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-power-of-two sets")
		}
	}()
	New("bad", 3, 4, NewLRU())
}

func TestLookupMissThenHit(t *testing.T) {
	tl := New("dtlb", 16, 4, NewLRU())
	va := arch.Addr(0x12345678)
	if _, _, hit := tl.Lookup(va, 0, arch.DataClass, 0); hit {
		t.Fatal("empty TLB should miss")
	}
	tl.Insert(va, 0x999, arch.PageBits4K, arch.DataClass, 0, 0)
	ppn, bits, hit := tl.Lookup(va, 0, arch.DataClass, 0)
	if !hit || ppn != 0x999 || bits != arch.PageBits4K {
		t.Fatalf("lookup = (%#x,%d,%v)", ppn, bits, hit)
	}
	// Same page, different offset: still hits.
	if _, _, hit := tl.Lookup(va+100, 0, arch.DataClass, 0); !hit {
		t.Error("same-page lookup should hit")
	}
	// Different page: misses.
	if _, _, hit := tl.Lookup(va+arch.PageSize4K, 0, arch.DataClass, 0); hit {
		t.Error("next-page lookup should miss")
	}
}

func TestHugePageEntries(t *testing.T) {
	tl := New("stlb", 16, 4, NewLRU())
	va := arch.Addr(0x40000000)
	tl.Insert(va, 0x77, arch.PageBits2M, arch.DataClass, 0, 0)
	// Anywhere within the 2MB page hits.
	ppn, bits, hit := tl.Lookup(va+1<<20, 0, arch.DataClass, 0)
	if !hit || ppn != 0x77 || bits != arch.PageBits2M {
		t.Fatalf("2MB lookup = (%#x,%d,%v)", ppn, bits, hit)
	}
	if _, _, hit := tl.Lookup(va+arch.PageSize2M, 0, arch.DataClass, 0); hit {
		t.Error("next 2MB page should miss")
	}
}

func TestThreadIsolation(t *testing.T) {
	tl := New("stlb", 16, 4, NewLRU())
	va := arch.Addr(0x1000)
	tl.Insert(va, 0x1, arch.PageBits4K, arch.DataClass, 0, 0)
	if _, _, hit := tl.Lookup(va, 0, arch.DataClass, 1); hit {
		t.Error("thread 1 should not hit thread 0's entry")
	}
	if _, _, hit := tl.Lookup(va, 0, arch.DataClass, 0); !hit {
		t.Error("thread 0 should hit")
	}
}

func TestDuplicateInsertIsTouch(t *testing.T) {
	tl := New("stlb", 2, 4, NewLRU())
	va := arch.Addr(0x1000)
	tl.Insert(va, 0x1, arch.PageBits4K, arch.DataClass, 0, 0)
	tl.Insert(va, 0x1, arch.PageBits4K, arch.DataClass, 0, 0)
	instr, data := tl.Occupancy()
	if instr+data != 1 {
		t.Errorf("duplicate insert created %d entries", instr+data)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	tl := New("t", 1, 4, NewLRU()) // one set, 4 ways
	// Insert 4 pages mapping to the same set.
	for i := 0; i < 4; i++ {
		tl.Insert(arch.Addr(i)<<arch.PageBits4K, uint64(i), arch.PageBits4K, arch.DataClass, 0, 0)
	}
	// Touch page 0 so page 1 is LRU.
	tl.Lookup(0, 0, arch.DataClass, 0)
	// Next insert evicts page 1.
	tl.Insert(arch.Addr(4)<<arch.PageBits4K, 4, arch.PageBits4K, arch.DataClass, 0, 0)
	if _, _, hit := tl.Lookup(arch.Addr(1)<<arch.PageBits4K, 0, arch.DataClass, 0); hit {
		t.Error("page 1 should have been evicted")
	}
	if _, _, hit := tl.Lookup(0, 0, arch.DataClass, 0); !hit {
		t.Error("page 0 should survive")
	}
}

func TestContainsDoesNotPromote(t *testing.T) {
	tl := New("t", 1, 2, NewLRU())
	tl.Insert(0, 0, arch.PageBits4K, arch.DataClass, 0, 0)
	tl.Insert(1<<arch.PageBits4K, 1, arch.PageBits4K, arch.DataClass, 0, 0)
	// Page 0 is LRU; Contains must not promote it.
	if !tl.Contains(0, 0) {
		t.Fatal("Contains should find page 0")
	}
	tl.Insert(2<<arch.PageBits4K, 2, arch.PageBits4K, arch.DataClass, 0, 0)
	if tl.Contains(0, 0) {
		t.Error("page 0 should have been evicted despite Contains probe")
	}
}

func TestFlush(t *testing.T) {
	tl := New("t", 4, 4, NewLRU())
	tl.Insert(0x1000, 1, arch.PageBits4K, arch.DataClass, 0, 0)
	tl.Flush()
	if tl.Contains(0x1000, 0) {
		t.Error("flush should invalidate entries")
	}
	i, d := tl.Occupancy()
	if i+d != 0 {
		t.Error("occupancy nonzero after flush")
	}
}

func TestOccupancyByClass(t *testing.T) {
	tl := New("t", 16, 4, NewLRU())
	tl.Insert(0x1000, 1, arch.PageBits4K, arch.InstrClass, 0, 0)
	tl.Insert(0x2000, 2, arch.PageBits4K, arch.DataClass, 0, 0)
	tl.Insert(0x3000, 3, arch.PageBits4K, arch.DataClass, 0, 0)
	i, d := tl.Occupancy()
	if i != 1 || d != 2 {
		t.Errorf("occupancy = (%d,%d), want (1,2)", i, d)
	}
}

func TestEntriesCount(t *testing.T) {
	tl := New("t", 128, 12, NewLRU())
	if tl.Entries() != 1536 {
		t.Errorf("Entries = %d, want 1536", tl.Entries())
	}
}

func TestSplitRouting(t *testing.T) {
	s := NewSplit(8, 4, NewLRU(), NewLRU())
	va := arch.Addr(0x5000)
	s.Insert(va, 0xA, arch.PageBits4K, arch.InstrClass, 0, 0)
	if _, _, hit := s.Lookup(va, 0, arch.DataClass, 0); hit {
		t.Error("data lookup should not see instruction-side entry")
	}
	if _, _, hit := s.Lookup(va, 0, arch.InstrClass, 0); !hit {
		t.Error("instruction lookup should hit")
	}
	if s.Entries() != 64 {
		t.Errorf("split entries = %d, want 64", s.Entries())
	}
}

// TestStackHelpersProperty drives a TLB's stack with arbitrary moves and
// checks every set keeps a permutation with each moved way where it was
// put.
func TestStackHelpersProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		tl := New("q", 2, 12, NewLRU())
		for _, op := range ops {
			si := int(op>>15) & 1
			way := int(op) % 12
			pos := int(op>>8) % 12
			tl.stack.Move(si, way, pos)
			if !tl.stack.IsPermutation(si) || tl.stack.Pos(si, way) != pos {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: under random insert/lookup traffic the TLB never stores two
// entries for the same (vpn,size,thread) and stacks stay permutations.
func TestTLBConsistencyUnderTraffic(t *testing.T) {
	tl := New("t", 8, 4, NewLRU())
	rng := rand.New(rand.NewSource(11))
	for op := 0; op < 20000; op++ {
		page := uint64(rng.Intn(64))
		va := arch.Addr(page) << arch.PageBits4K
		thread := uint8(rng.Intn(2))
		if rng.Intn(2) == 0 {
			tl.Insert(va, page, arch.PageBits4K, arch.Class(rng.Intn(2)), 0, thread)
		} else {
			tl.Lookup(va, 0, arch.DataClass, thread)
		}
	}
	type key struct {
		vpn    uint64
		bits   uint8
		thread uint8
	}
	seen := map[key]bool{}
	for si := range tl.sets {
		if !tl.stack.IsPermutation(si) {
			t.Fatalf("set %d stack invariant broken", si)
		}
		for _, e := range tl.sets[si] {
			if !e.Valid {
				continue
			}
			k := key{e.VPN, e.PageBits, e.Thread}
			if seen[k] {
				t.Fatalf("duplicate entry for %+v", k)
			}
			seen[k] = true
		}
	}
}

func TestCHiRPInsertionDependsOnConfidence(t *testing.T) {
	c := NewCHiRP(8)
	set, st := make([]Entry, 8), replacement.NewStack(1, 8)
	for i := range set {
		set[i].Valid = true
	}
	req := &Request{VPN: 42, Thread: 0}
	sig := c.signature(0, 42)

	c.table[sig] = chirpThreshold // confident
	c.OnFill(0, set, st, 3, req)
	if st.Pos(0, 3) != 0 {
		t.Errorf("confident fill at stack %d, want 0", st.Pos(0, 3))
	}

	c.table[sig] = 0 // dead signature
	c.OnFill(0, set, st, 5, req)
	if st.Pos(0, 5) != c.lowInsertPos {
		t.Errorf("dead fill at stack %d, want %d", st.Pos(0, 5), c.lowInsertPos)
	}
}

func TestCHiRPTraining(t *testing.T) {
	c := NewCHiRP(8)
	set, st := make([]Entry, 8), replacement.NewStack(1, 8)
	for i := range set {
		set[i].Valid = true
	}
	req := &Request{VPN: 7}
	c.OnFill(0, set, st, 0, req)
	sig := set[0].Sig
	before := c.table[sig]
	c.OnHit(0, set, st, 0, req)
	if c.table[sig] != before+1 {
		t.Error("hit should raise confidence")
	}
	c.OnHit(0, set, st, 0, req)
	if c.table[sig] != before+1 {
		t.Error("second hit on same residency should not retrain")
	}
	// Fill-then-evict with no reuse lowers confidence.
	c.OnFill(0, set, st, 1, req)
	sig1 := set[1].Sig
	mid := c.table[sig1]
	c.OnEvict(0, set, 1)
	if c.table[sig1] != mid-1 {
		t.Error("dead eviction should lower confidence")
	}
}

func TestCHiRPHistoryChangesSignature(t *testing.T) {
	c := NewCHiRP(8)
	s1 := c.signature(0, 42)
	c.Observe(0, 0x400000)
	c.Observe(0, 0x400100)
	s2 := c.signature(0, 42)
	if s1 == s2 {
		t.Error("history should alter the signature (hash collision unlikely)")
	}
}

func TestCHiRPCounterSaturation(t *testing.T) {
	c := NewCHiRP(8)
	set, st := make([]Entry, 8), replacement.NewStack(1, 8)
	set[0].Valid = true
	req := &Request{VPN: 9}
	for i := 0; i < 20; i++ {
		c.OnFill(0, set, st, 0, req)
		c.OnHit(0, set, st, 0, req)
	}
	if c.table[set[0].Sig] > chirpCtrMax {
		t.Error("counter exceeded max")
	}
	for i := 0; i < 20; i++ {
		c.OnFill(0, set, st, 0, req)
		c.OnEvict(0, set, 0)
	}
	if c.table[set[0].Sig] != 0 {
		t.Errorf("counter should saturate at 0, got %d", c.table[set[0].Sig])
	}
}

func TestSplitWithDistinctPolicies(t *testing.T) {
	// The split STLB can run different policies per side; verify the
	// instruction side's policy sees only instruction traffic.
	type countingPolicy struct {
		LRU
		fills int
	}
	pi := &countingPolicy{}
	pd := &countingPolicy{}
	// Wrap OnFill via embedding is not possible with value methods;
	// count through occupancy instead.
	s := NewSplit(4, 4, &pi.LRU, &pd.LRU)
	for i := 0; i < 8; i++ {
		s.Insert(arch.Addr(i)<<arch.PageBits4K, uint64(i), arch.PageBits4K, arch.InstrClass, 0, 0)
	}
	ii, id := s.side(arch.InstrClass).Occupancy()
	di, dd := s.side(arch.DataClass).Occupancy()
	if ii+id != 8 || di+dd != 0 {
		t.Errorf("instruction inserts leaked: instr side %d/%d, data side %d/%d", ii, id, di, dd)
	}
}
