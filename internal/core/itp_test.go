package core

import (
	"testing"

	"itpsim/internal/arch"
	"itpsim/internal/config"
	"itpsim/internal/replacement"
	"itpsim/internal/tlb"
)

func itpParams() config.ITPParams { return config.ITPParams{N: 4, M: 8, FreqBits: 3} }

// fullSet returns one full TLB set and its recency stack, way i at
// position i.
func fullSet(ways int) ([]tlb.Entry, *replacement.Stack) {
	set := make([]tlb.Entry, ways)
	for i := range set {
		set[i].Valid = true
		set[i].VPN = uint64(100 + i)
	}
	return set, replacement.NewStack(1, ways)
}

func instrReq() *tlb.Request { return &tlb.Request{Class: arch.InstrClass} }
func dataReq() *tlb.Request  { return &tlb.Request{Class: arch.DataClass} }

func TestITPInsertData(t *testing.T) {
	p := NewITP(itpParams())
	set, st := fullSet(12)
	set[5].Class = arch.DataClass
	p.OnFill(0, set, st, 5, dataReq())
	if st.Pos(0, 5) != 11 {
		t.Errorf("data insert at stack %d, want 11 (LRUpos)", st.Pos(0, 5))
	}
	if !st.IsPermutation(0) {
		t.Error("stack invariant broken")
	}
}

func TestITPInsertInstruction(t *testing.T) {
	p := NewITP(itpParams())
	set, st := fullSet(12)
	set[3].Class = arch.InstrClass
	set[3].Freq = 5 // stale value from previous occupant
	p.OnFill(0, set, st, 3, instrReq())
	if st.Pos(0, 3) != 4 {
		t.Errorf("instr insert at stack %d, want 4 (MRUpos-N)", st.Pos(0, 3))
	}
	if set[3].Freq != 0 {
		t.Errorf("Freq = %d, want 0 on insertion", set[3].Freq)
	}
}

func TestITPInstructionPromotionLadder(t *testing.T) {
	p := NewITP(itpParams())
	set, st := fullSet(12)
	set[0].Class = arch.InstrClass
	p.OnFill(0, set, st, 0, instrReq())
	// Non-saturated hits stay at MRUpos-N and increment Freq.
	for i := 1; i <= 6; i++ {
		p.OnHit(0, set, st, 0, instrReq())
		if st.Pos(0, 0) != 4 {
			t.Fatalf("hit %d: stack %d, want 4", i, st.Pos(0, 0))
		}
		if set[0].Freq != uint8(i) {
			t.Fatalf("hit %d: freq %d, want %d", i, set[0].Freq, i)
		}
	}
	// 7th hit saturates (3-bit max = 7).
	p.OnHit(0, set, st, 0, instrReq())
	if set[0].Freq != 7 {
		t.Fatalf("freq = %d, want 7", set[0].Freq)
	}
	// Saturated entry now promotes to MRUpos.
	p.OnHit(0, set, st, 0, instrReq())
	if st.Pos(0, 0) != 0 {
		t.Errorf("saturated hit: stack %d, want 0 (MRUpos)", st.Pos(0, 0))
	}
	if set[0].Freq != 7 {
		t.Errorf("freq should stay saturated, got %d", set[0].Freq)
	}
}

func TestITPDataPromotion(t *testing.T) {
	p := NewITP(itpParams())
	set, st := fullSet(12)
	set[2].Class = arch.DataClass
	p.OnFill(0, set, st, 2, dataReq())
	p.OnHit(0, set, st, 2, dataReq())
	// LRUpos + M with M=8 and 12 ways: stack position 11-8 = 3.
	if st.Pos(0, 2) != 3 {
		t.Errorf("data promotion to stack %d, want 3 (LRUpos+M)", st.Pos(0, 2))
	}
}

func TestITPVictimIsLRU(t *testing.T) {
	p := NewITP(itpParams())
	set, st := fullSet(12)
	v := p.Victim(0, set, st, dataReq())
	if st.Pos(0, v) != 11 {
		t.Errorf("victim at stack %d, want 11", st.Pos(0, v))
	}
}

// End-to-end through a real TLB: instruction translations should survive
// data-translation floods, which is iTP's entire purpose.
func TestITPProtectsInstructionsUnderDataFlood(t *testing.T) {
	stlb := tlb.New("stlb", 1, 12, NewITP(itpParams()))
	instrVA := arch.Addr(0x400000)
	stlb.Insert(instrVA, 1, arch.PageBits4K, arch.InstrClass, 0, 0)
	// Touch it a few times to build Freq.
	for i := 0; i < 8; i++ {
		stlb.Lookup(instrVA, 0, arch.InstrClass, 0)
	}
	// Flood with 100 distinct data translations.
	for i := 0; i < 100; i++ {
		stlb.Insert(arch.Addr(0x1000000+i*arch.PageSize4K), uint64(i), arch.PageBits4K, arch.DataClass, 0, 0)
	}
	if _, _, hit := stlb.Lookup(instrVA, 0, arch.InstrClass, 0); !hit {
		t.Error("iTP should keep the hot instruction translation resident")
	}
}

// The converse: under LRU the same flood evicts the instruction entry.
func TestLRUDoesNotProtectInstructions(t *testing.T) {
	stlb := tlb.New("stlb", 1, 12, tlb.NewLRU())
	instrVA := arch.Addr(0x400000)
	stlb.Insert(instrVA, 1, arch.PageBits4K, arch.InstrClass, 0, 0)
	for i := 0; i < 100; i++ {
		stlb.Insert(arch.Addr(0x1000000+i*arch.PageSize4K), uint64(i), arch.PageBits4K, arch.DataClass, 0, 0)
	}
	if _, _, hit := stlb.Lookup(instrVA, 0, arch.InstrClass, 0); hit {
		t.Error("LRU should have evicted the instruction translation")
	}
}

// Useless instruction entries must still age out (Section 4.1.1: "useless
// instruction translation entries can reach the LRUpos").
func TestITPColdInstructionsAgeOut(t *testing.T) {
	stlb := tlb.New("stlb", 1, 12, NewITP(itpParams()))
	cold := arch.Addr(0x400000)
	stlb.Insert(cold, 1, arch.PageBits4K, arch.InstrClass, 0, 0)
	// Insert 12 more instruction translations without ever touching cold.
	for i := 1; i <= 12; i++ {
		stlb.Insert(arch.Addr(0x400000+i*arch.PageSize4K), uint64(i), arch.PageBits4K, arch.InstrClass, 0, 0)
	}
	if _, _, hit := stlb.Lookup(cold, 0, arch.InstrClass, 0); hit {
		t.Error("cold instruction translation should age out")
	}
}

func TestITPSmallAssociativityClamps(t *testing.T) {
	// N=4 with a 2-way structure must clamp, not panic.
	p := NewITP(config.ITPParams{N: 4, M: 8, FreqBits: 3})
	set, st := fullSet(2)
	p.OnFill(0, set, st, 0, instrReq())
	if st.Pos(0, 0) >= len(set) {
		t.Error("insertion position not clamped")
	}
	p.OnHit(0, set, st, 1, dataReq())
	if !st.IsPermutation(0) {
		t.Error("invariant broken on small set")
	}
}

func TestProbLRUAlwaysData(t *testing.T) {
	p := NewProbLRU(1.0, 42) // always evict data
	set, st := fullSet(4)
	set[0].Class = arch.InstrClass
	set[1].Class = arch.DataClass
	set[2].Class = arch.InstrClass
	set[3].Class = arch.DataClass
	for i := 0; i < 20; i++ {
		v := p.Victim(0, set, st, dataReq())
		if set[v].Class != arch.DataClass {
			t.Fatalf("P=1.0 evicted an instruction entry (way %d)", v)
		}
	}
}

func TestProbLRUAlwaysInstr(t *testing.T) {
	p := NewProbLRU(0.0, 42)
	set, st := fullSet(4)
	set[0].Class = arch.InstrClass
	set[1].Class = arch.DataClass
	for i := 0; i < 20; i++ {
		v := p.Victim(0, set, st, dataReq())
		if set[v].Class != arch.InstrClass {
			t.Fatalf("P=0 evicted a data entry (way %d)", v)
		}
	}
}

func TestProbLRUFallsBackWhenClassAbsent(t *testing.T) {
	p := NewProbLRU(1.0, 42)
	set, st := fullSet(4)
	for i := range set {
		set[i].Class = arch.InstrClass // no data entries at all
	}
	v := p.Victim(0, set, st, dataReq())
	if st.Pos(0, v) != 3 {
		t.Errorf("fallback should evict overall LRU, got stack %d", st.Pos(0, v))
	}
}

func TestProbLRUVictimsEvictsLRUOfClass(t *testing.T) {
	p := NewProbLRU(1.0, 7)
	set, st := fullSet(4)
	set[0].Class = arch.DataClass
	set[1].Class = arch.DataClass
	set[2].Class = arch.InstrClass
	set[3].Class = arch.InstrClass
	// Make way 0 more recent than way 1.
	st.Move(0, 0, 0)
	v := p.Victim(0, set, st, dataReq())
	if v != 1 {
		t.Errorf("victim = %d, want LRU data way 1", v)
	}
}

func TestProbLRUSplitRoughlyMatchesP(t *testing.T) {
	p := NewProbLRU(0.8, 99)
	set, st := fullSet(8)
	for i := range set {
		if i%2 == 0 {
			set[i].Class = arch.DataClass
		} else {
			set[i].Class = arch.InstrClass
		}
	}
	dataEvicts := 0
	const trials = 5000
	for i := 0; i < trials; i++ {
		v := p.Victim(0, set, st, dataReq())
		if set[v].Class == arch.DataClass {
			dataEvicts++
		}
	}
	frac := float64(dataEvicts) / trials
	if frac < 0.75 || frac > 0.85 {
		t.Errorf("data eviction fraction = %.3f, want ~0.8", frac)
	}
}
