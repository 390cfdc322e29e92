package replacement

import (
	"testing"

	"itpsim/internal/arch"
)

func TestTSHiPPTEProtection(t *testing.T) {
	p := NewTSHiP(64, 5)
	set, st := newSet(4)
	fillAll(set)
	set[1].IsPTE = true
	p.OnFill(0, set, st, 1, &arch.Access{Kind: arch.PTW, PC: 0x10})
	if set[1].RRPV != rrpvNear {
		t.Errorf("PTE insertion RRPV = %d, want %d", set[1].RRPV, rrpvNear)
	}
	set[2].STLBMiss = true
	p.OnFill(0, set, st, 2, &arch.Access{Kind: arch.Load, PC: 0x20})
	if set[2].RRPV != rrpvMax {
		t.Errorf("STLB-miss insertion RRPV = %d, want %d", set[2].RRPV, rrpvMax)
	}
	if v := p.Victim(0, set, st, &arch.Access{}); v != 2 {
		t.Errorf("victim = %d, want STLB-miss block 2", v)
	}
}

func TestTSHiPFallsBackToSHiP(t *testing.T) {
	p := NewTSHiP(64, 5)
	set, st := newSet(4)
	fillAll(set)
	// Plain demand block: SHiP insertion applies (long by default).
	p.OnFill(0, set, st, 0, &arch.Access{Kind: arch.Load, PC: 0x30})
	if set[0].RRPV != rrpvLong {
		t.Errorf("default insertion RRPV = %d, want %d", set[0].RRPV, rrpvLong)
	}
}

func TestTSHiPAllPTEsStillEvicts(t *testing.T) {
	p := NewTSHiP(64, 5)
	set, st := newSet(4)
	fillAll(set)
	for i := range set {
		set[i].IsPTE = true
		set[i].RRPV = rrpvNear
	}
	if v := p.Victim(0, set, st, &arch.Access{}); v < 0 || v >= 4 {
		t.Fatalf("victim out of range: %d", v)
	}
}

func TestEmissaryProtectsCriticalCode(t *testing.T) {
	e := NewEmissary()
	set, st := newSet(4)
	fillAll(set)
	hotPC := uint64(0x400100)
	// Train the region critical by repeated instruction misses.
	for i := 0; i < emissaryThresh+1; i++ {
		set[0].Kind = arch.IFetch
		set[0].PC = hotPC
		e.OnFill(0, set, st, 0, &arch.Access{Kind: arch.IFetch, PC: hotPC})
	}
	if !e.critical(hotPC) {
		t.Fatal("region should be critical after repeated misses")
	}
	// Push the code block to the LRU position; Emissary must skip it.
	st.Move(0, 0, 3)
	v := e.Victim(0, set, st, &arch.Access{})
	if v == 0 {
		t.Error("Emissary evicted a critical code block")
	}
}

func TestEmissaryDecaysOnlyUnreusedProtected(t *testing.T) {
	e := NewEmissary()
	set, _ := newSet(2)
	fillAll(set)
	pc := uint64(0x400200)
	for i := 0; i < emissaryThresh+2; i++ {
		e.train(pc)
	}
	before := e.critTable[e.sig(pc)]
	set[0].Kind = arch.IFetch
	set[0].PC = pc

	// Reused protected block: no decay.
	set[0].Reused = true
	e.OnEvict(0, set, 0)
	if e.critTable[e.sig(pc)] != before {
		t.Error("reused protected block must not decay")
	}
	// Unreused protected block: decays.
	set[0].Reused = false
	e.OnEvict(0, set, 0)
	if e.critTable[e.sig(pc)] != before-1 {
		t.Error("unreused protected eviction should decay criticality")
	}
	// Sub-threshold regions never decay (training must be able to climb).
	cold := uint64(0x990000)
	e.train(cold)
	set[0].PC = cold
	e.OnEvict(0, set, 0)
	if e.critTable[e.sig(cold)] != 1 {
		t.Error("sub-threshold region must not decay")
	}
}

func TestEmissaryAllProtectedFallsBack(t *testing.T) {
	e := NewEmissary()
	set, st := newSet(4)
	fillAll(set)
	pc := uint64(0x400300)
	for i := 0; i < emissaryCtrMax; i++ {
		e.train(pc)
	}
	for i := range set {
		set[i].Kind = arch.IFetch
		set[i].PC = pc
	}
	if v := e.Victim(0, set, st, &arch.Access{}); v < 0 || v >= 4 {
		t.Fatalf("victim out of range: %d", v)
	}
}

func TestXPTPEmissaryProtectsBoth(t *testing.T) {
	x := NewXPTPEmissary(8)
	set, st := newSet(4)
	fillAll(set)
	// Way at LRU holds a data PTE; way above it holds critical code.
	pteWay := int(st.Order(0)[3])
	set[pteWay].IsDataPTE = true
	codeWay := int(st.Order(0)[2])
	set[codeWay].Kind = arch.IFetch
	set[codeWay].PC = 0x400400
	for i := 0; i < emissaryThresh+1; i++ {
		x.em.train(set[codeWay].PC)
	}
	v := x.Victim(0, set, st, &arch.Access{})
	if v == pteWay || v == codeWay {
		t.Errorf("combined policy evicted a protected block (way %d)", v)
	}
	if st.Pos(0, v) != 1 {
		t.Errorf("victim should be the deepest unprotected block, got stack %d", st.Pos(0, v))
	}
}

func TestXPTPEmissaryKInequality(t *testing.T) {
	// With K=1 and the best alternative 2 positions above the bottom, the
	// LRU data PTE is evicted after all.
	x := NewXPTPEmissary(1)
	set, st := newSet(4)
	fillAll(set)
	for _, pos := range []int{3, 2} {
		w := int(st.Order(0)[pos])
		set[w].IsDataPTE = true
	}
	v := x.Victim(0, set, st, &arch.Access{})
	if st.Pos(0, v) != 3 {
		t.Errorf("K inequality should fall back to LRU PTE, got stack %d", st.Pos(0, v))
	}
}

func TestNewBaselinesViaFromName(t *testing.T) {
	for _, n := range []string{"tship", "emissary"} {
		p, err := FromName(n, 64, 8, 3)
		if err != nil || p.Name() != n {
			t.Errorf("FromName(%q) = %v, %v", n, p, err)
		}
	}
}

func TestHawkeyeLearnsFriendlyPCs(t *testing.T) {
	h := NewHawkeye(64, 4)
	// A PC whose blocks are reused quickly within a sampled set (set 0)
	// should become friendly; one that streams should become averse.
	friendlyPC, aversePC := uint64(0x1000), uint64(0x2000)
	for i := 0; i < 200; i++ {
		h.observe(0, uint64(i%2), friendlyPC)  // two blocks ping-pong: OPT hits
		h.observe(0, uint64(1000+i), aversePC) // never reused: stays cold
	}
	if !h.friendly(friendlyPC) {
		t.Error("reused PC should be cache-friendly")
	}
	// The averse PC never gets reuse feedback, so at minimum it must not
	// be MORE friendly than the reused one.
	if h.pred[h.sig(aversePC)] > h.pred[h.sig(friendlyPC)] {
		t.Error("streaming PC ranked above reused PC")
	}
}

func TestHawkeyeInsertionByPrediction(t *testing.T) {
	h := NewHawkeye(64, 4)
	set, _ := newSet(4)
	st := NewStack(2, 4) // the tests use set 1, which Hawkeye does not sample
	fillAll(set)
	pc := uint64(0x3000)
	// Force averse.
	for i := 0; i < 8; i++ {
		h.train(h.sig(pc), false)
	}
	h.OnFill(1, set, st, 0, &arch.Access{PC: pc, Kind: arch.Load}) // unsampled set
	if set[0].RRPV != rrpvMax {
		t.Errorf("averse insertion RRPV = %d, want %d", set[0].RRPV, rrpvMax)
	}
	for i := 0; i < 16; i++ {
		h.train(h.sig(pc), true)
	}
	h.OnFill(1, set, st, 0, &arch.Access{PC: pc, Kind: arch.Load})
	if set[0].RRPV != rrpvNear {
		t.Errorf("friendly insertion RRPV = %d, want %d", set[0].RRPV, rrpvNear)
	}
}

func TestHawkeyeVictimPrefersAverse(t *testing.T) {
	h := NewHawkeye(64, 4)
	set, _ := newSet(4)
	st := NewStack(2, 4) // the tests use set 1, which Hawkeye does not sample
	fillAll(set)
	for i := range set {
		set[i].RRPV = rrpvNear
	}
	set[2].RRPV = rrpvMax
	if v := h.Victim(1, set, st, &arch.Access{}); v != 2 {
		t.Errorf("victim = %d, want averse way 2", v)
	}
	// All friendly: falls back to LRU without panicking.
	set[2].RRPV = rrpvNear
	if v := h.Victim(1, set, st, &arch.Access{}); v < 0 || v >= 4 {
		t.Fatalf("victim out of range: %d", v)
	}
}

func TestHawkeyeViaFromName(t *testing.T) {
	p, err := FromName("hawkeye", 2048, 16, 1)
	if err != nil || p.Name() != "hawkeye" {
		t.Fatalf("FromName(hawkeye) = %v, %v", p, err)
	}
}
