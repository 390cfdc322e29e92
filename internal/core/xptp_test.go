package core

import (
	"slices"
	"testing"

	"itpsim/internal/arch"
	"itpsim/internal/cache"
	"itpsim/internal/config"
	"itpsim/internal/replacement"
)

func xptpParams() config.XPTPParams {
	return config.XPTPParams{K: 8, T1: 1, WindowInstr: 1000}
}

// cacheSet returns one full cache set and its recency stack, way i at
// position i.
func cacheSet(ways int) ([]replacement.Line, *replacement.Stack) {
	set := make([]replacement.Line, ways)
	for i := range set {
		set[i].Valid = true
		set[i].Tag = uint64(i)
	}
	return set, replacement.NewStack(1, ways)
}

func TestXPTPProtectsDataPTEs(t *testing.T) {
	x := NewXPTP(xptpParams()) // K=8 on an 8-way set: alternative always wins
	set, st := cacheSet(8)
	// The LRU block (deepest stack) holds a data PTE.
	lruWay := int(st.Order(0)[7])
	set[lruWay].IsPTE = true
	set[lruWay].IsDataPTE = true
	v := x.Victim(0, set, st, &arch.Access{})
	if v == lruWay {
		t.Error("xPTP evicted the data-PTE LRU block")
	}
	// Victim should be the deepest non-data-PTE block (stack 6).
	if st.Pos(0, v) != 6 {
		t.Errorf("victim at stack %d, want 6", st.Pos(0, v))
	}
}

func TestXPTPInequalityEvictsPTEWhenAltTooRecent(t *testing.T) {
	// K=2: if the best alternative is within 2 positions of the stack
	// bottom we evict it; otherwise the data PTE goes.
	x := NewXPTP(config.XPTPParams{K: 2})
	set, st := cacheSet(8)
	// Bottom three stack positions hold data PTEs; the best alternative
	// is at stack 4 → 3 positions above bottom ≥ K → evict the LRU PTE.
	for _, pos := range []int{7, 6, 5} {
		w := int(st.Order(0)[pos])
		set[w].IsDataPTE = true
		set[w].IsPTE = true
	}
	v := x.Victim(0, set, st, &arch.Access{})
	if st.Pos(0, v) != 7 || !set[v].IsDataPTE {
		t.Errorf("expected LRU data-PTE eviction, got stack %d (pte=%v)", st.Pos(0, v), set[v].IsDataPTE)
	}

	// Now only the bottom one is a PTE; alternative at stack 6 is 1
	// position above bottom < K → evict the alternative.
	set2, st2 := cacheSet(8)
	w := int(st2.Order(0)[7])
	set2[w].IsDataPTE = true
	v2 := x.Victim(0, set2, st2, &arch.Access{})
	if st2.Pos(0, v2) != 6 {
		t.Errorf("expected alternative eviction at stack 6, got %d", st2.Pos(0, v2))
	}
}

func TestXPTPAllDataPTEsFallsBack(t *testing.T) {
	x := NewXPTP(xptpParams())
	set, st := cacheSet(8)
	for i := range set {
		set[i].IsDataPTE = true
	}
	v := x.Victim(0, set, st, &arch.Access{})
	if st.Pos(0, v) != 7 {
		t.Errorf("all-PTE set should evict LRU, got stack %d", st.Pos(0, v))
	}
}

// TestXPTPPrefersInvalid fills a cache set up to its last free way with
// a data PTE at the bottom of the stack: the last fill takes the free
// way instead of running xPTP's victim rule, so nothing is evicted.
func TestXPTPPrefersInvalid(t *testing.T) {
	c := cache.New("l2c", config.CacheConfig{Sets: 1, Ways: 8, Latency: 5, MSHRs: 4},
		NewXPTP(xptpParams()), flatLevel{}, nil)
	pte := arch.Access{Addr: 0, Kind: arch.PTW, IsPTE: true, Class: arch.DataClass}
	c.Access(0, &pte)
	for b := 1; b < 8; b++ {
		c.Access(uint64(b)*1000, &arch.Access{Addr: arch.Addr(b) << arch.BlockBits, Kind: arch.Load})
	}
	for b := 0; b < 8; b++ {
		if !c.Contains(arch.Addr(b)<<arch.BlockBits, 0) {
			t.Errorf("block %d evicted from a set that had a free way", b)
		}
	}
}

func TestXPTPDisabledIsLRU(t *testing.T) {
	enabled := false
	x := NewAdaptiveXPTP(xptpParams(), func() bool { return enabled })
	set, st := cacheSet(8)
	lruWay := int(st.Order(0)[7])
	set[lruWay].IsDataPTE = true
	if v := x.Victim(0, set, st, &arch.Access{}); v != lruWay {
		t.Error("disabled xPTP should behave as plain LRU")
	}
	enabled = true
	if v := x.Victim(0, set, st, &arch.Access{}); v == lruWay {
		t.Error("enabled xPTP should protect the data PTE")
	}
}

func TestXPTPFillAndHitAreLRU(t *testing.T) {
	x := NewXPTP(xptpParams())
	set, st := cacheSet(8)
	x.OnFill(0, set, st, 5, &arch.Access{})
	if st.Pos(0, 5) != 0 {
		t.Error("fill should insert at MRU")
	}
	x.OnHit(0, set, st, 2, &arch.Access{})
	if st.Pos(0, 2) != 0 {
		t.Error("hit should promote to MRU")
	}
	if !st.IsPermutation(0) {
		t.Error("invariant broken")
	}
}

func TestControllerWindowing(t *testing.T) {
	c := NewController(config.XPTPParams{K: 8, T1: 2, WindowInstr: 1000})
	if !c.Enabled() {
		t.Error("controller should start enabled")
	}
	// Window 1: only 1 miss (≤ T1) → disable.
	c.OnSTLBMiss()
	c.OnRetire(1000)
	if c.Enabled() {
		t.Error("low-pressure window should disable xPTP")
	}
	if c.DisabledWindows != 1 {
		t.Errorf("DisabledWindows = %d, want 1", c.DisabledWindows)
	}
	// Window 2: 5 misses (> T1) → enable.
	for i := 0; i < 5; i++ {
		c.OnSTLBMiss()
	}
	c.OnRetire(1000)
	if !c.Enabled() {
		t.Error("high-pressure window should enable xPTP")
	}
	if c.EnabledWindows != 1 {
		t.Errorf("EnabledWindows = %d, want 1", c.EnabledWindows)
	}
}

func TestControllerCountersResetPerWindow(t *testing.T) {
	c := NewController(config.XPTPParams{T1: 3, WindowInstr: 1000})
	for i := 0; i < 4; i++ {
		c.OnSTLBMiss()
	}
	c.OnRetire(1000) // enabled; counters reset
	// Next window sees zero misses → disabled.
	c.OnRetire(1000)
	if c.Enabled() {
		t.Error("miss counter should reset between windows")
	}
}

func TestControllerMultipleWindowsInOneRetire(t *testing.T) {
	c := NewController(config.XPTPParams{T1: 1, WindowInstr: 1000})
	c.OnSTLBMiss()
	c.OnSTLBMiss()
	c.OnRetire(3500) // closes 3 windows
	if c.EnabledWindows+c.DisabledWindows != 3 {
		t.Errorf("closed %d windows, want 3", c.EnabledWindows+c.DisabledWindows)
	}
}

func TestControllerT1ZeroAlwaysOn(t *testing.T) {
	c := NewController(config.XPTPParams{T1: 0, WindowInstr: 1000})
	c.OnRetire(5000)
	if !c.Enabled() {
		t.Error("T1<=0 should pin xPTP on")
	}
	if c.DisabledWindows != 0 {
		t.Error("no windows should be disabled with T1<=0")
	}
}

func TestControllerDefaultWindow(t *testing.T) {
	c := NewController(config.XPTPParams{T1: 1})
	c.OnSTLBMiss()
	c.OnSTLBMiss()
	c.OnRetire(999)
	before := c.EnabledWindows + c.DisabledWindows
	if before != 0 {
		t.Error("window should not close before 1000 instructions")
	}
	c.OnRetire(1)
	if c.EnabledWindows+c.DisabledWindows != 1 {
		t.Error("window should close at 1000 instructions")
	}
}

// Property: with no data-PTE blocks in play, xPTP's decisions are exactly
// LRU's — the paper's observation that xPTP "degenerates to LRU" when its
// protection never triggers (Section 4.3.1).
func TestXPTPEquivalentToLRUWithoutPTEs(t *testing.T) {
	x := NewXPTP(xptpParams())
	l := replacement.NewLRU()
	setX, stX := cacheSet(8)
	setL, stL := cacheSet(8)
	rng := uint64(77)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	for op := 0; op < 20000; op++ {
		acc := &arch.Access{Addr: uint64(next(64)) << 6, Kind: arch.Load}
		switch next(3) {
		case 0:
			vx := x.Victim(0, setX, stX, acc)
			vl := l.Victim(0, setL, stL, acc)
			if vx != vl {
				t.Fatalf("op %d: victims diverged (%d vs %d)", op, vx, vl)
			}
			setX[vx].Valid, setL[vl].Valid = true, true
			x.OnFill(0, setX, stX, vx, acc)
			l.OnFill(0, setL, stL, vl, acc)
		case 1:
			w := next(8)
			x.OnHit(0, setX, stX, w, acc)
			l.OnHit(0, setL, stL, w, acc)
		default:
			w := next(8)
			x.OnEvict(0, setX, w)
			l.OnEvict(0, setL, w)
		}
		if !slices.Equal(stX.Order(0), stL.Order(0)) {
			t.Fatalf("op %d: stacks diverged: %v vs %v", op, stX.Order(0), stL.Order(0))
		}
	}
}
