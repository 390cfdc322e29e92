package replacement

import "itpsim/internal/arch"

// RRIP constants: 2-bit re-reference prediction values per Jaleel et al.
// (ISCA'10).
const (
	rrpvMax      = 3 // distant re-reference
	rrpvLong     = 2 // long re-reference (SRRIP insertion)
	rrpvNear     = 0 // near-immediate (promotion)
	brripEpsilon = 32
)

// rripVictim finds a way with RRPV==max, aging the set until one exists.
func rripVictim(set []Line) int {
	for {
		for i := range set {
			if set[i].RRPV >= rrpvMax {
				return i
			}
		}
		for i := range set {
			set[i].RRPV++
		}
	}
}

// SRRIP is static RRIP: insert at long, promote to near on hit.
type SRRIP struct{}

// NewSRRIP returns the SRRIP policy.
func NewSRRIP() *SRRIP { return &SRRIP{} }

// Name implements Policy.
func (*SRRIP) Name() string { return "srrip" }

// Victim implements Policy.
func (*SRRIP) Victim(_ int, set []Line, _ *Stack, _ *arch.Access) int { return rripVictim(set) }

// OnFill implements Policy.
func (*SRRIP) OnFill(_ int, set []Line, _ *Stack, way int, _ *arch.Access) { set[way].RRPV = rrpvLong }

// OnHit implements Policy.
func (*SRRIP) OnHit(_ int, set []Line, _ *Stack, way int, _ *arch.Access) { set[way].RRPV = rrpvNear }

// OnEvict implements Policy.
func (*SRRIP) OnEvict(int, []Line, int) {}

// BRRIP is bimodal RRIP: insert at distant except with probability
// 1/brripEpsilon at long.
type BRRIP struct {
	rng xorshift64
}

// NewBRRIP returns the BRRIP policy.
func NewBRRIP(seed uint64) *BRRIP { return &BRRIP{rng: newXorshift(seed)} }

// Name implements Policy.
func (*BRRIP) Name() string { return "brrip" }

// Victim implements Policy.
func (*BRRIP) Victim(_ int, set []Line, _ *Stack, _ *arch.Access) int { return rripVictim(set) }

// OnFill implements Policy.
func (b *BRRIP) OnFill(_ int, set []Line, _ *Stack, way int, _ *arch.Access) {
	if b.rng.next()%brripEpsilon == 0 {
		set[way].RRPV = rrpvLong
	} else {
		set[way].RRPV = rrpvMax
	}
}

// OnHit implements Policy.
func (*BRRIP) OnHit(_ int, set []Line, _ *Stack, way int, _ *arch.Access) { set[way].RRPV = rrpvNear }

// OnEvict implements Policy.
func (*BRRIP) OnEvict(int, []Line, int) {}

// duel implements set dueling (Qureshi et al., ISCA'07): a handful of
// leader sets are dedicated to each competing insertion policy; follower
// sets use whichever leader group is currently winning on misses.
type duel struct {
	sets    int
	psel    int
	pselMax int
	leaderA map[int]bool // policy A leaders (e.g. SRRIP)
	leaderB map[int]bool // policy B leaders (e.g. BRRIP)
}

func newDuel(sets int) *duel {
	d := &duel{
		sets:    sets,
		pselMax: 1023,
		psel:    512,
		leaderA: make(map[int]bool),
		leaderB: make(map[int]bool),
	}
	// 32 leader sets per policy, spread across the cache; small caches
	// dedicate at most 1/8 of their sets to each leader group.
	leaders := 32
	if leaders > sets/8 {
		leaders = sets / 8
	}
	if leaders == 0 {
		leaders = 1
	}
	stride := sets / (2 * leaders)
	if stride == 0 {
		stride = 1
	}
	for i := 0; i < leaders; i++ {
		d.leaderA[(2*i)*stride%sets] = true
		d.leaderB[(2*i+1)*stride%sets] = true
	}
	return d
}

// onMiss trains PSEL: misses in A-leaders vote for B and vice versa.
func (d *duel) onMiss(setIdx int) {
	if d.leaderA[setIdx] {
		if d.psel < d.pselMax {
			d.psel++
		}
	} else if d.leaderB[setIdx] {
		if d.psel > 0 {
			d.psel--
		}
	}
}

// useA reports whether follower sets should use policy A for setIdx.
func (d *duel) useA(setIdx int) bool {
	if d.leaderA[setIdx] {
		return true
	}
	if d.leaderB[setIdx] {
		return false
	}
	return d.psel < (d.pselMax+1)/2
}

// DRRIP is dynamic RRIP: set dueling between SRRIP and BRRIP insertion.
type DRRIP struct {
	duel *duel
	s    SRRIP
	b    BRRIP
}

// NewDRRIP returns a DRRIP policy for a cache with the given set count.
func NewDRRIP(sets int, seed uint64) *DRRIP {
	return &DRRIP{duel: newDuel(sets), b: BRRIP{rng: newXorshift(seed)}}
}

// Name implements Policy.
func (*DRRIP) Name() string { return "drrip" }

// Victim implements Policy.
func (*DRRIP) Victim(_ int, set []Line, _ *Stack, _ *arch.Access) int { return rripVictim(set) }

// OnFill implements Policy. Every fill is a miss, so it trains PSEL
// first, whether or not the set had to evict.
func (d *DRRIP) OnFill(setIdx int, set []Line, stack *Stack, way int, in *arch.Access) {
	d.duel.onMiss(setIdx)
	d.insert(setIdx, set, stack, way, in)
}

// insert applies the insertion policy the duel currently selects for
// setIdx.
func (d *DRRIP) insert(setIdx int, set []Line, stack *Stack, way int, in *arch.Access) {
	if d.duel.useA(setIdx) {
		d.s.OnFill(setIdx, set, stack, way, in)
	} else {
		d.b.OnFill(setIdx, set, stack, way, in)
	}
}

// OnHit implements Policy.
func (*DRRIP) OnHit(_ int, set []Line, _ *Stack, way int, _ *arch.Access) { set[way].RRPV = rrpvNear }

// OnEvict implements Policy.
func (*DRRIP) OnEvict(int, []Line, int) {}

// TDRRIP is the translation-aware DRRIP of Vasudha & Panda (ISPASS'22):
// blocks holding PTEs are inserted with near-immediate re-reference
// (protected), demand blocks whose own translation missed in the STLB are
// inserted distant (evicted first), and everything else follows DRRIP.
// It does not distinguish instruction PTEs from data PTEs — the
// limitation iTP+xPTP targets.
type TDRRIP struct {
	DRRIP
}

// NewTDRRIP returns a T-DRRIP policy.
func NewTDRRIP(sets int, seed uint64) *TDRRIP {
	return &TDRRIP{DRRIP: *NewDRRIP(sets, seed)}
}

// Name implements Policy.
func (*TDRRIP) Name() string { return "tdrrip" }

// OnFill implements Policy. Like DRRIP it trains PSEL on every fill,
// before choosing the insertion value.
func (t *TDRRIP) OnFill(setIdx int, set []Line, stack *Stack, way int, in *arch.Access) {
	t.duel.onMiss(setIdx)
	switch {
	case set[way].IsPTE:
		set[way].RRPV = rrpvNear
	case set[way].STLBMiss:
		set[way].RRPV = rrpvMax
	default:
		t.insert(setIdx, set, stack, way, in)
	}
}

// Victim implements Policy: T-DRRIP prefers victims among blocks brought
// in by STLB-missing demand loads when one is available at distant RRPV.
func (*TDRRIP) Victim(_ int, set []Line, _ *Stack, _ *arch.Access) int {
	for {
		// First preference: distant blocks from STLB-missing loads.
		for i := range set {
			if set[i].RRPV >= rrpvMax && set[i].STLBMiss && !set[i].IsPTE {
				return i
			}
		}
		// Then any distant non-PTE block.
		for i := range set {
			if set[i].RRPV >= rrpvMax && !set[i].IsPTE {
				return i
			}
		}
		// Then any distant block.
		for i := range set {
			if set[i].RRPV >= rrpvMax {
				return i
			}
		}
		for i := range set {
			set[i].RRPV++
		}
	}
}
