// Package replacement implements cache replacement policies: the
// translation-oblivious baselines (LRU, Random, SRRIP, BRRIP, DRRIP, SHiP,
// Mockingjay) and the translation-aware prior work the paper compares
// against (PTP, T-DRRIP). The paper's own xPTP policy lives in
// internal/core next to iTP, but implements the same Policy interface.
package replacement

import (
	"fmt"

	"itpsim/internal/arch"
)

// Line is the per-block metadata a policy can observe and annotate. The
// cache owns []Line per set; policies mutate only the policy-state fields.
type Line struct {
	Valid bool
	Dirty bool
	Tag   uint64 // block number
	PC    uint64 // program counter of the filling access
	Kind  arch.Kind
	// IsPTE marks blocks holding page-table payload; IsDataPTE
	// additionally marks PTEs serving data translations (the xPTP Type
	// bit, propagated through the MSHR as in Figure 7).
	IsPTE     bool
	IsDataPTE bool
	// STLBMiss marks demand blocks whose triggering access missed the
	// STLB (T-DRRIP's eviction bias).
	STLBMiss bool
	Thread   uint8
	// Prefetched marks blocks filled by a prefetcher and not yet
	// demanded.
	Prefetched bool

	// Policy-owned state. The recency order is not per line: the cache
	// owns one Stack for all its sets.
	RRPV   uint8  // re-reference prediction value (RRIP family)
	Sig    uint16 // PC signature (SHiP, Mockingjay)
	Reused bool   // block was hit since fill (SHiP training)
	ETA    uint64 // estimated time of next access (Mockingjay)
}

// Policy decides victims and maintains per-line replacement state; stack
// is the cache's recency order, which the policy reorders with Move.
// The cache fills the deepest invalid way of a set itself, so Victim
// runs only on a full set and returns the way to evict. OnFill runs after
// the new line's identity fields are written; OnHit runs on every demand
// hit; OnEvict runs just before a valid line is overwritten, so policies
// can train on dead blocks.
type Policy interface {
	Name() string
	//itp:hotpath
	Victim(setIdx int, set []Line, stack *Stack, in *arch.Access) int
	//itp:hotpath
	OnFill(setIdx int, set []Line, stack *Stack, way int, in *arch.Access)
	//itp:hotpath
	OnHit(setIdx int, set []Line, stack *Stack, way int, in *arch.Access)
	//itp:hotpath
	OnEvict(setIdx int, set []Line, way int)
}

// FromName constructs a named baseline policy sized for a cache with the
// given geometry. The paper's own policies ("xptp", "itp") are built in
// internal/core and are not available here.
func FromName(name string, sets, ways int, seed uint64) (Policy, error) {
	switch name {
	case "lru":
		return NewLRU(), nil
	case "random":
		return NewRandom(seed), nil
	case "srrip":
		return NewSRRIP(), nil
	case "brrip":
		return NewBRRIP(seed), nil
	case "drrip":
		return NewDRRIP(sets, seed), nil
	case "ship":
		return NewSHiP(sets, seed), nil
	case "mockingjay":
		return NewMockingjay(sets, ways), nil
	case "hawkeye":
		return NewHawkeye(sets, ways), nil
	case "ptp":
		return NewPTP(), nil
	case "tdrrip":
		return NewTDRRIP(sets, seed), nil
	case "tship":
		return NewTSHiP(sets, seed), nil
	case "emissary":
		return NewEmissary(), nil
	default:
		return nil, fmt.Errorf("replacement: unknown policy %q", name)
	}
}

// xorshift64 is the tiny deterministic PRNG used by stochastic policies.
type xorshift64 uint64

func newXorshift(seed uint64) xorshift64 {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return xorshift64(seed)
}

//itp:hotpath
func (x *xorshift64) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift64(v)
	return v
}
