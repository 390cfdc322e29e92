package replacement

import "itpsim/internal/arch"

// LRU is exact least-recently-used replacement over the per-set recency
// stack. It is the baseline policy of the paper (Table 2) at every level.
type LRU struct{}

// NewLRU returns the LRU policy.
func NewLRU() *LRU { return &LRU{} }

// Name implements Policy.
func (*LRU) Name() string { return "lru" }

// Victim implements Policy: the bottom of the recency stack.
//
//itp:hotpath
func (*LRU) Victim(si int, _ []Line, stack *Stack, _ *arch.Access) int {
	return stack.LRU(si)
}

// OnFill implements Policy: insert at MRU.
//
//itp:hotpath
func (*LRU) OnFill(si int, _ []Line, stack *Stack, way int, _ *arch.Access) {
	stack.Move(si, way, 0)
}

// OnHit implements Policy: promote to MRU.
//
//itp:hotpath
func (*LRU) OnHit(si int, _ []Line, stack *Stack, way int, _ *arch.Access) {
	stack.Move(si, way, 0)
}

// OnEvict implements Policy.
//
//itp:hotpath
func (*LRU) OnEvict(int, []Line, int) {}

// Random evicts a uniformly random way of a full set. It models the
// first-level-TLB policy vendors commonly use and serves as a sanity
// baseline.
type Random struct {
	rng xorshift64
}

// NewRandom returns a Random policy seeded deterministically.
func NewRandom(seed uint64) *Random { return &Random{rng: newXorshift(seed)} }

// Name implements Policy.
func (*Random) Name() string { return "random" }

// Victim implements Policy.
func (r *Random) Victim(_ int, set []Line, _ *Stack, _ *arch.Access) int {
	return int(r.rng.next() % uint64(len(set)))
}

// OnFill implements Policy (random keeps the stack fresh anyway so other
// metadata stays meaningful for mixed configurations).
func (*Random) OnFill(si int, _ []Line, stack *Stack, way int, _ *arch.Access) {
	stack.Move(si, way, 0)
}

// OnHit implements Policy.
func (*Random) OnHit(si int, _ []Line, stack *Stack, way int, _ *arch.Access) {
	stack.Move(si, way, 0)
}

// OnEvict implements Policy.
func (*Random) OnEvict(int, []Line, int) {}
