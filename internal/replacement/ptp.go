package replacement

import "itpsim/internal/arch"

// PTP is Page Table Prioritization (Park et al., ASPLOS'22 "Every walk's
// a hit"): an LRU-based policy that refuses to evict cache blocks holding
// PTEs while any non-PTE block exists in the set, so page walks become
// (near-)single-access cache hits. Unlike xPTP it protects *all* PTE
// blocks — instruction and data alike — and has no pressure-adaptive
// escape hatch, the two limitations Section 2.2 calls out.
type PTP struct{}

// NewPTP returns the PTP policy.
func NewPTP() *PTP { return &PTP{} }

// Name implements Policy.
func (*PTP) Name() string { return "ptp" }

// Victim implements Policy: the LRU block among non-PTE blocks; if the
// whole set holds PTEs, plain LRU.
func (*PTP) Victim(si int, set []Line, stack *Stack, _ *arch.Access) int {
	order := stack.Order(si)
	for pos := len(order) - 1; pos >= 0; pos-- {
		if w := int(order[pos]); !set[w].IsPTE {
			return w
		}
	}
	return stack.LRU(si)
}

// OnFill implements Policy: LRU insertion, with PTE blocks inserted at MRU.
func (*PTP) OnFill(si int, _ []Line, stack *Stack, way int, _ *arch.Access) {
	stack.Move(si, way, 0)
}

// OnHit implements Policy.
func (*PTP) OnHit(si int, _ []Line, stack *Stack, way int, _ *arch.Access) {
	stack.Move(si, way, 0)
}

// OnEvict implements Policy.
func (*PTP) OnEvict(int, []Line, int) {}
