package tlb

import "itpsim/internal/replacement"

// TLB-side baseline replacement policies: LRU (the vendor default the
// paper's baseline uses) and CHiRP (Mirbagher-Ajorpaz et al., MICRO'20),
// the state-of-the-art STLB policy iTP is compared against.

// LRU is exact least-recently-used over the per-set recency stack.
type LRU struct{}

// NewLRU returns the LRU policy.
func NewLRU() *LRU { return &LRU{} }

// Name implements Policy.
func (*LRU) Name() string { return "lru" }

// Victim implements Policy.
//
//itp:hotpath
func (*LRU) Victim(si int, _ []Entry, stack *replacement.Stack, _ *Request) int {
	return stack.LRU(si)
}

// OnFill implements Policy.
//
//itp:hotpath
func (*LRU) OnFill(si int, _ []Entry, stack *replacement.Stack, way int, _ *Request) {
	stack.Move(si, way, 0)
}

// OnHit implements Policy.
//
//itp:hotpath
func (*LRU) OnHit(si int, _ []Entry, stack *replacement.Stack, way int, _ *Request) {
	stack.Move(si, way, 0)
}

// OnEvict implements Policy.
//
//itp:hotpath
func (*LRU) OnEvict(int, []Entry, int) {}

// CHiRP is Control-flow History Reuse Prediction: on every STLB fill a
// signature derived from recent control-flow history indexes a table of
// saturating confidence counters. Translations predicted to be reused
// soon are inserted at the top of the recency stack; translations from
// low-confidence signatures are inserted near the bottom. Hits train the
// signature up; evictions of never-reused entries train it down. CHiRP
// deliberately does not distinguish instruction from data PTEs — the
// limitation Section 2.3 highlights.
type CHiRP struct {
	table     []uint8 // confidence counters
	tableMask uint64
	history   [64]uint64 // per-thread control-flow history hash (CMP-wide)
	threshold uint8
	ctrMax    uint8
	// lowInsertPos is where low-confidence entries land (near LRU).
	lowInsertPos int
}

const (
	chirpTableSize = 4096
	chirpCtrMax    = 7
	chirpThreshold = 4
	chirpCtrInit   = 4
)

// NewCHiRP returns a CHiRP policy for a TLB with the given associativity.
func NewCHiRP(ways int) *CHiRP {
	c := &CHiRP{
		table:        make([]uint8, chirpTableSize),
		tableMask:    chirpTableSize - 1,
		threshold:    chirpThreshold,
		ctrMax:       chirpCtrMax,
		lowInsertPos: ways - 2,
	}
	if c.lowInsertPos < 0 {
		c.lowInsertPos = 0
	}
	for i := range c.table {
		c.table[i] = chirpCtrInit
	}
	return c
}

// Name implements Policy.
func (*CHiRP) Name() string { return "chirp" }

// Observe folds a retired-instruction PC into the control-flow history;
// the simulator calls this on taken branches.
//
//itp:hotpath
func (c *CHiRP) Observe(thread uint8, pc uint64) {
	h := c.history[thread&63]
	c.history[thread&63] = (h << 5) ^ (h >> 59) ^ (pc >> 2)
}

// signature mixes the history with the missing VPN.
//
//itp:hotpath
func (c *CHiRP) signature(thread uint8, vpn uint64) uint16 {
	h := c.history[thread&63] ^ (vpn * 0x9e3779b97f4a7c15)
	h ^= h >> 29
	return uint16(h & c.tableMask)
}

// Victim implements Policy: plain LRU eviction (CHiRP drives insertion).
//
//itp:hotpath
func (*CHiRP) Victim(si int, _ []Entry, stack *replacement.Stack, _ *Request) int {
	return stack.LRU(si)
}

// OnFill implements Policy.
//
//itp:hotpath
func (c *CHiRP) OnFill(si int, set []Entry, stack *replacement.Stack, way int, req *Request) {
	sig := c.signature(req.Thread, req.VPN)
	set[way].Sig = sig
	set[way].Reused = false
	if c.table[sig] >= c.threshold {
		stack.Move(si, way, 0)
	} else {
		stack.Move(si, way, c.lowInsertPos)
	}
}

// OnHit implements Policy: promote to MRU and train the signature.
//
//itp:hotpath
func (c *CHiRP) OnHit(si int, set []Entry, stack *replacement.Stack, way int, _ *Request) {
	stack.Move(si, way, 0)
	if !set[way].Reused {
		set[way].Reused = true
		if c.table[set[way].Sig] < c.ctrMax {
			c.table[set[way].Sig]++
		}
	}
}

// OnEvict implements Policy: dead entries train their signature down.
//
//itp:hotpath
func (c *CHiRP) OnEvict(_ int, set []Entry, way int) {
	if set[way].Valid && !set[way].Reused {
		if c.table[set[way].Sig] > 0 {
			c.table[set[way].Sig]--
		}
	}
}
