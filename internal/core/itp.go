package core

import (
	"itpsim/internal/arch"
	"itpsim/internal/config"
	"itpsim/internal/replacement"
	"itpsim/internal/tlb"
)

// ITP is the Instruction Translation Prioritization STLB replacement
// policy (Section 4.1). Per entry it keeps the 1-bit Type (instruction vs
// data translation, already part of tlb.Entry as Class) and a saturating
// Freq counter.
//
// Insertion (Figure 5, top):
//   - data translations are inserted at LRUpos — first in line for
//     eviction (step 1);
//   - instruction translations are inserted N positions below MRUpos with
//     Freq reset to 0 (steps 2–3); the MRU position itself is reserved
//     for instruction entries whose Freq counter has saturated.
//
// Promotion (Figure 5, bottom):
//   - an instruction hit promotes to MRUpos if Freq is saturated, else to
//     MRUpos−N, incrementing Freq (steps i–iii);
//   - a data hit moves the entry to LRUpos+M, i.e. M positions above the
//     bottom of the stack (step iv).
//
// Eviction is plain LRU: the entry at LRUpos.
type ITP struct {
	n       int
	m       int
	freqMax uint8
}

// NewITP builds iTP from its configuration parameters.
func NewITP(p config.ITPParams) *ITP {
	return &ITP{
		n:       p.N,
		m:       p.M,
		freqMax: uint8(1<<p.FreqBits - 1),
	}
}

// Name implements tlb.Policy.
func (*ITP) Name() string { return "itp" }

// Victim implements tlb.Policy: the entry at LRUpos, like LRU-based
// policies (Section 4.1).
//
//itp:hotpath
func (*ITP) Victim(si int, _ []tlb.Entry, stack *replacement.Stack, _ *tlb.Request) int {
	return stack.LRU(si)
}

// insertionPos returns the stack position iTP assigns to a new or
// re-promoted non-saturated instruction entry: MRUpos−N, clamped to the
// set size.
//
//itp:hotpath
func (p *ITP) insertionPos(ways int) int {
	return min(p.n, ways-1)
}

// dataPromotionPos returns LRUpos+M as a stack index: M positions above
// the bottom of the stack.
//
//itp:hotpath
func (p *ITP) dataPromotionPos(ways int) int {
	return max(ways-1-p.m, 0)
}

// OnFill implements tlb.Policy (iTP's insertion policy).
//
//itp:hotpath
func (p *ITP) OnFill(si int, set []tlb.Entry, stack *replacement.Stack, way int, req *tlb.Request) {
	if req.Class == arch.InstrClass {
		set[way].Freq = 0
		stack.Move(si, way, p.insertionPos(len(set)))
		return
	}
	stack.Move(si, way, len(set)-1) // LRUpos
}

// OnHit implements tlb.Policy (iTP's promotion policy).
//
//itp:hotpath
func (p *ITP) OnHit(si int, set []tlb.Entry, stack *replacement.Stack, way int, _ *tlb.Request) {
	e := &set[way]
	if e.Class == arch.InstrClass {
		if e.Freq >= p.freqMax {
			stack.Move(si, way, 0) // MRUpos
		} else {
			stack.Move(si, way, p.insertionPos(len(set)))
			e.Freq++
		}
		return
	}
	stack.Move(si, way, p.dataPromotionPos(len(set)))
}

// OnEvict implements tlb.Policy.
//
//itp:hotpath
func (*ITP) OnEvict(int, []tlb.Entry, int) {}

// ProbLRU is the motivation study's modified LRU (Section 3.2): on each
// eviction it victimises the least-recently-used *data* translation with
// probability P, and the least-recently-used *instruction* translation
// with probability 1−P; if only one class is present, the overall LRU
// entry is evicted regardless of the draw. Insertion and promotion follow
// plain LRU.
type ProbLRU struct {
	p   float64
	rng uint64
}

// NewProbLRU returns the variant with keep-instructions probability p.
func NewProbLRU(p float64, seed uint64) *ProbLRU {
	if seed == 0 {
		seed = 0x243f6a8885a308d3
	}
	return &ProbLRU{p: p, rng: seed}
}

// Name implements tlb.Policy.
func (*ProbLRU) Name() string { return "problru" }

//itp:hotpath
func (p *ProbLRU) nextFloat() float64 {
	p.rng ^= p.rng << 13
	p.rng ^= p.rng >> 7
	p.rng ^= p.rng << 17
	return float64(p.rng>>11) / float64(1<<53)
}

// Victim implements tlb.Policy: the deepest entry of the drawn class,
// or the overall LRU entry when the set holds only the other class.
//
//itp:hotpath
func (p *ProbLRU) Victim(si int, set []tlb.Entry, stack *replacement.Stack, _ *tlb.Request) int {
	victimClass := arch.InstrClass
	if p.nextFloat() < p.p {
		victimClass = arch.DataClass
	}
	order := stack.Order(si)
	for pos := len(order) - 1; pos >= 0; pos-- {
		if w := int(order[pos]); set[w].Class == victimClass {
			return w
		}
	}
	return stack.LRU(si)
}

// OnFill implements tlb.Policy.
//
//itp:hotpath
func (*ProbLRU) OnFill(si int, _ []tlb.Entry, stack *replacement.Stack, way int, _ *tlb.Request) {
	stack.Move(si, way, 0)
}

// OnHit implements tlb.Policy.
//
//itp:hotpath
func (*ProbLRU) OnHit(si int, _ []tlb.Entry, stack *replacement.Stack, way int, _ *tlb.Request) {
	stack.Move(si, way, 0)
}

// OnEvict implements tlb.Policy.
//
//itp:hotpath
func (*ProbLRU) OnEvict(int, []tlb.Entry, int) {}
