package replacement

import "itpsim/internal/arch"

// TSHiP is the translation-aware SHiP of Vasudha & Panda (ISPASS'22),
// the LLC companion of T-DRRIP ("T-DRRIP+T-SHiP" in the paper's related
// work): SHiP's signature-based insertion, with two translation-aware
// overrides — blocks holding PTEs are inserted with near-immediate
// re-reference (protected), and demand blocks whose triggering access
// missed in the STLB are inserted distant regardless of their signature.
type TSHiP struct {
	SHiP
}

// NewTSHiP returns a T-SHiP policy.
func NewTSHiP(sets int, seed uint64) *TSHiP {
	return &TSHiP{SHiP: *NewSHiP(sets, seed)}
}

// Name implements Policy.
func (*TSHiP) Name() string { return "tship" }

// OnFill implements Policy.
func (t *TSHiP) OnFill(setIdx int, set []Line, stack *Stack, way int, in *arch.Access) {
	switch {
	case set[way].IsPTE:
		sig := t.signature(in.PC)
		set[way].Sig = sig
		set[way].Reused = false
		set[way].RRPV = rrpvNear
	case set[way].STLBMiss:
		sig := t.signature(in.PC)
		set[way].Sig = sig
		set[way].Reused = false
		set[way].RRPV = rrpvMax
	default:
		t.SHiP.OnFill(setIdx, set, stack, way, in)
	}
}

// Victim implements Policy: like T-DRRIP, prefer distant blocks from
// STLB-missing demand accesses and avoid PTE blocks while any
// alternative exists.
func (*TSHiP) Victim(_ int, set []Line, _ *Stack, _ *arch.Access) int {
	for {
		for i := range set {
			if set[i].RRPV >= rrpvMax && set[i].STLBMiss && !set[i].IsPTE {
				return i
			}
		}
		for i := range set {
			if set[i].RRPV >= rrpvMax && !set[i].IsPTE {
				return i
			}
		}
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
