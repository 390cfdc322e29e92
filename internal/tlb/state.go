package tlb

import (
	"itpsim/internal/arch"
	"itpsim/internal/audit"
)

// HashState implements arch.StateHasher: it folds every entry's identity
// and policy metadata, in set/way order, so two TLBs hash equal iff they
// are architecturally identical (including replacement state).
func (t *TLB) HashState(h *arch.StateHash) {
	var pos [256]uint8 // pos[w] is way w's stack position, hashed with w's other fields
	for si := range t.sets {
		for p, w := range t.stack.Order(si) {
			pos[w] = uint8(p)
		}
		for w := range t.sets[si] {
			e := &t.sets[si][w]
			h.Bool(e.Valid)
			h.Word(e.VPN)
			h.Word(e.PPN)
			h.Word(uint64(e.PageBits))
			h.Word(uint64(e.Class))
			h.Word(uint64(e.Thread))
			h.Word(uint64(pos[w]))
			h.Word(uint64(e.Freq))
			h.Word(uint64(e.Sig))
			h.Bool(e.Reused)
		}
	}
}

// HashState implements arch.StateHasher for the split organisation.
func (s *Split) HashState(h *arch.StateHash) {
	s.instr.HashState(h)
	s.data.HashState(h)
}

// AuditState implements audit.Checkable. Invariants:
//
//   - stack-permutation: each set's recency order is a permutation of
//     its ways (the substrate every stack-based policy assumes);
//   - duplicate-entry: no two valid ways of a set map the same
//     (VPN, PageBits, Thread) — a duplicate would make lookups
//     way-order-dependent;
//   - entry-bits: PageBits is one of the supported page sizes and Class
//     is a defined translation class (iTP's Type bit must be 0 or 1).
func (t *TLB) AuditState(r *audit.Report) {
	for si := range t.sets {
		set := t.sets[si]
		if !t.stack.IsPermutation(si) {
			r.Violatef("stack-permutation", "%s set %d: stack positions are not a permutation", t.name, si)
		}
		for a := range set {
			if !set[a].Valid {
				continue
			}
			if set[a].PageBits != arch.PageBits4K && set[a].PageBits != arch.PageBits2M {
				r.Violatef("entry-bits", "%s set %d way %d: unsupported page size bits %d", t.name, si, a, set[a].PageBits)
			}
			if set[a].Class != arch.InstrClass && set[a].Class != arch.DataClass {
				r.Violatef("entry-bits", "%s set %d way %d: undefined class %d", t.name, si, a, set[a].Class)
			}
			for b := a + 1; b < len(set); b++ {
				if set[b].Valid && set[a].VPN == set[b].VPN &&
					set[a].PageBits == set[b].PageBits && set[a].Thread == set[b].Thread {
					r.Violatef("duplicate-entry", "%s set %d: ways %d and %d both hold vpn=%#x/%d",
						t.name, si, a, b, set[a].VPN, set[a].PageBits)
				}
			}
		}
	}
}

// AuditState implements audit.Checkable for the split organisation.
func (s *Split) AuditState(r *audit.Report) {
	s.instr.AuditState(r)
	s.data.AuditState(r)
}

// VisitEntries calls fn for every valid entry, in set/way order — the
// read-only traversal TLB↔page-table coherence audits are built on.
func (t *TLB) VisitEntries(fn func(e *Entry)) {
	for si := range t.sets {
		for w := range t.sets[si] {
			if t.sets[si][w].Valid {
				fn(&t.sets[si][w])
			}
		}
	}
}

// VisitEntries calls fn for every valid entry of both halves.
func (s *Split) VisitEntries(fn func(e *Entry)) {
	s.instr.VisitEntries(fn)
	s.data.VisitEntries(fn)
}
