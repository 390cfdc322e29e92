package cache

import (
	"itpsim/internal/arch"
	"itpsim/internal/audit"
)

// HashState implements arch.StateHasher: the full tag/metadata array in
// set/way order plus the MSHR file, so two caches hash equal iff their
// contents, replacement state, and in-flight misses are identical.
func (c *Cache) HashState(h *arch.StateHash) {
	var pos [256]uint8 // pos[w] is way w's stack position, hashed with w's other fields
	for si := range c.sets {
		for p, w := range c.stack.Order(si) {
			pos[w] = uint8(p)
		}
		for w := range c.sets[si] {
			l := &c.sets[si][w]
			h.Bool(l.Valid)
			h.Bool(l.Dirty)
			h.Word(l.Tag)
			h.Word(l.PC)
			h.Word(uint64(l.Kind))
			h.Bool(l.IsPTE)
			h.Bool(l.IsDataPTE)
			h.Bool(l.STLBMiss)
			h.Word(uint64(l.Thread))
			h.Bool(l.Prefetched)
			h.Word(uint64(pos[w]))
			h.Word(uint64(l.RRPV))
			h.Word(uint64(l.Sig))
			h.Bool(l.Reused)
			h.Word(l.ETA)
		}
	}
	for i := range c.mshrs {
		e := &c.mshrs[i]
		h.Bool(e.valid)
		h.Word(e.block)
		h.Word(uint64(e.thread))
		h.Word(e.readyAt)
	}
}

// mshrLeakHorizon is how far past the audit clock an in-flight MSHR's
// completion may sit before it is judged leaked. The deepest legal chain
// (every MSHR busy, DRAM row misses, walker queueing) resolves within
// thousands of cycles; an entry pointing 100M cycles out means latency
// arithmetic ran away or a completion was lost.
const mshrLeakHorizon = 100_000_000

// AuditState implements audit.Checkable. Invariants:
//
//   - stack-permutation: each set's recency order is a permutation of
//     its ways;
//   - duplicate-block: no two valid ways of a set hold the same
//     (Tag, Thread);
//   - pte-bits: IsDataPTE implies IsPTE (xPTP's Type bit qualifies a PTE
//     block, it cannot exist without one), and PTE blocks never carry the
//     STLBMiss demand bit (the fill path strips it);
//   - mshr-leak: no in-flight entry completes beyond the leak horizon,
//     and no two live entries track the same (block, thread) — a
//     duplicate would double-fill.
func (c *Cache) AuditState(r *audit.Report) {
	for si := range c.sets {
		set := c.sets[si]
		if !c.stack.IsPermutation(si) {
			r.Violatef("stack-permutation", "%s set %d: stack positions are not a permutation", c.name, si)
		}
		for a := range set {
			if !set[a].Valid {
				continue
			}
			if set[a].IsDataPTE && !set[a].IsPTE {
				r.Violatef("pte-bits", "%s set %d way %d: IsDataPTE without IsPTE", c.name, si, a)
			}
			if set[a].IsPTE && set[a].STLBMiss {
				r.Violatef("pte-bits", "%s set %d way %d: PTE block carries the STLBMiss demand bit", c.name, si, a)
			}
			for b := a + 1; b < len(set); b++ {
				if set[b].Valid && set[a].Tag == set[b].Tag && set[a].Thread == set[b].Thread {
					r.Violatef("duplicate-block", "%s set %d: ways %d and %d both hold block %#x",
						c.name, si, a, b, set[a].Tag)
				}
			}
		}
	}
	for i := range c.mshrs {
		e := &c.mshrs[i]
		if !e.valid || e.readyAt <= r.Now {
			continue
		}
		if e.readyAt > r.Now+mshrLeakHorizon {
			r.Violatef("mshr-leak", "%s mshr %d: block %#x completes at %d, %d cycles past now=%d",
				c.name, i, e.block, e.readyAt, e.readyAt-r.Now, r.Now)
		}
		for j := i + 1; j < len(c.mshrs); j++ {
			o := &c.mshrs[j]
			if o.valid && o.readyAt > r.Now && o.block == e.block && o.thread == e.thread {
				r.Violatef("mshr-leak", "%s mshrs %d and %d both track block %#x in flight",
					c.name, i, j, e.block)
			}
		}
	}
}
