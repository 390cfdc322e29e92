package core

import (
	"math/rand"
	"testing"

	"itpsim/internal/arch"
	"itpsim/internal/cache"
	"itpsim/internal/config"
	"itpsim/internal/replacement"
	"itpsim/internal/stats"
	"itpsim/internal/tlb"
)

// The reference models below restate LRU, iTP and always-on xPTP in the
// most direct form available: each set is a plain MRU→LRU slice of way
// ids, and every rule is a slice splice. They share nothing with the
// optimised structures but the paper's definitions, so the differential
// fuzz against tlb.TLB and cache.Cache checks the real stack machinery,
// the invalid-way-first fill rule, and each policy's positions at once.

// refWay is one way of a reference set: its key (page or block number
// tagged with the thread) and the metadata the policies read.
type refWay struct {
	valid   bool
	key     uint64
	instr   bool // iTP's Type bit: the entry holds an instruction translation
	dataPTE bool // xPTP's Type bit: the block holds a data-translation PTE
	freq    uint8
}

// refRule is a policy restated over a reference set's MRU→LRU order.
type refRule interface {
	victim(order []int, ways []refWay) int
	fill(r *refModel, si, way int)
	hit(r *refModel, si, way int)
}

// refModel is a naive set-associative structure with exact recency order.
type refModel struct {
	nways int
	order [][]int // per set: way ids, MRU first
	ways  [][]refWay
	rule  refRule
}

func newRefModel(sets, ways int, rule refRule) *refModel {
	r := &refModel{nways: ways, order: make([][]int, sets), ways: make([][]refWay, sets), rule: rule}
	for si := range r.order {
		for w := 0; w < ways; w++ {
			r.order[si] = append(r.order[si], w)
		}
		r.ways[si] = make([]refWay, ways)
	}
	return r
}

// move puts way at position pos of set si's order.
func (r *refModel) move(si, way, pos int) {
	o := r.order[si]
	for p, w := range o {
		if w == way {
			o = append(o[:p:p], o[p+1:]...)
			break
		}
	}
	o = append(o[:pos:pos], append([]int{way}, o[pos:]...)...)
	r.order[si] = o
}

func (r *refModel) find(si int, key uint64) int {
	for w, e := range r.ways[si] {
		if e.valid && e.key == key {
			return w
		}
	}
	return -1
}

// access touches key in set si: a hit applies the promotion rule; a miss
// fills the deepest invalid way, or the rule's victim in a full set, and
// applies the insertion rule. It reports whether the access hit.
func (r *refModel) access(si int, key uint64, meta refWay) bool {
	if w := r.find(si, key); w >= 0 {
		r.rule.hit(r, si, w)
		return true
	}
	o, ways := r.order[si], r.ways[si]
	victim := -1
	for p := len(o) - 1; p >= 0; p-- {
		if !ways[o[p]].valid {
			victim = o[p]
			break
		}
	}
	if victim < 0 {
		victim = r.rule.victim(o, ways)
	}
	meta.valid, meta.key = true, key
	ways[victim] = meta
	r.rule.fill(r, si, victim)
	return false
}

// refLRU inserts and promotes to MRU and evicts the LRU way.
type refLRU struct{}

func (refLRU) victim(order []int, _ []refWay) int { return order[len(order)-1] }
func (refLRU) fill(r *refModel, si, way int)      { r.move(si, way, 0) }
func (refLRU) hit(r *refModel, si, way int)       { r.move(si, way, 0) }

// refITP is iTP (Section 4.1): instruction entries enter at MRUpos−N and
// reach MRUpos only with a saturated Freq counter; data entries enter at
// LRUpos and are promoted to LRUpos+M; eviction is LRU.
type refITP struct {
	n, m    int
	freqMax uint8
}

func (p refITP) victim(order []int, _ []refWay) int { return order[len(order)-1] }

func (p refITP) fill(r *refModel, si, way int) {
	e := &r.ways[si][way]
	if e.instr {
		e.freq = 0
		r.move(si, way, min(p.n, r.nways-1))
		return
	}
	r.move(si, way, r.nways-1)
}

func (p refITP) hit(r *refModel, si, way int) {
	e := &r.ways[si][way]
	switch {
	case !e.instr:
		r.move(si, way, max(r.nways-1-p.m, 0))
	case e.freq >= p.freqMax:
		r.move(si, way, 0)
	default:
		r.move(si, way, min(p.n, r.nways-1))
		e.freq++
	}
}

// refXPTP is always-on xPTP (Section 4.2): LRU insertion and promotion;
// the victim is the deepest block without a data PTE unless that block
// sits K or more positions above the bottom of the stack.
type refXPTP struct{ k int }

func (p refXPTP) victim(order []int, ways []refWay) int {
	lru := order[len(order)-1]
	for pos := len(order) - 1; pos >= 0; pos-- {
		if !ways[order[pos]].dataPTE {
			if len(order)-1-pos >= p.k {
				return lru
			}
			return order[pos]
		}
	}
	return lru
}

func (refXPTP) fill(r *refModel, si, way int) { r.move(si, way, 0) }
func (refXPTP) hit(r *refModel, si, way int)  { r.move(si, way, 0) }

// flatLevel is a constant-latency next level for the caches under test.
type flatLevel struct{}

func (flatLevel) Access(now uint64, _ *arch.Access) uint64 { return now + 10 }

const (
	refSets  = 4
	refWays  = 8
	refPages = 64 // distinct pages/blocks per thread: 4x the capacity
	refOps   = 512
)

// FuzzRecencyReference drives the real TLB (LRU and iTP) and L2-style
// cache (LRU and always-on xPTP) and their reference models with one
// random stream of page/block touches, and requires the same hit/miss
// sequence and the same residency of every page and block after every
// operation. The geometry is small (4 sets × 8 ways) so sets fill and
// evict constantly.
func FuzzRecencyReference(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for _, p := range [][4]uint8{{4, 8, 3, 8}, {0, 0, 1, 0}, {2, 3, 2, 4}, {7, 1, 4, 2}} {
		ops := make([]byte, 2*refOps)
		rng.Read(ops)
		f.Add(p[0], p[1], p[2], p[3], ops)
	}
	f.Fuzz(func(t *testing.T, n, m, freqBits, k uint8, ops []byte) {
		itpParams := config.ITPParams{N: int(n % 9), M: int(m % 9), FreqBits: 1 + int(freqBits%4)}
		itpRule := refITP{n: itpParams.N, m: itpParams.M, freqMax: uint8(1<<itpParams.FreqBits - 1)}
		xptpParams := config.XPTPParams{K: int(k % 10)}
		if len(ops) > 2*refOps {
			ops = ops[:2*refOps] // each op checks the whole universe; bound the work
		}

		tlbs := []struct {
			real *tlb.TLB
			ref  *refModel
		}{
			{tlb.New("lru", refSets, refWays, tlb.NewLRU()), newRefModel(refSets, refWays, refLRU{})},
			{tlb.New("itp", refSets, refWays, NewITP(itpParams)), newRefModel(refSets, refWays, itpRule)},
		}
		geom := config.CacheConfig{Sets: refSets, Ways: refWays, Latency: 5, MSHRs: 4}
		caches := []struct {
			real *cache.Cache
			st   *stats.Level
			ref  *refModel
		}{
			{nil, &stats.Level{}, newRefModel(refSets, refWays, refLRU{})},
			{nil, &stats.Level{}, newRefModel(refSets, refWays, refXPTP{k: xptpParams.K})},
		}
		caches[0].real = cache.New("lru", geom, replacement.NewLRU(), flatLevel{}, caches[0].st)
		caches[1].real = cache.New("xptp", geom, NewXPTP(xptpParams), flatLevel{}, caches[1].st)

		now := uint64(0)
		for i := 0; i+1 < len(ops); i += 2 {
			b0, b1 := ops[i], ops[i+1]
			page := uint64(b0 % refPages)
			class := arch.Class((b0 >> 6) & 1)
			thread := b0 >> 7
			si := int(page % refSets)
			key := page | uint64(thread)<<32

			// TLB: the simulator's lookup-then-insert-on-miss protocol,
			// or (one op in eight) a bare Insert, which treats a resident
			// page as a touch.
			va := arch.Addr(page << arch.PageBits4K)
			for _, s := range tlbs {
				var hit bool
				if b1>>5 == 0 {
					_, _, _, hit = s.real.Peek(va, thread)
					s.real.Insert(va, page, arch.PageBits4K, class, 0, thread)
				} else if _, _, hit = s.real.Lookup(va, 0, class, thread); !hit {
					s.real.Insert(va, page, arch.PageBits4K, class, 0, thread)
				}
				if want := s.ref.access(si, key, refWay{instr: class == arch.InstrClass}); hit != want {
					t.Fatalf("op %d: %s TLB page %d thread %d hit=%v, reference hit=%v", i/2, s.real.Name(), page, thread, hit, want)
				}
			}

			// Cache: one access per op; the clock jumps far enough that
			// every fill has completed, so hits are exactly residency.
			now += 1000
			acc := arch.Access{Addr: arch.Addr(page) << arch.BlockBits, PC: 0x400000, Thread: thread, Class: class}
			switch b1 & 3 {
			case 0:
				acc.Kind = arch.Load
			case 1:
				acc.Kind = arch.Store
			case 2:
				acc.Kind, acc.Class = arch.IFetch, arch.InstrClass
			case 3:
				acc.Kind, acc.IsPTE = arch.PTW, true
			}
			for _, c := range caches {
				hits := c.st.TotalHits()
				c.real.Access(now, &acc)
				hit := c.st.TotalHits() > hits
				want := c.ref.access(si, key, refWay{dataPTE: acc.IsPTE && acc.Class == arch.DataClass})
				if hit != want {
					t.Fatalf("op %d: %s cache block %d thread %d hit=%v, reference hit=%v", i/2, c.real.Name(), page, thread, hit, want)
				}
			}

			// Residency of every page and block, both threads.
			for th := uint8(0); th < 2; th++ {
				for p := uint64(0); p < refPages; p++ {
					psi, pkey := int(p%refSets), p|uint64(th)<<32
					for _, s := range tlbs {
						_, _, _, got := s.real.Peek(arch.Addr(p<<arch.PageBits4K), th)
						if want := s.ref.find(psi, pkey) >= 0; got != want {
							t.Fatalf("op %d: %s TLB page %d thread %d resident=%v, reference %v", i/2, s.real.Name(), p, th, got, want)
						}
					}
					for _, c := range caches {
						got := c.real.Contains(arch.Addr(p)<<arch.BlockBits, th)
						if want := c.ref.find(psi, pkey) >= 0; got != want {
							t.Fatalf("op %d: %s cache block %d thread %d resident=%v, reference %v", i/2, c.real.Name(), p, th, got, want)
						}
					}
				}
			}
		}
	})
}
