package replacement

import (
	"math/rand"
	"testing"

	"itpsim/internal/arch"
)

// victimOf picks the way a miss in set si fills, the way cache.Cache
// does: the deepest invalid way, else the policy's victim, which is told
// of its eviction.
func victimOf(p Policy, si int, set []Line, st *Stack, acc *arch.Access) int {
	order := st.Order(si)
	for pos := len(order) - 1; pos >= 0; pos-- {
		if w := int(order[pos]); !set[w].Valid {
			return w
		}
	}
	way := p.Victim(si, set, st, acc)
	p.OnEvict(si, set, way)
	return way
}

// setModel is a minimal fully-associative cache set driven through the
// Policy interface — the harness the property tests exercise policies
// against, independent of the cache machinery.
type setModel struct {
	p   Policy
	set []Line
	st  *Stack
}

func newSetModel(p Policy, ways int) *setModel {
	return &setModel{p: p, set: make([]Line, ways), st: NewStack(1, ways)}
}

// access touches tag, filling on miss exactly like cache.Cache does.
func (m *setModel) access(tag uint64) {
	acc := &arch.Access{Addr: arch.Addr(tag << 6)}
	for i := range m.set {
		if m.set[i].Valid && m.set[i].Tag == tag {
			m.p.OnHit(0, m.set, m.st, i, acc)
			return
		}
	}
	way := victimOf(m.p, 0, m.set, m.st, acc)
	m.set[way] = Line{Valid: true, Tag: tag}
	m.p.OnFill(0, m.set, m.st, way, acc)
}

func (m *setModel) contains(tag uint64) bool {
	for i := range m.set {
		if m.set[i].Valid && m.set[i].Tag == tag {
			return true
		}
	}
	return false
}

// TestLRUStackInclusion checks the defining property of stack algorithms
// (Mattson et al.): under any access stream, the contents of a smaller
// LRU cache are a subset of a larger one's. A policy bug that breaks
// recency ordering almost always breaks inclusion.
func TestLRUStackInclusion(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		small := newSetModel(NewLRU(), 4)
		large := newSetModel(NewLRU(), 8)
		for step := 0; step < 2000; step++ {
			tag := uint64(rng.Intn(24)) // working set ~3x the small cache
			small.access(tag)
			large.access(tag)
			if !small.st.IsPermutation(0) || !large.st.IsPermutation(0) {
				t.Fatalf("trial %d step %d: stack invariant broken", trial, step)
			}
			for i := range small.set {
				if small.set[i].Valid && !large.contains(small.set[i].Tag) {
					t.Fatalf("trial %d step %d: tag %d in 4-way but not 8-way LRU (inclusion violated)",
						trial, step, small.set[i].Tag)
				}
			}
		}
	}
}

// TestPoliciesPreserveStackInvariant fuzzes every stack-based baseline
// with random hit/miss streams and checks the position permutation never
// corrupts, and Victim never points outside the set.
func TestPoliciesPreserveStackInvariant(t *testing.T) {
	for _, name := range []string{"lru", "random", "ptp", "emissary"} {
		name := name
		t.Run(name, func(t *testing.T) {
			p, err := FromName(name, 1, 8, 42)
			if err != nil {
				t.Fatal(err)
			}
			m := newSetModel(p, 8)
			rng := rand.New(rand.NewSource(7))
			for step := 0; step < 5000; step++ {
				m.access(uint64(rng.Intn(20)))
				if !m.st.IsPermutation(0) {
					t.Fatalf("step %d: stack invariant broken", step)
				}
			}
		})
	}
}

// TestVictimAlwaysInRange drives every named policy (stack-based or not)
// through random streams, asserting Victim stays in [0, ways) — the
// contract the cache indexes with, unchecked at runtime.
func TestVictimAlwaysInRange(t *testing.T) {
	names := []string{"lru", "random", "srrip", "brrip", "drrip", "ship",
		"mockingjay", "hawkeye", "ptp", "tdrrip", "tship", "emissary"}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			const ways = 8
			p, err := FromName(name, 16, ways, 99)
			if err != nil {
				t.Fatal(err)
			}
			set, st := newSet(ways)
			rng := rand.New(rand.NewSource(3))
			for step := 0; step < 3000; step++ {
				tag := uint64(rng.Intn(32))
				acc := &arch.Access{Addr: arch.Addr(tag << 6), PC: uint64(rng.Intn(8) * 4)}
				hit := -1
				for i := range set {
					if set[i].Valid && set[i].Tag == tag {
						hit = i
						break
					}
				}
				if hit >= 0 {
					p.OnHit(0, set, st, hit, acc)
					continue
				}
				way := victimOf(p, 0, set, st, acc)
				if way < 0 || way >= ways {
					t.Fatalf("step %d: victim %d out of range [0,%d)", step, way, ways)
				}
				set[way] = Line{
					Valid: true, Tag: tag,
					RRPV: set[way].RRPV, Sig: set[way].Sig, ETA: set[way].ETA,
					IsPTE:     rng.Intn(8) == 0,
					IsDataPTE: rng.Intn(16) == 0,
					STLBMiss:  rng.Intn(4) == 0,
				}
				p.OnFill(0, set, st, way, acc)
			}
		})
	}
}
