package core

import (
	"math/rand"
	"testing"

	"itpsim/internal/arch"
	"itpsim/internal/cache"
	"itpsim/internal/config"
	"itpsim/internal/replacement"
	"itpsim/internal/tlb"
)

// randomSet builds a full cache set with a random recency permutation and
// random data-PTE marking.
func randomSet(rng *rand.Rand, ways int, pteProb float64) ([]replacement.Line, *replacement.Stack) {
	set := make([]replacement.Line, ways)
	st := replacement.NewStack(1, ways)
	for pos, w := range rng.Perm(ways) {
		st.Move(0, w, pos)
	}
	for i := range set {
		set[i] = replacement.Line{
			Valid:     true,
			Tag:       uint64(i),
			IsDataPTE: rng.Float64() < pteProb,
		}
	}
	return set, st
}

// TestXPTPVictimProperties checks Figure 6's eviction rules hold on
// randomly generated sets for every K:
//
//   - the victim is always a valid way index;
//   - when the victim is not the true-LRU block, it never holds a data
//     PTE and sits fewer than K positions above the stack bottom;
//   - when the victim IS the true-LRU block despite a non-data-PTE
//     alternative existing, that alternative was >= K positions up.
func TestXPTPVictimProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, k := range []int{1, 2, 4, 8, 16} {
		pol := NewXPTP(config.XPTPParams{K: k})
		for trial := 0; trial < 2000; trial++ {
			ways := 4 << rng.Intn(3) // 4, 8, 16
			set, st := randomSet(rng, ways, rng.Float64())
			v := pol.Victim(0, set, st, nil)
			if v < 0 || v >= ways {
				t.Fatalf("K=%d: victim %d out of range", k, v)
			}

			lru, lruDepth := -1, -1
			alt, altDepth := -1, -1
			for i := range set {
				pos := st.Pos(0, i)
				if pos > lruDepth {
					lru, lruDepth = i, pos
				}
				if !set[i].IsDataPTE && pos > altDepth {
					alt, altDepth = i, pos
				}
			}
			altFromBottom := (ways - 1) - altDepth
			switch {
			case v == lru:
				// LRU eviction is only allowed when no alternative
				// exists or the alternative is too recent (>= K up).
				if alt >= 0 && alt != lru && altFromBottom < k {
					t.Fatalf("K=%d ways=%d: evicted LRU (data-PTE=%v) though alt at %d positions up",
						k, ways, set[lru].IsDataPTE, altFromBottom)
				}
			default:
				if set[v].IsDataPTE {
					t.Fatalf("K=%d: alternative victim holds a data PTE", k)
				}
				if v != alt {
					t.Fatalf("K=%d: skipped past the deepest non-data-PTE block", k)
				}
				if altFromBottom >= k {
					t.Fatalf("K=%d: alternative %d positions up exceeds the skip budget", k, altFromBottom)
				}
			}
		}
	}
}

// TestXPTPPrefersInvalidWay checks that a cache running xPTP fills a
// free way whenever its set has one, however the data PTEs and the
// recency order are arranged: xPTP's victim rule only sees full sets.
func TestXPTPPrefersInvalidWay(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	geom := config.CacheConfig{Sets: 1, Ways: 8, Latency: 5, MSHRs: 4}
	for trial := 0; trial < 500; trial++ {
		c := cache.New("l2c", geom, NewXPTP(config.XPTPParams{K: 8}), flatLevel{}, nil)
		n := 1 + rng.Intn(geom.Ways)
		now := uint64(0)
		for b := 0; b < n; b++ {
			for _, blk := range []int{b, rng.Intn(b + 1)} { // fill, then reorder with a hit
				now += 1000
				acc := arch.Access{Addr: arch.Addr(blk) << arch.BlockBits, Kind: arch.Load}
				if rng.Intn(2) == 0 {
					acc.Kind, acc.IsPTE, acc.Class = arch.PTW, true, arch.DataClass
				}
				c.Access(now, &acc)
			}
		}
		for b := 0; b < n; b++ {
			if !c.Contains(arch.Addr(b)<<arch.BlockBits, 0) {
				t.Fatalf("trial %d: block %d evicted though the set had a free way for each of %d blocks", trial, b, n)
			}
		}
	}
}

// TestAdaptiveXPTPDisabledIsLRU checks the Section 4.3.1 degeneration:
// with the enable signal low, xPTP's victim is exactly the true-LRU way
// on any set, data PTE or not.
func TestAdaptiveXPTPDisabledIsLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	enabled := false
	pol := NewAdaptiveXPTP(config.XPTPParams{K: 8}, func() bool { return enabled })
	for trial := 0; trial < 1000; trial++ {
		set, st := randomSet(rng, 8, 0.7)
		want := st.LRU(0)
		if v := pol.Victim(0, set, st, nil); v != want {
			t.Fatalf("disabled xPTP chose %d, plain LRU chooses %d", v, want)
		}
	}
	// Flipping the signal re-engages protection on the same sets.
	enabled = true
	protective := false
	for trial := 0; trial < 1000; trial++ {
		set, st := randomSet(rng, 8, 0.7)
		if pol.Victim(0, set, st, nil) != st.LRU(0) {
			protective = true
			break
		}
	}
	if !protective {
		t.Fatal("enabled xPTP never deviated from LRU across 1000 random sets")
	}
}

// itpModel drives the iTP policy through a single fully-associative TLB
// set with the simulator's miss/fill protocol: the deepest invalid way
// first, the policy's victim once the set is full.
type itpModel struct {
	p   *ITP
	set []tlb.Entry
	st  *replacement.Stack
}

func (m *itpModel) full() bool {
	for i := range m.set {
		if !m.set[i].Valid {
			return false
		}
	}
	return true
}

func (m *itpModel) touch(vpn uint64, class arch.Class) {
	req := &tlb.Request{VPN: vpn, Class: class}
	for i := range m.set {
		if m.set[i].Valid && m.set[i].VPN == vpn {
			m.p.OnHit(0, m.set, m.st, i, req)
			return
		}
	}
	way := -1
	order := m.st.Order(0)
	for pos := len(order) - 1; pos >= 0 && way < 0; pos-- {
		if !m.set[order[pos]].Valid {
			way = int(order[pos])
		}
	}
	if way < 0 {
		way = m.p.Victim(0, m.set, m.st, req)
	}
	m.set[way] = tlb.Entry{Valid: true, VPN: vpn, Class: class}
	m.p.OnFill(0, m.set, m.st, way, req)
}

// TestITPVictimClassProperty checks the Section 4.1 victim behaviour over
// random mixed streams: the victim of a full set is always the
// deepest-stacked entry (plain LRU eviction), and — because data inserts
// at LRUpos while instruction entries insert N below MRU — an
// instruction entry is never victimised while a valid data entry sits
// deeper in the stack.
func TestITPVictimClassProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	p := NewITP(config.Default().ITP)
	m := &itpModel{p: p, set: make([]tlb.Entry, 16), st: replacement.NewStack(1, 16)}
	for step := 0; step < 20000; step++ {
		vpn := uint64(rng.Intn(48) + 1)
		class := arch.DataClass
		if rng.Intn(3) == 0 {
			class = arch.InstrClass
		}

		if m.full() {
			v := p.Victim(0, m.set, m.st, &tlb.Request{VPN: vpn, Class: class})
			if deepest := m.st.LRU(0); v != deepest {
				t.Fatalf("step %d: victim %d (stack %d) is not the LRU entry %d",
					step, v, m.st.Pos(0, v), deepest)
			}
			if m.set[v].Class == arch.InstrClass {
				for i := range m.set {
					if m.set[i].Class == arch.DataClass && m.st.Pos(0, i) > m.st.Pos(0, v) {
						t.Fatalf("step %d: victimised instruction entry above a data entry", step)
					}
				}
			}
		}

		m.touch(vpn, class)
		if !m.st.IsPermutation(0) {
			t.Fatalf("step %d: stack invariant broken", step)
		}
	}
}

// TestITPInsertionPositions pins the Figure 5 insertion/promotion stack
// positions directly.
func TestITPInsertionPositions(t *testing.T) {
	params := config.Default().ITP
	p := NewITP(params)
	const ways = 16
	set := make([]tlb.Entry, ways)
	st := replacement.NewStack(1, ways)
	for i := range set {
		set[i].Valid = true
		set[i].VPN = uint64(i + 1)
		set[i].Class = arch.DataClass
	}

	// Data fill lands at LRUpos.
	p.OnFill(0, set, st, 3, &tlb.Request{Class: arch.DataClass})
	if got := st.Pos(0, 3); got != ways-1 {
		t.Fatalf("data fill at stack %d, want LRUpos %d", got, ways-1)
	}
	// Instruction fill lands N below MRU with Freq reset.
	set[5].Freq = 3
	set[5].Class = arch.InstrClass
	p.OnFill(0, set, st, 5, &tlb.Request{Class: arch.InstrClass})
	if got := st.Pos(0, 5); got != params.N {
		t.Fatalf("instruction fill at stack %d, want N=%d", got, params.N)
	}
	if set[5].Freq != 0 {
		t.Fatalf("instruction fill kept Freq=%d, want reset", set[5].Freq)
	}
	// Non-saturated instruction hit repromotes to N and increments Freq.
	p.OnHit(0, set, st, 5, &tlb.Request{Class: arch.InstrClass})
	if got := st.Pos(0, 5); got != params.N {
		t.Fatalf("instruction hit at stack %d, want N=%d", got, params.N)
	}
	if set[5].Freq != 1 {
		t.Fatalf("instruction hit Freq=%d, want 1", set[5].Freq)
	}
	// Saturated instruction hit reaches MRU.
	set[5].Freq = uint8(1<<params.FreqBits - 1)
	p.OnHit(0, set, st, 5, &tlb.Request{Class: arch.InstrClass})
	if got := st.Pos(0, 5); got != 0 {
		t.Fatalf("saturated instruction hit at stack %d, want MRU", got)
	}
	// Data hit moves to LRUpos+M.
	p.OnHit(0, set, st, 7, &tlb.Request{Class: arch.DataClass})
	if got, want := st.Pos(0, 7), ways-1-params.M; got != want {
		t.Fatalf("data hit at stack %d, want LRUpos+M=%d", got, want)
	}
}
