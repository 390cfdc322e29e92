package replacement_test

import (
	"slices"
	"testing"

	"itpsim/internal/arch"
	"itpsim/internal/cache"
	"itpsim/internal/config"
	"itpsim/internal/replacement"
)

// The tests in this file drive policies through cache.Cache, which owns
// the fill protocol: the deepest invalid way of a set first, the policy's
// Victim only once the set is full.

type flatLevel struct{}

func (flatLevel) Access(now uint64, _ *arch.Access) uint64 { return now + 10 }

// fillRecorder is LRU except that fills leave their way where it is; it
// records the stack position of every way the cache fills and counts the
// victims it is asked for.
type fillRecorder struct {
	replacement.LRU
	filled  []int
	victims int
}

func (r *fillRecorder) Victim(si int, set []replacement.Line, st *replacement.Stack, in *arch.Access) int {
	r.victims++
	return r.LRU.Victim(si, set, st, in)
}

func (r *fillRecorder) OnFill(si int, _ []replacement.Line, st *replacement.Stack, way int, _ *arch.Access) {
	r.filled = append(r.filled, st.Pos(si, way))
}

func load(block int) *arch.Access {
	return &arch.Access{Addr: arch.Addr(block) << arch.BlockBits, Kind: arch.Load}
}

func TestInvalidWayPrefersDeepest(t *testing.T) {
	r := &fillRecorder{}
	c := cache.New("l2c", config.CacheConfig{Sets: 1, Ways: 4, Latency: 5, MSHRs: 4}, r, flatLevel{}, nil)
	c.Access(1000, load(0)) // way 3, the bottom
	c.Access(2000, load(1)) // way 2, now the deepest invalid way
	c.Access(3000, load(0)) // hit: way 3 to MRU, order 3 0 1 2
	c.Access(4000, load(2)) // deepest invalid: way 1 at position 2
	c.Access(5000, load(3)) // then way 0 at position 1
	if want := []int{3, 2, 2, 1}; !slices.Equal(r.filled, want) {
		t.Errorf("filled stack positions %v, want %v", r.filled, want)
	}
	if r.victims != 0 {
		t.Errorf("Victim ran %d times before the set was full", r.victims)
	}
	c.Access(6000, load(4))
	if r.victims != 1 {
		t.Errorf("Victim ran %d times for one fill into a full set, want 1", r.victims)
	}
}

func TestLRUPrefersInvalid(t *testing.T) {
	c := cache.New("l2c", config.CacheConfig{Sets: 1, Ways: 4, Latency: 5, MSHRs: 4},
		replacement.NewLRU(), flatLevel{}, nil)
	for i, b := range []int{0, 1, 2, 0, 1, 3} { // the last fill takes the last free way
		c.Access(uint64(i+1)*1000, load(b))
	}
	for b := 0; b < 4; b++ {
		if !c.Contains(load(b).Addr, 0) {
			t.Errorf("block %d evicted while the set had a free way", b)
		}
	}
	c.Access(7000, load(4)) // full: LRU evicts block 2
	if c.Contains(load(2).Addr, 0) || !c.Contains(load(4).Addr, 0) {
		t.Error("a fill into the full set should evict the LRU block 2")
	}
}

// TestColdFillTrainsPSEL checks that a fill into an empty leader set moves
// PSEL, through the real cache fill path: every miss in a leader set is a
// vote, whether or not the set had to evict. With 64 sets there are 8
// leaders per policy at stride 4: set 0 leads SRRIP (a miss raises PSEL)
// and set 4 leads BRRIP (a miss lowers it).
func TestColdFillTrainsPSEL(t *testing.T) {
	const sets = 64
	for _, tc := range []struct {
		name string
		mk   func() replacement.Policy
		acc  arch.Access
	}{
		{"drrip", func() replacement.Policy { return replacement.NewDRRIP(sets, 1) }, arch.Access{Kind: arch.Load}},
		{"tdrrip", func() replacement.Policy { return replacement.NewTDRRIP(sets, 1) }, arch.Access{Kind: arch.Load}},
		{"tdrrip-pte", func() replacement.Policy { return replacement.NewTDRRIP(sets, 1) },
			arch.Access{Kind: arch.PTW, IsPTE: true, Class: arch.DataClass}},
		{"tdrrip-stlb-miss", func() replacement.Policy { return replacement.NewTDRRIP(sets, 1) },
			arch.Access{Kind: arch.Load, STLBMiss: true}},
	} {
		pol := tc.mk()
		c := cache.New("l2c", config.CacheConfig{Sets: sets, Ways: 4, Latency: 5, MSHRs: 4}, pol, flatLevel{}, nil)
		start := replacement.PSEL(pol)
		acc := tc.acc
		acc.Addr = 0 << arch.BlockBits // set 0: SRRIP leader
		c.Access(0, &acc)
		if got := replacement.PSEL(pol); got != start+1 {
			t.Errorf("%s: cold fill into the SRRIP leader moved PSEL %d -> %d, want %d", tc.name, start, got, start+1)
		}
		acc = tc.acc
		acc.Addr = 4 << arch.BlockBits // set 4: BRRIP leader
		c.Access(1000, &acc)
		if got := replacement.PSEL(pol); got != start {
			t.Errorf("%s: cold fill into the BRRIP leader left PSEL at %d, want %d", tc.name, got, start)
		}
	}
}
