package replacement

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"itpsim/internal/arch"
)

// newSet returns one empty set and its recency stack, way i at position i.
func newSet(ways int) ([]Line, *Stack) {
	return make([]Line, ways), NewStack(1, ways)
}

func fillAll(set []Line) {
	for i := range set {
		set[i].Valid = true
		set[i].Tag = uint64(1000 + i)
	}
}

func TestInitSetInvariant(t *testing.T) {
	for _, ways := range []int{1, 2, 8, 12, 16, 256} {
		st := NewStack(4, ways)
		for si := 0; si < 4; si++ {
			if !st.IsPermutation(si) {
				t.Errorf("ways=%d set %d: a fresh stack is not a permutation", ways, si)
			}
			for pos, w := range st.Order(si) {
				if int(w) != pos {
					t.Errorf("ways=%d set %d: position %d holds way %d, want way i at position i", ways, si, pos, w)
				}
			}
		}
	}
}

func TestMoveToStackPos(t *testing.T) {
	st := NewStack(2, 4) // order: 0,1,2,3
	st.Move(1, 3, 0)
	if got := st.Order(1); !slices.Equal(got, []uint8{3, 0, 1, 2}) {
		t.Errorf("upward move: order %v, want [3 0 1 2]", got)
	}
	if !slices.Equal(st.Order(0), []uint8{0, 1, 2, 3}) {
		t.Errorf("move in set 1 changed set 0: %v", st.Order(0))
	}
	// Move down: way3 (pos 0) to pos 2.
	st.Move(1, 3, 2)
	if got := st.Order(1); !slices.Equal(got, []uint8{0, 1, 3, 2}) {
		t.Errorf("downward move: order %v, want [0 1 3 2]", got)
	}
	// No-op move.
	st.Move(1, 3, 2)
	if got := st.Order(1); !slices.Equal(got, []uint8{0, 1, 3, 2}) {
		t.Errorf("no-op move: order %v, want [0 1 3 2]", got)
	}
	if st.LRU(1) != 2 {
		t.Errorf("LRU = %d, want way 2", st.LRU(1))
	}
}

// Property: arbitrary sequences of moves preserve the permutation
// invariant, and each move puts its way where it was asked to.
func TestMoveInvariantProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		st := NewStack(3, 12)
		for _, op := range ops {
			si := int(op) % 3
			way := int(op) % 12
			pos := int(op>>4) % 12
			st.Move(si, way, pos)
			if !st.IsPermutation(si) || st.Pos(si, way) != pos {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStackPosOf(t *testing.T) {
	st := NewStack(1, 4)
	st.Move(0, 2, 0)
	for pos, w := range st.Order(0) {
		if got := st.Pos(0, int(w)); got != pos {
			t.Errorf("Pos(way %d) = %d, want %d", w, got, pos)
		}
	}
	st.Order(0)[1] = 9 // corrupt: way 9 does not exist, way 0 is missing
	if st.IsPermutation(0) {
		t.Error("a corrupted order must not pass as a permutation")
	}
}

func TestLRUBehaviour(t *testing.T) {
	p := NewLRU()
	set, st := newSet(4)
	fillAll(set)
	acc := &arch.Access{Kind: arch.Load}
	// Touch ways in order 0,1,2,3: way 0 becomes LRU.
	for w := 0; w < 4; w++ {
		p.OnHit(0, set, st, w, acc)
	}
	if v := p.Victim(0, set, st, acc); v != 0 {
		t.Errorf("LRU victim = %d, want 0", v)
	}
	p.OnFill(0, set, st, 0, acc)
	if st.Pos(0, 0) != 0 {
		t.Error("fill should move to MRU")
	}
	if v := p.Victim(0, set, st, acc); v != 1 {
		t.Errorf("next victim = %d, want 1", v)
	}
}

func TestRandomDeterministic(t *testing.T) {
	set, st := newSet(8)
	fillAll(set)
	a := NewRandom(42)
	b := NewRandom(42)
	for i := 0; i < 50; i++ {
		if a.Victim(0, set, st, nil) != b.Victim(0, set, st, nil) {
			t.Fatal("same seed should give same victims")
		}
	}
}

func TestRandomCoversWays(t *testing.T) {
	set, st := newSet(4)
	fillAll(set)
	p := NewRandom(7)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		seen[p.Victim(0, set, st, nil)] = true
	}
	if len(seen) != 4 {
		t.Errorf("random victims covered %d/4 ways", len(seen))
	}
}

func TestSRRIP(t *testing.T) {
	p := NewSRRIP()
	set, st := newSet(4)
	fillAll(set)
	acc := &arch.Access{Kind: arch.Load, PC: 100}
	for w := range set {
		p.OnFill(0, set, st, w, acc)
	}
	// All at long (2); victim search ages everyone to 3 and picks way 0.
	if v := p.Victim(0, set, st, acc); v != 0 {
		t.Errorf("victim = %d, want 0", v)
	}
	if set[1].RRPV != rrpvMax {
		t.Errorf("aging did not raise RRPVs: %d", set[1].RRPV)
	}
	p.OnHit(0, set, st, 2, acc)
	if set[2].RRPV != rrpvNear {
		t.Error("hit should reset RRPV")
	}
	// Now way 2 is protected; victim must not be 2.
	if v := p.Victim(0, set, st, acc); v == 2 {
		t.Error("protected way evicted")
	}
}

func TestBRRIPMostlyDistant(t *testing.T) {
	p := NewBRRIP(1)
	set, st := newSet(4)
	fillAll(set)
	acc := &arch.Access{}
	distant := 0
	for i := 0; i < 1000; i++ {
		p.OnFill(0, set, st, 0, acc)
		if set[0].RRPV == rrpvMax {
			distant++
		}
	}
	if distant < 900 {
		t.Errorf("BRRIP distant insertions = %d/1000, want >900", distant)
	}
	if distant == 1000 {
		t.Error("BRRIP should occasionally insert long")
	}
}

func TestDuelLeadersDisjoint(t *testing.T) {
	d := newDuel(1024)
	for s := range d.leaderA {
		if d.leaderB[s] {
			t.Fatalf("set %d leads both policies", s)
		}
	}
	if len(d.leaderA) == 0 || len(d.leaderB) == 0 {
		t.Fatal("no leader sets")
	}
}

func TestDuelPSELMovement(t *testing.T) {
	d := newDuel(1024)
	var aLeader, bLeader int
	for s := range d.leaderA {
		aLeader = s
		break
	}
	for s := range d.leaderB {
		bLeader = s
		break
	}
	start := d.psel
	d.onMiss(aLeader)
	if d.psel != start+1 {
		t.Error("miss in A-leader should increment PSEL")
	}
	d.onMiss(bLeader)
	if d.psel != start {
		t.Error("miss in B-leader should decrement PSEL")
	}
	// Saturate low: followers should use A.
	for i := 0; i < 2000; i++ {
		d.onMiss(bLeader)
	}
	if d.psel != 0 {
		t.Errorf("PSEL should saturate at 0, got %d", d.psel)
	}
	follower := 3 // not a leader with stride 16
	if d.leaderA[follower] || d.leaderB[follower] {
		t.Skip("set 3 unexpectedly a leader")
	}
	if !d.useA(follower) {
		t.Error("PSEL=0 followers should use policy A")
	}
}

func TestDRRIPFollowsWinner(t *testing.T) {
	p := NewDRRIP(64, 3)
	set, st := newSet(4)
	fillAll(set)
	acc := &arch.Access{}
	// Force PSEL to favour SRRIP (policy A) by missing in B leaders.
	var bLeader int
	for s := range p.duel.leaderB {
		bLeader = s
		break
	}
	for i := 0; i < 2000; i++ {
		p.duel.onMiss(bLeader)
	}
	follower := -1
	for s := 0; s < 64; s++ {
		if !p.duel.leaderA[s] && !p.duel.leaderB[s] {
			follower = s
			break
		}
	}
	if follower == -1 {
		t.Fatal("no follower set found")
	}
	p.OnFill(follower, set, st, 0, acc)
	if set[0].RRPV != rrpvLong {
		t.Errorf("follower should use SRRIP insertion, got RRPV %d", set[0].RRPV)
	}
}

func TestTDRRIPProtectsPTEs(t *testing.T) {
	p := NewTDRRIP(64, 9)
	set, st := newSet(4)
	fillAll(set)
	acc := &arch.Access{Kind: arch.PTW}
	set[1].IsPTE = true
	p.OnFill(0, set, st, 1, acc)
	if set[1].RRPV != rrpvNear {
		t.Errorf("PTE insertion RRPV = %d, want %d", set[1].RRPV, rrpvNear)
	}
	// Demand block that missed the STLB inserts distant.
	set[2].STLBMiss = true
	set[2].IsPTE = false
	p.OnFill(0, set, st, 2, &arch.Access{Kind: arch.Load})
	if set[2].RRPV != rrpvMax {
		t.Errorf("STLB-miss insertion RRPV = %d, want %d", set[2].RRPV, rrpvMax)
	}
	// Victim prefers the STLB-miss block over the PTE block.
	if v := p.Victim(0, set, st, &arch.Access{}); v != 2 {
		t.Errorf("victim = %d, want the STLB-miss block 2", v)
	}
}

func TestTDRRIPAllPTEsStillEvicts(t *testing.T) {
	p := NewTDRRIP(64, 9)
	set, st := newSet(4)
	fillAll(set)
	for i := range set {
		set[i].IsPTE = true
		set[i].RRPV = rrpvNear
	}
	v := p.Victim(0, set, st, &arch.Access{})
	if v < 0 || v >= 4 {
		t.Fatalf("victim out of range: %d", v)
	}
}

func TestSHiPLearnsDeadSignatures(t *testing.T) {
	p := NewSHiP(64, 5)
	set, st := newSet(4)
	fillAll(set)
	deadPC := uint64(0xdead00)
	acc := &arch.Access{Kind: arch.Load, PC: deadPC}
	// Repeatedly fill and evict without reuse: counter should reach 0.
	for i := 0; i < 10; i++ {
		p.OnFill(0, set, st, 0, acc)
		p.OnEvict(0, set, 0)
	}
	p.OnFill(0, set, st, 0, acc)
	if set[0].RRPV != rrpvMax {
		t.Errorf("dead signature should insert distant, got RRPV %d", set[0].RRPV)
	}
	// Now train reuse: hit after fill.
	for i := 0; i < 10; i++ {
		p.OnFill(0, set, st, 0, acc)
		p.OnHit(0, set, st, 0, acc)
	}
	p.OnFill(0, set, st, 0, acc)
	if set[0].RRPV != rrpvLong {
		t.Errorf("reused signature should insert long, got RRPV %d", set[0].RRPV)
	}
}

func TestSHiPHitTrainsOnce(t *testing.T) {
	p := NewSHiP(64, 5)
	set, st := newSet(2)
	fillAll(set)
	acc := &arch.Access{PC: 0x1234}
	p.OnFill(0, set, st, 0, acc)
	sig := set[0].Sig
	before := p.shct[sig]
	p.OnHit(0, set, st, 0, acc)
	p.OnHit(0, set, st, 0, acc)
	p.OnHit(0, set, st, 0, acc)
	if p.shct[sig] != before+1 {
		t.Errorf("multiple hits should train once: %d -> %d", before, p.shct[sig])
	}
}

func TestMockingjayVictimIsFarthest(t *testing.T) {
	p := NewMockingjay(64, 4)
	set, st := newSet(4)
	fillAll(set)
	p.clock = 100
	set[0].ETA = 110
	set[1].ETA = 500 // farthest future
	set[2].ETA = 120
	set[3].ETA = 105
	if v := p.Victim(0, set, st, nil); v != 1 {
		t.Errorf("victim = %d, want 1 (farthest ETA)", v)
	}
}

func TestMockingjayPrefersOverdue(t *testing.T) {
	p := NewMockingjay(64, 4)
	set, st := newSet(4)
	fillAll(set)
	p.clock = 10000
	// Way 2 is long overdue (predicted reuse never happened).
	set[0].ETA = 10010
	set[1].ETA = 10020
	set[2].ETA = 100
	set[3].ETA = 10005
	if v := p.Victim(0, set, st, nil); v != 2 {
		t.Errorf("victim = %d, want overdue way 2", v)
	}
}

func TestMockingjayTrains(t *testing.T) {
	p := NewMockingjay(64, 4)
	sig := p.signature(0xabc)
	start := p.pred[sig]
	// Train toward a small reuse distance.
	for i := 0; i < 50; i++ {
		p.train(sig, 10)
	}
	if p.pred[sig] >= start {
		t.Errorf("training down failed: %d -> %d", start, p.pred[sig])
	}
	for i := 0; i < 200; i++ {
		p.train(sig, -1) // scans
	}
	if p.pred[sig] < p.maxRD/2 {
		t.Errorf("scan training should push prediction up: %d", p.pred[sig])
	}
}

func TestMockingjaySamplerBounded(t *testing.T) {
	p := NewMockingjay(64, 4)
	for i := 0; i < 3*mjSamplerCap; i++ {
		p.clock++
		p.sample(0, uint64(i)*64, uint64(i))
	}
	if len(p.sampler) > mjSamplerCap {
		t.Errorf("sampler grew to %d (> %d)", len(p.sampler), mjSamplerCap)
	}
}

func TestMockingjaySamplerObservesReuse(t *testing.T) {
	p := NewMockingjay(64, 4)
	pc := uint64(0x4040)
	sig := p.signature(pc)
	p.clock = 1
	p.sample(0, 0x1000, pc)
	p.clock = 21
	p.sample(0, 0x1000, pc) // reuse distance 20
	want := p.maxRD/2 + (20-p.maxRD/2)/4
	if p.pred[sig] != want {
		t.Errorf("pred = %d, want %d", p.pred[sig], want)
	}
}

func TestPTPProtectsAllPTEs(t *testing.T) {
	p := NewPTP()
	set, st := newSet(4)
	fillAll(set)
	set[0].IsPTE = true
	set[0].IsDataPTE = true
	set[3].IsPTE = true
	// Recency order: touch 1 then 2 → way at stack bottom among non-PTE.
	acc := &arch.Access{}
	p.OnHit(0, set, st, 2, acc)
	p.OnHit(0, set, st, 1, acc)
	v := p.Victim(0, set, st, acc)
	if set[v].IsPTE {
		t.Errorf("PTP evicted a PTE block (way %d)", v)
	}
	if v != 2 {
		t.Errorf("victim = %d, want LRU non-PTE way 2", v)
	}
}

func TestPTPAllPTEFallsBackToLRU(t *testing.T) {
	p := NewPTP()
	set, st := newSet(4)
	fillAll(set)
	for i := range set {
		set[i].IsPTE = true
	}
	v := p.Victim(0, set, st, nil)
	if st.Pos(0, v) != 3 {
		t.Errorf("all-PTE set should evict LRU, got stack %d", st.Pos(0, v))
	}
}

func TestFromName(t *testing.T) {
	names := []string{"lru", "random", "srrip", "brrip", "drrip", "ship", "mockingjay", "ptp", "tdrrip"}
	for _, n := range names {
		p, err := FromName(n, 64, 8, 1)
		if err != nil {
			t.Errorf("FromName(%q): %v", n, err)
			continue
		}
		if p.Name() != n {
			t.Errorf("FromName(%q).Name() = %q", n, p.Name())
		}
	}
	if _, err := FromName("belady", 64, 8, 1); err == nil {
		t.Error("unknown policy should error")
	}
}

// Property: every policy returns a victim inside the set and never panics
// under random operation sequences.
func TestPoliciesRobustUnderRandomOps(t *testing.T) {
	names := []string{"lru", "random", "srrip", "brrip", "drrip", "ship", "mockingjay", "hawkeye", "ptp", "tdrrip", "tship", "emissary"}
	for _, n := range names {
		p, err := FromName(n, 64, 8, 123)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(99))
		sets := make([][]Line, 64)
		for i := range sets {
			sets[i] = make([]Line, 8)
		}
		st := NewStack(64, 8)
		for op := 0; op < 5000; op++ {
			si := rng.Intn(64)
			set := sets[si]
			acc := &arch.Access{
				PC:       uint64(rng.Intn(1000)) * 4,
				Kind:     arch.Kind(rng.Intn(4)),
				Class:    arch.Class(rng.Intn(2)),
				IsPTE:    rng.Intn(4) == 0,
				STLBMiss: rng.Intn(4) == 0,
			}
			v := victimOf(p, si, set, st, acc)
			if v < 0 || v >= 8 {
				t.Fatalf("%s: victim %d out of range", n, v)
			}
			set[v].Valid = true
			set[v].Tag = uint64(rng.Intn(500))
			set[v].IsPTE = acc.IsPTE
			set[v].IsDataPTE = acc.IsPTE && acc.Class == arch.DataClass
			set[v].STLBMiss = acc.STLBMiss
			set[v].Reused = false
			p.OnFill(si, set, st, v, acc)
			if rng.Intn(2) == 0 {
				p.OnHit(si, set, st, rng.Intn(8), acc)
			}
			if !st.IsPermutation(si) {
				t.Fatalf("%s: stack invariant broken at op %d", n, op)
			}
		}
	}
}
