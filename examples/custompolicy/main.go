// Custompolicy: the library is extensible — replacement policies are
// plain interfaces. This example implements a new cache replacement
// policy ("FIFO-PTE": FIFO insertion order, but PTE blocks get a second
// chance) against the replacement.Policy interface and races it against
// LRU and xPTP on a raw cache model, outside the full machine.
package main

import (
	"fmt"

	"itpsim/internal/arch"
	"itpsim/internal/cache"
	"itpsim/internal/config"
	"itpsim/internal/core"
	"itpsim/internal/replacement"
)

// fifoPTE evicts in insertion order, except that a PTE block at the head
// of the queue gets one second chance (moved back to the tail).
type fifoPTE struct{}

func (*fifoPTE) Name() string { return "fifo-pte" }

// Victim runs only on a full set: the cache itself fills invalid ways
// first.
func (*fifoPTE) Victim(si int, set []replacement.Line, stack *replacement.Stack, _ *arch.Access) int {
	// Oldest = bottom of the stack (we reuse the recency stack as a FIFO
	// queue by never promoting on hits).
	victim := stack.LRU(si)
	if set[victim].IsPTE && !set[victim].Reused {
		// Second chance: recycle to the tail once.
		set[victim].Reused = true
		stack.Move(si, victim, 0)
		return stack.LRU(si)
	}
	return victim
}

func (*fifoPTE) OnFill(si int, set []replacement.Line, stack *replacement.Stack, way int, _ *arch.Access) {
	set[way].Reused = false
	stack.Move(si, way, 0) // enqueue at tail of FIFO
}

func (*fifoPTE) OnHit(int, []replacement.Line, *replacement.Stack, int, *arch.Access) {} // FIFO: hits don't promote

func (*fifoPTE) OnEvict(int, []replacement.Line, int) {}

// fixedMemory is a 200-cycle constant-latency backing store.
type fixedMemory struct{ accesses int }

func (f *fixedMemory) Access(now uint64, _ *arch.Access) uint64 {
	f.accesses++
	return now + 200
}

// drive replays a synthetic access mix against one cache: a hot working
// set, a scan, and periodic PTE walks, then reports hit rates.
func drive(pol replacement.Policy) (demandHits, demandTotal, pteHits, pteTotal, backing int) {
	mem := &fixedMemory{}
	c := cache.New("L2C", config.CacheConfig{Sets: 256, Ways: 8, Latency: 5, MSHRs: 16},
		pol, mem, nil)

	rng := uint64(42)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	now := uint64(0)
	for i := 0; i < 400000; i++ {
		now += 3
		switch {
		case i%37 == 0: // page-walk reference to a small PTE region
			addr := arch.Addr(0x7000000 + next(512)*64)
			hit := c.Contains(addr, 0)
			acc := arch.Access{Addr: addr, Kind: arch.PTW, Class: arch.DataClass, IsPTE: true}
			c.Access(now, &acc)
			pteTotal++
			if hit {
				pteHits++
			}
		case i%5 == 0: // streaming scan
			acc := arch.Access{Addr: arch.Addr(0x9000000 + i*64), Kind: arch.Load, PC: 0x20}
			c.Access(now, &acc)
		default: // hot working set slightly larger than the cache
			addr := arch.Addr(0x1000000 + next(2600)*64)
			hit := c.Contains(addr, 0)
			acc := arch.Access{Addr: addr, Kind: arch.Load, PC: 0x10}
			c.Access(now, &acc)
			demandTotal++
			if hit {
				demandHits++
			}
		}
	}
	backing = mem.accesses
	return
}

func main() {
	fmt.Println("custom policy demo: 256-set x 8-way cache, hot set + scan + PTE walks")
	fmt.Printf("\n%-10s %12s %12s %14s\n", "policy", "demand-hit%", "PTE-hit%", "mem accesses")
	for _, p := range []replacement.Policy{
		replacement.NewLRU(),
		core.NewXPTP(config.Default().XPTP),
		&fifoPTE{},
	} {
		dh, dt, ph, pt, mem := drive(p)
		fmt.Printf("%-10s %11.1f%% %11.1f%% %14d\n",
			p.Name(), 100*float64(dh)/float64(dt), 100*float64(ph)/float64(pt), mem)
	}
	fmt.Println("\nxPTP keeps the PTE region resident (high PTE hit rate); the custom")
	fmt.Println("FIFO second-chance policy lands in between — swap in your own policy")
	fmt.Println("by implementing the four methods of replacement.Policy.")
}
