// Package cache implements the set-associative cache levels of the
// hierarchy: tag arrays with exact recency stacks, MSHRs that merge and
// bound outstanding misses, write-back of dirty victims, prefetch fills,
// and the PTE Type-bit propagation xPTP relies on (an access that misses
// carries its Type through the MSHR and writes it into the filled block,
// step 3.1 of the paper's Figure 7).
package cache

import (
	"fmt"

	"itpsim/internal/arch"
	"itpsim/internal/config"
	"itpsim/internal/prefetch"
	"itpsim/internal/replacement"
	"itpsim/internal/stats"
)

// Level is anything that can serve a block request and report when the
// data is available: a Cache or the DRAM terminal.
type Level interface {
	//itp:hotpath
	Access(now uint64, acc *arch.Access) (done uint64)
}

// mshrEntry tracks one outstanding miss.
type mshrEntry struct {
	block   uint64
	thread  uint8
	valid   bool
	readyAt uint64
}

// Cache is one set-associative cache level.
type Cache struct {
	name    string
	cfg     config.CacheConfig
	sets    [][]replacement.Line
	stack   *replacement.Stack
	setMask uint64
	policy  replacement.Policy
	next    Level
	stats   *stats.Level
	mshrs   []mshrEntry

	prefetcher prefetch.Prefetcher
	// writebackFn lets dirty evictions consume downstream bandwidth
	// without the evicting access waiting on them.
	writebackFn func(now uint64, addr arch.Addr)

	// Writebacks counts dirty evictions; PrefetchIssued/PrefetchUseful
	// track prefetcher effectiveness. PTEEvictions/DataPTEEvictions count
	// evicted blocks holding any PTE and a data-translation PTE: the
	// eviction pressure xPTP is designed to relieve, and the signal its
	// per-window telemetry is built from.
	Writebacks       uint64
	PrefetchIssued   uint64
	PrefetchUseful   uint64
	PTEEvictions     uint64
	DataPTEEvictions uint64

	// pfAcc is the scratch access train hands to the prefetch path. Safe
	// to reuse across the recursive Access call: prefetch-kind accesses
	// never re-enter train, and no level retains the pointer.
	pfAcc arch.Access
}

// New creates a cache level. next is the level misses go to; st is the
// statistics sink (may be nil for throwaway caches in tests).
func New(name string, cfg config.CacheConfig, pol replacement.Policy, next Level, st *stats.Level) *Cache {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: sets must be a positive power of two, got %d", name, cfg.Sets))
	}
	c := &Cache{
		name:    name,
		cfg:     cfg,
		sets:    make([][]replacement.Line, cfg.Sets),
		stack:   replacement.NewStack(cfg.Sets, cfg.Ways),
		setMask: uint64(cfg.Sets - 1),
		policy:  pol,
		next:    next,
		stats:   st,
		mshrs:   make([]mshrEntry, cfg.MSHRs),
	}
	for i := range c.sets {
		c.sets[i] = make([]replacement.Line, cfg.Ways)
	}
	return c
}

// Name returns the cache's name.
func (c *Cache) Name() string { return c.name }

// Policy returns the replacement policy in use.
func (c *Cache) Policy() replacement.Policy { return c.policy }

// SetPrefetcher attaches a prefetcher trained by demand accesses.
func (c *Cache) SetPrefetcher(p prefetch.Prefetcher) { c.prefetcher = p }

// SetWriteback attaches the dirty-eviction sink (normally DRAM bandwidth).
func (c *Cache) SetWriteback(fn func(now uint64, addr arch.Addr)) { c.writebackFn = fn }

//itp:hotpath
func (c *Cache) setFor(block uint64) int { return int(block & c.setMask) }

// lookup returns (setIdx, way) with way == -1 on miss.
//
//itp:hotpath
func (c *Cache) lookup(block uint64, thread uint8) (int, int) {
	si := c.setFor(block)
	set := c.sets[si]
	for w := range set {
		// Tag first: it is the most discriminating field, so the common
		// non-matching way falls out after one compare.
		if set[w].Tag == block && set[w].Valid && set[w].Thread == thread {
			return si, w
		}
	}
	return si, -1
}

// Contains reports block residency without touching replacement state.
//
//itp:hotpath
func (c *Cache) Contains(addr arch.Addr, thread uint8) bool {
	_, w := c.lookup(arch.BlockNumber(addr), thread)
	return w >= 0
}

// record notes an access outcome in the statistics sink.
//
//itp:hotpath
func (c *Cache) record(acc *arch.Access, hit bool) {
	if c.stats != nil {
		c.stats.Record(stats.BucketFor(acc), hit)
	}
}

// mshrLookup returns an in-flight entry for block, or nil.
//
//itp:hotpath
func (c *Cache) mshrLookup(now uint64, block uint64, thread uint8) *mshrEntry {
	for i := range c.mshrs {
		e := &c.mshrs[i]
		if e.block == block && e.valid && e.thread == thread && e.readyAt > now {
			return e
		}
	}
	return nil
}

// mshrAllocate finds a free MSHR; if all are busy the miss must wait
// until the earliest completes (the returned start time).
//
//itp:hotpath
func (c *Cache) mshrAllocate(now uint64) (*mshrEntry, uint64) {
	var victim *mshrEntry
	earliest := ^uint64(0)
	for i := range c.mshrs {
		e := &c.mshrs[i]
		if !e.valid || e.readyAt <= now {
			return e, now
		}
		if e.readyAt < earliest {
			victim, earliest = e, e.readyAt
		}
	}
	return victim, earliest
}

// fill installs a block into the deepest invalid way of its set, or
// evicts a victim per policy when the set is full; returns the way.
//
//itp:hotpath
func (c *Cache) fill(si int, acc *arch.Access) int {
	set := c.sets[si]
	way := -1
	order := c.stack.Order(si)
	for pos := len(order) - 1; pos >= 0; pos-- {
		if w := int(order[pos]); !set[w].Valid {
			way = w
			break
		}
	}
	if way < 0 {
		way = c.policy.Victim(si, set, c.stack, acc)
		c.policy.OnEvict(si, set, way)
		if set[way].IsPTE {
			c.PTEEvictions++
		}
		if set[way].IsDataPTE {
			c.DataPTEEvictions++
		}
		if set[way].Dirty {
			c.Writebacks++
			if c.writebackFn != nil {
				//itp:nonalloc — bound at construction to DRAM.Writeback, which is allocation-free
				c.writebackFn(0, arch.Addr(set[way].Tag)<<arch.BlockBits)
			}
		}
	}
	set[way] = replacement.Line{
		Valid:      true,
		Tag:        acc.Addr >> arch.BlockBits,
		PC:         acc.PC,
		Kind:       acc.Kind,
		IsPTE:      acc.IsPTE,
		IsDataPTE:  acc.IsPTE && acc.Class == arch.DataClass,
		STLBMiss:   acc.STLBMiss && !acc.IsPTE,
		Thread:     acc.Thread,
		Prefetched: acc.Kind == arch.Prefetch,
		Dirty:      acc.Kind == arch.Store,
	}
	c.policy.OnFill(si, set, c.stack, way, acc)
	return way
}

// Access implements Level. It returns the cycle at which the block is
// available to the requester; demand misses are recorded with their
// observed latency.
//
//itp:hotpath
func (c *Cache) Access(now uint64, acc *arch.Access) uint64 {
	block := acc.Addr >> arch.BlockBits
	si, way := c.lookup(block, acc.Thread)
	hitTime := now + c.cfg.Latency

	if way >= 0 {
		set := c.sets[si]
		if acc.Kind == arch.Prefetch {
			// Prefetch into a resident block: nothing to do.
			return hitTime
		}
		// The block may be resident but still in flight (fills are
		// installed eagerly; the MSHR tracks when data actually
		// arrives). Such an access is a merged miss.
		if e := c.mshrLookup(now, block, acc.Thread); e != nil {
			c.record(acc, false)
			if c.stats != nil && acc.Kind.IsDemand() {
				c.stats.RecordMissLatency(e.readyAt - now)
			}
			if set[way].Prefetched {
				set[way].Prefetched = false
				c.PrefetchUseful++
			}
			if acc.Kind == arch.Store {
				set[way].Dirty = true
			}
			c.policy.OnHit(si, set, c.stack, way, acc)
			if e.readyAt > hitTime {
				return e.readyAt
			}
			return hitTime
		}
		c.record(acc, true)
		if set[way].Prefetched {
			set[way].Prefetched = false
			c.PrefetchUseful++
		}
		if acc.Kind == arch.Store {
			set[way].Dirty = true
		}
		c.policy.OnHit(si, set, c.stack, way, acc)
		c.train(now, acc)
		return hitTime
	}

	// Miss. Merge with an outstanding fill for the same block.
	if e := c.mshrLookup(now, block, acc.Thread); e != nil {
		if acc.Kind != arch.Prefetch {
			c.record(acc, false)
			if c.stats != nil && acc.Kind.IsDemand() {
				c.stats.RecordMissLatency(e.readyAt - now)
			}
		}
		if e.readyAt > hitTime {
			return e.readyAt
		}
		return hitTime
	}

	// Allocate an MSHR (possibly stalling until one frees up) and fetch
	// from the next level.
	entry, start := c.mshrAllocate(now)
	if acc.Kind != arch.Prefetch {
		c.record(acc, false)
	}
	done := c.next.Access(start+c.cfg.Latency, acc)
	entry.valid = true
	entry.block = block
	entry.thread = acc.Thread
	entry.readyAt = done

	c.fill(si, acc)
	if acc.Kind != arch.Prefetch && c.stats != nil && acc.Kind.IsDemand() {
		c.stats.RecordMissLatency(done - now)
	}
	c.train(now, acc)
	return done
}

// train feeds the prefetcher and issues its suggestions as Prefetch
// accesses into this cache (fills propagate from the next level).
//
//itp:hotpath
func (c *Cache) train(now uint64, acc *arch.Access) {
	if c.prefetcher == nil || acc.Kind == arch.Prefetch || acc.Kind == arch.PTW {
		return
	}
	for _, addr := range c.prefetcher.Train(acc) {
		if c.Contains(addr, acc.Thread) {
			continue
		}
		c.PrefetchIssued++
		pf := &c.pfAcc
		*pf = arch.Access{Addr: addr, PC: acc.PC, Kind: arch.Prefetch, Thread: acc.Thread}
		c.Access(now, pf)
	}
}

// Occupancy returns how many valid blocks currently hold PTE payload and
// how many of those serve data translations (debug/analysis aid).
func (c *Cache) Occupancy() (blocks, pte, dataPTE int) {
	for si := range c.sets {
		for w := range c.sets[si] {
			l := &c.sets[si][w]
			if !l.Valid {
				continue
			}
			blocks++
			if l.IsPTE {
				pte++
			}
			if l.IsDataPTE {
				dataPTE++
			}
		}
	}
	return
}
