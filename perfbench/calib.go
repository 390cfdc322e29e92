package main

import (
	"sync"
	"time"

	"itpsim/internal/workload"
)

// Host-speed calibration. On a virtual machine that shares its host, the
// host's speed can change by up to 70% for tens of seconds at a time, so
// one wall-clock run of identical code reads 2.5M or 4.3M instr/s
// depending on when it ran. A small reference kernel, fixed in this file so no change to the
// simulator can move it, is timed between short slices of the timed work.
// Each slice's host seconds are scaled by the kernel's speed around it to
// seconds on a nominal host that runs the kernel at refNominal ops/s:
//
//	nominal seconds = host seconds × kernel ops/s ÷ refNominal
//
// sim_instr_per_s and setup_s are reported in nominal seconds; the raw
// host figures are printed beside them and in the traced run.
const (
	// refNominal defines the nominal host: reference kernel ops per
	// second. It is a unit, not a measurement.
	refNominal = 1.5e7
	// refOps is one timed kernel pass, about 1.5 ms; refWarmOps is the
	// untimed pass before it that brings the kernel's tables back into
	// the core's caches after the simulator evicted them.
	refOps     = 20_000
	refWarmOps = 2_000
	// sweepPasses is how many passes one calibration of the sweep
	// times: it calibrates about 0.2 s of work, where a serial run
	// calibrates every 70 ms.
	sweepPasses = 4
	// refSlice is how many instructions a serial run consumes between
	// two kernel passes (about 70 ms of simulation).
	refSlice = 250_000
	// refSets x refWays is the kernel's tag store: 128 KiB of tags and
	// 16 KiB of ages.
	refSets = 1024
	refWays = 16
)

// refKernel is the reference kernel: a set-associative tag store with
// per-way ages and LRU replacement, fed a xorshift address stream in
// which a quarter of the accesses go to a small hot region. It does the
// same kind of work as the simulator's cache and TLB lookups (way scans,
// age updates, data-dependent branches) on a footprint that fits the
// core's L2, so it slows down with the simulator when a neighbour on the
// host competes for the core.
type refKernel struct {
	tags []uint64
	ages []uint8
	x    uint64
}

func newRefKernel() *refKernel {
	return &refKernel{
		tags: make([]uint64, refSets*refWays),
		ages: make([]uint8, refSets*refWays),
		x:    0x9e3779b97f4a7c15,
	}
}

// run performs n accesses.
func (k *refKernel) run(n int) {
	tags, ages, x := k.tags, k.ages, k.x
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		addr := x % (refSets * 64)
		if x&3 == 0 {
			addr = x % refSets
		}
		base := int(addr%refSets) * refWays
		hit := -1
		victim, oldest := 0, uint8(0)
		for w := 0; w < refWays; w++ {
			if tags[base+w] == addr {
				hit = w
			}
			if ages[base+w] >= oldest {
				oldest, victim = ages[base+w], w
			}
		}
		if hit < 0 {
			hit = victim
			tags[base+hit] = addr
		}
		a := ages[base+hit]
		for w := 0; w < refWays; w++ {
			if ages[base+w] < a {
				ages[base+w]++
			}
		}
		ages[base+hit] = 0
	}
	k.x = x
}

// rate times one warmed pass and returns the kernel's ops per second.
func (k *refKernel) rate() float64 {
	k.run(refWarmOps)
	t0 := time.Now()
	k.run(refOps)
	return refOps / time.Since(t0).Seconds()
}

// hostRate is the mean reference rate across len(ks) cores: every
// kernel runs passes warmed passes at once on its own goroutine, and each
// times its own. It calibrates work that runs on that many cores in
// parallel.
func hostRate(ks []*refKernel, passes int) float64 {
	rates := make([]float64, len(ks))
	var wg sync.WaitGroup
	for i, k := range ks {
		wg.Add(1)
		go func(i int, k *refKernel) {
			defer wg.Done()
			k.run(refWarmOps)
			t0 := time.Now()
			k.run(passes * refOps)
			rates[i] = float64(passes*refOps) / time.Since(t0).Seconds()
		}(i, k)
	}
	wg.Wait()
	var sum float64
	for _, r := range rates {
		sum += r
	}
	return sum / float64(len(rates))
}

// nominal converts host time spent at reference rate r (the mean of the
// rates measured before and after it) to nominal seconds.
func nominal(d time.Duration, r float64) float64 { return d.Seconds() * r / refNominal }

// calibrated is a serial run's stream with the reference kernel timed
// every refSlice instructions on the simulator's own goroutine. It keeps
// the timed region's host time (raw) and its nominal seconds (norm), with
// the kernel's own time left out of both.
type calibrated struct {
	*workload.Prefetched
	k        *refKernel
	n, next  uint64
	last     time.Time
	lastRate float64
	raw      time.Duration
	norm     float64
	rates    []float64
}

// start times the first kernel pass and opens the timed region.
func (c *calibrated) start() {
	c.lastRate = c.k.rate()
	c.rates = append(c.rates, c.lastRate)
	c.next = refSlice
	c.last = time.Now()
}

// slice closes the current slice: its host time is scaled by the mean of
// the kernel rates before and after it.
func (c *calibrated) slice() {
	d := time.Since(c.last)
	r := c.k.rate()
	c.raw += d
	c.norm += nominal(d, (c.lastRate+r)/2)
	c.lastRate = r
	c.rates = append(c.rates, r)
	c.last = time.Now()
}

// NextBatch forwards to the decode-ahead ring and closes a slice each
// time another refSlice instructions have been handed out.
func (c *calibrated) NextBatch(buf []workload.Instr) int {
	got := c.Prefetched.NextBatch(buf)
	c.n += uint64(got)
	if c.n >= c.next {
		c.slice()
		c.next += refSlice
	}
	return got
}

// Next is the per-instruction path of the same stream.
func (c *calibrated) Next(in *workload.Instr) bool {
	ok := c.Prefetched.Next(in)
	if ok {
		c.n++
		if c.n >= c.next {
			c.slice()
			c.next += refSlice
		}
	}
	return ok
}
