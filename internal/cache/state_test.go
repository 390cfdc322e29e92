package cache

import (
	"errors"
	"testing"

	"itpsim/internal/arch"
	"itpsim/internal/audit"
	"itpsim/internal/replacement"
)

func cacheHash(c *Cache) uint64 {
	h := arch.NewStateHash()
	c.HashState(&h)
	return h.Sum()
}

func auditCache(t *testing.T, c *Cache, now uint64) []audit.Violation {
	t.Helper()
	a := &audit.Auditor{}
	a.Register(c.Name(), c)
	err := a.Run(0, now)
	if err == nil {
		return nil
	}
	var ae *audit.Error
	if !errors.As(err, &ae) {
		t.Fatalf("audit returned %T: %v", err, err)
	}
	return ae.Violations
}

func trafficCache() *Cache {
	next := &fixedLevel{latency: 100}
	c := New("l2c", smallCfg(), replacement.NewLRU(), next, nil)
	for i := 0; i < 10; i++ {
		c.Access(uint64(i)*200, load(arch.Addr(0x1000+i*64)))
	}
	return c
}

func TestCacheHashStateDeterministic(t *testing.T) {
	a, b := trafficCache(), trafficCache()
	if cacheHash(a) != cacheHash(b) {
		t.Fatal("identical caches must hash equal")
	}
	if cacheHash(a) != cacheHash(a) {
		t.Fatal("hashing must not mutate state")
	}
	a.Access(10_000, load(0x9000))
	if cacheHash(a) == cacheHash(b) {
		t.Fatal("an extra access must change the hash")
	}
}

func TestCacheHashStateCoversMSHRs(t *testing.T) {
	a, b := trafficCache(), trafficCache()
	// An access whose MSHR is still in flight at hash time differs only
	// in the MSHR file and the filled line.
	a.Access(20_000, load(0xf000))
	if cacheHash(a) == cacheHash(b) {
		t.Fatal("an in-flight miss must change the hash")
	}
}

func TestCacheAuditCleanAfterTraffic(t *testing.T) {
	c := trafficCache()
	if v := auditCache(t, c, 100_000); v != nil {
		t.Fatalf("clean cache reported violations: %v", v)
	}
}

func TestCacheAuditDetectsStackCorruption(t *testing.T) {
	c := trafficCache()
	c.stack.Order(0)[0] = 99
	found := false
	for _, v := range auditCache(t, c, 100_000) {
		if v.Rule == "stack-permutation" {
			found = true
		}
	}
	if !found {
		t.Fatal("corrupted stack position must be reported")
	}
}

func TestCacheAuditDetectsDuplicateBlock(t *testing.T) {
	c := trafficCache()
	// Force two valid ways of set 0 to the same (tag, thread).
	set := c.sets[0]
	set[0].Valid, set[1].Valid = true, true
	set[0].Tag, set[1].Tag = 0xabc, 0xabc
	set[0].Thread, set[1].Thread = 0, 0
	found := false
	for _, v := range auditCache(t, c, 100_000) {
		if v.Rule == "duplicate-block" {
			found = true
		}
	}
	if !found {
		t.Fatal("duplicate (tag, thread) in one set must be reported")
	}
}

func TestCacheAuditDetectsPTEBitViolations(t *testing.T) {
	c := trafficCache()
	set := c.sets[1]
	set[0].Valid = true
	set[0].IsDataPTE = true
	set[0].IsPTE = false
	set[1].Valid = true
	set[1].Tag = set[0].Tag + 1
	set[1].IsPTE = true
	set[1].STLBMiss = true
	rules := map[string]int{}
	for _, v := range auditCache(t, c, 100_000) {
		rules[v.Rule]++
	}
	if rules["pte-bits"] != 2 {
		t.Fatalf("want 2 pte-bits violations, got %v", rules)
	}
}

func TestCacheAuditDetectsMSHRLeak(t *testing.T) {
	c := trafficCache()
	now := uint64(100_000)
	c.mshrs[0] = mshrEntry{valid: true, block: 0x77, thread: 0, readyAt: now + mshrLeakHorizon + 1}
	found := false
	for _, v := range auditCache(t, c, now) {
		if v.Rule == "mshr-leak" {
			found = true
		}
	}
	if !found {
		t.Fatal("MSHR completing past the leak horizon must be reported")
	}
}

func TestCacheAuditDetectsDuplicateMSHR(t *testing.T) {
	c := trafficCache()
	now := uint64(100_000)
	c.mshrs[0] = mshrEntry{valid: true, block: 0x88, thread: 1, readyAt: now + 50}
	c.mshrs[1] = mshrEntry{valid: true, block: 0x88, thread: 1, readyAt: now + 80}
	found := false
	for _, v := range auditCache(t, c, now) {
		if v.Rule == "mshr-leak" {
			found = true
		}
	}
	if !found {
		t.Fatal("two in-flight MSHRs for one (block, thread) must be reported")
	}
}

func TestCacheAuditIgnoresRetiredMSHRs(t *testing.T) {
	c := trafficCache()
	now := uint64(100_000)
	// Entries whose readyAt has passed are dead capacity, not leaks,
	// even if stale duplicates remain in the file.
	c.mshrs[0] = mshrEntry{valid: true, block: 0x99, thread: 0, readyAt: now - 10}
	c.mshrs[1] = mshrEntry{valid: true, block: 0x99, thread: 0, readyAt: now - 5}
	if v := auditCache(t, c, now); v != nil {
		t.Fatalf("retired MSHR entries reported as violations: %v", v)
	}
}
