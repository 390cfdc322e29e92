package tlb

import (
	"errors"
	"testing"

	"itpsim/internal/arch"
	"itpsim/internal/audit"
)

func tlbHash(s arch.StateHasher) uint64 {
	h := arch.NewStateHash()
	s.HashState(&h)
	return h.Sum()
}

// auditOne runs a single component through a fresh auditor and returns
// the violations (nil when clean).
func auditOne(t *testing.T, c audit.Checkable) []audit.Violation {
	t.Helper()
	a := &audit.Auditor{}
	a.Register("tlb", c)
	err := a.Run(0, 1000)
	if err == nil {
		return nil
	}
	var ae *audit.Error
	if !errors.As(err, &ae) {
		t.Fatalf("audit returned %T: %v", err, err)
	}
	return ae.Violations
}

func filledTLB() *TLB {
	tl := New("stlb", 4, 4, NewLRU())
	for i := 0; i < 12; i++ {
		cls := arch.DataClass
		if i%3 == 0 {
			cls = arch.InstrClass
		}
		tl.Insert(arch.Addr(uint64(i)<<arch.PageBits4K), uint64(0x100+i), arch.PageBits4K, cls, uint64(i), uint8(i%2))
	}
	return tl
}

func TestHashStateDeterministic(t *testing.T) {
	a, b := filledTLB(), filledTLB()
	if tlbHash(a) != tlbHash(b) {
		t.Fatal("identical TLBs must hash equal")
	}
	if tlbHash(a) != tlbHash(a) {
		t.Fatal("hashing must not mutate state")
	}
	a.Insert(arch.Addr(99<<arch.PageBits4K), 0x999, arch.PageBits4K, arch.DataClass, 0, 0)
	if tlbHash(a) == tlbHash(b) {
		t.Fatal("an extra entry must change the hash")
	}
}

// TestHashStateCoversReplacementState: a pure lookup changes no mapping,
// only recency — the hash must still see it, or divergent replacement
// decisions would go undetected.
func TestHashStateCoversReplacementState(t *testing.T) {
	a, b := filledTLB(), filledTLB()
	a.Lookup(arch.Addr(1<<arch.PageBits4K), 0, arch.InstrClass, 1)
	if tlbHash(a) == tlbHash(b) {
		t.Fatal("a recency promotion must change the hash")
	}
}

func TestSplitHashState(t *testing.T) {
	mk := func() *Split {
		s := NewSplit(4, 4, NewLRU(), NewLRU())
		s.Insert(arch.Addr(5<<arch.PageBits4K), 0x50, arch.PageBits4K, arch.InstrClass, 0, 0)
		s.Insert(arch.Addr(6<<arch.PageBits4K), 0x60, arch.PageBits4K, arch.DataClass, 0, 0)
		return s
	}
	a, b := mk(), mk()
	if tlbHash(a) != tlbHash(b) {
		t.Fatal("identical split TLBs must hash equal")
	}
	b.Insert(arch.Addr(7<<arch.PageBits4K), 0x70, arch.PageBits4K, arch.DataClass, 0, 0)
	if tlbHash(a) == tlbHash(b) {
		t.Fatal("a data-side insert must change the split hash")
	}
}

func TestAuditCleanAfterTraffic(t *testing.T) {
	tl := filledTLB()
	for i := 0; i < 8; i++ {
		tl.Lookup(arch.Addr(uint64(i)<<arch.PageBits4K), 0, arch.DataClass, uint8(i%2))
	}
	if v := auditOne(t, tl); v != nil {
		t.Fatalf("clean TLB reported violations: %v", v)
	}
	s := NewSplit(4, 4, NewLRU(), NewLRU())
	s.Insert(arch.Addr(1<<arch.PageBits4K), 1, arch.PageBits4K, arch.InstrClass, 0, 0)
	if v := auditOne(t, s); v != nil {
		t.Fatalf("clean split TLB reported violations: %v", v)
	}
}

func TestAuditDetectsStackCorruption(t *testing.T) {
	tl := filledTLB()
	tl.stack.Order(0)[0] = 99
	v := auditOne(t, tl)
	if len(v) == 0 || v[0].Rule != "stack-permutation" {
		t.Fatalf("want stack-permutation, got %v", v)
	}
}

func TestAuditDetectsDuplicateEntry(t *testing.T) {
	tl := New("stlb", 1, 4, NewLRU())
	tl.Insert(arch.Addr(1<<arch.PageBits4K), 1, arch.PageBits4K, arch.DataClass, 0, 0)
	tl.Insert(arch.Addr(2<<arch.PageBits4K), 2, arch.PageBits4K, arch.DataClass, 0, 0)
	var entries []*Entry
	tl.VisitEntries(func(e *Entry) { entries = append(entries, e) })
	if len(entries) != 2 {
		t.Fatalf("expected 2 valid entries, got %d", len(entries))
	}
	entries[1].VPN = entries[0].VPN
	found := false
	for _, v := range auditOne(t, tl) {
		if v.Rule == "duplicate-entry" {
			found = true
		}
	}
	if !found {
		t.Fatal("duplicate (VPN, size, thread) must be reported")
	}
}

func TestAuditDetectsBadEntryBits(t *testing.T) {
	tl := filledTLB()
	poisoned := false
	tl.VisitEntries(func(e *Entry) {
		if !poisoned {
			e.PageBits = 15
			e.Class = 7
			poisoned = true
		}
	})
	rules := map[string]int{}
	for _, v := range auditOne(t, tl) {
		rules[v.Rule]++
	}
	if rules["entry-bits"] != 2 {
		t.Fatalf("want 2 entry-bits violations (page size + class), got %v", rules)
	}
}

func TestVisitEntriesOnlyValid(t *testing.T) {
	tl := filledTLB()
	i, d := tl.Occupancy()
	count := 0
	tl.VisitEntries(func(e *Entry) {
		count++
		if !e.Valid {
			t.Error("VisitEntries handed out an invalid entry")
		}
	})
	if count != i+d {
		t.Errorf("visited %d entries, occupancy says %d", count, i+d)
	}
	tl.Flush()
	count = 0
	tl.VisitEntries(func(*Entry) { count++ })
	if count != 0 {
		t.Errorf("flushed TLB visited %d entries", count)
	}
}
