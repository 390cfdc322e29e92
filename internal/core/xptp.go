package core

import (
	"itpsim/internal/arch"
	"itpsim/internal/config"
	"itpsim/internal/replacement"
)

// XPTP is the extended Page Table Prioritization L2C replacement policy
// (Section 4.2). Insertion and promotion follow LRU; the eviction policy
// (Figure 6) protects blocks that hold *data* PTEs:
//
//	a. the default victim is the block at LRUpos;
//	b. the alternative victim (ALT_LRU) is the deepest-stacked block
//	   that does not hold a data PTE;
//	c. if ALT_LRU sits at least K positions above the bottom of the
//	   stack, it is "too recent" — the inequality
//	   ALT_LRUpos >= LRUpos + K holds — and the true LRU block (a data
//	   PTE) is evicted after all;
//	d. otherwise the alternative victim is evicted, keeping the data
//	   PTE resident.
//
// When the adaptive controller reports low STLB pressure the eviction
// steps a–d are skipped and the policy degenerates to plain LRU
// (Section 4.3.1) — no separate LRU implementation is needed.
type XPTP struct {
	k int
	// enabled gates the PTE-protecting eviction path; nil means always
	// enabled (the non-adaptive xPTP used in ablations).
	enabled func() bool
}

// NewXPTP builds an always-on xPTP from its parameters.
func NewXPTP(p config.XPTPParams) *XPTP {
	return &XPTP{k: p.K}
}

// NewAdaptiveXPTP builds an xPTP gated by the given enable signal
// (normally Controller.Enabled).
func NewAdaptiveXPTP(p config.XPTPParams, enabled func() bool) *XPTP {
	return &XPTP{k: p.K, enabled: enabled}
}

// Name implements replacement.Policy.
func (x *XPTP) Name() string { return "xptp" }

// Victim implements replacement.Policy.
//
//itp:hotpath
func (x *XPTP) Victim(si int, set []replacement.Line, stack *replacement.Stack, _ *arch.Access) int {
	order := stack.Order(si)
	lru := int(order[len(order)-1])
	//itp:nonalloc — bound at construction to Controller.Enabled, a field read
	if x.enabled != nil && !x.enabled() {
		return lru // adaptive fallback: plain LRU
	}
	// The alternative is the deepest block without a data PTE. Positions
	// count from the bottom of the stack, where the LRU victim sits at
	// distance 0: the inequality ALT_LRUpos >= LRUpos + K asks whether
	// the alternative is at least K recency positions above the bottom.
	for pos := len(order) - 1; pos >= 0; pos-- {
		w := int(order[pos])
		if set[w].IsDataPTE {
			continue
		}
		if len(order)-1-pos >= x.k {
			return lru
		}
		return w
	}
	return lru // every block holds a data PTE
}

// OnFill implements replacement.Policy: LRU insertion at MRU (the Type
// bit is written by the cache when the fill completes, step 3.1 of
// Figure 7).
//
//itp:hotpath
func (*XPTP) OnFill(si int, _ []replacement.Line, stack *replacement.Stack, way int, _ *arch.Access) {
	stack.Move(si, way, 0)
}

// OnHit implements replacement.Policy: LRU promotion.
//
//itp:hotpath
func (*XPTP) OnHit(si int, _ []replacement.Line, stack *replacement.Stack, way int, _ *arch.Access) {
	stack.Move(si, way, 0)
}

// OnEvict implements replacement.Policy.
//
//itp:hotpath
func (*XPTP) OnEvict(int, []replacement.Line, int) {}

// Controller is the phase-adaptive mechanism of Section 4.3.1: a
// retired-instruction counter, an STLB-miss counter, and a 1-bit status
// register. Every WindowInstr retired instructions the miss count is
// compared against T1; the status bit selects xPTP when the count
// exceeds T1 and LRU otherwise, and both counters reset.
type Controller struct {
	windowInstr arch.Instr
	t1          int

	instrCount arch.Instr
	missCount  int
	useXPTP    bool

	// Window tallies for reporting.
	EnabledWindows  uint64
	DisabledWindows uint64

	// decisionHook, when set, observes every window decision at the
	// moment it is made (before the miss counter resets) — the metrics
	// layer uses it to record enable/disable transitions per window.
	decisionHook func(enabled bool, misses int)
}

// NewController builds the controller. T1 <= 0 pins xPTP on.
func NewController(p config.XPTPParams) *Controller {
	w := arch.Instr(p.WindowInstr)
	if w == 0 {
		w = 1000
	}
	return &Controller{windowInstr: w, t1: p.T1, useXPTP: true}
}

// OnSTLBMiss records one STLB miss.
//
//itp:hotpath
func (c *Controller) OnSTLBMiss() { c.missCount++ }

// OnRetire records n retired instructions and closes windows as they
// complete.
//
//itp:hotpath
func (c *Controller) OnRetire(n arch.Instr) {
	c.instrCount += n
	for c.instrCount >= c.windowInstr {
		c.instrCount -= c.windowInstr
		if c.t1 <= 0 {
			c.useXPTP = true
		} else {
			c.useXPTP = c.missCount > c.t1
		}
		if c.useXPTP {
			c.EnabledWindows++
		} else {
			c.DisabledWindows++
		}
		if c.decisionHook != nil {
			//itp:nonalloc — observability hook; nil in bare runs, counter bump under metrics
			c.decisionHook(c.useXPTP, c.missCount)
		}
		c.missCount = 0
	}
}

// SetDecisionHook registers fn to observe every window decision as it is
// made; misses is the STLB-miss count of the window just judged.
func (c *Controller) SetDecisionHook(fn func(enabled bool, misses int)) { c.decisionHook = fn }

// WindowInstr returns the controller's window size in retired
// instructions.
func (c *Controller) WindowInstr() arch.Instr { return c.windowInstr }

// T1 returns the controller's STLB-miss threshold.
func (c *Controller) T1() int { return c.t1 }

// Enabled reports whether xPTP's protecting eviction is active.
//
//itp:hotpath
func (c *Controller) Enabled() bool { return c.useXPTP }
