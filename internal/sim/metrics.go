package sim

import (
	"itpsim/internal/arch"
	"itpsim/internal/metrics"
	"itpsim/internal/stats"
)

// machineMetrics is the machine's attachment to the observability layer:
// the windowed sampler that turns the machine's own counters into a
// per-window time series, and the adaptive controller's last decision so
// each window record carries the xPTP status bit that governed it.
type machineMetrics struct {
	windows *metrics.Windows
	// next is the retired-instruction count at which the current window
	// closes; cached here so the per-retire check is one compare.
	next arch.Instr

	// xptpTransitions counts enable<->disable flips of the adaptive
	// controller; xptpEnabled is its most recent decision.
	xptpTransitions uint64
	xptpEnabled     bool

	// annotate decorates each closing window; built once at attach time
	// so the per-window close does not allocate a closure.
	annotate func(*metrics.WindowRecord)
}

// trackedStats is the one table of per-window counters: every
// metrics.RequiredStats name except xptp.transitions, each read from the
// counter that already records the event. Per-tenant views are summed
// over Stats.Cores, because the aggregate views are only recomputed at
// run end (AggregateTenants).
var trackedStats = []struct {
	name string
	read func(m *Machine) uint64
}{
	// Demand STLB misses by class: the inputs to the adaptive xPTP
	// controller, recorded at the same translate site that feeds it.
	{"stlb.demand_miss.instr", func(m *Machine) uint64 {
		return tenantSum(m, func(c *stats.Core) uint64 { return c.STLB.Misses[stats.BInstr] })
	}},
	{"stlb.demand_miss.data", func(m *Machine) uint64 {
		return tenantSum(m, func(c *stats.Core) uint64 { return c.STLB.Misses[stats.BData] })
	}},
	{"l2c.evict.pte", func(m *Machine) uint64 { return m.l2c.PTEEvictions }},
	{"l2c.evict.data_pte", func(m *Machine) uint64 { return m.l2c.DataPTEEvictions }},
	{"ptw.walk.instr", func(m *Machine) uint64 { return m.Stats.PageWalks[arch.InstrClass] }},
	{"ptw.walk.data", func(m *Machine) uint64 { return m.Stats.PageWalks[arch.DataClass] }},
	// Phase-classification features (internal/sample).
	{"l1i.demand_miss", func(m *Machine) uint64 {
		return tenantSum(m, func(c *stats.Core) uint64 { return c.L1I.TotalMisses() })
	}},
	{"l2c.demand_miss", func(m *Machine) uint64 { return m.Stats.L2C.TotalMisses() }},
	{"branch.mispredict", func(m *Machine) uint64 { return m.branchMispredicts }},
}

// tenantSum sums f over the per-tenant stats views.
func tenantSum(m *Machine, f func(*stats.Core) uint64) uint64 {
	var n uint64
	for i := range m.Stats.Cores {
		n += f(&m.Stats.Cores[i])
	}
	return n
}

// InstrumentMetrics attaches the windowed sampler to the machine and
// returns it. windowInstr is the sampling window in retired instructions
// (0 selects metrics.DefaultWindow, the paper's 1000-instruction adaptive
// window). Must be called before Run, on the goroutine that will run
// the machine: the sampler reads every counter's baseline here. The
// returned sampler is safe to read from other goroutines while the run
// is in flight.
//
// Each window record carries the delta of every trackedStats counter;
// the live view adds xptp.transitions (adaptive enable/disable flips)
// when the machine has an adaptive controller.
func (m *Machine) InstrumentMetrics(windowInstr uint64) *metrics.Windows {
	mm := &machineMetrics{windows: metrics.NewWindows(arch.Instr(windowInstr))}
	for _, s := range trackedStats {
		read := s.read
		mm.windows.Track(s.name, func() uint64 { return read(m) })
	}

	if m.ctrl != nil {
		mm.xptpEnabled = m.ctrl.Enabled()
		m.ctrl.SetDecisionHook(func(enabled bool, _ int) {
			if enabled != mm.xptpEnabled {
				mm.xptpTransitions++
			}
			mm.xptpEnabled = enabled
		})
		mm.windows.Watch("xptp.transitions", func() uint64 { return mm.xptpTransitions })
	}

	mm.annotate = func(rec *metrics.WindowRecord) {
		if rec.Instr > 0 {
			k := 1000 / float64(rec.Instr)
			rec.STLBMPKIInstr = float64(rec.Counters["stlb.demand_miss.instr"]) * k
			rec.STLBMPKIData = float64(rec.Counters["stlb.demand_miss.data"]) * k
		}
		if m.ctrl != nil {
			rec.SetXPTPEnabled(mm.xptpEnabled)
		}
	}

	mm.next = mm.windows.Size()
	m.met = mm
	return mm.windows
}

// closeMetricsWindow ends the current sampling window at the given
// cumulative retired count, annotating the record with the derived
// headline series and the adaptive controller's status bit. Called from
// the run loop only.
func (m *Machine) closeMetricsWindow(retired arch.Instr) {
	mm := m.met
	mm.windows.Close(retired, m.maxRetireCycle, mm.annotate)
	mm.next += mm.windows.Size()
}

// resetMeasured is the warmup-to-measure stats reset. An attached
// sampler carries the open window's pre-reset counts across it, so the
// window series does not notice where the reset fell.
func (m *Machine) resetMeasured() {
	if m.met == nil {
		m.Stats.ResetMeasured()
		return
	}
	m.met.windows.CarryAcross(m.Stats.ResetMeasured)
}
