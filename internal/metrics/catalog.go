package metrics

// RequiredStats names every counter the paper's headline figures are
// derived from. sim.(*Machine).InstrumentMetrics tracks each of them
// from one table of readers over the machine's own counters, and
// sim's TestRequiredStatsRegistered fails if a run's window records and
// live view stop carrying any of these names, so a figure can never
// silently read a counter that was dropped in a refactor. Names follow
// the dotted convention <component>.<event>[.<class>].
var RequiredStats = []string{
	// Demand STLB misses by translation class: the inputs to the
	// adaptive xPTP controller and the per-window MPKI series (Figure 7).
	"stlb.demand_miss.instr",
	"stlb.demand_miss.data",

	// L2C PTE evictions, total and data-class: the eviction pressure
	// xPTP is designed to relieve (Section 4.3).
	"l2c.evict.pte",
	"l2c.evict.data_pte",

	// Completed page walks by class: the denominator of the walk-latency
	// figures and the itMPKI/dtMPKI accounting (Figure 4).
	"ptw.walk.instr",
	"ptw.walk.data",

	// Adaptive controller enable/disable flips (Section 4.3.1); in the
	// live view only, and only when a run has an adaptive controller
	// attached.
	"xptp.transitions",

	// Per-window phase-classification features (internal/sample): L1I and
	// L2C demand misses and branch mispredicts, tracked so the windowed
	// series carries the full SimPoint feature vector (IPC and STLB MPKI
	// come from the records themselves).
	"l1i.demand_miss",
	"l2c.demand_miss",
	"branch.mispredict",
}
