package sim

import (
	"math"
	"testing"

	"itpsim/internal/config"
	"itpsim/internal/workload"
)

// newSteadyMachine builds a machine plus a warmed thread context stepping
// the reference workload, so the benchmark loop measures exactly one
// steady-state instruction per op. Warm steps populate caches, TLBs, page
// tables, and the allocator-visible buffers (lookahead ring, metrics
// window ring), leaving the measured loop with the structures the run
// loop actually touches per instruction. mutate (optional) edits the
// default configuration before the machine is built, so each benchmark
// variant exercises its own policy mix.
func newSteadyMachine(b *testing.B, instrument, beacons bool, mutate func(*config.SystemConfig)) (*Machine, *threadCtx) {
	b.Helper()
	cat := workload.NewCatalog(4, 2)
	spec, err := cat.Get("srv_000")
	if err != nil {
		b.Fatal(err)
	}
	cfg := config.Default()
	if mutate != nil {
		mutate(&cfg)
	}
	m, err := NewMachine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if instrument {
		w := m.InstrumentMetrics(0)
		w.SetRetain(64)
	}
	if beacons {
		m.EnableBeacons(0)
	}
	t := newThreadCtx(m.cores[0], 0, spec.NewStream(), &m.cfg, 1, math.MaxUint64, 0)
	m.threads = []*threadCtx{t}
	m.cores[0].threads = m.threads
	for i := 0; i < 50_000; i++ {
		m.step(t)
	}
	return m, t
}

// newSteadyMultiCore builds a 4-core CMP with one warmed thread per core,
// for the multi-core steady-state allocation gate: the measured loop
// steps the cores round-robin, so every private structure and every
// shared-hierarchy contention path (STLB, L2C, LLC, walker MSHRs, DRAM)
// is exercised with zero heap allocations per op.
func newSteadyMultiCore(b *testing.B) (*Machine, []*threadCtx) {
	b.Helper()
	cat := workload.NewCatalog(8, 2)
	cfg := config.Default()
	cfg.Cores = 4
	m, err := NewMachine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	names := cat.ServerNames()
	threads := make([]*threadCtx, cfg.Cores)
	for i := range threads {
		spec, err := cat.Get(names[i%len(names)])
		if err != nil {
			b.Fatal(err)
		}
		t := newThreadCtx(m.cores[i], uint8(i), spec.NewStream(), &m.cfg, 1, math.MaxUint64, 0)
		m.cores[i].threads = []*threadCtx{t}
		threads[i] = t
	}
	m.threads = threads
	for i := 0; i < 200_000; i++ {
		m.step(threads[i&3])
	}
	return m, threads
}

// Hot-path gate manifest: which //itp:hotpath functions each
// BenchmarkSteadyState* alloc gate exercises empirically. itpvet's static
// hotpathalloc analyzer proves the absence of allocation constructs;
// these benchmarks prove 0 allocs/op on real instruction streams; and
// internal/lint's TestHotpathGateCoverage proves every annotation in the
// tree is claimed by at least one gate below. Keep the three in sync.
var (
	// hotpathCommon covers the machinery every configuration steps
	// through: the pipeline, the TLB/cache/DRAM hierarchy, the page
	// walker, virtual memory, the LRU substrate, and the workload
	// generators.
	hotpathCommon = []string{
		"itpsim/internal/arch",
		"itpsim/internal/sim",
		"itpsim/internal/tlb",
		"itpsim/internal/cache",
		"itpsim/internal/replacement",
		"itpsim/internal/ptw",
		"itpsim/internal/vm",
		"itpsim/internal/dram",
		"itpsim/internal/stats",
		"itpsim/internal/prefetch",
		"itpsim/internal/workload",
	}
	// hotpathITPXPTP adds the paper's proposal policies: iTP on the STLB
	// and adaptive xPTP (controller included) on the L2C.
	hotpathITPXPTP = []string{
		"itpsim/internal/core",
	}
	// hotpathCHiRP adds the CHiRP baseline plus the real
	// hashed-perceptron predictor that drives its control-flow history.
	hotpathCHiRP = []string{
		"itpsim/internal/branch",
	}
	// hotpathBeacons covers the state-fingerprint fold: the FNV
	// substrate in arch and the whole-hierarchy hashState walk in sim,
	// which the beaconed gate drives at every window boundary.
	hotpathBeacons = []string{
		"itpsim/internal/arch",
		"itpsim/internal/sim",
	}

	// hotpathGateManifest maps each alloc-gated benchmark to the
	// packages whose //itp:hotpath functions it exercises.
	// internal/lint's gate-coverage test parses this table syntactically,
	// so keep entries as identifier references to the slices above.
	hotpathGateManifest = map[string][]string{
		"BenchmarkSteadyStateStep":           hotpathCommon,
		"BenchmarkSteadyStateStepMetrics":    hotpathCommon,
		"BenchmarkSteadyStateStepITPXPTP":    hotpathITPXPTP,
		"BenchmarkSteadyStateStepCHiRP":      hotpathCHiRP,
		"BenchmarkSteadyStateStepBeacons":    hotpathBeacons,
		"BenchmarkSteadyStateStepMultiCore":  hotpathCommon,
		"BenchmarkSteadyStateWarmFunctional": hotpathCommon,
	}
)

// BenchmarkSteadyStateStep is the allocation gate for the simulation hot
// loop: one instruction end to end (lookahead pop, front end, TLBs, page
// walks, caches, retire) with zero heap allocations per op. benchguard's
// -alloc-gate fails the build if allocs/op ever leaves 0.
func BenchmarkSteadyStateStep(b *testing.B) {
	m, t := newSteadyMachine(b, false, false, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.step(t)
	}
}

// BenchmarkSteadyStateStepMetrics is the instrumented twin: window
// sampler attached and per-1000-instruction windows closing into a
// retained ring.
// It must also run allocation-free — window records and their counter
// maps recycle in place.
func BenchmarkSteadyStateStepMetrics(b *testing.B) {
	m, t := newSteadyMachine(b, true, false, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.step(t)
	}
}

// BenchmarkSteadyStateStepITPXPTP gates the paper's proposal
// configuration: iTP on the STLB and adaptive xPTP (with its controller
// judging every window) on the L2C, instrumented so the xptp.transitions
// path is live too.
func BenchmarkSteadyStateStepITPXPTP(b *testing.B) {
	m, t := newSteadyMachine(b, true, false, func(cfg *config.SystemConfig) {
		cfg.STLBPolicy = "itp"
		cfg.L2CPolicy = "xptp"
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.step(t)
	}
}

// BenchmarkSteadyStateStepCHiRP gates the CHiRP STLB baseline together
// with the real hashed-perceptron branch predictor, the configuration
// that drives the control-flow-history and perceptron hot paths.
// BenchmarkSteadyStateStepBeacons gates the robustness layer's steady
// state: metrics windows closing and a full-hierarchy state fingerprint
// folding into the beacon chain at every window boundary. The fixed ring
// and in-place FNV fold must keep the loop at zero allocations per op
// even with beacons armed.
func BenchmarkSteadyStateStepBeacons(b *testing.B) {
	m, t := newSteadyMachine(b, true, true, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.step(t)
	}
}

// BenchmarkSteadyStateStepMultiCore gates the CMP steady state: four
// cores' threads stepped round-robin through their private front ends
// into the shared STLB/L2C/LLC/walker/DRAM. Per-tenant stats attribution
// and shared-MSHR contention must stay at 0 allocs/op per core.
func BenchmarkSteadyStateStepMultiCore(b *testing.B) {
	m, threads := newSteadyMultiCore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.step(threads[i&3])
	}
}

// BenchmarkSteadyStateWarmFunctional gates the functional-warmup replay
// loop: one instruction through warmStep (block-change ifetch, data
// accesses, predictor training, controller tick) against warmed state.
// Functional warmup's whole value is replaying instructions at generator
// speed, so the loop must stay at 0 allocs/op like the detailed step.
func BenchmarkSteadyStateWarmFunctional(b *testing.B) {
	cat := workload.NewCatalog(4, 2)
	spec, err := cat.Get("srv_000")
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewMachine(config.Default())
	if err != nil {
		b.Fatal(err)
	}
	const n = 1 << 16
	buf := make([]workload.Instr, n)
	if got := workload.FillBatch(spec.NewStream(), buf); got != n {
		b.Fatalf("short fill: %d", got)
	}
	c := m.cores[0]
	for i := range buf {
		m.warmStep(c, &buf[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.warmStep(c, &buf[i&(n-1)])
	}
}

func BenchmarkSteadyStateStepCHiRP(b *testing.B) {
	m, t := newSteadyMachine(b, false, false, func(cfg *config.SystemConfig) {
		cfg.STLBPolicy = "chirp"
		cfg.BranchPredictor = "perceptron"
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.step(t)
	}
}
