package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"itpsim/internal/config"
	"itpsim/internal/harness"
	"itpsim/internal/sample"
	"itpsim/internal/shard"
	"itpsim/internal/sim"
	"itpsim/internal/stats"
	"itpsim/internal/workload"
)

// pairSetupBudget is how long the pair workloads repeat their set-up
// after the timed operations.
const pairSetupBudget = 2 * time.Second

// Run geometry, shared by every workload: a serial run warms up for
// warmupInstr and measures measureInstr; a sampled run covers the same
// region with samplePhases representatives of sampleWindow instructions,
// each warmed by sampleDetailWarmup detailed instructions after a
// functional prefix.
const (
	warmupInstr        = 100_000
	measureInstr       = 5_000_000
	samplePhases       = 8
	sampleWindow       = 50_000
	sampleDetailWarmup = 50_000
)

// point is one policy quadrant: STLB policy and L2C policy.
type point struct{ name, stlb, l2c string }

func (p point) config() config.SystemConfig {
	c := config.Default()
	c.STLBPolicy = p.stlb
	c.L2CPolicy = p.l2c
	return c
}

var (
	lruLRU    = point{"lru/lru", "lru", "lru"}
	itpXPTP   = point{"itp+xptp", "itp", "xptp"}
	quadrants = []point{lruLRU, {"itp/lru", "itp", "lru"}, {"lru/xptp", "lru", "xptp"}, itpXPTP}
)

// workloadDef is one named benchmark workload. stream builds the
// generator from the seed; the simulator only ever sees the stream.
type workloadDef struct {
	name   string
	stream func(seed uint64) workload.Stream
	// sweep selects the cold phase-sampled four-quadrant sweep instead
	// of the serial LRU/LRU vs iTP+xPTP pair.
	sweep bool
}

var workloads = map[string]workloadDef{
	"srv-pair":  {name: "srv-pair", stream: serverStream},
	"spec-pair": {name: "spec-pair", stream: specStream},
	"srv-sweep": {name: "srv-sweep", stream: serverStream, sweep: true},
}

func workloadNames() []string { return sortedKeys(workloads) }

// serverStream is srv_000's generator shape with the seed overridden.
func serverStream(seed uint64) workload.Stream {
	spec, err := workload.NewCatalog(1, 0).Get("srv_000")
	if err != nil {
		panic(err) // the catalogue always holds srv_000
	}
	p := spec.ServerParams()
	p.Seed = seed
	return workload.NewServer(p)
}

// specStream is spec_000's generator shape with the seed overridden. The
// catalogue exposes no accessor for SPEC-like parameters, so the shape is
// restated here; it must track workload.specSpec(0).
func specStream(seed uint64) workload.Stream {
	return workload.NewSpec(workload.SpecParams{
		Seed:       seed,
		CodePages:  4,
		LoopLen:    64,
		LoopIters:  200,
		DataPages:  2048,
		DataZipf:   1.3,
		LoadFrac:   0.28,
		StoreFrac:  0.10,
		DepFrac:    0.15,
		StreamFrac: 0.25,
		ReuseFrac:  0.35,
	})
}

// bench holds one benchmark process's state.
type bench struct {
	w           workloadDef
	seed        uint64
	parallelism int
	budget      time.Duration
	tally       tally
	// outputs maps each simulated result ("serial itp+xptp", "sampled
	// lru/lru", ...) to its fingerprint. The first run of a result sets
	// it; every later run, traced or not, must reproduce it exactly.
	outputs map[string]string
	// want holds the recorded outputs for this seed, when there are any.
	want map[string]string
	// newMachine collects traced sim.NewMachine call durations.
	newMachine []time.Duration
	// ref holds one reference kernel per core the workload's timed work
	// runs on (see calib.go); refRates collects every rate they measured.
	ref      []*refKernel
	refRates []float64
}

func (b *bench) newStream() workload.Stream { return b.w.stream(b.seed) }

// hostRate measures the reference rate on every core the workload's
// timed work runs on and records it.
func (b *bench) hostRate() float64 {
	r := hostRate(b.ref, sweepPasses)
	b.refRates = append(b.refRates, r)
	return r
}

// opResult is one operation: a serial pair or one cold sweep.
type opResult struct {
	// setup is host time before the first simulated instruction; timed
	// is the simulation itself; instr counts the logical instructions
	// requested (warmup + measure, summed over the operation's runs).
	setup, timed time.Duration
	instr        uint64
	// setupNom and timedNom are setup and timed in nominal seconds.
	setupNom, timedNom float64
	// ipc holds each point's IPC, by point name.
	ipc map[string]float64
	// final is the iTP+xPTP point's statistics.
	final *stats.Sim
	// spans holds per-layer durations of a traced operation, summed
	// over the operation; allocBytes is its heap allocation.
	spans      map[string]time.Duration
	allocBytes uint64
	// peakRSSMB is the process's peak resident set when the operation
	// ended.
	peakRSSMB float64
}

// instrPerSec is the operation's throughput on the nominal host;
// rawInstrPerSec is the same over host seconds.
func (r opResult) instrPerSec() float64    { return float64(r.instr) / r.timedNom }
func (r opResult) rawInstrPerSec() float64 { return float64(r.instr) / r.timed.Seconds() }

// fingerprint identifies a run's complete statistics.
func fingerprint(st *stats.Sim) string {
	js, err := json.Marshal(st)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	h := fnv.New64a()
	h.Write(js)
	return fmt.Sprintf("ipc=%.6f fnv=%016x", st.IPC(), h.Sum64())
}

// check validates one finished simulation run and counts it: it must
// have run without error, retired exactly measure instructions in its
// measured region, and reproduce both the recorded output for this seed
// and any earlier run of the same result.
func (b *bench) check(key string, st *stats.Sim, measure uint64, problems []string) {
	if st != nil {
		if got := st.TotalInstructions(); got != measure {
			problems = append(problems, fmt.Sprintf("measured %d instructions, requested %d", got, measure))
		}
		fp := fingerprint(st)
		if prev, ok := b.outputs[key]; !ok {
			b.outputs[key] = fp
		} else if prev != fp {
			problems = append(problems, fmt.Sprintf("output %s differs from the first run's %s", fp, prev))
		}
		if w, ok := b.want[key]; ok && w != fp {
			problems = append(problems, fmt.Sprintf("output %s, recorded %s", fp, w))
		}
	}
	b.tally.record(key, problems)
}

// serialRun is one finished serial simulation: its statistics, its
// set-up host time, and its calibrated timed region.
type serialRun struct {
	st    *stats.Sim
	setup time.Duration
	timed *calibrated
}

// serial runs one detailed serial simulation of the workload at pt. The
// reference kernel runs between slices of the simulation, outside the
// timed region (calib.go).
func (b *bench) serial(pt point, traced bool) (serialRun, error) {
	t0 := time.Now()
	m, err := sim.NewMachine(pt.config())
	if err != nil {
		b.tally.record("serial "+pt.name, []string{err.Error()})
		return serialRun{}, err
	}
	if traced {
		b.newMachine = append(b.newMachine, time.Since(t0))
	}
	c := &calibrated{Prefetched: workload.Prefetch(b.newStream()), k: b.ref[0]}
	defer c.Close()
	setup := time.Since(t0)
	c.start()
	res, err := m.RunWarmup([]workload.Stream{c}, warmupInstr, measureInstr)
	c.slice()
	b.refRates = append(b.refRates, c.rates...)
	var problems []string
	if err != nil {
		problems = append(problems, err.Error())
	}
	if got := m.Progress(); got != warmupInstr+measureInstr {
		problems = append(problems, fmt.Sprintf("retired %d instructions, requested %d", got, warmupInstr+measureInstr))
	}
	b.check("serial "+pt.name, res.Stats, measureInstr, problems)
	return serialRun{res.Stats, setup, c}, err
}

// pairOp is the srv-pair / spec-pair operation: LRU/LRU then iTP+xPTP,
// serially and in detail, as a user reproducing Fig. 8 runs them.
func (b *bench) pairOp(traced bool) (opResult, error) {
	r := opResult{ipc: map[string]float64{}, spans: map[string]time.Duration{}}
	for _, pt := range []point{lruLRU, itpXPTP} {
		run, err := b.serial(pt, traced)
		if err != nil {
			return r, err
		}
		r.setup += run.setup
		r.timed += run.timed.raw
		r.timedNom += run.timed.norm
		r.instr += warmupInstr + measureInstr
		r.ipc[pt.name] = run.st.IPC()
		r.final = run.st
		r.spans["span.run_warmup_s"] += run.timed.raw
	}
	return r, nil
}

// pairSetups times the pair's set-up (both points' machines, streams and
// decode-ahead starts) repeatedly for budget, each in nominal seconds by
// the reference rates before and after it. A set-up takes milliseconds
// and varies by several times from one to the next, so the operations
// alone give too few samples for a steady median.
func (b *bench) pairSetups(budget time.Duration) ([]float64, error) {
	var xs []float64
	start := time.Now()
	r0 := b.ref[0].rate()
	for len(xs) == 0 || time.Since(start) < budget {
		var d time.Duration
		for _, pt := range []point{lruLRU, itpXPTP} {
			t0 := time.Now()
			if _, err := sim.NewMachine(pt.config()); err != nil {
				return nil, err
			}
			p := workload.Prefetch(b.newStream())
			d += time.Since(t0)
			p.Close()
		}
		r1 := b.ref[0].rate()
		xs = append(xs, nominal(d, (r0+r1)/2))
		r0 = r1
	}
	return xs, nil
}

func sampleConfig(pt point) sample.Config {
	return sample.Config{
		System:       pt.config(),
		Phases:       samplePhases,
		Window:       sampleWindow,
		Warmup:       warmupInstr,
		DetailWarmup: sampleDetailWarmup,
		Measure:      measureInstr,
	}
}

// sweepOp is the srv-sweep operation: a cold phase-sampled sweep of the
// four quadrants with a fresh profile cache and split index, as a user's
// first itpsweep does. The profile pre-pass and planning are set-up. An
// untraced operation then calls sample.Run, which finds the profile
// cached and re-plans (pure k-means over at most Measure/Window
// windows); a traced one replays sample.Run's public steps with a timer
// around each. The reference kernels run on every core before set-up,
// between set-up and the timed run, and after it, outside both.
func (b *bench) sweepOp(traced bool) (opResult, error) {
	r := opResult{ipc: map[string]float64{}, spans: map[string]time.Duration{}}
	src := shard.Source{Name: fmt.Sprintf("%s/seed%d", b.w.name, b.seed), New: b.newStream}
	profiles := sample.NewProfiles()
	ix := shard.NewIndex()
	for _, pt := range quadrants {
		key := "sampled " + pt.name
		cfg := sampleConfig(pt)
		rA := b.hostRate()
		t0 := time.Now()
		prof, err := profiles.Get(cfg, src, nil)
		t1 := time.Now()
		var plan *sample.Plan
		if err == nil {
			plan, err = sample.BuildPlan(cfg, prof)
		}
		t2 := time.Now()
		rB := b.hostRate()
		t2r := time.Now()
		var res *sample.Result
		if err == nil {
			if traced {
				res, err = b.sampleSteps(plan, src, ix, r.spans)
			} else {
				res, err = sample.Run(cfg, b.w.name, src, ix, profiles, harness.Options{Parallelism: b.parallelism})
			}
		}
		t3 := time.Now()
		rC := b.hostRate()
		if err != nil {
			b.tally.record(key, []string{err.Error()})
			return r, err
		}
		var problems []string
		for i, rep := range res.Reps {
			if got := rep.Stats.TotalInstructions(); got != sampleWindow {
				problems = append(problems, fmt.Sprintf("representative %d measured %d instructions, requested %d", i, got, sampleWindow))
			}
		}
		b.check(key, res.Stats, measureInstr, problems)
		r.setup += t2.Sub(t0)
		r.timed += t3.Sub(t2r)
		r.setupNom += nominal(t2.Sub(t0), (rA+rB)/2)
		r.timedNom += nominal(t3.Sub(t2r), (rB+rC)/2)
		r.instr += warmupInstr + measureInstr
		r.ipc[pt.name] = res.IPC
		r.final = res.Stats
		r.spans["span.profile_s"] += t1.Sub(t0)
		r.spans["span.plan_s"] += t2.Sub(t1)
	}
	return r, nil
}

// sampleSteps is sample.Run after planning, as its public steps: job
// construction (stream positioning through the index), the supervised
// batch with every Job.Run wrapped in a timer, and the weighted stitch.
func (b *bench) sampleSteps(plan *sample.Plan, src shard.Source, ix *shard.Index, spans map[string]time.Duration) (*sample.Result, error) {
	t0 := time.Now()
	jobs, err := plan.Jobs(b.w.name, src, ix)
	if err != nil {
		return nil, err
	}
	var busy atomic.Int64
	for i := range jobs {
		run := jobs[i].Run
		jobs[i].Run = func(jc *harness.JobContext) (*shard.Payload, error) {
			start := time.Now()
			defer func() { busy.Add(int64(time.Since(start))) }()
			return run(jc)
		}
	}
	t1 := time.Now()
	outs, err := harness.RunAll(harness.Options{Parallelism: b.parallelism}, jobs)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	res, err := plan.Stitch(outs)
	t3 := time.Now()
	spans["span.jobs_s"] += t1.Sub(t0)
	spans["span.reps_s"] += t2.Sub(t1)
	spans["span.rep_busy_s"] += time.Duration(busy.Load())
	spans["span.stitch_s"] += t3.Sub(t2)
	return res, err
}

// op runs one operation. Each starts from a collected heap with its
// memory returned to the OS, as in a fresh process.
func (b *bench) op(traced bool) (opResult, error) {
	debug.FreeOSMemory()
	var before, after runtime.MemStats
	if traced {
		runtime.ReadMemStats(&before)
	}
	var r opResult
	var err error
	if b.w.sweep {
		r, err = b.sweepOp(traced)
	} else {
		r, err = b.pairOp(traced)
	}
	if traced {
		runtime.ReadMemStats(&after)
		r.allocBytes = after.TotalAlloc - before.TotalAlloc
	}
	r.peakRSSMB = peakRSSMB()
	if err == nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s op (traced=%v): set-up %.4fs (%.4f nominal), timed %.4fs (%.4f nominal), %.4g instr/s (%.4g nominal), peak RSS so far %.1f MB\n",
			b.w.name, traced, r.setup.Seconds(), r.setupNom, r.timed.Seconds(), r.timedNom, r.rawInstrPerSec(), r.instrPerSec(), r.peakRSSMB)
	}
	return r, err
}

// repeat runs operations until budget has elapsed (at least one).
func (b *bench) repeat(budget time.Duration) ([]opResult, error) {
	var ops []opResult
	start := time.Now()
	for len(ops) == 0 || time.Since(start) < budget {
		r, err := b.op(false)
		if err != nil {
			return ops, err
		}
		ops = append(ops, r)
	}
	return ops, nil
}

// untraced measures the end-to-end metrics. Timings are medians over
// the operations, in nominal seconds (calib.go); the pairs' set-up is the
// median over a set-up loop run after them. Memory is the peak after the
// first operation: what one cold run in a fresh process needs, without
// the runtime bookkeeping that later operations in the same process
// leave behind.
func (b *bench) untraced() (map[string]metric, error) {
	ops, err := b.repeat(b.budget)
	if err != nil {
		return nil, err
	}
	first := ops[0]
	setup := median(ops, func(r opResult) float64 { return r.setupNom })
	fmt.Printf("host: %d operations, median %.4g instr/s and set-up %.4g s in host seconds; reference kernel median %.4g ops/s (nominal %.4g)\n",
		len(ops), median(ops, (opResult).rawInstrPerSec), median(ops, func(r opResult) float64 { return r.setup.Seconds() }), medianOf(b.refRates), float64(refNominal))
	if !b.w.sweep {
		xs, err := b.pairSetups(pairSetupBudget)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s set-up loop: %d samples\n", b.w.name, len(xs))
		setup = medianOf(xs)
	}
	return map[string]metric{
		"setup_s":          {setup, "s"},
		"sim_instr_per_s":  {median(ops, (opResult).instrPerSec), "instr/s"},
		"peak_rss_mb":      {first.peakRSSMB, "MB"},
		"ipc":              {first.ipc[itpXPTP.name], "instr/cycle"},
		"itp_xptp_speedup": {first.ipc[itpXPTP.name] / first.ipc[lruLRU.name], "x"},
	}, nil
}

// traced measures the per-layer metrics. It alternates untraced and
// traced operations for the budget, so host drift affects both alike:
// the untraced ones give the tracing overhead and the traced-vs-untraced
// output check, the traced ones run under a CPU profile. Then come the
// single-layer unit costs, and on the sweep the serial references its
// sampling error is graded against.
func (b *bench) traced() (map[string]metric, error) {
	var plain, ops []opResult
	cpu := map[string]float64{}
	start := time.Now()
	for len(ops) == 0 || time.Since(start) < b.budget {
		r, err := b.op(false)
		if err != nil {
			return nil, err
		}
		plain = append(plain, r)
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		r, err = b.op(true)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, err
		}
		ops = append(ops, r)
		if err := addCPUTime(cpu, prof.Bytes()); err != nil {
			return nil, err
		}
	}

	m := map[string]metric{}
	for _, name := range []string{"span.run_warmup_s", "span.profile_s", "span.plan_s", "span.jobs_s", "span.reps_s", "span.rep_busy_s", "span.stitch_s"} {
		m[name] = metric{median(ops, func(r opResult) float64 { return r.spans[name].Seconds() }), "s"}
	}
	eff := 0.0
	if b.w.sweep {
		eff = median(ops, func(r opResult) float64 {
			return r.spans["span.rep_busy_s"].Seconds() / (r.spans["span.reps_s"].Seconds() * float64(b.parallelism))
		})
	}
	m["harness.parallel_eff"] = metric{eff, "ratio"}
	m["go.alloc_bytes_per_instr"] = metric{median(ops, func(r opResult) float64 { return float64(r.allocBytes) / float64(r.instr) }), "B/instr"}
	untracedIPS := median(plain, (opResult).instrPerSec)
	m["trace.overhead_pct"] = metric{100 * (untracedIPS - median(ops, (opResult).instrPerSec)) / untracedIPS, "%"}
	m["host.raw_instr_per_s"] = metric{median(plain, (opResult).rawInstrPerSec), "instr/s"}
	m["host.ref_ops_per_s"] = metric{medianOf(append([]float64(nil), b.refRates...)), "ops/s"}

	var total float64
	for _, ns := range cpu {
		total += ns
	}
	for _, pkg := range profiledPackages {
		share := 0.0
		if total > 0 {
			share = cpu[pkg] / total
		}
		m["cpu."+pkg+".self_share"] = metric{share, "share"}
	}
	for k, v := range modelCounts(ops[0].final) {
		m[k] = v
	}
	units, err := unitCosts(b.newStream, itpXPTP.config())
	if err != nil {
		return nil, err
	}
	for k, v := range units {
		m[k] = v
	}

	ipcErr, gainErr := 0.0, 0.0
	if b.w.sweep {
		if ipcErr, gainErr, err = b.sampleError(ops[0].ipc); err != nil {
			return nil, err
		}
	}
	m["sample.ipc_err_pct"] = metric{ipcErr, "%"}
	m["sample.gain_err_pp"] = metric{gainErr, "pp"}
	m["span.new_machine_s"] = metric{medianDur(b.newMachine), "s"}
	return m, nil
}

// sampleError runs the serial references for the sweep's quadrants and
// grades the sampled IPCs against them: the largest per-quadrant
// |sampled/serial - 1| in percent, and the iTP+xPTP-over-LRU/LRU gain's
// error in percentage points.
func (b *bench) sampleError(sampled map[string]float64) (ipcErr, gainErr float64, err error) {
	serial := map[string]float64{}
	for _, pt := range quadrants {
		run, err := b.serial(pt, true)
		if err != nil {
			return 0, 0, err
		}
		st := run.st
		serial[pt.name] = st.IPC()
		if e := 100 * abs(sampled[pt.name]/st.IPC()-1); e > ipcErr {
			ipcErr = e
		}
	}
	gain := func(ipc map[string]float64) float64 { return 100 * (ipc[itpXPTP.name]/ipc[lruLRU.name] - 1) }
	fmt.Printf("srv-sweep seed %d: iTP+xPTP gain %.3f%% serial, %.3f%% sampled\n", b.seed, gain(serial), gain(sampled))
	return ipcErr, abs(gain(sampled) - gain(serial)), nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func median(ops []opResult, f func(opResult) float64) float64 {
	xs := make([]float64, len(ops))
	for i, r := range ops {
		xs[i] = f(r)
	}
	return medianOf(xs)
}

func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return medianOf(xs)
}

func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// peakRSSMB is the process's peak resident set (VmHWM), falling back to
// the Go runtime's total obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
