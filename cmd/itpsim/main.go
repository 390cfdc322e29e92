// Command itpsim runs simulations: one workload (or an SMT pair, or an
// N-core CMP) with the full statistics report, or — given a
// comma-separated workload list — a supervised multi-workload batch where
// each simulation runs under the fault-tolerant harness (panic
// containment, retries, per-job deadline, forward-progress watchdog,
// checkpoint/resume). Execution modes (-shards, -sample-phases,
// -func-warmup) and their rules come from internal/run.
//
// Examples:
//
//	itpsim -workload srv_000
//	itpsim -workload srv_000 -stlb itp -l2c xptp -n 2000000
//	itpsim -workload srv_000 -smt srv_001 -stlb itp -l2c xptp
//	itpsim -workload srv_000,srv_001 -cores 4 -stlb itp -l2c xptp
//	itpsim -workload srv_000,srv_001,spec_000 -checkpoint run.ckpt
//	itpsim -workload srv_000,srv_001 -retries 2 -job-timeout 10m
//	itpsim -list
//	itpsim -trace trace.itpt.gz -stlb itp
//	itpsim -workload srv_000 -beacon-interval 100000 -audit
//	itpsim -workload srv_000 -chaos read -retries 2 -beacon-interval 100000
//	itpsim -workload srv_000 -shards 8 -func-warmup 800000
//	itpsim -workload srv_000 -n 100000000 -sample-phases 8 -sample-window 1000000
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"itpsim/internal/chaos"
	"itpsim/internal/config"
	"itpsim/internal/harness"
	"itpsim/internal/run"
	"itpsim/internal/sample"
	"itpsim/internal/shard"
	"itpsim/internal/trace"
	"itpsim/internal/workload"
)

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// runMain is the whole command: it parses args, runs, reports to stdout
// and returns the exit status (2: unparsable flags, 1: any other error).
func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("itpsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "srv_000", "catalogue workload(s) to run, comma-separated")
		smtPartner   = fs.String("smt", "", "co-run this second workload on thread 1 (single-workload mode only)")
		tracePath    = fs.String("trace", "", "run a recorded trace file instead of a catalogue workload")
		itlbEntries  = fs.Int("itlb", 64, "ITLB entries")
		stlbEntries  = fs.Int("stlb-entries", 1536, "STLB entries")
		splitSTLB    = fs.Bool("split-stlb", false, "use split instruction/data STLBs")
		hugeFrac     = fs.Float64("huge", 0, "fraction of footprint on 2MB pages")
		probP        = fs.Float64("p", 0.8, "keep-instructions probability for -stlb problru")
		configJSON   = fs.String("config", "", "load full machine config from JSON file")
		dumpConfig   = fs.Bool("dump-config", false, "print the effective config as JSON and exit")
		list         = fs.Bool("list", false, "list catalogue workloads and exit")
		chaosKind    = fs.String("chaos", "", "robustness drill, inject a seeded fault: read (tear trace ingestion mid-stream; retries recover), torn-metrics, slow-metrics")
		chaosSeed    = fs.Uint64("chaos-seed", 1, "seed for -chaos fault placement and the retry-backoff jitter")
	)
	f := run.RegisterFlags(fs, run.FlagDefaults{
		Tool:         "itpsim",
		Warmup:       1_000_000,
		Measure:      3_000_000,
		MeasureFlag:  "n",
		SampleWindow: run.DefaultSampleWindow,
		CoresUsage:   "simulate a CMP with this many cores, one tenant per core; -workload names are cycled to fill the cores (0/1 = single core)",
		Policies:     []string{"lru", "lru", "lru"},
	})
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "itpsim:", err)
		return 1
	}

	cat := workload.NewCatalog(120, 20)
	if *list {
		for _, n := range cat.Names() {
			spec, _ := cat.Get(n)
			fmt.Fprintf(stdout, "%-10s %-7s pressure=%s\n", n, spec.Kind, spec.Band)
		}
		return 0
	}

	cfg := config.Default()
	if *configJSON != "" {
		data, err := os.ReadFile(*configJSON)
		if err != nil {
			return fail(err)
		}
		if cfg, err = config.FromJSON(data); err != nil {
			return fail(err)
		}
	}
	cfg = cfg.WithITLBEntries(*itlbEntries).WithSTLBEntries(*stlbEntries)
	cfg.STLBPolicy, cfg.L2CPolicy, cfg.LLCPolicy = f.STLB, f.L2C, f.LLC
	cfg.SplitSTLB = *splitSTLB
	cfg.HugePageFraction = *hugeFrac
	cfg.ProbKeepInstr = *probP
	if f.Cores > 0 {
		cfg.Cores = f.Cores
	}
	names := splitNonEmpty(*workloadName)
	split := f.Shards > 1 || f.SamplePhases > 0 || f.FuncWarmup > 0
	switch {
	case cfg.Cores > 1 && *smtPartner != "":
		return fail(fmt.Errorf("-smt is a single-core mode; it cannot combine with -cores %d", cfg.Cores))
	case cfg.Cores > 1 && *tracePath != "":
		return fail(errors.New("-cores needs catalogue workloads; recorded traces are single-stream"))
	case *smtPartner != "" && len(names) > 1:
		return fail(errors.New("-smt requires a single -workload"))
	case split && (*tracePath != "" || *chaosKind != ""):
		return fail(errors.New("-shards, -sample-phases and -func-warmup split catalogue streams (no -trace or -chaos)"))
	}

	if *dumpConfig {
		data, err := cfg.MarshalPretty()
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, string(data))
		return 0
	}

	// Sources: a recorded trace, N CMP tenants cycled from -workload, a
	// batch of single workloads, or one workload with its SMT partner.
	source := func(name string) shard.Source { return run.CatalogSource(cat, name) }
	if *tracePath != "" {
		source = traceSource
	}
	if *chaosKind == "read" {
		// The -chaos read drill: each source's first stream dies
		// mid-stream with a structured fault; retries read clean bytes
		// and must reproduce the fault-free beacon chain.
		at := uint64(chaos.NewRNG(*chaosSeed).Between(1, int64(f.Warmup+f.Measure)))
		clean := source
		source = func(name string) shard.Source {
			src := clean(name)
			var faulted atomic.Bool
			return shard.Source{Name: src.Name, New: func() workload.Stream {
				if faulted.Swap(true) {
					return src.New()
				}
				return workload.NewErrorStream(src.New(), at,
					&chaos.Error{Kind: chaos.ReadFault, Op: "ingest", Off: int64(at)})
			}}
		}
	}
	spec := func(names ...string) run.Spec {
		s := run.Spec{Tag: "itpsim", Label: names[0], Config: cfg, Warmup: f.Warmup, Measure: f.Measure}
		for _, n := range names {
			s.Sources = append(s.Sources, source(n))
		}
		return s
	}
	var specs []run.Spec
	batch := false
	switch {
	case *tracePath != "":
		specs = []run.Spec{spec(*tracePath)}
	case cfg.Cores > 1:
		tenants := make([]string, cfg.Cores)
		for i := range tenants {
			tenants[i] = names[i%len(names)]
		}
		specs = []run.Spec{spec(tenants...)}
	case len(names) > 1:
		batch = true
		for _, n := range names {
			specs = append(specs, spec(n))
		}
	case *smtPartner != "":
		specs = []run.Spec{spec(names[0], *smtPartner)}
	default:
		specs = []run.Spec{spec(names[0])}
	}

	// The metrics drills fault the export path only: the simulation must
	// complete with an identical beacon chain either way.
	var wrap func(io.Writer) io.Writer
	switch *chaosKind {
	case "torn-metrics":
		wrap = func(w io.Writer) io.Writer { return chaos.TornAfter(w, chaos.NewRNG(*chaosSeed).Between(256, 1<<20)) }
	case "slow-metrics":
		wrap = func(w io.Writer) io.Writer { return chaos.Slow(w, func() { time.Sleep(200 * time.Microsecond) }) }
	}
	series := names
	if *tracePath != "" {
		series = []string{*tracePath}
	}
	hopts := f.Harness(stderr)
	hopts.Seed = *chaosSeed
	r, done, err := f.Runner(stderr, hopts, run.Export{Config: cfg, Workloads: series, Wrap: wrap})
	if err != nil {
		return fail(err)
	}
	defer done()
	results, err := r.Run(specs)
	if results == nil {
		return fail(err)
	}

	if batch {
		return reportBatch(stdout, stderr, cfg, f, names, results, err)
	}
	if err != nil {
		return fail(err)
	}
	res := results[0]
	switch {
	case res.Shard != nil:
		reportSharded(stdout, cfg, f, names[0], res.Shard)
	case res.Sample != nil:
		reportSampled(stdout, cfg, f, names[0], res.Sample)
	default:
		labels := make([]string, len(specs[0].Sources))
		for i, src := range specs[0].Sources {
			labels[i] = src.Name
		}
		if res.Cached {
			labels = []string{*workloadName + " (from checkpoint)"}
		}
		reportSingle(stdout, cfg, f, labels, res)
	}
	return 0
}

// traceSource replays a recorded trace; every stream reopens the file.
func traceSource(path string) shard.Source {
	return shard.Source{Name: path, New: func() workload.Stream {
		file, err := os.Open(path)
		if err != nil {
			return workload.NewErrorStream(nil, 0, harness.Permanent(err))
		}
		r, err := trace.NewReader(file)
		if err != nil {
			file.Close()
			return workload.NewErrorStream(nil, 0, harness.Permanent(err))
		}
		return r
	}}
}

// reportSingle prints the full statistics report of one whole run, the
// per-tenant table of a CMP run, and the beacon chain.
func reportSingle(w io.Writer, cfg config.SystemConfig, f *run.Flags, labels []string, res run.Result) {
	s := res.Stats
	fmt.Fprintf(w, "workloads: %v\npolicies: STLB=%s L2C=%s LLC=%s\nwarmup=%d measure=%d per thread\n\n",
		labels, cfg.STLBPolicy, cfg.L2CPolicy, cfg.LLCPolicy, f.Warmup, f.Measure)
	fmt.Fprint(w, s)
	if cfg.Cores > 1 && len(s.Cores) >= cfg.Cores {
		fmt.Fprintf(w, "\n%-4s %-12s %8s %12s %9s %9s\n", "core", "tenant", "IPC", "instr", "STLB-MPKI", "L1D-MPKI")
		for i := 0; i < cfg.Cores; i++ {
			ten := &s.Cores[i]
			label := "-"
			if i < len(labels) {
				label = labels[i]
			}
			fmt.Fprintf(w, "%-4d %-12s %8.4f %12d %9.3f %9.3f\n",
				i, label, ten.IPC(), ten.Instructions,
				ten.STLB.MPKI(ten.Instructions), ten.L1D.MPKI(ten.Instructions))
		}
	}
	if b := res.Beacon; b != nil {
		fmt.Fprintf(w, "\nbeacon chain: %016x over %d beacons\n", b.Chain, b.Count)
	}
}

// reportSharded prints a stitched sharded run with its per-shard table.
func reportSharded(w io.Writer, cfg config.SystemConfig, f *run.Flags, name string, res *shard.Result) {
	fmt.Fprintf(w, "workload: %s (%d shards)\npolicies: STLB=%s L2C=%s LLC=%s\nwarmup=%d per shard, measure=%d total\n\n",
		name, res.Plan.Shards, cfg.STLBPolicy, cfg.L2CPolicy, cfg.LLCPolicy, f.Warmup, f.Measure)
	fmt.Fprint(w, res.Stats)
	fmt.Fprintf(w, "\n%-6s %12s %12s %9s %s\n", "shard", "offset", "measured", "attempts", "status")
	for _, sh := range res.Shards {
		fmt.Fprintf(w, "%-6d %12d %12d %9d %s\n", sh.Segment.Index, sh.Segment.Offset, sh.Segment.Measure, sh.Attempts, status(sh.Cached, sh.Beacon))
	}
	if b := res.Beacon(); b != nil {
		fmt.Fprintf(w, "\nbeacon chain: %016x over %d beacons (serial-exact: 1 shard)\n", b.Chain, b.Count)
	}
}

// reportSampled prints a reconstructed phase-sampled run with its
// per-representative table.
func reportSampled(w io.Writer, cfg config.SystemConfig, f *run.Flags, name string, res *sample.Result) {
	fmt.Fprintf(w, "workload: %s (%d of %d phases requested; %d-instr windows)\npolicies: STLB=%s L2C=%s LLC=%s\nwarmup=%d per representative (%d functional), measure=%d reconstructed\n\n",
		name, len(res.Reps), f.SamplePhases, f.SampleWindow, cfg.STLBPolicy, cfg.L2CPolicy, cfg.LLCPolicy, f.Warmup, f.FuncWarmup, f.Measure)
	fmt.Fprint(w, res.Stats)
	fmt.Fprintf(w, "\n%-6s %-8s %12s %8s %9s %s\n", "phase", "window", "offset", "weight", "attempts", "status")
	for _, rp := range res.Reps {
		fmt.Fprintf(w, "%-6d %-8d %12d %8d %9d %s\n",
			rp.Rep.Phase, rp.Rep.Window, rp.Segment.Offset, rp.Rep.Weight, rp.Attempts, status(rp.Cached, rp.Beacon))
	}
	if b := res.Beacon(); b != nil {
		fmt.Fprintf(w, "\nbeacon chain: %016x over %d beacons (serial-exact: 1 phase, detailed warmup)\n", b.Chain, b.Count)
	}
}

// reportBatch prints the compact multi-workload summary and returns the
// exit status: 1 when any run failed.
func reportBatch(w, stderr io.Writer, cfg config.SystemConfig, f *run.Flags, names []string, results []run.Result, err error) int {
	fmt.Fprintf(w, "batch: %d workloads; policies STLB=%s L2C=%s LLC=%s; %d+%d instr\n\n",
		len(names), cfg.STLBPolicy, cfg.L2CPolicy, cfg.LLCPolicy, f.Warmup, f.Measure)
	fmt.Fprintf(w, "%-12s %8s %9s %9s %8s %s\n", "workload", "IPC", "STLB-MPKI", "walk-lat", "itc%", "status")
	failed := 0
	for i, res := range results {
		if res.Err != nil {
			failed++
			fmt.Fprintf(w, "%-12s %8s %9s %9s %8s FAILED (attempt %d)\n",
				names[i], "-", "-", "-", "-", res.Attempts)
			continue
		}
		s := res.Stats
		ti := s.TotalInstructions()
		fmt.Fprintf(w, "%-12s %8.4f %9.3f %9.1f %7.1f%% %s\n",
			names[i], s.IPC(), s.STLB.MPKI(ti), s.STLB.AvgMissLatency(),
			100*s.InstrTransFraction(), status(res.Cached, res.Beacon))
	}
	if err != nil {
		fmt.Fprintf(stderr, "\nitpsim: %d/%d jobs failed:\n%v\n", failed, len(names), err)
		return 1
	}
	return 0
}

// status renders a run's table status: ok, whether it came from the
// checkpoint, and its beacon chain.
func status(cached bool, b *harness.BeaconStamp) string {
	s := "ok"
	if cached {
		s = "ok (checkpoint)"
	}
	if b != nil {
		s += fmt.Sprintf(" chain=%016x/%d", b.Chain, b.Count)
	}
	return s
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
