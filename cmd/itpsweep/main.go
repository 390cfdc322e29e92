// Command itpsweep runs custom parameter sweeps, the moral equivalent of
// the artifact's experiment-customisation workflow: pick a workload set,
// a policy combination, one machine parameter, and a list of values; get
// one row per value with IPC and the key translation metrics.
//
// Every simulation runs under the fault-tolerant harness: a panicking,
// erroring, or stalled job is reported (with a diagnostic snapshot) and
// the rest of the sweep completes; -checkpoint journals finished jobs so
// an interrupted sweep resumes where it stopped.
//
// Examples:
//
//	itpsweep -param xptp.k -values 2,4,6,8
//	itpsweep -param itp.n -values 1,2,4,6 -stlb itp
//	itpsweep -param stlb-entries -values 768,1536,3072 -workloads srv_000,srv_007
//	itpsweep -param huge -values 0,0.1,0.5,1.0 -stlb itp -l2c xptp
//	itpsweep -param rob -values 256,512 -retries 2 -job-timeout 10m -checkpoint sweep.ckpt
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"itpsim/internal/config"
	"itpsim/internal/run"
	"itpsim/internal/stats"
	"itpsim/internal/workload"
)

// params maps sweepable parameter names to config mutators.
var params = map[string]func(*config.SystemConfig, float64) error{
	"itp.n": func(c *config.SystemConfig, v float64) error { c.ITP.N = int(v); return nil },
	"itp.m": func(c *config.SystemConfig, v float64) error { c.ITP.M = int(v); return nil },
	"itp.freqbits": func(c *config.SystemConfig, v float64) error {
		c.ITP.FreqBits = int(v)
		return nil
	},
	"xptp.k":  func(c *config.SystemConfig, v float64) error { c.XPTP.K = int(v); return nil },
	"xptp.t1": func(c *config.SystemConfig, v float64) error { c.XPTP.T1 = int(v); return nil },
	"xptp.window": func(c *config.SystemConfig, v float64) error {
		c.XPTP.WindowInstr = uint64(v)
		return nil
	},
	"itlb": func(c *config.SystemConfig, v float64) error {
		*c = c.WithITLBEntries(int(v))
		return nil
	},
	"stlb-entries": func(c *config.SystemConfig, v float64) error {
		*c = c.WithSTLBEntries(int(v))
		return nil
	},
	"huge": func(c *config.SystemConfig, v float64) error {
		c.HugePageFraction = v
		return nil
	},
	"fdip-distance": func(c *config.SystemConfig, v float64) error {
		c.FDIPDistance = int(v)
		return nil
	},
	"rob": func(c *config.SystemConfig, v float64) error { c.ROBSize = int(v); return nil },
	"p":   func(c *config.SystemConfig, v float64) error { c.ProbKeepInstr = v; return nil },
}

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// runMain is the whole command: it parses args, runs the grid, prints
// the table to stdout and returns the exit status (2: bad usage or a
// rejected plan, 1: a run failed).
func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("itpsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		param     = fs.String("param", "", "parameter to sweep: "+paramNames())
		values    = fs.String("values", "", "comma-separated values")
		workloads = fs.String("workloads", "srv_000,srv_007,srv_013", "comma-separated catalogue workloads")
	)
	f := run.RegisterFlags(fs, run.FlagDefaults{
		Tool:         "itpsweep",
		Warmup:       500_000,
		Measure:      1_500_000,
		MeasureFlag:  "n",
		SampleWindow: run.DefaultSampleWindow,
		CoresUsage:   "run each grid point on a CMP with this many cores, every core running a copy of the point's workload (0/1 = single core)",
		Policies:     []string{"itp", "xptp", "lru"},
	})
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "itpsweep: "+format+"\n", args...)
		return 2
	}

	mutate, ok := params[*param]
	if !ok {
		return usage("-param must be one of %s", paramNames())
	}
	var vals []float64
	for _, s := range strings.Split(*values, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return usage("bad value %q: %v", s, err)
		}
		vals = append(vals, v)
	}
	var names []string
	for _, n := range strings.Split(*workloads, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}

	// One spec per (value, workload) point, in table order; with -cores
	// every core runs its own copy of the point's workload, so the sweep
	// measures the shared hierarchy under homogeneous N-tenant pressure.
	cat := workload.NewCatalog(120, 20)
	base := config.Default()
	base.STLBPolicy, base.L2CPolicy, base.LLCPolicy = f.STLB, f.L2C, f.LLC
	var specs []run.Spec
	for _, v := range vals {
		cfg := base
		if err := mutate(&cfg, v); err != nil {
			return usage("%s=%g: %v", *param, v, err)
		}
		if f.Cores > 1 {
			cfg.Cores = f.Cores
		}
		for _, name := range names {
			s := run.Spec{
				Tag:     "sweep",
				Label:   fmt.Sprintf("%s=%g/%s", *param, v, name),
				Config:  cfg,
				Warmup:  f.Warmup,
				Measure: f.Measure,
			}
			for i := 0; i < max(cfg.Cores, 1); i++ {
				s.Sources = append(s.Sources, run.CatalogSource(cat, name))
			}
			specs = append(specs, s)
		}
	}

	r, done, err := f.Runner(stderr, f.Harness(stderr), run.Export{
		Config:    base,
		Workloads: names,
		Extra:     map[string]string{"param": *param, "values": *values},
	})
	if err != nil {
		return usage("%v", err)
	}
	defer done()
	results, runErr := r.Run(specs)
	if results == nil {
		return usage("%v", runErr)
	}

	fmt.Fprintf(stdout, "sweep %s over %v; policies STLB=%s L2C=%s LLC=%s; %d+%d instr",
		*param, vals, f.STLB, f.L2C, f.LLC, f.Warmup, f.Measure)
	if f.Shards > 1 {
		fmt.Fprintf(stdout, "; %d shards/point", f.Shards)
	}
	if f.SamplePhases > 0 {
		fmt.Fprintf(stdout, "; %d sample phases/point (w=%d)", f.SamplePhases, f.SampleWindow)
	}
	if f.FuncWarmup > 0 {
		fmt.Fprintf(stdout, "; functional warmup %d", f.FuncWarmup)
	}
	fmt.Fprintf(stdout, "\n\n%-10s %-10s %8s %9s %9s %9s %9s\n",
		"value", "workload", "IPC", "STLB-MPKI", "walk-lat", "L2C-dt", "itc%")

	failed := 0
	for i, v := range vals {
		ratios := make([]float64, 0, len(names))
		for j, name := range names {
			res := results[i*len(names)+j]
			if res.Err != nil {
				failed++
				fmt.Fprintf(stdout, "%-10.3g %-10s FAILED: %v\n", v, name, firstLine(res.Err))
				continue
			}
			s := res.Stats
			ti := s.TotalInstructions()
			fmt.Fprintf(stdout, "%-10.3g %-10s %8.4f %9.3f %9.1f %9.2f %8.1f%%\n",
				v, name, s.IPC(), s.STLB.MPKI(ti), s.STLB.AvgMissLatency(),
				s.L2C.BucketMPKI(stats.BDataTrans, ti), 100*s.InstrTransFraction())
			ratios = append(ratios, s.IPC())
		}
		fmt.Fprintf(stdout, "%-10.3g %-10s %8.4f\n\n", v, "GEOMEAN", stats.Geomean(ratios))
	}
	if runErr != nil {
		fmt.Fprintf(stderr, "itpsweep: %d/%d points failed:\n%v\n", failed, len(specs), runErr)
		return 1
	}
	return 0
}

// firstLine truncates multi-line errors (panic stacks, snapshots) for the
// table; the full detail went to stderr via the harness log.
func firstLine(err error) string {
	s := err.Error()
	if idx := strings.IndexByte(s, '\n'); idx >= 0 {
		s = s[:idx] + " ..."
	}
	return s
}

func paramNames() string {
	names := make([]string, 0, len(params))
	for n := range params {
		names = append(names, n)
	}
	// stable order for help text
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	return strings.Join(names, ", ")
}
