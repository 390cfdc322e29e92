package run

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -pprof server
	"os"
	"time"

	"itpsim/internal/config"
	"itpsim/internal/harness"
	"itpsim/internal/metrics"
)

// FlagDefaults are one front end's defaults for the shared flags.
type FlagDefaults struct {
	// Tool names the front end in log lines, expvar keys and the export
	// manifest.
	Tool string
	// Warmup and Measure default -warmup and the measure flag, named
	// MeasureFlag (-n, or -measure in itpbench). LengthNote ends both
	// usage strings.
	Warmup, Measure uint64
	MeasureFlag     string
	LengthNote      string
	SampleWindow    uint64
	CoresUsage      string
	// Policies default -stlb, -l2c and -llc. A tool without them
	// (itpbench, whose experiments pick their own policies) also gets
	// no robustness or observability flags.
	Policies []string
}

// Flags are the values of the shared flags after parsing.
type Flags struct {
	tool string

	Warmup, Measure uint64
	Cores           int
	STLB, L2C, LLC  string

	Parallel         int
	Retries          int
	JobTimeout       time.Duration
	Checkpoint       string
	WatchdogInterval time.Duration
	WatchdogSamples  int

	Shards       int
	SamplePhases int
	SampleWindow uint64
	FuncWarmup   uint64

	BeaconInterval uint64
	Audit          bool
	MetricsOut     string
	MetricsWindow  uint64
	Pprof          string
}

// RegisterFlags declares the supervision, mode, run-length and CMP-width
// flags on fs and, for tools with policies, the policy, robustness and
// observability flags.
func RegisterFlags(fs *flag.FlagSet, d FlagDefaults) *Flags {
	f := &Flags{tool: d.Tool}
	fs.Uint64Var(&f.Warmup, "warmup", d.Warmup, "warmup instructions per thread"+d.LengthNote)
	fs.Uint64Var(&f.Measure, d.MeasureFlag, d.Measure, "measured instructions per thread"+d.LengthNote)
	fs.IntVar(&f.Cores, "cores", 0, d.CoresUsage)

	fs.IntVar(&f.Parallel, "parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
	fs.IntVar(&f.Retries, "retries", 0, "retry attempts for transiently failed jobs")
	fs.DurationVar(&f.JobTimeout, "job-timeout", 0, "per-job wall-clock deadline (0 = none)")
	fs.StringVar(&f.Checkpoint, "checkpoint", "", "JSON-lines checkpoint journal; completed jobs are skipped on re-run")
	fs.DurationVar(&f.WatchdogInterval, "watchdog-interval", 5*time.Second, "forward-progress sampling period (0 disables the watchdog)")
	fs.IntVar(&f.WatchdogSamples, "watchdog-samples", 6, "consecutive no-progress samples before a run is killed")

	fs.IntVar(&f.Shards, "shards", 1, "split each single-stream simulation into this many parallel warmup+measure segments (1 = serial; SMT pairs and multi-core runs run whole; error bounds in DESIGN.md §12)")
	fs.IntVar(&f.SamplePhases, "sample-phases", 0, "phase-sample each single-stream simulation: K phases from a shared LRU-baseline profile, one representative interval each simulated in detail (0 = off; error bounds in DESIGN.md §14)")
	fs.Uint64Var(&f.SampleWindow, "sample-window", d.SampleWindow, "phase-classification interval in retired instructions (0 = 50000); warmup and measure must be multiples of it when -sample-phases > 1")
	fs.Uint64Var(&f.FuncWarmup, "func-warmup", 0, "replay this prefix of each segment's warmup functionally (TLB/cache/predictor state only, no pipeline); must leave a detailed warmup suffix. Applies to -shards and -sample-phases runs")

	if len(d.Policies) != 3 {
		return f
	}
	fs.StringVar(&f.STLB, "stlb", d.Policies[0], "STLB policy: lru, itp, chirp, problru")
	fs.StringVar(&f.L2C, "l2c", d.Policies[1], "L2C policy: lru, xptp, xptp-static, xptp-emissary, ptp, tdrrip, drrip, srrip, ship, mockingjay")
	fs.StringVar(&f.LLC, "llc", d.Policies[2], "LLC policy: lru, ship, mockingjay")
	fs.Uint64Var(&f.BeaconInterval, "beacon-interval", 0, "emit deterministic state beacons every N retired instructions (0 disables); chains print with the report and are journaled with the checkpoint")
	fs.BoolVar(&f.Audit, "audit", false, "run the structural invariant auditor during simulation; violations fail the job with a diagnosis")
	fs.StringVar(&f.MetricsOut, "metrics-out", "", "write the per-window metrics series (JSON lines, one manifest, every run's windows tagged with its label) to this file")
	fs.Uint64Var(&f.MetricsWindow, "metrics-window", 0, "metrics sampling window in retired instructions (0 = each run's adaptive controller window when one exists, else 1000)")
	fs.StringVar(&f.Pprof, "pprof", "", "serve net/http/pprof and /debug/vars on this address (e.g. localhost:6060)")
	return f
}

// Mode is the parsed execution mode.
func (f *Flags) Mode() Mode {
	return Mode{
		Shards:         f.Shards,
		SamplePhases:   f.SamplePhases,
		SampleWindow:   f.SampleWindow,
		FuncWarmup:     f.FuncWarmup,
		BeaconInterval: f.BeaconInterval,
		Audit:          f.Audit,
		MetricsWindow:  f.MetricsWindow,
	}
}

// Harness is the parsed supervision policy; events are logged to
// stderr.
func (f *Flags) Harness(stderr io.Writer) harness.Options {
	return harness.Options{
		Parallelism:      f.Parallel,
		Retries:          f.Retries,
		JobTimeout:       f.JobTimeout,
		WatchdogInterval: f.WatchdogInterval,
		WatchdogSamples:  f.WatchdogSamples,
		Checkpoint:       f.Checkpoint,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		},
	}
}

// Export describes the -metrics-out series.
type Export struct {
	// Config is the configuration the manifest hashes and names the
	// policies and window of.
	Config    config.SystemConfig
	Workloads []string
	Extra     map[string]string
	// Wrap, when set, wraps the file before the exporter writes to it.
	Wrap func(io.Writer) io.Writer
}

// Runner validates the mode, starts the -pprof server, opens the
// -metrics-out series with its manifest, and returns a runner wired to
// all of them. The caller runs done once the runner is done.
func (f *Flags) Runner(stderr io.Writer, opts harness.Options, e Export) (r *Runner, done func() error, err error) {
	mode := f.Mode()
	if err := mode.Validate(f.MetricsOut != ""); err != nil {
		return nil, nil, err
	}
	r = New(opts, mode)
	done = func() error { return nil }
	if f.Pprof != "" {
		addr := f.Pprof
		//itp:daemon pprof/expvar debug server lives for the whole process by design
		go func() {
			if err := http.ListenAndServe(addr, nil); err != nil {
				fmt.Fprintf(stderr, "%s: pprof server: %v\n", f.tool, err)
			}
		}()
		r.Expvar = f.tool
	}
	if f.MetricsOut == "" {
		return r, done, nil
	}
	file, err := os.Create(f.MetricsOut)
	if err != nil {
		return nil, nil, err
	}
	var sink io.Writer = file
	if e.Wrap != nil {
		sink = e.Wrap(file)
	}
	r.Export = metrics.NewJSONL(sink)
	cfgJSON, err := e.Config.MarshalPretty()
	if err == nil {
		err = r.Export.Manifest(metrics.Manifest{
			Tool: f.tool,
			Git:  metrics.GitDescribe(),
			//itp:wallclock — manifest timestamp only; never feeds the simulation
			Time:        time.Now().UTC().Format(time.RFC3339),
			ConfigHash:  metrics.ConfigHash(cfgJSON),
			WindowInstr: mode.Window(e.Config),
			Policies:    map[string]string{"stlb": e.Config.STLBPolicy, "l2c": e.Config.L2CPolicy, "llc": e.Config.LLCPolicy},
			Workloads:   e.Workloads,
			Extra:       e.Extra,
		})
	}
	if err != nil {
		file.Close()
		return nil, nil, err
	}
	return r, file.Close, nil
}
