// Package run is the one run planner behind itpsim, itpsweep and
// itpbench. A front end describes its simulations as Specs (stream
// sources, machine configuration, warmup/measure, label) and picks one
// Mode; the planner validates the combination, keys every job, dedupes
// same-key specs and recalls memoised ones, expands single-stream specs
// into sharded or phase-sampled segment jobs, runs every job in a single
// harness.RunAll (so a shared checkpoint journal keeps one writer), and
// stitches the outcomes back into one Result per spec.
//
// Capability matrix (DESIGN.md §7):
//
//	mode                      single stream  SMT pair / CMP  -metrics-out  beacons/audit
//	serial                    whole run      whole run       streamed      whole run
//	-shards K / -func-warmup  K segments     whole run       stitched      per segment
//	-sample-phases K          K reps         whole run       rejected      per rep
//
// -shards with -sample-phases is rejected, and -func-warmup must leave a
// detailed warmup suffix. Planning errors (a rejected mode, a plan that
// does not fit the run, a failed profile) fail the whole Run before any
// job starts; job failures are per spec and leave the rest intact.
package run

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"

	"itpsim/internal/config"
	"itpsim/internal/harness"
	"itpsim/internal/metrics"
	"itpsim/internal/sample"
	"itpsim/internal/shard"
	"itpsim/internal/sim"
	"itpsim/internal/stats"
	"itpsim/internal/workload"
)

// DefaultSampleWindow is the phase-classification interval a zero
// Mode.SampleWindow selects.
const DefaultSampleWindow = 50_000

// Spec is one logical simulation.
type Spec struct {
	// Tag namespaces the job key (the tool or figure that owns the run).
	Tag string
	// Label names the run in window exports and expvar keys.
	Label string
	// Sources are the run's streams: one, an SMT pair, or one per core
	// of a CMP (Config.Cores).
	Sources []shard.Source
	Config  config.SystemConfig
	Warmup  uint64
	Measure uint64
}

// Key is the spec's job identity: memo, dedupe and checkpoint key. It
// is tag|workloads|config hash|warmup/measure, where the config hash is
// the first 16 hex digits of metrics.ConfigHash over the full machine
// configuration's JSON, so any config field that changes the run
// changes the key.
func (s Spec) Key() string {
	data, err := s.Config.MarshalPretty()
	if err != nil {
		// Only non-finite floats fail to marshal; their Go syntax still
		// tells configs apart.
		data = []byte(fmt.Sprintf("%#v", s.Config))
	}
	names := make([]string, len(s.Sources))
	for i, src := range s.Sources {
		names[i] = src.Name
	}
	return fmt.Sprintf("%s|%s|%s|%d/%d", s.Tag, strings.Join(names, "+"),
		metrics.ConfigHash(data)[:16], s.Warmup, s.Measure)
}

// single reports whether the spec is one single-core stream, the only
// shape the split modes can cut.
func (s Spec) single() bool { return len(s.Sources) == 1 && s.Config.Cores <= 1 }

// Mode selects how every spec of a Run executes.
type Mode struct {
	// Shards > 1 splits each single-stream spec into that many parallel
	// warmup+measure segments (internal/shard).
	Shards int
	// SamplePhases > 0 phase-samples each single-stream spec
	// (internal/sample): K representatives from a shared LRU-baseline
	// profile.
	SamplePhases int
	// SampleWindow is the phase-classification interval (0 selects
	// DefaultSampleWindow).
	SampleWindow uint64
	// FuncWarmup replays this prefix of each segment's warmup
	// functionally. Alone it routes single-stream specs through the
	// segment engine as one shard.
	FuncWarmup uint64
	// BeaconInterval arms deterministic state beacons every N retired
	// instructions (0 = off); Audit arms the invariant auditor.
	BeaconInterval uint64
	Audit          bool
	// MetricsWindow is the metrics sampling window (0 = Window's rule).
	MetricsWindow uint64
}

// Validate rejects mode combinations no front end can run. exporting
// reports whether a window series is being exported.
func (m Mode) Validate(exporting bool) error {
	switch {
	case m.SamplePhases > 0 && m.Shards > 1:
		return errors.New("-sample-phases and -shards are alternative parallel modes; pick one")
	case m.SamplePhases > 0 && exporting:
		return errors.New("-metrics-out is not supported with -sample-phases (representatives carry no stitched window series)")
	}
	return nil
}

// splits reports whether single-stream specs leave the whole-run path.
func (m Mode) splits() bool { return m.Shards > 1 || m.SamplePhases > 0 || m.FuncWarmup > 0 }

// Window is the metrics sampling window for a run of cfg: the explicit
// MetricsWindow, else the adaptive xPTP controller's window when the
// config has one (so each exported window carries the decision that
// window produced), else metrics.DefaultWindow.
func (m Mode) Window(cfg config.SystemConfig) uint64 {
	switch {
	case m.MetricsWindow > 0:
		return m.MetricsWindow
	case cfg.L2CPolicy == "xptp" && cfg.XPTP.WindowInstr != 0:
		return cfg.XPTP.WindowInstr
	}
	return metrics.DefaultWindow
}

// Result is one spec's verdict.
type Result struct {
	Stats *stats.Sim
	// Err is the spec's failure (nil on success).
	Err error
	// Attempts is the most attempts any of the spec's jobs took.
	Attempts int
	// Cached marks results recalled from the checkpoint journal (every
	// job of the spec).
	Cached bool
	// Beacon is the serial-comparable beacon chain: a whole run's, or a
	// split run's when its plan is serial-exact.
	Beacon *harness.BeaconStamp
	// Shard or Sample holds the stitched detail of a split spec.
	Shard  *shard.Result
	Sample *sample.Result
}

// Runner plans and runs specs. Its memo, split index and profile cache
// persist across Run calls, so shared baselines simulate once. Run calls
// must not overlap.
type Runner struct {
	Harness harness.Options
	Mode    Mode
	// Export, when set, receives every run's window series under its
	// label: whole runs stream theirs, sharded runs write the stitched
	// series after the run.
	Export *metrics.JSONL
	// Expvar, when set, publishes each whole run's live metrics view
	// (metrics.Windows.Live) as Expvar+"."+label.
	Expvar string

	ix       *shard.Index
	profiles *sample.Profiles
	memo     map[string]Result
}

// New returns a runner. Parallelism <= 0 selects GOMAXPROCS.
func New(opts harness.Options, mode Mode) *Runner {
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		Harness:  opts,
		Mode:     mode,
		ix:       shard.NewIndex(),
		profiles: sample.NewProfiles(),
		memo:     make(map[string]Result),
	}
}

// planned is one spec's slice of the flat job list.
type planned struct {
	key      string
	start, n int
	stitch   func([]harness.Outcome[*shard.Payload]) Result
	done     bool // resolved from the memo
	dup      int  // >= 0: same key as an earlier spec
}

// Run executes specs, in order. Results are always returned when the
// batch ran, even when some specs failed; the error joins every failed
// spec's error, wrapped with its key. A nil result slice means nothing
// ran: the mode or a plan was rejected, or the checkpoint journal could
// not be opened.
func (r *Runner) Run(specs []Spec) ([]Result, error) {
	if err := r.Mode.Validate(r.Export != nil); err != nil {
		return nil, err
	}
	out := make([]Result, len(specs))
	plans := make([]planned, len(specs))
	seen := make(map[string]int, len(specs))
	var flat []harness.Job[*shard.Payload]
	for i, s := range specs {
		p := &plans[i]
		p.key, p.dup = s.Key(), -1
		if r.Mode.FuncWarmup > 0 && r.Mode.FuncWarmup >= s.Warmup {
			return nil, fmt.Errorf("-func-warmup %d must leave a detailed warmup suffix (-warmup %d)", r.Mode.FuncWarmup, s.Warmup)
		}
		if res, ok := r.memo[p.key]; ok {
			out[i], p.done = res, true
			continue
		}
		if first, ok := seen[p.key]; ok {
			p.dup = first
			continue
		}
		seen[p.key] = i
		jobs := []harness.Job[*shard.Payload]{{Key: p.key, Run: r.whole(s)}}
		p.stitch = wholeResult
		// Pairs and CMP runs always run whole: splitting is defined over
		// one stream.
		if s.single() && r.Mode.splits() {
			var err error
			if jobs, p.stitch, err = r.split(s, p.key); err != nil {
				return nil, fmt.Errorf("%s: %w", s.Label, err)
			}
		}
		p.start, p.n = len(flat), len(jobs)
		flat = append(flat, jobs...)
	}

	outs, err := harness.RunAll(r.Harness, flat)
	if outs == nil {
		return nil, err
	}
	var errs []error
	for i, s := range specs {
		p := plans[i]
		switch {
		case p.done:
			continue
		case p.dup >= 0:
			out[i] = out[p.dup]
			continue
		}
		out[i] = p.stitch(outs[p.start : p.start+p.n])
		if out[i].Err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", p.key, out[i].Err))
			continue
		}
		if sh := out[i].Shard; sh != nil && r.Export != nil {
			sink := r.Export.WindowSink(s.Label, r.exportErr(s.Label))
			for w := range sh.Windows {
				sink(&sh.Windows[w])
			}
		}
		r.memo[p.key] = out[i]
	}
	return out, errors.Join(errs...)
}

// summarize folds the supervision metadata of one spec's jobs.
func summarize(outs []harness.Outcome[*shard.Payload]) Result {
	res := Result{Cached: true}
	for _, o := range outs {
		res.Attempts = max(res.Attempts, o.Attempts)
		res.Cached = res.Cached && o.Cached
	}
	return res
}

// wholeResult maps a whole run's single outcome onto its spec's result.
func wholeResult(outs []harness.Outcome[*shard.Payload]) Result {
	res, o := summarize(outs), outs[0]
	res.Beacon = o.Beacon
	switch {
	case o.Err != nil:
		res.Err = o.Err
	case o.Result == nil || o.Result.Stats == nil:
		res.Err = errors.New("empty whole-run payload (stale checkpoint?)")
	default:
		res.Stats = o.Result.Stats
	}
	return res
}

// whole is the job body of an unsplit run: a fresh machine attached to
// the supervisor, context-aware sources bound to the job, robustness
// and metrics layers armed, decode-ahead ingestion, then the run.
func (r *Runner) whole(s Spec) func(*harness.JobContext) (*shard.Payload, error) {
	return func(jc *harness.JobContext) (*shard.Payload, error) {
		m, err := sim.NewMachine(s.Config)
		if err != nil {
			return nil, harness.Permanent(err)
		}
		jc.Attach(m)
		streams := make([]workload.Stream, len(s.Sources))
		for i, src := range s.Sources {
			streams[i] = src.New()
			// Context-aware sources (trace feeds, pipes) unblock when the
			// supervisor kills the job. Bind the originals before the
			// decode-ahead wrap hides them.
			if b, ok := streams[i].(interface{ Bind(context.Context) }); ok {
				b.Bind(jc.Context())
			}
		}
		if r.Mode.BeaconInterval > 0 {
			m.EnableBeacons(r.Mode.BeaconInterval)
		}
		if r.Mode.Audit {
			m.EnableAudit(0)
		}
		if r.Export != nil || r.Expvar != "" {
			w := m.InstrumentMetrics(r.Mode.Window(s.Config))
			if r.Export != nil {
				w.SetSink(r.Export.WindowSink(s.Label, r.exportErr(s.Label)))
			} else {
				// Nothing reads the series back: keep only the recent
				// history stall diagnostics print.
				w.SetRetain(64)
			}
			if r.Expvar != "" {
				w.PublishExpvar(r.Expvar + "." + s.Label)
			}
		}
		for i, st := range streams {
			p := workload.Prefetch(st)
			defer p.Close()
			streams[i] = p
		}
		res, err := m.RunWarmup(streams, s.Warmup, s.Measure)
		if err != nil {
			return nil, err
		}
		return &shard.Payload{Stats: res.Stats}, nil
	}
}

// split expands a single-stream spec into its segment jobs: K shards, or
// one job per phase representative after the (cached) profiling pass.
func (r *Runner) split(s Spec, key string) ([]harness.Job[*shard.Payload], func([]harness.Outcome[*shard.Payload]) Result, error) {
	src := s.Sources[0]
	if r.Mode.SamplePhases > 0 {
		cfg := sample.Config{
			System:         s.Config,
			Phases:         r.Mode.SamplePhases,
			Window:         r.Mode.SampleWindow,
			Warmup:         s.Warmup,
			Measure:        s.Measure,
			BeaconInterval: r.Mode.BeaconInterval,
			Audit:          r.Mode.Audit,
		}
		if cfg.Window == 0 {
			cfg.Window = DefaultSampleWindow
		}
		if r.Mode.FuncWarmup > 0 {
			cfg.DetailWarmup = s.Warmup - r.Mode.FuncWarmup
		}
		plan, err := r.profiles.Plan(cfg, src)
		if err != nil {
			return nil, nil, err
		}
		jobs, err := plan.Jobs(key, src, r.ix)
		return jobs, func(outs []harness.Outcome[*shard.Payload]) Result {
			res := summarize(outs)
			if res.Sample, res.Err = plan.Stitch(outs); res.Err == nil {
				res.Stats, res.Beacon = res.Sample.Stats, res.Sample.Beacon()
			}
			return res
		}, err
	}
	cfg := shard.Config{
		System:         s.Config,
		Plan:           shard.Plan{Shards: max(r.Mode.Shards, 1), Warmup: s.Warmup, Measure: s.Measure, FuncWarmup: r.Mode.FuncWarmup},
		BeaconInterval: r.Mode.BeaconInterval,
		Audit:          r.Mode.Audit,
	}
	if r.Export != nil {
		cfg.MetricsWindow = r.Mode.Window(s.Config)
	}
	jobs, err := shard.Jobs(cfg, key, src, r.ix)
	return jobs, func(outs []harness.Outcome[*shard.Payload]) Result {
		res := summarize(outs)
		if res.Shard, res.Err = shard.Stitch(cfg, outs); res.Err == nil {
			res.Stats, res.Beacon = res.Shard.Stats, res.Shard.Beacon()
		}
		return res
	}, err
}

// exportErr reports a failed window write for one run without failing
// the simulation: the export is an observer.
func (r *Runner) exportErr(label string) func(error) {
	return func(err error) {
		if r.Harness.Logf != nil {
			r.Harness.Logf("metrics export (%s): %v", label, err)
		}
	}
}

// CatalogSource resolves a catalogue workload into a source. An unknown
// name still yields a source, whose streams end at once with the lookup
// error marked permanent, so the spec fails like any other job instead
// of aborting its batch.
func CatalogSource(cat *workload.Catalog, name string) shard.Source {
	spec, err := cat.Get(name)
	if err != nil {
		return shard.Source{Name: name, New: func() workload.Stream {
			return workload.NewErrorStream(nil, 0, harness.Permanent(err))
		}}
	}
	return shard.Source{Name: name, New: spec.NewStream}
}
