// Package sample implements SimPoint-style representative sampling: a
// cheap profiling pre-pass splits a long run into fixed-length intervals
// of retired instructions, clusters the intervals' architecture-metric
// vectors into K phases with a deterministic seeded k-means, and then
// simulates ONE representative interval per phase in detail — each as a
// supervised internal/shard segment, in parallel, with most of its
// warmup replayed functionally — reconstructing the full-run statistics
// as the phase-occupancy-weighted sum of the representatives.
//
// The profile is taken once per workload at a fixed baseline
// configuration (all replacement policies forced to LRU) so one profile
// serves every policy point of a sweep; phase structure is a property of
// the workload, not of the policy under study. Accuracy bounds per
// geometry are declared by the differential battery (TestSampledEquivalence,
// DESIGN.md §14). The degenerate K=1 plan runs the whole measured region
// as one fully detailed segment and is bit-exact with the serial run,
// beacon chain included.
package sample

import (
	"fmt"
	"math"

	"itpsim/internal/config"
	"itpsim/internal/metrics"
	"itpsim/internal/shard"
)

// featureCounters are the per-window counter deltas that, with IPC, form
// the phase-classification feature vector. All are tracked by
// sim.InstrumentMetrics and listed in metrics.RequiredStats.
var featureCounters = []string{
	"l1i.demand_miss",
	"stlb.demand_miss.instr",
	"stlb.demand_miss.data",
	"l2c.demand_miss",
	"branch.mispredict",
}

// Config describes one sampled simulation.
type Config struct {
	// System is the machine configuration the representatives run (the
	// policy point under study). Single-core only, like sharding.
	System config.SystemConfig
	// Phases is K, the number of phases (and detailed representative
	// intervals). 1 selects the degenerate exact plan: one fully detailed
	// segment over the whole measured region, no profile needed.
	Phases int
	// Window is the interval length in retired instructions; the measured
	// region splits into Measure/Window candidate intervals.
	Window uint64
	// Warmup is the per-representative warmup prefix in instructions
	// (total: functional + detailed).
	Warmup uint64
	// DetailWarmup is the detailed (cycle-accurate) suffix of Warmup; the
	// remainder is replayed functionally at generator speed. 0 selects a
	// fully detailed warmup.
	DetailWarmup uint64
	// Measure is the measured region length in instructions.
	Measure uint64
	// BeaconInterval and Audit arm per-segment state beacons and the
	// structural invariant auditor, as in shard.Config.
	BeaconInterval uint64
	Audit          bool
	// Seed seeds the k-means initialisation (0 is a valid seed).
	Seed uint64
	// Iters bounds the k-means Lloyd iterations (0 selects 32).
	Iters int
}

func (c Config) detailWarmup() uint64 {
	if c.DetailWarmup == 0 || c.DetailWarmup > c.Warmup {
		return c.Warmup
	}
	return c.DetailWarmup
}

func (c Config) funcWarmup() uint64 { return c.Warmup - c.detailWarmup() }

func (c Config) iters() int {
	if c.Iters <= 0 {
		return 32
	}
	return c.Iters
}

// Validate rejects nonsensical sampling configurations.
func (c Config) Validate() error {
	if c.Phases < 1 {
		return fmt.Errorf("sample: %d phases", c.Phases)
	}
	if c.Measure == 0 {
		return fmt.Errorf("sample: nothing to measure")
	}
	if c.System.Cores > 1 {
		return fmt.Errorf("sample: multi-core runs (Cores=%d) must run whole; sampling splits a single stream", c.System.Cores)
	}
	if c.Phases == 1 {
		return nil // the exact plan has no interval structure to align
	}
	if c.Window == 0 {
		return fmt.Errorf("sample: K>1 needs a window size")
	}
	if c.Measure%c.Window != 0 {
		return fmt.Errorf("sample: measure %d is not a multiple of the %d-instruction window", c.Measure, c.Window)
	}
	if c.Warmup%c.Window != 0 {
		// Profile windows tile from instruction 0; a warmup that is not a
		// window multiple would put the warmup/measure boundary inside a
		// window and misalign every interval after it.
		return fmt.Errorf("sample: warmup %d is not a multiple of the %d-instruction window", c.Warmup, c.Window)
	}
	return nil
}

// Rep is one representative interval of the plan.
type Rep struct {
	// Phase is the cluster this representative stands for.
	Phase int `json:"phase"`
	// Window is the interval's index within the measured region (interval
	// w covers serial instructions [Warmup+w·Window, Warmup+(w+1)·Window)).
	Window uint64 `json:"window"`
	// Weight is the phase occupancy: how many measured intervals the
	// cluster holds. Weighted stitching multiplies this representative's
	// counters by Weight, and the weights sum to Measure/Window.
	Weight uint64 `json:"weight"`
}

// Plan is a sampled-run plan: which intervals run in detail and what each
// one's statistics count for.
type Plan struct {
	Config Config
	// Reps is ordered by ascending Window (stream offset order).
	Reps []Rep
}

// Segments maps the plan onto shard segments: representative w consumes
// stream [w·Window, w·Window+Warmup+Window) and measures its last Window
// instructions — exactly the serial run's interval w, approximated only
// through the warmup. The K=1 plan is the serial run itself.
func (p *Plan) Segments() []shard.Segment {
	c := p.Config
	if c.Phases == 1 {
		return []shard.Segment{{
			Index:      0,
			Offset:     0,
			FuncWarmup: c.funcWarmup(),
			Warmup:     c.detailWarmup(),
			Measure:    c.Measure,
		}}
	}
	segs := make([]shard.Segment, len(p.Reps))
	for i, rep := range p.Reps {
		segs[i] = shard.Segment{
			Index:      i,
			Offset:     rep.Window * c.Window,
			FuncWarmup: c.funcWarmup(),
			Warmup:     c.detailWarmup(),
			Measure:    c.Window,
		}
	}
	return segs
}

// BuildPlan classifies a profile's measured intervals into phases and
// picks one representative per phase. recs is the profiling pre-pass's
// window series (window size Config.Window, from instruction 0); only
// windows past the warmup participate. Pure planning — no simulation —
// so plans are unit-testable and replayable from journaled profiles.
func BuildPlan(cfg Config, recs []metrics.WindowRecord) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Phases == 1 {
		return &Plan{Config: cfg, Reps: []Rep{{Phase: 0, Window: 0, Weight: 1}}}, nil
	}
	vecs, base, err := features(cfg, recs)
	if err != nil {
		return nil, err
	}
	k := cfg.Phases
	if k > len(vecs) {
		k = len(vecs)
	}
	assign := kmeans(vecs, k, cfg.Seed, cfg.iters())
	reps, counts := medoids(vecs, assign, k)

	plan := &Plan{Config: cfg}
	for c, r := range reps {
		if r < 0 {
			continue // empty phase: its weight is zero, nothing to run
		}
		plan.Reps = append(plan.Reps, Rep{Phase: c, Window: base[r], Weight: uint64(counts[c])})
	}
	// Stream-offset order, so segment positioning is one ascending pass.
	for i := 1; i < len(plan.Reps); i++ {
		for j := i; j > 0 && plan.Reps[j].Window < plan.Reps[j-1].Window; j-- {
			plan.Reps[j], plan.Reps[j-1] = plan.Reps[j-1], plan.Reps[j]
		}
	}
	var total uint64
	for _, rep := range plan.Reps {
		total += rep.Weight
	}
	if want := cfg.Measure / cfg.Window; total != want {
		return nil, fmt.Errorf("sample: phase weights cover %d of %d intervals", total, want)
	}
	return plan, nil
}

// features turns the profile's measured windows into z-normalised metric
// vectors. base[i] is the measured-region interval index of vector i.
func features(cfg Config, recs []metrics.WindowRecord) (vecs [][]float64, base []uint64, err error) {
	want := cfg.Measure / cfg.Window
	for _, rec := range recs {
		if uint64(rec.Retired) <= cfg.Warmup {
			continue
		}
		w := (uint64(rec.Retired) - cfg.Warmup - 1) / cfg.Window
		if w >= want {
			break
		}
		if uint64(rec.Instr) != cfg.Window {
			return nil, nil, fmt.Errorf("sample: profile window at %d spans %d instructions, want %d (profile taken with a different window?)", rec.Retired, rec.Instr, cfg.Window)
		}
		perKI := 1000 / float64(rec.Instr)
		v := make([]float64, 1+len(featureCounters))
		v[0] = rec.IPC
		for i, name := range featureCounters {
			v[i+1] = float64(rec.Counters[name]) * perKI
		}
		vecs = append(vecs, v)
		base = append(base, w)
	}
	if uint64(len(vecs)) != want {
		return nil, nil, fmt.Errorf("sample: profile has %d measured windows, want %d (profile geometry mismatch)", len(vecs), want)
	}
	// z-normalise each dimension so no single counter's scale dominates
	// the distance metric.
	dim := len(vecs[0])
	for d := 0; d < dim; d++ {
		var mean float64
		for _, v := range vecs {
			mean += v[d]
		}
		mean /= float64(len(vecs))
		var variance float64
		for _, v := range vecs {
			t := v[d] - mean
			variance += t * t
		}
		variance /= float64(len(vecs))
		if variance == 0 {
			for _, v := range vecs {
				v[d] = 0
			}
			continue
		}
		inv := 1 / math.Sqrt(variance)
		for _, v := range vecs {
			v[d] = (v[d] - mean) * inv
		}
	}
	return vecs, base, nil
}
