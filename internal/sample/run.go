package sample

import (
	"fmt"

	"itpsim/internal/harness"
	"itpsim/internal/shard"
	"itpsim/internal/stats"
)

// RepResult is one representative's contribution to a sampled run.
type RepResult struct {
	Rep      Rep
	Segment  shard.Segment
	Stats    *stats.Sim
	Beacon   *harness.BeaconStamp
	Attempts int
	Cached   bool
}

// Result is a stitched sampled run.
type Result struct {
	Plan *Plan
	// Stats is the phase-occupancy-weighted sum of the representatives'
	// measured statistics: every counter of representative r is scaled by
	// r.Weight, so totals correspond to the full measured region and
	// ratio metrics (IPC, MPKI, hit rates) recompute as weighted
	// estimates of the full run's.
	Stats *stats.Sim
	// IPC is recomputed from the weighted totals.
	IPC float64
	// Reps holds the per-representative results in stream order.
	Reps []RepResult
}

// Beacon returns the run's deterministic-state fingerprint when the plan
// makes one meaningful: only the K=1 plan with fully detailed warmup
// simulates the exact serial machine, so only it has a serial-comparable
// chain.
func (r *Result) Beacon() *harness.BeaconStamp {
	if r.Plan.Config.Phases == 1 && len(r.Reps) == 1 && r.Reps[0].Segment.FuncWarmup == 0 {
		return r.Reps[0].Beacon
	}
	return nil
}

// shardConfig maps the sampling configuration onto the shard job engine.
// Representatives never sample windows themselves (the plan already owns
// the window structure), so MetricsWindow stays 0 and no alignment rule
// binds the warmup split.
func (p *Plan) shardConfig() shard.Config {
	return shard.Config{
		System:         p.Config.System,
		BeaconInterval: p.Config.BeaconInterval,
		Audit:          p.Config.Audit,
	}
}

// Jobs builds one supervised harness job per representative, keyed under
// baseKey|sampleK/w… so sampled checkpoints never collide with sharded
// ones for the same workload and configuration.
func (p *Plan) Jobs(baseKey string, src shard.Source, ix *shard.Index) ([]harness.Job[*shard.Payload], error) {
	if err := p.Config.Validate(); err != nil {
		return nil, err
	}
	key := fmt.Sprintf("%s|sample%d/w%d", baseKey, p.Config.Phases, p.Config.Window)
	return shard.SegmentJobs(p.shardConfig(), p.Segments(), key, src, ix)
}

// Stitch combines per-representative outcomes (indexed like Jobs) into
// one Result via weighted summation, re-verifying each payload's segment
// against the plan so stale checkpoints are rejected rather than summed.
func (p *Plan) Stitch(outs []harness.Outcome[*shard.Payload]) (*Result, error) {
	segs := p.Segments()
	if len(outs) != len(segs) {
		return nil, fmt.Errorf("sample: %d outcomes for a %d-representative plan", len(outs), len(segs))
	}
	res := &Result{
		Plan:  p,
		Stats: stats.NewSim(),
		Reps:  make([]RepResult, len(segs)),
	}
	for i, out := range outs {
		if out.Err != nil {
			return nil, fmt.Errorf("sample: representative %d (%s): %w", i, out.Key, out.Err)
		}
		pl := out.Result
		if pl == nil || pl.Stats == nil {
			return nil, fmt.Errorf("sample: representative %d (%s): empty payload", i, out.Key)
		}
		if pl.Segment != segs[i] {
			return nil, fmt.Errorf("sample: representative %d: payload segment %+v does not match plan segment %+v (stale checkpoint?)", i, pl.Segment, segs[i])
		}
		res.Stats.AddScaled(pl.Stats, p.Reps[i].Weight)
		res.Reps[i] = RepResult{
			Rep:      p.Reps[i],
			Segment:  pl.Segment,
			Stats:    pl.Stats,
			Beacon:   out.Beacon,
			Attempts: out.Attempts,
			Cached:   out.Cached,
		}
	}
	res.IPC = res.Stats.IPC()
	return res, nil
}

// Run executes one sampled simulation end to end: profile (through the
// cache, skipped for K=1), plan, representative jobs under the harness
// supervisor, weighted stitch. profiles may be nil (a throwaway cache);
// ix may be nil (no cross-run position snapshots).
func Run(cfg Config, baseKey string, src shard.Source, ix *shard.Index, profiles *Profiles, opts harness.Options) (*Result, error) {
	if profiles == nil {
		profiles = NewProfiles()
	}
	plan, err := profiles.Plan(cfg, src)
	if err != nil {
		return nil, err
	}
	jobs, err := plan.Jobs(baseKey, src, ix)
	if err != nil {
		return nil, err
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = len(jobs)
	}
	outs, err := harness.RunAll(opts, jobs)
	if err != nil {
		return nil, err
	}
	return plan.Stitch(outs)
}
