package experiments

import (
	"itpsim/internal/config"
	"itpsim/internal/stats"
)

// Local aliases keep the Tab3 extras block readable.
const (
	statsBInstr = stats.BInstr
	statsBData  = stats.BData
)

// Ext1 evaluates the future-work directions Section 7 sketches, beyond
// the paper's own evaluation:
//
//   - iTP+xPTP with the adaptive controller (the paper's proposal),
//   - iTP+xPTP always-on (no Section 4.3.1 controller),
//   - iTP with the combined xPTP+Emissary L2C policy (protect data PTEs
//     *and* stall-critical code blocks),
//   - iTP+xPTP plus sequential instruction-translation prefetching into
//     the STLB ("iTP is orthogonal to STLB prefetching and could be
//     extended to consider it").
//
// All variants are reported as geomean IPC improvement over the LRU
// baseline, like Figure 8a.
func Ext1(o Options) (Result, error) {
	r := newRunner(o)
	res := Result{
		Figure: "ext1",
		Title:  "Future-work extensions (Section 7)",
		YLabel: "% geomean IPC improvement over LRU baseline",
	}
	names := r.serverSet()
	baseJobs := make([]job, len(names))
	for i, n := range names {
		baseJobs[i] = r.newJob([]string{n}, config.Default(), "ext1")
	}
	bases, err := r.runAll(baseJobs)
	if err != nil {
		return res, err
	}

	variants := []struct {
		name string
		mod  func(*config.SystemConfig)
	}{
		{"iTP+xPTP (adaptive)", func(c *config.SystemConfig) {
			c.STLBPolicy, c.L2CPolicy = "itp", "xptp"
		}},
		{"iTP+xPTP (always-on)", func(c *config.SystemConfig) {
			c.STLBPolicy, c.L2CPolicy = "itp", "xptp-static"
		}},
		{"iTP+xPTP+Emissary", func(c *config.SystemConfig) {
			c.STLBPolicy, c.L2CPolicy = "itp", "xptp-emissary"
		}},
		{"iTP+xPTP + STLB prefetch", func(c *config.SystemConfig) {
			c.STLBPolicy, c.L2CPolicy = "itp", "xptp"
			c.STLBPrefetch = true
		}},
	}
	for _, v := range variants {
		cfg := config.Default()
		v.mod(&cfg)
		jobs := make([]job, len(names))
		for i, n := range names {
			jobs[i] = r.newJob([]string{n}, cfg, "ext1")
		}
		sims, err := r.runAll(jobs)
		if err != nil {
			return res, err
		}
		for i := range names {
			res.Rows = append(res.Rows, Row{Series: v.name, Label: names[i], Value: speedup(bases[i], sims[i])})
		}
		res.Rows = append(res.Rows, Row{Series: v.name, Label: "GEOMEAN", Value: geomeanSpeedup(bases, sims)})
	}
	res.Notes = append(res.Notes,
		"extensions beyond the paper's evaluation; Section 7 argues xPTP+Emissary and translation prefetching are promising combinations")
	return res, nil
}

// Tab3 characterises the synthetic workload suite the way artifact
// evaluations tabulate their traces: baseline IPC, STLB MPKI (total and
// per class), L1I MPKI, and the instruction-translation cycle share, one
// row per workload. Useful for checking the generators against the
// paper's published workload bands.
func Tab3(o Options) (Result, error) {
	r := newRunner(o)
	res := Result{
		Figure: "tab3",
		Title:  "Workload characteristics under the LRU baseline",
		YLabel: "baseline IPC (extras: MPKIs and translation share)",
	}
	names := append(r.serverSet(), r.specSet()...)
	jobs := make([]job, len(names))
	for i, n := range names {
		jobs[i] = r.newJob([]string{n}, config.Default(), "tab3")
	}
	sims, err := r.runAll(jobs)
	if err != nil {
		return res, err
	}
	for i, s := range sims {
		ti := s.TotalInstructions()
		res.Rows = append(res.Rows, Row{
			Series: "baseline",
			Label:  names[i],
			Value:  s.IPC(),
			Extra: map[string]float64{
				"stlb-mpki":   s.STLB.MPKI(ti),
				"stlb-impki":  s.STLB.BucketMPKI(statsBInstr, ti),
				"stlb-dmpki":  s.STLB.BucketMPKI(statsBData, ti),
				"l1i-mpki":    s.L1I.MPKI(ti),
				"itc-percent": 100 * s.InstrTransFraction(),
			},
		})
	}
	res.Notes = append(res.Notes,
		"paper bands: server STLB MPKI >= 1 with instruction STLB MPKI up to ~0.9; SPEC instruction-side negligible")
	return res, nil
}
