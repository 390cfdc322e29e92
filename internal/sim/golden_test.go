package sim

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"itpsim/internal/config"
	"itpsim/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current simulator")

// goldenStats is the headline-statistics fingerprint of one deterministic
// run. Any change to these numbers is a behavioural change to the
// simulator and must be deliberate (rerun with -update and review the
// diff).
type goldenStats struct {
	IPC        float64 `json:"ipc"`
	STLBMPKI   float64 `json:"stlb_mpki"`
	PTWLatency float64 `json:"ptw_latency"`
	L2CMissPct float64 `json:"l2c_miss_pct"`
}

// goldenCase is one pinned configuration: the STLB, L2C and LLC policy
// names, and whether the STLB is split (Section 6.6).
type goldenCase struct {
	name           string
	stlb, l2c, llc string
	split          bool
}

// goldenQuadrants are the paper's four policy quadrants over a fixed
// seeded workload: baseline, iTP alone, xPTP alone, and the cooperative
// pair.
var goldenQuadrants = []goldenCase{
	{"lru-lru", "lru", "lru", "lru", false},
	{"itp-lru", "itp", "lru", "lru", false},
	{"lru-xptp", "lru", "xptp", "lru", false},
	{"itp-xptp", "itp", "xptp", "lru", false},
}

// goldenCases pins every named policy end to end: the quadrants, each
// other L2C policy NewMachine accepts, the other STLB policies, the split
// STLB, and the LLC policies with per-set learning state.
var goldenCases = append(slices.Clip(goldenQuadrants), []goldenCase{
	{"lru-random", "lru", "random", "lru", false},
	{"lru-srrip", "lru", "srrip", "lru", false},
	{"lru-brrip", "lru", "brrip", "lru", false},
	{"lru-drrip", "lru", "drrip", "lru", false},
	{"lru-ship", "lru", "ship", "lru", false},
	{"lru-mockingjay", "lru", "mockingjay", "lru", false},
	{"lru-hawkeye", "lru", "hawkeye", "lru", false},
	{"lru-ptp", "lru", "ptp", "lru", false},
	{"lru-tdrrip", "lru", "tdrrip", "lru", false},
	{"lru-tship", "lru", "tship", "lru", false},
	{"lru-emissary", "lru", "emissary", "lru", false},
	{"lru-xptp-static", "lru", "xptp-static", "lru", false},
	{"lru-xptp-emissary", "lru", "xptp-emissary", "lru", false},
	{"chirp-lru", "chirp", "lru", "lru", false},
	{"problru-lru", "problru", "lru", "lru", false},
	{"split-itp-xptp", "itp", "xptp", "lru", true},
	{"lru-lru-llc-ship", "lru", "lru", "ship", false},
	{"lru-lru-llc-mockingjay", "lru", "lru", "mockingjay", false},
}...)

const goldenPath = "testdata/golden.json"

// goldenRun is one case's result: its headline statistics and its final
// beacon chain.
type goldenRun struct {
	stats  goldenStats
	beacon goldenBeacon
}

// goldenRuns memoises runGoldenCase so TestGoldenRegression and
// TestGoldenBeacons share one simulation per case.
var goldenRuns = map[string]goldenRun{}

func runGoldenCase(t *testing.T, tc goldenCase) goldenRun {
	t.Helper()
	if r, ok := goldenRuns[tc.name]; ok {
		return r
	}
	cfg := config.Default()
	cfg.STLBPolicy = tc.stlb
	cfg.L2CPolicy = tc.l2c
	cfg.LLCPolicy = tc.llc
	cfg.SplitSTLB = tc.split
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workload.NewCatalog(4, 2).Get("srv_000")
	if err != nil {
		t.Fatal(err)
	}
	m.EnableBeacons(0)
	res, err := m.RunWarmup([]workload.Stream{spec.NewStream()}, 50_000, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	ti := s.TotalInstructions()
	chain, count := m.BeaconChain()
	r := goldenRun{
		stats: goldenStats{
			IPC:        s.IPC(),
			STLBMPKI:   s.STLB.MPKI(ti),
			PTWLatency: float64(s.WalkLatSum[0]+s.WalkLatSum[1]) / float64(s.PageWalks[0]+s.PageWalks[1]),
			L2CMissPct: 100 * (1 - s.L2C.HitRate()),
		},
		beacon: goldenBeacon{Chain: hex16(chain), Count: count},
	}
	goldenRuns[tc.name] = r
	return r
}

// TestGoldenRegression locks the headline statistics of every golden
// case to testdata/golden.json. The workload generator, the machine,
// and Go's float arithmetic are all bit-deterministic, so the tolerance
// only absorbs formatting round-trips, not behaviour.
func TestGoldenRegression(t *testing.T) {
	got := make(map[string]goldenStats, len(goldenCases))
	for _, tc := range goldenCases {
		got[tc.name] = runGoldenCase(t, tc).stats
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/sim -run TestGoldenRegression -update` to create it)", err)
	}
	var want map[string]goldenStats
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}

	const relTol = 1e-9
	for _, tc := range goldenCases {
		w, ok := want[tc.name]
		if !ok {
			t.Errorf("%s: missing from golden file (rerun with -update)", tc.name)
			continue
		}
		g := got[tc.name]
		check := func(metric string, gotV, wantV float64) {
			if !withinRel(gotV, wantV, relTol) {
				t.Errorf("%s: %s = %.12g, golden %.12g (Δ %+.3g%%)",
					tc.name, metric, gotV, wantV, 100*(gotV-wantV)/wantV)
			}
		}
		check("IPC", g.IPC, w.IPC)
		check("STLB MPKI", g.STLBMPKI, w.STLBMPKI)
		check("PTW latency", g.PTWLatency, w.PTWLatency)
		check("L2C miss%", g.L2CMissPct, w.L2CMissPct)
	}
}

// TestGoldenOrdering sanity-checks the paper's directional claims on the
// golden numbers themselves, so a -update that silently inverts a policy
// effect fails loudly.
func TestGoldenOrdering(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Skip("golden file absent; TestGoldenRegression reports this")
	}
	var g map[string]goldenStats
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	for name, s := range g {
		if s.IPC <= 0 || math.IsNaN(s.IPC) {
			t.Errorf("%s: degenerate IPC %v", name, s.IPC)
		}
		if s.PTWLatency <= 0 || math.IsNaN(s.PTWLatency) {
			t.Errorf("%s: degenerate PTW latency %v", name, s.PTWLatency)
		}
	}
}

func withinRel(got, want, tol float64) bool {
	if got == want {
		return true
	}
	denom := math.Abs(want)
	if denom == 0 {
		denom = 1
	}
	return math.Abs(got-want)/denom <= tol
}
