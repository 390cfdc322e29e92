package sim

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"itpsim/internal/config"
	"itpsim/internal/workload"
)

// goldenMCStats fingerprints one 4-core co-location run: the aggregate
// headline numbers plus every tenant's IPC, so a change that shifts
// interference between tenants while preserving the totals still trips
// the battery.
type goldenMCStats struct {
	IPC       float64   `json:"ipc"`
	STLBMPKI  float64   `json:"stlb_mpki"`
	TenantIPC []float64 `json:"tenant_ipc"`
}

const goldenMCPath = "testdata/golden_mc.json"

func runGoldenMCCase(t *testing.T, stlb, l2c string) goldenMCStats {
	t.Helper()
	const cores = 4
	cfg := config.Default()
	cfg.Cores = cores
	cfg.STLBPolicy = stlb
	cfg.L2CPolicy = l2c
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cat := workload.NewCatalog(8, 2)
	names := cat.ServerNames()
	streams := make([]workload.Stream, cores)
	for i := range streams {
		spec, err := cat.Get(names[i%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = spec.NewStream()
	}
	res, err := m.RunWarmup(streams, 20_000, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	g := goldenMCStats{
		IPC:      s.IPC(),
		STLBMPKI: s.STLB.MPKI(s.TotalInstructions()),
	}
	for i := 0; i < cores; i++ {
		g.TenantIPC = append(g.TenantIPC, s.Cores[i].IPC())
	}
	return g
}

// TestGoldenMultiCoreRegression locks the 4-core co-location run of the
// four policy quadrants to testdata/golden_mc.json, the CMP counterpart
// of TestGoldenRegression (same -update flag rewrites both).
func TestGoldenMultiCoreRegression(t *testing.T) {
	got := make(map[string]goldenMCStats, len(goldenQuadrants))
	for _, tc := range goldenQuadrants {
		got[tc.name] = runGoldenMCCase(t, tc.stlb, tc.l2c)
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenMCPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenMCPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenMCPath)
		return
	}

	data, err := os.ReadFile(goldenMCPath)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/sim -run TestGoldenMultiCoreRegression -update` to create it)", err)
	}
	var want map[string]goldenMCStats
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}

	const relTol = 1e-9
	for _, tc := range goldenQuadrants {
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
		if len(g.TenantIPC) != len(w.TenantIPC) {
			t.Errorf("%s: %d tenant IPCs, golden has %d", tc.name, len(g.TenantIPC), len(w.TenantIPC))
			continue
		}
		for i := range g.TenantIPC {
			check("tenant "+string(rune('0'+i))+" IPC", g.TenantIPC[i], w.TenantIPC[i])
		}
	}
}
