package run

import (
	"bytes"
	"encoding/json"
	"expvar"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"itpsim/internal/config"
	"itpsim/internal/harness"
	"itpsim/internal/metrics"
	"itpsim/internal/sim"
	"itpsim/internal/workload"
)

var cat = workload.NewCatalog(4, 2)

func spec(cfg config.SystemConfig, names ...string) Spec {
	s := Spec{Tag: "t", Label: strings.Join(names, "+"), Config: cfg, Warmup: 20_000, Measure: 40_000}
	for _, n := range names {
		s.Sources = append(s.Sources, CatalogSource(cat, n))
	}
	return s
}

// TestKeyCoversEveryConfigField: changing any exported leaf field of
// SystemConfig changes the job key, so no config knob can be served a
// stale checkpoint or memo entry computed under another value.
func TestKeyCoversEveryConfigField(t *testing.T) {
	base := spec(config.Default(), "srv_000")
	want := base.Key()
	n := 0
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if v.Type().Field(i).IsExported() {
					walk(v.Field(i), path+"."+v.Type().Field(i).Name)
				}
			}
			return
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), path)
			}
			return
		}
		old := reflect.ValueOf(v.Interface())
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float() + 0.5)
		case reflect.String:
			v.SetString(v.String() + "x")
		default:
			t.Fatalf("%s: unhandled kind %s", path, v.Kind())
		}
		if base.Key() == want {
			t.Errorf("%s: changing it leaves the job key unchanged", path)
		}
		v.Set(old)
		n++
	}
	walk(reflect.ValueOf(&base.Config).Elem(), "SystemConfig")
	if base.Key() != want {
		t.Fatal("walk did not restore the config")
	}
	if n < 40 {
		t.Fatalf("walked only %d leaf fields", n)
	}
}

func TestKeyFormat(t *testing.T) {
	k := spec(config.Default(), "srv_000", "spec_000").Key()
	parts := strings.Split(k, "|")
	if len(parts) != 4 || parts[0] != "t" || parts[1] != "srv_000+spec_000" || len(parts[2]) != 16 || parts[3] != "20000/40000" {
		t.Errorf("key %q: want tag|workloads|16-hex config hash|warmup/measure", k)
	}
}

// TestCheckpointKeysSeparateConfigs: two runs differing only in STLB
// entries share one checkpoint journal; the second must simulate rather
// than recall the first's result.
func TestCheckpointKeysSeparateConfigs(t *testing.T) {
	opts := harness.Options{Checkpoint: filepath.Join(t.TempDir(), "c.ckpt")}
	small := spec(config.Default().WithSTLBEntries(768), "srv_000")
	big := spec(config.Default().WithSTLBEntries(1536), "srv_000")
	a, err := New(opts, Mode{}).Run([]Spec{small})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(opts, Mode{}).Run([]Spec{big})
	if err != nil {
		t.Fatal(err)
	}
	if b[0].Cached {
		t.Fatal("1536-entry run was recalled from the 768-entry run's checkpoint")
	}
	if reflect.DeepEqual(a[0].Stats.STLB, b[0].Stats.STLB) {
		t.Error("STLB stats identical across STLB sizes")
	}
	again, err := New(opts, Mode{}).Run([]Spec{small, big})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range again {
		if !res.Cached {
			t.Errorf("spec %d: rerun should recall its own checkpoint", i)
		}
	}
	if again[0].Stats.IPC() != a[0].Stats.IPC() || again[1].Stats.IPC() != b[0].Stats.IPC() {
		t.Error("recalled results do not match the runs that journaled them")
	}
}

func TestValidate(t *testing.T) {
	for _, c := range []struct {
		mode      Mode
		exporting bool
		want      string
	}{
		{Mode{SamplePhases: 2, Shards: 2}, false, "alternative parallel modes"},
		{Mode{SamplePhases: 2}, true, "-metrics-out is not supported with -sample-phases"},
		{Mode{Shards: 4}, true, ""},
		{Mode{SamplePhases: 4, FuncWarmup: 10}, false, ""},
	} {
		err := c.mode.Validate(c.exporting)
		if (err == nil) != (c.want == "") || (err != nil && !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%+v exporting=%v: got %v, want %q", c.mode, c.exporting, err, c.want)
		}
		// Run applies the same matrix before anything simulates.
		r := New(harness.Options{}, c.mode)
		if c.exporting {
			r.Export = metrics.NewJSONL(&bytes.Buffer{})
		}
		if _, rerr := r.Run(nil); (rerr == nil) != (err == nil) {
			t.Errorf("%+v: Run says %v, Validate %v", c.mode, rerr, err)
		}
	}
	_, err := New(harness.Options{}, Mode{FuncWarmup: 20_000}).Run([]Spec{spec(config.Default(), "srv_000")})
	if err == nil || !strings.Contains(err.Error(), "must leave a detailed warmup suffix") {
		t.Errorf("func-warmup covering the whole warmup: got %v", err)
	}
}

// TestWindowMatchesController: the metrics-window rule picks the window
// of the controller the machine really builds.
func TestWindowMatchesController(t *testing.T) {
	for _, l2c := range []string{"lru", "xptp", "xptp-static"} {
		for _, w := range []uint64{0, 5000} {
			cfg := config.Default()
			cfg.L2CPolicy, cfg.XPTP.WindowInstr = l2c, w
			m, err := sim.NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := uint64(metrics.DefaultWindow)
			if c := m.Controller(); c != nil {
				want = uint64(c.WindowInstr())
			}
			if got := (Mode{}).Window(cfg); got != want {
				t.Errorf("%s window %d: rule gives %d, machine %d", l2c, w, got, want)
			}
		}
	}
	if got := (Mode{MetricsWindow: 123}).Window(config.Default()); got != 123 {
		t.Errorf("explicit window: got %d", got)
	}
}

// TestSplitModes runs one grid — two single streams, an SMT pair and a
// duplicate — serially, sharded and sampled: pairs run whole (exact),
// duplicates share one result, instruction counts are exact, and a
// second Run recalls everything from the memo.
func TestSplitModes(t *testing.T) {
	cfg := config.Default()
	specs := []Spec{spec(cfg, "srv_000"), spec(cfg, "srv_000", "srv_001"), spec(cfg, "spec_000"), spec(cfg, "srv_000")}
	serial, err := New(harness.Options{}, Mode{}).Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{{Shards: 2}, {SamplePhases: 2, SampleWindow: 10_000, FuncWarmup: 10_000}, {FuncWarmup: 10_000}} {
		r := New(harness.Options{}, mode)
		got, err := r.Run(specs)
		if err != nil {
			t.Fatalf("%+v: %v", mode, err)
		}
		for i, res := range got {
			if gi, wi := res.Stats.TotalInstructions(), serial[i].Stats.TotalInstructions(); gi != wi {
				t.Errorf("%+v spec %d: %d instructions, serial %d", mode, i, gi, wi)
			}
		}
		if got[1].Shard != nil || got[1].Sample != nil || !reflect.DeepEqual(got[1].Stats, serial[1].Stats) {
			t.Errorf("%+v: the SMT pair must run whole and match the serial run", mode)
		}
		if (mode.SamplePhases > 0) != (got[0].Sample != nil) || (mode.SamplePhases == 0) != (got[0].Shard != nil) {
			t.Errorf("%+v: single stream ran in the wrong mode", mode)
		}
		if got[3].Stats != got[0].Stats {
			t.Errorf("%+v: duplicate specs should share one result", mode)
		}
		again, err := r.Run(specs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range again {
			if again[i].Stats != got[i].Stats {
				t.Errorf("%+v spec %d: second Run should hit the memo", mode, i)
			}
		}
	}
}

// TestShardedExport: a sharded run's stitched window series reaches the
// exporter, gap-free in serial coordinates, under the spec's label.
func TestShardedExport(t *testing.T) {
	var buf bytes.Buffer
	r := New(harness.Options{}, Mode{Shards: 2, MetricsWindow: 10_000})
	r.Export = metrics.NewJSONL(&buf)
	if _, err := r.Run([]Spec{spec(config.Default(), "srv_000")}); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), `"job":"srv_000"`); n != 4 {
		t.Errorf("exported %d windows for 40k instructions at a 10k window, want 4:\n%s", n, buf.String())
	}
	r = New(harness.Options{}, Mode{Shards: 2, MetricsWindow: 15_000})
	r.Export = metrics.NewJSONL(&buf)
	if _, err := r.Run([]Spec{spec(config.Default(), "srv_000")}); err == nil || !strings.Contains(err.Error(), "metrics window") {
		t.Errorf("misaligned window: got %v", err)
	}
}

// TestPartialFailure: an unknown workload fails its own spec permanently
// (one attempt, despite retries) while the rest of the batch completes.
func TestPartialFailure(t *testing.T) {
	got, err := New(harness.Options{Retries: 2}, Mode{}).Run([]Spec{spec(config.Default(), "srv_000"), spec(config.Default(), "nosuch")})
	if err == nil || !strings.Contains(err.Error(), `unknown workload "nosuch"`) {
		t.Fatalf("got %v", err)
	}
	if got[0].Err != nil || got[0].Stats == nil {
		t.Error("healthy spec must complete")
	}
	if got[1].Err == nil || got[1].Attempts != 1 {
		t.Errorf("unknown workload: err %v after %d attempts, want one permanent failure", got[1].Err, got[1].Attempts)
	}
}

func TestBeaconsAndAudit(t *testing.T) {
	got, err := New(harness.Options{}, Mode{BeaconInterval: 10_000, Audit: true}).Run([]Spec{spec(config.Default(), "srv_000")})
	if err != nil {
		t.Fatal(err)
	}
	if b := got[0].Beacon; b == nil || b.Count == 0 {
		t.Error("whole run with beacons armed returned no chain")
	}
}

// TestExpvarLiveViewDuringRun polls /debug/vars while a whole run with
// Expvar set is in flight: under -race this proves the live view leaves
// the run loop only through the copy each window close stores. The
// final value carries the closed-window count and every required stat.
func TestExpvarLiveViewDuringRun(t *testing.T) {
	cfg := config.Default()
	cfg.L2CPolicy = "xptp" // xptp.transitions needs the adaptive controller
	r := New(harness.Options{}, Mode{MetricsWindow: 1000})
	r.Expvar = "itpsim.test.live"
	poll := func() map[string]uint64 {
		rec := httptest.NewRecorder()
		expvar.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
		var vars map[string]json.RawMessage
		if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
			t.Errorf("/debug/vars is not JSON: %v", err)
			return nil
		}
		var live map[string]uint64
		if raw, ok := vars["itpsim.test.live.srv_000"]; ok {
			if err := json.Unmarshal(raw, &live); err != nil {
				t.Errorf("live view is not a counter map: %v", err)
			}
		}
		return live
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				poll()
			}
		}
	}()
	_, err := r.Run([]Spec{spec(cfg, "srv_000")})
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	live := poll()
	if live["windows"] != 60 || live["retired"] != 60_000 {
		t.Errorf("final live view = %v, want 60 windows over 60000 retired", live)
	}
	for _, name := range metrics.RequiredStats {
		if _, ok := live[name]; !ok {
			t.Errorf("live view lacks required stat %q: %v", name, live)
		}
	}
}
