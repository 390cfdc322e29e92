package run

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"itpsim/internal/config"
)

func parse(t *testing.T, d FlagDefaults, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := RegisterFlags(fs, d)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRegisterFlags(t *testing.T) {
	sim := FlagDefaults{Tool: "x", Warmup: 7, Measure: 9, MeasureFlag: "n", SampleWindow: 5, Policies: []string{"itp", "xptp", "lru"}}
	f := parse(t, sim)
	if f.Warmup != 7 || f.Measure != 9 || f.SampleWindow != 5 || f.STLB != "itp" || f.L2C != "xptp" || f.Shards != 1 || f.WatchdogInterval != 5*time.Second || f.WatchdogSamples != 6 {
		t.Errorf("defaults not applied: %+v", f)
	}
	f = parse(t, sim, "-n", "40000", "-shards", "3", "-sample-window", "100", "-func-warmup", "8",
		"-beacon-interval", "11", "-audit", "-metrics-window", "12", "-retries", "2", "-parallel", "3",
		"-job-timeout", "1m", "-checkpoint", "c", "-watchdog-interval", "1s", "-watchdog-samples", "4")
	if m := f.Mode(); m != (Mode{Shards: 3, SampleWindow: 100, FuncWarmup: 8, BeaconInterval: 11, Audit: true, MetricsWindow: 12}) {
		t.Errorf("mode %+v", m)
	}
	var log bytes.Buffer
	h := f.Harness(&log)
	if h.Retries != 2 || h.Parallelism != 3 || h.JobTimeout != time.Minute || h.Checkpoint != "c" || h.WatchdogInterval != time.Second || h.WatchdogSamples != 4 || f.Measure != 40000 {
		t.Errorf("harness %+v", h)
	}
	h.Logf("a %d", 1)
	if log.String() != "a 1\n" {
		t.Errorf("log %q", log.String())
	}

	// Without policies: no policy, robustness or observability flags.
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	RegisterFlags(fs, FlagDefaults{MeasureFlag: "measure"})
	for _, name := range []string{"stlb", "beacon-interval", "audit", "metrics-out", "pprof", "n"} {
		if fs.Lookup(name) != nil {
			t.Errorf("-%s registered for a tool without policies", name)
		}
	}
	if fs.Lookup("measure") == nil || fs.Lookup("sample-phases") == nil {
		t.Error("shared flags missing")
	}
}

// TestRunnerExport: the runner writes one manifest, then every whole
// run's windows under its label.
func TestRunnerExport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "m.jsonl")
	f := parse(t, FlagDefaults{Tool: "tool", MeasureFlag: "n", Policies: []string{"lru", "xptp", "lru"}}, "-metrics-out", out)
	cfg := config.Default()
	cfg.L2CPolicy = "xptp"
	var wrapped bool
	r, done, err := f.Runner(io.Discard, f.Harness(io.Discard), Export{
		Config: cfg, Workloads: []string{"srv_000"}, Extra: map[string]string{"k": "v"},
		Wrap: func(w io.Writer) io.Writer { wrapped = true; return w },
	})
	if err != nil {
		t.Fatal(err)
	}
	s := spec(cfg, "srv_000")
	s.Measure = 2 * cfg.XPTP.WindowInstr
	if _, err := r.Run([]Spec{s}); err != nil {
		t.Fatal(err)
	}
	if err := done(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var m struct {
		Tool        string            `json:"tool"`
		WindowInstr uint64            `json:"window_instr"`
		Extra       map[string]string `json:"extra"`
		Time        string            `json:"time"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &m); err != nil {
		t.Fatal(err)
	}
	if !wrapped || m.Tool != "tool" || m.WindowInstr != cfg.XPTP.WindowInstr || m.Extra["k"] != "v" || m.Time == "" {
		t.Errorf("manifest %+v (wrapped %v)", m, wrapped)
	}
	if n := strings.Count(string(data), `"job":"srv_000"`); n < 2 {
		t.Errorf("%d windows exported under the spec label, want the measured ones at least:\n%s", n, data)
	}
}

func TestRunnerRejects(t *testing.T) {
	d := FlagDefaults{MeasureFlag: "n", Policies: []string{"lru", "lru", "lru"}}
	f := parse(t, d, "-sample-phases", "2", "-metrics-out", filepath.Join(t.TempDir(), "m"))
	if _, _, err := f.Runner(io.Discard, f.Harness(io.Discard), Export{}); err == nil {
		t.Error("sampling with export accepted")
	}
	f = parse(t, d, "-metrics-out", filepath.Join(t.TempDir(), "no", "such", "dir"))
	if _, _, err := f.Runner(io.Discard, f.Harness(io.Discard), Export{}); err == nil {
		t.Error("unwritable -metrics-out accepted")
	}
	f = parse(t, d)
	r, done, err := f.Runner(io.Discard, f.Harness(io.Discard), Export{})
	if err != nil || r.Export != nil || r.Expvar != "" || done() != nil {
		t.Errorf("plain runner: %v %+v", err, r)
	}
}
