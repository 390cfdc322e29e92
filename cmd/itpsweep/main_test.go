package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// itpsweep runs the command in process: a two-point xptp.k sweep over
// srv_000 at a 20k+40k scale.
func itpsweep(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	base := []string{"-param", "xptp.k", "-values", "2,8", "-workloads", "srv_000", "-warmup", "20000", "-n", "40000"}
	code := runMain(append(base, args...), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestCapabilityMatrix: every mode combination that stays rejected is
// refused before anything runs, with the planner's error (itpsim's test
// holds the same table).
func TestCapabilityMatrix(t *testing.T) {
	out := filepath.Join(t.TempDir(), "m.jsonl")
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-sample-phases", "2", "-shards", "2"}, "-sample-phases and -shards are alternative parallel modes; pick one"},
		{[]string{"-sample-phases", "2", "-sample-window", "10000", "-metrics-out", out}, "-metrics-out is not supported with -sample-phases"},
		{[]string{"-func-warmup", "20000"}, "-func-warmup 20000 must leave a detailed warmup suffix (-warmup 20000)"},
		{[]string{"-sample-phases", "2", "-sample-window", "40000"}, "sample: warmup 20000 is not a multiple of the 40000-instruction window"},
		{[]string{"-shards", "2", "-metrics-out", out, "-metrics-window", "15000"}, "shard: warmup 20000 is not a multiple of the 15000-instruction metrics window"},
	} {
		code, stdout, stderr := itpsweep(t, c.args...)
		if code == 0 || stdout != "" || !strings.Contains(stderr, c.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want a refusal with %q", c.args, code, stdout, stderr, c.want)
		}
	}
}

// TestShardedMetricsExport: -shards with -metrics-out exports each
// point's stitched window series after one manifest.
func TestShardedMetricsExport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "m.jsonl")
	code, stdout, stderr := itpsweep(t, "-shards", "2", "-metrics-out", out, "-metrics-window", "10000")
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout, stderr)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if !strings.Contains(lines[0], `"type":"manifest"`) || !strings.Contains(lines[0], `"tool":"itpsweep"`) {
		t.Errorf("first line is not the manifest: %s", lines[0])
	}
	for _, label := range []string{"xptp.k=2/srv_000", "xptp.k=8/srv_000"} {
		if n := strings.Count(string(data), `"job":"`+label+`"`); n != 4 {
			t.Errorf("%s: %d windows, want 4 (40k instructions at a 10k window)", label, n)
		}
	}
}

func TestGridModes(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{nil, "GEOMEAN"},
		{[]string{"-sample-phases", "2", "-sample-window", "10000", "-func-warmup", "10000"}, "2 sample phases/point (w=10000); functional warmup 10000"},
		{[]string{"-cores", "2", "-shards", "2"}, "2 shards/point"},
		{[]string{"-beacon-interval", "10000", "-audit"}, "GEOMEAN"},
	} {
		code, stdout, stderr := itpsweep(t, c.args...)
		if code != 0 || !strings.Contains(stdout, c.want) || strings.Contains(stdout, "FAILED") {
			t.Errorf("%v: exit %d, want %q in\n%s%s", c.args, code, c.want, stdout, stderr)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := runMain([]string{"-param", "xptp.k", "-values", "2", "-workloads", "srv_000,nosuch", "-warmup", "20000", "-n", "40000"}, &stdout, &stderr); code != 1 || !strings.Contains(stdout.String(), "nosuch     FAILED") {
		t.Errorf("unknown workload: exit %d\n%s", code, stdout.String())
	}
	for _, args := range [][]string{{"-param", "nosuch"}, {"-param", "rob", "-values", "x"}, {"-no-such-flag"}} {
		if code := runMain(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
