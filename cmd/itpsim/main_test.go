package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// itpsim runs the command in process at a 20k+40k scale and returns its
// exit status, stdout and stderr.
func itpsim(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := runMain(append([]string{"-warmup", "20000", "-n", "40000"}, args...), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestCapabilityMatrix: every mode combination that stays rejected is
// refused before anything runs, with the planner's error (itpsweep's
// test holds the same table).
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
		code, stdout, stderr := itpsim(t, c.args...)
		if code == 0 || stdout != "" || !strings.Contains(stderr, c.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want a refusal with %q", c.args, code, stdout, stderr, c.want)
		}
	}
}

// TestCheckpointKeyCoversSTLBEntries is the stale-checkpoint regression:
// a run with a different -stlb-entries must not recall another size's
// journaled result.
func TestCheckpointKeyCoversSTLBEntries(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "c.ckpt")
	for _, c := range []struct {
		entries string
		cached  bool
	}{{"768", false}, {"1536", false}, {"768", true}} {
		code, stdout, stderr := itpsim(t, "-stlb-entries", c.entries, "-checkpoint", ckpt)
		if code != 0 {
			t.Fatalf("-stlb-entries %s: exit %d: %s", c.entries, code, stderr)
		}
		if got := strings.Contains(stdout, "(from checkpoint)"); got != c.cached {
			t.Errorf("-stlb-entries %s: recalled from checkpoint = %v, want %v", c.entries, got, c.cached)
		}
	}
}

// TestBatchModes: a multi-workload batch runs under every mode, the way
// itpsweep and itpbench grids always have.
func TestBatchModes(t *testing.T) {
	for _, mode := range [][]string{
		{"-beacon-interval", "10000"},
		{"-shards", "2"},
		{"-sample-phases", "2", "-sample-window", "10000", "-func-warmup", "10000"},
	} {
		code, stdout, stderr := itpsim(t, append([]string{"-workload", "srv_000,spec_000"}, mode...)...)
		if code != 0 || strings.Count(stdout, " ok") != 2 || !strings.HasPrefix(stdout, "batch: 2 workloads") {
			t.Errorf("%v: exit %d\n%s%s", mode, code, stdout, stderr)
		}
	}
	code, stdout, _ := itpsim(t, "-workload", "srv_000,nosuch_999", "-retries", "2")
	if code != 1 || !strings.Contains(stdout, "nosuch_999") || !strings.Contains(stdout, "FAILED (attempt 1)") {
		t.Errorf("unknown workload: exit %d\n%s", code, stdout)
	}
}

// TestReports drives each report shape once.
func TestReports(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{nil, "workloads: [srv_000]"},
		{[]string{"-smt", "spec_000", "-shards", "2"}, "workloads: [srv_000 spec_000]"},
		{[]string{"-workload", "srv_000,srv_001", "-cores", "2"}, "core tenant"},
		{[]string{"-shards", "2", "-beacon-interval", "10000"}, "workload: srv_000 (2 shards)"},
		{[]string{"-shards", "1", "-func-warmup", "10000"}, "workload: srv_000 (1 shards)"},
		{[]string{"-sample-phases", "1", "-beacon-interval", "10000"}, "beacon chain:"},
		{[]string{"-chaos", "read", "-retries", "1", "-beacon-interval", "10000"}, "beacon chain:"},
		{[]string{"-list"}, "srv_000"},
		{[]string{"-dump-config"}, `"stlb_policy": "lru"`},
	} {
		code, stdout, stderr := itpsim(t, c.args...)
		if code != 0 || !strings.Contains(stdout, c.want) {
			t.Errorf("%v: exit %d, want %q in\n%s%s", c.args, code, c.want, stdout, stderr)
		}
	}
	for _, args := range [][]string{
		{"-cores", "2", "-smt", "spec_000"},
		{"-workload", "srv_000,srv_001", "-smt", "spec_000"},
		{"-trace", "x.itpt", "-shards", "2"},
		{"-no-such-flag"},
	} {
		if code, _, _ := itpsim(t, args...); code == 0 {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestWindowSeriesPinned: the -metrics-out window lines (manifest
// excluded) of an iTP+xPTP run whose warmup ends mid-window, a 2-core
// run, a stitched 4-shard run and an LRU run (whose L2C evicts data
// PTEs) match the series in testdata byte for byte. The series come from
// the simulator's own counters; these files pin every exported delta,
// including the window the warmup reset falls in.
func TestWindowSeriesPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"serial", []string{"-stlb", "itp", "-l2c", "xptp", "-warmup", "21000"}},
		{"cores2", []string{"-workload", "srv_000,srv_001", "-cores", "2", "-stlb", "itp", "-l2c", "xptp", "-warmup", "21000"}},
		{"shards4", []string{"-stlb", "itp", "-l2c", "xptp", "-shards", "4"}},
		{"lru", []string{"-warmup", "21000"}},
	} {
		out := filepath.Join(t.TempDir(), "m.jsonl")
		code, _, stderr := itpsim(t, append(c.args, "-metrics-window", "2500", "-metrics-out", out)...)
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", c.name, code, stderr)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		_, got, _ = bytes.Cut(got, []byte("\n")) // drop the manifest line
		want, err := os.ReadFile(filepath.Join("testdata", "windows_"+c.name+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: window series differs from testdata/windows_%s.jsonl", c.name, c.name)
		}
	}
}
