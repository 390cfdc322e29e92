// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload through the simulator's public Go API for a fixed
// wall-clock budget, checks every simulated output, and prints one JSON
// result line: the end-to-end metrics, or with -trace 1 the per-layer
// metrics of a separately traced run.
//
//	go build -o perfbench . && ./perfbench -workload srv-pair -seed 17 -seconds 30 -trace 0
//
// Workloads, seeds, metrics and the layer map are described in README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Seeds recorded with the benchmark: DefaultSeed makes the server stream
// exactly the catalogue's srv_000; HeldOutSeed is kept for re-checking a
// claim on inputs not used while writing it.
const (
	DefaultSeed = 17
	HeldOutSeed = 4242
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts simulation runs attempted and the ones whose outputs
// failed a check.
type tally struct {
	attempted, failed int
}

// record counts one simulation run; each problem is printed and the run
// counts as failed if there is any.
func (t *tally) record(what string, problems []string) {
	t.attempted++
	if len(problems) == 0 {
		return
	}
	t.failed++
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED %s: %s\n", what, p)
	}
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", DefaultSeed, fmt.Sprintf("workload generator seed (default %d, held-out %d)", DefaultSeed, HeldOutSeed))
		seconds  = flag.Float64("seconds", 30, "wall-clock seconds of repeated operations to measure")
		trace    = flag.Int("trace", 0, "1 = report per-layer metrics from a traced run instead of end-to-end metrics")
		expected = flag.String("expected", "", "expected-output file for the recorded seeds (empty = no comparison)")
		record   = flag.Bool("record", false, "write this run's simulated outputs into -expected instead of checking them")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	exp, err := loadExpected(*expected)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	b := &bench{
		w:           w,
		seed:        *seed,
		parallelism: runtime.GOMAXPROCS(0),
		budget:      time.Duration(*seconds * float64(time.Second)),
		outputs:     map[string]string{},
	}
	// A serial run's timed work is one simulation loop; a sweep's runs
	// on every core the harness uses.
	b.ref = []*refKernel{newRefKernel()}
	if w.sweep {
		for len(b.ref) < b.parallelism {
			b.ref = append(b.ref, newRefKernel())
		}
	}
	if !*record {
		b.want = exp.outputs(*seed, w.name)
	}
	var metrics map[string]metric
	if *trace == 1 {
		metrics, err = b.traced()
	} else {
		metrics, err = b.untraced()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	if *record {
		if err := exp.record(*expected, *seed, w.name, b.outputs); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}

	printHuman(b, metrics)
	out, err := json.Marshal(result{
		Correct:   b.tally.failed == 0,
		Attempted: b.tally.attempted,
		Failed:    b.tally.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// printHuman prints the simulated-output fingerprints and every metric
// by name with its unit, ahead of the JSON line.
func printHuman(b *bench, metrics map[string]metric) {
	fmt.Printf("workload %s seed %d: %d runs attempted, %d failed\n", b.w.name, b.seed, b.tally.attempted, b.tally.failed)
	for _, k := range sortedKeys(b.outputs) {
		fmt.Printf("  output %-24s %s\n", k, b.outputs[k])
	}
	for _, k := range sortedKeys(metrics) {
		fmt.Printf("  %-32s %14.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
