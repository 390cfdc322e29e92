package itpsim

import (
	"os"
	"regexp"
	"testing"
)

// TestBenchBaselinesCommitted fails when the Makefile or the CI workflow
// names a BENCH_<date>.json baseline that is not in the tree: benchguard
// would exit 1 on the missing file and the bench-guard job could never
// pass.
func TestBenchBaselinesCommitted(t *testing.T) {
	baseline := regexp.MustCompile(`BENCH_[0-9]+\.json`)
	named := 0
	for _, file := range []string{"Makefile", ".github/workflows/ci.yml"} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range baseline.FindAllString(string(data), -1) {
			named++
			if _, err := os.Stat(name); err != nil {
				t.Errorf("%s names baseline %s: %v", file, name, err)
			}
		}
	}
	if named == 0 {
		t.Error("no BENCH_<date>.json baseline named in the Makefile or CI; the cache-miss fallback has nothing to compare against")
	}
}
