package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strconv"
)

// expected holds the recorded simulated outputs: seed -> workload ->
// result ("serial itp+xptp", "sampled lru/lru", ...) -> fingerprint.
type expected map[string]map[string]map[string]string

func loadExpected(path string) (expected, error) {
	exp := expected{}
	if path == "" {
		return exp, nil
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return exp, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &exp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return exp, nil
}

// outputs returns the recorded outputs for seed and workload (nil when
// none are recorded).
func (e expected) outputs(seed uint64, workload string) map[string]string {
	return e[strconv.FormatUint(seed, 10)][workload]
}

// record merges this run's outputs into the file at path.
func (e expected) record(path string, seed uint64, workload string, outputs map[string]string) error {
	if path == "" {
		return fmt.Errorf("-record needs -expected")
	}
	s := strconv.FormatUint(seed, 10)
	if e[s] == nil {
		e[s] = map[string]map[string]string{}
	}
	if e[s][workload] == nil {
		e[s][workload] = map[string]string{}
	}
	for k, v := range outputs {
		e[s][workload][k] = v
	}
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
