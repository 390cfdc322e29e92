package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// profiledPackages are the packages whose CPU self-time share is
// reported; "runtime" gathers the Go runtime (scheduler, allocator, GC).
var profiledPackages = []string{"sim", "cache", "replacement", "tlb", "core", "ptw", "dram", "workload", "sample", "shard", "runtime"}

// addCPUTime reads a runtime/pprof CPU profile and adds each package's
// sampled CPU nanoseconds to byPkg. A sample in the Go runtime counts for
// "runtime"; any other sample counts for the innermost simulator package
// on its stack, so standard-library leaves (math.Pow in the generator's
// Zipf draw) count for the layer that called them.
func addCPUTime(byPkg map[string]float64, gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range p.samples {
		if len(s.locs) > 0 && len(s.values) > 0 {
			byPkg[p.bucket(s.locs)] += float64(s.values[len(s.values)-1]) // cpu nanoseconds
		}
	}
	return nil
}

// bucket attributes one sample's stack (location ids, leaf first).
func (p *profile) bucket(locs []uint64) string {
	for i, loc := range locs {
		for _, fn := range p.lines[loc] {
			b := packageBucket(p.strings[p.funcs[fn]])
			if b == "runtime" && i == 0 {
				return b
			}
			if b != "runtime" && b != "other" {
				return b
			}
		}
	}
	return "other"
}

// packageBucket maps a symbol such as "itpsim/internal/cache.(*Cache).Access"
// to "cache", and runtime symbols to "runtime".
func packageBucket(symbol string) string {
	pkg := symbol
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		pkg = pkg[:i+1] + strings.SplitN(pkg[i+1:], ".", 2)[0]
	} else {
		pkg = strings.SplitN(pkg, ".", 2)[0]
	}
	switch {
	case strings.HasPrefix(pkg, "itpsim/internal/"):
		return strings.TrimPrefix(pkg, "itpsim/internal/")
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// profile is the subset of profile.proto the shares need.
type profile struct {
	samples []profSample
	lines   map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]int64    // function id -> name string index
	strings []string
}

type profSample struct {
	locs   []uint64
	values []int64
}

// Field numbers of profile.proto (github.com/google/pprof/proto).
const (
	profSampleField   = 2
	profLocationField = 4
	profFunctionField = 5
	profStringField   = 6
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{lines: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := eachField(b, func(field int, v uint64, data []byte) error {
		switch field {
		case profSampleField:
			var s profSample
			err := eachField(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, d)
				case 2:
					for _, x := range appendVarints(nil, v, d) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocationField:
			var id uint64
			var fns []uint64
			err := eachField(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line, innermost inlined function first
					return eachField(d, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.lines[id] = fns
			return err
		case profFunctionField:
			var id uint64
			var name int64
			err := eachField(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case profStringField:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.funcs {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, fmt.Errorf("function name index %d outside a %d-entry string table", name, len(p.strings))
		}
	}
	return p, nil
}

// appendVarints appends a repeated integer field's values: v for an
// unpacked element, or every varint of data for a packed run.
func appendVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its integer value or, for length-delimited fields,
// its bytes (non-nil).
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", field)
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64 in field %d", field)
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length in field %d", field)
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
			if data == nil {
				data = []byte{}
			}
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32 in field %d", field)
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, field)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}
