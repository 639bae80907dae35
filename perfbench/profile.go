package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// repoPrefix is the import-path prefix of the program's layers.
const repoPrefix = "xok/internal/"

// runtimeLayer collects profile samples with no repository frame on
// their stack: GC workers, the scheduler, and the benchmark's own code.
const runtimeLayer = "runtime"

// profiled runs fn under the CPU profiler and returns the CPU seconds
// charged to each layer (see attribute).
func profiled(fn func() error) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	runErr := fn()
	pprof.StopCPUProfile()
	if runErr != nil {
		return nil, runErr
	}
	return attribute(buf.Bytes())
}

// attribute charges each sample of a CPU profile (the gzipped protobuf
// runtime/pprof writes) to the innermost xok/internal/<pkg> frame on
// its stack, so map, channel and allocator work counts toward the layer
// that called it. Samples without such a frame go to runtimeLayer. The
// result is in CPU seconds per layer.
func attribute(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	// The CPU profile's sample values are [count, nanoseconds].
	valueIdx := p.sampleTypes - 1
	out := map[string]float64{}
	for _, s := range p.samples {
		if valueIdx < 0 || valueIdx >= len(s.values) {
			return nil, errors.New("profile: sample without a CPU value")
		}
		out[p.layerOf(s.locations)] += float64(s.values[valueIdx]) / 1e9
	}
	return out, nil
}

// layerOf walks a stack leaf first, inlined frames innermost first.
func (p *profile) layerOf(locs []uint64) string {
	for _, id := range locs {
		for _, fn := range p.locations[id] {
			if l := repoLayer(p.str(p.functions[fn])); l != "" {
				return l
			}
		}
	}
	return runtimeLayer
}

// repoLayer maps "xok/internal/sim.(*Engine).Step" to "sim", and any
// function outside the repository's packages to "".
func repoLayer(fn string) string {
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i > 0 {
		return rest[:i]
	}
	return rest
}

// profile is the part of profile.proto (github.com/google/pprof) that
// attribution needs.
type profile struct {
	sampleTypes int
	samples     []sample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]int64    // function id -> name's string-table index
	strings     []string
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// decodeProfile parses the uncompressed Profile message.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := fields(b, func(f int, v uint64, data []byte) error {
		switch f {
		case 1: // sample_type
			p.sampleTypes++
		case 2: // sample
			var s sample
			err := fields(data, func(f int, v uint64, data []byte) error {
				switch f {
				case 1:
					return appendUints(&s.locations, v, data)
				case 2:
					var vals []uint64
					if err := appendUints(&vals, v, data); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(data, func(f int, v uint64, data []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return fields(data, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// fields calls fn for each field of a protobuf message. Varint fields
// pass their value in v; length-delimited fields pass their bytes in
// data.
func fields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default: // profile.proto has no fixed-width fields
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated varint field, packed (data) or not (v).
func appendUints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
