package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// sample is one CPU-profile sample: its CPU time and its stack as
// function names, innermost frame first (inlined frames included).
type sample struct {
	ns    int64
	stack []string
}

// charge is a CPU profile reduced to what the per-layer metrics need.
// Each sample is charged to its innermost frame in an abred/internal/<m>
// package; samples without one go to bg. park, heap and gc are inclusive
// overlays: a sample counts once in each whose frames it has.
type charge struct {
	total  int64
	module map[string]int64
	bg     int64
	park   int64 // under sim.(*Proc).park: process handoff
	heap   int64 // under the kernel's event-heap methods
	gc     int64 // under the garbage collector's workers and assists
}

const internalPrefix = "abred/internal/"

// moduleOf returns the internal module a function belongs to, or "".
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

func isGC(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge"
}

// attribute buckets samples by module and overlay.
func attribute(samples []sample) charge {
	c := charge{module: map[string]int64{}}
	for _, s := range samples {
		c.total += s.ns
		owner := ""
		var park, heap, gc bool
		for _, fn := range s.stack {
			if owner == "" {
				owner = moduleOf(fn)
			}
			park = park || fn == "abred/internal/sim.(*Proc).park"
			heap = heap || strings.HasPrefix(fn, "abred/internal/sim.(*eventHeap).")
			gc = gc || isGC(fn)
		}
		if owner == "" {
			c.bg += s.ns
		} else {
			c.module[owner] += s.ns
		}
		if park {
			c.park += s.ns
		}
		if heap {
			c.heap += s.ns
		}
		if gc {
			c.gc += s.ns
		}
	}
	return c
}

// parseProfile decodes a gzipped pprof CPU profile (profile.proto) into
// samples valued in CPU nanoseconds. It reads only the fields the
// attribution needs: sample types, samples, locations, functions and
// the string table.
func parseProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		types     [][2]uint64             // (type, unit) string indices per value
		funcs     = map[uint64]uint64{}   // function id -> name index
		locs      = map[uint64][]uint64{} // location id -> function ids, innermost first
		rawSample []struct{ locs, vals []uint64 }
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]uint64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = v
				}
				return nil
			})
			types = append(types, t)
			return err
		case 2: // sample
			var s struct{ locs, vals []uint64 }
			err := fields(b, func(n int, v uint64, p []byte) error {
				switch n {
				case 1:
					return appendUints(&s.locs, v, p)
				case 2:
					return appendUints(&s.vals, v, p)
				}
				return nil
			})
			rawSample = append(rawSample, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, p []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(p, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	col := -1
	for i, t := range types {
		if str(t[0]) == "cpu" && str(t[1]) == "nanoseconds" {
			col = i
		}
	}
	if col < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	out := make([]sample, 0, len(rawSample))
	for _, rs := range rawSample {
		if col >= len(rs.vals) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		s := sample{ns: int64(rs.vals[col])}
		for _, l := range rs.locs {
			for _, f := range locs[l] {
				s.stack = append(s.stack, str(funcs[f]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// fields walks the top-level fields of one protobuf message, calling fn
// with each field number and its varint value or length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, p []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var p []byte
		switch key & 7 {
		case 0: // varint
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1: // fixed64
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			p, b = b[n:n+int(l)], b[n+int(l):]
		case 5: // fixed32
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(num, v, p); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field, packed (p non-nil) or
// one value per field.
func appendUints(dst *[]uint64, v uint64, p []byte) error {
	if p == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(p) > 0 {
		x, n := binary.Uvarint(p)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		p = p[n:]
	}
	return nil
}
