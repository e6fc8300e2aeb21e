package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile from runtime/pprof is a gzipped protocol buffer
// (github.com/google/pprof/proto/profile.proto). The standard library
// has no reader for it, so this file decodes the few fields the layer
// attribution needs: samples with their CPU time and stacks, locations
// and function names.

// stack is one profiled sample: its CPU nanoseconds and its function
// names, innermost first (inlined frames included).
type stack struct {
	ns    int64
	funcs []string
}

// parseProfile decodes a gzipped CPU profile into its samples.
func parseProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		types     []int64 // sample_type[i].type as a string index
		samples   [][2][]uint64
		locFuncs  = map[uint64][]uint64{}
		funcNames = map[uint64]int64{}
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					types = append(types, int64(v))
				}
				return nil
			})
		case 2: // sample
			var locs, vals []uint64
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					locs = appendVarints(locs, w, v, b)
				case 2:
					vals = appendVarints(vals, w, v, b)
				}
				return nil
			})
			samples = append(samples, [2][]uint64{locs, vals})
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	cpu := -1
	for i, t := range types {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		locs, vals := s[0], s[1]
		if cpu >= len(vals) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		st := stack{ns: int64(vals[cpu])}
		for _, l := range locs {
			for _, f := range locFuncs[l] {
				if idx := funcNames[f]; idx >= 0 && int(idx) < len(strs) {
					st.funcs = append(st.funcs, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// eachField walks the fields of one protobuf message. For varint
// fields fn gets the value; for length-delimited ones, the bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values, packed
// (wire type 2) or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// varint decodes one base-128 varint, returning the bytes consumed
// (0 on malformed input).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// layers are the repository's internal packages the attribution names;
// any other internal package counts as "other".
var layers = []string{
	"simclock", "wq", "core", "monitor", "kubesim", "hpa", "netsim",
	"arbiter", "flow", "experiments", "metrics", "workload",
}

// buckets are the attribution buckets: the layers, other internal
// packages, the benchmark's own code, and runtime work with no
// internal frame on the stack (background GC, scheduler).
var buckets = append(append([]string(nil), layers...), "other", "perfbench", "runtime")

const internalPrefix = "hta/internal/"

// attribution is a profile's CPU time split by bucket.
type attribution struct {
	total int64
	self  map[string]int64 // by the innermost internal frame's layer
	gc    int64            // stacks in GC work (background marking, assists, sweeping)
	alloc int64            // stacks in the allocator
}

// attribute assigns each sample to the layer of its innermost
// hta/internal frame, so a layer's share includes the runtime and
// standard-library work it called (allocation, GC assists, maps).
func attribute(stacks []stack) attribution {
	a := attribution{self: map[string]int64{}}
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	for _, s := range stacks {
		a.total += s.ns
		bucket := "runtime"
		inGC, inAlloc := false, false
		for _, f := range s.funcs {
			switch {
			case strings.HasPrefix(f, "runtime.gcBgMarkWorker"), strings.HasPrefix(f, "runtime.gcAssistAlloc"),
				strings.HasPrefix(f, "runtime.bgsweep"), strings.HasPrefix(f, "runtime.bgscavenge"):
				inGC = true
			case f == "runtime.mallocgc":
				inAlloc = true
			}
			if bucket != "runtime" {
				continue
			}
			if rest, ok := strings.CutPrefix(f, internalPrefix); ok {
				pkg := rest[:strings.IndexAny(rest+".", "./")]
				bucket = "other"
				if known[pkg] {
					bucket = pkg
				}
			} else if strings.HasPrefix(f, "main.") {
				bucket = "perfbench"
			}
		}
		a.self[bucket] += s.ns
		if inGC {
			a.gc += s.ns
		}
		if inAlloc {
			a.alloc += s.ns
		}
	}
	return a
}

// frac is part as a share of the profile's total.
func (a attribution) frac(part int64) float64 {
	if a.total == 0 {
		return 0
	}
	return float64(part) / float64(a.total)
}
