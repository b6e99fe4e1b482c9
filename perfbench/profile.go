package main

// CPU attribution: a runtime/pprof CPU profile of the traced phase,
// decoded here (the profile is a gzipped protocol buffer; the standard
// library ships no reader for it) and folded into one bucket per layer.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// modules are the repro/internal packages, one CPU bucket each.
var modules = []string{
	"balloon", "chaos", "checkpoint", "cluster", "dsm", "experiments",
	"fault", "faulttest", "fleet", "giantvm", "guest", "hypervisor", "mem",
	"metrics", "msg", "netsim", "overcommit", "reliable", "sched", "sim",
	"sweep", "topo", "trace", "vcpu", "virtio", "workload",
}

// entries are the layer entry points that get a sub-bucket of their own:
// the inclusive cost of a call, whichever modules it reaches.
var entries = []struct{ fn, bucket string }{
	{"repro/internal/fleet.(*Fleet).drainQueue", "fleet.admit"},
	{"repro/internal/fleet.(*Fleet).VerifyReport", "fleet.verify"},
	{"repro/internal/fleet.(*Fleet).consolidateAll", "fleet.rebalance"},
	{"repro/internal/chaos.judge", "chaos.oracle"},
}

// Buckets for stacks with no repo frame.
const (
	bucketGC     = "gc"
	bucketSwitch = "goroutine_switch"
	bucketOther  = "other"
)

// buckets lists every bucket attribute can return, in report order.
func buckets() []string {
	out := append([]string(nil), modules...)
	for _, e := range entries {
		out = append(out, e.bucket)
	}
	return append(out, bucketGC, bucketSwitch, bucketOther)
}

// attribute charges one stack (function names, leaf first) to a bucket:
// the innermost layer entry on the stack; failing that, the innermost
// repro/internal/<module> frame, so runtime work (allocation, GC assist,
// channel operations) lands on the layer that caused it; failing that,
// GC workers, the goroutine scheduler, or other.
func attribute(stack []string) string {
	module := ""
	for _, fn := range stack {
		for _, e := range entries {
			if fn == e.fn || strings.HasPrefix(fn, e.fn+".") {
				return e.bucket
			}
		}
		if module == "" {
			module = moduleOf(fn)
		}
	}
	if module != "" {
		return module
	}
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "runtime.gcBgMarkWorker"), strings.HasPrefix(fn, "runtime.bgsweep"),
			strings.HasPrefix(fn, "runtime.bgscavenge"), fn == "runtime.gcStart", fn == "runtime.gcMarkDone",
			fn == "runtime.gcMarkTermination":
			return bucketGC
		case fn == "runtime.mcall", fn == "runtime.park_m", fn == "runtime.schedule",
			fn == "runtime.goschedImpl", fn == "runtime.gopreempt_m", fn == "runtime.goexit0":
			return bucketSwitch
		}
	}
	return bucketOther
}

// moduleOf returns the repro/internal module a function belongs to, or
// "" for any other function (including unknown modules, which go to
// other).
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, m := range modules {
		if m == rest {
			return m
		}
	}
	return ""
}

// sample is one decoded profile sample: its stack, leaf first, and the
// CPU nanoseconds it stands for.
type sample struct {
	stack []string
	ns    int64
}

// cpuByBucket folds a CPU profile into nanoseconds per bucket. Every
// sample lands in exactly one bucket, so the buckets sum to the total.
func cpuByBucket(samples []sample) (map[string]int64, int64) {
	out := make(map[string]int64)
	var total int64
	for _, s := range samples {
		out[attribute(s.stack)] += s.ns
		total += s.ns
	}
	return out, total
}

// decodeProfile parses a gzipped pprof CPU profile into samples. Only
// the fields attribution needs are read: samples, locations (with their
// inlined lines), functions and the string table.
func decodeProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		rawSamples []rawSample
		locFuncs   = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName   = map[uint64]int64{}    // function id -> string index
		strs       []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					for _, u := range appendVarints(nil, wire, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			rawSamples = append(rawSamples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, wire int, v uint64, _ []byte) error {
						if num == 1 {
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
			err := eachField(b, func(num int, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]sample, 0, len(rawSamples))
	for _, rs := range rawSamples {
		if len(rs.values) < 2 {
			return nil, errors.New("profile: sample without a cpu value")
		}
		s := sample{ns: rs.values[1]}
		for _, loc := range rs.locs {
			for _, fid := range locFuncs[loc] {
				if i := funcName[fid]; i >= 0 && i < int64(len(strs)) {
					s.stack = append(s.stack, strs[i])
				}
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// eachField walks the top-level fields of one protocol buffer message,
// passing varint values in v and length-delimited payloads in b.
func eachField(buf []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("profile: short fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("profile: bad length")
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("profile: short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field that may be packed
// (wire type 2) or written one value per field (wire type 0).
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}
