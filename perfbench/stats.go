package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. The quantile of an empty slice is 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// opTimes collects per-op CPU times (ms) and summarises them as
// percentiles. A unit with at least manyOps ops (a soak world: 30 000
// ticks) is summarised on its own and the run reports the median over
// units, so a few heavy worlds cannot own the pooled tail. Units with
// fewer ops (a figure pass: 12, a chaos batch: 200) are pooled over the
// run, so the tail still has enough samples beyond it.
type opTimes struct {
	n       int         // ops recorded
	cur     []float64   // the current unit's ops
	pooled  []float64   // ops of units with few ops
	perUnit [][]float64 // percentiles of each unit with many ops
}

const manyOps = 1000

var opQuantiles = []float64{0.50, 0.90, 0.99}

func (o *opTimes) add(ms float64) { o.n++; o.cur = append(o.cur, ms) }

// endUnit closes the current unit.
func (o *opTimes) endUnit() {
	if len(o.cur) >= manyOps {
		var ps []float64
		for _, q := range opQuantiles {
			ps = append(ps, quantile(o.cur, q))
		}
		o.perUnit = append(o.perUnit, ps)
	} else {
		o.pooled = append(o.pooled, o.cur...)
	}
	o.cur = o.cur[:0]
}

// percentiles returns the run's op percentiles, one per opQuantiles.
func (o *opTimes) percentiles() []float64 {
	out := make([]float64, len(opQuantiles))
	for i, q := range opQuantiles {
		if len(o.perUnit) == 0 {
			out[i] = quantile(o.pooled, q)
			continue
		}
		var xs []float64
		for _, ps := range o.perUnit {
			xs = append(xs, ps[i])
		}
		out[i] = median(xs)
	}
	return out
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// subSeed derives the seed of unit k from the run's seed. Unit 0 uses
// the run's seed itself, so `--seed 1` reproduces the documented
// seed-1 inputs exactly.
func subSeed(seed int64, k int) int64 {
	if k == 0 {
		return seed
	}
	return int64(splitmix64(uint64(seed) ^ splitmix64(uint64(k))))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cost is host time spent on some work: wall-clock time, and the CPU
// time of the whole process (every thread, GC workers included). CPU
// time leaves out time the hypervisor steals from a shared host, which
// swings wall time by tens of percent between runs.
type cost struct{ wall, cpu time.Duration }

func (c *cost) add(o cost) { c.wall += o.wall; c.cpu += o.cpu }

// stopwatch measures cost between laps.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), processCPU()} }

// lap returns the cost since the watch started or last lapped, and
// restarts it.
func (s *stopwatch) lap() cost {
	now, cpu := time.Now(), processCPU()
	c := cost{now.Sub(s.wall), cpu - s.cpu}
	s.wall, s.cpu = now, cpu
	return c
}

// processCPU reads CLOCK_PROCESS_CPUTIME_ID, which has nanosecond
// resolution (getrusage reports microseconds, too coarse for a 20 µs
// soak tick).
func processCPU() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// span is one host-time interval around a call the benchmark makes into
// a layer. Parent is the index+1 of the enclosing span (0 for roots).
type span struct {
	Name    string  `json:"name"`
	Parent  int     `json:"parent"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
}

// spanLog records spans in memory for the traced run and writes them
// out when the run ends. A nil *spanLog records nothing, so untraced
// runs pay one nil check per call.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	now := ms(time.Since(l.t0))
	l.spans = append(l.spans, span{Name: name, Parent: parent, StartMs: now, EndMs: now})
	return len(l.spans)
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.spans[id-1].EndMs = ms(time.Since(l.t0))
}

func (l *spanLog) write(dir, file string) error {
	if l == nil || dir == "" {
		return nil
	}
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, file), b, 0o644)
}
