// Command perfbench is the repository's benchmark: it measures the host
// time users pay to regenerate the paper's figures, soak the fleet
// control plane, and run chaos searches, end to end and layer by layer.
//
// Usage (normally through run.sh, which builds this package first):
//
//	perfbench --workload figures|fleet-soak|chaos --seed N --seconds S --trace 0|1 [--spans-dir DIR]
//
// With --trace 0 the last stdout line is a JSON object carrying the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics.
// The line before it records the environment and the run's sample
// counts. See NOTES.md for every metric's definition.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 5

// workload is one seeded benchmark workload. A unit is the workload's
// fixed work (one figure-suite pass, one soak world, one chaos batch);
// unit k's inputs are a pure function of the seed and k.
type workload interface {
	// setUp performs one set-up repetition: input generation, world
	// build and warm-up.
	setUp(t *tally)
	// nominal is one unit's host time on the reference machine; a run
	// of --seconds S does round(S / nominal) units, at least one.
	nominal() time.Duration
	// run executes unit k and returns the cost of its timed part.
	// traced turns on the program's own tracing where the workload has
	// it and checks that outputs match the untraced run of unit k.
	run(k int, traced bool, t *tally) cost
	// report runs the workload's closing checks and adds its own
	// per-layer metrics and record.
	report(t *tally, layer map[string]float64, info map[string]any)
}

// tally collects a run's op counts, failed checks and per-op CPU times.
type tally struct {
	attempted, failed int
	problems          []string // failed correctness checks
	ops               opTimes
	log               *spanLog
	parent            int // span the workload's own spans nest under
}

func (t *tally) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(t.problems) < 16 {
		t.problems = append(t.problems, msg)
	}
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"figures", "fleet-soak", "chaos"}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "figures":
		return newFigures(seed), nil
	case "fleet-soak":
		return newSoak(seed), nil
	case "chaos":
		return newChaos(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 25, "measurement budget in seconds")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	spansDir := flag.String("spans-dir", "", "traced runs: write the benchmark's spans to spans-<workload>.json in this directory")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, info, err := bench(*name, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *spansDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rec, err := json.Marshal(map[string]any{"record": info})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n%s\n", rec, out)
}

// bench runs one workload for the budget and returns its result line and
// environment record.
func bench(name string, seed int64, budget time.Duration, traced bool, spansDir string) (*result, map[string]any, error) {
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, nil, err
	}
	return measure(w, name, seed, budget, traced, spansDir)
}

// measure sets w up setupReps times and runs the budget's worth of
// units untraced. A traced run then runs the same units again under the
// CPU profiler with the program's tracing on, and times the layer unit
// costs.
func measure(w workload, name string, seed int64, budget time.Duration, traced bool, spansDir string) (*result, map[string]any, error) {
	start := time.Now()
	var log *spanLog
	if traced {
		log = &spanLog{t0: start}
	}
	root := log.begin("run:"+name, 0)
	t := &tally{log: log}

	var setup []float64
	for i := 0; i < setupReps; i++ {
		id := log.begin("setup", root)
		s := time.Now()
		w.setUp(t)
		setup = append(setup, time.Since(s).Seconds())
		log.end(id)
	}

	t.parent = log.begin("phase:untraced", root)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	steal0 := stealTime()
	goroutines := runtime.NumGoroutine()
	// The work is fixed for a given budget, not stretched to fill it, so
	// a faster program does the same work and its memory and goroutine
	// counts compare like for like.
	n := max(1, int(budget.Seconds()/w.nominal().Seconds()+0.5))
	var walls, cpus []float64
	var untraced cost
	for k := 0; k < n; k++ {
		c := w.run(k, false, t)
		t.ops.endUnit()
		untraced.add(c)
		walls = append(walls, c.wall.Seconds())
		cpus = append(cpus, c.cpu.Seconds())
	}
	runtime.ReadMemStats(&after)
	log.end(t.parent)
	units := float64(len(walls))
	leaked := float64(runtime.NumGoroutine()-goroutines) / units

	layer := map[string]float64{}
	info := map[string]any{
		"workload":   name,
		"seed":       seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"units":      len(walls),
		"ops":        t.ops.n,
		"op_pooled":  len(t.ops.pooled),
		"op_units":   len(t.ops.perUnit),
		"setup_reps": setupReps,
		"steal_s":    (stealTime() - steal0).Seconds(),
		"model":      "unvalidated: no hardware reference in the repository, so no accuracy figure is reported",
	}
	metrics := map[string]metric{}
	if !traced {
		metrics["setup_s"] = metric{median(setup), "s"}
		metrics["wall_s"] = metric{median(walls), "s"}
		metrics["cpu_s"] = metric{median(cpus), "s"}
		metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		p := t.ops.percentiles()
		metrics["op_cpu_p50_ms"] = metric{p[0], "ms"}
		metrics["op_cpu_p90_ms"] = metric{p[1], "ms"}
		metrics["op_cpu_p99_ms"] = metric{p[2], "ms"}
	} else {
		layer["runtime.mallocs"] = float64(after.Mallocs-before.Mallocs) / units
		layer["runtime.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / units / (1 << 20)
		layer["runtime.leaked_goroutines"] = leaked

		t.parent = log.begin("phase:traced", root)
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, nil, fmt.Errorf("cpu profile: %w", err)
		}
		var tracedCost cost
		for k := range walls {
			tracedCost.add(w.run(k, true, t))
		}
		pprof.StopCPUProfile()
		log.end(t.parent)
		layer["trace.overhead"] = tracedCost.cpu.Seconds() / untraced.cpu.Seconds()

		samples, err := decodeProfile(prof.Bytes())
		if err != nil {
			return nil, nil, err
		}
		cpu, total := cpuByBucket(samples)
		var sum int64
		for _, b := range buckets() {
			layer["cpu."+b+"_ms"] = float64(cpu[b]) / 1e6 / units
			sum += cpu[b]
		}
		layer["cpu.total_ms"] = float64(total) / 1e6 / units
		info["profile_samples"] = len(samples)
		if sum != total {
			t.problem("cpu buckets account for %d of %d ns", sum, total)
		}

		id := log.begin("phase:units", root)
		for _, u := range unitCosts() {
			perOp, allocs := measureUnit(u, log, id)
			layer[u.name+"_"+u.scale] = perOp
			layer[u.name+"_allocs"] = allocs
		}
		log.end(id)
	}
	w.report(t, layer, info)
	if t.attempted > 0 {
		layer["fail_rate"] = float64(t.failed) / float64(t.attempted)
	}
	if traced {
		// Every per-layer metric is printed; one a workload does not
		// exercise reads 0 and is listed in the record.
		var na []string
		for _, m := range perLayer() {
			v, ok := layer[m.name]
			if !ok {
				na = append(na, m.name)
			}
			metrics[m.name] = metric{v, m.unit}
		}
		info["not_applicable"] = na
	}
	log.end(root)
	if err := log.write(spansDir, "spans-"+name+".json"); err != nil {
		return nil, nil, fmt.Errorf("spans: %w", err)
	}
	info["problems"] = t.problems
	return &result{
		Correct:   len(t.problems) == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   metrics,
	}, info, nil
}

// stealTime returns the CPU time the hypervisor has taken from this
// machine's virtual CPUs, summed over CPUs (0 where not reported). The
// record carries the steal during the untraced units: on a shared host
// it explains swings in wall_s that no code change caused.
func stealTime() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks * float64(time.Second) / 100) // USER_HZ
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}
