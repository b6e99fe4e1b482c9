package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/sim"
)

// tinyWorkloads are the three workloads shrunk to seconds: the cheapest
// figures, one soak world, and an eight-episode chaos batch.
func tinyWorkloads() map[string]workload {
	fig := newFigures(1)
	fig.suite = []figure{{"fig4", 3, true}, {"fig11", 9, true}, {"fig13", 6, true}}
	ch := newChaos(1)
	ch.batch = 8
	return map[string]workload{"figures": fig, "fleet-soak": newSoak(1), "chaos": ch}
}

// TestWorkloadsPrintEveryMetric runs each workload tiny, untraced and
// traced, and checks the result line carries exactly the catalogued
// metrics, all correct, with the CPU buckets summing to the total.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	for _, traced := range []bool{false, true} {
		for name, w := range tinyWorkloads() {
			res, info, err := measure(w, name, 1, time.Millisecond, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d problems=%v", name, traced, res.Correct, res.Attempted, info["problems"])
			}
			want := endToEnd
			if traced {
				want = perLayer()
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, m.name, got, m.unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, got.Value)
				}
			}
			if !traced {
				continue
			}
			sum := 0.0
			for _, b := range buckets() {
				sum += res.Metrics["cpu."+b+"_ms"].Value
			}
			if total := res.Metrics["cpu.total_ms"].Value; total <= 0 || sum < total*(1-1e-9) || sum > total*(1+1e-9) {
				t.Errorf("%s: cpu buckets sum to %v ms, total %v ms", name, sum, total)
			}
		}
	}
}

// TestSoakSteppingMatchesRun checks that advancing a soak world one
// rebalance tick at a time, as the benchmark does, schedules the same
// events and logs the same fleet decisions as a single Run.
func TestSoakSteppingMatchesRun(t *testing.T) {
	env1, f1 := buildSoak(7)
	env1.Run()

	env2, f2 := buildSoak(7)
	for now := soakTick; now <= sim.Time(soakWaves)*soakWave; now += soakTick {
		env2.RunUntil(now)
	}
	env2.Run()

	if env1.Scheduled() != env2.Scheduled() {
		t.Errorf("events: run %d, stepped %d", env1.Scheduled(), env2.Scheduled())
	}
	if d1, d2 := eventDigest(f1), eventDigest(f2); d1 != d2 {
		t.Errorf("event log digest: run %s, stepped %s", d1, d2)
	}
}

// TestProfileBucketsCoverAllSamples profiles real work and checks every
// sample lands in exactly one bucket and the buckets sum to the total.
func TestProfileBucketsCoverAllSamples(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		env, _ := buildSoak(3)
		env.RunUntil(soakWave / 4)
	}
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("no profile samples collected")
	}
	byBucket, total := cpuByBucket(samples)
	known := map[string]bool{}
	var sum int64
	for _, b := range buckets() {
		known[b] = true
		sum += byBucket[b]
	}
	for b := range byBucket {
		if !known[b] {
			t.Errorf("sample charged to unlisted bucket %q", b)
		}
	}
	if sum != total {
		t.Errorf("buckets sum to %d ns, profile total %d ns", sum, total)
	}
	if byBucket["fleet.verify"]+byBucket["fleet.admit"]+byBucket["fleet.rebalance"] == 0 {
		t.Errorf("soak profile charged nothing to the fleet sub-buckets: %v", byBucket)
	}
}

func TestAttribute(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "repro/internal/dsm.(*DSM).Touch", "repro/internal/sim.(*Env).Run"}, "dsm"},
		{[]string{"repro/internal/sched.FragPlacement", "repro/internal/fleet.(*Fleet).tryAdmit", "repro/internal/fleet.(*Fleet).drainQueue"}, "fleet.admit"},
		{[]string{"repro/internal/fleet.(*Fleet).VerifyReport.func1", "repro/internal/fleet.(*Fleet).drainQueue"}, "fleet.verify"},
		{[]string{"repro/internal/fleet.(*Fleet).VerifyReport", "repro/internal/chaos.judge"}, "fleet.verify"},
		{[]string{"repro/internal/dsm.check", "repro/internal/chaos.judge"}, "chaos.oracle"},
		{[]string{"repro/internal/fleet.(*Fleet).deflateAll", "repro/internal/fleet.New.func1"}, "fleet"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "goroutine_switch"},
		{[]string{"syscall.Syscall", "main.main"}, "other"},
		{[]string{"repro/internal/newlayer.F"}, "other"},
	} {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue holds BENCHMARK.json and the metric
// catalogue together.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json has %d workloads, want %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if i < len(workloadNames) && w.Name != workloadNames[i] {
			t.Errorf("workload %d: %s, want %s", i, w.Name, workloadNames[i])
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the catalogue", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, catalogue %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
}

// TestOpTimes checks that units with many ops report the median of
// their own percentiles while small units are pooled.
func TestOpTimes(t *testing.T) {
	var many opTimes
	for u := 1; u <= 3; u++ {
		for i := 0; i < manyOps; i++ {
			many.add(float64(u))
		}
		many.endUnit()
	}
	if got := many.percentiles(); got[0] != 2 || got[2] != 2 {
		t.Errorf("per-unit percentiles = %v, want the middle unit's 2", got)
	}
	var few opTimes
	for u := 1; u <= 3; u++ {
		few.add(float64(u))
		few.endUnit()
	}
	if got := few.percentiles(); got[0] != 2 || got[2] < 2.9 {
		t.Errorf("pooled percentiles = %v, want p50 2 and p99 near 3", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.9, 3.7}} {
		if got := quantile(xs, c.q); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
}
