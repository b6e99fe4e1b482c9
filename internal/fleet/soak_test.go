package fleet

import (
	"flag"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
)

var soakWaves = flag.Int("soak-waves", 4,
	"TestSoakHeapSteady: fleet soak waves of 48 VMs, 60 virtual seconds each (40 schedules >10^6 events)")

// soakWindow is one soak wave's virtual duration.
const soakWindow = 60 * sim.Second

// TestSoakHeapSteady is the fleet-soak heap gate, the wall-clock guard
// for the unbounded-growth class of bug: it drives the control plane
// through waves of VM arrivals — admission, leases, reclaims, rebalance
// ticks, departures — sampling the live heap at each quarter of the run.
// Steady state means the final sample is within 50% (plus a fixed 8 MB
// slack for pool high-water marks) of the first.
//
// Sizes: -soak-waves (default 4) under plain go test; 8 VMs × 1 wave
// under the race detector; CI runs it at -soak-waves 40.
func TestSoakHeapSteady(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	vmsPerWave, waves := 48, *soakWaves
	if raceEnabled {
		vmsPerWave, waves = 8, 1
	}
	env := sim.NewEnv()
	f := New(env, Config{
		Nodes: 8, CPUsPerNode: 8, MemPerNode: 32 * gig,
		Policy: sched.MinFrag, AutoReclaim: true,
		// A 2 ms consolidation tick is deliberately aggressive: together
		// with the VM churn it pushes a 40-wave run past 10⁶ scheduled
		// events, which is what makes the quarter-point heap samples a
		// meaningful steady-state witness.
		RebalanceEvery: 2 * sim.Millisecond,
		Horizon:        sim.Time(waves) * soakWindow,
	})
	rng := rand.New(rand.NewSource(42))
	for w := 0; w < waves; w++ {
		burst := GenerateBurst(rng, vmsPerWave, soakWindow, 2*gig)
		for i := range burst {
			burst[i].ID += w * vmsPerWave
			burst[i].Arrival += sim.Time(w) * soakWindow
		}
		f.Submit(burst)
	}

	var samples [4]uint64
	quarter := sim.Time(waves) * soakWindow / 4
	for q := range samples {
		env.RunUntil(sim.Time(q+1) * quarter)
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		samples[q] = ms.HeapAlloc
	}
	env.Run() // drain departures past the horizon
	f.Verify()

	t.Logf("%d VMs × %d waves: %d events, live heap %.1f → %.1f → %.1f → %.1f MB",
		vmsPerWave, waves, env.Scheduled(), mb(samples[0]), mb(samples[1]), mb(samples[2]), mb(samples[3]))
	if env.Scheduled() < 10_000 {
		t.Fatalf("soak scheduled only %d events", env.Scheduled())
	}
	if samples[3] > samples[0]+samples[0]/2+(8<<20) {
		t.Fatalf("soak heap not steady: %.1f MB → %.1f MB after warmup — the core is leaking",
			mb(samples[0]), mb(samples[3]))
	}
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }
