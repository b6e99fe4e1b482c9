package dsm

import (
	"testing"

	"repro/internal/sim"
)

// maxWriteFaultAllocs bounds the heap allocations of one remote write
// fault: request, directory proc, invalidation proc, grant and their
// replies.
const maxWriteFaultAllocs = 26

// TestRemoteWriteFaultAllocs pins the allocation cost of the DSM's hot
// path, so an allocation regression on the fault or RPC path fails the
// test suite rather than only moving a benchmark.
func TestRemoteWriteFaultAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	env, d := newTestDSM(2, DefaultParams())
	writers := sim.NewQueue[int](env)
	env.Spawn("writer", func(p *sim.Proc) {
		for {
			d.Touch(p, writers.Get(p), 12345, true)
		}
	})
	node := 0
	const runs = 200
	allocs := testing.AllocsPerRun(runs, func() {
		// Alternate writers so every touch takes ownership remotely.
		node = 1 - node
		writers.Put(node)
		env.Run()
	})
	if got := d.TotalStats().WriteFaults; got != runs+1 {
		t.Fatalf("%d write faults, want one per run (%d)", got, runs+1)
	}
	if allocs > maxWriteFaultAllocs {
		t.Fatalf("one remote write fault allocates %.0f times, want <= %d", allocs, maxWriteFaultAllocs)
	}
	t.Logf("%.0f allocs per remote write fault", allocs)
}
