package dsm

import (
	"runtime"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Heap bounds per run of the cases in TestRemoteFaultHeapCost. A run
// moves one page between nodes, and the page travels in a recycled
// snapshot buffer, so both byte bounds sit below one page: a fault path
// that copies the page into a fresh buffer again fails them.
const (
	// One remote write fault: request, directory op and invalidation
	// tasks, grant and their replies. On the retrying protocol each call
	// to a node also carries its reply deadline, under the same bound.
	maxWriteFaultAllocs = 22
	maxWriteFaultBytes  = mem.PageSize / 2
	// One remote read fault, plus the write fault that invalidates the
	// reader's copy again.
	maxReadFaultAllocs = 44
	maxReadFaultBytes  = mem.PageSize * 7 / 8
)

// TestRemoteFaultHeapCost pins the allocation count and allocated bytes
// of the DSM's hot paths, so a regression on the fault or RPC path fails
// the test suite rather than only moving a benchmark.
func TestRemoteFaultHeapCost(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const pg, runs = mem.PageID(12345), 200
	type access struct {
		node  int
		write bool
	}
	type heapCase struct {
		name   string
		nodes  int
		params Params
		// steps are issued in turn, perRun to a run, from the state where
		// node 1 owns the page. Every step faults, and a run moves exactly
		// one page.
		steps     []access
		perRun    int
		maxAllocs int
		maxBytes  int
		wantRead  int64 // read faults per run
		wantWrite int64 // write faults per run
	}
	cases := []heapCase{{
		// Nodes 0 and 1 take ownership from each other. Node 0's faults
		// fetch the page from node 1 with invfetch; node 1's take the
		// directory's own copy.
		name:      "write",
		nodes:     2,
		params:    DefaultParams(),
		steps:     []access{{node: 0, write: true}, {node: 1, write: true}},
		perRun:    1,
		maxAllocs: maxWriteFaultAllocs, maxBytes: maxWriteFaultBytes,
		wantWrite: 1,
	}, {
		// Node 2 reads the page node 1 owns (fetch), then node 1's
		// write invalidates node 2's copy; node 1 keeps its bytes, so
		// only the read moves a page.
		name:      "read",
		nodes:     3,
		params:    DefaultParams(),
		steps:     []access{{node: 2}, {node: 1, write: true}},
		perRun:    2,
		maxAllocs: maxReadFaultAllocs, maxBytes: maxReadFaultBytes,
		wantRead: 1, wantWrite: 1,
	}}
	// The same runs on the retrying protocol: every call to a node then
	// carries a reply deadline, on a lossless fabric, under the same
	// bounds.
	for _, tc := range cases[:2] {
		tc.name += "-retry"
		tc.params = retryParams()
		cases = append(cases, tc)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env, d := newTestDSM(tc.nodes, tc.params)
			accesses := sim.NewQueue[access](env)
			env.Spawn("accessor", func(p *sim.Proc) {
				for {
					a := accesses.Get(p)
					d.Touch(p, a.node, pg, a.write)
				}
			})
			accesses.Put(access{node: 1, write: true})
			env.Run()
			before := d.TotalStats()
			step := 0
			allocs, bytes := heapPerRun(runs, func() {
				for i := 0; i < tc.perRun; i++ {
					accesses.Put(tc.steps[step%len(tc.steps)])
					step++
					env.Run()
				}
			})
			got := d.TotalStats()
			n := int64(runs + 1) // heapPerRun warms up with one extra run
			if r, w := got.ReadFaults-before.ReadFaults, got.WriteFaults-before.WriteFaults; r != n*tc.wantRead || w != n*tc.wantWrite {
				t.Fatalf("%d read and %d write faults over %d runs, want %d and %d per run", r, w, n, tc.wantRead, tc.wantWrite)
			}
			if moved := got.BytesMoved - before.BytesMoved; moved != n*mem.PageSize {
				t.Fatalf("%d payload bytes moved over %d runs, want one page per run", moved, n)
			}
			if allocs > float64(tc.maxAllocs) {
				t.Errorf("one %s run allocates %.1f times, want <= %d", tc.name, allocs, tc.maxAllocs)
			}
			if bytes > float64(tc.maxBytes) {
				t.Errorf("one %s run allocates %.0f bytes, want <= %d", tc.name, bytes, tc.maxBytes)
			}
			t.Logf("%.1f allocs, %.0f bytes per %s run", allocs, bytes, tc.name)
		})
	}
}

// heapPerRun reports the average heap allocations and allocated bytes of
// f, measured like testing.AllocsPerRun: one warm-up call, then runs calls
// on a single P, read from the runtime's MemStats.
func heapPerRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
