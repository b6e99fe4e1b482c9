package fleet

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/sim"
)

// TestQuickFleetInvariants drives randomized bursts plus random explicit
// reclaims through the control plane and checks, for every seed:
//
//   - no placement ever exceeds node capacity and no lease is ever
//     double-booked (Verify panics mid-run otherwise — it runs at every
//     quiescent point, not just at the end);
//   - the same seed produces the identical event log.
func TestQuickFleetInvariants(t *testing.T) {
	prop := func(seed int64, nn, rr uint8) bool {
		nodes := 2 + int(nn%5)
		pol := sched.MinFrag
		if seed%2 == 0 {
			pol = sched.MinNodes
		}
		run := func() []Event {
			env := sim.NewEnv()
			f := New(env, Config{
				Nodes: nodes, CPUsPerNode: 8, MemPerNode: 32 * gig,
				Policy: pol, AutoReclaim: true,
				Reclaim:        ReclaimPolicy(rr % 3), // rotate consolidate/evict/resize
				RebalanceEvery: 4 * sim.Second, Horizon: 90 * sim.Second,
			})
			rng := rand.New(rand.NewSource(seed))
			f.Submit(GenerateBurst(rng, 20+int(rr%30), 40*sim.Second, 2*gig))
			// Random owner-driven reclaims stress the lease machinery.
			for i := 0; i < 3; i++ {
				at := sim.Time(1+rng.Intn(60)) * sim.Second
				node := rng.Intn(nodes)
				env.At(at, func() { f.Reclaim(node) })
			}
			env.RunUntil(90 * sim.Second)
			f.Verify()
			// Belt and braces on top of Verify: recompute per-node load
			// straight from the placements.
			used := make([]int, nodes)
			for _, s := range []Snapshot{f.Snapshot()} {
				for n, free := range s.FreeCPU {
					used[n] = 8 - free
					if free < 0 || free > 8 {
						t.Errorf("seed %d: node %d free CPUs out of range: %d", seed, n, free)
						return nil
					}
				}
			}
			return f.Events()
		}
		a, b := run(), run()
		if a == nil || b == nil {
			return false
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: same seed produced different event logs (%d vs %d events)", seed, len(a), len(b))
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(99))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSchedPlacementsFitCapacity checks the extracted pure placement
// helpers directly: BestFit and FragPlacement never hand out more than a
// node has free, and a gang placement covers the request exactly.
func TestQuickSchedPlacementsFitCapacity(t *testing.T) {
	prop := func(seed int64, nn uint8, need uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := 1 + int(nn%8)
		free := make([]int, nodes)
		total := 0
		for i := range free {
			free[i] = rng.Intn(9)
			total += free[i]
		}
		k := 1 + int(need%16)
		if n, ok := sched.BestFit(free, k); ok {
			if free[n] < k {
				t.Errorf("BestFit(%v, %d) picked node %d with only %d free", free, k, n, free[n])
				return false
			}
		}
		pl, ok := sched.FragPlacement(free, k, sched.MinFrag)
		if ok != (total >= k) {
			t.Errorf("FragPlacement(%v, %d) ok=%v, want %v", free, k, ok, total >= k)
			return false
		}
		if !ok {
			return true
		}
		sum := 0
		for n, c := range pl {
			if c <= 0 || c > free[n] {
				t.Errorf("FragPlacement(%v, %d) overbooks node %d: %d", free, k, n, c)
				return false
			}
			sum += c
		}
		if sum != k {
			t.Errorf("FragPlacement(%v, %d) covers %d vCPUs", free, k, sum)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// booksFingerprint renders every input the rebalance pass and the
// invariant verifier read: free CPU and memory, down nodes, placements,
// requests, home nodes, the admission queue, unreleased leases, the
// bound set and the balloon ledger. fmt prints maps in key order, so
// equal books render equal strings; %d keeps sim.Time and Class as plain
// integers instead of calling their String methods.
func booksFingerprint(f *Fleet) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|%d|%t|%d|%d|%d|%d|", f.freeCPU, f.freeMem, f.down, f.placements, f.reqs, f.home, f.waiting)
	for _, l := range f.leases {
		if l.State != LeaseReleased {
			fmt.Fprintf(&b, "%d", *l)
		}
	}
	bound := make([]int, 0, len(f.bound))
	for id := range f.bound {
		bound = append(bound, id)
	}
	sort.Ints(bound)
	fmt.Fprintf(&b, "|%d|", bound)
	for _, id := range f.ballooned.VMs() {
		fmt.Fprintf(&b, "%d:%d/%d ", id, f.ballooned.Provisioned(id), f.ballooned.Ballooned(id))
	}
	return b.String()
}

// TestQuickEpochCoversBooks is the completeness property behind quiet
// rebalance ticks and the memoised internal verify: every change to a
// book the planner or the verifier reads advances the fleet's epoch.
// Random bursts, owner reclaims, and a node crash and heal run under all
// three reclaim policies in 1 ms steps. Whenever a step leaves the epoch
// where it was, the books' fingerprint must not have moved either, and
// after every step the books must verify clean.
func TestQuickEpochCoversBooks(t *testing.T) {
	horizon, count := 6*sim.Second, 2
	if raceEnabled {
		horizon, count = 2*sim.Second, 1
	}
	var quiet, moved int
	prop := func(seed int64, nn uint8) bool {
		for _, pol := range Policies() {
			nodes := 3 + int(nn%3)
			env := sim.NewEnv()
			c := cluster.NewDefault(env, nodes)
			inj := fault.New(c)
			cfg := ClusterConfig(c, sched.MinFrag)
			cfg.Reclaim, cfg.AutoReclaim = pol, true
			cfg.Fault, cfg.HeartbeatEvery = inj, 50*sim.Millisecond
			cfg.RebalanceEvery, cfg.Horizon = 3*sim.Millisecond, horizon
			f := New(env, cfg)
			rng := rand.New(rand.NewSource(seed))
			burst := GenerateBurst(rng, 10*nodes, horizon/2, 2*gig)
			for i := range burst {
				burst[i].Duration /= 8 // churn within the horizon
			}
			f.Submit(burst)
			for i := 0; i < 3; i++ {
				at := sim.Time(1 + rng.Int63n(int64(horizon-1)))
				node := rng.Intn(nodes)
				env.At(at, func() { f.Reclaim(node) })
			}
			var sch fault.Schedule
			crash, node := sim.Time(rng.Int63n(int64(horizon/2))), rng.Intn(nodes)
			sch.Add(fault.Event{At: crash, Kind: fault.CrashNode, Node: node})
			sch.Add(fault.Event{At: crash + horizon/4, Kind: fault.HealNode, Node: node})
			inj.Apply(sch)

			epoch, fp := f.epoch, booksFingerprint(f)
			for now := sim.Millisecond; now <= horizon; now += sim.Millisecond {
				env.RunUntil(now)
				next := booksFingerprint(f)
				if f.epoch == epoch {
					quiet++
					if next != fp {
						t.Errorf("seed %d %s: books changed at %v without an epoch advance:\nbefore %s\nafter  %s",
							seed, pol, now, fp, next)
						return false
					}
				} else {
					moved++
				}
				if vs := f.VerifyReport(); len(vs) > 0 {
					t.Errorf("seed %d %s: books broken at %v: %v", seed, pol, now, vs[0])
					return false
				}
				epoch, fp = f.epoch, next
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: count, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
	if quiet == 0 || moved == 0 {
		t.Fatalf("property vacuous: %d quiet steps, %d steps that moved the epoch", quiet, moved)
	}
}

// TestVerifyScansPastQuietPoint: once a quiet tick and a clean check
// have seen the books, the fleet's own checks skip them — so the public
// Verify must still scan in full and catch books corrupted behind the
// fleet's back.
func TestVerifyScansPastQuietPoint(t *testing.T) {
	env, f := newFleet(t, Config{
		Nodes: 2, CPUsPerNode: 4, MemPerNode: 8 * gig, Policy: sched.MinNodes,
		RebalanceEvery: sim.Millisecond,
	})
	f.Submit([]Request{
		{ID: 1, VCPUs: 3, MemBytes: gig, Arrival: 0, Duration: 10 * sim.Second},
		{ID: 2, VCPUs: 3, MemBytes: gig, Arrival: 0, Duration: 10 * sim.Second},
		{ID: 3, VCPUs: 2, MemBytes: gig, Arrival: 1, Duration: 10 * sim.Second},
	})
	env.RunUntil(5 * sim.Millisecond)
	if f.quietEpoch != f.epoch || f.verifiedEpoch != f.epoch {
		t.Fatalf("no memoised quiet point: epoch %d, quiet %d, verified %d", f.epoch, f.quietEpoch, f.verifiedEpoch)
	}
	f.freeCPU[0]--
	env.RunUntil(10 * sim.Millisecond) // quiet ticks: nothing rescans
	defer func() {
		if msg, ok := recover().(string); !ok || !strings.Contains(msg, "CPU books broken") {
			t.Fatalf("Verify after corruption: panic = %v, want the CPU-books message", msg)
		}
	}()
	f.Verify()
}
