package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/events.golden")

// goldenWorld is one fleet scenario whose complete event log is pinned
// by digest in testdata/events.golden.
type goldenWorld struct {
	name string
	run  func() []Event
}

// soakWorld is the benchmark's fleet-soak world: 8 nodes × 8 CPUs ×
// 32 GiB, MinFrag, AutoReclaim, a 2 ms rebalance tick, two 30 s waves of
// 24 VMs, run to completion.
func soakWorld(seed int64, reclaim ReclaimPolicy) []Event {
	const vms, wave, waves = 24, 30 * sim.Second, 2
	env := sim.NewEnv()
	f := New(env, Config{
		Nodes: 8, CPUsPerNode: 8, MemPerNode: 32 * gig,
		Policy: sched.MinFrag, AutoReclaim: true, Reclaim: reclaim,
		RebalanceEvery: 2 * sim.Millisecond,
		Horizon:        waves * wave,
	})
	rng := rand.New(rand.NewSource(seed))
	for w := 0; w < waves; w++ {
		burst := GenerateBurst(rng, vms, wave, 2*gig)
		for i := range burst {
			burst[i].ID += w * vms
			burst[i].Arrival += sim.Time(w) * wave
		}
		f.Submit(burst)
	}
	env.Run()
	f.Verify()
	return f.Events()
}

// goldenWorlds lists every pinned scenario: the soak world at seeds 1–3
// under each reclaim policy, the root determinism test's 4-node world,
// and a heartbeat world that crashes and heals a node under rebalancing.
func goldenWorlds() []goldenWorld {
	var ws []goldenWorld
	for _, pol := range Policies() {
		for seed := int64(1); seed <= 3; seed++ {
			pol, seed := pol, seed
			ws = append(ws, goldenWorld{
				name: fmt.Sprintf("soak-%s-seed%d", pol, seed),
				run:  func() []Event { return soakWorld(seed, pol) },
			})
		}
	}
	ws = append(ws, goldenWorld{name: "determinism-4node", run: func() []Event {
		env := sim.NewEnv()
		f := New(env, Config{
			Nodes: 4, CPUsPerNode: 8, MemPerNode: 32 * gig,
			Policy: sched.MinFrag, AutoReclaim: true,
			RebalanceEvery: 5 * sim.Second,
			Horizon:        120 * sim.Second,
		})
		f.Submit(GenerateBurst(rand.New(rand.NewSource(7)), 60, 60*sim.Second, 2*gig))
		env.RunUntil(120 * sim.Second)
		return f.Events()
	}})
	ws = append(ws, goldenWorld{name: "crash-heal", run: func() []Event {
		env := sim.NewEnv()
		c := cluster.NewDefault(env, 4)
		inj := fault.New(c)
		cfg := ClusterConfig(c, sched.MinFrag)
		cfg.AutoReclaim = true
		cfg.Fault = inj
		cfg.HeartbeatEvery = 100 * sim.Millisecond
		cfg.RebalanceEvery = 50 * sim.Millisecond
		cfg.Horizon = 60 * sim.Second
		f := New(env, cfg)
		f.Submit(GenerateBurst(rand.New(rand.NewSource(5)), 48, 40*sim.Second, 2*gig))
		var sch fault.Schedule
		sch.Add(fault.Event{At: 10 * sim.Second, Kind: fault.CrashNode, Node: 0})
		sch.Add(fault.Event{At: 25 * sim.Second, Kind: fault.HealNode, Node: 0})
		inj.Apply(sch)
		env.Run()
		f.Verify()
		return f.Events()
	}})
	return ws
}

// eventsDigest renders one golden line: the world's name, its event
// count and the SHA-256 of its event log.
func eventsDigest(name string, evs []Event) string {
	h := sha256.New()
	for _, e := range evs {
		fmt.Fprintf(h, "%d %s %d %d %d %d %d\n", e.T, e.Kind, e.VM, e.From, e.To, e.N, e.Lease)
	}
	return fmt.Sprintf("%s %d %s\n", name, len(evs), hex.EncodeToString(h.Sum(nil)))
}

// TestEventLogGolden pins every decision the control plane makes in the
// golden worlds, byte for byte, against digests recorded before any
// fleet performance work. A change that alters a decision — even one
// that alters it the same way on every run — fails here. Run
// `go test -run EventLogGolden -update ./internal/fleet` to accept an
// intentional behaviour change.
func TestEventLogGolden(t *testing.T) {
	var got bytes.Buffer
	for _, w := range goldenWorlds() {
		got.WriteString(eventsDigest(w.name, w.run()))
	}
	path := filepath.Join("testdata", "events.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("event logs differ from %s:\n--- got\n%s--- want\n%s", path, got.Bytes(), want)
	}
}
