package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/fleet"
	"repro/internal/sched"
	"repro/internal/sim"
)

// The soak world: cmd/fragperf's fleet (8 nodes x 8 CPUs x 32 GiB,
// MinFrag, AutoReclaim, a 2 ms rebalance tick) fed at fragperf's arrival
// rate of 0.8 VMs per virtual second, in two 30 s waves of 24 VMs. The
// planner's cost grows faster than linearly with the backlog, so one
// full-size world's host time varies by about 30% between seeds; a run
// instead averages some thirty of these half-size worlds, which keeps the
// spread between seeds within a few percent while every world stays
// backlogged.
const (
	soakVMs    = 24
	soakWave   = 30 * sim.Second
	soakWaves  = 2
	soakTick   = 2 * sim.Millisecond
	soakWarmup = 10 * sim.Second // virtual time the set-up warm-up steps
)

// buildSoak constructs one soak world from its seed.
func buildSoak(seed int64) (*sim.Env, *fleet.Fleet) {
	const gig = int64(1) << 30
	env := sim.NewEnv()
	f := fleet.New(env, fleet.Config{
		Nodes: 8, CPUsPerNode: 8, MemPerNode: 32 * gig,
		Policy: sched.MinFrag, AutoReclaim: true,
		RebalanceEvery: soakTick,
		Horizon:        soakWaves * soakWave,
	})
	rng := rand.New(rand.NewSource(seed))
	for w := 0; w < soakWaves; w++ {
		burst := fleet.GenerateBurst(rng, soakVMs, soakWave, 2*gig)
		for i := range burst {
			burst[i].ID += w * soakVMs
			burst[i].Arrival += sim.Time(w) * soakWave
		}
		f.Submit(burst)
	}
	return env, f
}

// eventDigest hashes a fleet's event log.
func eventDigest(f *fleet.Fleet) string {
	h := sha256.New()
	for _, e := range f.Events() {
		fmt.Fprintf(h, "%d %s %d %d %d %d %d\n", e.T, e.Kind, e.VM, e.From, e.To, e.N, e.Lease)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// soak steps soak worlds one rebalance tick at a time with RunUntil: one
// unit is one world, one op is one tick. Unit k's world is seeded by
// subSeed(seed, k).
type soak struct {
	seed    int64
	digests []string // event-log digest per unit, from the untraced phase

	events uint64        // Σ Scheduled over untraced units
	wall   time.Duration // Σ host time over untraced units

	// World 0's simulated statistics: deterministic per seed.
	attempts int
	stats    fleet.Stats
	waits    []sim.Time
	events0  uint64
}

func newSoak(seed int64) *soak { return &soak{seed: seed} }

// setUp generates the seed's first world, then warms up on a fixed world
// (seed 42), so set-up cost does not depend on how backlogged the
// seed's world is.
func (s *soak) setUp(*tally) {
	buildSoak(s.seed)
	env, _ := buildSoak(42)
	env.RunUntil(soakWarmup)
}

func (s *soak) nominal() time.Duration { return 750 * time.Millisecond }

func (s *soak) run(k int, traced bool, t *tally) cost {
	id := t.log.begin("world", t.parent)
	defer t.log.end(id)
	env, f := buildSoak(subSeed(s.seed, k))
	horizon := sim.Time(soakWaves) * soakWave
	quarter := horizon / 4
	var total cost
	attempts, ticks := 0, 0
	sw := startWatch()
	for now := soakTick; now <= horizon; now += soakTick {
		attempts += f.QueueLen()
		env.RunUntil(now)
		c := sw.lap()
		total.add(c)
		ticks++
		if !traced {
			t.ops.add(ms(c.cpu))
		}
		if now%quarter == 0 {
			vid := t.log.begin("fleet.VerifyReport", id)
			vs := f.VerifyReport()
			t.log.end(vid)
			t.attempted += ticks
			if len(vs) > 0 {
				t.failed += ticks
				t.problem("soak world %d at %v: %v", k, now, vs[0])
			}
			ticks = 0
			sw = startWatch()
		}
	}
	env.Run() // departures past the horizon
	total.add(sw.lap())

	t.attempted++ // the drain
	st := f.Stats()
	if vs := f.VerifyReport(); len(vs) > 0 {
		t.failed++
		t.problem("soak world %d after drain: %v", k, vs[0])
	} else if submitted := soakVMs * soakWaves; st.Admitted+f.QueueLen() != submitted {
		t.failed++
		t.problem("soak world %d: %d admitted + %d queued != %d submitted", k, st.Admitted, f.QueueLen(), submitted)
	}

	d := eventDigest(f)
	if traced {
		if k < len(s.digests) && s.digests[k] != d {
			t.problem("soak world %d: event log differs between untraced and traced runs", k)
		}
		return total
	}
	s.digests = append(s.digests, d)
	s.events += env.Scheduled()
	s.wall += total.wall
	if k == 0 {
		s.attempts, s.stats, s.waits, s.events0 = attempts, st, f.QueueWaits(), env.Scheduled()
	}
	return total
}

func (s *soak) report(_ *tally, layer map[string]float64, info map[string]any) {
	h := sha256.New()
	for _, d := range s.digests {
		h.Write([]byte(d))
	}
	info["digest"] = hex.EncodeToString(h.Sum(nil)[:8])
	info["world0_digest"] = s.digests[0]
	layer["sim.events"] = float64(s.events0)
	layer["sim.events_per_s"] = float64(s.events) / s.wall.Seconds()
	layer["fleet.admit_attempts"] = float64(s.attempts)
	if s.attempts > 0 {
		layer["fleet.admit_yield"] = float64(s.stats.Admitted) / float64(s.attempts)
	}
	layer["fleet.admitted"] = float64(s.stats.Admitted)
	layer["fleet.max_queue"] = float64(s.stats.MaxQueue)
	layer["fleet.reclaims"] = float64(s.stats.Reclaims)
	layer["fleet.migrations"] = float64(s.stats.Migrations)
	layer["fleet.rebalances"] = float64(s.stats.Rebalances)
	waits := make([]float64, len(s.waits))
	for i, w := range s.waits {
		waits[i] = w.Seconds()
	}
	layer["fleet.queue_wait_p50_s"] = quantile(waits, 0.50)
	layer["fleet.queue_wait_p99_s"] = quantile(waits, 0.99)
}
