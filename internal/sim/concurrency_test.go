package sim_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dsm"
	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// mixedWorld runs a seeded workload over every primitive — sleeps, queue
// hand-offs, a contended mutex, event broadcasts, WaitTimeout, callbacks
// and child spawns — and returns a digest of everything it observed.
func mixedWorld(seed int64) string {
	e := sim.NewEnv()
	rng := rand.New(rand.NewSource(seed))
	h := fnv.New64a()
	note := func(format string, args ...any) {
		fmt.Fprintf(h, "%d:", e.Now())
		fmt.Fprintf(h, format, args...)
	}
	q := sim.NewQueue[int](e)
	mu := e.NewMutex()
	const workers = 6
	for w := 0; w < workers; w++ {
		w := w
		steps := 20 + rng.Intn(20)
		delays := make([]sim.Time, steps)
		for i := range delays {
			delays[i] = sim.Time(rng.Intn(50))
		}
		e.Spawn(fmt.Sprintf("w%d", w), func(p *sim.Proc) {
			for i, d := range delays {
				switch i % 4 {
				case 0:
					p.Sleep(d)
					q.Put(w*1000 + i)
				case 1:
					mu.Lock(p)
					p.Sleep(d/2 + 1)
					note("w%d holds %d;", w, i)
					mu.Unlock()
				case 2:
					ev := e.NewEvent()
					e.Defer(d, ev.Fire)
					note("w%d wait %v;", w, p.WaitTimeout(ev, 25))
				default:
					c := e.Spawn("child", func(c *sim.Proc) { c.Sleep(d) })
					p.Wait(c.Done())
				}
			}
		})
	}
	e.Spawn("drain", func(p *sim.Proc) {
		for {
			v, ok := q.TryGet()
			if !ok {
				if len(e.LiveProcs()) == 1 {
					return
				}
				p.Sleep(7)
				continue
			}
			note("got %d;", v)
		}
	})
	e.Run()
	return fmt.Sprintf("%x@%d/%d", h.Sum64(), e.Now(), e.Scheduled())
}

// dsmWorld runs a seeded DSM workload: four slices, each a proc issuing
// random reads and writes to a few shared pages, so directory ops, their
// invalidation tasks and page-lock queues interleave. It returns a digest
// of every value read, the final time and event count, and the stats.
func dsmWorld(seed int64) string {
	e := sim.NewEnv()
	rng := rand.New(rand.NewSource(seed))
	h := fnv.New64a()
	layer := msg.NewLayer(e, netsim.New(e, "fabric", 1500*sim.Nanosecond, 56), msg.DefaultParams())
	d := dsm.New(e, layer, []int{0, 1, 2, 3}, dsm.DefaultParams())
	for node := 0; node < 4; node++ {
		node := node
		ops := make([]int, 30)
		for i := range ops {
			ops[i] = rng.Intn(1 << 10)
		}
		e.Spawn(fmt.Sprintf("slice%d", node), func(p *sim.Proc) {
			for _, op := range ops {
				pg := mem.PageID(op % 5)
				if op&(1<<9) != 0 {
					d.Write(p, node, pg, 8*node, []byte{byte(op)})
				} else {
					fmt.Fprintf(h, "%d:%d@%d=%d;", node, pg, p.Now(), d.Read(p, node, pg)[8*node])
				}
				p.Sleep(sim.Time(op&7) * sim.Microsecond)
			}
		})
	}
	e.Run()
	return fmt.Sprintf("%x@%d/%d %+v", h.Sum64(), e.Now(), e.Scheduled(), d.TotalStats())
}

// TestConcurrentEnvsMatchSequential runs independent environments at
// once on separate goroutines, as parallel sweeps do, and requires each
// to match its sequential run exactly. Under -race it also checks that
// environments share no state. Eight environments run the mixed
// primitive workload and eight the DSM one, all at once.
func TestConcurrentEnvsMatchSequential(t *testing.T) {
	const envs = 16
	world := func(i int) string {
		if i < envs/2 {
			return mixedWorld(int64(i + 1))
		}
		return dsmWorld(int64(i - envs/2 + 1))
	}
	want := make([]string, envs)
	for i := range want {
		want[i] = world(i)
	}
	got := make([]string, envs)
	var wg sync.WaitGroup
	for i := 0; i < envs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = world(i)
		}(i)
	}
	wg.Wait()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("env %d: concurrent run %s, sequential %s", i, got[i], want[i])
		}
	}
}
