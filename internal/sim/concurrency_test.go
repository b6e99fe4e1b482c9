package sim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"testing"
)

// mixedWorld runs a seeded workload over every primitive — sleeps, queue
// hand-offs, a contended mutex, event broadcasts, WaitTimeout, callbacks
// and child spawns — and returns a digest of everything it observed.
func mixedWorld(seed int64) string {
	e := NewEnv()
	rng := rand.New(rand.NewSource(seed))
	h := fnv.New64a()
	note := func(format string, args ...any) {
		fmt.Fprintf(h, "%d:", e.Now())
		fmt.Fprintf(h, format, args...)
	}
	q := NewQueue[int](e)
	mu := e.NewMutex()
	const workers = 6
	for w := 0; w < workers; w++ {
		w := w
		steps := 20 + rng.Intn(20)
		delays := make([]Time, steps)
		for i := range delays {
			delays[i] = Time(rng.Intn(50))
		}
		e.Spawn(fmt.Sprintf("w%d", w), func(p *Proc) {
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
					c := e.Spawn("child", func(c *Proc) { c.Sleep(d) })
					p.Wait(c.Done())
				}
			}
		})
	}
	e.Spawn("drain", func(p *Proc) {
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

// TestConcurrentEnvsMatchSequential runs independent environments at
// once on separate goroutines, as parallel sweeps do, and requires each
// to match its sequential run exactly. Under -race it also checks that
// environments share no state.
func TestConcurrentEnvsMatchSequential(t *testing.T) {
	const envs = 8
	want := make([]string, envs)
	for i := range want {
		want[i] = mixedWorld(int64(i + 1))
	}
	got := make([]string, envs)
	var wg sync.WaitGroup
	for i := 0; i < envs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = mixedWorld(int64(i + 1))
		}(i)
	}
	wg.Wait()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("env %d: concurrent run %s, sequential %s", i, got[i], want[i])
		}
	}
}
