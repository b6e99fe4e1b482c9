package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// Edge cases of the baton: whichever goroutine holds it runs the event
// loop, so callbacks, Stop, the deadline and panics must behave the same
// whether the Run caller or a process's goroutine holds it.

// pingPong spawns two procs that alternately sleep 2 and log "name@time",
// so every wake passes the baton between their goroutines.
func pingPong(e *Env, log *[]string, rounds int) {
	for _, name := range []string{"a", "b"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			for i := 0; i < rounds; i++ {
				p.Sleep(2)
				*log = append(*log, fmt.Sprintf("%s@%d", name, p.Now()))
			}
		})
	}
}

func TestBatonCallbackPanicReraisedWithSameValue(t *testing.T) {
	boom := errors.New("boom")
	e := NewEnv()
	finished := false
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(10)
		finished = true
	})
	// The sleeper parks at t=0 and its goroutine runs the loop, so this
	// callback runs while a worker holds the baton.
	e.At(5, func() { panic(boom) })
	func() {
		defer func() {
			if r := recover(); r != boom {
				t.Fatalf("Run panicked with %v, want the callback's own value", r)
			}
		}()
		e.Run()
	}()
	if e.Now() != 5 {
		t.Fatalf("Now() = %v after the panic, want 5", e.Now())
	}
	// The parked proc is intact: a later Run finishes it.
	e.Run()
	if !finished || e.Now() != 10 {
		t.Fatalf("after resume: finished=%v now=%v, want true at 10", finished, e.Now())
	}
}

func TestBatonStopFromProcMidChain(t *testing.T) {
	var want []string
	ref := NewEnv()
	pingPong(ref, &want, 6)
	ref.Run()

	e := NewEnv()
	var got []string
	pingPong(e, &got, 6)
	e.Spawn("stopper", func(p *Proc) {
		p.Sleep(3)
		e.Stop()
		p.Sleep(1) // parks with the baton: the stop must still end Run
	})
	e.Run()
	if e.Now() != 3 {
		t.Fatalf("Stop at t=3 returned at %v", e.Now())
	}
	if e.Pending() == 0 {
		t.Fatal("Stop drained the queue")
	}
	stopped := len(got)
	if stopped == 0 || stopped >= len(want) || fmt.Sprint(got) != fmt.Sprint(want[:stopped]) {
		t.Fatalf("log at stop = %v, want a proper prefix of %v", got, want)
	}
	e.Run()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("resumed log = %v, want %v", got, want)
	}
	if live := e.LiveProcs(); len(live) != 0 {
		t.Fatalf("live procs after resume: %v", live)
	}
}

func TestBatonDeadlineMidChain(t *testing.T) {
	var want []string
	ref := NewEnv()
	pingPong(ref, &want, 8)
	ref.Run()

	e := NewEnv()
	var got []string
	pingPong(e, &got, 8)
	e.RunUntil(5)
	if e.Now() != 5 {
		t.Fatalf("Now() = %v after RunUntil(5)", e.Now())
	}
	if e.Pending() == 0 {
		t.Fatal("events after the deadline were not left queued")
	}
	if fmt.Sprint(got) != fmt.Sprint(want[:4]) {
		t.Fatalf("log at deadline = %v, want %v", got, want[:4])
	}
	e.Run()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("resumed log = %v, want %v", got, want)
	}
}

func TestBatonChainedProcPanicSurfaces(t *testing.T) {
	e := NewEnv()
	e.Spawn("parent", func(p *Proc) {
		// The child starts at the same instant the parent finishes, so the
		// parent's goroutine binds the child to itself and runs it.
		e.Spawn("child", func(*Proc) { panic("child boom") })
	})
	defer func() {
		r := recover()
		err, ok := r.(error)
		if !ok || !strings.Contains(err.Error(), `proc "child" panicked: child boom`) {
			t.Fatalf("Run panicked with %v, want the chained child's panic", r)
		}
	}()
	e.Run()
	t.Fatal("Run returned normally")
}

// TestBatonWaitTimeoutTieAcrossProcs has the reply fired by another proc
// (so the baton moves between goroutines) on the deadline's nanosecond:
// whichever wake was scheduled first wins, and the loser leaves no stale
// state behind.
func TestBatonWaitTimeoutTieAcrossProcs(t *testing.T) {
	for _, replyFirst := range []bool{true, false} {
		e := NewEnv()
		ev := e.NewEvent()
		var got bool
		var gotAt Time
		replier := func(p *Proc) {
			p.Sleep(10)
			ev.Fire()
		}
		if replyFirst {
			// The replier's wake at 10 is scheduled before the caller's
			// deadline timer.
			e.Spawn("replier", replier)
		}
		e.Spawn("caller", func(p *Proc) {
			got = p.WaitTimeout(ev, 10)
			gotAt = p.Now()
			p.Sleep(1)
		})
		if !replyFirst {
			e.Spawn("replier", replier)
		}
		e.Run()
		if got != replyFirst || gotAt != 10 {
			t.Errorf("replyFirst=%v: WaitTimeout = %v at %v, want %v at 10", replyFirst, got, gotAt, replyFirst)
		}
		if e.Now() != 11 || e.Pending() != 0 || len(e.LiveProcs()) != 0 {
			t.Errorf("replyFirst=%v: now=%v pending=%d live=%v, want a clean drain at 11",
				replyFirst, e.Now(), e.Pending(), e.LiveProcs())
		}
	}
}

func TestBatonGoroutinesBoundedUnderSpawnChurn(t *testing.T) {
	const cycles = 100000
	before := runtime.NumGoroutine()
	e := NewEnv()
	e.Spawn("driver", func(p *Proc) {
		for i := 0; i < cycles; i++ {
			w := e.Spawn("w", func(p *Proc) { p.Sleep(1) })
			p.Wait(w.Done())
			// A child that finishes at once, chained onto the worker of
			// the proc that spawned it.
			e.Spawn("x", func(*Proc) {})
			p.Yield()
		}
	})
	e.Run()
	if e.Spawned() != 2*cycles+1 {
		t.Fatalf("spawned %d procs, want %d", e.Spawned(), 2*cycles+1)
	}
	if grown := runtime.NumGoroutine() - before; grown > 4 {
		t.Fatalf("%d spawn/finish cycles left %d extra goroutines", cycles, grown)
	}
}
