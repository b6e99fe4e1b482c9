package sim

import (
	"reflect"
	"strings"
	"testing"
)

// TestTasksListedWithProcsInSpawnOrder: tasks share the process table, so
// Spawned counts them and LiveProcs and a StallError list them among
// processes in spawn order until they Finish, and Finish counts as
// progress like a process's return.
func TestTasksListedWithProcsInSpawnOrder(t *testing.T) {
	e := NewEnv()
	never := e.NewEvent()
	e.Spawn("p1", func(p *Proc) { p.Wait(never) })
	t1 := e.Task("t1")
	e.Spawn("p2", func(p *Proc) { p.Wait(never) })
	e.Task("t2")
	if got, want := e.LiveProcs(), []string{"p1", "t1", "p2", "t2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("LiveProcs = %v, want %v", got, want)
	}
	if e.Spawned() != 4 {
		t.Fatalf("Spawned = %d, want 4", e.Spawned())
	}

	// t1 finishes from a callback; t2 stays live and wedges the run
	// behind a ticking daemon, so the watchdog's report must name it.
	e.Defer(Millisecond, func() {
		before := e.Progress()
		t1.Finish()
		if e.Progress() != before+1 {
			t.Errorf("Finish moved progress %d -> %d, want +1", before, e.Progress())
		}
		if !t1.Done().Fired() {
			t.Error("Finish did not fire Done")
		}
	})
	tick(e, Millisecond)
	e.WatchProgress(10 * Millisecond)
	e.Run()
	stall := e.Stalled()
	if stall == nil {
		t.Fatal("no stall reported with a wedged task")
	}
	if want := []string{"p1", "p2", "t2"}; !reflect.DeepEqual(stall.Procs, want) {
		t.Fatalf("stall names %v, want %v", stall.Procs, want)
	}
	if !strings.Contains(stall.Error(), "p1, p2, t2") {
		t.Fatalf("stall error %q does not list the live procs in spawn order", stall.Error())
	}
}

// TestFinishRejectsProcsAndDoubleFinish: only a live task may Finish.
func TestFinishRejectsProcsAndDoubleFinish(t *testing.T) {
	e := NewEnv()
	tk := e.Task("task")
	tk.Finish()
	for name, p := range map[string]*Proc{
		"finished task": tk,
		"process":       e.Spawn("proc", func(*Proc) {}),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Finish of a %s did not panic", name)
				}
			}()
			p.Finish()
		}()
	}
}

// TestLockFuncSharesFIFOWithLock: callbacks queued by LockFunc and procs
// blocked in Lock are served in one FIFO, each at the point Unlock hands
// the mutex over, and a free mutex runs a LockFunc callback at once.
func TestLockFuncSharesFIFOWithLock(t *testing.T) {
	e := NewEnv()
	mu := e.NewMutex()
	var log []string
	note := func(s string) { log = append(log, e.Now().String()+" "+s) }
	hold := func(name string) func() {
		return func() {
			note(name)
			e.Defer(10, mu.Unlock)
		}
	}
	mu.LockFunc(hold("op1")) // free: runs at once
	e.Spawn("restore", func(p *Proc) {
		mu.Lock(p)
		note("restore")
		p.Sleep(10)
		mu.Unlock()
	})
	e.Defer(1, func() { mu.LockFunc(hold("op2")) })
	e.Run()
	want := []string{"0ns op1", "10ns restore", "20ns op2"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("lock order %v, want %v", log, want)
	}
	if mu.Locked() {
		t.Fatal("mutex still held")
	}
}

// TestAlarmCancel: a cancelled alarm never fires, and a handle held past
// its alarm's firing cancels nothing once the pooled timer is reused.
func TestAlarmCancel(t *testing.T) {
	e := NewEnv()
	fired := map[string]bool{}
	a := e.Alarm(5, func() { fired["a"] = true })
	e.Alarm(2, func() { fired["b"] = true }).Cancel()
	e.Run()
	if !fired["a"] || fired["b"] {
		t.Fatalf("fired %v, want only a", fired)
	}
	e.Alarm(3, func() { fired["c"] = true }) // reuses a's pooled timer
	a.Cancel()
	e.Run()
	if !fired["c"] {
		t.Fatal("a stale Alarm handle cancelled a later alarm on its recycled timer")
	}
}
