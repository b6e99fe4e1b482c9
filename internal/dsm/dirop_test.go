package dsm

import (
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// TestRestoreQueuesBehindDirectoryOps: RestorePage locks the page as a
// process, in the same FIFO as directory ops. A restore issued while a
// write grant holds the page lock runs after it, and a fault requested
// after the restore queued runs after the restore: the page ends at that
// fault's node holding the restored bytes.
func TestRestoreQueuesBehindDirectoryOps(t *testing.T) {
	env, d := newTestDSM(3, DefaultParams())
	const pg = mem.PageID(3)
	run(env, func(p *sim.Proc) { d.Write(p, 0, pg, 0, []byte("origin")) })
	env.Spawn("writer1", func(p *sim.Proc) { d.Write(p, 1, pg, 0, []byte("lost")) })
	env.Spawn("restore", func(p *sim.Proc) {
		for !d.lock(pg).Locked() {
			p.Sleep(100 * sim.Nanosecond)
		}
		env.Spawn("writer2", func(p *sim.Proc) { d.Touch(p, 2, pg, true) })
		d.RestorePage(p, 0, pg, []byte("restored"))
	})
	env.Run()
	owner, copyset, _ := d.DirEntry(pg)
	if owner != 2 || !reflect.DeepEqual(copyset, []int{2}) {
		t.Fatalf("owner %d copyset %v, want node 2 alone (its fault queued behind the restore)", owner, copyset)
	}
	var got []byte
	run(env, func(p *sim.Proc) { got = d.Read(p, 2, pg) })
	if string(got[:8]) != "restored" {
		t.Fatalf("node 2 reads %q, want the restored bytes", got[:8])
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

// blackhole drops every fabric message to or from one node.
type blackhole int

func (b blackhole) Outcome(from, to, size int) netsim.Outcome {
	return netsim.Outcome{Drop: from == int(b) || to == int(b)}
}

// TestWedgedDirectoryOpIsLive: a directory op and its invalidation are
// tasks, so a fault wedged on an unreachable replica holder leaves them
// in LiveProcs by page name, next to the faulting process.
func TestWedgedDirectoryOpIsLive(t *testing.T) {
	env, d := newTestDSM(3, DefaultParams())
	const pg = mem.PageID(4)
	run(env, func(p *sim.Proc) { d.Touch(p, 2, pg, false) })
	d.layer.Net().SetFilter(blackhole(2))
	env.Spawn("writer", func(p *sim.Proc) { d.Touch(p, 1, pg, true) })
	env.Run()
	want := []string{"writer", "dsm1.dir.4", "dsm1.inv.4"}
	if got := env.LiveProcs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("LiveProcs = %v, want %v", got, want)
	}
}
