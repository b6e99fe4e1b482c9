package main

// Layer unit costs: each layer's hottest call timed alone through its
// public API, as ns/op and allocs/op medians over repeated samples. The
// bodies are the ones cmd/fragperf times, so the two stay comparable.

import (
	"fmt"
	"runtime"
	"time"

	"repro/fragvisor"
	"repro/internal/balloon"
	"repro/internal/fleet"
	"repro/internal/netsim"
	"repro/internal/reliable"
	"repro/internal/sim"
	"repro/internal/topo"
)

// unitSamples is how many timed samples each unit cost takes; unitTarget
// is the host time one sample aims for.
const (
	unitSamples = 7
	unitTarget  = 20 * time.Millisecond
)

// unitCost is one layer call measured alone.
type unitCost struct {
	name  string // metric prefix, e.g. "dsm.fault"
	scale string // "ns" or "us": the unit of the time metric
	run   func(n int)
}

func unitCosts() []unitCost {
	return []unitCost{
		{"sim.event_dispatch", "ns", unitEventDispatch},
		{"sim.proc_wake", "ns", unitProcWake},
		{"dsm.fault", "ns", unitDSMFault},
		{"vcpu.migrate", "ns", unitVCPUMigrate},
		{"topo.route", "ns", unitTopoRoute},
		{"reliable.send", "ns", unitReliableSend},
		{"reliable.retry", "ns", unitReliableRetry},
		{"balloon.inflate", "ns", unitBalloonInflate},
		{"fleet.verify", "us", newVerifyUnit()},
	}
}

// measureUnit calibrates n so one sample lasts about unitTarget, then
// reports the median time per op and median allocations per op.
func measureUnit(u unitCost, log *spanLog, parent int) (perOp, allocsPerOp float64) {
	id := log.begin("unit:"+u.name, parent)
	defer log.end(id)
	u.run(1) // warm pools and page in code
	n := 1
	for {
		start := time.Now()
		u.run(n)
		if el := time.Since(start); el >= unitTarget/4 || n >= 1<<24 {
			if el > 0 {
				n = max(1, int(float64(n)*float64(unitTarget)/float64(el)))
			}
			break
		}
		n *= 4
	}
	var times, allocs []float64
	var before, after runtime.MemStats
	for i := 0; i < unitSamples; i++ {
		runtime.ReadMemStats(&before)
		start := time.Now()
		u.run(n)
		el := time.Since(start)
		runtime.ReadMemStats(&after)
		times = append(times, float64(el.Nanoseconds())/float64(n))
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/float64(n))
	}
	perOp = median(times)
	if u.scale == "us" {
		perOp /= 1e3
	}
	return perOp, median(allocs)
}

// unitEventDispatch: one self-rescheduling Env.Defer callback per op.
func unitEventDispatch(n int) {
	e := sim.NewEnv()
	remaining := n
	var tick func()
	tick = func() {
		if remaining > 0 {
			remaining--
			e.Defer(1, tick)
		}
	}
	e.Defer(1, tick)
	e.Run()
}

// unitProcWake: one Proc.Sleep park/dispatch round trip per op.
func unitProcWake(n int) {
	e := sim.NewEnv()
	e.Spawn("sleeper", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
	})
	e.Run()
}

// unitDSMFault: one remote-write DSM.Touch (page ping-pong between two
// nodes) per op.
func unitDSMFault(n int) {
	tb := fragvisor.NewTestbed(2)
	vm := tb.NewFragVisorVM(2, 4<<30)
	tb.Env.Spawn("pingpong", func(p *fragvisor.Proc) {
		for i := 0; i < n; i++ {
			vm.DSM.Touch(p, i%2, 12345, true)
		}
	})
	tb.Run()
}

// unitVCPUMigrate: one cross-node MigrateVCPU per op.
func unitVCPUMigrate(n int) {
	tb := fragvisor.NewTestbed(2)
	vm := tb.NewFragVisorVM(2, 4<<30)
	tb.Env.Spawn("migrate", func(p *fragvisor.Proc) {
		for i := 0; i < n; i++ {
			vm.MigrateVCPU(p, 1, 1-vm.VCPUNodes()[1], 0)
		}
	})
	tb.Run()
}

// unitTopoRoute: one cross-rack topo.Fabric.Send on a 2-rack tree with
// an oversubscribed spine per op.
func unitTopoRoute(n int) {
	env := sim.NewEnv()
	fab := topo.TreeSpec(2, 2, 4).Build(env, "bench", 56, 1500*sim.Nanosecond)
	env.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			fab.Send(0, 2, 4096, nil)
			p.Sleep(1)
		}
	})
	env.Run()
}

// unitReliableSend: one acknowledged reliable.Transport.Send on a clean
// fabric with a filter installed (so the full ack/sequence path runs)
// per op.
func unitReliableSend(n int) {
	env := sim.NewEnv()
	fab := netsim.New(env, "bench", 1500*sim.Nanosecond, 56)
	fab.SetFilter(passFilter{})
	tr := reliable.New(env, fab, reliable.DefaultParams())
	env.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := tr.Send(p, 0, 1, 4096); err != nil {
				panic(err)
			}
		}
	})
	env.Run()
}

// unitReliableRetry: one reliable.Transport.Send whose first data frame
// is dropped, so it pays a full RTO wait and a retransmission, per op.
func unitReliableRetry(n int) {
	env := sim.NewEnv()
	fab := netsim.New(env, "bench", 1500*sim.Nanosecond, 56)
	fab.SetFilter(&dropFirstFrame{})
	p := reliable.DefaultParams()
	p.RTOSlack = 10 * sim.Microsecond // keep virtual time bounded
	tr := reliable.New(env, fab, p)
	env.Spawn("sender", func(pr *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := tr.Send(pr, 0, 1, 4096); err != nil {
				panic(err)
			}
		}
	})
	env.Run()
}

// unitBalloonInflate: one single-batch balloon.Driver Inflate+Deflate
// round trip per op.
func unitBalloonInflate(n int) {
	tb := fragvisor.NewTestbed(2)
	vm := tb.NewFragVisorVM(2, 4<<30)
	d := balloon.NewDriver(tb.Env, vm.Kernel, balloon.DefaultCosts())
	tb.Env.Spawn("balloon", func(p *fragvisor.Proc) {
		for i := 0; i < n; i++ {
			took := d.Inflate(p, 0, 0, 256)
			d.Deflate(p, 0, 0, took)
		}
	})
	tb.Run()
}

// newVerifyUnit returns a unit timing fleet.VerifyReport on a live,
// backlogged soak state: a fixed soak world stepped to the middle of its
// first wave. The world is built once; VerifyReport only reads it.
func newVerifyUnit() func(n int) {
	var f *fleet.Fleet
	return func(n int) {
		if f == nil {
			var env *sim.Env
			env, f = buildSoak(42)
			env.RunUntil(soakWave / 2)
		}
		for i := 0; i < n; i++ {
			if vs := f.VerifyReport(); len(vs) != 0 {
				panic(fmt.Sprintf("fleet.verify unit: %v", vs[0]))
			}
		}
	}
}

// passFilter delivers everything but keeps the transport off its
// zero-fault fast path.
type passFilter struct{}

func (passFilter) Outcome(from, to, size int) netsim.Outcome { return netsim.Outcome{} }

// dropFirstFrame drops every other data frame (0→1): each message's
// first attempt is lost and its retransmission delivered. Acks pass.
type dropFirstFrame struct{ count int }

func (d *dropFirstFrame) Outcome(from, to, size int) netsim.Outcome {
	if from == 0 && to == 1 {
		d.count++
		return netsim.Outcome{Drop: d.count%2 == 1}
	}
	return netsim.Outcome{}
}
