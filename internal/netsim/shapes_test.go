package netsim_test

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topo"
)

// shapes builds one fabric of each route shape with the cluster's
// default host-link parameters.
func shapes() map[string]*netsim.Net {
	return map[string]*netsim.Net{
		"flat": netsim.New(sim.NewEnv(), "fabric", 1500*sim.Nanosecond, 56),
		"tree": topo.TreeSpec(2, 2, 4).Build(sim.NewEnv(), "fabric", 56, 1500*sim.Nanosecond),
	}
}

// TestSendAllocsZero: once the sender's endpoint exists, a send with no
// delivery callback allocates nothing on either shape — the route goes
// into a fixed on-stack buffer, not a fresh slice per message.
func TestSendAllocsZero(t *testing.T) {
	for name, fab := range shapes() {
		fab.Send(0, 2, 4096, nil) // creates endpoint 0 (and its flat egress link)
		if a := testing.AllocsPerRun(100, func() { fab.Send(0, 2, 4096, nil) }); a != 0 {
			t.Errorf("%s: Send allocates %v per call, want 0", name, a)
		}
		if a := testing.AllocsPerRun(100, func() { fab.PathTime(0, 2, 4096) }); a != 0 {
			t.Errorf("%s: PathTime allocates %v per call, want 0", name, a)
		}
	}
}

// TestNegativeSizeRejected: a negative message size panics on every entry
// point of both shapes and leaves the fabric's accounting untouched —
// a negative serialization time would move links back in time and
// shrink the byte counters.
func TestNegativeSizeRejected(t *testing.T) {
	for name, fab := range shapes() {
		for op, fn := range map[string]func(){
			"Send":     func() { fab.Send(0, 2, -1, nil) },
			"SendCtx":  func() { fab.SendCtx(0, 0, 2, -1, nil) },
			"PathTime": func() { fab.PathTime(0, 2, -1) },
			"TxTime":   func() { fab.TxTime(-1) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: %s with size -1 did not panic", name, op)
					}
				}()
				fn()
			}()
		}
		if s := fab.Stats(); s != (netsim.Stats{}) {
			t.Errorf("%s: rejected sends were counted: %+v", name, s)
		}
		if eps := fab.Endpoints(); len(eps) != 0 {
			t.Errorf("%s: rejected sends created endpoints %v", name, eps)
		}
		for _, l := range fab.LinkStats() {
			if l.Msgs != 0 || l.Bytes != 0 || l.Busy != 0 {
				t.Errorf("%s: rejected sends charged link %+v", name, l)
			}
		}
	}
}
