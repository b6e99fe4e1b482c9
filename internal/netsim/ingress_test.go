package netsim_test

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestTreeIngressSerialization is the regression test for the
// receiver-side modeling gap: with only sender-egress NICs (the flat
// shape), N senders deliver to one receiver simultaneously; on the tree
// shape the receiver's downlink is a shared FIFO link, so the deliveries
// serialize.
func TestTreeIngressSerialization(t *testing.T) {
	env := sim.NewEnv()
	fab := topo.TreeSpec(1, 3, 1).Build(env, "fabric", 8, 0) // 1e9 B/s, 0 latency
	var a, b sim.Time
	fab.Send(0, 2, 1000, func() { a = env.Now() })
	fab.Send(1, 2, 1000, func() { b = env.Now() })
	env.Run()
	// Each message: 1 us on its own uplink, then node 2's downlink. The
	// second message reaches the downlink at t=1us but finds it busy
	// until 2us — ingress serialization the egress-only model misses.
	if a != 2*sim.Microsecond {
		t.Errorf("first delivery at %v, want 2us", a)
	}
	if b != 3*sim.Microsecond {
		t.Errorf("second delivery at %v, want 3us (serialized on the receiver downlink)", b)
	}
}

// TestFlatNoIngressSerialization pins the other side: the flat shape
// charges only the sender's egress link, so concurrent senders to one
// receiver still deliver simultaneously — every figure run on the
// default fabric depends on it.
func TestFlatNoIngressSerialization(t *testing.T) {
	env := sim.NewEnv()
	fab := netsim.New(env, "fabric", 0, 8) // 1e9 B/s, 0 latency
	var a, b sim.Time
	fab.Send(0, 2, 1000, func() { a = env.Now() })
	fab.Send(1, 2, 1000, func() { b = env.Now() })
	env.Run()
	if a != sim.Microsecond || b != sim.Microsecond {
		t.Errorf("deliveries at %v and %v, want both 1us", a, b)
	}
}
