package netsim

import (
	"testing"

	"repro/internal/sim"
)

func TestTxTime(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, "ib", 1500*sim.Nanosecond, 56) // 56 Gbps = 7e9 B/s
	got := n.TxTime(7000)
	want := sim.Microsecond // 7000 B / 7e9 B/s = 1 us
	if got != want {
		t.Fatalf("TxTime(7000) = %v, want %v", got, want)
	}
}

func TestSendDelivery(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, "ib", 1000*sim.Nanosecond, 8) // 1e9 B/s
	var delivered sim.Time
	n.Send(0, 1, 1000, func() { delivered = env.Now() })
	env.Run()
	// 1000 B / 1e9 B/s = 1 us serialization + 1 us latency.
	if want := 2 * sim.Microsecond; delivered != want {
		t.Fatalf("delivered at %v, want %v", delivered, want)
	}
}

func TestEgressSerialization(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, "ib", 0, 8) // 1e9 B/s, zero latency isolates the NIC
	var first, second sim.Time
	n.Send(0, 1, 1000, func() { first = env.Now() })
	n.Send(0, 2, 1000, func() { second = env.Now() })
	env.Run()
	if first != sim.Microsecond {
		t.Fatalf("first delivery at %v", first)
	}
	// Second message queues behind the first on node 0's NIC.
	if second != 2*sim.Microsecond {
		t.Fatalf("second delivery at %v, want 2us", second)
	}
}

func TestIndependentEgress(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, "ib", 0, 8)
	var a, b sim.Time
	n.Send(0, 2, 1000, func() { a = env.Now() })
	n.Send(1, 2, 1000, func() { b = env.Now() })
	env.Run()
	// Different senders do not serialize against each other.
	if a != sim.Microsecond || b != sim.Microsecond {
		t.Fatalf("deliveries at %v and %v, want both 1us", a, b)
	}
}

func TestSendAndWait(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, "eth", 100*sim.Microsecond, 1)
	var done sim.Time
	env.Spawn("sender", func(p *sim.Proc) {
		n.SendAndWait(p, 0, 1, 125000) // 125 kB at 125e6 B/s = 1 ms
		done = p.Now()
	})
	env.Run()
	if want := sim.Millisecond + 100*sim.Microsecond; done != want {
		t.Fatalf("SendAndWait returned at %v, want %v", done, want)
	}
}

// TestSendAndWaitDropResolves is the root-cause regression for the
// fault-path deadlock: a blocking send whose frame the fault filter
// drops must still wake at the would-be arrival time and report false —
// an Any→Any drop storm can cost time, never a wedged proc.
func TestSendAndWaitDropResolves(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, "eth", 100*sim.Microsecond, 1)
	n.SetFilter(&scriptFilter{outcomes: []Outcome{
		{Drop: true}, {Drop: true}, {Drop: true}, {},
	}})
	var results []bool
	var times []sim.Time
	env.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			results = append(results, n.SendAndWait(p, 0, 1, 125000))
			times = append(times, p.Now())
		}
	})
	env.Run()
	if live := env.LiveProcs(); len(live) != 0 {
		t.Fatalf("drop storm wedged the sender: %v", live)
	}
	want := []bool{false, false, false, true}
	for i, r := range results {
		if r != want[i] {
			t.Fatalf("send %d delivered=%v, want %v", i, r, want[i])
		}
	}
	// Each send (dropped or not) costs serialization + latency: the
	// sender wakes at the would-be arrival time, 1.1 ms per message.
	for i, at := range times {
		if want := sim.Time(i+1) * (sim.Millisecond + 100*sim.Microsecond); at != want {
			t.Fatalf("send %d resolved at %v, want %v", i, at, want)
		}
	}
}

// TestEndpointSentPureRead: probing an endpoint that never sent must
// report zeros without manufacturing a NIC record — a monitoring read
// that grows Endpoints() corrupts per-node traffic reports.
func TestEndpointSentPureRead(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, "ib", 0, 56)
	n.Send(0, 1, 100, nil)
	env.Run()
	if msgs, bytes := n.EndpointSent(42); msgs != 0 || bytes != 0 {
		t.Fatalf("phantom endpoint reported %d msgs %d bytes", msgs, bytes)
	}
	if eps := n.Endpoints(); len(eps) != 1 || eps[0] != 0 {
		t.Fatalf("probing EndpointSent(42) grew Endpoints() to %v", eps)
	}
}

// TestPathTimeFlat: on the flat fabric, path time is one serialization
// plus the fabric latency, and matches an uncontended delivery exactly.
func TestPathTimeFlat(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, "ib", 1500*sim.Nanosecond, 56)
	if got, want := n.PathTime(0, 1, 7000), n.TxTime(7000)+n.Latency(); got != want {
		t.Fatalf("PathTime = %v, want %v", got, want)
	}
	var arrived sim.Time
	n.Send(0, 1, 7000, func() { arrived = env.Now() })
	env.Run()
	if arrived != n.PathTime(0, 1, 7000) {
		t.Fatalf("uncontended delivery at %v, PathTime says %v", arrived, n.PathTime(0, 1, 7000))
	}
}

func TestStats(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, "ib", 0, 56)
	n.Send(0, 1, 100, nil)
	n.Send(0, 1, 200, nil)
	n.Send(1, 0, 50, nil)
	env.Run()
	s := n.Stats()
	if s.Messages != 3 || s.Bytes != 350 {
		t.Fatalf("stats = %+v", s)
	}
	msgs, bytes := n.EndpointSent(0)
	if msgs != 2 || bytes != 300 {
		t.Fatalf("endpoint 0 sent %d msgs %d bytes", msgs, bytes)
	}
}

// scriptFilter rules per message index: a table of outcomes applied in
// offer order.
type scriptFilter struct {
	outcomes []Outcome
	next     int
}

func (f *scriptFilter) Outcome(from, to, size int) Outcome {
	if f.next >= len(f.outcomes) {
		return Outcome{}
	}
	o := f.outcomes[f.next]
	f.next++
	return o
}

// TestFilterAccounting pins down the Stats contract under fault
// filtering: every offered message is counted in Messages and Bytes
// (the sender's NIC was charged whether or not the fabric lost the
// frame), Dropped/Delayed count the filter's verdicts, and only
// non-dropped messages deliver.
func TestFilterAccounting(t *testing.T) {
	cases := []struct {
		name     string
		outcomes []Outcome
		want     Stats
		delivers int
	}{
		{"all-deliver", []Outcome{{}, {}, {}},
			Stats{Messages: 3, Bytes: 600}, 3},
		{"all-dropped", []Outcome{{Drop: true}, {Drop: true}, {Drop: true}},
			Stats{Messages: 3, Bytes: 600, Dropped: 3}, 0},
		{"all-delayed", []Outcome{{Delay: sim.Microsecond}, {Delay: sim.Microsecond}, {Delay: sim.Microsecond}},
			Stats{Messages: 3, Bytes: 600, Delayed: 3}, 3},
		{"mixed", []Outcome{{Drop: true}, {Delay: sim.Microsecond}, {}},
			Stats{Messages: 3, Bytes: 600, Dropped: 1, Delayed: 1}, 2},
		{"drop-and-delay-verdicts-drop-wins", []Outcome{{Drop: true, Delay: sim.Microsecond}},
			Stats{Messages: 1, Bytes: 200, Dropped: 1}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv()
			n := New(env, "ib", 0, 56)
			n.SetFilter(&scriptFilter{outcomes: tc.outcomes})
			delivered := 0
			for i := 0; i < len(tc.outcomes); i++ {
				n.Send(0, 1, 200, func() { delivered++ })
			}
			env.Run()
			if got := n.Stats(); got != tc.want {
				t.Errorf("stats = %+v, want %+v", got, tc.want)
			}
			if delivered != tc.delivers {
				t.Errorf("delivered %d messages, want %d", delivered, tc.delivers)
			}
			// Endpoint accounting matches fabric-wide accounting: the
			// sender is charged for dropped frames too.
			msgs, bytes := n.EndpointSent(0)
			if msgs != tc.want.Messages || bytes != tc.want.Bytes {
				t.Errorf("endpoint sent %d/%d, want %d/%d", msgs, bytes, tc.want.Messages, tc.want.Bytes)
			}
		})
	}
}

// TestFilterDelayedArrival checks the delay verdict shifts only the
// arrival, not the NIC occupancy: a delayed message still frees the
// sender's NIC at the undelayed time.
func TestFilterDelayedArrival(t *testing.T) {
	env := sim.NewEnv()
	n := New(env, "ib", 0, 8) // 1e9 B/s: 1000 B = 1 us serialization
	n.SetFilter(&scriptFilter{outcomes: []Outcome{{Delay: 5 * sim.Microsecond}}})
	var first, second sim.Time
	n.Send(0, 1, 1000, func() { first = env.Now() })
	n.Send(0, 1, 1000, func() { second = env.Now() })
	env.Run()
	if first != 6*sim.Microsecond {
		t.Errorf("delayed delivery at %v, want 6us", first)
	}
	if second != 2*sim.Microsecond {
		t.Errorf("second delivery at %v, want 2us (NIC freed at the undelayed time)", second)
	}
}

func TestInvalidParams(t *testing.T) {
	env := sim.NewEnv()
	for _, fn := range []func(){
		func() { New(env, "x", 0, 0) },
		func() { New(env, "x", -1, 1) },
		func() { New(env, "x", 0, 1).TxTime(-1) },
		func() { NewTree(env, "t", 0, 56, 0, 2, 1, 0) },
		func() { NewTree(env, "t", 0, 56, 2, 0, 1, 0) },
		func() { NewTree(env, "t", 0, 56, 2, 2, 0.5, 0) },
		func() { NewTree(env, "t", 0, 56, 2, 2, 1, -1) },
		func() { NewTree(env, "t", 0, 0, 2, 2, 1, 0) },
		func() { NewTree(env, "t", -1, 56, 2, 2, 1, 0) },
		func() { NewTree(env, "t", 0, 56, 2, 2, 1, 0).Send(0, 4, 1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
