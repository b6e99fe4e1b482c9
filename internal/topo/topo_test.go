package topo

import (
	"testing"
	"testing/quick"

	"repro/internal/netsim"
	"repro/internal/sim"
)

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in   string
		want string
		err  bool
	}{
		{"", "", false},
		{"flat", "", true}, // the single-switch fabric is the empty spec
		{"tree:2x4@4", "tree:2x4@4", false},
		{"tree:3x2", "tree:3x2@1", false},
		{"tree:2x4@1.5", "tree:2x4@1.5", false},
		{"tree:0x4@4", "", true},
		{"tree:2x4@0.5", "", true},
		{"tree:24@4", "", true},
		{"ring:4", "", true},
	}
	for _, tc := range cases {
		spec, err := ParseSpec(tc.in)
		if tc.err {
			if err == nil {
				t.Errorf("ParseSpec(%q): expected error", tc.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.in, err)
			continue
		}
		if got := spec.String(); got != tc.want {
			t.Errorf("ParseSpec(%q).String() = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestDistance pins the tree oracle. The single-switch fabric has no
// spec and placement layers run it with no distance oracle at all;
// sched.TestTopoNilDistEquivalence covers that case.
func TestDistance(t *testing.T) {
	tree := TreeSpec(2, 4, 4) // nodes 0-3 rack 0, 4-7 rack 1
	for _, tc := range []struct{ a, b, want int }{
		{0, 0, 0}, {0, 3, 2}, {4, 7, 2}, {0, 4, 4}, {3, 7, 4},
	} {
		if d := tree.Distance(tc.a, tc.b); d != tc.want {
			t.Errorf("tree Distance(%d,%d) = %d, want %d", tc.a, tc.b, d, tc.want)
		}
	}
}

// TestPathLatencyQuick is the testing/quick property of the tentpole's
// oracle: over random tree shapes and node pairs, path latency is
// symmetric and additive — it equals the host-link latency times the
// number of host hops plus the spine latency times the number of spine
// hops, which also makes it strictly monotonic in Distance.
func TestPathLatencyQuick(t *testing.T) {
	prop := func(racks, npr, a, b uint8, over uint8, spineNs uint16) bool {
		r := int(racks)%4 + 1
		n := int(npr)%4 + 1
		spec := TreeSpec(r, n, float64(int(over)%8+1))
		spec.SpineLat = sim.Time(spineNs) * sim.Nanosecond
		hostLat := 1500 * sim.Nanosecond
		spineLat := spec.SpineLat
		if spineLat == 0 {
			spineLat = hostLat
		}
		env := sim.NewEnv()
		f := spec.Build(env, "t", 56, hostLat)
		total := spec.Nodes()
		x, y := int(a)%total, int(b)%total
		lxy, lyx := f.PathLatency(x, y), f.PathLatency(y, x)
		if lxy != lyx {
			return false // symmetry
		}
		var want sim.Time
		switch spec.Distance(x, y) {
		case 0, 2:
			// Same-node tree messages still hairpin at the ToR (see
			// netsim.Net.route), so distance 0 prices like distance 2 here.
			want = 2 * hostLat
		case 4:
			want = 2*hostLat + 2*spineLat
		}
		return lxy == want // additivity over the route's links
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPathGbpsOversubscription(t *testing.T) {
	env := sim.NewEnv()
	f := TreeSpec(2, 2, 4).Build(env, "t", 56, 1500*sim.Nanosecond)
	if g := f.PathGbps(0, 1); g != 56 {
		t.Errorf("rack-local path bandwidth = %v Gbps, want 56", g)
	}
	// ToR uplink: 2 nodes x 56 Gbps / 4 oversubscription = 28 Gbps.
	if g := f.PathGbps(0, 2); g != 28 {
		t.Errorf("cross-spine path bandwidth = %v Gbps, want 28", g)
	}
}

// TestSharedUplinkContention checks two same-rack senders serialize on
// their rack's single spine uplink even though their host links are
// independent.
func TestSharedUplinkContention(t *testing.T) {
	env := sim.NewEnv()
	// Oversub 2 with 2 nodes/rack: uplink = 2*8/2 = 8 Gbps = 1e9 B/s,
	// same as the hosts; 0 latency isolates serialization.
	f := TreeSpec(2, 2, 2).Build(env, "t", 8, 0)
	var a, b sim.Time
	f.Send(0, 2, 1000, func() { a = env.Now() })
	f.Send(1, 2, 1000, func() { b = env.Now() })
	env.Run()
	// Message A: up0 1us, torUp 1-2us, torDown 2-3us, down2 3-4us.
	if a != 4*sim.Microsecond {
		t.Errorf("first delivery at %v, want 4us", a)
	}
	// Message B clears its own host uplink at 1us but finds the shared
	// ToR uplink busy until 2us, then trails A hop by hop: torUp 2-3us,
	// torDown 3-4us, down2 4-5us.
	if b != 5*sim.Microsecond {
		t.Errorf("second delivery at %v, want 5us (queued on the shared ToR uplink)", b)
	}
}

func TestLinkStats(t *testing.T) {
	env := sim.NewEnv()
	f := TreeSpec(2, 2, 4).Build(env, "t", 56, 1500*sim.Nanosecond)
	f.Send(0, 2, 4096, func() {})
	env.Run()
	byName := map[string]netsim.LinkStat{}
	for _, l := range f.LinkStats() {
		byName[l.Name] = l
	}
	for _, name := range []string{"n0-tor0", "tor0-spine", "spine-tor1", "tor1-n2"} {
		l, ok := byName[name]
		if !ok || l.Msgs != 1 || l.Bytes != 4096 || l.Busy <= 0 {
			t.Errorf("link %s: %+v (ok=%v), want 1 msg / 4096 B / busy > 0", name, l, ok)
		}
	}
	if l := byName["n1-tor0"]; l.Msgs != 0 {
		t.Errorf("uninvolved link carried traffic: %+v", l)
	}
	if u := byName["tor0-spine"].Utilization(env.Now()); u <= 0 || u > 1 {
		t.Errorf("uplink utilization = %v, want in (0, 1]", u)
	}
}

// TestPathTimeStoreAndForward: a tree path's uncontended delivery time
// is the sum of per-link serialization and latency over every hop —
// store-and-forward, not end-to-end — and PathTime must equal what an
// uncontended Send actually observes, since the reliable transport's
// RTO floor is built on it.
func TestPathTimeStoreAndForward(t *testing.T) {
	env := sim.NewEnv()
	f := TreeSpec(2, 2, 4).Build(env, "t", 56, 1500*sim.Nanosecond)
	const size = 1 << 20
	for _, tc := range []struct{ from, to int }{{0, 1}, {0, 2}, {3, 0}} {
		var arrived sim.Time
		env2 := sim.NewEnv()
		f2 := TreeSpec(2, 2, 4).Build(env2, "t", 56, 1500*sim.Nanosecond)
		f2.Send(tc.from, tc.to, size, func() { arrived = env2.Now() })
		env2.Run()
		if pt := f.PathTime(tc.from, tc.to, size); arrived != pt {
			t.Errorf("(%d→%d) uncontended delivery at %v, PathTime says %v", tc.from, tc.to, arrived, pt)
		}
	}
	// Cross-rack must cost strictly more than rack-local for the same
	// size: two extra hops, one at the oversubscribed uplink rate.
	if local, cross := f.PathTime(0, 1, size), f.PathTime(0, 2, size); cross <= local {
		t.Errorf("cross-rack PathTime %v not above rack-local %v", cross, local)
	}
}

// TestSendAndWaitDropResolvesTree: same deadlock regression as the flat
// fabric — a dropped frame on a tree route must wake the blocked sender
// at the would-be arrival time with delivered=false.
func TestSendAndWaitDropResolvesTree(t *testing.T) {
	env := sim.NewEnv()
	f := TreeSpec(2, 2, 4).Build(env, "t", 56, 1500*sim.Nanosecond)
	f.SetFilter(dropAll{})
	var delivered bool
	var at sim.Time
	env.Spawn("sender", func(p *sim.Proc) {
		delivered = f.SendAndWait(p, 0, 2, 4096)
		at = p.Now()
	})
	env.Run()
	if live := env.LiveProcs(); len(live) != 0 {
		t.Fatalf("dropped send wedged the sender: %v", live)
	}
	if delivered {
		t.Fatal("dropped send reported delivered")
	}
	if want := f.PathTime(0, 2, 4096); at != want {
		t.Fatalf("sender woke at %v, want would-be arrival %v", at, want)
	}
}

type dropAll struct{}

func (dropAll) Outcome(from, to, size int) netsim.Outcome { return netsim.Outcome{Drop: true} }

// TestEndpointSentPureReadTree mirrors the flat fabric's contract:
// probing a silent endpoint reports zeros and cannot grow Endpoints().
func TestEndpointSentPureReadTree(t *testing.T) {
	env := sim.NewEnv()
	f := TreeSpec(2, 2, 4).Build(env, "t", 56, 1500*sim.Nanosecond)
	f.Send(0, 1, 100, nil)
	env.Run()
	if msgs, bytes := f.EndpointSent(3); msgs != 0 || bytes != 0 {
		t.Fatalf("phantom endpoint reported %d msgs %d bytes", msgs, bytes)
	}
	if eps := f.Endpoints(); len(eps) != 1 || eps[0] != 0 {
		t.Fatalf("probing EndpointSent(3) grew Endpoints() to %v", eps)
	}
}

func TestSpecValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { TreeSpec(0, 2, 1) },
		func() { TreeSpec(2, 0, 1) },
		func() { TreeSpec(2, 2, 0.5) },
		func() { TreeSpec(2, 2, 1).Build(sim.NewEnv(), "t", 0, 0) },
		func() { TreeSpec(2, 2, 1).Build(sim.NewEnv(), "t", 1, -1) },
		func() { (&Spec{Racks: 2, NodesPerRack: 2}).Build(sim.NewEnv(), "t", 1, 0) },
		func() { TreeSpec(2, 2, 1).Rack(4) },
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

// TestSameSeedDeterminism: two identical runs produce identical link
// stats and delivery schedules.
func TestSameSeedDeterminism(t *testing.T) {
	run := func() ([]netsim.LinkStat, []sim.Time) {
		env := sim.NewEnv()
		f := TreeSpec(2, 2, 4).Build(env, "t", 56, 1500*sim.Nanosecond)
		var arrivals []sim.Time
		for i := 0; i < 64; i++ {
			from, to := i%4, (i*7+1)%4
			f.Send(from, to, 512*(i%5+1), func() { arrivals = append(arrivals, env.Now()) })
		}
		env.Run()
		return f.LinkStats(), arrivals
	}
	ls1, ar1 := run()
	ls2, ar2 := run()
	if len(ls1) != len(ls2) || len(ar1) != len(ar2) {
		t.Fatal("run shapes differ")
	}
	for i := range ls1 {
		if ls1[i] != ls2[i] {
			t.Fatalf("link %d differs: %+v vs %+v", i, ls1[i], ls2[i])
		}
	}
	for i := range ar1 {
		if ar1[i] != ar2[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, ar1[i], ar2[i])
		}
	}
}
