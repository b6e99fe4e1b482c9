package fault

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/topo"
)

func treeCluster(env *sim.Env, nodes int) *cluster.Cluster {
	p := cluster.DefaultParams()
	p.Topo = topo.TreeSpec(2, 2, 4)
	return cluster.New(env, nodes, p)
}

// TestLinkDomainExpansion: undirected fault-domain names expand to the
// directed links they cover; directed names pass through; unknown
// domains expand to nothing so one schedule runs across topologies.
func TestLinkDomainExpansion(t *testing.T) {
	ln := newLinkNames(topo.TreeSpec(2, 2, 4), 4)
	cases := []struct {
		name string
		want []string
	}{
		{"n2", []string{"n2-up", "n2-down"}},
		{"n2-up", []string{"n2-up"}},
		{"tor1", []string{"tor1-up", "tor1-down"}},
		{"spine", []string{"tor0-up", "tor0-down", "tor1-up", "tor1-down"}},
		{"n9", nil},   // out of range
		{"tor7", nil}, // out of range
		{"bogus", nil},
	}
	for _, tc := range cases {
		if got := ln.expand(tc.name); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("expand(%q) = %v, want %v", tc.name, got, tc.want)
		}
	}
	// Flat fabrics have no ToRs: rack-level domains are no-ops there,
	// host-level domains still resolve.
	flat := newLinkNames(nil, 4)
	if got := flat.expand("tor0"); got != nil {
		t.Errorf("flat expand(tor0) = %v, want nil", got)
	}
	if got := flat.expand("n1"); !reflect.DeepEqual(got, []string{"n1-up", "n1-down"}) {
		t.Errorf("flat expand(n1) = %v", got)
	}
}

// TestLinkRoutes: the per-message route lists exactly the directed fault
// domains a message crosses — host links within a rack, plus both ToR
// links across the spine; external endpoints contribute no links.
func TestLinkRoutes(t *testing.T) {
	ln := newLinkNames(topo.TreeSpec(2, 2, 4), 4)
	var buf [4]string
	cases := []struct {
		from, to int
		want     []string
	}{
		{0, 1, []string{"n0-up", "n1-down"}},
		{0, 2, []string{"n0-up", "tor0-up", "tor1-down", "n2-down"}},
		{3, 0, []string{"n3-up", "tor1-up", "tor0-down", "n0-down"}},
		{2, 2, nil},
		{-7, 1, []string{"n1-down"}}, // external sender: receiver's host link only
	}
	for _, tc := range cases {
		got := ln.route(tc.from, tc.to, buf[:0])
		if len(got) == 0 && len(tc.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(append([]string(nil), got...), tc.want) {
			t.Errorf("route(%d,%d) = %v, want %v", tc.from, tc.to, got, tc.want)
		}
	}
}

// TestCutLinkVerdictPerRoute: a ToR cut drops exactly the traffic whose
// route crosses that ToR — cross-rack flows in both directions — while
// rack-local traffic on both sides keeps flowing. Heal restores it.
func TestCutLinkVerdictPerRoute(t *testing.T) {
	env := sim.NewEnv()
	inj := New(treeCluster(env, 4))
	var s Schedule
	s.Add(Event{At: sim.Millisecond, Kind: CutLink, Link: "tor1"})
	s.Add(Event{At: 2 * sim.Millisecond, Kind: HealLink, Link: "tor1"})
	inj.Apply(s)

	env.Spawn("probe", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond + 500*sim.Microsecond) // inside the cut window
		if !inj.LinkCut("tor1-up") || !inj.LinkCut("tor1-down") {
			t.Error("tor1 cut did not mark both directions")
		}
		if !inj.Outcome(0, 2, 64).Drop || !inj.Outcome(2, 0, 64).Drop {
			t.Error("cross-rack traffic survived the ToR cut")
		}
		if inj.Outcome(0, 1, 64).Drop || inj.Outcome(2, 3, 64).Drop {
			t.Error("rack-local traffic dropped by a ToR cut it never crosses")
		}
		if inj.Reachable(0, 2) || !inj.Reachable(0, 1) || !inj.Reachable(2, 3) {
			t.Error("Reachable does not match the route verdicts")
		}
		// Liveness and reachability are distinct: the cut nodes never
		// crashed.
		if !inj.NodeAlive(2) {
			t.Error("link-cut node reported crashed")
		}
	})
	env.Run()
	if inj.Outcome(0, 2, 64).Drop || !inj.Reachable(0, 2) {
		t.Error("healed ToR still cutting traffic")
	}
}

// TestDegradeLinkDelaysRoute: link degradation adds its delay to every
// message whose route crosses the link, sums across degraded links, and
// clears on heal.
func TestDegradeLinkDelaysRoute(t *testing.T) {
	env := sim.NewEnv()
	inj := New(treeCluster(env, 4))
	var s Schedule
	s.Add(Event{At: sim.Microsecond, Kind: DegradeLink, Link: "tor0", Delay: 40 * sim.Microsecond})
	s.Add(Event{At: sim.Microsecond, Kind: DegradeLink, Link: "n2-down", Delay: 5 * sim.Microsecond})
	inj.Apply(s)
	env.Run()

	// 0→2 crosses tor0-up (+40µs) and n2-down (+5µs).
	if o := inj.Outcome(0, 2, 64); o.Drop || o.Delay != 45*sim.Microsecond {
		t.Errorf("0→2 outcome %+v, want 45µs delay", o)
	}
	// 2→0 crosses tor0-down (+40µs) only.
	if o := inj.Outcome(2, 0, 64); o.Delay != 40*sim.Microsecond {
		t.Errorf("2→0 outcome %+v, want 40µs delay", o)
	}
	// Rack-local 0→1 crosses neither.
	if o := inj.Outcome(0, 1, 64); o.Delay != 0 {
		t.Errorf("0→1 outcome %+v, want clean", o)
	}
	// Degraded-but-not-cut links stay reachable: delay is not death.
	if !inj.Reachable(0, 2) {
		t.Error("degraded route reported unreachable")
	}
}

// TestNodeUpQuorumView: NodeUp is the control plane's failure-detector
// verdict — a node is down when a majority of live peers cannot reach
// it, whether the cause is a crash, a host-link cut, or partitions.
func TestNodeUpQuorumView(t *testing.T) {
	env := sim.NewEnv()
	inj := New(treeCluster(env, 4))
	var s Schedule
	s.Add(Event{At: sim.Millisecond, Kind: CutLink, Link: "n1"})
	inj.Apply(s)
	env.Run()

	if inj.NodeUp(1, 4) {
		t.Error("node with both host links cut still reported up")
	}
	if inj.NodeAlive(1) == false {
		t.Error("link-cut node must stay alive (it never crashed)")
	}
	for _, n := range []int{0, 2, 3} {
		if !inj.NodeUp(n, 4) {
			t.Errorf("node %d lost quorum from a single peer's link cut", n)
		}
	}
	if Up(nil, 1, 4) != true {
		t.Error("nil-injector Up must report every node up")
	}
	if Up(inj, 1, 4) {
		t.Error("Up(inj, 1, 4) true under host-link cut")
	}
}

// TestNodeUpHalfSplitTieBreak: an exact half split of the live nodes is
// broken toward the side holding the lowest-numbered live node, so a
// 2–2 cut of the 4-node tree keeps the controller's side up instead of
// leaving no node with quorum. After a crash the tie goes to the lowest
// *live* node, which is not node 0 when node 0 is the one that crashed.
func TestNodeUpHalfSplitTieBreak(t *testing.T) {
	cases := []struct {
		name  string
		nodes int
		crash int // -1 = none
		cuts  []string
		want  []int
	}{
		{"tor1 cut", 4, -1, []string{"tor1"}, []int{0, 1}},
		{"two host-link cuts", 4, -1, []string{"n1", "n3"}, []int{0, 2}},
		{"node 2 crashed, n1 cut", 3, 2, []string{"n1"}, []int{0}},
		{"node 0 crashed, n2 cut", 3, 0, []string{"n2"}, []int{1}},
	}
	for _, tc := range cases {
		env := sim.NewEnv()
		inj := New(treeCluster(env, tc.nodes))
		var s Schedule
		if tc.crash >= 0 {
			s.Add(Event{At: sim.Millisecond, Kind: CrashNode, Node: tc.crash})
		}
		for _, l := range tc.cuts {
			s.Add(Event{At: sim.Millisecond, Kind: CutLink, Link: l})
		}
		inj.Apply(s)
		env.Run()
		var up []int
		for n := 0; n < tc.nodes; n++ {
			if inj.NodeUp(n, tc.nodes) {
				up = append(up, n)
			}
		}
		if !reflect.DeepEqual(up, tc.want) {
			t.Errorf("%s: up = %v, want %v", tc.name, up, tc.want)
		}
	}
}

// TestScheduleStringLinkEvents: link events render in the stable,
// golden-comparable schedule format.
func TestScheduleStringLinkEvents(t *testing.T) {
	var s Schedule
	s.Add(Event{At: 2 * sim.Millisecond, Kind: HealLink, Link: "tor1"})
	s.Add(Event{At: sim.Millisecond, Kind: CutLink, Link: "tor1"})
	s.Add(Event{At: 3 * sim.Millisecond, Kind: DegradeLink, Link: "n0-up", Delay: 10 * sim.Microsecond})
	want := "1.000ms cut-link link=tor1\n2.000ms heal-link link=tor1\n3.000ms degrade-link link=n0-up delay=10.00us\n"
	if got := s.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
