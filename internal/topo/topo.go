// Package topo describes multi-tier datacenter topology shapes — node →
// NIC → top-of-rack switch → spine — and compiles them into tree fabrics
// (netsim.NewTree). A Spec is a pure shape: racks of nodes under
// top-of-rack switches joined by an optionally oversubscribed spine. Host
// links carry the fabric's nominal bandwidth; each ToR uplink carries
// NodesPerRack×host/Oversub, so a 4:1 oversubscribed spine makes
// cross-rack borrowing measurably more expensive than rack-local
// borrowing, which is what the locality-aware placement layers key on.
//
// Besides Build, a Spec is a distance oracle: Rack and Distance are pure
// functions of the shape, usable by placement layers without a live
// fabric. The absence of a spec (nil) means the single-switch flat fabric
// netsim.New builds.
package topo

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Spec describes a topology shape independent of link speeds: the same
// spec can be compiled against any host-link bandwidth/latency (taken
// from cluster.Params at Build time).
type Spec struct {
	// Racks and NodesPerRack shape the tree: node ids are assigned
	// rack-major, so node i lives in rack i/NodesPerRack.
	Racks        int
	NodesPerRack int
	// Oversub is the spine oversubscription ratio (>= 1): each ToR
	// uplink's bandwidth is NodesPerRack×hostGbps/Oversub. 1 is a
	// full-bisection tree; 4 is the classic 4:1 oversubscribed spine.
	Oversub float64
	// SpineLat is the one-way latency of each ToR↔spine hop; 0 means
	// "same as the host link latency".
	SpineLat sim.Time
}

// TreeSpec returns a two-tier tree of racks×nodesPerRack nodes under an
// oversub:1 oversubscribed spine.
func TreeSpec(racks, nodesPerRack int, oversub float64) *Spec {
	s := &Spec{Racks: racks, NodesPerRack: nodesPerRack, Oversub: oversub}
	s.validate()
	return s
}

func (s *Spec) validate() {
	if s.Racks <= 0 || s.NodesPerRack <= 0 {
		panic(fmt.Sprintf("topo: tree needs racks and nodes per rack, got %d×%d", s.Racks, s.NodesPerRack))
	}
	if s.Oversub < 1 {
		panic(fmt.Sprintf("topo: oversubscription %v must be >= 1", s.Oversub))
	}
}

// ParseSpec parses a CLI topology argument: "" (nil spec — the
// single-switch flat fabric) or "tree:RxN@O" for R racks of N nodes under
// an O:1 oversubscribed spine (e.g. "tree:2x4@4").
func ParseSpec(s string) (*Spec, error) {
	switch {
	case s == "":
		return nil, nil
	case strings.HasPrefix(s, "tree:"):
		body := strings.TrimPrefix(s, "tree:")
		shape, over, _ := strings.Cut(body, "@")
		rs, ns, ok := strings.Cut(shape, "x")
		if !ok {
			return nil, fmt.Errorf("topo: bad tree spec %q, want tree:RxN@O", s)
		}
		racks, err1 := strconv.Atoi(rs)
		nodes, err2 := strconv.Atoi(ns)
		oversub := 1.0
		var err3 error
		if over != "" {
			oversub, err3 = strconv.ParseFloat(over, 64)
		}
		if err1 != nil || err2 != nil || err3 != nil || racks <= 0 || nodes <= 0 || oversub < 1 {
			return nil, fmt.Errorf("topo: bad tree spec %q, want tree:RxN@O with R,N >= 1 and O >= 1", s)
		}
		return TreeSpec(racks, nodes, oversub), nil
	default:
		return nil, fmt.Errorf("topo: unknown topology %q (want empty for the single-switch fabric, or tree:RxN@O)", s)
	}
}

// String renders the spec in ParseSpec syntax.
func (s *Spec) String() string {
	if s == nil {
		return ""
	}
	return fmt.Sprintf("tree:%dx%d@%g", s.Racks, s.NodesPerRack, s.Oversub)
}

// Nodes returns the number of addressable nodes.
func (s *Spec) Nodes() int {
	return s.Racks * s.NodesPerRack
}

// Rack returns the rack hosting a node.
func (s *Spec) Rack(node int) int {
	if node < 0 || node >= s.Nodes() {
		panic(fmt.Sprintf("topo: node %d outside the %d×%d tree", node, s.Racks, s.NodesPerRack))
	}
	return node / s.NodesPerRack
}

// Distance is the topology-distance oracle placement layers consume: the
// number of links a message from a to b traverses. 0 for the same node,
// 2 within a rack (up + down), 4 across the spine (up, ToR uplink, ToR
// downlink, down). Pure — no fabric needed — and symmetric. Anything ≤ 2 shares a leaf switch,
// which is the "rack-local" threshold the fleet's gang accounting uses.
func (s *Spec) Distance(a, b int) int {
	if a == b {
		return 0
	}
	if s.Rack(a) == s.Rack(b) {
		return 2
	}
	return 4
}

// Build compiles the spec into a live tree fabric over the environment.
// Host (node↔switch) links carry hostGbps/hostLat — the same parameters
// netsim.New would take — so a cluster can compile its Params against any
// topology. A zero SpineLat takes the host-link latency.
func (s *Spec) Build(env *sim.Env, name string, hostGbps float64, hostLat sim.Time) *netsim.Net {
	s.validate()
	spineLat := s.SpineLat
	if spineLat == 0 {
		spineLat = hostLat
	}
	return netsim.NewTree(env, name, hostLat, hostGbps, s.Racks, s.NodesPerRack, s.Oversub, spineLat)
}
