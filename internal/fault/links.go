// Link-level fault domains: CutLink/HealLink/DegradeLink events target
// named links of the cluster topology, and the injector evaluates its
// verdict per route — every link a message crosses — rather than per
// endpoint pair. A ToR uplink cut silences a whole rack with one event,
// which endpoint-pair partitions cannot express.
//
// The injector keeps its own canonical directed link names ("nX-up",
// "torR-down", ...) derived from the cluster's topo.Spec instead of the
// fabric's internal graph: the fault model must also work on the flat
// fabric, whose only links are per-sender egress NICs. On the flat
// fabric a message's fault route is simply sender-up + receiver-down, so
// host-level domains behave identically on both route shapes.
package fault

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/topo"
)

// linkNames precomputes the canonical directed names for a cluster shape
// so per-message route evaluation never formats strings.
type linkNames struct {
	spec    *topo.Spec // nil = flat fabric
	nodes   int        // addressable cluster nodes (external hosts excluded)
	up      []string   // nX-up
	down    []string   // nX-down
	torUp   []string   // torR-up
	torDown []string   // torR-down
}

func newLinkNames(spec *topo.Spec, nodes int) *linkNames {
	ln := &linkNames{spec: spec, nodes: nodes}
	for n := 0; n < nodes; n++ {
		ln.up = append(ln.up, fmt.Sprintf("n%d-up", n))
		ln.down = append(ln.down, fmt.Sprintf("n%d-down", n))
	}
	if spec != nil {
		for r := 0; r < spec.Racks; r++ {
			ln.torUp = append(ln.torUp, fmt.Sprintf("tor%d-up", r))
			ln.torDown = append(ln.torDown, fmt.Sprintf("tor%d-down", r))
		}
	}
	return ln
}

func (ln *linkNames) inRange(id int) bool { return id >= 0 && id < ln.nodes }

// route appends the directed fault-domain links a (from, to) message
// crosses, in traversal order. External endpoints (the client host) and
// same-node messages contribute no links. buf lets callers reuse a
// stack-allocated array: the longest route is 4 links.
func (ln *linkNames) route(from, to int, buf []string) []string {
	if from == to {
		return buf
	}
	tree := ln.spec != nil
	if ln.inRange(from) {
		buf = append(buf, ln.up[from])
		if tree && ln.inRange(to) && ln.spec.Rack(from) != ln.spec.Rack(to) {
			buf = append(buf, ln.torUp[ln.spec.Rack(from)])
		}
	}
	if ln.inRange(to) {
		if tree && ln.inRange(from) && ln.spec.Rack(from) != ln.spec.Rack(to) {
			buf = append(buf, ln.torDown[ln.spec.Rack(to)])
		}
		buf = append(buf, ln.down[to])
	}
	return buf
}

// expand resolves a fault-domain name to directed link names: directed
// names pass through, undirected domains ("nX", "torR", "spine") expand
// to every direction they cover. Unknown domains expand to nothing — a
// ToR cut scheduled against a flat fabric is a no-op, not a panic, so
// one schedule can run across topologies.
func (ln *linkNames) expand(name string) []string {
	if strings.HasSuffix(name, "-up") || strings.HasSuffix(name, "-down") {
		return []string{name}
	}
	if name == "spine" {
		out := make([]string, 0, 2*len(ln.torUp))
		for r := range ln.torUp {
			out = append(out, ln.torUp[r], ln.torDown[r])
		}
		return out
	}
	if strings.HasPrefix(name, "tor") {
		var r int
		if _, err := fmt.Sscanf(name, "tor%d", &r); err == nil && r >= 0 && r < len(ln.torUp) {
			return []string{ln.torUp[r], ln.torDown[r]}
		}
		return nil
	}
	if strings.HasPrefix(name, "n") {
		var n int
		if _, err := fmt.Sscanf(name, "n%d", &n); err == nil && ln.inRange(n) {
			return []string{ln.up[n], ln.down[n]}
		}
		return nil
	}
	return nil
}

// linkVerdict walks the (from, to) route against the cut and degraded
// link sets: any cut link drops the message; degraded links sum their
// extra delays. The len guard keeps the common no-link-fault case free
// of route computation.
func (i *Injector) linkVerdict(from, to int) (cut bool, delay sim.Time) {
	if len(i.cutLinks) == 0 && len(i.degLinks) == 0 {
		return false, 0
	}
	var buf [4]string
	for _, l := range i.links.route(from, to, buf[:0]) {
		if i.cutLinks[l] {
			return true, 0
		}
		delay += i.degLinks[l]
	}
	return false, delay
}

// LinkCut reports whether the named directed link is currently cut.
func (i *Injector) LinkCut(name string) bool { return i.cutLinks[name] }

// Reachable reports whether a and b can currently exchange messages:
// both ends alive, the pair not partitioned, and no cut link on the
// route in either direction. It is the per-route generalization of
// Partitioned and the primitive quorum views build on.
func (i *Injector) Reachable(a, b int) bool {
	if i.crashed[a] || i.crashed[b] {
		return false
	}
	if a == b {
		return true
	}
	if i.parted[linkKey(a, b)] {
		return false
	}
	if cut, _ := i.linkVerdict(a, b); cut {
		return false
	}
	cut, _ := i.linkVerdict(b, a)
	return !cut
}

// NodeUp is the control plane's failure-detector view of a node: alive,
// and in the majority side of any partition. The node's reachable set —
// itself plus every live peer in [0, nodes) it can exchange messages
// with — must be a strict majority of the live nodes, the node's own
// vote included (a two-of-three cluster that loses one node to a link
// cut keeps quorum; the isolated node, alone, does not). On an exact
// half split the side holding the lowest-numbered live node keeps
// quorum: every node computes the same answer, so there is no split
// brain, and a 2–2 cut of a 4-node tree leaves the controller's side
// up instead of declaring every node down. A crashed node is down; a
// fully partitioned or link-cut node is down even though its host never
// crashed — exactly what a quorum of heartbeat peers would conclude.
func (i *Injector) NodeUp(node, nodes int) bool {
	if i.crashed[node] {
		return false
	}
	live, reach := 1, 1              // the node itself
	lowest, withLowest := node, true // lowest live node; on node's side?
	for p := 0; p < nodes; p++ {
		if p == node || i.crashed[p] {
			continue
		}
		live++
		r := i.Reachable(node, p)
		if r {
			reach++
		}
		if p < lowest {
			lowest, withLowest = p, r
		}
	}
	return reach*2 > live || reach*2 == live && withLowest
}

// Up is the nil-tolerant form of NodeUp: with no injector every node is
// up. For crash-only schedules it reduces exactly to Alive — no
// partitions or cuts means every live pair is reachable.
func Up(i *Injector, node, nodes int) bool {
	return i == nil || i.NodeUp(node, nodes)
}
