// Package netsim models the cluster interconnects as store-and-forward
// link graphs over the DES core.
//
// A Net connects integer-addressed endpoints (cluster nodes, plus external
// hosts such as load generators). Every message occupies each link on its
// route in turn: it starts serializing on a link once it has arrived there
// and the link has finished everything offered before it (FIFO), holds the
// link for size/bandwidth seconds, then propagates for the link's latency
// toward the next hop. Arrival at the receiver invokes a callback.
//
// A Net has one of two route shapes:
//
//   - Flat (New): one implicit full-bisection switch. A message's route is
//     the sender's own egress link (its NIC), created at the endpoint's
//     first send, so concurrent sends from one endpoint queue behind each
//     other while different senders never contend — not even on a shared
//     receiver. Any integer id is addressable.
//   - Tree (NewTree): racks of nodes under top-of-rack switches joined by a
//     spine. A route is host-up → ToR-up → spine → ToR-down → host-down
//     (same-rack traffic hairpins at the ToR), so shared ToR uplinks and
//     receiver downlinks contend and ingress serialization emerges. Each
//     ToR uplink carries NodesPerRack×host/Oversub, which makes cross-rack
//     borrowing measurably more expensive than rack-local borrowing.
//     internal/topo compiles its Spec into this shape.
//
// The paper's testbed uses two flat instances: a 56 Gbps InfiniBand fabric
// between hypervisor instances and a 1 Gbps Ethernet network toward
// clients/load generators.
package netsim

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Outcome is a fault filter's verdict on one message: deliver normally,
// drop it, or deliver it late.
type Outcome struct {
	Drop  bool
	Delay sim.Time // extra propagation delay on top of the fabric latency
}

// Filter inspects every message offered to the fabric. Implemented by the
// fault injector (package fault) to model node crashes, link partitions,
// and lossy or slow links. A nil-filter fabric delivers everything.
type Filter interface {
	Outcome(from, to, size int) Outcome
}

// Net is a message fabric. Construct with New (flat) or NewTree.
type Net struct {
	env     *sim.Env
	name    string
	latency sim.Time // minimum one-way path latency
	host    link     // shape of every host link; prices flat path queries
	tree    *tree    // nil on the flat shape
	links   []*link  // every link, LinkStats order
	eps     map[int]*endpoint
	stats   Stats
	filter  Filter
	hooks   TestHooks
	tr      *trace.Tracer
	nicSpan string // interned span name for flat egress occupancy intervals
}

// tree holds the tree shape's links, indexed by node (up/down) and rack
// (torUp/torDown).
type tree struct {
	nodesPerRack   int
	up, down       []*link
	torUp, torDown []*link
}

// link is one directed edge of the graph: a FIFO store-and-forward queue
// with fixed bandwidth and propagation latency.
type link struct {
	name     string
	node     int     // node charged for trace spans (an endpoint of the link)
	bps      float64 // bytes per second
	lat      sim.Time
	nextFree sim.Time
	msgs     int64
	bytes    int64
	busy     sim.Time // cumulative serialization occupancy
	span     string   // interned trace span name
}

func (l *link) txTime(size int) sim.Time { return sim.FromSeconds(float64(size) / l.bps) }

// endpoint tracks per-sender counters and, on the flat shape, the
// sender's egress link.
type endpoint struct {
	sent   int64
	bytes  int64
	egress *link
}

// Stats aggregates fabric-wide traffic counters.
type Stats struct {
	Messages int64
	Bytes    int64
	Dropped  int64 // messages discarded by the fault filter
	Delayed  int64 // messages delivered late by the fault filter
}

// LinkStat is one link's occupancy record, for utilization tables.
type LinkStat struct {
	Name  string
	Gbps  float64
	Msgs  int64
	Bytes int64
	Busy  sim.Time // total time the link spent serializing
}

// Utilization returns the link's busy fraction of the given interval.
func (l LinkStat) Utilization(elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return l.Busy.Seconds() / elapsed.Seconds()
}

// New returns a flat fabric with the given one-way latency and bandwidth
// in gigabits per second.
func New(env *sim.Env, name string, latency sim.Time, gbps float64) *Net {
	n := newNet(env, name, latency, gbps)
	n.latency = latency
	n.nicSpan = n.tr.Key("nic", name)
	return n
}

// NewTree returns a tree fabric of racks×nodesPerRack nodes (ids
// rack-major: node i lives in rack i/nodesPerRack). Host links carry
// hostGbps/hostLat; each ToR↔spine link carries
// nodesPerRack×hostGbps/oversub with spineLat latency.
func NewTree(env *sim.Env, name string, hostLat sim.Time, hostGbps float64,
	racks, nodesPerRack int, oversub float64, spineLat sim.Time) *Net {
	if racks <= 0 || nodesPerRack <= 0 || oversub < 1 || spineLat < 0 {
		panic(fmt.Sprintf("netsim: bad tree %d×%d@%v (spine latency %v)", racks, nodesPerRack, oversub, spineLat))
	}
	n := newNet(env, name, hostLat, hostGbps)
	n.latency = 2 * hostLat
	t := &tree{nodesPerRack: nodesPerRack}
	n.tree = t
	uplinkBps := float64(nodesPerRack) * n.host.bps / oversub
	newLink := func(name string, node int, bps float64, lat sim.Time) *link {
		l := &link{name: name, node: node, bps: bps, lat: lat, span: n.tr.Key("link", name)}
		n.links = append(n.links, l)
		return l
	}
	for i := 0; i < racks*nodesPerRack; i++ {
		r := i / nodesPerRack
		t.up = append(t.up, newLink(fmt.Sprintf("n%d-tor%d", i, r), i, n.host.bps, hostLat))
		t.down = append(t.down, newLink(fmt.Sprintf("tor%d-n%d", r, i), i, n.host.bps, hostLat))
	}
	for r := 0; r < racks; r++ {
		t.torUp = append(t.torUp, newLink(fmt.Sprintf("tor%d-spine", r), r*nodesPerRack, uplinkBps, spineLat))
		t.torDown = append(t.torDown, newLink(fmt.Sprintf("spine-tor%d", r), r*nodesPerRack, uplinkBps, spineLat))
	}
	return n
}

func newNet(env *sim.Env, name string, hostLat sim.Time, gbps float64) *Net {
	if gbps <= 0 {
		panic(fmt.Sprintf("netsim: bandwidth %v Gbps must be positive", gbps))
	}
	if hostLat < 0 {
		panic(fmt.Sprintf("netsim: latency %v must be non-negative", hostLat))
	}
	return &Net{
		env:  env,
		name: name,
		host: link{bps: gbps * 1e9 / 8, lat: hostLat},
		eps:  make(map[int]*endpoint),
		tr:   trace.FromEnv(env),
	}
}

// Name returns the fabric's diagnostic name.
func (n *Net) Name() string { return n.name }

// Latency returns the minimum one-way path latency: the host-link latency
// on the flat shape, twice it (up + down) within a tree rack. Protocol
// cost models (DSM RTT estimates, checkpoint RTOs) build on it.
func (n *Net) Latency() sim.Time { return n.latency }

// TxTime returns the serialization time for size bytes at a host link.
func (n *Net) TxTime(size int) sim.Time {
	checkSize(size)
	return n.host.txTime(size)
}

func checkSize(size int) {
	if size < 0 {
		panic(fmt.Sprintf("netsim: negative message size %d", size))
	}
}

// PathTime returns the uncontended one-way delivery time for size bytes
// from one endpoint to another: each link on the route charged at its own
// bandwidth (so an oversubscribed uplink costs what it actually costs)
// plus its latency, store-and-forward. Queueing can only add to it —
// protocol timeout models such as the reliable transport's RTO treat it
// as the floor.
func (n *Net) PathTime(from, to int, size int) sim.Time {
	checkSize(size)
	var buf [4]*link
	var t sim.Time
	for _, l := range n.route(&buf, nil, from, to) {
		t += l.txTime(size) + l.lat
	}
	return t
}

// PathLatency returns the summed propagation latency of every link on the
// (from, to) route — the realized one-way latency of an uncontended
// zero-byte message. Symmetric and additive along the route.
func (n *Net) PathLatency(from, to int) sim.Time {
	var buf [4]*link
	var total sim.Time
	for _, l := range n.route(&buf, nil, from, to) {
		total += l.lat
	}
	return total
}

// PathGbps returns the bottleneck bandwidth of the (from, to) route in
// gigabits per second: the host rate on the flat shape and within a rack,
// the oversubscribed uplink rate across the spine.
func (n *Net) PathGbps(from, to int) float64 {
	var buf [4]*link
	min := 0.0
	for _, l := range n.route(&buf, nil, from, to) {
		if min == 0 || l.bps < min {
			min = l.bps
		}
	}
	return min * 8 / 1e9
}

// route fills buf with the links a (from, to) message occupies, in
// traversal order. On the flat shape that is the sender's egress link,
// created on first use; a nil ep (a pure path query) gets the host-link
// template instead, so queries never create links. Trees hairpin same-rack
// traffic at the ToR and cross the spine otherwise. Same-node tree
// messages still hairpin — callers that want free local delivery
// short-circuit above the fabric, as msg does.
func (n *Net) route(buf *[4]*link, ep *endpoint, from, to int) []*link {
	t := n.tree
	if t == nil {
		switch {
		case ep == nil:
			buf[0] = &n.host
		case ep.egress == nil:
			ep.egress = &link{name: fmt.Sprintf("n%d-egress", from), node: from,
				bps: n.host.bps, lat: n.host.lat, span: n.nicSpan}
			n.links = append(n.links, ep.egress)
			buf[0] = ep.egress
		default:
			buf[0] = ep.egress
		}
		return buf[:1]
	}
	if uint(from) >= uint(len(t.up)) || uint(to) >= uint(len(t.up)) {
		panic(fmt.Sprintf("netsim: route %d→%d outside the %d-node tree %s", from, to, len(t.up), n.name))
	}
	rf, rt := from/t.nodesPerRack, to/t.nodesPerRack
	if rf == rt {
		buf[0], buf[1] = t.up[from], t.down[to]
		return buf[:2]
	}
	buf[0], buf[1], buf[2], buf[3] = t.up[from], t.torUp[rf], t.torDown[rt], t.down[to]
	return buf[:4]
}

// SetFilter installs (or, with nil, removes) the fabric's fault filter.
func (n *Net) SetFilter(f Filter) { n.filter = f }

// Filter returns the installed fault filter, or nil. The reliable
// transport keys its zero-fault fast path on this: no filter means
// nothing can be lost, so no acks need to be charged.
func (n *Net) Filter() Filter { return n.filter }

// Send transmits size bytes from one endpoint to another and invokes
// deliver at the receiver once the message arrives. deliver may be nil for
// fire-and-forget accounting. Send returns the delivery time.
//
// When a fault filter is installed it rules once per message after the
// whole route has been charged (the sender cannot know the fabric lost its
// frame): dropped messages never invoke deliver, delayed ones arrive late.
func (n *Net) Send(from, to int, size int, deliver func()) sim.Time {
	return n.SendCtx(0, from, to, size, deliver)
}

// SendCtx is Send with a causal tracing parent: when the fabric's
// environment is traced, every link's occupancy interval [start, done] is
// recorded as a network span under the given parent — one span per hop,
// named "nic" on the flat shape and after the link on a tree. Span 0 (and
// an untraced environment) make it identical to Send.
func (n *Net) SendCtx(span int64, from, to int, size int, deliver func()) sim.Time {
	arrive, _ := n.send(span, from, to, size, deliver)
	return arrive
}

// send is the SendCtx body, additionally reporting whether the message
// survived the fault filter. Dropped messages never schedule deliver.
func (n *Net) send(span int64, from, to int, size int, deliver func()) (sim.Time, bool) {
	checkSize(size)
	ep := n.ep(from)
	var buf [4]*link
	t := n.env.Now()
	for _, l := range n.route(&buf, ep, from, to) {
		start := l.nextFree
		if start < t {
			start = t
		}
		done := start + l.txTime(size)
		l.nextFree = done
		l.msgs++
		l.bytes += int64(size)
		l.busy += done - start
		if n.tr != nil {
			n.tr.Complete(span, trace.CatNet, l.node, l.span, start, done)
		}
		t = done + l.lat
	}
	ep.sent++
	ep.bytes += int64(size)
	n.stats.Messages++
	n.stats.Bytes += int64(size)
	arrive := t
	if n.filter != nil {
		o := n.filter.Outcome(from, to, size)
		if o.Drop {
			n.stats.Dropped++
			return arrive, false
		}
		if o.Delay > 0 {
			n.stats.Delayed++
			arrive += o.Delay
		}
	}
	if deliver != nil {
		// Pooled: fabric deliveries are never cancelled (drops are decided
		// above, before scheduling), so no Timer handle is needed.
		n.env.DeferAt(arrive, deliver)
	}
	return arrive, true
}

// SendAndWait transmits like Send but blocks the calling process until the
// message resolves, reporting whether it was delivered. A fault-filter drop
// still wakes the sender at the would-be arrival time — the route was
// charged and the frame is simply gone — so a blocking send can never
// wedge a proc for the rest of the run.
func (n *Net) SendAndWait(p *sim.Proc, from, to int, size int) bool {
	ev := n.env.NewEvent()
	arrive, delivered := n.send(0, from, to, size, ev.Fire)
	if !delivered && !n.hooks.WedgeOnDrop {
		n.env.DeferAt(arrive, ev.Fire)
	}
	p.Wait(ev)
	return delivered
}

// Stats returns a copy of the fabric-wide counters.
func (n *Net) Stats() Stats { return n.stats }

// Endpoints returns the ids of every endpoint that has sent, in ascending
// order — the iteration domain for per-node traffic reports.
func (n *Net) Endpoints() []int {
	ids := make([]int, 0, len(n.eps))
	for id := range n.eps {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// EndpointSent returns the number of messages and bytes sent by an endpoint.
// A pure read: an id that never sent reports zeros without inserting an
// endpoint record, so probing cannot grow Endpoints().
func (n *Net) EndpointSent(id int) (msgs, bytes int64) {
	if n.hooks.PhantomEndpoints {
		e := n.ep(id)
		return e.sent, e.bytes
	}
	if e, ok := n.eps[id]; ok {
		return e.sent, e.bytes
	}
	return 0, 0
}

func (n *Net) ep(id int) *endpoint {
	e, ok := n.eps[id]
	if !ok {
		e = &endpoint{}
		n.eps[id] = e
	}
	return e
}

// LinkStats returns every link's occupancy record: on a tree in
// construction order (host links node-major, then ToR uplinks/downlinks
// rack-major), on the flat shape the egress links in first-send order,
// which the deterministic DES keeps stable across same-seed runs.
func (n *Net) LinkStats() []LinkStat {
	out := make([]LinkStat, len(n.links))
	for i, l := range n.links {
		out[i] = LinkStat{Name: l.name, Gbps: l.bps * 8 / 1e9, Msgs: l.msgs, Bytes: l.bytes, Busy: l.busy}
	}
	return out
}
