// Package dsm implements FragVisor's distributed shared memory: the
// protocol that keeps an Aggregate VM's pseudo-physical address space
// coherent across the hypervisor instances that host its slices.
//
// The protocol is the Popcorn-style single-writer/multiple-reader ownership
// protocol the paper builds on. One instance — the bootstrap slice, called
// the origin here — maintains a directory mapping every guest page to its
// current owner and copyset. Remote read faults replicate a page into the
// faulting node's copyset; write faults invalidate all other copies and
// transfer ownership. Every protocol step pays for its fabric messages and
// a fixed fault-handler CPU cost, so DSM contention emerges from the same
// mechanics as on the real system: page ping-pong between concurrent
// writers, invalidation storms on false sharing, and fault-handler
// serialization on hot pages.
//
// The DSM is functional, not just a cost model: page contents are real
// bytes that move with ownership, which lets tests state coherence
// invariants ("a read observes the most recent write") directly.
//
// Two access granularities are offered. Read/Write/Touch run the full
// per-page protocol and are used wherever sharing matters (microbenchmarks,
// kernel data structures, virtio rings, socket buffers). TouchRange covers
// multi-megabyte private application data — NPB datasets, lambda working
// sets — through an extent table that tracks ownership per range and
// charges aggregate first-touch/claim costs without materializing bytes.
// The two views must be kept disjoint by callers: a page accessed through
// Read/Write must not also be covered by TouchRange.
//
// Model notes (documented deviations from the prototype):
//
//   - Fault-handler CPU is charged as elapsed time on the faulting vCPU
//     rather than as load on the host pCPU; vCPUs are pinned 1:1 in all
//     distributed scenarios, so the two are equivalent there.
//   - Bulk (TouchRange) transfers charge serialization in their aggregate
//     cost but do not occupy the NIC object, so they do not delay
//     concurrent small messages; the paper's workloads do not overlap bulk
//     claims with latency-critical traffic.
package dsm

import (
	"fmt"
	"strconv"

	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/trace"
)

// State is a node's local MSI-style state for one page.
type State uint8

const (
	// Invalid means the node holds no valid copy.
	Invalid State = iota
	// Shared means the node holds a read-only replica.
	Shared
	// Exclusive means the node owns the page with no other copies.
	Exclusive
)

// String names the state for diagnostics.
func (s State) String() string {
	switch s {
	case Invalid:
		return "invalid"
	case Shared:
		return "shared"
	case Exclusive:
		return "exclusive"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Params is the DSM cost model.
type Params struct {
	// FaultHandler is the CPU time per EPT-violation fault: VM exit plus
	// the in-kernel protocol handler.
	FaultHandler sim.Time
	// UserSpaceExtra is added per fault for DSM implementations living in
	// user space (GiantVM): two user/kernel crossings and an extra copy.
	UserSpaceExtra sim.Time
	// MinorFault is the cost of a local first touch (allocate + map).
	MinorFault sim.Time
	// ContextualPiggyback enables the contextual-DSM optimization: writes
	// to pages the hypervisor understands (page tables, interrupt
	// context) are piggybacked onto IPI traffic instead of running the
	// invalidation protocol.
	ContextualPiggyback bool
	// ContextualWriteCost is the per-write cost when piggybacking.
	ContextualWriteCost sim.Time
	// DirtyBitTracking models EPT hardware dirty-bit management, which
	// writes to a shared tracking structure on every write fault.
	// FragVisor disables it (the DSM already tracks writes).
	DirtyBitTracking bool
	// ReqBytes is the wire size of a fault request message.
	ReqBytes int
	// Retry enables the fault-tolerant protocol paths (see fault.go):
	// fault requests and grants are re-sent on timeout, and calls to
	// replica holders give up once the fault view declares them dead. The
	// zero value keeps the happy-path reliable-fabric protocol.
	Retry msg.RetryPolicy
}

// DefaultParams returns FragVisor's kernel-space DSM costs.
func DefaultParams() Params {
	return Params{
		FaultHandler:        3 * sim.Microsecond,
		UserSpaceExtra:      0,
		MinorFault:          300 * sim.Nanosecond,
		ContextualPiggyback: true,
		ContextualWriteCost: 300 * sim.Nanosecond,
		DirtyBitTracking:    false,
		ReqBytes:            64,
	}
}

// GiantVMParams returns the cost model for the user-space DSM baseline:
// higher per-fault cost and no contextual optimization.
func GiantVMParams() Params {
	p := DefaultParams()
	p.UserSpaceExtra = 6 * sim.Microsecond
	p.ContextualPiggyback = false
	return p
}

// Stats counts DSM activity for one node (or aggregated).
type Stats struct {
	ReadFaults       int64
	WriteFaults      int64
	LocalHits        int64
	Invalidations    int64 // invalidation messages received
	ContextualWrites int64
	DirtyFaults      int64 // extra faults due to dirty-bit tracking
	BulkLocalPages   int64 // bulk pages first-touched locally
	BulkRemotePages  int64 // bulk pages claimed or copied from a remote owner
	BytesMoved       int64 // page payload bytes transferred on behalf of this node
	Retries          int64 // protocol messages re-sent on timeout (fault mode)
}

// Faults returns the total protocol faults (read + write + dirty).
func (s Stats) Faults() int64 { return s.ReadFaults + s.WriteFaults + s.DirtyFaults }

func (s *Stats) add(o Stats) {
	s.ReadFaults += o.ReadFaults
	s.WriteFaults += o.WriteFaults
	s.LocalHits += o.LocalHits
	s.Invalidations += o.Invalidations
	s.ContextualWrites += o.ContextualWrites
	s.DirtyFaults += o.DirtyFaults
	s.BulkLocalPages += o.BulkLocalPages
	s.BulkRemotePages += o.BulkRemotePages
	s.BytesMoved += o.BytesMoved
	s.Retries += o.Retries
}

// localPage is one node's replica of a guest page.
type localPage struct {
	state State
	data  []byte
}

// dirEntry is the origin directory record for one explicitly-managed page.
type dirEntry struct {
	owner   int
	copyset map[int]bool
}

// faultReq is the payload of a fault request to the directory.
type faultReq struct {
	id    uint64
	page  mem.PageID
	node  int
	write bool
}

// fetchReq asks a page's owner for its bytes, downgrading or invalidating
// the owner's copy.
type fetchReq struct {
	page       mem.PageID
	invalidate bool
}

// grantMsg carries the directory's answer to a fault back to the faulting
// node. The requester installs it synchronously at delivery and
// acknowledges; the directory holds the page lock until the ack, so a
// replica can never be resurrected by a stale in-flight grant.
type grantMsg struct {
	id    uint64
	page  mem.PageID
	write bool
	data  []byte // nil when the requester's existing copy remains valid
}

// pendingFault is requester-side bookkeeping for one in-flight fault.
type pendingFault struct {
	ev    *sim.Event
	moved int64 // payload bytes installed by the grant
}

// DSM is one Aggregate VM's distributed shared memory instance.
// Construct with New.
type DSM struct {
	env    *sim.Env
	layer  *msg.Layer
	nodes  []int
	origin int
	idx    map[int]int // fabric node id -> dense index
	params Params

	dir        map[mem.PageID]*dirEntry
	locks      map[mem.PageID]*sim.Mutex
	local      map[int]map[mem.PageID]*localPage
	contextual map[mem.PageID]bool
	extents    extentTable
	stats      map[int]*Stats

	dirtyPage mem.PageID
	service   string
	dirSvc    string // service + ".dir", interned off the fault hot path
	ownSvc    string // service + ".own", likewise
	dirProc   string // service + ".dir.", prefix for directory proc names
	invProc   string // service + ".inv.", prefix for invalidation proc names
	procNames map[mem.PageID]pageProcs

	nextFault uint64
	pending   map[uint64]*pendingFault
	seen      map[uint64]bool // fault ids the directory has accepted
	fv        FaultView
	excluded  map[int]bool // nodes fenced out by MarkDead (see fault.go)
	tr        *trace.Tracer
}

// New creates a DSM spanning the given hypervisor instances. nodes[0] is
// the origin (the bootstrap slice). The same messaging layer may carry
// several DSM instances.
func New(env *sim.Env, layer *msg.Layer, nodes []int, p Params) *DSM {
	if len(nodes) == 0 {
		panic("dsm: no nodes")
	}
	d := &DSM{
		env:        env,
		layer:      layer,
		nodes:      append([]int(nil), nodes...),
		origin:     nodes[0],
		idx:        make(map[int]int, len(nodes)),
		params:     p,
		dir:        make(map[mem.PageID]*dirEntry),
		locks:      make(map[mem.PageID]*sim.Mutex),
		local:      make(map[int]map[mem.PageID]*localPage),
		contextual: make(map[mem.PageID]bool),
		stats:      make(map[int]*Stats),
		dirtyPage:  mem.PageID(1) << 40,
		pending:    make(map[uint64]*pendingFault),
		seen:       make(map[uint64]bool),
		excluded:   make(map[int]bool),
		procNames:  make(map[mem.PageID]pageProcs),
		tr:         trace.FromEnv(env),
	}
	// Instance numbers are per messaging layer, so service (and span) names
	// depend only on construction order within one simulation.
	d.service = fmt.Sprintf("dsm%d", layer.Instance("dsm"))
	d.dirSvc = d.service + ".dir"
	d.ownSvc = d.service + ".own"
	d.dirProc = d.service + ".dir."
	d.invProc = d.service + ".inv."
	for i, n := range nodes {
		if _, dup := d.idx[n]; dup {
			panic(fmt.Sprintf("dsm: duplicate node %d", n))
		}
		d.idx[n] = i
		d.local[n] = make(map[mem.PageID]*localPage)
		d.stats[n] = &Stats{}
	}
	layer.Handle(d.origin, d.dirSvc, d.handleDir)
	for _, n := range nodes {
		layer.Handle(n, d.ownSvc, d.handleOwner)
	}
	return d
}

// Nodes returns the hypervisor instances participating in the DSM; the
// first entry is the origin.
func (d *DSM) Nodes() []int { return append([]int(nil), d.nodes...) }

// Origin returns the directory (bootstrap-slice) node.
func (d *DSM) Origin() int { return d.origin }

// Params returns the cost model in use.
func (d *DSM) Params() Params { return d.params }

// NodeStats returns the counters for one node.
func (d *DSM) NodeStats(node int) Stats { return *d.mustStats(node) }

// TotalStats returns counters aggregated over all nodes.
func (d *DSM) TotalStats() Stats {
	var t Stats
	for _, n := range d.nodes {
		t.add(*d.stats[n])
	}
	return t
}

// PageState reports a node's local state for an explicitly-managed page.
func (d *DSM) PageState(node int, pg mem.PageID) State {
	lp, ok := d.local[node][pg]
	if !ok {
		return Invalid
	}
	return lp.state
}

// DirEntry exposes the directory record for tests: the owning node and the
// sorted copyset. ok is false for pages never explicitly accessed.
func (d *DSM) DirEntry(pg mem.PageID) (owner int, copyset []int, ok bool) {
	e, found := d.dir[pg]
	if !found {
		return 0, nil, false
	}
	for _, n := range d.nodes {
		if e.copyset[n] {
			copyset = append(copyset, n)
		}
	}
	return e.owner, copyset, true
}

// MarkContextual tags a region's pages as CPU-context memory eligible for
// the contextual-DSM piggyback optimization.
func (d *DSM) MarkContextual(r mem.Region) {
	for i := int64(0); i < r.Pages; i++ {
		d.contextual[r.Page(i)] = true
	}
}

func (d *DSM) mustStats(node int) *Stats {
	st, ok := d.stats[node]
	if !ok {
		panic(fmt.Sprintf("dsm: node %d not part of this DSM", node))
	}
	return st
}

// Read returns a copy of the page's current contents at the node, running
// the coherence protocol if the node lacks a valid replica.
func (d *DSM) Read(p *sim.Proc, node int, pg mem.PageID) []byte {
	lp := d.ensure(p, node, pg, false)
	out := make([]byte, mem.PageSize)
	copy(out, lp.data)
	return out
}

// Write stores data at the given offset in the page, acquiring exclusive
// ownership first.
func (d *DSM) Write(p *sim.Proc, node int, pg mem.PageID, off int, data []byte) {
	if off < 0 || off+len(data) > mem.PageSize {
		panic(fmt.Sprintf("dsm: write [%d,%d) outside page", off, off+len(data)))
	}
	if d.contextualWrite(p, node, pg, off, data) {
		return
	}
	lp := d.ensure(p, node, pg, true)
	copy(lp.data[off:], data)
}

// Touch performs an access for its coherence cost only, moving no payload
// bytes of the caller's.
func (d *DSM) Touch(p *sim.Proc, node int, pg mem.PageID, write bool) {
	if write && d.contextualWrite(p, node, pg, 0, nil) {
		return
	}
	d.ensure(p, node, pg, write)
}

// contextualWrite applies the piggyback fast path for context pages:
// every replica is updated in place at a fixed small cost, modelling the
// update riding an IPI that is being sent anyway (e.g. TLB shootdown).
func (d *DSM) contextualWrite(p *sim.Proc, node int, pg mem.PageID, off int, data []byte) bool {
	if !d.params.ContextualPiggyback || !d.contextual[pg] {
		return false
	}
	if !d.alive(node) {
		// A crashed slice must not update survivors' replicas in place.
		return true
	}
	st := d.mustStats(node)
	st.ContextualWrites++
	p.Sleep(d.params.ContextualWriteCost)
	e := d.entry(pg)
	if data != nil {
		for n := range e.copyset {
			if lp, ok := d.local[n][pg]; ok && lp.state != Invalid {
				copy(lp.data[off:], data)
			}
		}
	}
	// Ensure the writer holds a copy so subsequent local reads hit. Once
	// a second node holds the page the owner's replica is no longer
	// Exclusive — downgrade it, or the directory state lies.
	lp := d.page(node, pg)
	if lp.state == Invalid {
		lp.state = Shared
		e.copyset[node] = true
		if data != nil {
			copy(lp.data[off:], data)
		}
		if olp, ok := d.local[e.owner][pg]; ok && olp.state == Exclusive {
			olp.state = Shared
		}
	}
	return true
}

// ensure runs the coherence protocol until the node holds the page in at
// least the required state, returning the local replica.
func (d *DSM) ensure(p *sim.Proc, node int, pg mem.PageID, write bool) *localPage {
	st := d.mustStats(node)
	lp := d.page(node, pg)
	if lp.state == Exclusive || (!write && lp.state == Shared) {
		st.LocalHits++
		return lp
	}
	if !d.alive(node) {
		// A crashed slice's in-flight guest work is discarded at restart;
		// its faults must not reach (or block on) the directory.
		return lp
	}
	var sp trace.SpanID
	if d.tr != nil {
		name := "dsm.read"
		if write {
			name = "dsm.write"
		}
		sp = d.tr.Begin(p.Span(), trace.CatDSM, node, name)
	}
	if write {
		st.WriteFaults++
	} else {
		st.ReadFaults++
	}
	p.Sleep(d.params.FaultHandler + d.params.UserSpaceExtra)
	d.nextFault++
	id := d.nextFault
	pf := &pendingFault{ev: d.env.NewEvent()}
	d.pending[id] = pf
	req := faultReq{id: id, page: pg, node: node, write: write}
	d.layer.SendCtx(sp, node, d.origin, d.dirSvc, "fault", d.params.ReqBytes, req)
	if d.params.Retry.Timeout <= 0 {
		p.Wait(pf.ev)
	} else {
		// Re-send on timeout to cover request loss; the directory
		// deduplicates ids and re-sends grants itself, so a retransmission
		// can never double-apply.
		for !p.WaitTimeout(pf.ev, d.params.Retry.Timeout) {
			if !d.alive(node) {
				delete(d.pending, id)
				d.tr.End(sp)
				return lp
			}
			st.Retries++
			d.layer.SendCtx(sp, node, d.origin, d.dirSvc, "fault", d.params.ReqBytes, req)
		}
	}
	d.tr.End(sp)
	st.BytesMoved += pf.moved
	if write && d.params.DirtyBitTracking && pg != d.dirtyPage {
		// Hardware dirty-bit management writes the shared tracking
		// structure, itself kept coherent by the DSM.
		st.DirtyFaults++
		d.Touch(p, node, d.dirtyPage, true)
	}
	return lp
}

// page returns (lazily creating) the node's replica record for a page.
// Origin replicas of never-seen pages start Exclusive and zero-filled:
// the bootstrap slice initially backs the whole guest physical space.
func (d *DSM) page(node int, pg mem.PageID) *localPage {
	lp, ok := d.local[node][pg]
	if !ok {
		lp = &localPage{state: Invalid, data: make([]byte, mem.PageSize)}
		if node == d.origin {
			if _, seen := d.dir[pg]; !seen {
				lp.state = Exclusive
			}
		}
		d.local[node][pg] = lp
	}
	return lp
}

// entry returns (lazily creating) the directory record for a page.
func (d *DSM) entry(pg mem.PageID) *dirEntry {
	e, ok := d.dir[pg]
	if !ok {
		d.page(d.origin, pg) // materialize the origin replica
		e = &dirEntry{owner: d.origin, copyset: map[int]bool{d.origin: true}}
		d.dir[pg] = e
	}
	return e
}

// pageProcs holds one page's directory and invalidation proc names.
type pageProcs struct{ dir, inv string }

// names returns the page's proc names, formatted once per page so the
// fault path builds no strings.
func (d *DSM) names(pg mem.PageID) pageProcs {
	n, ok := d.procNames[pg]
	if !ok {
		s := strconv.Itoa(int(pg))
		n = pageProcs{dir: d.dirProc + s, inv: d.invProc + s}
		d.procNames[pg] = n
	}
	return n
}

func (d *DSM) lock(pg mem.PageID) *sim.Mutex {
	lk, ok := d.locks[pg]
	if !ok {
		lk = d.env.NewMutex()
		d.locks[pg] = lk
	}
	return lk
}

// handleDir serves fault requests at the origin directory. Each request is
// handled by a short-lived process serialized per page, so concurrent
// faults on one page queue while faults on different pages proceed in
// parallel — matching the per-page locking of the kernel implementation.
// The page lock is held until the requester acknowledges installing the
// grant, which is what makes the protocol race-free: no replica can be
// resurrected by a grant that was in flight when ownership moved on.
func (d *DSM) handleDir(m *msg.Message) {
	req := m.Payload.(faultReq)
	if d.seen[req.id] {
		// Retransmission (or fault-injected duplicate) of a request
		// already accepted: the grant path owns reply delivery.
		return
	}
	d.seen[req.id] = true
	parent := m.SpanID()
	d.env.Spawn(d.names(req.page).dir, func(p *sim.Proc) {
		if d.tr != nil {
			dsp := d.tr.Begin(parent, trace.CatDSM, d.origin, "dsm.dir")
			p.SetSpan(dsp)
			defer d.tr.End(dsp)
		}
		lk := d.lock(req.page)
		lk.Lock(p)
		defer lk.Unlock()
		if req.write {
			d.grantWrite(p, req)
		} else {
			d.grantRead(p, req)
		}
	})
}

// sendGrant delivers the grant to the requester and waits for its ack,
// re-sending on timeout in fault mode. A requester that dies before
// acknowledging leaves directory state pointing at it; MarkDead reconciles.
func (d *DSM) sendGrant(p *sim.Proc, req faultReq, data []byte) {
	size := d.params.ReqBytes
	if data != nil {
		size += mem.PageSize
	}
	g := grantMsg{id: req.id, page: req.page, write: req.write, data: data}
	_, err := d.callNode(p, req.node, "grant", size, g)
	_ = err // dead requester: give up; survivors proceed after MarkDead
}

// grantRead adds the requester to the page's copyset, fetching the bytes
// from the current owner.
func (d *DSM) grantRead(p *sim.Proc, req faultReq) {
	e := d.entry(req.page)
	if e.copyset[req.node] {
		// The requester already regained a copy (raced with an earlier
		// grant from this node): nothing to transfer.
		d.sendGrant(p, req, nil)
		return
	}
	var data []byte
	if e.owner == d.origin {
		lp := d.page(d.origin, req.page)
		if lp.state == Exclusive {
			lp.state = Shared
		}
		data = append([]byte(nil), lp.data...)
	} else if !d.alive(e.owner) {
		data = d.reclaim(e, req.page)
	} else {
		r, err := d.callNode(p, e.owner, "fetch", d.params.ReqBytes, fetchReq{page: req.page})
		if err != nil {
			data = d.reclaim(e, req.page)
		} else {
			data = r.Payload.([]byte)
		}
	}
	e.copyset[req.node] = true
	d.reconcileOrigin(e, req.page)
	d.sendGrant(p, req, data)
}

// grantWrite invalidates every other replica and transfers ownership (and,
// if the requester lacks a valid copy, the bytes) to the requester.
func (d *DSM) grantWrite(p *sim.Proc, req faultReq) {
	e := d.entry(req.page)
	hasCopy := e.copyset[req.node]
	var data []byte

	// Invalidate all replicas except the requester's, in parallel. The
	// owner's replica is fetched-and-invalidated so its bytes reach the
	// new owner.
	// Iterate nodes in the DSM's fixed order (not map order): the spawn
	// order of invalidation processes feeds the event sequence, and trace
	// output must be byte-identical across same-seed runs.
	var buf [8]*sim.Event // replicas to invalidate are few: no heap slice
	waits := buf[:0]
	parent := p.Span()
	for _, n := range d.nodes {
		if n == req.node || !e.copyset[n] {
			continue
		}
		n := n
		if n != d.origin && !d.alive(n) {
			// A dead replica holder needs no invalidation; if it owned the
			// only copy, fall back to the origin's (stale) replica.
			if n == e.owner && !hasCopy {
				data = append([]byte(nil), d.page(d.origin, req.page).data...)
			}
			continue
		}
		inv := d.env.Spawn(d.names(req.page).inv, func(sub *sim.Proc) {
			if d.tr != nil {
				isp := d.tr.Begin(parent, trace.CatDSM, d.origin, "dsm.inv")
				sub.SetSpan(isp)
				defer d.tr.End(isp)
			}
			if n == d.origin {
				lp := d.page(d.origin, req.page)
				if n == e.owner && !hasCopy {
					data = append([]byte(nil), lp.data...)
				}
				lp.state = Invalid
				d.mustStats(d.origin).Invalidations++
				return
			}
			if n == e.owner && !hasCopy {
				r, err := d.callNode(sub, n, "invfetch",
					d.params.ReqBytes, fetchReq{page: req.page, invalidate: true})
				if err != nil {
					data = append([]byte(nil), d.page(d.origin, req.page).data...)
					return
				}
				data = r.Payload.([]byte)
				return
			}
			// A holder that died mid-invalidation needs none: its replica
			// is unreachable and MarkDead drops it from the copyset.
			_, _ = d.callNode(sub, n, "inv",
				d.params.ReqBytes, fetchReq{page: req.page, invalidate: true})
		})
		waits = append(waits, inv.Done())
	}
	p.WaitAll(waits...)

	e.owner = req.node
	clear(e.copyset)
	e.copyset[req.node] = true
	d.reconcileOrigin(e, req.page)
	d.sendGrant(p, req, data)
}

// handleOwner serves grant installations and fetch/invalidate requests at
// replica holders. All run synchronously at message delivery, so a node's
// replica state transitions exactly in fabric-delivery order.
func (d *DSM) handleOwner(m *msg.Message) {
	switch m.Kind {
	case "grant":
		g := m.Payload.(grantMsg)
		pf, ok := d.pending[g.id]
		if !ok || !d.alive(m.To) {
			// Either a re-sent grant for an already-installed id (the ack
			// was lost, or this is a fault-injected duplicate), or a grant
			// reaching a node fenced out by MarkDead while the grant was
			// in flight: acknowledge so the directory releases the page
			// lock, but do not install — the directory state has moved on.
			m.Reply(d.params.ReqBytes, nil)
			return
		}
		delete(d.pending, g.id)
		lp := d.page(m.To, g.page)
		if g.data != nil {
			copy(lp.data, g.data)
			pf.moved = mem.PageSize
		}
		if g.write {
			lp.state = Exclusive
		} else if lp.state == Invalid {
			lp.state = Shared
		}
		pf.ev.Fire()
		m.Reply(d.params.ReqBytes, nil)
		return
	}
	req := m.Payload.(fetchReq)
	lp := d.page(m.To, req.page)
	switch m.Kind {
	case "fetch":
		if lp.state == Exclusive {
			lp.state = Shared
		}
		m.Reply(mem.PageSize+d.params.ReqBytes, append([]byte(nil), lp.data...))
	case "invfetch":
		data := append([]byte(nil), lp.data...)
		lp.state = Invalid
		d.mustStats(m.To).Invalidations++
		m.Reply(mem.PageSize+d.params.ReqBytes, data)
	case "inv":
		lp.state = Invalid
		d.mustStats(m.To).Invalidations++
		m.Reply(d.params.ReqBytes, nil)
	default:
		panic(fmt.Sprintf("dsm: unknown owner message kind %q", m.Kind))
	}
}
