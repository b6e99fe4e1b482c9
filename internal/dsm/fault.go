// Fault tolerance for the DSM protocol: liveness-aware retries, ownership
// re-routing away from crashed nodes, and a coherence checker for tests.
//
// The happy-path protocol in dsm.go assumes a reliable fabric. Under fault
// injection that assumption is withdrawn, and three mechanisms take over:
//
//   - Requesters re-send fault requests that receive no grant within
//     Params.Retry.Timeout; the directory deduplicates request ids, so
//     retransmissions cover request loss only and can never double-apply.
//   - The directory re-sends grants until acknowledged (the page lock is
//     held throughout), giving grant delivery at-least-once semantics; a
//     requester acknowledges-and-ignores grants for already-satisfied ids.
//   - Calls to replica holders (fetch/invalidate) retry until a reply
//     arrives or the fault view declares the holder dead, at which point
//     the directory falls back to the origin's replica and MarkDead
//     reconciles ownership. Page contents lost with a dead exclusive
//     owner are stale until checkpoint restore reinstalls them — exactly
//     the window the paper's checkpoint/restart mechanism (§6.4) exists
//     to close.
package dsm

import (
	"fmt"
	"sort"

	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/sim"
)

// FaultView answers liveness queries. Implemented by *fault.Injector; a nil
// view means every node is alive (the fault-free default).
type FaultView interface {
	NodeAlive(node int) bool
}

// SetFaultView installs the liveness view consulted by the retry paths.
func (d *DSM) SetFaultView(fv FaultView) { d.fv = fv }

// alive reports whether a node participates in the protocol: it must be
// alive under the fault view and not fenced out by MarkDead. The fence
// matters when failure detection misfires (e.g. a long partition): the
// declared-dead node is still running, but the membership decision is
// final — it must not receive grants or mutate survivor state.
func (d *DSM) alive(node int) bool {
	if d.excluded[node] {
		return false
	}
	return d.fv == nil || d.fv.NodeAlive(node)
}

// callNode sends a request to another slice's handler. With no retry policy
// it is a plain reliable Call. With one, it retries on timeout until the
// destination is declared dead by the fault view — transient loss heals,
// crash surfaces as an error.
func (d *DSM) callNode(p *sim.Proc, to int, kind string, size int, payload any) (*msg.Message, error) {
	if d.params.Retry.Timeout <= 0 {
		return d.layer.Call(p, d.origin, to, d.ownSvc, kind, size, payload), nil
	}
	rp := d.params.Retry
	backoff := rp.Backoff
	start := p.Now()
	for attempt := 1; ; attempt++ {
		if !d.alive(to) {
			return nil, &msg.TimeoutError{To: to, Service: d.ownSvc, Kind: kind,
				Attempts: attempt - 1, Elapsed: p.Now() - start}
		}
		r, err := d.layer.CallTimeout(p, d.origin, to, d.ownSvc, kind, size, payload, rp.Timeout)
		if err == nil {
			return r, nil
		}
		d.mustStats(d.origin).Retries++
		if backoff > 0 {
			p.Sleep(backoff)
			backoff *= 2
			if rp.MaxBackoff > 0 && backoff > rp.MaxBackoff {
				backoff = rp.MaxBackoff
			}
		}
	}
}

// reconcileOrigin re-settles the origin's replica record after a grant's
// blocking steps. MarkDead cannot take page locks (it may run from a
// timer callback), so when it re-homes a sole-owner page to the origin it
// forces the origin's replica Exclusive under a lock someone else may
// hold. The lock-holding grant that resumes afterwards supersedes that
// fallback: once it has settled ownership, the origin's replica must
// match the directory — invalid when the origin is outside the copyset,
// at most Shared when it shares the page.
func (d *DSM) reconcileOrigin(e *dirEntry, pg mem.PageID) {
	lp, ok := d.local[d.origin][pg]
	if !ok {
		return
	}
	if !e.copyset[d.origin] {
		lp.state = Invalid
		return
	}
	if lp.state == Exclusive && (len(e.copyset) > 1 || e.owner != d.origin) {
		lp.state = Shared
	}
}

// reclaim re-homes a page whose owner died before its bytes could be
// fetched: the origin becomes the owner using its own (possibly stale)
// replica. Checkpoint restore is what restores lost contents.
func (d *DSM) reclaim(e *dirEntry, pg mem.PageID) []byte {
	delete(e.copyset, e.owner)
	e.owner = d.origin
	e.copyset[d.origin] = true
	lp := d.page(d.origin, pg)
	if lp.state == Invalid {
		lp.state = Shared
	}
	return append([]byte(nil), lp.data...)
}

// MarkDead removes a crashed node from the protocol: its replicas are
// dropped from every copyset, pages and extents it owned are re-homed (to a
// surviving replica holder when one exists, else to the origin), and its
// local replicas are invalidated. Call it once failure detection (the
// hypervisor heartbeat) declares the node dead, before survivors resume.
func (d *DSM) MarkDead(node int) {
	if node == d.origin {
		panic("dsm: cannot mark the origin dead (the directory dies with it)")
	}
	d.excluded[node] = true
	for pg, e := range d.dir {
		delete(e.copyset, node)
		if e.owner != node {
			continue
		}
		e.owner = unclaimed
		for _, n := range d.nodes { // deterministic iteration order
			if e.copyset[n] {
				e.owner = n
				break
			}
		}
		if e.owner == unclaimed {
			e.owner = d.origin
			e.copyset[d.origin] = true
			lp := d.page(d.origin, pg)
			lp.state = Exclusive
		}
	}
	// Bulk extents: surviving replicas keep the data; sole-owner extents
	// fall back to the origin (contents restored by checkpoint restart).
	deadBit := d.bit(node)
	for i := range d.extents.exts {
		x := &d.extents.exts[i]
		if x.owner == unclaimed {
			continue
		}
		x.copies &^= deadBit
		if x.owner != node {
			continue
		}
		x.owner = d.origin
		for _, n := range d.nodes {
			if x.copies&d.bit(n) != 0 {
				x.owner = n
				break
			}
		}
		if x.owner == d.origin {
			x.copies |= d.bit(d.origin)
		}
	}
	for _, lp := range d.local[node] {
		lp.state = Invalid
	}
}

// Validate checks the coherence invariants over every explicitly-managed
// page, considering only nodes alive under the fault view:
//
//   - the directory owner is alive and holds a valid replica;
//   - an Exclusive replica is the only valid replica;
//   - every copyset member holds a valid replica, every non-member holds
//     none, and all valid replicas carry identical bytes.
//
// It returns nil when coherent, or an error naming the first violation.
// Run MarkDead for every crashed node first; a directory still pointing at
// a dead owner is itself a violation.
func (d *DSM) Validate() error {
	pages := make([]mem.PageID, 0, len(d.dir))
	for pg := range d.dir {
		pages = append(pages, pg)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	for _, pg := range pages {
		e := d.dir[pg]
		if !d.alive(e.owner) {
			return fmt.Errorf("dsm: page %#x owned by dead node %d", uint64(pg), e.owner)
		}
		if !e.copyset[e.owner] {
			return fmt.Errorf("dsm: page %#x owner %d not in copyset", uint64(pg), e.owner)
		}
		ownerLP, ok := d.local[e.owner][pg]
		if !ok || ownerLP.state == Invalid {
			return fmt.Errorf("dsm: page %#x owner %d holds no valid replica", uint64(pg), e.owner)
		}
		for _, n := range d.nodes {
			if !d.alive(n) {
				continue
			}
			lp, has := d.local[n][pg]
			valid := has && lp.state != Invalid
			if e.copyset[n] && !valid {
				return fmt.Errorf("dsm: page %#x copyset member %d holds no valid replica", uint64(pg), n)
			}
			if !e.copyset[n] && valid {
				return fmt.Errorf("dsm: page %#x node %d holds a replica outside the copyset (%v)", uint64(pg), n, lp.state)
			}
			if valid && lp.state == Exclusive && n != e.owner {
				return fmt.Errorf("dsm: page %#x node %d exclusive but owner is %d", uint64(pg), n, e.owner)
			}
			if valid && string(lp.data) != string(ownerLP.data) {
				return fmt.Errorf("dsm: page %#x replica at node %d diverges from owner %d", uint64(pg), n, e.owner)
			}
		}
		if ownerLP.state == Exclusive && len(e.copyset) != 1 {
			return fmt.Errorf("dsm: page %#x exclusive at %d with %d copyset members", uint64(pg), e.owner, len(e.copyset))
		}
	}
	return nil
}
