// Typed control-plane invariant checking. VerifyReport runs every
// conservation check the fleet knows and returns the violations as data
// instead of panicking, so the chaos engine can treat a broken book as
// a first-class finding (attach it to an episode, shrink the schedule
// that produced it, replay it). Verify keeps the old contract — panic
// on the first violation — for tests and callers outside the fleet;
// the internal quiescent-point check, verify, memoises it per epoch.
package fleet

import (
	"fmt"
	"sort"

	"repro/internal/sched"
)

// ViolationClass names one conservation invariant of the fleet control
// plane. The classes partition every panic Verify used to raise.
type ViolationClass string

const (
	// VDownNodeHosting: a node marked down still hosts fragments.
	VDownNodeHosting ViolationClass = "down-node-hosting"
	// VCPUBooks: a node's free+used vCPUs do not equal its capacity.
	VCPUBooks ViolationClass = "cpu-books"
	// VMemBooks: a node's free+used memory does not equal its capacity.
	VMemBooks ViolationClass = "mem-books"
	// VBalloonLedger: the balloon ledger is internally inconsistent or
	// holds a VM the placement table does not know.
	VBalloonLedger ViolationClass = "balloon-ledger"
	// VBalloonBooks: a VM's resident+ballooned vCPUs do not equal its
	// provisioned size.
	VBalloonBooks ViolationClass = "balloon-books"
	// VLeaseDoubleBook: two active leases cover the same (VM, node).
	VLeaseDoubleBook ViolationClass = "lease-double-book"
	// VLeaseNoFragment: an active lease covers no borrowed fragment.
	VLeaseNoFragment ViolationClass = "lease-no-fragment"
	// VLeaseCPUMismatch: a lease books a different vCPU count than the
	// fragment it covers.
	VLeaseCPUMismatch ViolationClass = "lease-cpu-mismatch"
	// VFragmentNoLease: a borrowed fragment has no active lease.
	VFragmentNoLease ViolationClass = "fragment-no-lease"
)

// Violation is one broken invariant. Node, VM, and Lease identify the
// offending entities where the class has them; -1 means not applicable.
type Violation struct {
	Class ViolationClass `json:"class"`
	Node  int            `json:"node"`
	VM    int            `json:"vm"`
	Lease int            `json:"lease"`
	Msg   string         `json:"msg"`
}

// Error renders the violation with the same "fleet: ..." prefix the old
// panics used, so it satisfies error and reads identically in logs.
func (v Violation) Error() string { return "fleet: " + v.Msg }

// violations collects broken invariants during a VerifyReport pass.
type violations []Violation

func (vs *violations) add(class ViolationClass, node, vm, lease int, format string, args ...any) {
	*vs = append(*vs, Violation{
		Class: class, Node: node, VM: vm, Lease: lease,
		Msg: fmt.Sprintf(format, args...),
	})
}

// VerifyReport checks every control-plane invariant and returns all
// violations found, in deterministic order (node-major books first,
// then balloon accounting, then the lease ledger). An empty slice means
// the books balance. It never panics and never mutates the fleet.
func (f *Fleet) VerifyReport() []Violation {
	var vs violations
	usedCPU := make([]int, f.cfg.Nodes)
	usedMem := make([]int64, f.cfg.Nodes)
	ids := sortedVMs(f.placements)
	for _, id := range ids {
		mpc := f.reqs[id].memPerCPU()
		for _, n := range placementNodes(f.placements[id]) {
			usedCPU[n] += f.placements[id][n]
			usedMem[n] += int64(f.placements[id][n]) * mpc
		}
	}
	for n := 0; n < f.cfg.Nodes; n++ {
		if f.down[n] {
			if usedCPU[n] != 0 {
				vs.add(VDownNodeHosting, n, -1, -1, "down node %d still hosts %d vCPUs", n, usedCPU[n])
			}
			continue
		}
		if f.freeCPU[n] < 0 || f.freeCPU[n]+usedCPU[n] != f.cfg.CPUsPerNode {
			vs.add(VCPUBooks, n, -1, -1, "node %d CPU books broken: free %d + used %d != %d",
				n, f.freeCPU[n], usedCPU[n], f.cfg.CPUsPerNode)
		}
		if f.freeMem[n] < 0 || f.freeMem[n]+usedMem[n] != f.cfg.MemPerNode {
			vs.add(VMemBooks, n, -1, -1, "node %d memory books broken: free %d + used %d != %d",
				n, f.freeMem[n], usedMem[n], f.cfg.MemPerNode)
		}
	}
	// Balloon conservation: the ledger must be internally consistent,
	// cover exactly the placed VMs, and every VM's resident vCPUs plus
	// its ballooned vCPUs must equal its provisioned size, bit-exactly.
	if err := f.ballooned.Verify(); err != nil {
		vs.add(VBalloonLedger, -1, -1, -1, "%v", err)
	}
	for _, id := range f.ballooned.VMs() {
		if _, placed := f.placements[id]; !placed {
			vs.add(VBalloonLedger, -1, id, -1, "balloon ledger provisions VM %d which has no placement", id)
		}
	}
	for _, id := range ids {
		var resident int64
		for _, n := range placementNodes(f.placements[id]) {
			resident += int64(f.placements[id][n])
		}
		if resident+f.ballooned.Ballooned(id) != int64(f.reqs[id].VCPUs) {
			vs.add(VBalloonBooks, -1, id, -1, "VM %d balloon books broken: resident %d + ballooned %d != provisioned %d",
				id, resident, f.ballooned.Ballooned(id), f.reqs[id].VCPUs)
		}
	}
	// Lease ledger: exactly one active lease per non-home fragment,
	// none anywhere else.
	type key struct{ vm, node int }
	active := map[key]*Lease{}
	for _, l := range f.leases {
		if l.State == LeaseReleased {
			continue
		}
		k := key{l.VM, l.Node}
		if active[k] != nil {
			vs.add(VLeaseDoubleBook, l.Node, l.VM, l.ID, "leases %d and %d double-book VM %d on node %d",
				active[k].ID, l.ID, l.VM, l.Node)
		}
		active[k] = l
		pl := f.placements[l.VM]
		if pl == nil || pl[l.Node] == 0 || f.home[l.VM] == l.Node {
			vs.add(VLeaseNoFragment, l.Node, l.VM, l.ID, "lease %d covers no fragment (VM %d node %d)", l.ID, l.VM, l.Node)
			continue
		}
		if l.CPUs != pl[l.Node] {
			vs.add(VLeaseCPUMismatch, l.Node, l.VM, l.ID, "lease %d books %d vCPUs, fragment has %d", l.ID, l.CPUs, pl[l.Node])
		}
	}
	for _, id := range ids {
		for _, n := range placementNodes(f.placements[id]) {
			if n != f.home[id] && active[key{id, n}] == nil {
				vs.add(VFragmentNoLease, n, id, -1, "fragment of VM %d on node %d has no lease", id, n)
			}
		}
	}
	return vs
}

// verify is the internal quiescent-point check: Verify's fail-fast scan,
// skipped when the books have not changed since the last clean one.
func (f *Fleet) verify() {
	if f.epoch == f.verifiedEpoch {
		return
	}
	f.Verify()
	f.verifiedEpoch = f.epoch
}

// sortedVMs returns the placement table's VM ids in ascending order.
func sortedVMs(pl map[int]sched.Placement) []int {
	ids := make([]int, 0, len(pl))
	for id := range pl {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
