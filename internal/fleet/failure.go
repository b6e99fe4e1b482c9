// Node-failure handling: a heartbeat tick polls the fault injector's
// liveness view; fragments lost with a dead node are re-placed on the
// survivors, and VMs bound to a live Aggregate VM are restarted from
// their checkpoint image on the new slices — restart, not eviction.
package fleet

import (
	"fmt"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/hypervisor"
	"repro/internal/sched"
	"repro/internal/sim"
)

// probeBytes is the size of one heartbeat probe message, and
// probeMissThreshold the consecutive unreachable probes that declare a
// node down on message evidence alone (mirroring the hypervisor
// heartbeat's miss threshold).
const (
	probeBytes         = 128
	probeMissThreshold = 2
)

// armHeartbeat starts failure detection against the fault injector: a
// timer-driven view poll by default, or a probing process when a
// reliable transport is configured.
func (f *Fleet) armHeartbeat() {
	if f.cfg.Fault == nil || f.cfg.HeartbeatEvery <= 0 {
		return
	}
	if f.cfg.Probe != nil {
		f.env.Spawn("fleet-heartbeat", f.probeLoop)
		return
	}
	var tick func()
	tick = func() {
		if f.stopped {
			return
		}
		f.heartbeat()
		f.hbTimer = f.reschedule(f.cfg.HeartbeatEvery, tick)
	}
	f.hbTimer = f.env.After(f.cfg.HeartbeatEvery, tick)
}

// heartbeat reconciles the fleet's node view with the injector's quorum
// reachability view: a node is down when it crashed or when a majority
// of its live peers cannot reach it — so partitions and link cuts
// trigger the same restart/requeue recovery as crashes.
func (f *Fleet) heartbeat() {
	for n := 0; n < f.cfg.Nodes; n++ {
		up := fault.Up(f.cfg.Fault, n, f.cfg.Nodes)
		switch {
		case !up && !f.down[n]:
			f.handleNodeDown(n)
		case up && f.down[n]:
			f.handleNodeUp(n)
		}
	}
	f.verify()
}

// probeLoop is the message-based heartbeat: each tick sends a reliable
// probe to every node the quorum view considers up; a node whose probes
// come back unreachable probeMissThreshold times in a row is declared
// down on message evidence even before the view agrees, and a recovered
// node rejoins once a probe gets through again. Probes ride the same
// lossy fabric as everything else, so a drop storm can (correctly)
// produce false positives that heal on the next successful probe.
func (f *Fleet) probeLoop(p *sim.Proc) {
	misses := make([]int, f.cfg.Nodes)
	for {
		p.Sleep(f.cfg.HeartbeatEvery)
		if f.stopped || (f.cfg.Horizon > 0 && f.env.Now() > f.cfg.Horizon) {
			return
		}
		for n := 0; n < f.cfg.Nodes; n++ {
			up := fault.Up(f.cfg.Fault, n, f.cfg.Nodes)
			if up {
				if f.cfg.Probe.Send(p, f.cfg.ProbeFrom, n, probeBytes) != nil {
					misses[n]++
					f.stats.ProbeMisses++
				} else {
					misses[n] = 0
				}
			}
			down := !up || misses[n] >= probeMissThreshold
			switch {
			case down && !f.down[n]:
				f.handleNodeDown(n)
			case !down && f.down[n]:
				f.handleNodeUp(n)
			}
		}
		f.verify()
	}
}

// handleNodeDown fail-stops a node in the fleet's books: every fragment
// hosted there is lost and either restarted on surviving capacity (bound
// VMs additionally restore from their checkpoint) or, when the survivors
// cannot hold it, the whole VM returns to the admission queue with its
// remaining duration.
func (f *Fleet) handleNodeDown(node int) {
	f.down[node] = true
	f.stats.NodeFailures++
	f.log("node-down", -1, -1, node, 0, -1)

	var victims []int
	for id, pl := range f.placements {
		if pl[node] > 0 {
			victims = append(victims, id)
		}
	}
	sort.Ints(victims)
	for _, id := range victims {
		pl := f.placements[id]
		lost := pl[node]
		mpc := f.reqs[id].memPerCPU()
		// Bring work accrual current before the placement changes: the
		// vCPUs lost with the node ran at full membership until now.
		f.accrueWork(id)
		// The fragment is gone with the node; keep the dead node's books
		// whole so capacity is intact when it heals.
		delete(pl, node)
		f.freeCPU[node] += lost
		f.freeMem[node] += int64(lost) * mpc

		b := f.bound[id]
		if b != nil {
			b.markDead(node)
		}
		target, ok := f.replaceLost(id, node, lost)
		if !ok {
			if b != nil {
				panic(fmt.Sprintf("fleet: bound VM %d lost node %d and no survivor capacity remains", id, node))
			}
			f.requeue(id)
			continue
		}
		f.stats.Restarts++
		f.log("restart", id, node, -1, lost, -1)
		if b != nil {
			b.repinLost(node, target)
			f.env.Spawn(fmt.Sprintf("fleet-restore-%d", id), func(p *sim.Proc) {
				checkpoint.Restore(p, b.vm, b.img)
			})
		}
	}
	f.maintain()
}

// replaceLost gang-places a lost fragment's k vCPUs on surviving
// capacity, committing it into the VM's placement. It returns the
// replacement fragment map.
func (f *Fleet) replaceLost(vmID, deadNode, k int) (sched.Placement, bool) {
	pl := f.placements[vmID]
	mpc := f.reqs[vmID].memPerCPU()
	eff := f.effective(mpc)
	target, ok := f.placeFragment(eff, pl, deadNode, k)
	if !ok {
		return nil, false
	}
	for _, dst := range placementNodes(target) {
		c := target[dst]
		if f.down[dst] || f.freeCPU[dst] < c || f.freeMem[dst] < int64(c)*mpc {
			panic(fmt.Sprintf("fleet: restart placement of VM %d went stale", vmID))
		}
		f.freeCPU[dst] -= c
		f.freeMem[dst] -= int64(c) * mpc
		pl[dst] += c
	}
	f.syncLeases(vmID)
	return target, true
}

// requeue sends a VM that lost its node back to the admission queue with
// whatever duration it had left. Under resize the remainder comes from
// the exact work accounting (a ballooned VM got less done per second);
// otherwise the armed deadline is the remainder.
func (f *Fleet) requeue(vmID int) {
	r := f.reqs[vmID]
	hadDeadline := false
	if need, ok := f.workNeeded[vmID]; ok && f.cfg.Reclaim == ReclaimResize {
		f.accrueWork(vmID)
		rem := need - f.workDone[vmID]
		prov := int64(r.VCPUs)
		r.Duration = sim.Time((rem + prov - 1) / prov)
		hadDeadline = true
	} else if end, ok := f.endAt[vmID]; ok {
		r.Duration = end - f.env.Now()
		hadDeadline = true
	}
	r.Arrival = f.env.Now()
	f.release(vmID)
	f.stats.Requeues++
	f.log("requeue", vmID, -1, -1, r.VCPUs, -1)
	if hadDeadline && r.Duration <= 0 {
		return // it would have finished by now anyway
	}
	f.enqueue(r)
}

// handleNodeUp returns a healed node's capacity to the fleet.
func (f *Fleet) handleNodeUp(node int) {
	f.down[node] = false
	f.log("node-up", -1, -1, node, 0, -1)
	f.maintain()
}

// binding couples a fleet VM id to a live Aggregate VM: committed moves
// become real vCPU migrations, and failure recovery restarts the lost
// slices from the checkpoint image.
type binding struct {
	vm       *hypervisor.VM
	img      *checkpoint.Image
	nextPCPU map[int]int
}

// Bind attaches a live Aggregate VM to an admitted fleet VM and takes its
// checkpoint onto ckptNode's disk (blocking p for the checkpoint). From
// here on, every fleet decision about vmID drives the live VM: committed
// moves execute vCPU migrations, and a node failure restarts the lost
// slices on the replacement placement and restores memory from the image.
func (f *Fleet) Bind(p *sim.Proc, vmID int, live *hypervisor.VM, ckptNode int) {
	if _, ok := f.placements[vmID]; !ok {
		panic(fmt.Sprintf("fleet: binding unknown VM %d", vmID))
	}
	if f.bound[vmID] != nil {
		panic(fmt.Sprintf("fleet: VM %d already bound", vmID))
	}
	f.bound[vmID] = &binding{
		vm:       live,
		img:      checkpoint.Take(p, live, ckptNode),
		nextPCPU: map[int]int{},
	}
	f.epoch++ // bound borrowers change reclaim decisions but log no event
}

// migrate executes one committed move on the live VM: n of its vCPUs
// currently on from live-migrate to to.
func (b *binding) migrate(p *sim.Proc, from, to, n int) {
	moved := 0
	for id, node := range b.vm.VCPUNodes() {
		if node == from && moved < n {
			b.vm.MigrateVCPU(p, id, to, b.takePCPU(to))
			moved++
		}
	}
}

// markDead declares the slice failed on the live VM (idempotent).
func (b *binding) markDead(node int) {
	for _, n := range b.vm.Nodes() {
		if n == node && b.vm.Alive(node) {
			b.vm.MarkDead(node)
			return
		}
	}
}

// repinLost administratively re-pins the vCPUs stranded on the dead node
// onto the replacement fragments — the dead host cannot participate in
// live migration.
func (b *binding) repinLost(deadNode int, target sched.Placement) {
	var dsts []int
	for _, n := range placementNodes(target) {
		for i := 0; i < target[n]; i++ {
			dsts = append(dsts, n)
		}
	}
	di := 0
	for id, node := range b.vm.VCPUNodes() {
		if node != deadNode || di >= len(dsts) {
			continue
		}
		dst := dsts[di]
		di++
		pcpus := b.vm.Config().Cluster.Node(dst).PCPUs
		b.vm.VCPUs.Repin(id, dst, pcpus[b.takePCPU(dst)])
	}
}

// takePCPU hands out pCPU indices on a node round-robin.
func (b *binding) takePCPU(node int) int {
	k := len(b.vm.Config().Cluster.Node(node).PCPUs)
	idx := b.nextPCPU[node] % k
	b.nextPCPU[node]++
	return idx
}
