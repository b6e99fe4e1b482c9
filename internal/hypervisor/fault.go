// Failure detection and recovery for Aggregate VMs. An Aggregate VM
// borrows resources from lender nodes, so a lender crash takes a slice of
// the VM with it. The bootstrap slice detects the loss through heartbeat
// timeouts, declares the slice dead, reconciles the DSM, and (with package
// checkpoint) restarts the VM on the surviving slices — the recovery story
// of §6.4.
package hypervisor

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Alive reports whether a slice node is still considered part of the VM.
func (vm *VM) Alive(node int) bool { return !vm.dead[node] }

// AliveNodes returns the surviving slice nodes, bootstrap first.
func (vm *VM) AliveNodes() []int {
	var out []int
	for _, n := range vm.nodes {
		if !vm.dead[n] {
			out = append(out, n)
		}
	}
	return out
}

// FaultCounters returns the VM's recovery counters. When Config.Fault is
// set these are the injector's counters, so fault activity and recovery
// accounting render as one deterministic table.
func (vm *VM) FaultCounters() *metrics.Counters { return vm.ctr }

// MarkDead declares a slice failed: it is excluded from future heartbeats
// and checkpoints, and the DSM re-homes everything it owned. The bootstrap
// slice cannot die in this model — it holds the DSM directory, and the
// paper restarts from its checkpoint rather than re-electing a directory.
func (vm *VM) MarkDead(node int) {
	if vm.dead[node] {
		return
	}
	if node == vm.nodes[0] {
		panic("hypervisor: the bootstrap slice cannot be marked dead")
	}
	found := false
	for _, n := range vm.nodes {
		found = found || n == node
	}
	if !found {
		panic(fmt.Sprintf("hypervisor: node %d is not a slice of this VM", node))
	}
	vm.dead[node] = true
	vm.ctr.Inc("recover.dead_slices", 1)
	vm.DSM.MarkDead(node)
}

// StartHeartbeat spawns the failure detector (fault.Detect): the
// bootstrap slice pings every live companion slice each interval and
// declares a slice dead after fault.MissThreshold consecutive reply
// timeouts, invoking onFailure (which may block — recovery runs in the
// detector's process). The detector loops until the returned handle's
// Stop, so a test that drives the event loop directly must stop it or the
// simulation never drains.
//
// Detection is batched per round: every live companion is pinged before
// any newly-missing slice is declared and recovered. Recovery can block
// for a long time (a checkpoint restore moves the whole image), and
// declaring mid-round would starve detection of the other slices lost to
// the same event — a rack cut kills several at once, and a detector that
// recovers the first before even probing the second may find the fault
// healed and never declare it, deadlocking anything waiting on the full
// death count.
func (vm *VM) StartHeartbeat(interval, timeout sim.Time, onFailure func(p *sim.Proc, node int)) *fault.Detector {
	if interval <= 0 || timeout <= 0 {
		panic("hypervisor: heartbeat needs a positive interval and timeout")
	}
	svc := vcpuService(vm)
	var lost []int
	probe := func(p *sim.Proc, n int) fault.Verdict {
		if vm.dead[n] {
			return fault.ViewDown
		}
		if _, err := vm.Layer.CallTimeout(p, vm.nodes[0], n, svc, "ping", 64, nil, timeout); err != nil {
			vm.ctr.Inc("hb.miss", 1)
			return fault.Missed
		}
		return fault.Reached
	}
	change := func(n int, up bool) {
		if !up && !vm.dead[n] {
			lost = append(lost, n)
		}
	}
	// Declare the whole batch before recovering any member: the survivors'
	// view is settled first, so recovery (which may send to every alive
	// slice) never targets a slice that is about to be declared dead.
	round := func(p *sim.Proc) {
		for _, n := range lost {
			vm.ctr.Inc("hb.declared_dead", 1)
			vm.MarkDead(n)
		}
		for _, n := range lost {
			if onFailure != nil {
				onFailure(p, n)
			}
		}
		lost = lost[:0]
	}
	return fault.Detect(vm.Env, "heartbeat", interval, 0, vm.nodes[1:], probe, change, round)
}

// RestartOnSurvivors re-pins every vCPU hosted by dead slices onto the
// surviving nodes round-robin (administratively — the dead host cannot
// participate in live migration), returning how many vCPUs moved. Combine
// with checkpoint.Restore to rebuild their memory image.
func (vm *VM) RestartOnSurvivors() int {
	survivors := vm.AliveNodes()
	moved := 0
	next := make(map[int]int)
	for i := 0; i < vm.VCPUs.N(); i++ {
		if vm.Alive(vm.VCPUs.NodeOf(i)) {
			continue
		}
		dst := survivors[moved%len(survivors)]
		pcpus := vm.cfg.Cluster.Node(dst).PCPUs
		vm.VCPUs.Repin(i, dst, pcpus[next[dst]%len(pcpus)])
		next[dst]++
		moved++
	}
	vm.ctr.Inc("recover.vcpus_moved", int64(moved))
	return moved
}
