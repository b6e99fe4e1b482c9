package experiments

import (
	"repro/internal/cluster"
	"repro/internal/fleet"
	"repro/internal/hypervisor"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workload"
)

func init() { register("fleettopo", FleetTopo) }

// FleetTopo shows network locality mattering to aggregation, on a 2-rack
// tree (2 nodes per rack) with a 4:1 oversubscribed spine: each ToR
// uplink carries 2×56/4 = 28 Gbps, and a cross-rack message crosses four
// links instead of two.
//
// Data plane: the Fig 4 true-sharing loop on a 2-vCPU Aggregate VM,
// placed once rack-local (nodes 0,1 — DSM traffic never leaves the ToR)
// and once cross-spine (nodes 0,2 — every DSM fault pays two extra hops
// through the 28 Gbps uplinks). Same workload, same seed; only the
// placement differs. The table reports both makespans, the slowdown
// ratio, and the traffic the spine links carried.
//
// Control plane: two fleets replay the same arrival trace on that
// cluster's shape (8 CPUs per node). Departures leave fragmented free
// capacity of [5 0 3 6] CPUs, and an 8-vCPU request must be gang-placed.
// The blind fleet (no distance oracle) picks {n0, n3} — a spine-
// straddling gang — because capacity alone cannot distinguish n0 from
// the rack-local n2. The topology-aware fleet (Config.Distance =
// topo.Spec.Distance) picks {n2, n3}, keeping the gang inside rack 1.
func FleetTopo(o Options) *metrics.Table {
	spec := topo.TreeSpec(2, 2, 4)
	iters := int(2000 * o.Scale * 10)
	if iters < 100 {
		iters = 100
	}

	run := func(label string, nodes []int) (sim.Time, *netsim.Net) {
		env := o.newEnv("fleettopo/" + label)
		p := o.params()
		p.Topo = spec
		c := o.observe("fleettopo-"+label, cluster.New(env, 4, p))
		vm := hypervisor.New(hypervisor.FragVisorConfig(c,
			hypervisor.SpreadPlacement(nodes, len(nodes)), guestMem))
		elapsed := workload.SharingLoop(vm, workload.TrueSharing, iters)
		return elapsed, c.Fabric
	}
	local, _ := run("rack-local", []int{0, 1})
	cross, fab := run("cross-spine", []int{0, 2})
	spineBytes := int64(0)
	for _, l := range fab.LinkStats() {
		if l.Gbps < 56 { // the oversubscribed ToR uplinks
			spineBytes += l.Bytes
		}
	}

	t := metrics.NewTable("fleettopo: rack-local vs cross-spine aggregation ("+spec.String()+" spine)",
		"placement", "distance", "loop-time", "vs-local", "spine-bytes")
	t.AddRow("n0+n1 (rack-local)", spec.Distance(0, 1), local, 1.0, 0)
	t.AddRow("n0+n2 (cross-spine)", spec.Distance(0, 2), cross, metrics.Ratio(cross, local), spineBytes)

	// Control plane: same trace, with and without the distance oracle.
	blindPl, _ := fleetTopoPlan(o, nil)
	awarePl, awareSt := fleetTopoPlan(o, spec.Distance)
	t.AddNote("gang placement of the 8-vCPU request over free=[5 0 3 6]: blind fleet -> %s (span %d); topology-aware fleet -> %s (span %d)",
		placementString(blindPl), blindPl.Span(spec.Distance),
		placementString(awarePl), awarePl.Span(spec.Distance))
	t.AddNote("topology-aware fleet gang accounting: %d rack-local, %d cross-spine (of %d gangs)",
		awareSt.LocalGangs, awareSt.CrossGangs, awareSt.Gangs)
	t.AddNote("the oversubscribed spine makes the cross-rack loop measurably slower; the distance oracle keeps gangs off it at zero capacity cost")
	return t
}

// fleetTopoPlan replays the fleettopo arrival trace against one fleet
// configuration and returns the placement the late 8-vCPU gang request
// received. Arrivals fill the four 8-CPU nodes via best-fit; the short
// VMs (a2, c2, d2) depart after ts(10), leaving free=[5 0 3 6], and the
// gang request E arrives into exactly that fragmentation.
func fleetTopoPlan(o Options, dist sched.DistanceFunc) (sched.Placement, fleet.Stats) {
	label := "blind"
	if dist != nil {
		label = "aware"
	}
	ts := func(seconds float64) sim.Time { return sim.FromSeconds(seconds * o.Scale * 10) }
	env := o.newEnv("fleettopo/plan-" + label)
	f := fleet.New(env, fleet.Config{
		Nodes: 4, CPUsPerNode: 8, MemPerNode: 32 << 30,
		Policy: sched.MinNodes, Horizon: ts(30), Distance: dist,
	})
	const gangID = 100
	long, short := ts(400), ts(10)
	mem := func(v int) int64 { return int64(v) << 30 }
	f.Submit([]fleet.Request{
		{ID: 1, VCPUs: 3, MemBytes: mem(3), Arrival: ts(1), Duration: long},  // n0
		{ID: 2, VCPUs: 5, MemBytes: mem(5), Arrival: ts(2), Duration: short}, // n0, departs
		{ID: 3, VCPUs: 8, MemBytes: mem(8), Arrival: ts(3), Duration: long},  // n1
		{ID: 4, VCPUs: 5, MemBytes: mem(5), Arrival: ts(4), Duration: long},  // n2
		{ID: 5, VCPUs: 3, MemBytes: mem(3), Arrival: ts(5), Duration: short}, // n2, departs
		{ID: 6, VCPUs: 2, MemBytes: mem(2), Arrival: ts(6), Duration: long},  // n3
		{ID: 7, VCPUs: 6, MemBytes: mem(6), Arrival: ts(7), Duration: short}, // n3, departs
		{ID: gangID, VCPUs: 8, MemBytes: mem(8), Arrival: ts(20), Duration: long},
	})
	env.RunUntil(ts(25))
	env.Stop()
	f.Verify()
	pl := f.PlacementOf(gangID)
	if pl == nil {
		panic("experiments: fleettopo gang request was not admitted")
	}
	return pl, f.Stats()
}
