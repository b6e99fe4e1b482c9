package fault

import "repro/internal/sim"

// MissThreshold is how many consecutive missed probes declare a node
// down. Two, so a single injected drop or delay of a probe (or of its
// reply) is not mistaken for a failure.
const MissThreshold = 2

// Verdict is one probe's outcome.
type Verdict int

const (
	// Reached: the probe got through; the node's miss count resets.
	Reached Verdict = iota
	// Missed: the probe timed out or came back unreachable; MissThreshold
	// of these in a row declare the node down.
	Missed
	// ViewDown: the liveness view already holds the node down, so it is
	// declared at once without a probe. Its miss count is left as is.
	ViewDown
)

// Detector is a running failure detector, as started by Detect.
type Detector struct {
	stop *sim.Event
}

// Stop ends the detector. A detector waiting for its next round wakes
// and exits at the current time; one mid-round finishes the round first.
// Stopping twice, or stopping a nil Detector, is harmless.
func (d *Detector) Stop() {
	if d != nil && !d.stop.Fired() {
		d.stop.Fire()
	}
}

// Detect spawns the failure detector, one sim proc named name. Every
// `every` it probes nodes in order and keeps each node's consecutive
// misses; a node is down once its probe says ViewDown or it has missed
// MissThreshold probes in a row, and up again on its next Reached probe.
// Each up/down change is reported to change as soon as it is found, and
// round runs after every round. The detector exits on Stop or, when
// horizon is positive, on the first wake past horizon — so a round that
// lands exactly on the horizon still runs. every must be positive.
func Detect(env *sim.Env, name string, every, horizon sim.Time, nodes []int,
	probe func(p *sim.Proc, node int) Verdict,
	change func(node int, up bool),
	round func(p *sim.Proc)) *Detector {
	d := &Detector{stop: env.NewEvent()}
	env.Spawn(name, func(p *sim.Proc) {
		misses := make([]int, len(nodes))
		down := make([]bool, len(nodes))
		for !p.WaitTimeout(d.stop, every) && (horizon <= 0 || p.Now() <= horizon) {
			for i, n := range nodes {
				v := probe(p, n)
				switch v {
				case Reached:
					misses[i] = 0
				case Missed:
					misses[i]++
				}
				if isDown := v == ViewDown || misses[i] >= MissThreshold; isDown != down[i] {
					down[i] = isDown
					change(n, !isDown)
				}
			}
			round(p)
		}
	})
	return d
}
