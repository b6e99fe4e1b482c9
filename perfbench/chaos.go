package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"reflect"
	"time"

	"repro/internal/chaos"
)

// One chaos unit is a batch of chaosBatch generated episodes over all
// four chaos workloads; one op is one episode.
const (
	chaosBatch = 200
	chaosScale = 0.02
)

// oracleNames are the verdict names a chaos episode can report.
var oracleNames = []string{
	chaos.OracleProgress, chaos.OracleCoherence, chaos.OracleConservation,
	chaos.OracleExactlyOnce, chaos.OracleFabric, chaos.OraclePanic,
}

// warmEpisode is the fixed vm-recovery episode set-up runs (the one
// cmd/fragperf's chaos-episode micro times), so set-up cost does not
// depend on the seed.
var warmEpisode = chaos.Generate(chaos.Config{Episodes: 1, Seed: 1, Workloads: []string{chaos.WorkloadVM}})[0]

// chaosRun runs episodes sequentially with chaos.Run, timing each.
// Shrinking is not part of the timed work. An episode with any violation
// is a failed op; unit 0's violating episodes are re-run after timing
// and must reproduce their verdicts exactly.
type chaosRun struct {
	seed     int64
	batch    int      // episodes per unit
	verdicts []string // verdict digest per unit, from the untraced phase

	vmMs, fleetMs []float64 // untraced per-episode CPU times by workload family

	unit0      map[string]int  // unit 0's violations per oracle
	violating  []chaos.Episode // unit 0's violating episodes
	violations [][]chaos.Violation
}

func newChaos(seed int64) *chaosRun {
	return &chaosRun{seed: seed, batch: chaosBatch, unit0: map[string]int{}}
}

func (c *chaosRun) config(seed int64) chaos.Config {
	return chaos.Config{Episodes: c.batch, Seed: seed, Scale: chaosScale}
}

func (c *chaosRun) setUp(t *tally) {
	chaos.Generate(c.config(c.seed))
	if vs := chaos.Run(warmEpisode, chaos.Hooks{}); len(vs) != 0 {
		t.problem("chaos warm-up episode violated: %v", vs)
	}
}

func (c *chaosRun) nominal() time.Duration { return 3300 * time.Millisecond }

func (c *chaosRun) run(k int, traced bool, t *tally) cost {
	unit := t.log.begin("batch", t.parent)
	defer t.log.end(unit)
	eps := chaos.Generate(c.config(subSeed(c.seed, k)))
	h := sha256.New()
	var total cost
	for _, ep := range eps {
		id := t.log.begin("chaos.Run:"+ep.Workload, unit)
		sw := startWatch()
		vs := chaos.Run(ep, chaos.Hooks{})
		d := sw.lap()
		t.log.end(id)
		total.add(d)
		t.attempted++
		fmt.Fprintf(h, "%d %v\n", ep.Index, vs)
		if len(vs) > 0 {
			t.failed++
		}
		if traced {
			continue
		}
		t.ops.add(ms(d.cpu))
		if ep.Workload == chaos.WorkloadVM {
			c.vmMs = append(c.vmMs, ms(d.cpu))
		} else {
			c.fleetMs = append(c.fleetMs, ms(d.cpu))
		}
		if k == 0 && len(vs) > 0 {
			for _, v := range vs {
				c.unit0[v.Oracle]++
			}
			c.violating = append(c.violating, ep)
			c.violations = append(c.violations, vs)
			fmt.Fprintf(os.Stderr, "perfbench: chaos %s: %v\n", ep, vs)
		}
	}
	d := hex.EncodeToString(h.Sum(nil)[:8])
	if traced {
		if k < len(c.verdicts) && c.verdicts[k] != d {
			t.problem("chaos batch %d: verdicts differ between untraced and traced runs", k)
		}
	} else {
		c.verdicts = append(c.verdicts, d)
	}
	return total
}

// report re-runs unit 0's violating episodes first: each must reproduce
// its verdict exactly, or the run is incorrect.
func (c *chaosRun) report(t *tally, layer map[string]float64, info map[string]any) {
	for i, ep := range c.violating {
		if vs := chaos.Run(ep, chaos.Hooks{}); !reflect.DeepEqual(vs, c.violations[i]) {
			t.problem("chaos %s: verdict did not reproduce: %v then %v", ep, c.violations[i], vs)
		}
	}
	h := sha256.New()
	for _, d := range c.verdicts {
		h.Write([]byte(d))
	}
	info["digest"] = hex.EncodeToString(h.Sum(nil)[:8])
	info["vm_episodes"] = len(c.vmMs)
	info["fleet_episodes"] = len(c.fleetMs)
	info["unit0_violating_episodes"] = len(c.violating)
	layer["chaos.vm_episode_p50_ms"] = median(c.vmMs)
	layer["chaos.fleet_episode_p50_ms"] = median(c.fleetMs)
	for _, o := range oracleNames {
		layer["chaos.violations."+o] = float64(c.unit0[o])
	}
}
