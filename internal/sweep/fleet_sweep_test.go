package sweep_test

// Sweep-driven coverage of the fleet failure paths: the fleetchurn
// runner crashes a seeded node mid-run and heals it later, so every seed
// exercises handleNodeDown (fragment restart or whole-VM requeue) and
// handleNode (capacity handback on heal). The runner calls
// fleet.Verify() — the capacity/lease invariant verifier — before
// reporting, so any run that reaches a table passed verification at
// quiescence; a violation would panic and surface as a per-point error.

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/sweep"
)

func TestFleetChurnSweepExercisesFailurePaths(t *testing.T) {
	res, err := experiments.RunSweep(experiments.SweepSpec{
		Experiments: []string{"fleetchurn"},
		Scales:      []float64{0.05},
		Seeds:       sweep.Seeds(1, 5), // >= 3 seeds, per the harness contract
		Parallel:    4,
	})
	if err != nil {
		t.Fatal(err) // includes any invariant-verifier panic, per point
	}
	for _, r := range res.Runs {
		if r.Err != nil {
			t.Fatalf("%v: %v", r.Point, r.Err)
		}
		for metric, min := range map[string]float64{
			"node_failures": 1, // crash observed by the heartbeat
			"node_ups":      1, // heal handled (handleNode ran)
			"requeues":      1, // displaced VM took the requeue path
		} {
			if v := r.Values[metric]; v < min {
				t.Errorf("%v: %s = %v, want >= %v\n%s", r.Point, metric, v, min, r.Table)
			}
		}
	}

	// The aggregate view must see the same floor across every seed.
	g := res.Groups[0]
	for _, metric := range []string{"node_failures", "node_ups", "requeues"} {
		d := g.Dist(metric)
		if d == nil {
			t.Fatalf("aggregate lacks %s", metric)
		}
		if st := d.Stats(); st.N != 5 || st.Min < 1 {
			t.Errorf("aggregate %s stats = %+v, want N=5 Min>=1", metric, st)
		}
	}
}
