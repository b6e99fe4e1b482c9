package fault

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// scripted runs a detector over one node whose probe answers verdicts[k]
// in round k (Reached once the script runs out) and returns the reported
// changes as "round:up|down" strings.
func scripted(t *testing.T, verdicts ...Verdict) []string {
	t.Helper()
	env := sim.NewEnv()
	rounds := 0
	var got []string
	probe := func(p *sim.Proc, node int) Verdict {
		if rounds < len(verdicts) {
			return verdicts[rounds]
		}
		return Reached
	}
	change := func(node int, up bool) {
		state := "down"
		if up {
			state = "up"
		}
		got = append(got, fmt.Sprintf("%d:%s", rounds, state))
	}
	round := func(*sim.Proc) { rounds++ }
	Detect(env, "detector", sim.Millisecond, sim.Time(len(verdicts)+1)*sim.Millisecond,
		[]int{7}, probe, change, round)
	env.Run()
	return got
}

func TestDetectMissThreshold(t *testing.T) {
	if MissThreshold != 2 {
		t.Fatalf("MissThreshold = %d; the scripts below assume 2", MissThreshold)
	}
	cases := []struct {
		name     string
		verdicts []Verdict
		want     []string
	}{
		{"one miss is not a failure", []Verdict{Missed}, nil},
		{"threshold misses in a row declare down, then heal", []Verdict{Missed, Missed}, []string{"1:down", "2:up"}},
		{"a reached probe resets the count", []Verdict{Missed, Reached, Missed, Reached}, nil},
		{"misses past the threshold stay down", []Verdict{Missed, Missed, Missed, Missed}, []string{"1:down", "4:up"}},
		{"view down declares at once", []Verdict{ViewDown}, []string{"0:down", "1:up"}},
		{"view down keeps the miss count", []Verdict{Missed, ViewDown, Missed}, []string{"1:down", "3:up"}},
	}
	for _, c := range cases {
		if got := scripted(t, c.verdicts...); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: changes %v, want %v", c.name, got, c.want)
		}
	}
}

// TestDetectReportsInline checks changes are reported as each node is
// probed, in node order, before the round hook runs.
func TestDetectReportsInline(t *testing.T) {
	env := sim.NewEnv()
	var log []string
	probe := func(p *sim.Proc, node int) Verdict {
		log = append(log, fmt.Sprintf("probe %d", node))
		if node == 3 {
			return ViewDown
		}
		return Reached
	}
	change := func(node int, up bool) { log = append(log, fmt.Sprintf("change %d %v", node, up)) }
	round := func(*sim.Proc) { log = append(log, "round") }
	Detect(env, "detector", sim.Millisecond, sim.Millisecond, []int{1, 3, 5}, probe, change, round)
	env.Run()
	want := []string{"probe 1", "probe 3", "change 3 false", "probe 5", "round"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("round trace %v, want %v", log, want)
	}
}

// TestDetectStop stops a detector between rounds: it exits at the stop
// time, runs no further round, and leaves nothing for env.Run to drain.
func TestDetectStop(t *testing.T) {
	env := sim.NewEnv()
	var rounds []sim.Time
	d := Detect(env, "detector", 2*sim.Millisecond, 0, []int{1},
		func(*sim.Proc, int) Verdict { return Reached },
		func(int, bool) { t.Fatal("no change expected") },
		func(p *sim.Proc) { rounds = append(rounds, p.Now()) })
	stopAt := 5 * sim.Millisecond
	env.At(stopAt, d.Stop)
	env.Run()
	if want := []sim.Time{2 * sim.Millisecond, 4 * sim.Millisecond}; !reflect.DeepEqual(rounds, want) {
		t.Fatalf("rounds at %v, want %v", rounds, want)
	}
	if env.Now() != stopAt {
		t.Fatalf("env drained at %v, want the stop time %v", env.Now(), stopAt)
	}
	if live := env.LiveProcs(); len(live) != 0 {
		t.Fatalf("live procs after stop: %v", live)
	}
	d.Stop() // a second stop is a no-op
}

// TestDetectHorizon runs a detector whose horizon is a whole number of
// intervals: the round that lands exactly on the horizon runs, the next
// wake exits.
func TestDetectHorizon(t *testing.T) {
	env := sim.NewEnv()
	var rounds []sim.Time
	Detect(env, "detector", 2*sim.Millisecond, 6*sim.Millisecond, []int{1},
		func(*sim.Proc, int) Verdict { return Reached },
		func(int, bool) {},
		func(p *sim.Proc) { rounds = append(rounds, p.Now()) })
	env.Run()
	want := []sim.Time{2 * sim.Millisecond, 4 * sim.Millisecond, 6 * sim.Millisecond}
	if !reflect.DeepEqual(rounds, want) {
		t.Fatalf("rounds at %v, want %v", rounds, want)
	}
	if live := env.LiveProcs(); len(live) != 0 {
		t.Fatalf("live procs past the horizon: %v", live)
	}
}
