package netsim_test

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// TestFlatEquivalence drives a fixed pseudo-random 500-message sequence
// through a flat fabric built by netsim.New and compares every returned
// and realized arrival time, the fabric-wide Stats and the Endpoints set
// against testdata/flat_sends.golden. Run with -update to accept an
// intentional change to the flat fabric's semantics.
func TestFlatEquivalence(t *testing.T) {
	const (
		lat   = 1500 * sim.Nanosecond
		gbps  = 56
		sends = 500
	)
	rng := rand.New(rand.NewSource(99))
	env := sim.NewEnv()
	fab := netsim.New(env, "fabric", lat, gbps)
	var got bytes.Buffer
	arrivals := make([]sim.Time, 0, 2*sends)
	for i := 0; i < sends; i++ {
		from, to, size := rng.Intn(4), rng.Intn(4), 1+rng.Intn(1<<16)
		at := fab.Send(from, to, size, func() { arrivals = append(arrivals, env.Now()) })
		arrivals = append(arrivals, at)
	}
	env.Run()
	fmt.Fprintf(&got, "stats %+v\n", fab.Stats())
	fmt.Fprintf(&got, "endpoints %v\n", fab.Endpoints())
	for _, at := range arrivals {
		fmt.Fprintf(&got, "%d\n", int64(at))
	}

	path := filepath.Join("testdata", "flat_sends.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("%s line %d: got %q, want %q", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
	}
}
