package repro

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/experiments"
)

// TestFaultDetectGolden pins both failure-detector paths end to end:
// the `recovery` table (the hypervisor heartbeat declaring a crashed
// lender and restarting from the checkpoint) and the `netstorm` table
// (the same heartbeat under drop storms and a ToR cut, plus the fleet's
// message probes under a storm and a host-link cut), at scale 0.02 and
// seeds 42 and 5, exactly as `fragbench -fig X -scale 0.02 -seed N`
// prints them, against testdata/fault_detect.txt. Run
// `go test -run FaultDetectGolden -update .` to accept an intentional
// change.
func TestFaultDetectGolden(t *testing.T) {
	var got bytes.Buffer
	for _, seed := range []int64{42, 5} {
		for _, fig := range []string{"recovery", "netstorm"} {
			tab, err := experiments.Run(fig, experiments.Options{Scale: 0.02, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "[%s seed=%d]\n", fig, seed)
			tab.Fprint(&got)
			fmt.Fprintln(&got)
		}
	}
	checkGolden(t, "fault_detect.txt", got.Bytes())
}
