package repro

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/trace"
)

var updateGoldens = flag.Bool("update", false, "rewrite the fabric golden files under testdata/")

// The flat fabric (netsim.New, the default cluster interconnect) carries
// every figure run. These goldens pin what it produces end to end: the
// fig4 and fig14 tables exactly as `fragbench -fig X -scale 0.01` prints
// them, and the SHA-256 of the Chrome trace `fragtrace -experiment fig4
// -scale 0.005` writes (the trace itself is ~550 kB, so only its digest
// is checked in). A change to the fabric's timing, accounting, trace
// spans or event order shows up here as a byte diff. Run
// `go test -run FabricGolden -update .` to accept an intentional change.

// TestFabricGoldenTables compares the fig4 and fig14 text tables at
// scale 0.01, seed 42, against testdata/fabric_fig4_fig14.txt.
func TestFabricGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("fig14 skipped in -short mode")
	}
	var got bytes.Buffer
	for _, fig := range []string{"fig4", "fig14"} {
		tab, err := experiments.Run(fig, experiments.Options{Scale: 0.01, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "[%s]\n", fig)
		tab.Fprint(&got)
		fmt.Fprintln(&got)
	}
	checkGolden(t, "fabric_fig4_fig14.txt", got.Bytes())
}

// TestFabricGoldenTraceDigest compares the SHA-256 of the traced fig4
// run's Chrome export at scale 0.005, seed 42, against
// testdata/fabric_fig4_trace.sha256.
func TestFabricGoldenTraceDigest(t *testing.T) {
	sess := trace.NewSession()
	o := experiments.Options{Scale: 0.005, Seed: 42, Trace: sess, Acct: experiments.NewTraffic()}
	if _, err := experiments.Run("fig4", o); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sess.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	checkGolden(t, "fabric_fig4_trace.sha256", []byte(hex.EncodeToString(sum[:])+"\n"))
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGoldens {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from %s:\n--- got\n%s\n--- want\n%s", path,
			strings.TrimSpace(string(got)), strings.TrimSpace(string(want)))
	}
}
