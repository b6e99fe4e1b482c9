package dsm

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// TestProtocolGolden pins the DSM protocol's exact message sequence in
// three worlds against testdata/protocol.golden: the fault-free
// reference-memory program, the same program on the retrying protocol
// over a lossy fabric, and a fetch whose requester and then owner crash
// before it completes. Each line holds a digest of every message offered
// to the messaging layer (virtual time, endpoints, service and kind),
// the event and proc counts, the final DSM stats and the Validate verdict.
// Run with -update to accept an intentional protocol change.
func TestProtocolGolden(t *testing.T) {
	var got bytes.Buffer
	for _, seed := range []int64{1, 2, 3} {
		rec := &msgRecorder{}
		env, d, diverged := referenceProgram(DefaultParams(), seed, func(d *DSM, _ int64) {
			rec.env = d.env
			d.layer.SetFilter(rec)
		})
		if diverged != "" {
			t.Fatalf("reliable seed %d: %s", seed, diverged)
		}
		fmt.Fprintf(&got, "reliable seed=%d %s\n", seed, rec.summary(env, d))
	}
	for _, seed := range []int64{1, 2, 3} {
		rec := &msgRecorder{}
		f := &lossyFabric{}
		env, d, diverged := referenceProgram(retryParams(), seed, func(d *DSM, seed int64) {
			f.rng = rand.New(rand.NewSource(seed))
			rec.env, rec.inner = d.env, f
			d.layer.Net().SetFilter(f)
			d.layer.SetFilter(rec)
		})
		if diverged != "" {
			t.Fatalf("lossy seed %d: %s", seed, diverged)
		}
		fmt.Fprintf(&got, "lossy seed=%d %s\n", seed, rec.summary(env, d))
	}
	env, d, rec := crashMidFetch(t)
	fmt.Fprintf(&got, "crash %s\n", rec.summary(env, d))

	path := filepath.Join("testdata", "protocol.golden")
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
				t.Fatalf("%s line %d:\ngot  %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
	}
}

// retryParams is the fault-tolerant protocol with timeouts short enough
// that lost messages are re-sent within a few fabric round trips.
func retryParams() Params {
	p := DefaultParams()
	p.Retry = msg.RetryPolicy{
		Timeout:    60 * sim.Microsecond,
		Backoff:    5 * sim.Microsecond,
		MaxBackoff: 40 * sim.Microsecond,
	}
	return p
}

// msgRecorder is a msg.Filter that hashes every message offered to the
// layer and then defers to inner (if any) for the verdict.
type msgRecorder struct {
	env   *sim.Env
	inner msg.Filter
	n     int
	h     uint64
	seen  func(from, to int, kind string)
}

func (r *msgRecorder) MsgOutcome(from, to int, service, kind string) msg.MsgOutcome {
	h := fnv.New64a()
	fmt.Fprintf(h, "%x %d %d %d %s %s", r.h, int64(r.env.Now()), from, to, service, kind)
	r.h = h.Sum64()
	r.n++
	if r.seen != nil {
		r.seen(from, to, kind)
	}
	if r.inner != nil {
		return r.inner.MsgOutcome(from, to, service, kind)
	}
	return msg.MsgOutcome{}
}

// summary renders one golden line for a finished world.
func (r *msgRecorder) summary(env *sim.Env, d *DSM) string {
	return fmt.Sprintf("messages=%d digest=%016x now=%d events=%d procs=%d live=%v stats=%+v validate=%v",
		r.n, r.h, int64(env.Now()), env.Scheduled(), env.Spawned(), env.LiveProcs(), d.TotalStats(), d.Validate())
}

// crashView is a liveness view and a fabric filter: crashed nodes send
// and receive nothing.
type crashView map[int]bool

func (c crashView) NodeAlive(node int) bool { return !c[node] }

func (c crashView) Outcome(from, to, size int) netsim.Outcome {
	return netsim.Outcome{Drop: c[from] || c[to]}
}

// crashMidFetch runs four nodes on the retrying protocol. Node 2 writes
// page 7 and so owns it; node 1 then reads it. The requester crashes when
// the directory's fetch to node 2 is sent, and the owner crashes when its
// reply is, so the fabric drops the reply: the directory's fetch fails
// over to the origin's replica and its grant to the dead requester gives
// up. MarkDead then fences both, and node 3 writes and reads the page
// while node 0 reads it.
func crashMidFetch(t *testing.T) (*sim.Env, *DSM, *msgRecorder) {
	t.Helper()
	env, d := newTestDSM(4, retryParams())
	crashed := crashView{}
	d.SetFaultView(crashed)
	d.layer.Net().SetFilter(crashed)
	rec := &msgRecorder{env: env}
	rec.seen = func(from, to int, kind string) {
		switch kind {
		case "fetch":
			crashed[1] = true
		case "fetch.reply":
			crashed[2] = true
		}
	}
	d.layer.SetFilter(rec)
	const pg = mem.PageID(7)
	var final0, final3 []byte
	run(env, func(p *sim.Proc) {
		d.Write(p, 2, pg, 0, []byte("owner"))
		d.Read(p, 1, pg)
		p.Sleep(sim.Millisecond)
		d.MarkDead(1)
		d.MarkDead(2)
		d.Write(p, 3, pg, 8, []byte("survivor"))
		final3 = d.Read(p, 3, pg)
		final0 = d.Read(p, 0, pg)
	})
	if !crashed[1] || !crashed[2] {
		t.Fatalf("crashes not triggered: %v", crashed)
	}
	if !bytes.Equal(final0, final3) || string(final3[8:16]) != "survivor" {
		t.Fatalf("survivors disagree after MarkDead: node 0 %q, node 3 %q", final0[:16], final3[:16])
	}
	return env, d, rec
}
