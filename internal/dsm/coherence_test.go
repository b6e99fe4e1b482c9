package dsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// TestCoherenceAgainstReferenceMemory is the central DSM property test:
// for any sequentially-issued program of reads and writes from arbitrary
// nodes, every read must observe exactly what a single flat memory would —
// the protocol may move and replicate pages, but never lose or reorder
// data.
func TestCoherenceAgainstReferenceMemory(t *testing.T) {
	checkAgainstReferenceMemory(t, DefaultParams(), nil)
}

// TestCoherenceAgainstReferenceMemoryUnderFaults runs the same property on
// the fault-tolerant protocol over a fabric that drops, delays and
// duplicates messages. Grants then reach handleOwner again after their
// install — duplicated, re-sent after a lost ack, or overtaken by their own
// duplicate — while the snapshot they carry has already been retired,
// poisoned (see newTestDSM) and perhaps reused. Reads must still match the
// flat memory and the directory must validate.
func TestCoherenceAgainstReferenceMemoryUnderFaults(t *testing.T) {
	f := &lossyFabric{}
	checkAgainstReferenceMemory(t, retryParams(), func(d *DSM, seed int64) {
		f.rng = rand.New(rand.NewSource(seed))
		d.layer.Net().SetFilter(f)
		d.layer.SetFilter(f)
	})
	if f.dropped == 0 || f.delayed == 0 || f.duplicated == 0 {
		t.Errorf("%d drops, %d delays, %d duplicates injected, want some of each", f.dropped, f.delayed, f.duplicated)
	}
	t.Logf("%d drops, %d delays, %d duplicates injected", f.dropped, f.delayed, f.duplicated)
}

// lossyFabric drops, delays and duplicates messages at random: as a
// netsim.Filter it rules on every fabric message, as a msg.Filter it
// duplicates grants and fetches. A duplicated fetch makes a snapshot that
// is never installed. Delays stay under half the retry timeout, so a
// delayed request is answered before its sender re-sends it.
//
// inv and invfetch are not duplicated: a copy that lands after the page
// lock is released invalidates a replica its node has since regained,
// which the protocol does not guard against.
type lossyFabric struct {
	rng                          *rand.Rand
	dropped, delayed, duplicated int
}

func (f *lossyFabric) Outcome(from, to, size int) netsim.Outcome {
	switch r := f.rng.Intn(16); {
	case r == 0:
		f.dropped++
		return netsim.Outcome{Drop: true}
	case r < 5:
		f.delayed++
		return netsim.Outcome{Delay: sim.Time(1+f.rng.Intn(20)) * sim.Microsecond}
	}
	return netsim.Outcome{}
}

func (f *lossyFabric) MsgOutcome(from, to int, service, kind string) msg.MsgOutcome {
	if (kind != "grant" && kind != "fetch") || f.rng.Intn(3) != 0 {
		return msg.MsgOutcome{}
	}
	f.duplicated++
	return msg.MsgOutcome{Duplicate: true}
}

// checkAgainstReferenceMemory runs random sequential read/write programs
// against a DSM with the given parameters (after inject, if non-nil, has
// installed its faults) and fails the test when a read differs from a flat
// reference memory or the final directory state does not validate.
func checkAgainstReferenceMemory(t *testing.T, params Params, inject func(d *DSM, seed int64)) {
	prop := func(seed int64) bool {
		_, d, diverged := referenceProgram(params, seed, inject)
		if diverged != "" {
			t.Logf("seed %d: %s", seed, diverged)
			return false
		}
		if err := d.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// referenceProgram runs the seeded 200-operation read/write program of
// checkAgainstReferenceMemory to completion on a fresh DSM of 2 to 4
// nodes. It returns the environment, the DSM and a description of the
// first read that diverged from the flat reference memory ("" if none).
func referenceProgram(params Params, seed int64, inject func(d *DSM, seed int64)) (*sim.Env, *DSM, string) {
	rng := rand.New(rand.NewSource(seed))
	nNodes := 2 + rng.Intn(3)
	env, d := newTestDSM(nNodes, params)
	if inject != nil {
		inject(d, seed)
	}
	ref := make(map[mem.PageID][]byte)
	diverged := ""
	run(env, func(p *sim.Proc) {
		for op := 0; op < 200; op++ {
			node := rng.Intn(nNodes)
			pg := mem.PageID(rng.Intn(8)) // few pages: force sharing
			off := rng.Intn(mem.PageSize - 8)
			if rng.Intn(2) == 0 {
				var buf [8]byte
				binary.LittleEndian.PutUint64(buf[:], rng.Uint64())
				d.Write(p, node, pg, off, buf[:])
				page, found := ref[pg]
				if !found {
					page = make([]byte, mem.PageSize)
					ref[pg] = page
				}
				copy(page[off:], buf[:])
			} else {
				got := d.Read(p, node, pg)
				want, found := ref[pg]
				if !found {
					want = make([]byte, mem.PageSize)
				}
				if !bytes.Equal(got, want) {
					diverged = fmt.Sprintf("op %d: node %d read of page %d diverges from reference memory", op, node, pg)
					return
				}
			}
		}
	})
	return env, d, diverged
}

// TestSingleWriterInvariant checks that after any concurrent workload, each
// page has exactly one owner whose copyset contains it, and no node holds
// an Exclusive replica of a page whose copyset lists other holders.
func TestSingleWriterInvariant(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nNodes := 2 + rng.Intn(3)
		env, d := newTestDSM(nNodes, DefaultParams())
		const pages = 6
		for w := 0; w < nNodes; w++ {
			w := w
			ops := 30 + rng.Intn(40)
			seq := make([]struct {
				pg    mem.PageID
				write bool
			}, ops)
			for i := range seq {
				seq[i].pg = mem.PageID(rng.Intn(pages))
				seq[i].write = rng.Intn(3) > 0
			}
			env.Spawn("worker", func(p *sim.Proc) {
				for _, op := range seq {
					d.Touch(p, w, op.pg, op.write)
					p.Sleep(sim.Time(rng.Intn(1000)))
				}
			})
		}
		env.Run()
		for pg := mem.PageID(0); pg < pages; pg++ {
			owner, copyset, found := d.DirEntry(pg)
			if !found {
				continue
			}
			inCopyset := false
			for _, n := range copyset {
				if n == owner {
					inCopyset = true
				}
			}
			if !inCopyset {
				return false
			}
			exclusives := 0
			validCopies := 0
			for node := 0; node < nNodes; node++ {
				switch d.PageState(node, pg) {
				case Exclusive:
					exclusives++
					validCopies++
				case Shared:
					validCopies++
				}
			}
			if exclusives > 1 {
				return false
			}
			if exclusives == 1 && len(copyset) != 1 {
				return false
			}
			// Every node in the copyset must hold a valid replica.
			if validCopies < len(copyset) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestNoLostUpdates runs concurrent writers to distinct offsets of the same
// page and checks every write survives — the protocol must transfer page
// contents with ownership, not re-zero them.
func TestNoLostUpdates(t *testing.T) {
	env, d := newTestDSM(4, DefaultParams())
	pg := mem.PageID(0)
	const perNode = 16
	for node := 0; node < 4; node++ {
		node := node
		env.Spawn("writer", func(p *sim.Proc) {
			for i := 0; i < perNode; i++ {
				off := node*1024 + i*8
				var buf [8]byte
				binary.LittleEndian.PutUint64(buf[:], uint64(node*1000+i+1))
				d.Write(p, node, pg, off, buf[:])
				p.Sleep(sim.Time(node+1) * sim.Microsecond)
			}
		})
	}
	env.Run()
	var final []byte
	run(env, func(p *sim.Proc) { final = d.Read(p, 0, pg) })
	for node := 0; node < 4; node++ {
		for i := 0; i < perNode; i++ {
			off := node*1024 + i*8
			got := binary.LittleEndian.Uint64(final[off : off+8])
			if got != uint64(node*1000+i+1) {
				t.Fatalf("lost update: node %d slot %d = %d", node, i, got)
			}
		}
	}
}

// TestExtentTableProperty fuzzes set/query: after any sequence of sets, the
// query of the full space must be sorted, non-overlapping, gap-free, and
// consistent with the last set on each page.
func TestExtentTableProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var tab extentTable
		const space = 200
		lastOwner := make([]int, space)
		for i := range lastOwner {
			lastOwner[i] = unclaimed
		}
		for op := 0; op < 50; op++ {
			s := rng.Intn(space - 1)
			e := s + 1 + rng.Intn(space-s-1)
			owner := rng.Intn(4)
			tab.set(mem.PageID(s), mem.PageID(e), owner, uint32(1<<owner), true)
			for i := s; i < e; i++ {
				lastOwner[i] = owner
			}
		}
		segs := tab.query(0, space)
		pos := mem.PageID(0)
		for _, seg := range segs {
			if seg.start != pos || seg.end <= seg.start {
				return false
			}
			for i := seg.start; i < seg.end; i++ {
				if lastOwner[i] != seg.owner {
					return false
				}
			}
			pos = seg.end
		}
		return pos == space
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
