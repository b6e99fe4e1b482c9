package main

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/trace"
)

// figureSuite is the paper's figure suite with each table's row count at
// QuickOptions scale. The traced pass attaches a trace session only to
// figures marked trace: fig1, fig9, fig12 and fig14 each record 1.5–3.7
// million spans at this scale, which would hold gigabytes of heap.
var figureSuite = []figure{
	{"fig1", 24, false}, {"fig4", 3, true}, {"fig5", 4, true}, {"fig6", 4, true},
	{"fig7", 3, true}, {"fig8", 27, true}, {"fig9", 9, false}, {"fig10", 9, true},
	{"fig11", 9, true}, {"fig12", 15, false}, {"fig13", 6, true}, {"fig14", 10, false},
}

type figure struct {
	name  string
	rows  int
	trace bool
}

// warmFigures are the cheapest figures; set-up runs them to page in code
// and grow the heap before the first timed pass.
var warmFigures = []string{"fig4", "fig11", "fig13"}

// critpathCats maps critical-path categories to metric names.
var critpathCats = []struct {
	cat    trace.Category
	metric string
}{
	{trace.CatCompute, "compute"},
	{trace.CatDSM, "dsm_wait"},
	{trace.CatNet, "network"},
	{trace.CatQueue, "queueing"},
}

// figures regenerates the figure suite: one unit is one pass over every
// figure, one op is one figure run. Only fig1 draws on the seed; every
// unit of a run repeats the same inputs, so every pass must print the
// same bytes.
type figures struct {
	suite   []figure
	opts    experiments.Options
	warm    map[string]string // digest of each warm-up figure
	digests map[string]string // digest of each figure's first run

	// Traced-pass accumulators.
	crit                 trace.Breakdown
	dsmWaits, migrations int
	msgs, netBytes       int64
	tracedPasses         int
	checkedRepeatFigures int
}

func newFigures(seed int64) *figures {
	o := experiments.QuickOptions()
	o.Seed = seed
	return &figures{suite: figureSuite, opts: o, warm: map[string]string{}, digests: map[string]string{}}
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

func (f *figures) setUp(t *tally) {
	for _, name := range warmFigures {
		tab, err := experiments.Run(name, f.opts)
		if err != nil {
			t.problem("warm-up %s: %v", name, err)
			continue
		}
		d := digest(tab.String())
		if prev, ok := f.warm[name]; ok && prev != d {
			t.problem("warm-up %s: bytes differ between set-up repetitions of the same seed", name)
		}
		f.warm[name] = d
	}
}

func (f *figures) nominal() time.Duration { return 25 * time.Second }

func (f *figures) run(k int, traced bool, t *tally) cost {
	unit := t.log.begin("pass", t.parent)
	defer t.log.end(unit)
	var total cost
	for _, fig := range f.suite {
		o := f.opts
		var sess *trace.Session
		var acct *experiments.Traffic
		if traced {
			acct = experiments.NewTraffic()
			o.Acct = acct
			if fig.trace {
				sess = trace.NewSession()
				o.Trace = sess
			}
		}
		id := t.log.begin("experiments.Run:"+fig.name, unit)
		sw := startWatch()
		tab, err := experiments.Run(fig.name, o)
		c := sw.lap()
		t.log.end(id)
		total.add(c)
		t.attempted++
		if !traced {
			t.ops.add(ms(c.cpu))
		}
		switch {
		case err != nil:
			t.failed++
			t.problem("%s: %v", fig.name, err)
			continue
		case len(tab.Rows) != fig.rows:
			t.failed++
			t.problem("%s: %d rows, want %d", fig.name, len(tab.Rows), fig.rows)
		}
		d := digest(tab.String())
		if prev, ok := f.digests[fig.name]; !ok {
			f.digests[fig.name] = d
		} else if prev != d {
			t.failed++
			t.problem("%s: bytes differ from the first run of the same seed (traced=%v)", fig.name, traced)
		} else {
			f.checkedRepeatFigures++
		}
		if traced {
			f.addTrace(sess, acct)
		}
	}
	if traced {
		f.tracedPasses++
	}
	return total
}

// addTrace folds one traced figure run into the accumulators: fabric
// traffic from every figure, span counts and the critical path from the
// figures that carry a session. The session is dropped afterwards, so
// the traced pass holds one figure's spans at a time.
func (f *figures) addTrace(sess *trace.Session, acct *experiments.Traffic) {
	for name, v := range acct.Counters().Snapshot() {
		switch {
		case strings.HasPrefix(name, "msgs."):
			f.msgs += v
		case strings.HasPrefix(name, "bytes."):
			f.netBytes += v
		}
	}
	if sess == nil {
		return
	}
	b := sess.CriticalPath()
	for c := range b.Cat {
		f.crit.Cat[c] += b.Cat[c]
	}
	f.crit.Total += b.Total
	for _, tr := range sess.Tracers() {
		for _, sp := range tr.Spans() {
			switch sp.Cat {
			case trace.CatDSM:
				f.dsmWaits++
			case trace.CatMigrate:
				f.migrations++
			}
		}
	}
}

func (f *figures) report(_ *tally, layer map[string]float64, info map[string]any) {
	all := ""
	for _, fig := range f.suite {
		all += f.digests[fig.name]
	}
	info["digest"] = digest(all)
	info["repeat_checks"] = f.checkedRepeatFigures
	if f.tracedPasses == 0 {
		return
	}
	n := float64(f.tracedPasses)
	layer["dsm.faults"] = float64(f.dsmWaits) / n
	layer["msg.messages"] = float64(f.msgs) / n
	layer["vcpu.migrations"] = float64(f.migrations) / n
	layer["net.bytes"] = float64(f.netBytes) / n
	if f.crit.Total > 0 {
		for _, c := range critpathCats {
			layer["critpath."+c.metric] = float64(f.crit.Cat[c.cat]) / float64(f.crit.Total)
		}
	}
}
