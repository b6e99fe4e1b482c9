// Command fragbench regenerates the paper's evaluation figures as text
// tables.
//
// Usage:
//
//	fragbench -fig fig8            # one figure
//	fragbench -fig all             # every figure (EXPERIMENTS.md input)
//	fragbench -fig fig12 -scale 1  # full paper scale
//	fragbench -fig fig4 -scale 0.01 -trace fig4.json
//	fragbench -fig fig8 -json      # machine-readable tables
//	fragbench -fig fleetsoak -seeds 8 -parallel 4
//
// With -trace, every simulation the selected experiments build is traced,
// a critical-path breakdown and per-node traffic table are appended to
// the output, and one combined Chrome trace-event file is written (use a
// single -fig and a small -scale; see cmd/fragtrace for the dedicated
// tool). With -seeds N > 1, each selected experiment runs N times at
// consecutive seeds across -parallel workers (0 = GOMAXPROCS) and the
// table reports per-metric statistics across the runs instead of one
// run's values (see cmd/fragsweep for the full grid tool; -trace does
// not combine with -seeds). Run "fragbench -list" for the available
// experiment ids.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/fragvisor"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sweep"
	"repro/internal/topo"
	"repro/internal/trace"
)

func main() {
	fig := flag.String("fig", "all", "experiment id (e.g. fig8) or 'all'")
	scale := flag.Float64("scale", 0.1, "workload scale (1.0 = paper scale)")
	seed := flag.Int64("seed", 42, "deterministic seed")
	traceOut := flag.String("trace", "", "write a combined Chrome trace-event file and append critical-path + traffic tables")
	jsonOut := flag.Bool("json", false, "emit results as a JSON array instead of text tables")
	topoFlag := flag.String("topo", "", "fabric topology: tree:RxN@O (R racks x N nodes, O:1 oversubscribed spine); empty = single-switch flat fabric")
	seeds := flag.Int("seeds", 1, "run each experiment at N consecutive seeds and report statistics across runs")
	parallel := flag.Int("parallel", 0, "worker goroutines for -seeds sweeps (0 = GOMAXPROCS)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(fragvisor.ExperimentNames(), "\n"))
		return
	}
	names := fragvisor.ExperimentNames()
	if *fig != "all" {
		names = []string{*fig}
	}

	o := experiments.Options{Scale: *scale, Seed: *seed}
	if spec, err := topo.ParseSpec(*topoFlag); err != nil {
		fmt.Fprintln(os.Stderr, "fragbench:", err)
		os.Exit(2)
	} else {
		o.Topo = spec
	}
	if *traceOut != "" {
		if *seeds > 1 {
			fmt.Fprintln(os.Stderr, "fragbench: -trace does not combine with -seeds (the trace session is one run's causality)")
			os.Exit(2)
		}
		o.Trace = trace.NewSession()
		o.Acct = experiments.NewTraffic()
	}
	type result struct {
		Experiment string         `json:"experiment"`
		Table      *metrics.Table `json:"table"`
	}
	var results []result
	emit := func(name string, tab *metrics.Table) {
		if *jsonOut {
			results = append(results, result{name, tab})
			return
		}
		fmt.Printf("[%s]\n", name)
		tab.Fprint(os.Stdout)
		fmt.Println()
	}
	if *seeds > 1 {
		// Multi-seed mode: each experiment becomes a distribution over N
		// consecutive seeds, fanned across the sweep engine's worker pool.
		res, err := experiments.RunSweep(experiments.SweepSpec{
			Experiments: names,
			Scales:      []float64{*scale},
			Seeds:       sweep.Seeds(*seed, *seeds),
			Parallel:    *parallel,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for i, g := range res.Groups {
			emit(g.Experiment, res.Tables()[i])
		}
	}
	for _, name := range names {
		if *seeds > 1 {
			break
		}
		tab, err := experiments.Run(name, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		emit(name, tab)
	}
	if *jsonOut {
		if *traceOut != "" {
			results = append(results,
				result{"critical-path", o.Trace.CriticalPath().Table("Critical path")},
				result{"traffic", o.Acct.Table()})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(os.Stderr, "fragbench:", err)
			os.Exit(1)
		}
	}
	if *traceOut == "" {
		return
	}
	if !*jsonOut {
		o.Trace.CriticalPath().Table("Critical path").Fprint(os.Stdout)
		fmt.Println()
		o.Acct.Table().Fprint(os.Stdout)
	}
	f, err := os.Create(*traceOut)
	if err == nil {
		err = o.Trace.WriteChrome(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fragbench:", err)
		os.Exit(1)
	}
	fmt.Printf("trace: %d spans written to %s (open in ui.perfetto.dev)\n",
		o.Trace.SpanCount(), *traceOut)
}
