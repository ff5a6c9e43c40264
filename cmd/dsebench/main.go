// Command dsebench regenerates the paper's evaluation tables and figures
// on the simulated cluster.
//
// Usage:
//
//	dsebench -table 1            # print paper Table 1 (environments)
//	dsebench -table 2            # print paper Table 2 (virtual cluster)
//	dsebench -fig 5              # regenerate one figure (4..21)
//	dsebench -all                # regenerate every table and figure
//	dsebench -all -quick         # smaller parameter ranges (fast)
//	dsebench -quick -json out.json            # machine-readable metrics snapshot
//	dsebench -quick -json out.json -baseline BENCH_baseline.json
//	                             # ...and fail (exit 1) on >10% regressions
//	dsebench -trace out.trace.json            # traced gauss run, Chrome trace_event
//	dsebench -stress -seed 7     # seeded consistency stress matrix (exit 1 on violation)
//	dsebench -recover -seed 7    # seeded kill-and-recover schedules (exit 1 on failure)
//	dsebench -saturate           # remote-GM ops/sec into one home kernel vs shard count
//	dsebench -modes              # consistency-tier ablation: gauss msgs under strong/release/lease
//	dsebench -sched              # multi-job scheduler load test: burst + Poisson job streams
//	dsebench -saturate -quick -json out.json  # ...included in the snapshot
//	dsebench -sched -quick -json out.json     # ...scheduler legs included too
//	dsebench -quick -sched -saturate -json out.json -baseline BENCH_baseline.json
//	                             # the full regression gate: every section, one baseline
//
// Figures print as aligned tables: one row per x value, one column per
// series, exactly the rows/series the paper plots.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/platform"
	"repro/internal/trace"
)

func main() {
	var (
		fig      = flag.Int("fig", 0, "regenerate one paper figure (4..21)")
		table    = flag.Int("table", 0, "print a paper table (1 or 2)")
		all      = flag.Bool("all", false, "regenerate every table and figure")
		ablation = flag.Bool("ablation", false, "run the design-choice ablation suite")
		msgstats = flag.Bool("msgstats", false, "print per-op message traffic for the reference workloads")
		latency  = flag.Bool("latency", false, "print per-op latency distributions for the reference workloads")
		plot     = flag.Bool("plot", false, "also render figures as ASCII charts")
		quick    = flag.Bool("quick", false, "use reduced parameter ranges")
		maxPE    = flag.Int("maxpe", 0, "override the processor sweep upper bound")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		csvDir   = flag.String("csv", "", "also save each regenerated figure as CSV into this directory")
		jsonOut  = flag.String("json", "", "write a machine-readable metrics snapshot to this file")
		baseline = flag.String("baseline", "", "compare the snapshot against this baseline; exit 1 on regression")
		traceOut = flag.String("trace", "", "run gauss p=4 with span tracing and write Chrome trace_event JSON here")
		stressF  = flag.Bool("stress", false, "run the seeded consistency stress matrix; -seed selects the schedule")
		recoverF = flag.Bool("recover", false, "run seeded kill-and-recover schedules (checkpoint/restart); -seed selects the schedule")
		memberF  = flag.Bool("membership", false, "run seeded live join/leave/re-home schedules (elastic membership); -seed selects the schedule")
		saturate = flag.Bool("saturate", false, "measure remote-GM ops/sec into one home kernel across PE and shard counts (wall clock; with -json, adds the sweep to the snapshot)")
		modesF   = flag.Bool("modes", false, "print the consistency-tier ablation: gauss message counts under strong, release and lease modes")
		schedF   = flag.Bool("sched", false, "run the multi-job scheduler load test: thousands of queued jobs, then Poisson arrivals (wall clock; with -json, adds the legs to the snapshot)")
	)
	flag.Parse()
	plotFigures = *plot
	csvOutDir = *csvDir

	sc := bench.FullScale()
	if *quick {
		sc = bench.QuickScale()
	}
	if *maxPE > 0 {
		sc.MaxPE = *maxPE
	}
	sc.Seed = *seed

	switch {
	case *stressF:
		runStress(*seed, *quick)
	case *recoverF:
		runRecover(*seed, *quick)
	case *memberF:
		runMembership(*seed, *quick)
	case *jsonOut != "":
		scaleName := "full"
		if *quick {
			scaleName = "quick"
		}
		writeSnapshot(*jsonOut, *baseline, sc, scaleName, *saturate, *schedF)
	case *schedF:
		start := time.Now()
		pts, err := bench.SchedSweep(*quick, sc.Seed)
		if err != nil {
			fatalf("scheduler load test: %v", err)
		}
		bench.SchedTable(pts).Fprint(os.Stdout)
		fmt.Printf("(wall clock; regenerated in %v)\n", time.Since(start).Round(time.Millisecond))
	case *saturate:
		start := time.Now()
		pts, err := bench.SaturationSweep(*quick)
		if err != nil {
			fatalf("saturation sweep: %v", err)
		}
		bench.SaturationTable(pts).Fprint(os.Stdout)
		fmt.Printf("(wall clock; regenerated in %v)\n", time.Since(start).Round(time.Millisecond))
	case *modesF:
		start := time.Now()
		rows, err := bench.ConsistencyTierProfile(platform.SparcSunOS, sc.Seed)
		if err != nil {
			fatalf("consistency tiers: %v", err)
		}
		bench.TierTable(rows).Fprint(os.Stdout)
		fmt.Printf("(regenerated in %v)\n", time.Since(start).Round(time.Millisecond))
	case *traceOut != "":
		writeTrace(*traceOut, sc)
	case *table == 1:
		bench.Table1().Fprint(os.Stdout)
	case *table == 2:
		bench.Table2(2 * platform.PhysicalMachines).Fprint(os.Stdout)
	case *table != 0:
		fatalf("no table %d in the paper (1 or 2)", *table)
	case *msgstats:
		npe := 4
		if *maxPE > 0 {
			npe = *maxPE
		}
		tables, err := bench.MessageProfile(platform.SparcSunOS, npe, sc.Seed)
		if err != nil {
			fatalf("message profile: %v", err)
		}
		for _, tb := range tables {
			tb.Fprint(os.Stdout)
			fmt.Println()
		}
	case *latency:
		tables, err := bench.LatencyTables(platform.SparcSunOS, sc)
		if err != nil {
			fatalf("latency tables: %v", err)
		}
		for _, tb := range tables {
			tb.Fprint(os.Stdout)
			fmt.Println()
		}
	case *ablation:
		figs, err := bench.Ablations(sc.MaxPE, sc.Seed)
		if err != nil {
			fatalf("ablations: %v", err)
		}
		for _, f := range figs {
			f.Table().Fprint(os.Stdout)
			maybePlot(f)
			maybeCSV(f)
			fmt.Println()
		}
	case *fig != 0:
		printFigure(*fig, sc)
	case *all:
		bench.Table1().Fprint(os.Stdout)
		fmt.Println()
		bench.Table2(2 * platform.PhysicalMachines).Fprint(os.Stdout)
		fmt.Println()
		for _, n := range bench.AllFigureNumbers() {
			printFigure(n, sc)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// plotFigures and csvOutDir mirror the -plot and -csv flags.
var (
	plotFigures bool
	csvOutDir   string
)

func printFigure(n int, sc bench.Scale) {
	start := time.Now()
	f, err := bench.FigureByNumber(n, sc)
	if err != nil {
		fatalf("figure %d: %v", n, err)
	}
	f.Table().Fprint(os.Stdout)
	maybePlot(f)
	maybeCSV(f)
	fmt.Printf("(x: %s, y: %s; regenerated in %v)\n\n", f.XLabel, f.YLabel, time.Since(start).Round(time.Millisecond))
}

func maybePlot(f *bench.Figure) {
	if !plotFigures {
		return
	}
	fmt.Println()
	trace.Plot(os.Stdout, "", f.Series, 60, 16)
}

func maybeCSV(f *bench.Figure) {
	if csvOutDir == "" {
		return
	}
	path, err := f.SaveCSV(csvOutDir)
	if err != nil {
		fatalf("saving CSV: %v", err)
	}
	fmt.Printf("(saved %s)\n", path)
}

// writeSnapshot builds the metrics snapshot, saves it, and (when a baseline
// is given) gates on regressions: the CI benchmark-regression pipeline.
func writeSnapshot(path, baselinePath string, sc bench.Scale, scaleName string, saturate, sched bool) {
	start := time.Now()
	snap, err := bench.BuildSnapshot(platform.SparcSunOS, sc, scaleName)
	if err != nil {
		fatalf("building snapshot: %v", err)
	}
	if saturate {
		pts, err := bench.SaturationSweep(scaleName == "quick")
		if err != nil {
			fatalf("saturation sweep: %v", err)
		}
		snap.Saturation = pts
	}
	if sched {
		pts, err := bench.SchedSweep(scaleName == "quick", sc.Seed)
		if err != nil {
			fatalf("scheduler load test: %v", err)
		}
		snap.Sched = pts
	}
	if err := snap.SaveJSON(path); err != nil {
		fatalf("saving snapshot: %v", err)
	}
	fmt.Printf("wrote %s (%d workloads, %v)\n", path, len(snap.Workloads), time.Since(start).Round(time.Millisecond))
	if baselinePath == "" {
		return
	}
	base, err := bench.LoadSnapshot(baselinePath)
	if err != nil {
		fatalf("loading baseline: %v", err)
	}
	regs := bench.Compare(base, snap)
	if len(regs) == 0 {
		fmt.Printf("no regressions vs %s\n", baselinePath)
		return
	}
	fmt.Fprintf(os.Stderr, "dsebench: %d regression(s) vs %s:\n", len(regs), baselinePath)
	for _, r := range regs {
		fmt.Fprintf(os.Stderr, "  %s\n", r)
	}
	os.Exit(1)
}

// writeTrace runs a traced gauss p=4 and exports the Chrome trace.
func writeTrace(path string, sc bench.Scale) {
	n := 120
	if len(sc.GaussNs) > 1 {
		n = sc.GaussNs[1]
	}
	f, err := os.Create(path)
	if err != nil {
		fatalf("creating trace file: %v", err)
	}
	res, err := bench.TraceGauss(platform.SparcSunOS, n, 4, sc.Seed, f)
	if err != nil {
		f.Close()
		fatalf("traced run: %v", err)
	}
	if err := f.Close(); err != nil {
		fatalf("closing trace file: %v", err)
	}
	fmt.Printf("wrote %s (%d spans, gauss N=%d p=4, elapsed %v)\n", path, len(res.Spans), n, res.Elapsed)
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "dsebench: "+format+"\n", args...)
	os.Exit(1)
}
