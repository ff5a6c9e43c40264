// Command perfbench is the repository benchmark: it runs one named workload
// for a fixed wall-clock budget, checks every answer against a sequential
// reference, asserts which GM access path the runtime took, and prints every
// metric by name and unit, ending with one JSON result line.
//
//	perfbench --workload apps-inproc --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured on
// untraced repetitions. With --trace 1 half of the repetitions are traced
// (every core call timed by a Proc wrapper; on tcp also every transport
// Send and Recv), and the result carries the per-layer metrics instead.
// Wrong answers, failed operations and path drift exit with status 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"repro/internal/trace"
)

// options are one run's settings. tiny, forgeAnswer and forgePath exist for
// the benchmark's own tests and have no flags.
type options struct {
	workload    string
	seed        uint64
	seconds     float64
	trace       bool
	tiny        bool // test-sized inputs
	forgeAnswer bool // corrupt one answer before it is checked
	forgePath   bool // report a path the workload must not take
}

// minReps is the fewest repetitions a run makes, however short --seconds:
// two untraced and, with --trace 1, two traced.
const minReps = 4

// runLimit bounds a whole run, so a hung cluster still ends the command.
const runLimit = 170 * time.Second

var workloads = map[string]func(options) (*report, error){
	"apps-inproc": func(o options) (*report, error) { return runApps(o, onInproc, 2, 20000) },
	"apps-tcp":    func(o options) (*report, error) { return runApps(o, onTCP, 2, 2500) },
	"apps-simnet": func(o options) (*report, error) { return runApps(o, onSimnet, 6, 200) },
	"sched-jobs":  runSched,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: apps-inproc, apps-tcp, apps-simnet or sched-jobs")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "wall-clock seconds to measure")
	fs.IntVar(&traceFlag, "trace", 0, "1 reports the per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	fn, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (apps-inproc, apps-tcp, apps-simnet, sched-jobs), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	return execute(o, fn, stdout, stderr)
}

// execute runs one workload under the run limit and prints its report.
func execute(o options, fn func(options) (*report, error), stdout, stderr io.Writer) int {
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(stderr, "perfbench: %s did not finish within %v\n", o.workload, runLimit)
		os.Exit(1)
	})
	defer watchdog.Stop()
	rep, err := fn(o)
	if rep == nil {
		rep = newReport()
	}
	if err == nil && rep.failed > 0 {
		err = fmt.Errorf("%d of %d operations failed", rep.failed, rep.attempted)
	}
	if perr := rep.print(stdout, o, err); perr != nil {
		fmt.Fprintf(stderr, "perfbench: writing result: %v\n", perr)
		return 1
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// errPathDrift marks a run that took a GM access path its workload must not.
var errPathDrift = errors.New("path drift")

// passesPerRep is how many times a repetition solves the suite: the apps
// take milliseconds, so they get more samples than the op mix.
const passesPerRep = 3

// runApps is the apps-* workloads: each repetition makes passesPerRep
// passes over the four applications, each solved on a freshly built
// cluster, then runs one op-mix round, until the time budget is spent.
func runApps(o options, kind string, npe, mixOps int) (*report, error) {
	rep := newReport()
	rep.virtual = kind == onSimnet
	s := newSuite(o.seed, o.tiny)
	ref, err := buildReferences(s)
	if err != nil {
		return rep, err
	}
	if o.tiny {
		mixOps = 200
	}
	var all trace.PEStats
	var traced tracedRuns
	var mixMallocs, mixOpsUntraced float64
	appSelf := make(map[string][]float64)
	appCore := make(map[string][]float64)
	var othello, runTimes, opP50, opP99, wallUntraced, wallTraced []float64
	start := time.Now()
	for r := 0; r < minReps || time.Since(start).Seconds() < o.seconds; r++ {
		spec := clusterSpec{kind: kind, npe: npe, simSeed: o.seed*1000 + uint64(r), traced: o.trace && r%2 == 1}
		t0 := time.Now()
		var setups []float64
		var runs []*runOut
		for pass := 0; pass < passesPerRep; pass++ {
			passS := 0.0
			for _, app := range appNames {
				ar, err := solve(spec, app, s, ref, o.forgeAnswer && app == "knight")
				rep.attempted++
				if err != nil {
					rep.failed++
					return rep, err
				}
				rep.sampleHeap()
				setups = append(setups, ar.setupS)
				runs = append(runs, ar.runOut)
				passS += ar.clockS
				if !spec.traced {
					runTimes = append(runTimes, ar.clockS)
					if app == "othello" {
						othello = append(othello, ar.clockS)
					} else {
						rep.rep(app+"_s", ar.clockS)
					}
					continue
				}
				selfS, coreS := 0.0, 0.0
				for pe, rc := range ar.recs {
					c := rc.coreNS()
					coreS += c / 1e9
					selfS += (ar.spanNS[pe] - c) / 1e9
				}
				appSelf[app] = append(appSelf[app], selfS/float64(npe))
				appCore[app] = append(appCore[app], coreS/float64(npe))
			}
			if !spec.traced {
				n := float64(len(appNames))
				rep.rep("jobs_per_s", n/passS)
				rep.rep("job_turnaround_p50_ms", passS/n*1e3)
			}
		}
		mr, err := runMix(spec, mixOps, o.seed*1000+uint64(r))
		if mr != nil {
			rep.attempted += mr.ops
			rep.failed += mr.failed
		} else {
			rep.attempted++
			rep.failed++
		}
		if err != nil {
			return rep, err
		}
		rep.sampleHeap()
		setups = append(setups, mr.setupS)
		runs = append(runs, mr.runOut)
		wall := time.Since(t0).Seconds()
		for _, ro := range runs {
			all.Add(&ro.total)
		}
		if !spec.traced {
			wallUntraced = append(wallUntraced, wall)
			rep.rep("setup_s", spreadOf(setups).Median)
			rep.rep("gm_ops_per_s", mr.opsPerS)
			lat := summarize(mr.latNS)
			opP50 = append(opP50, lat.P50/1e3)
			opP99 = append(opP99, lat.P99/1e3)
			mixMallocs += float64(mr.mallocs)
			mixOpsUntraced += float64(mr.ops)
			rep.endRep(true)
			continue
		}
		rep.endRep(false)
		wallTraced = append(wallTraced, wall)
		traced.reps++
		traced.mixOps += float64(mr.ops)
		for _, ro := range runs {
			traced.add(ro)
		}
	}

	// Path assertions over every repetition: the workload must have taken
	// the GM access paths it exists to measure.
	if o.forgePath {
		all.DirectGM++
	}
	if err := assertPaths(kind, &all); err != nil {
		return rep, err
	}

	rep.layer["othello_s"] = rep.center("othello_s", othello)
	rep.layer["gm_op_p50_us"] = rep.center("gm_op_p50_us", opP50)
	rep.layer["gm_op_p99_us"] = rep.center("gm_op_p99_us", opP99)
	rep.layer["job_turnaround_p99_ms"] = rep.dist("job_turnaround", "s", runTimes).P99 * 1e3
	rep.frac("core.allocs_per_op", mixMallocs, mixOpsUntraced)
	rep.traceOverhead(wallUntraced, wallTraced)
	for _, app := range appNames {
		rep.layer["apps."+app+".seq_s"] = ref.seqS[app]
		rep.layer["apps."+app+".self_s"] = spreadOf(appSelf[app]).Median
		rep.layer["apps."+app+".core_s"] = spreadOf(appCore[app]).Median
	}
	if traced.reps > 0 {
		traced.report(rep, kind)
	}
	rep.frac("fail_frac", float64(rep.failed), float64(rep.attempted))
	return rep, nil
}

// tracedRuns pools the spans and counters of an apps workload's traced
// repetitions.
type tracedRuns struct {
	reps                      int
	mixOps                    float64
	total                     trace.PEStats
	core                      [numKinds][]float64
	appSend, svcSend, service []float64
	bytes                     float64
	frames, collisions        float64
	busyNS, clockNS, wallS    float64
}

func (t *tracedRuns) add(ro *runOut) {
	t.total.Add(&ro.total)
	for _, rc := range ro.recs {
		for k := range t.core {
			t.core[k] = append(t.core[k], rc.samples[k]...)
		}
	}
	if ro.net != nil {
		t.appSend = append(t.appSend, ro.net.appSend...)
		t.svcSend = append(t.svcSend, ro.net.svcSend...)
		t.service = append(t.service, ro.net.service...)
		t.bytes += ro.net.bytes
	}
	t.frames += float64(ro.bus.Frames)
	t.collisions += float64(ro.bus.Collisions)
	t.busyNS += float64(ro.bus.BusyTime)
	t.clockNS += ro.clockS * 1e9
	t.wallS += ro.wallS
}

// report writes the pooled per-layer metrics, per repetition.
func (t *tracedRuns) report(rep *report, kind string) {
	n := float64(t.reps)
	for k, name := range coreKinds {
		rep.latency("core."+name, t.core[k], t.reps)
	}
	rep.counters(&t.total, t.reps)
	rep.layer["core.ops_measured"] = t.mixOps / n
	switch kind {
	case onTCP:
		rep.latency("transport.app_send", t.appSend, t.reps)
		rep.latency("transport.svc_send", t.svcSend, t.reps)
		rep.latency("core.kernel_service", t.service, t.reps)
		rep.layer["transport.bytes"] = t.bytes / n
	case onSimnet:
		rep.layer["ethernet.frames"] = t.frames / n
		rep.layer["ethernet.collisions"] = t.collisions / n
		rep.frac("ethernet.busy_frac", t.busyNS, t.clockNS)
		rep.layer["sim.wall_s"] = t.wallS / n
	}
}

// assertPaths fails a run whose counters show the wrong GM access path:
// inproc must use the one-sided read window and write rings, with every
// ring write drained by its home; tcp has no shared address space, so it
// must use neither and serve requests on shard workers.
func assertPaths(kind string, t *trace.PEStats) error {
	switch kind {
	case onInproc:
		if t.DirectGM == 0 || t.RingGM == 0 || t.RingDrained != t.RingGM {
			return fmt.Errorf("%w on inproc: direct=%d ring=%d drained=%d, want direct>0, ring>0, drained=ring",
				errPathDrift, t.DirectGM, t.RingGM, t.RingDrained)
		}
	case onTCP:
		if t.DirectGM != 0 || t.RingGM != 0 || t.ShardedMsgs == 0 {
			return fmt.Errorf("%w on tcp: direct=%d ring=%d sharded=%d, want 0, 0, >0",
				errPathDrift, t.DirectGM, t.RingGM, t.ShardedMsgs)
		}
	}
	return nil
}

// runSched is the sched-jobs workload: each repetition is one burst leg
// and one Poisson leg, each on a freshly started resident cluster.
func runSched(o options) (*report, error) {
	rep := newReport()
	p := newSchedParams(o.tiny)
	rng := rand.New(rand.NewSource(int64(o.seed)))
	var traced trace.PEStats
	var turnP99, wallUntraced, wallTraced, util []float64
	var submitUS, waitS, runS, lateS []float64
	var mallocs, burstGM float64
	maxQueued, maxResident, tracedReps := 0, 0, 0
	start := time.Now()
	for r := 0; r < minReps || time.Since(start).Seconds() < o.seconds; r++ {
		cyc, err := runSchedCycle(p, rng)
		if cyc != nil {
			rep.attempted += cyc.attempted
			rep.failed += cyc.failed
		}
		if err != nil {
			return rep, err
		}
		rep.sampleHeap()
		// Jobs must never touch memory outside their namespace.
		if o.forgePath {
			cyc.total.NsViolations++
		}
		if cyc.total.NsViolations != 0 {
			return rep, fmt.Errorf("%w: %d namespace violations", errPathDrift, cyc.total.NsViolations)
		}
		if !(o.trace && r%2 == 1) {
			wallUntraced = append(wallUntraced, cyc.wallS)
			rep.rep("setup_s", spreadOf(cyc.setupS).Median)
			for _, g := range gangApps {
				rep.rep(g.name+"_s", spreadOf(cyc.appRunS[g.name]).Median)
			}
			rep.rep("gm_ops_per_s", cyc.burstGM/cyc.drainS)
			rep.rep("jobs_per_s", float64(cyc.burstJobs)/cyc.drainS)
			turn := summarize(cyc.turnaroundS)
			rep.rep("job_turnaround_p50_ms", turn.P50*1e3)
			turnP99 = append(turnP99, turn.P99*1e3)
			rep.endRep(true)
			continue
		}
		rep.endRep(false)
		tracedReps++
		wallTraced = append(wallTraced, cyc.wallS)
		traced.Add(&cyc.total)
		submitUS = append(submitUS, cyc.submitUS...)
		waitS = append(waitS, cyc.waitS...)
		runS = append(runS, cyc.runS...)
		lateS = append(lateS, cyc.genLateS...)
		util = append(util, cyc.util...)
		maxQueued = max(maxQueued, cyc.maxQueued)
		maxResident = max(maxResident, cyc.maxResident)
		mallocs += float64(cyc.mallocs)
		burstGM += cyc.burstGM
	}
	rep.layer["job_turnaround_p99_ms"] = spreadOf(turnP99).Median
	rep.traceOverhead(wallUntraced, wallTraced)
	if tracedReps > 0 {
		rep.counters(&traced, tracedReps)
		ms := func(s []float64) []float64 {
			out := make([]float64, len(s))
			for i, v := range s {
				out[i] = v * 1e3
			}
			return out
		}
		d := rep.dist("sched.submit", "us", submitUS)
		rep.layer["sched.submit.p50_us"], rep.layer["sched.submit.p99_us"] = d.P50, d.P99
		d = rep.dist("sched.queue_wait", "ms", ms(waitS))
		rep.layer["sched.queue_wait.p50_ms"], rep.layer["sched.queue_wait.p99_ms"] = d.P50, d.P99
		d = rep.dist("sched.run", "ms", ms(runS))
		rep.layer["sched.run.p50_ms"], rep.layer["sched.run.p99_ms"] = d.P50, d.P99
		d = rep.dist("bench.gen_late", "ms", ms(lateS))
		rep.layer["bench.gen_late.p50_ms"], rep.layer["bench.gen_late.p99_ms"] = d.P50, d.P99
		rep.layer["sched.max_queued"] = float64(maxQueued)
		rep.layer["sched.max_resident"] = float64(maxResident)
		rep.layer["sched.utilization"] = spreadOf(util).Median
		rep.layer["sched.ns_violations"] = float64(traced.NsViolations)
		rep.layer["core.ops_measured"] = burstGM / float64(tracedReps)
		rep.frac("core.allocs_per_op", mallocs, burstGM)
	}
	rep.frac("fail_frac", float64(rep.failed), float64(rep.attempted))
	return rep, nil
}
