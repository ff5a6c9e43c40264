package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/trace"
)

// The sched-jobs workload keeps a resident dsesched cluster of schedWorkers
// worker PEs (one per core of a two-core host) and feeds it from one
// submitter goroutine. Each leg's job list has a fixed composition, shuffled
// by the seed: mostly 1-PE touch jobs spread evenly over the three
// consistency tiers, plus a tail of 2-PE application gangs.
const (
	schedWorkers  = 2
	schedCapacity = 1024 // GM blocks carveable into job namespaces
)

// gangApps are the registry workloads run as 2-PE gangs, with their sizes.
var gangApps = []struct {
	name string
	size int
}{{"gauss", 24}, {"dct", 32}, {"knight", 4}}

var touchModes = []string{"strong", "release", "lease"}

// schedParams sizes one cycle: a closed burst leg of burstJobs jobs queued
// before the cluster starts, then an open-loop Poisson leg offering
// poissonRate jobs/s for poissonJobs jobs — below the burst leg's measured
// capacity, so the queue stays bounded.
type schedParams struct {
	burstJobs   int
	poissonJobs int
	poissonRate float64
	gangsPerApp int // per leg
}

func newSchedParams(tiny bool) schedParams {
	if tiny {
		return schedParams{burstJobs: 30, poissonJobs: 30, poissonRate: 300, gangsPerApp: 1}
	}
	return schedParams{burstJobs: 600, poissonJobs: 600, poissonRate: 400, gangsPerApp: 6}
}

// jobMix returns n specs with gangsPerApp gangs of each app and the rest
// touch jobs spread over the tiers, shuffled by rng.
func jobMix(n, gangsPerApp int, rng *rand.Rand) []sched.JobSpec {
	specs := make([]sched.JobSpec, 0, n)
	for _, g := range gangApps {
		for i := 0; i < gangsPerApp; i++ {
			specs = append(specs, sched.JobSpec{Name: g.name, PEs: 2, Workload: g.name, Size: g.size})
		}
	}
	for i := 0; len(specs) < n; i++ {
		m := touchModes[i%len(touchModes)]
		specs = append(specs, sched.JobSpec{Name: "touch-" + m, PEs: 1, Workload: "touch", Mode: m})
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// schedCluster is one resident cluster: the scheduler and the core run
// that hosts it.
type schedCluster struct {
	s       *sched.Scheduler
	start   time.Time
	done    chan struct{}
	res     *core.Result
	err     error
	residue core.Residue
}

func newSchedCluster() *schedCluster {
	c := &schedCluster{done: make(chan struct{})}
	c.s = sched.NewScheduler(sched.Config{
		Workers:        schedWorkers,
		CapacityBlocks: schedCapacity,
		Inspect:        func(r core.Residue) { c.residue = r },
	})
	return c
}

// boot starts the cluster; jobs submitted before boot are the queued burst.
func (c *schedCluster) boot() {
	c.start = time.Now()
	go func() {
		defer close(c.done)
		c.res, c.err = core.Run(c.s.CoreConfig(), c.s.Program)
	}()
}

// drain waits until every submitted job reached a terminal state.
func (c *schedCluster) drain() {
	for {
		st := c.s.Stats()
		if st.Done+st.Failed+st.Cancelled >= st.Submitted {
			return
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// stop shuts the cluster down and checks its teardown left nothing behind:
// no namespace binding, parked synchronisation or namespace block, and no
// mailbox beyond the control plane's one per PE.
func (c *schedCluster) stop() error {
	c.s.Close()
	<-c.done
	if c.err != nil {
		return c.err
	}
	if err := c.res.FirstErr(); err != nil {
		return err
	}
	r := c.residue
	switch {
	case r.NsBindings != 0 || r.BarrierPend != 0 || r.LockResidue != 0 || r.SemWaiters != 0:
		return fmt.Errorf("%w: teardown residue bindings=%d barriers=%d locks=%d sems=%d",
			errPathDrift, r.NsBindings, r.BarrierPend, r.LockResidue, r.SemWaiters)
	case r.UserQueues > schedWorkers+1:
		return fmt.Errorf("%w: %d user mailboxes left, want <= %d", errPathDrift, r.UserQueues, schedWorkers+1)
	case r.BlocksIn == nil || r.BlocksIn(0, schedCapacity) != 0:
		return fmt.Errorf("%w: namespace blocks left materialised", errPathDrift)
	}
	return nil
}

// submitted is one job the generator handed to the scheduler.
type submitted struct {
	id       int
	due      time.Time // open loop: when it was due; burst: the submit time
	submitUS float64
}

// jobsOf collects the final status of every submitted job; any job that did
// not finish cleanly is a failure.
func (c *schedCluster) jobsOf(subs []submitted) ([]sched.JobStatus, int64, error) {
	out := make([]sched.JobStatus, 0, len(subs))
	failed := int64(0)
	for _, sb := range subs {
		st, err := c.s.Job(sb.id)
		if err != nil {
			return nil, 0, err
		}
		if st.State != sched.StateDone {
			failed++
		}
		out = append(out, st)
	}
	return out, failed, nil
}

// schedCycle is one repetition: a burst leg and a Poisson leg.
type schedCycle struct {
	setupS      []float64
	drainS      float64
	burstJobs   int
	burstGM     float64 // GM accesses during the burst leg
	turnaroundS []float64
	genLateS    []float64
	submitUS    []float64
	waitS, runS []float64
	appRunS     map[string][]float64
	maxQueued   int
	maxResident int
	util        []float64
	total       trace.PEStats
	attempted   int64
	failed      int64
	mallocs     uint64
	wallS       float64
}

func runSchedCycle(p schedParams, rng *rand.Rand) (*schedCycle, error) {
	cyc := &schedCycle{appRunS: make(map[string][]float64)}
	t0 := time.Now()
	if err := cyc.burst(p, rng); err != nil {
		return nil, err
	}
	if err := cyc.poisson(p, rng); err != nil {
		return nil, err
	}
	cyc.wallS = time.Since(t0).Seconds()
	return cyc, nil
}

// record folds one leg's finished jobs into the cycle.
func (cyc *schedCycle) record(c *schedCluster, subs []submitted, jobs []sched.JobStatus, failed int64) {
	cyc.attempted += int64(len(subs))
	cyc.failed += failed
	for i, st := range jobs {
		cyc.submitUS = append(cyc.submitUS, subs[i].submitUS)
		cyc.waitS = append(cyc.waitS, st.Start.Sub(st.Submit).Seconds())
		run := st.Finish.Sub(st.Start).Seconds()
		cyc.runS = append(cyc.runS, run)
		if st.Spec.PEs > 1 {
			cyc.appRunS[st.Spec.Workload] = append(cyc.appRunS[st.Spec.Workload], run)
		}
	}
	st := c.s.Stats()
	cyc.maxQueued = max(cyc.maxQueued, st.MaxQueued)
	cyc.maxResident = max(cyc.maxResident, st.MaxResident)
	cyc.util = append(cyc.util, st.Utilization)
	cyc.total.Add(&c.res.Total)
}

// submit hands one spec to the scheduler, timing the call.
func submit(s *sched.Scheduler, spec sched.JobSpec, due time.Time) (submitted, error) {
	t0 := time.Now()
	id, err := s.Submit(spec)
	us := float64(time.Since(t0).Nanoseconds()) / 1e3
	if err != nil {
		return submitted{}, fmt.Errorf("submitting %s: %w", spec.Name, err)
	}
	return submitted{id: id, due: due, submitUS: us}, nil
}

// burst queues the whole leg before the cluster starts and measures how
// fast it drains: its capacity.
func (cyc *schedCycle) burst(p schedParams, rng *rand.Rand) error {
	c := newSchedCluster()
	var subs []submitted
	for _, spec := range jobMix(p.burstJobs, p.gangsPerApp, rng) {
		sb, err := submit(c.s, spec, time.Now())
		if err != nil {
			return err
		}
		subs = append(subs, sb)
	}
	ms := memStats()
	c.boot()
	c.drain()
	if err := c.stop(); err != nil {
		return err
	}
	cyc.mallocs += memStats().Mallocs - ms.Mallocs
	jobs, failed, err := c.jobsOf(subs)
	if err != nil {
		return err
	}
	first, last := jobs[0].Start, jobs[0].Finish
	for _, st := range jobs {
		if st.Start.Before(first) {
			first = st.Start
		}
		if st.Finish.After(last) {
			last = st.Finish
		}
	}
	cyc.setupS = append(cyc.setupS, first.Sub(c.start).Seconds())
	cyc.drainS = last.Sub(first).Seconds()
	cyc.burstJobs = len(jobs)
	cyc.burstGM = float64(c.res.Total.LocalGM + c.res.Total.RemoteGM)
	cyc.record(c, subs, jobs, failed)
	return nil
}

// poisson offers jobs at exponential interarrival gaps drawn from rng,
// timing each job from when it was due, so a stalled submitter or a
// backlog counts against turnaround.
func (cyc *schedCycle) poisson(p schedParams, rng *rand.Rand) error {
	c := newSchedCluster()
	c.boot()
	// One warm-up job marks the cluster as up; it is a set-up sample, not
	// part of the offered load.
	warm, err := submit(c.s, sched.JobSpec{Name: "warm-up", PEs: 1, Workload: "touch"}, time.Now())
	if err != nil {
		return errors.Join(err, c.stop())
	}
	c.drain()
	specs := jobMix(p.poissonJobs, p.gangsPerApp, rng)
	gaps := make([]time.Duration, len(specs))
	for i := range gaps {
		gaps[i] = time.Duration(rng.ExpFloat64() / p.poissonRate * 1e9)
	}
	// This goroutine is the one submitter: it sleeps until each job is due
	// and submits it.
	subs := make([]submitted, 0, len(specs))
	due := time.Now()
	for i, spec := range specs {
		due = due.Add(gaps[i])
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sb, err := submit(c.s, spec, due)
		if err != nil {
			return errors.Join(err, c.stop())
		}
		subs = append(subs, sb)
	}
	c.drain()
	if err := c.stop(); err != nil {
		return err
	}
	wst, err := c.s.Job(warm.id)
	if err != nil {
		return err
	}
	cyc.setupS = append(cyc.setupS, wst.Start.Sub(c.start).Seconds())
	jobs, failed, err := c.jobsOf(subs)
	if err != nil {
		return err
	}
	if wst.State != sched.StateDone {
		failed++
	}
	cyc.attempted++
	for i, st := range jobs {
		due := subs[i].due
		cyc.genLateS = append(cyc.genLateS, st.Submit.Sub(due).Seconds())
		cyc.turnaroundS = append(cyc.turnaroundS, st.Finish.Sub(due).Seconds())
	}
	cyc.record(c, subs, jobs, failed)
	return nil
}
