package main

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/ethernet"
	"repro/internal/platform"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/transport/tcpnet"
)

// benchProc is what the benchmark's programs call: the Parallel API the
// apps use, plus the error-returning GM calls the op mix counts failures
// with. *core.PE and *tracedPE both implement it.
type benchProc interface {
	core.Proc
	GMReadErr(addr uint64) (int64, error)
	GMWriteErr(addr uint64, v int64) error
	FetchAddErr(addr uint64, delta int64) (int64, error)
}

// Transports a workload's clusters run on.
const (
	onInproc = "inproc"
	onTCP    = "tcp"
	onSimnet = "simnet"
)

// clusterSpec describes the fresh cluster one program run gets.
type clusterSpec struct {
	kind    string
	npe     int
	simSeed uint64 // simulator randomness (simnet only)
	traced  bool
}

func (c clusterSpec) virtual() bool { return c.kind == onSimnet }

// runOut is what one program run on a fresh cluster yields.
type runOut struct {
	// setupS is wall time from the run call until the last PE entered the
	// program: transport set-up (the tcp mesh dial), kernel and shard
	// spawn, PE registration.
	setupS float64
	// clockS is the run on the cluster clock: wall time from the run call
	// to its return on inproc and tcp, virtual Result.Elapsed on simnet.
	clockS float64
	// wallS is the wall time of the whole run call.
	wallS float64
	total trace.PEStats
	bus   ethernet.Stats
	recs  []*recorder  // per PE, traced runs only
	net   *netRecorder // tcp traced runs only
}

// run executes prog as an SPMD program on a freshly built cluster. A
// program error, or a run-level error, fails the run.
func (c clusterSpec) run(prog func(p benchProc) error) (*runOut, error) {
	entered := make([]int64, c.npe)
	out := &runOut{}
	if c.traced {
		out.recs = make([]*recorder, c.npe)
	}
	body := func(pe *core.PE) error {
		entered[pe.ID()] = wallNS()
		var p benchProc = pe
		if c.traced {
			t := newTracedPE(pe, c.virtual())
			out.recs[pe.ID()] = t.rec
			p = t
		}
		return prog(p)
	}
	t0 := wallNS()
	var errs []error
	switch c.kind {
	case onInproc, onSimnet:
		cfg := core.Config{NumPE: c.npe, Transport: core.TransportInproc}
		if c.kind == onSimnet {
			cfg = core.Config{NumPE: c.npe, Platform: platform.SparcSunOS, Seed: c.simSeed}
		}
		res, err := core.Run(cfg, body)
		if err != nil {
			return nil, err
		}
		errs = res.Errs
		out.total.Add(&res.Total)
		out.bus = res.Bus
		out.clockS = float64(res.Elapsed) / 1e9
	case onTCP:
		var err error
		errs, err = c.runTCP(body, out)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown transport %q", c.kind)
	}
	t1 := wallNS()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	out.wallS = float64(t1-t0) / 1e9
	if !c.virtual() {
		out.clockS = out.wallS
	}
	last := t0
	for _, t := range entered {
		last = max(last, t)
	}
	out.setupS = float64(last-t0) / 1e9
	return out, nil
}

// runTCP builds a loopback tcpnet mesh and drives one core.RunOn per node,
// the way dsenode runs a multi-process cluster, so each node can be wrapped
// by a tracedNode.
func (c clusterSpec) runTCP(body core.Program, out *runOut) ([]error, error) {
	nw, err := tcpnet.NewLocal(c.npe)
	if err != nil {
		return nil, fmt.Errorf("tcp mesh: %w", err)
	}
	defer nw.Stop()
	if c.traced {
		out.net = newNetRecorder()
	}
	results := make([]*core.Result, c.npe)
	errs := make([]error, c.npe)
	var wg sync.WaitGroup
	for i := 0; i < c.npe; i++ {
		var node transport.Node = nw.Node(i)
		if c.traced {
			node = newTracedNode(node, out.net)
		}
		wg.Add(1)
		go func(i int, node transport.Node) {
			defer wg.Done()
			results[i], errs[i] = core.RunOn(core.Config{}, node, body)
		}(i, node)
	}
	wg.Wait()
	for i, res := range results {
		if res == nil {
			continue
		}
		out.total.Add(&res.Total)
		if err := res.FirstErr(); err != nil && errs[i] == nil {
			errs[i] = err
		}
	}
	return errs, nil
}
