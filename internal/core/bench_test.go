package core

import (
	"testing"

	"repro/internal/platform"
	"repro/internal/trace"
	"repro/internal/wire"
)

// runBench runs body once over an inproc cluster configured by cfg, b.N
// iterations inside the program (cluster construction excluded from the
// loop cost only approximately; these benchmarks measure runtime
// primitives, not the constructor).
func runBench(b *testing.B, cfg Config, body Program) *Result {
	b.Helper()
	cfg.Transport = TransportInproc
	res, err := Run(cfg, body)
	if err != nil {
		b.Fatal(err)
	}
	if err := res.FirstErr(); err != nil {
		b.Fatal(err)
	}
	return res
}

// gmRoute names the GM route a benchmark pins for remote words.
type gmRoute int

const (
	// routeMessage: one kernel shard, so every remote access is a
	// request/reply through kernel service, wire codec and mailbox
	// plumbing.
	routeMessage gmRoute = iota
	// routeWindow: direct reads and atomics on the co-located home's
	// segment.
	routeWindow
	// routeRing: scalar writes through the home shard's submission ring.
	routeRing
)

// routeConfig pins a 2-PE inproc cluster to route r for remote words. The
// window and the rings are one route with one config: two shards open both.
func routeConfig(cfg Config, r gmRoute) Config {
	cfg.NumPE, cfg.KernelShards = 2, 1
	if r != routeMessage {
		cfg.KernelShards = 2
	}
	return cfg
}

// benchRoute times b.N calls of op by PE 0 on a block homed at PE 1 over
// the route routeConfig pins, then checks the route's counters so the
// benchmark cannot quietly drift to another route: a one-sided route must
// have served every call (DirectGM for the window, RingGM for the ring)
// with no msgOps message sent; the message route must have sent a msgOps
// message per call and served none one-sided.
func benchRoute(b *testing.B, cfg Config, r gmRoute, op func(pe *PE, addr uint64), msgOps ...wire.Op) {
	res := runBench(b, routeConfig(cfg, r), func(pe *PE) error {
		bw := uint64(pe.Space().BlockWords)
		addr := pe.AllocBlocks(int(2 * bw))
		if pe.Space().HomeOf(addr) == 0 {
			addr += bw
		}
		pe.Barrier()
		if pe.ID() == 0 {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(pe, addr)
			}
			b.StopTimer()
		}
		pe.Barrier()
		return nil
	})
	st := &res.PerPE[0]
	var msgs uint64
	for _, o := range msgOps {
		msgs += st.ByOp[o].Msgs
	}
	n := uint64(b.N)
	oneSided := st.DirectGM
	if r == routeRing {
		oneSided = st.RingGM
	}
	if r == routeMessage && (st.DirectGM+st.RingGM != 0 || msgs < n) {
		b.Fatalf("message route: DirectGM=%d, RingGM=%d, %v messages=%d for %d ops; want every op messaged",
			st.DirectGM, st.RingGM, msgOps, msgs, n)
	}
	if r != routeMessage && (oneSided < n || msgs != 0) {
		b.Fatalf("one-sided route: DirectGM=%d, RingGM=%d, %v messages=%d for %d ops; want every op one-sided",
			st.DirectGM, st.RingGM, msgOps, msgs, n)
	}
}

func gmRead(pe *PE, addr uint64)        { pe.GMRead(addr) }
func gmWrite(pe *PE, addr uint64)       { pe.GMWrite(addr, 1) }
func fetchAdd(pe *PE, addr uint64)      { pe.FetchAdd(addr, 1) }
func gmReadBlock32(pe *PE, addr uint64) { pe.GMReadBlock(addr, 32) }

// BenchmarkGMRemoteWordRoundTrip measures one remote read request/response
// through kernel service, wire codec and mailbox plumbing (inproc).
func BenchmarkGMRemoteWordRoundTrip(b *testing.B) {
	benchRoute(b, Config{}, routeMessage, gmRead, wire.OpRead)
}

// BenchmarkFetchAddRouteMessage and BenchmarkFetchAddRouteWindow time one
// remote FetchAdd on each route: a request/reply through the home kernel,
// or the ownership-checked atomic on the co-located home's segment.
func BenchmarkFetchAddRouteMessage(b *testing.B) {
	benchRoute(b, Config{}, routeMessage, fetchAdd, wire.OpFetchAdd)
}

func BenchmarkFetchAddRouteWindow(b *testing.B) {
	benchRoute(b, Config{}, routeWindow, fetchAdd, wire.OpFetchAdd)
}

// BenchmarkBlockReadRouteMessage and BenchmarkBlockReadRouteWindow time one
// remote 32-word GMReadBlock (one block, so one run) on each route: a
// request/reply, or the seqlock-validated run copy through the window.
func BenchmarkBlockReadRouteMessage(b *testing.B) {
	benchRoute(b, Config{GMBlockWords: 32}, routeMessage, gmReadBlock32, wire.OpRead, wire.OpReadV)
}

func BenchmarkBlockReadRouteWindow(b *testing.B) {
	benchRoute(b, Config{GMBlockWords: 32}, routeWindow, gmReadBlock32, wire.OpRead, wire.OpReadV)
}

// BenchmarkWriteRouteMessage and BenchmarkWriteRouteRing time one remote
// scalar GMWrite on each route: a request/ack through the home kernel, or a
// submission-ring publish the writer applies itself at the submit point.
func BenchmarkWriteRouteMessage(b *testing.B) {
	benchRoute(b, Config{}, routeMessage, gmWrite, wire.OpWrite)
}

func BenchmarkWriteRouteRing(b *testing.B) {
	benchRoute(b, Config{}, routeRing, gmWrite, wire.OpWrite)
}

// BenchmarkBarrier measures the central barrier end to end on 4 PEs.
func BenchmarkBarrier(b *testing.B) {
	runBench(b, Config{NumPE: 4}, func(pe *PE) error {
		if pe.ID() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			pe.Barrier()
		}
		if pe.ID() == 0 {
			b.StopTimer()
		}
		pe.Barrier()
		return nil
	})
}

// BenchmarkFetchAddPool measures the job-pool primitive under contention:
// 4 PEs claim b.N jobs from one shared counter, so ns/op is the cluster's
// time per claimed job whichever PE claimed it. The counter's home claims
// through its local segment, the others through the one-sided window where
// the default config enables it, else the message path.
func BenchmarkFetchAddPool(b *testing.B) {
	runBench(b, Config{NumPE: 4}, func(pe *PE) error {
		counter := pe.Alloc(1)
		pe.Barrier()
		if pe.ID() == 0 {
			b.ResetTimer()
		}
		for pe.FetchAdd(counter, 1) < int64(b.N) {
		}
		pe.Barrier()
		if pe.ID() == 0 {
			b.StopTimer()
		}
		return nil
	})
}

// BenchmarkSimClusterConstruction measures how long a simulated 6-PE
// cluster takes to build and tear down with a trivial program.
func BenchmarkSimClusterConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Run(Config{NumPE: 6, Platform: platform.SparcSunOS, Seed: 1},
			func(pe *PE) error { return nil })
		if err != nil || res.FirstErr() != nil {
			b.Fatal(err, res.FirstErr())
		}
	}
}

// BenchmarkRoundTripTracingDisabled is the default path: histograms are
// always on, span tracing costs one nil check.
func BenchmarkRoundTripTracingDisabled(b *testing.B) {
	benchRoute(b, Config{}, routeMessage, gmRead, wire.OpRead)
}

// BenchmarkRoundTripTracingEnabled records a span per round trip on both
// the requester and home sides.
func BenchmarkRoundTripTracingEnabled(b *testing.B) {
	benchRoute(b, Config{Tracing: trace.TracingConfig{Enabled: true, RingSize: 1 << 16}}, routeMessage, gmRead, wire.OpRead)
}
