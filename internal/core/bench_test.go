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

// routeConfig pins a 2-PE inproc cluster to one GM route for remote words:
// the message route (one kernel shard, no window or ring, so every remote
// access is a request/reply through kernel service, wire codec and mailbox
// plumbing) or the one-sided window (direct reads and atomics on the
// co-located home's segment).
func routeConfig(cfg Config, window bool) Config {
	cfg.NumPE, cfg.WriteRings = 2, -1
	cfg.KernelShards, cfg.DirectReads = 1, -1
	if window {
		cfg.KernelShards, cfg.DirectReads = 2, 1
	}
	return cfg
}

// benchRoute times b.N calls of op by PE 0 on a block homed at PE 1 over
// the route routeConfig pins, then checks the route's counters so the
// benchmark cannot quietly drift to the other route: the window must have
// served every call (DirectGM) with no msgOps message sent, the message
// route must have sent a msgOps message per call and served none directly.
func benchRoute(b *testing.B, cfg Config, window bool, op func(pe *PE, addr uint64), msgOps ...wire.Op) {
	res := runBench(b, routeConfig(cfg, window), func(pe *PE) error {
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
	if window && (st.DirectGM < n || msgs != 0) {
		b.Fatalf("window route: DirectGM=%d, %v messages=%d for %d ops; want every op direct", st.DirectGM, msgOps, msgs, n)
	}
	if !window && (st.DirectGM != 0 || msgs < n) {
		b.Fatalf("message route: DirectGM=%d, %v messages=%d for %d ops; want every op messaged", st.DirectGM, msgOps, msgs, n)
	}
}

func gmRead(pe *PE, addr uint64)        { pe.GMRead(addr) }
func fetchAdd(pe *PE, addr uint64)      { pe.FetchAdd(addr, 1) }
func gmReadBlock32(pe *PE, addr uint64) { pe.GMReadBlock(addr, 32) }

// BenchmarkGMRemoteWordRoundTrip measures one remote read request/response
// through kernel service, wire codec and mailbox plumbing (inproc).
func BenchmarkGMRemoteWordRoundTrip(b *testing.B) {
	benchRoute(b, Config{}, false, gmRead, wire.OpRead)
}

// BenchmarkFetchAddRouteMessage and BenchmarkFetchAddRouteWindow time one
// remote FetchAdd on each route: a request/reply through the home kernel,
// or the ownership-checked atomic on the co-located home's segment.
func BenchmarkFetchAddRouteMessage(b *testing.B) {
	benchRoute(b, Config{}, false, fetchAdd, wire.OpFetchAdd)
}

func BenchmarkFetchAddRouteWindow(b *testing.B) {
	benchRoute(b, Config{}, true, fetchAdd, wire.OpFetchAdd)
}

// BenchmarkBlockReadRouteMessage and BenchmarkBlockReadRouteWindow time one
// remote 32-word GMReadBlock (one block, so one run) on each route: a
// request/reply, or the seqlock-validated run copy through the window.
func BenchmarkBlockReadRouteMessage(b *testing.B) {
	benchRoute(b, Config{GMBlockWords: 32}, false, gmReadBlock32, wire.OpRead, wire.OpReadV)
}

func BenchmarkBlockReadRouteWindow(b *testing.B) {
	benchRoute(b, Config{GMBlockWords: 32}, true, gmReadBlock32, wire.OpRead, wire.OpReadV)
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
	benchRoute(b, Config{}, false, gmRead, wire.OpRead)
}

// BenchmarkRoundTripTracingEnabled records a span per round trip on both
// the requester and home sides.
func BenchmarkRoundTripTracingEnabled(b *testing.B) {
	benchRoute(b, Config{Tracing: trace.TracingConfig{Enabled: true, RingSize: 1 << 16}}, false, gmRead, wire.OpRead)
}
