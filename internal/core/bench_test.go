package core

import (
	"testing"

	"repro/internal/platform"
	"repro/internal/trace"
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

// benchRemoteRead times b.N remote GMReads by PE 0 of a 2-PE cluster pinned
// to the message route: one kernel shard and no one-sided window or ring,
// so every read is a request/reply through kernel service, wire codec and
// mailbox plumbing. It fails if any read was served by the window instead.
func benchRemoteRead(b *testing.B, cfg Config) {
	cfg.NumPE, cfg.KernelShards, cfg.DirectReads, cfg.WriteRings = 2, 1, -1, -1
	res := runBench(b, cfg, func(pe *PE) error {
		addr := pe.Alloc(64)
		// Find a word homed at the *other* kernel.
		for pe.Space().HomeOf(addr) == pe.ID() {
			addr++
		}
		pe.Barrier()
		if pe.ID() == 0 {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pe.GMRead(addr)
			}
			b.StopTimer()
		}
		pe.Barrier()
		return nil
	})
	if res.Total.DirectGM != 0 {
		b.Fatalf("%d reads took the one-sided window, want the message route only", res.Total.DirectGM)
	}
}

// BenchmarkGMRemoteWordRoundTrip measures one remote read request/response
// through kernel service, wire codec and mailbox plumbing (inproc).
func BenchmarkGMRemoteWordRoundTrip(b *testing.B) {
	benchRemoteRead(b, Config{})
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
// through its local segment, the others through the message path.
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
	benchRemoteRead(b, Config{})
}

// BenchmarkRoundTripTracingEnabled records a span per round trip on both
// the requester and home sides.
func BenchmarkRoundTripTracingEnabled(b *testing.B) {
	benchRemoteRead(b, Config{Tracing: trace.TracingConfig{Enabled: true, RingSize: 1 << 16}})
}
