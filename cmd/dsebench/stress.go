package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/check/stress"
	"repro/internal/sim"
)

// runStress sweeps the consistency stress matrix (PEs x loss x caching,
// plus a peer-kill schedule) for one base seed, printing per-configuration
// results and exiting 1 on any violation. Every configuration is a pure
// function of the seed: re-running with the printed seed replays the
// failing history bit-for-bit.
func runStress(seed uint64, quick bool) {
	pes := []int{2, 4, 8}
	losses := []float64{0, 0.05, 0.15}
	ops := 1000
	if quick {
		pes = []int{2, 4}
		losses = []float64{0, 0.15}
		ops = 150
	}
	var configs []stress.Options
	for _, np := range pes {
		for _, loss := range losses {
			for _, caching := range []bool{false, true} {
				configs = append(configs, stress.Options{
					Seed: seed, NumPE: np, OpsPerPE: ops,
					Caching: caching, Loss: loss,
					Jitter: 200 * sim.Microsecond,
				})
			}
		}
	}
	// One peer-kill schedule rides along at the end of the matrix.
	configs = append(configs, stress.Options{
		Seed: seed, NumPE: 4, OpsPerPE: ops, Loss: 0.02,
		KillPE: 2, KillAt: 2 * sim.Second,
	})
	// Sharded-kernel legs: the harshest lossy-caching corner and the
	// peer-kill schedule again at 2 and 8 shards. Under the simulated
	// transport sharding dispatches inline, so the caching legs must match
	// the unsharded histories op for op — any divergence is a routing bug.
	for _, shards := range []int{2, 8} {
		configs = append(configs,
			stress.Options{
				Seed: seed, NumPE: 4, OpsPerPE: ops,
				Caching: true, Loss: 0.15,
				Jitter: 200 * sim.Microsecond, Shards: shards,
			},
			stress.Options{
				Seed: seed, NumPE: 4, OpsPerPE: ops, Loss: 0.02,
				KillPE: 2, KillAt: 2 * sim.Second, Shards: shards,
			})
	}
	// One-sided legs (more than one shard opens the window and the write
	// rings), lossy and with an early kill (one-sided schedules run fast,
	// so the kill must sit well inside the run to fire).
	for _, shards := range []int{2, 8} {
		configs = append(configs,
			stress.Options{
				Seed: seed, NumPE: 4, OpsPerPE: ops, Loss: 0.05,
				Shards: shards,
			},
			stress.Options{
				Seed: seed, NumPE: 4, OpsPerPE: ops, Loss: 0.02,
				KillPE: 2, KillAt: 100 * sim.Millisecond,
				Shards: shards,
			})
	}
	// Mixed consistency-tier legs: strong, release and lease allocations in
	// one run, checked by the per-mode rules — fault-free, through the lossy
	// caching corner, over the one-sided window/ring paths, and with a
	// mid-run station kill discarding unflushed WC words and stranding held
	// leases.
	configs = append(configs,
		stress.Options{
			Seed: seed, NumPE: 4, OpsPerPE: ops, Modes: true,
		},
		stress.Options{
			Seed: seed, NumPE: 4, OpsPerPE: ops, Modes: true,
			Caching: true, Loss: 0.15, Jitter: 200 * sim.Microsecond,
		},
		stress.Options{
			Seed: seed, NumPE: 4, OpsPerPE: ops, Modes: true,
			Shards: 2, Loss: 0.05,
		},
		stress.Options{
			Seed: seed, NumPE: 4, OpsPerPE: ops, Modes: true, Loss: 0.02,
			KillPE: 2, KillAt: 2 * sim.Second,
		})

	start := time.Now()
	totalOps, failures := 0, 0
	for _, o := range configs {
		res, err := stress.Run(o)
		if err != nil {
			fatalf("stress (%v): %v", o, err)
		}
		status := "ok"
		if res.Err != nil {
			status = fmt.Sprintf("PE ERROR: %v", res.Err)
			failures++
		}
		if !res.Report.OK() {
			status = fmt.Sprintf("%d VIOLATIONS", len(res.Report.Violations))
			failures++
		}
		fmt.Printf("%-60s %7d ops  %s\n", o.String(), res.History.Len(), status)
		if !res.Report.OK() {
			fmt.Print(res.Report)
		}
		totalOps += res.History.Len()
	}
	fmt.Printf("checked %d operations across %d configurations in %v\n",
		totalOps, len(configs), time.Since(start).Round(time.Millisecond))
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "dsebench: stress FAILED (%d bad configurations); replay with -stress -seed %d\n", failures, seed)
		os.Exit(1)
	}
}
