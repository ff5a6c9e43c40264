package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/check/stress"
	"repro/internal/sim"
)

// runMembership sweeps the elastic-membership stress schedules for one base
// seed: live joins, graceful leaves and block re-homings overlapping the
// randomized workload, fault-free and with a station kill landing mid-
// migration. Every configuration must produce a violation-free history AND
// at least three membership events actually fired — a run where the
// schedule silently never triggered would prove nothing.
func runMembership(seed uint64, quick bool) {
	ops := 800
	if quick {
		ops = 200
	}
	mig := ops / 8
	join, leave := ops/4, ops/2

	configs := []stress.Options{
		// Full churn, fault-free: join + leave + periodic re-homings over
		// the complete op mix (blocks, gathers, locks, barriers).
		{Seed: seed, NumPE: 5, OpsPerPE: ops,
			Latent: 1, JoinAtOp: join, LeavePE: 2, LeaveAtOp: leave, MigrateEvery: mig},
		// The same churn through sharded kernels: re-homing must fence every
		// shard, not just the serial serve loop.
		{Seed: seed, NumPE: 5, OpsPerPE: ops, Shards: 2,
			Latent: 1, JoinAtOp: join, LeavePE: 2, LeaveAtOp: leave, MigrateEvery: mig},
		{Seed: seed, NumPE: 5, OpsPerPE: ops, Shards: 8,
			Latent: 1, JoinAtOp: join, LeavePE: 2, LeaveAtOp: leave, MigrateEvery: mig},
		// Churn under frame loss: handoff NACKs, redirects and retries all
		// cross a lossy medium.
		{Seed: seed, NumPE: 4, OpsPerPE: ops, Loss: 0.05,
			Latent: 1, JoinAtOp: join, MigrateEvery: mig},
		// One-sided legs: the direct-read window and write rings must
		// rebind when their blocks change home.
		{Seed: seed, NumPE: 4, OpsPerPE: ops, Shards: 2,
			Latent: 1, JoinAtOp: join, LeavePE: 2, LeaveAtOp: leave, MigrateEvery: mig},
		// A station kill overlapping the migration stream: handoffs stranded
		// by the dead peer may fail, but no acknowledged write may be lost
		// or duplicated in the surviving history.
		{Seed: seed, NumPE: 5, OpsPerPE: ops, Loss: 0.02,
			KillPE: 3, KillAt: 2 * sim.Second,
			Latent: 1, JoinAtOp: join, MigrateEvery: mig},
		// Mixed consistency tiers through the full churn: half the re-homings
		// target the release region, so handoffs overlap unflushed WC buffers
		// (the membership fence must publish them before escrow) and joins
		// and leaves drop held leases cluster-wide.
		{Seed: seed, NumPE: 5, OpsPerPE: ops, Modes: true,
			Latent: 1, JoinAtOp: join, LeavePE: 2, LeaveAtOp: leave, MigrateEvery: mig},
		// The same mixed-tier churn over the one-sided window/ring paths.
		{Seed: seed, NumPE: 5, OpsPerPE: ops, Modes: true, Shards: 2,
			Latent: 1, JoinAtOp: join, LeavePE: 2, LeaveAtOp: leave, MigrateEvery: mig},
	}

	start := time.Now()
	totalOps, totalEvents, failures := 0, uint64(0), 0
	for _, o := range configs {
		res, err := stress.Run(o)
		if err != nil {
			fatalf("membership (%v): %v", o, err)
		}
		events := res.Joins + res.Leaves + res.Migrations
		status := "ok"
		if res.Err != nil {
			status = fmt.Sprintf("PE ERROR: %v", res.Err)
			failures++
		}
		if !res.Report.OK() {
			status = fmt.Sprintf("%d VIOLATIONS", len(res.Report.Violations))
			failures++
		}
		if events < 3 {
			status = fmt.Sprintf("only %d membership events (want >= 3)", events)
			failures++
		}
		fmt.Printf("%-70s %7d ops  %2d joins %2d leaves %3d migrations %4d blocks  %s\n",
			o.String(), res.History.Len(), res.Joins, res.Leaves, res.Migrations,
			res.MigratedBlocks, status)
		if !res.Report.OK() {
			fmt.Print(res.Report)
		}
		totalOps += res.History.Len()
		totalEvents += events
	}
	fmt.Printf("checked %d operations, %d membership events across %d configurations in %v\n",
		totalOps, totalEvents, len(configs), time.Since(start).Round(time.Millisecond))
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "dsebench: membership FAILED (%d bad configurations); replay with -membership -seed %d\n", failures, seed)
		os.Exit(1)
	}
}
