package core

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/gmem"
	"repro/internal/wire"
)

// TestRingWriteFastPath runs a scalar-write-heavy workload on the
// one-sided route: every uncached remote scalar write into a
// co-located home must resolve through a submission ring — zero OpWrite
// messages on the wire — and every value must read back correctly.
func TestRingWriteFastPath(t *testing.T) {
	prog := func(pe *PE) error {
		n := pe.N()
		bw := pe.Space().BlockWords
		words := 4 * n * bw
		base := pe.AllocBlocks(words)
		pe.Barrier()
		// Each PE writes a disjoint scalar stride spanning every home.
		for i := pe.ID(); i < words; i += n {
			pe.GMWrite(base+uint64(i), int64(i+1))
		}
		pe.Barrier()
		for i := 0; i < words; i++ {
			if v := pe.GMRead(base + uint64(i)); v != int64(i+1) {
				return fmt.Errorf("PE %d: word %d = %d", pe.ID(), i, v)
			}
		}
		pe.Barrier()
		return nil
	}
	res, err := Run(Config{
		NumPE: 4, Transport: TransportInproc,
		KernelShards: 4,
	}, prog)
	if err != nil || res.FirstErr() != nil {
		t.Fatal(err, res.FirstErr())
	}
	if res.Total.RingGM == 0 {
		t.Error("no ring writes with rings available")
	}
	if res.Total.RingGM > res.Total.RemoteGM {
		t.Errorf("RingGM = %d > RemoteGM = %d", res.Total.RingGM, res.Total.RemoteGM)
	}
	if res.Total.RingDrained != res.Total.RingGM {
		t.Errorf("RingDrained = %d, want %d (every submitted write applied exactly once)",
			res.Total.RingDrained, res.Total.RingGM)
	}
	// The scalar write traffic must have vanished from the wire.
	if msgs := res.Total.ByOp[wire.OpWrite].Msgs; msgs != 0 {
		t.Errorf("OpWrite messages = %d, want 0 (all scalar writes through rings)", msgs)
	}
}

// TestRingWritesDisabledWithoutWorkers pins the worker requirement: on a
// real transport with one shard the serve loop services the shard without
// the shard mutex a draining producer takes, so no ring is allocated and
// writes fall back to messages.
func TestRingWritesDisabledWithoutWorkers(t *testing.T) {
	cfg := Config{NumPE: 2, Transport: TransportInproc, KernelShards: 1}
	var sawRing atomic.Bool
	cfg.testInspect = func(ks []*Kernel, _ []*PE) {
		for _, k := range ks {
			for _, sh := range k.shards {
				if sh.ring != nil {
					sawRing.Store(true)
				}
			}
		}
	}
	res, err := Run(cfg, func(pe *PE) error {
		a := pe.Alloc(64)
		pe.Barrier()
		pe.GMWrite(a+uint64(pe.ID()), int64(pe.ID()+1))
		pe.Barrier()
		for i := 0; i < pe.N(); i++ {
			if v := pe.GMRead(a + uint64(i)); v != int64(i+1) {
				return fmt.Errorf("word %d = %d", i, v)
			}
		}
		pe.Barrier()
		return nil
	})
	if err != nil || res.FirstErr() != nil {
		t.Fatal(err, res.FirstErr())
	}
	if sawRing.Load() {
		t.Error("shard ring allocated on a single-shard real transport")
	}
	if res.Total.RingGM != 0 {
		t.Errorf("RingGM = %d on a single-shard real transport, want 0", res.Total.RingGM)
	}
}

// TestRingWriteDedupExactlyOnce proves ring sequences and message sequences
// share one exactly-once space: a write applied through the ring must absorb
// a message-path retry carrying the same (Src, Seq), and vice versa. The
// sentinel overwrite between the two deliveries makes a double-apply visible
// as a value regression.
func TestRingWriteDedupExactlyOnce(t *testing.T) {
	_, ks := testKernels(t, 2, func(cfg *Config) { cfg.KernelShards = 2 })
	k := ks[0]
	addr := uint64(0) // block 0: homed at kernel 0, shard 0
	sh := k.shards[k.space.ShardOf(addr, k.nshards)]
	if sh.ring == nil {
		t.Fatal("no ring on a sharded inproc kernel")
	}

	// Ring first, then a message-path retry of the same logical write.
	pos, ok := sh.ring.Push(gmem.RingWrite{Addr: addr, Val: 7, Seq: 5, Src: 1})
	if !ok {
		t.Fatal("push rejected")
	}
	sh.drainRing()
	if v := sh.ring.Verdict(pos); v != gmem.VerdictApplied {
		t.Fatalf("drainRing settled the slot %d, want applied", v)
	}
	sh.ring.Free(pos)
	if v := k.seg.Read(addr, 1)[0]; v != 7 {
		t.Fatalf("ring write not applied: %d", v)
	}
	k.seg.Write(addr, []int64{1000}) // sentinel: a re-apply would clobber this
	retry := &wire.Message{Op: wire.OpWrite, Src: 1, Dst: 0, Seq: 5, Addr: addr, Flags: wire.FlagRetry}
	retry.PutWord(7)
	sh.handleGM(retry)
	if v := k.seg.Read(addr, 1)[0]; v != 1000 {
		t.Fatalf("message retry of a ring write re-applied: %d, want sentinel 1000", v)
	}
	if sh.extra.DupRequests != 1 {
		t.Fatalf("DupRequests = %d, want 1", sh.extra.DupRequests)
	}

	// Message first, then a raced ring submission with the same (Src, Seq).
	first := &wire.Message{Op: wire.OpWrite, Src: 1, Dst: 0, Seq: 6, Addr: addr}
	first.PutWord(8)
	sh.handleGM(first)
	if v := k.seg.Read(addr, 1)[0]; v != 8 {
		t.Fatalf("message write not applied: %d", v)
	}
	k.seg.Write(addr, []int64{2000})
	if pos, ok = sh.ring.Push(gmem.RingWrite{Addr: addr, Val: 8, Seq: 6, Src: 1}); !ok {
		t.Fatal("push rejected")
	}
	sh.drainRing()
	if v := sh.ring.Verdict(pos); v != gmem.VerdictApplied {
		t.Fatalf("duplicate settled %d, want applied (the message path applied it)", v)
	}
	if v := k.seg.Read(addr, 1)[0]; v != 2000 {
		t.Fatalf("ring duplicate of a message write re-applied: %d, want sentinel 2000", v)
	}
	if sh.extra.DupRequests != 2 {
		t.Fatalf("DupRequests = %d, want 2", sh.extra.DupRequests)
	}
	// Duplicates consume ring slots but never count as drained work.
	if sh.extra.RingDrained != 1 {
		t.Fatalf("RingDrained = %d, want 1 (the one fresh ring write)", sh.extra.RingDrained)
	}
}

// raceScalarWritesAgainstMigration has the migrator PE move block 0 between
// kernels 0 and 1, moves times, while each writer PE stores 1..writes into
// its own word of that block and reads every value straight back. A store
// racing a handoff must land exactly once and travel with the moving data:
// every read-back and every final value is exact.
func raceScalarWritesAgainstMigration(t *testing.T, numPE, migrator int, writers ...int) *Result {
	const writes, moves = 3000, 24
	res, err := Run(Config{
		NumPE: numPE, Transport: TransportInproc,
		KernelShards: 2,
	}, func(pe *PE) error {
		base := pe.AllocBlocks(pe.Space().BlockWords) // block 0, homed at kernel 0
		pe.Barrier()
		var err error
		if id := pe.ID(); id == migrator {
			for i := 0; i < moves && err == nil; i++ {
				err = pe.MigrateRange(base, 1, 1-i%2)
			}
		} else if slices.Contains(writers, id) {
			addr := base + uint64(id)
			for v := int64(1); v <= writes && err == nil; v++ {
				if err = pe.GMWriteErr(addr, v); err != nil {
					break
				}
				got, rerr := pe.GMReadErr(addr)
				if err = rerr; err == nil && got != v {
					err = fmt.Errorf("PE %d: read %d after writing %d", id, got, v)
				}
			}
		}
		pe.Barrier() // reached even on error: the other PEs wait here
		for _, w := range writers {
			if v := pe.GMRead(base + uint64(w)); err == nil && v != writes {
				err = fmt.Errorf("PE %d: word of writer %d = %d, want %d", pe.ID(), w, v, writes)
			}
		}
		pe.Barrier()
		return err
	})
	if err != nil || res.FirstErr() != nil {
		t.Fatal(err, res.FirstErr())
	}
	if res.Total.Migrations < moves {
		t.Errorf("Migrations = %d, want %d", res.Total.Migrations, moves)
	}
	return res
}

// TestRingWriteRacesMigration races ring writes from two non-home PEs
// against handoffs of their block: a drained write whose block flipped away
// is rejected untouched and retried on the message path, never applied to a
// block that already left.
func TestRingWriteRacesMigration(t *testing.T) {
	if res := raceScalarWritesAgainstMigration(t, 4, 0, 2, 3); res.Total.RingGM == 0 {
		t.Error("no ring writes: the writers never took the ring")
	}
}

// TestScalarHomeRacesMigration makes the writers the two homes the block
// moves between, so each store alternates between the own-home path, the
// ring and the message path, and the home's read and write handlers see the
// directory flip between their ownership scan and the apply.
func TestScalarHomeRacesMigration(t *testing.T) {
	raceScalarWritesAgainstMigration(t, 3, 2, 0, 1)
}
