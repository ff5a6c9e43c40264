package gmem

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDirectOwnedFailAfterExtract walks one block through a migration on
// the old home's side: while the segment owns the block, the one-sided
// atomic and run read succeed and the atomic's effect lands in the block;
// once the directory flips and Extract removes the block, both report
// ok=false without touching memory, and the extracted snapshot carries every
// atomic applied before the flip.
func TestDirectOwnedFailAfterExtract(t *testing.T) {
	space := NewSpace(2, 8)
	dir := NewDirectory(2, 0)
	seg := NewSegment(space, 0)
	seg.SetDirectory(dir)
	const addr = 3 // block 0, homed at kernel 0

	if prev, sw, ok := seg.AtomicOwned(addr, false, 5, 0); !ok || !sw || prev != 0 {
		t.Fatalf("FetchAdd on an owned block = (%d, %v, %v), want (0, true, true)", prev, sw, ok)
	}
	if prev, sw, ok := seg.AtomicOwned(addr, true, 4, 9); !ok || sw || prev != 5 {
		t.Fatalf("failing CAS = (%d, %v, %v), want (5, false, true)", prev, sw, ok)
	}
	if prev, sw, ok := seg.AtomicOwned(addr, true, 5, 7); !ok || !sw || prev != 5 {
		t.Fatalf("CAS = (%d, %v, %v), want (5, true, true)", prev, sw, ok)
	}
	run := make([]int64, 4)
	if !seg.DirectReadRunOwned(run, 2) || run[0] != 0 || run[1] != 7 || run[2] != 0 {
		t.Fatalf("run read of an owned block = %v", run)
	}
	// A run in a block never materialised reads as zeros.
	run[0] = 99
	if !seg.DirectReadRunOwned(run, 2*8*2) || run[0] != 0 {
		t.Fatalf("run read of an unmaterialised block = %v, want zeros", run)
	}

	// Old-home side of a handoff: flip the directory, then extract.
	dir.SetOverride(0, 1)
	snap := seg.Extract(func(b uint64) bool { return !dir.Owns(0, b) })
	if len(snap) != 1 || snap[0].Index != 0 || snap[0].Words[addr] != 7 {
		t.Fatalf("extracted snapshot %v lost the atomics applied before the flip", snap)
	}
	if _, _, ok := seg.AtomicOwned(addr, false, 1, 0); ok {
		t.Fatal("AtomicOwned succeeded on a migrated block")
	}
	if seg.DirectReadRunOwned(run, 2) {
		t.Fatal("DirectReadRunOwned succeeded on a migrated block")
	}
	if seg.Has(0) {
		t.Fatal("failed AtomicOwned re-materialised the migrated block")
	}
}

// TestDirectReadRunUnderWriterStorm reads whole-block runs while writers
// store a full block of one repeated value at a time: a run must never mix
// two writes (torn), and under the storm the run read must take — and count
// — its mutex fallback yet still return a consistent run.
func TestDirectReadRunUnderWriterStorm(t *testing.T) {
	space := NewSpace(1, 32)
	seg := NewSegment(space, 0)
	const writers = 4
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]int64, 32)
			for i := int64(1); !stop.Load(); i++ {
				for j := range buf {
					buf[j] = i<<8 | int64(w)
				}
				seg.Write(0, buf)
			}
		}(w)
	}
	halt := func() {
		stop.Store(true)
		wg.Wait()
	}
	run := make([]int64, 32)
	deadline := time.Now().Add(20 * time.Second)
	for reads := 0; reads < 2000 || seg.DirectReadFallbacks() == 0; reads++ {
		if !seg.DirectReadRunOwned(run, 0) {
			halt()
			t.Fatal("run read of an owned block reported not owned")
		}
		for i, v := range run {
			if v != run[0] {
				halt()
				t.Fatalf("torn run: word 0 = %#x, word %d = %#x", run[0], i, v)
			}
		}
		if time.Now().After(deadline) {
			halt()
			t.Skip("writer storm never forced the fallback on this machine")
		}
	}
	halt()
}
