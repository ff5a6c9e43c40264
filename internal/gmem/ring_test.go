package gmem

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// settle marks every write of a drained batch with verdict v.
func settle(batch []RingWrite, v Verdict) []RingWrite {
	for i := range batch {
		batch[i].Verdict = v
	}
	return batch
}

// TestSubmitRingFIFO pushes a batch, drains it, and checks payloads come out
// in submission order, each producer reads its verdict, and the slots are
// reusable once the producers free them.
func TestSubmitRingFIFO(t *testing.T) {
	r := NewSubmitRing(8)
	buf := make([]RingWrite, 8)
	for round := 0; round < 5; round++ { // several laps: slots must recycle
		var positions []uint64
		for i := 0; i < 6; i++ {
			w := RingWrite{Addr: uint64(round*10 + i), Val: int64(i), Seq: uint64(i + 1), Src: 3}
			pos, ok := r.Push(w)
			if !ok {
				t.Fatalf("round %d: push %d rejected", round, i)
			}
			positions = append(positions, pos)
		}
		if p := r.Pending(); p != 6 {
			t.Fatalf("round %d: Pending = %d, want 6", round, p)
		}
		n := r.Drain(buf)
		if n != 6 {
			t.Fatalf("round %d: Drain = %d, want 6", round, n)
		}
		for i, w := range buf[:n] {
			want := RingWrite{Addr: uint64(round*10 + i), Val: int64(i), Seq: uint64(i + 1), Src: 3}
			if w != want {
				t.Fatalf("round %d: slot %d = %+v, want %+v", round, i, w, want)
			}
			buf[i].Verdict = VerdictApplied + Verdict(i%2) // alternate applied/rejected
		}
		r.Release(buf[:n])
		if p := r.Pending(); p != 0 {
			t.Fatalf("round %d: Pending = %d after Release, want 0", round, p)
		}
		for i, pos := range positions {
			if v, want := r.Verdict(pos), VerdictApplied+Verdict(i%2); v != want {
				t.Fatalf("round %d: slot %d verdict %d, want %d", round, i, v, want)
			}
			r.Free(pos)
		}
	}
}

// TestSubmitRingFullRejects fills the ring and checks the next push fails
// cleanly — no side effects, and the ring still drains intact. A settled
// slot stays claimed until its producer frees it: the ring reports full
// until then, so no later lap can overwrite a verdict nobody has read.
func TestSubmitRingFullRejects(t *testing.T) {
	r := NewSubmitRing(4)
	var positions []uint64
	for i := 0; i < 4; i++ {
		pos, ok := r.Push(RingWrite{Addr: uint64(i)})
		if !ok {
			t.Fatalf("push %d rejected before full", i)
		}
		positions = append(positions, pos)
	}
	if _, ok := r.Push(RingWrite{Addr: 99}); ok {
		t.Fatal("push into a full ring succeeded")
	}
	buf := make([]RingWrite, 4)
	if n := r.Drain(buf); n != 4 {
		t.Fatalf("Drain = %d, want 4", n)
	}
	for i, w := range buf {
		if w.Addr != uint64(i) {
			t.Fatalf("slot %d addr = %d after rejected push, want %d", i, w.Addr, i)
		}
	}
	r.Release(settle(buf, VerdictApplied))
	if _, ok := r.Push(RingWrite{Addr: 5}); ok {
		t.Fatal("push succeeded over a settled slot its producer never freed")
	}
	if v := r.Verdict(positions[0]); v != VerdictApplied {
		t.Fatalf("verdict = %d after the refused push, want applied", v)
	}
	r.Free(positions[0])
	if _, ok := r.Push(RingWrite{Addr: 5}); !ok {
		t.Fatal("push rejected after the head slot was freed")
	}
	if _, ok := r.Push(RingWrite{Addr: 6}); ok {
		t.Fatal("push succeeded over the second, still unfreed slot")
	}
}

// TestSubmitRingWraparound starts the ring's positions just below the top of
// uint64 so tail, head and the slot state words all wrap mid-test: the
// modular comparisons must keep FIFO order, full detection and the verdict
// encoding working across the wrap.
func TestSubmitRingWraparound(t *testing.T) {
	const size = 4
	r := newSubmitRingAt(size, math.MaxUint64-5) // wraps on the 7th push
	buf := make([]RingWrite, size)
	var next uint64
	for round := 0; round < 8; round++ { // 24 pushes: well past the wrap
		var positions []uint64
		for i := 0; i < 3; i++ {
			w := RingWrite{Addr: next, Val: int64(next), Seq: next + 1}
			pos, ok := r.Push(w)
			if !ok {
				t.Fatalf("push %d rejected", next)
			}
			if v := r.Verdict(pos); v != VerdictPending {
				t.Fatalf("position %d settled (%d) before drain", pos, v)
			}
			positions = append(positions, pos)
			next++
		}
		n := r.Drain(buf)
		if n != 3 {
			t.Fatalf("round %d: Drain = %d, want 3", round, n)
		}
		for i, w := range buf[:n] {
			if want := next - 3 + uint64(i); w.Addr != want {
				t.Fatalf("round %d: drained addr %d, want %d (FIFO broke at wrap)", round, w.Addr, want)
			}
			buf[i].Verdict = VerdictApplied + Verdict(w.Addr%2)
		}
		r.Release(buf[:n])
		for i, pos := range positions {
			if v, want := r.Verdict(pos), VerdictApplied+Verdict(buf[i].Addr%2); v != want {
				t.Fatalf("position %d verdict %d after Release, want %d", pos, v, want)
			}
			r.Free(pos)
		}
	}
}

// TestSubmitRingConcurrentProducers hammers one ring the way the home shard
// uses it: every producer pushes, then reads its own slot's verdict,
// draining the ring itself under a shared mutex when the mutex is free and
// yielding when it is not. The drainer rejects odd tokens. Every write must
// be drained exactly once, payload intact, and every producer must read
// back exactly the verdict its write was given. Run under -race this is
// also the memory-model check on the publish and settle edges.
func TestSubmitRingConcurrentProducers(t *testing.T) {
	const (
		producers = 8
		perProd   = 250
	)
	r := NewSubmitRing(64)
	var mu sync.Mutex
	buf := make([]RingWrite, 64)
	seen := make(map[uint64]int) // seq -> drains; guarded by mu
	drain := func() {
		batch := buf[:r.Drain(buf)]
		for i, w := range batch {
			if w.Addr != w.Seq || w.Val != int64(w.Seq) || w.Verdict != VerdictPending {
				t.Errorf("torn slot: %+v", w)
			}
			seen[w.Seq]++
			batch[i].Verdict = VerdictApplied + Verdict(w.Seq%2)
		}
		r.Release(batch)
	}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				tok := uint64(p*perProd + i + 1)
				pos, ok := r.Push(RingWrite{Addr: tok, Val: int64(tok), Seq: tok, Src: int32(p)})
				for !ok { // full: spin like the PE fallback would retry
					pos, ok = r.Push(RingWrite{Addr: tok, Val: int64(tok), Seq: tok, Src: int32(p)})
				}
				for {
					if v := r.Verdict(pos); v != VerdictPending {
						if want := VerdictApplied + Verdict(tok%2); v != want {
							t.Errorf("token %d: verdict %d, want %d", tok, v, want)
						}
						r.Free(pos)
						break
					}
					if mu.TryLock() {
						drain()
						mu.Unlock()
					} else {
						runtime.Gosched()
					}
				}
			}
		}(p)
	}
	wg.Wait()
	if len(seen) != producers*perProd {
		t.Fatalf("drained %d distinct writes, want %d", len(seen), producers*perProd)
	}
	for seq, n := range seen {
		if n != 1 {
			t.Fatalf("seq %d drained %d times", seq, n)
		}
	}
}

// TestSubmitRingVerdictWaitsForRelease pins the completion contract the PE
// relies on: a write's verdict stays pending through the drain and is only
// published by Release, or a PE could read stale memory right after its own
// acknowledged write.
func TestSubmitRingVerdictWaitsForRelease(t *testing.T) {
	r := NewSubmitRing(4)
	pos, ok := r.Push(RingWrite{Addr: 1, Val: 2})
	if !ok {
		t.Fatal("push rejected")
	}
	if v := r.Verdict(pos); v != VerdictPending {
		t.Fatalf("verdict %d before drain", v)
	}
	buf := make([]RingWrite, 4)
	if n := r.Drain(buf); n != 1 {
		t.Fatalf("Drain = %d, want 1", n)
	}
	if v := r.Verdict(pos); v != VerdictPending {
		t.Fatalf("verdict %d after drain but before Release: producer could race the apply", v)
	}
	r.Release(settle(buf[:1], VerdictRejected))
	if v := r.Verdict(pos); v != VerdictRejected {
		t.Fatalf("verdict %d after Release, want rejected", v)
	}
}

// TestApplyWritesRejectsAfterExtract walks ring writes through a handoff on
// the old home's side: once the directory flips and Extract removes the
// block, ApplyWrites marks the block's writes rejected without panicking or
// touching memory, still applies the writes of a block it owns, and skips
// writes settled before the call. The owned word and run writes of the
// message and own-home paths refuse the migrated block the same way.
func TestApplyWritesRejectsAfterExtract(t *testing.T) {
	space := NewSpace(2, 8)
	dir := NewDirectory(2, 0)
	seg := NewSegment(space, 0)
	seg.SetDirectory(dir)
	const moved, kept = 3, 2*8*2 + 1 // blocks 0 and 2, both homed at kernel 0

	batch := []RingWrite{{Addr: moved, Val: 5}, {Addr: kept, Val: 6}}
	if n := seg.ApplyWrites(batch); n != 2 || batch[0].Verdict != VerdictApplied || batch[1].Verdict != VerdictApplied {
		t.Fatalf("ApplyWrites on owned blocks = %d, verdicts %d/%d", n, batch[0].Verdict, batch[1].Verdict)
	}

	dir.SetOverride(0, 1)
	snap := seg.Extract(func(b uint64) bool { return !dir.Owns(0, b) })
	if len(snap) != 1 || snap[0].Index != 0 || snap[0].Words[moved] != 5 {
		t.Fatalf("extracted snapshot %v lost the write applied before the flip", snap)
	}
	batch = []RingWrite{
		{Addr: moved, Val: 7},
		{Addr: kept, Val: 8},
		{Addr: kept, Val: 9, Verdict: VerdictApplied}, // a dedup duplicate
	}
	if n := seg.ApplyWrites(batch); n != 1 {
		t.Fatalf("ApplyWrites applied %d writes, want 1 (the owned block's)", n)
	}
	if batch[0].Verdict != VerdictRejected || batch[1].Verdict != VerdictApplied || batch[2].Verdict != VerdictApplied {
		t.Fatalf("verdicts %d/%d/%d, want rejected/applied/applied", batch[0].Verdict, batch[1].Verdict, batch[2].Verdict)
	}
	if v := seg.ReadWord(kept); v != 8 {
		t.Fatalf("owned word = %d, want 8 (the pre-settled write must be skipped)", v)
	}
	if seg.WriteWordOwned(moved, 1) || seg.WriteOwned(moved, []int64{1, 2}) {
		t.Fatal("owned write accepted a migrated block")
	}
	if seg.Has(0) {
		t.Fatal("a rejected write re-materialised the migrated block")
	}
}

// TestRingApplyWritesVisibleToDirectRead interleaves ring-applied and
// message-path writes with lock-free direct reads on one home: no read may
// ever observe a torn word or a value nobody wrote (out of thin air). This is
// the property the two write paths' shared stripe seqlock protocol owes the
// one-sided read window.
func TestRingApplyWritesVisibleToDirectRead(t *testing.T) {
	space := NewSpace(1, 32)
	seg := NewSegment(space, 0)
	const (
		addr   = 7
		rounds = 4000
	)
	// legal marks every value either writer will ever store.
	legal := make(map[int64]bool, 2*rounds+1)
	legal[0] = true
	for i := 1; i <= rounds; i++ {
		legal[int64(i)] = true       // ring writer's values
		legal[int64(i)|1<<40] = true // message writer's values
	}
	var wg sync.WaitGroup
	var stop atomic.Bool
	wg.Add(2)
	go func() { // ring path: batches through ApplyWrites
		defer wg.Done()
		for i := 1; i <= rounds; i++ {
			seg.ApplyWrites([]RingWrite{{Addr: addr, Val: int64(i)}})
		}
	}()
	go func() { // message path: Write under the same stripe
		defer wg.Done()
		for i := 1; i <= rounds; i++ {
			seg.Write(addr, []int64{int64(i) | 1<<40})
		}
	}()
	readerDone := make(chan int64, 1)
	go func() {
		for !stop.Load() {
			if v := seg.DirectRead(addr); !legal[v] {
				readerDone <- v
				return
			}
		}
		readerDone <- 0
	}()
	wg.Wait()
	stop.Store(true)
	if v := <-readerDone; v != 0 {
		t.Fatalf("DirectRead observed %d, a value nobody wrote", v)
	}
	if v := seg.ReadWord(addr); !legal[v] {
		t.Fatalf("final value %d was never written", v)
	}
}

// TestDirectReadFallbackUnderWriterStorm pins the anti-starvation bound on
// the seqlock: a storm of vectored writers holds the stripe almost
// continuously, so the optimistic spin keeps losing — the reader must take
// the mutex fallback (observable via DirectReadFallbacks) and still return a
// consistent word, because every writer's critical section is capped at one
// block-sized window. Before the cap, a single long vectored write could
// starve the fallback itself.
func TestDirectReadFallbackUnderWriterStorm(t *testing.T) {
	space := NewSpace(1, 32)
	seg := NewSegment(space, 0)
	const writers = 4
	var stop atomic.Bool
	var wg sync.WaitGroup
	vec := make([]int64, 32) // a full block per write: maximal window
	for i := range vec {
		vec[i] = 1
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]int64, len(vec))
			for i := int64(1); !stop.Load(); i++ {
				v := i<<8 | int64(w)
				for j := range buf {
					buf[j] = v
				}
				seg.Write(0, buf) // block 0: same stripe the reader polls
			}
		}(w)
	}
	// Read until the fallback path has demonstrably fired. All writers store
	// the same value across the block, so any consistent read yields a word
	// of the form i<<8|w with w < writers; the assertions are liveness (the
	// read returns despite the storm) and consistency (no torn word).
	deadline := time.Now().Add(20 * time.Second)
	for seg.DirectReadFallbacks() == 0 {
		v := seg.DirectRead(5)
		if v != 0 && int(v&0xff) >= writers {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("DirectRead returned %d: writer id %d out of range", v, v&0xff)
		}
		if time.Now().After(deadline) {
			stop.Store(true)
			wg.Wait()
			t.Skip("writer storm never forced the fallback on this machine")
		}
	}
	stop.Store(true)
	wg.Wait()
	if seg.DirectReadFallbacks() == 0 {
		t.Fatal("fallback path never reached")
	}
}
