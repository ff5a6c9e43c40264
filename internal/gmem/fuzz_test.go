package gmem

import (
	"encoding/binary"
	"slices"
	"testing"
)

// FuzzSubmitRing drives a small ring through an arbitrary single-threaded
// push/drain/release/free schedule, starting at a fuzzer-chosen position (so
// state words wrap uint64 mid-run), and checks every observable against a
// model: pushes succeed exactly while the slot at the tail has been freed,
// drains return the published writes payload-intact in order, Pending
// tracks the published count, a verdict stays pending until Release and
// then reads back exactly what the drainer settled, and producers may free
// settled slots in any order. The encoding under test is the slot state
// discipline — free/published/applied/rejected as modular offsets from the
// claiming position.
func FuzzSubmitRing(f *testing.F) {
	seed := func(start uint64, ops ...byte) []byte {
		data := make([]byte, 9, 9+len(ops))
		data[0] = 1 // 8 slots
		binary.LittleEndian.PutUint64(data[1:], start)
		return append(data, ops...)
	}
	f.Add(seed(0, 0, 0, 0, 1, 3, 3, 3, 0, 2, 3, 1, 3))
	// Positions wrap mid-schedule: the modular-comparison regression corpus.
	f.Add(seed(^uint64(0)-3, 0, 0, 0, 0, 1, 3, 3, 3, 3, 0, 0, 0, 0, 1, 2, 2))
	// Overfill, then free out of order: full until the tail slot is freed.
	f.Add(seed(^uint64(0)-1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 7, 0, 3, 0, 3, 0))
	f.Add(seed(1<<63, 2, 2, 0, 2, 3, 0, 2, 1, 3, 3))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 || len(data) > 4096 {
			return
		}
		size := 1 << (int(data[0])%4 + 2) // 4, 8, 16 or 32 slots
		start := binary.LittleEndian.Uint64(data[1:9])
		r := newSubmitRingAt(size, start)
		buf := make([]RingWrite, size)
		type entry struct {
			w   RingWrite
			pos uint64
		}
		var published, settled []entry // FIFO; settled = released, not freed
		tail := start
		verdictOf := func(w RingWrite) Verdict { return VerdictApplied + Verdict(w.Seq%2) }
		release := func(i, n int) {
			for j := range buf[:n] {
				if buf[j] != published[j].w {
					t.Fatalf("op %d: drained[%d] = %+v, want %+v", i, j, buf[j], published[j].w)
				}
				buf[j].Verdict = verdictOf(buf[j])
			}
			for _, e := range published[:n] {
				if v := r.Verdict(e.pos); v != VerdictPending {
					t.Fatalf("op %d: position %d settled (%d) before Release", i, e.pos, v)
				}
			}
			r.Release(buf[:n])
			settled = append(settled, published[:n]...)
			published = published[n:]
		}
		var tok uint64
		for i, b := range data[9:] {
			if p := r.Pending(); p != len(published) {
				t.Fatalf("op %d: Pending = %d, model holds %d", i, p, len(published))
			}
			switch b % 4 {
			case 0: // push: room iff the tail slot's last lap was freed
				tok++
				w := RingWrite{Addr: tok, Val: int64(tok ^ 0xabc), Seq: tok, Src: int32(b)}
				unfreed := func(e entry) bool { return e.pos == tail-uint64(size) }
				wantOK := !slices.ContainsFunc(published, unfreed) && !slices.ContainsFunc(settled, unfreed)
				pos, ok := r.Push(w)
				if ok != wantOK {
					t.Fatalf("op %d: Push ok=%v, want %v (%d published, %d settled of %d)",
						i, ok, wantOK, len(published), len(settled), size)
				}
				if ok {
					if pos != tail {
						t.Fatalf("op %d: Push claimed %d, want %d", i, pos, tail)
					}
					tail++
					published = append(published, entry{w, pos})
				}
			case 1: // drain and release everything published
				n := r.Drain(buf)
				if n != len(published) {
					t.Fatalf("op %d: Drain = %d, model holds %d", i, n, len(published))
				}
				release(i, n)
			case 2: // drain and release just the head
				n := r.Drain(buf[:1])
				if want := min(1, len(published)); n != want {
					t.Fatalf("op %d: Drain(1) = %d, want %d", i, n, want)
				}
				release(i, n)
			case 3: // a producer reads its verdict and frees its slot
				if len(settled) == 0 {
					continue
				}
				j := int(b/4) % len(settled)
				e := settled[j]
				if v, want := r.Verdict(e.pos), verdictOf(e.w); v != want {
					t.Fatalf("op %d: position %d verdict %d, want %d", i, e.pos, v, want)
				}
				r.Free(e.pos)
				settled = slices.Delete(settled, j, j+1)
			}
		}
	})
}
