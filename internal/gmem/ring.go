package gmem

import (
	"fmt"
	"sync/atomic"
)

// RingWrite is one single-word write submitted through a SubmitRing: the
// payload of a slot. Seq comes from the requester kernel's request-id
// counter, so ring writes share the exactly-once sequence space with the
// message path — the home shard records (Src, Seq) in the same dedup window
// a retried OpWrite would hit, and the write is applied exactly once even if
// both paths race.
type RingWrite struct {
	Addr uint64
	Val  int64
	Seq  uint64
	Src  int32
	// Verdict is the consumer's settlement of the slot: Drain hands every
	// write out VerdictPending, ApplyWrites settles it, and Release publishes
	// it to the producer. Push ignores it.
	Verdict Verdict
}

// Verdict is the outcome of one submitted write, read by its producer from
// the slot it published.
type Verdict uint8

const (
	// VerdictPending: published, not yet settled by a drain.
	VerdictPending Verdict = iota
	// VerdictApplied: the write is in the segment and globally visible (or
	// was already applied under the same sequence).
	VerdictApplied
	// VerdictRejected: the write was not applied and left no dedup record —
	// its block is no longer homed here, or it strayed outside the
	// producer's namespace. The producer retries on the message path.
	VerdictRejected
)

// SubmitRing is a bounded multi-producer ring of RingWrite slots: the
// one-sided write fast path between co-located PEs and the home kernel's
// service shard. Producers claim a slot with one CAS on tail, fill the
// payload, and publish it with a single atomic store of the slot's state
// word. Whoever services the shard drains the published slots in batches,
// applies them, and settles each slot with its verdict; the producer reads
// the verdict from its own slot and frees it.
//
// The state word of slot i follows the bounded-MPMC sequence discipline,
// with one consumer at a time: relative to the position pos that claimed
// the slot it holds 0 while free, 1 once published, 2 once applied and 3
// once rejected, and the producer frees it for the next lap by storing
// pos+size. All comparisons are modular (state - pos), so the ring keeps
// working when positions wrap around uint64.
type SubmitRing struct {
	slots []ringSlot
	mask  uint64
	size  uint64
	tail  atomic.Uint64 // next position a producer will claim
	// head is the next position the consumer will inspect. Consumer-only:
	// the caller serialises Drain, Release and Pending.
	head uint64
}

type ringSlot struct {
	state atomic.Uint64
	// Payload: written by the claiming producer before the state publish,
	// read by the consumer after observing it. The state word's
	// release/acquire pair orders the plain accesses.
	addr uint64
	val  int64
	seq  uint64
	src  int32
}

// NewSubmitRing builds a ring with n slots; n must be a power of two of at
// least 4, so that a settled slot's state never reads as free for the next
// lap.
func NewSubmitRing(n int) *SubmitRing {
	if n < 4 || n&(n-1) != 0 {
		panic(fmt.Sprintf("gmem: ring size %d is not a power of two >= 4", n))
	}
	return newSubmitRingAt(n, 0)
}

// newSubmitRingAt starts the ring's positions at start instead of 0 — a
// test hook so wraparound behaviour near the top of uint64 is reachable.
func newSubmitRingAt(n int, start uint64) *SubmitRing {
	r := &SubmitRing{slots: make([]ringSlot, n), mask: uint64(n) - 1, size: uint64(n)}
	// Slot (start+k)&mask is the one position start+k claims, so that is the
	// slot whose state must read start+k (indexing slots[k] directly is only
	// equivalent when start is a multiple of n).
	for k := 0; k < n; k++ {
		pos := start + uint64(k)
		r.slots[pos&r.mask].state.Store(pos)
	}
	r.tail.Store(start)
	r.head = start
	return r
}

// Push claims a slot, fills it with w, and publishes it. It returns the
// claimed position (for Verdict and Free) and ok=false without side effects
// when the ring is full — the caller falls back to the message path with a
// fresh sequence, so a rejected push can never be half-applied.
func (r *SubmitRing) Push(w RingWrite) (pos uint64, ok bool) {
	for {
		pos = r.tail.Load()
		s := &r.slots[pos&r.mask]
		switch diff := int64(s.state.Load() - pos); {
		case diff == 0:
			if r.tail.CompareAndSwap(pos, pos+1) {
				s.addr, s.val, s.seq, s.src = w.Addr, w.Val, w.Seq, w.Src
				s.state.Store(pos + 1) // publish: the single atomic store
				return pos, true
			}
		case diff < 0:
			return 0, false // slot published, settled or unread: ring full
		default:
			// Another producer claimed pos between our two loads; retry.
		}
	}
}

// Drain copies up to len(buf) published slots into buf, in submission
// order and each VerdictPending, WITHOUT settling them: the slots stay
// published until Release, so a producer only learns a verdict once the
// consumer has applied (or rejected) its write. Consumer-side only.
func (r *SubmitRing) Drain(buf []RingWrite) int {
	n := 0
	for n < len(buf) {
		pos := r.head + uint64(n)
		s := &r.slots[pos&r.mask]
		if s.state.Load() != pos+1 {
			break
		}
		buf[n] = RingWrite{Addr: s.addr, Val: s.val, Seq: s.seq, Src: s.src}
		n++
	}
	return n
}

// Release settles the first len(batch) drained slots with their writes'
// verdicts (VerdictApplied or VerdictRejected) and advances head past them.
// Call only once the applied writes are visible and their dedup entries are
// final: the state store is the release edge the producer's Verdict load
// pairs with.
func (r *SubmitRing) Release(batch []RingWrite) {
	for _, w := range batch {
		r.slots[r.head&r.mask].state.Store(r.head + 1 + uint64(w.Verdict))
		r.head++
	}
}

// Verdict reports the settlement of the write published at pos. A producer
// must Free the slot once it reads anything but VerdictPending.
func (r *SubmitRing) Verdict(pos uint64) Verdict {
	switch r.slots[pos&r.mask].state.Load() - pos {
	case 1 + uint64(VerdictApplied):
		return VerdictApplied
	case 1 + uint64(VerdictRejected):
		return VerdictRejected
	}
	return VerdictPending
}

// Free recycles the settled slot at pos for the producer that will claim
// position pos+size. Producer-side, after reading the slot's verdict.
func (r *SubmitRing) Free(pos uint64) {
	r.slots[pos&r.mask].state.Store(pos + r.size)
}

// Pending reports how many published-but-unsettled slots the ring holds.
// Consumer-side only (it reads head without synchronisation).
func (r *SubmitRing) Pending() int {
	n := 0
	for uint64(n) < r.size {
		pos := r.head + uint64(n)
		if r.slots[pos&r.mask].state.Load() != pos+1 {
			break
		}
		n++
	}
	return n
}

// ApplyWrites applies the VerdictPending writes of a drained batch to the
// segment under the stripe seqlock protocol and settles each of them:
// consecutive writes to the same block share one mutex hold and one wseq
// window, and the window is capped at a single block so a DirectRead's
// mutex fallback can never starve behind a long batch (the same per-block
// cap Write applies to vectored runs). Ownership is checked per block under
// the stripe mutex, as AtomicOwned checks it: a write whose block is no
// longer homed here is marked VerdictRejected and the segment is left
// untouched. Word stores are atomic, so concurrent DirectReads stay
// torn-free. It returns how many writes it applied; writes already settled
// on entry are skipped.
func (g *Segment) ApplyWrites(ops []RingWrite) (applied int) {
	bw := uint64(g.space.BlockWords)
	for i := 0; i < len(ops); {
		b := g.space.BlockOf(ops[i].Addr)
		j := i + 1
		for j < len(ops) && g.space.BlockOf(ops[j].Addr) == b {
			j++
		}
		st := g.stripeOf(b)
		st.mu.Lock()
		verdict := VerdictRejected
		if g.owns(b) {
			verdict = VerdictApplied
			blk := st.materialise(b, g.space.BlockWords)
			st.wseq.Add(1)
			for _, op := range ops[i:j] {
				if op.Verdict == VerdictPending {
					atomic.StoreInt64(&blk[op.Addr%bw], op.Val)
					applied++
				}
			}
			st.wseq.Add(1)
		}
		st.mu.Unlock()
		for k := i; k < j; k++ {
			if ops[k].Verdict == VerdictPending {
				ops[k].Verdict = verdict
			}
		}
		i = j
	}
	return applied
}
