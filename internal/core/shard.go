package core

import (
	"slices"
	"sync"

	"repro/internal/ckpt"
	"repro/internal/gmem"
	"repro/internal/trace"
	"repro/internal/wire"
)

// ringSlots is the capacity of each shard's write submission ring. Each
// producer blocks until its slot is settled and frees it itself, so
// occupancy is bounded by the co-located PE count; 256 slots keep Push from
// ever failing in practice while the full-ring fallback to the message path
// stays covered by tests.
const ringSlots = 256

// kernelShard is one address-range shard of a kernel's home-side
// global-memory service. The homed blocks are partitioned over shards by
// gmem.Space.ShardOf (block-round-robin, aligned with the segment's lock
// stripes so shards mutate disjoint stripes), and each shard privately owns
// everything a GM request touches beyond the segment itself: the dedup
// window for mutating GM ops, the in-flight invalidation rounds, the
// decode/encode scratch and the service-side counters.
//
// Execution comes in two modes. With Kernel.workers set (real transports,
// nshards > 1) each shard runs a worker goroutine fed through q, so
// requests for different address ranges are serviced in parallel; otherwise
// the serve goroutine calls handleGM inline and the shard is purely a state
// partition. Either way a given address is always serviced by the same
// shard, preserving per-word request ordering and exactly-once dedup.
type kernelShard struct {
	k   *Kernel
	idx int

	// mu is held by whoever services the shard: the worker around each
	// queue item (fences included), or a ring producer draining the ring at
	// its submit point. It serialises them over the shard state below (the
	// ring's consumer side, dedup window, invalidation rounds, scratch and
	// counters). In inline mode the serve loop and the cooperative sim
	// contexts are already serialised, and only producers take it, never
	// contended.
	mu sync.Mutex

	// q feeds the worker goroutine (nil in inline mode). Items are either a
	// message to service or a fence token to acknowledge.
	q chan shardItem

	// ring is the one-sided write submission ring owned by this shard (nil
	// when the write fast path is off). Co-located PEs publish uncached
	// single-word writes into it and drain it themselves under mu, so no
	// worker is woken and no message is allocated.
	ring *gmem.SubmitRing
	// ringBuf is the drain batch scratch.
	ringBuf []gmem.RingWrite

	// dedup is the exactly-once window for mutating GM requests routed to
	// this shard. A retry routes identically (same address → same shard; the
	// requester stamps vectored retries with the same shard hint), so the
	// split window absorbs exactly what the kernel-wide window used to.
	dedup dedupTable

	// inv holds this shard's in-flight invalidation rounds, keyed by the
	// kernel-global round id.
	inv map[uint64]*invRound

	// extra accumulates this shard's service counters and histograms,
	// merged into the kernel's totals after shutdown.
	extra trace.PEStats

	// spans is this shard's service-span ring (nil unless Config.Tracing);
	// per shard because a span ring is single-writer.
	spans *trace.SpanRing

	// Handler scratch, reused across requests. Only this shard's servicing
	// goroutine touches it.
	wscratch []int64   // payload words
	vscratch []int64   // per-run words of a vectored write
	raddrs   []uint64  // decoded vectored-read range starts
	rcounts  []int     // decoded vectored-read range lengths
	invSends []invSend // pending invalidations of a vectored write
}

// shardItem is one unit of work on a shard queue: a message, or a fence
// (m == nil) the worker acknowledges once everything queued before it has
// been serviced.
type shardItem struct {
	m     *wire.Message
	fence chan<- struct{}
}

func newKernelShard(k *Kernel, idx int, rings bool) *kernelShard {
	sh := &kernelShard{
		k:     k,
		idx:   idx,
		dedup: newDedupTable(),
		inv:   make(map[uint64]*invRound),
		spans: k.cfg.Tracing.NewRing(),
	}
	if k.workers {
		sh.q = make(chan shardItem, 1024)
	}
	if rings {
		sh.ring = gmem.NewSubmitRing(ringSlots)
		sh.ringBuf = make([]gmem.RingWrite, ringSlots)
	}
	return sh
}

// shardFor routes message m to a shard index. Scalar ops hash their address;
// vectored ops carry the requester's shard hint (the requester groups runs
// per shard, so the hint names every range's shard); invalidation acks carry
// the shard that opened the round. An out-of-range hint (a stale or hostile
// byte) returns -1 and the message is dropped: clamping it to shard 0, as
// earlier versions did, routed a retried OpWriteV (or an OpInvAck) past the
// shard holding its dedup window or invalidation round, so a retry could be
// applied twice instead of being absorbed.
func (k *Kernel) shardFor(m *wire.Message) int {
	if k.nshards == 1 {
		return 0
	}
	switch m.Op {
	case wire.OpReadV, wire.OpWriteV, wire.OpFlushV, wire.OpInvAck:
		if s := int(m.Shard); s < k.nshards {
			return s
		}
		return -1
	}
	return k.space.ShardOf(m.Addr, k.nshards)
}

// dispatchGM hands one GM request to its shard. It reports whether the
// message was consumed (inline mode: serviced right here); in worker mode it
// sets k.dispatched so serve leaves accounting and recycling to the worker.
// A message whose shard hint does not survive validation is dropped as
// corrupt — the requester's timeout/retry machinery owns recovery, and a
// well-formed retry carries a valid hint.
func (k *Kernel) dispatchGM(m *wire.Message) bool {
	s := k.shardFor(m)
	if s < 0 {
		k.extra.CorruptDrops++
		return true
	}
	sh := k.shards[s]
	if sh.q == nil {
		sh.handleGM(m)
		return true
	}
	sh.q <- shardItem{m: m}
	k.dispatched = true
	return false
}

// fenceShards blocks until every shard worker has serviced everything
// enqueued before the fence — the cross-shard collective the checkpoint
// marker and the migration handoff use so seg.Export or seg.Extract sees no
// request in flight on any shard. The worker takes the shard mutex for the
// fence token, so the fence also waits out any producer draining the ring
// at that moment, and it drains the ring itself: a one-sided write
// published before the fence is settled before the fence returns (inline
// mode: drained right here — under simulation rings are drained at the
// submit point, so this is a backstop).
// Must not be called from shard workers (the serial serve loop only), and
// peer-down handling deliberately never fences: a worker's own Send may be
// what reported the peer dead, and the fence would wait on that worker
// forever.
func (k *Kernel) fenceShards() {
	if !k.workers {
		for _, sh := range k.shards {
			sh.drainRing()
		}
		return
	}
	done := make(chan struct{}, len(k.shards))
	for _, sh := range k.shards {
		sh.q <- shardItem{fence: done}
	}
	for range k.shards {
		<-done
	}
}

// drainRing applies every write currently published in this shard's
// submission ring and settles each slot with its verdict: the home side of
// the one-sided write path. Writes are deduped against the shard's
// exactly-once window (ring sequences come from the same per-kernel counter
// as message sequences, so a ring write that raced a message-path retry is
// applied once, and the duplicate counts as applied), checked against the
// producer's namespace, and applied to the segment in one
// per-block-capped, ownership-checked seqlock batch. A write rejected as
// disowned or out of its namespace forgets its dedup entry, so the
// producer's message-path retry is evaluated afresh. Caller holds sh.mu
// (or is the cooperative sim context).
func (sh *kernelShard) drainRing() {
	if sh.ring == nil {
		return
	}
	batch := sh.ringBuf[:sh.ring.Drain(sh.ringBuf)]
	if len(batch) == 0 {
		return
	}
	k := sh.k
	for i := range batch {
		w := &batch[i]
		if e := sh.dedup.lookup(w.Src, w.Seq); e != nil {
			// The message path already applied (or is applying) this seq.
			sh.extra.DupRequests++
			w.Verdict = gmem.VerdictApplied
			continue
		}
		// Namespace filter (defense in depth: the producer's PE-side guard
		// refuses out-of-region ring writes before publishing, so only a
		// forged publish reaches here).
		if region, bound := k.ns.Lookup(int(w.Src)); bound && !region.Contains(w.Addr, 1) {
			sh.dedup.forget(w.Src, w.Seq)
			sh.extra.NsViolations++
			w.Verdict = gmem.VerdictRejected
			continue
		}
		// Completed ahead of the apply: nothing can look the entry up before
		// this drain returns, and a rejected apply forgets it below.
		sh.dedup.complete(w.Src, w.Seq, wire.OpWriteAck, 0, 0, nil)
	}
	sh.extra.RingDrained += uint64(k.seg.ApplyWrites(batch))
	for _, w := range batch {
		if w.Verdict == gmem.VerdictRejected {
			sh.dedup.forget(w.Src, w.Seq)
		}
	}
	sh.ring.Release(batch)
}

// run is the shard worker loop: service queued GM requests and fences until
// the queue closes at kernel shutdown, each under the shard mutex. The
// worker owns each message end to end — service-time observation, span
// recording and recycling — mirroring what serve does for inline-handled
// messages.
func (sh *kernelShard) run() {
	k := sh.k
	for it := range sh.q {
		sh.mu.Lock()
		if it.m == nil {
			sh.drainRing()
			sh.mu.Unlock()
			it.fence <- struct{}{}
			continue
		}
		m := it.m
		op, src, seq, rcv := m.Op, m.Src, m.Seq, m.RecvAt
		sh.handleGM(m)
		sh.mu.Unlock()
		end := k.svc.Now()
		if int(op) < wire.NumOps {
			sh.extra.ServiceByOp[op].Observe(end - rcv)
		}
		sh.extra.ShardedMsgs++
		if sh.spans != nil && sh.spans.Sampled() {
			sh.spans.Record(trace.Span{
				Kind: trace.SpanService, Op: op,
				PE: int32(k.id), Peer: src, Seq: seq,
				Start: rcv, End: end,
			})
		}
		wire.PutMessage(m)
	}
	sh.mu.Lock()
	sh.drainRing()
	sh.mu.Unlock()
	k.shardWG.Done()
}

// handleGM services one GM request routed to this shard. Every GM handler
// consumes its message; the caller recycles it.
func (sh *kernelShard) handleGM(m *wire.Message) {
	if isMutating(m.Op) && sh.dedupCheck(m) {
		// Duplicate: absorbed by the shard's dedup window. The dedup check
		// deliberately runs BEFORE the ownership check, so the retry of a
		// mutation this kernel applied just before handing the block away is
		// answered from the cached response instead of being NACKed toward
		// the new home and applied a second time there.
		return
	}
	if sh.nsDeny(m) {
		return // outside the requester's namespace: typed rejection sent
	}
	if sh.nackIfForeign(m) {
		return // block migrated away: requester redirects to the hinted home
	}
	switch m.Op {
	case wire.OpRead:
		sh.handleRead(m)
	case wire.OpReadV:
		sh.handleReadV(m)
	case wire.OpWrite:
		sh.handleWrite(m)
	case wire.OpWriteV:
		sh.handleWriteV(m)
	case wire.OpFlushV:
		sh.handleFlushV(m)
	case wire.OpReadLease:
		sh.handleReadLease(m)
	case wire.OpFetchAdd, wire.OpCAS:
		sh.handleAtomic(m)
	case wire.OpInvalidate:
		sh.handleInvalidate(m)
	case wire.OpInvAck:
		sh.handleInvAck(m)
	}
}

// nackIfForeign pre-scans every block a GM request touches against the live
// membership directory and, if any is not homed here, NACKs the whole
// message with the first foreign block's new home as the redirect hint —
// before any mutation, so a multi-block request is all-or-nothing (a partial
// apply followed by a whole-message retry at the new home would double-apply
// the runs that had already landed here). Escrowed foreign blocks are
// re-offered to their destination on the way, which is how a migration whose
// initiator died heals through normal traffic.
//
// The scan runs even while this kernel's own directory is still static: a
// requester that learned a new-home hint can redirect a request here BEFORE
// our install arrives, and applying it into a lazily-created block would
// lose the write when the install's payload adopts over it. Bouncing it
// (hint: the probe-rule home) until the data lands keeps it exactly-once.
// The cost on the static hot path is one directory lookup per touched block
// for scalar ops and an O(runs) header walk for vectored ones.
func (sh *kernelShard) nackIfForeign(m *wire.Message) bool {
	k := sh.k
	foreign := -1
	bw := uint64(k.space.BlockWords)
	scan := func(addr uint64, count int) {
		if count < 1 {
			count = 1
		}
		// Clamp to one block's worth of words: every legitimate range fits
		// inside a single block (the PE-side run splitters never cross a
		// block boundary, and the handlers enforce it server-side), so
		// the clamp is a no-op for valid traffic. Without it a corrupt
		// count — this scan runs BEFORE the op handler's own bounds checks —
		// would spin this shard worker through up to count/BlockWords
		// directory lookups.
		if count > int(bw) {
			count = int(bw)
		}
		last := (addr + uint64(count) - 1) / bw
		for b := addr / bw; b <= last; b++ {
			if !k.dir.Owns(k.id, b) {
				if foreign < 0 {
					foreign = k.dir.HomeOfBlock(b)
				}
				sh.reOffer(b)
			}
		}
	}
	switch m.Op {
	case wire.OpRead:
		n := int(m.Arg1)
		if m.Arg2 == 1 {
			n = 1 // block fetch: caching protocol, one block
		}
		scan(m.Addr, n)
	case wire.OpWrite:
		scan(m.Addr, len(m.Data)/8)
	case wire.OpFetchAdd, wire.OpCAS:
		scan(m.Addr, 1)
	case wire.OpReadV:
		if m.EachRange(func(addr uint64, count int) { scan(addr, count) }) != nil {
			return false // corrupt payload: the op handler counts and drops it
		}
	case wire.OpWriteV, wire.OpFlushV:
		if m.EachRunHeader(func(addr uint64, count int) { scan(addr, count) }) != nil {
			return false
		}
	case wire.OpReadLease:
		scan(m.Addr, 1)
	default:
		return false // invalidation traffic is not home-routed
	}
	if foreign < 0 {
		return false
	}
	sh.nack(m, foreign)
	return true
}

// nack answers m with a migrate NACK hinting home, before anything was
// applied. The NACK is deliberately NOT cached in the dedup window:
// forgetting the in-progress entry the lookup just registered means a retry
// is re-evaluated — and applied — once the block lands here, instead of
// being answered from a stale cached NACK forever. A retry after a LOST
// NACK simply recomputes it (side-effect-free; re-offers are idempotent).
func (sh *kernelShard) nack(m *wire.Message, home int) {
	k := sh.k
	if isMutating(m.Op) {
		sh.dedup.forget(m.Src, m.Seq)
	}
	resp := wire.GetMessage()
	resp.Op, resp.Arg1 = wire.OpMigrateNack, int64(home)
	resp.Src, resp.Dst, resp.Seq = int32(k.id), m.Src, m.Seq
	k.svc.Send(int(m.Src), resp)
	wire.PutMessage(resp)
}

// reOffer fire-and-forgets an escrowed block to its migration destination.
// Traffic-driven healing for a handoff whose initiator died between the
// extract and the install: any request that bounces off this stale home
// pushes the parked payload toward the new home again. The install is
// idempotent there (blocks already owned and materialised are skipped), and
// its response is dropped by our serve loop as a stray.
func (sh *kernelShard) reOffer(b uint64) {
	k := sh.k
	e, ok := k.escrowLookup(b)
	if !ok {
		return
	}
	inst := wire.GetMessage()
	inst.Op, inst.Src, inst.Dst = wire.OpMigrateInstall, int32(k.id), int32(e.dst)
	inst.Seq = k.seqCtr.Add(1)
	inst.Arg1 = migModeBlock
	inst.Addr = e.block.Index * uint64(k.space.BlockWords)
	inst.Data = ckpt.EncodeKernelState(k.cfg.GMBlockWords, []gmem.BlockSnapshot{e.block})
	k.svc.Send(e.dst, inst)
	wire.PutMessage(inst)
}

// dedupCheck consults the shard's dedup window before a mutating request is
// dispatched. It reports whether the message was absorbed here: a duplicate
// whose response is cached is answered by resend, a duplicate still in
// progress is dropped (the eventual response will serve it) — unless the
// retry flag is set, which re-kicks the request's invalidation round.
func (sh *kernelShard) dedupCheck(m *wire.Message) bool {
	e := sh.dedup.lookup(m.Src, m.Seq)
	if e == nil {
		return false
	}
	sh.extra.DupRequests++
	if e.state == dedupDone {
		resp := wire.GetMessage()
		resp.Op, resp.Arg1, resp.Arg2 = e.respOp, e.arg1, e.arg2
		if len(e.data) > 0 {
			resp.Data = append(resp.Data[:0], e.data...)
		}
		sh.reply(m, resp)
	} else if m.Flags&wire.FlagRetry != 0 {
		// The writer is retrying while its invalidation round is still
		// open: a lost OpInvalidate/OpInvAck would wedge the round (and
		// absorb every further retry right here), so nudge it along.
		sh.resendInvalidations(m.Src, m.Seq)
	}
	return true
}

// reply answers request m, echoing its Seq, and completes the shard's dedup
// entry for mutating requests. reply takes ownership of resp.
func (sh *kernelShard) reply(m *wire.Message, resp *wire.Message) {
	k := sh.k
	resp.Src = int32(k.id)
	resp.Dst = m.Src
	resp.Seq = m.Seq
	if isMutating(m.Op) {
		sh.dedup.complete(m.Src, m.Seq, resp.Op, resp.Arg1, resp.Arg2, resp.Data)
	}
	k.svc.Send(int(m.Src), resp)
	wire.PutMessage(resp)
}

func (sh *kernelShard) handleRead(m *wire.Message) {
	k := sh.k
	var words []int64
	if m.Arg2 == 1 {
		// Block fetch for the caching protocol: return the whole block and
		// record the reader in the directory.
		words = k.seg.ReadBlockFor(m.Addr, int(m.Src))
	} else {
		n, bw := int(m.Arg1), uint64(k.space.BlockWords)
		if n < 1 || m.Addr%bw+uint64(n) > bw {
			sh.extra.CorruptDrops++ // a legitimate run never leaves its block
			return
		}
		// The directory can flip between nackIfForeign and here (a
		// concurrent handoff on a worker shard): read under the ownership
		// check and NACK a block that left, as handleAtomic does.
		sh.wscratch = slices.Grow(sh.wscratch[:0], n)[:n]
		if !k.seg.DirectReadRunOwned(sh.wscratch, m.Addr) {
			sh.nack(m, k.dir.HomeOfBlock(k.space.BlockOf(m.Addr)))
			return
		}
		words = sh.wscratch
	}
	resp := wire.GetMessage()
	resp.Op, resp.Addr = wire.OpReadResp, m.Addr
	resp.PutWords(words)
	sh.reply(m, resp)
}

// handleReadV serves a vectored read: every requested range, gathered into
// one response payload.
func (sh *kernelShard) handleReadV(m *wire.Message) {
	sh.raddrs = sh.raddrs[:0]
	sh.rcounts = sh.rcounts[:0]
	if err := m.EachRange(func(addr uint64, count int) {
		sh.raddrs = append(sh.raddrs, addr)
		sh.rcounts = append(sh.rcounts, count)
	}); err != nil {
		// Corrupt vectored-read payload: drop without replying (the
		// requester's timeout/retry machinery owns recovery).
		sh.extra.CorruptDrops++
		return
	}
	sh.wscratch = sh.k.seg.ReadV(sh.wscratch[:0], sh.raddrs, sh.rcounts)
	resp := wire.GetMessage()
	resp.Op, resp.Addr = wire.OpReadVResp, m.Addr
	resp.PutWords(sh.wscratch)
	sh.reply(m, resp)
}

func (sh *kernelShard) handleWrite(m *wire.Message) {
	k := sh.k
	if len(m.Data)%8 != 0 {
		// Torn payload (WordsInto would panic): drop and let the requester
		// retry.
		sh.extra.CorruptDrops++
		return
	}
	sh.wscratch = m.WordsInto(sh.wscratch)
	if k.cache == nil {
		if !k.seg.WriteOwned(m.Addr, sh.wscratch) {
			sh.nack(m, k.dir.HomeOfBlock(k.space.BlockOf(m.Addr)))
			return
		}
		ack := wire.GetMessage()
		ack.Op = wire.OpWriteAck
		sh.reply(m, ack)
		return
	}
	targets := k.seg.WriteInvalidating(m.Addr, sh.wscratch, int(m.Src))
	sh.invSends = sh.invSends[:0]
	for _, t := range targets {
		sh.invSends = append(sh.invSends, invSend{addr: m.Addr, dst: t})
	}
	sh.finishAfterInvalidations(m, sh.invSends, wire.OpWriteAck, 0, 0)
}

// handleWriteV serves a vectored write: every run scattered to its range,
// one ack. Under caching, the ack is withheld until every invalidation of
// every touched block has been acknowledged.
func (sh *kernelShard) handleWriteV(m *wire.Message) {
	k := sh.k
	var err error
	if k.cache == nil {
		sh.vscratch, err = m.EachWriteRun(sh.vscratch, func(addr uint64, words []int64) {
			k.seg.Write(addr, words)
		})
		if err != nil {
			// Runs decoded before the corruption were already applied; the
			// request is not acked, so the requester treats it as lost.
			sh.extra.CorruptDrops++
			return
		}
		ack := wire.GetMessage()
		ack.Op = wire.OpWriteAck
		sh.reply(m, ack)
		return
	}
	sh.invSends = sh.invSends[:0]
	sh.vscratch, err = m.EachWriteRun(sh.vscratch, func(addr uint64, words []int64) {
		for _, t := range k.seg.WriteInvalidating(addr, words, int(m.Src)) {
			sh.invSends = append(sh.invSends, invSend{addr: addr, dst: t})
		}
	})
	if err != nil {
		sh.extra.CorruptDrops++
		return
	}
	sh.finishAfterInvalidations(m, sh.invSends, wire.OpWriteAck, 0, 0)
}

// handleFlushV applies one PE's coalesced write-combining-buffer drain: the
// release-consistency publish at a synchronisation edge. The payload is
// encoded exactly like a vectored write, and the handler mirrors
// handleWriteV in full — including the invalidating branch, so release-mode
// words that share cache blocks with strong words keep the write-invalidate
// protocol coherent.
func (sh *kernelShard) handleFlushV(m *wire.Message) {
	k := sh.k
	var err error
	if k.cache == nil {
		sh.vscratch, err = m.EachWriteRun(sh.vscratch, func(addr uint64, words []int64) {
			k.seg.Write(addr, words)
		})
		if err != nil {
			sh.extra.CorruptDrops++
			return
		}
		ack := wire.GetMessage()
		ack.Op = wire.OpWriteAck
		sh.reply(m, ack)
		return
	}
	sh.invSends = sh.invSends[:0]
	sh.vscratch, err = m.EachWriteRun(sh.vscratch, func(addr uint64, words []int64) {
		for _, t := range k.seg.WriteInvalidating(addr, words, int(m.Src)) {
			sh.invSends = append(sh.invSends, invSend{addr: addr, dst: t})
		}
	})
	if err != nil {
		sh.extra.CorruptDrops++
		return
	}
	sh.finishAfterInvalidations(m, sh.invSends, wire.OpWriteAck, 0, 0)
}

// handleReadLease serves a lease-mode block fetch: the whole block containing
// m.Addr plus the home's lease duration, WITHOUT registering the reader in
// the coherence directory — a leaseholder is never invalidated; its staleness
// is bounded by the expiry it got here.
func (sh *kernelShard) handleReadLease(m *wire.Message) {
	k := sh.k
	bw := uint64(k.space.BlockWords)
	base := m.Addr / bw * bw
	sh.wscratch = k.seg.ReadAppend(sh.wscratch[:0], base, k.space.BlockWords)
	resp := wire.GetMessage()
	resp.Op, resp.Addr = wire.OpReadLeaseResp, base
	resp.Arg2 = int64(k.cfg.LeaseDuration)
	resp.PutWords(sh.wscratch)
	sh.reply(m, resp)
}

// handleAtomic serves OpFetchAdd and OpCAS. The ownership check
// nackIfForeign made goes stale if a concurrent handoff flips the directory
// before the apply, so AtomicOwned rechecks it under the stripe mutex and a
// block that left meanwhile is NACKed untouched, like any foreign request.
func (sh *kernelShard) handleAtomic(m *wire.Message) {
	k := sh.k
	cas := m.Op == wire.OpCAS
	prev, ok, owned := k.seg.AtomicOwned(m.Addr, cas, m.Arg1, m.Arg2)
	if !owned {
		sh.nack(m, k.dir.HomeOfBlock(k.space.BlockOf(m.Addr)))
		return
	}
	respOp, sw := wire.OpFetchAddResp, int64(0)
	if cas {
		respOp = wire.OpCASResp
		if ok {
			sw = 1
		}
	}
	if k.cache == nil || !ok {
		resp := wire.GetMessage()
		resp.Op, resp.Arg1, resp.Arg2 = respOp, prev, sw
		sh.reply(m, resp)
		return
	}
	targets := k.seg.CollectInvalidations(m.Addr, int(m.Src))
	sh.invSends = sh.invSends[:0]
	for _, t := range targets {
		sh.invSends = append(sh.invSends, invSend{addr: m.Addr, dst: t})
	}
	sh.finishAfterInvalidations(m, sh.invSends, respOp, prev, sw)
}

// finishAfterInvalidations acknowledges a mutating request immediately when
// no remote copies exist, or after every cached copy of every touched block
// has acknowledged its invalidation (write-invalidate coherence: the writer
// may not proceed while stale copies are readable). Round ids come from the
// kernel-global counter, so they are unique across shards; every
// OpInvalidate carries this shard's index, which the acking kernel echoes,
// so the ack routes back to the shard holding the round even when the
// written ranges spanned shards (possible in inline mode, where vectored
// requests are not split per shard).
func (sh *kernelShard) finishAfterInvalidations(m *wire.Message, sends []invSend, respOp wire.Op, arg1, arg2 int64) {
	k := sh.k
	if k.cfg.FaultDropInvalidations {
		// TEST-ONLY fault: pretend no copies exist, acknowledging the write
		// without invalidating remote caches. Readers keep serving stale
		// values — the consistency checker must flag them.
		sends = nil
	}
	if len(sends) == 0 {
		resp := wire.GetMessage()
		resp.Op, resp.Arg1, resp.Arg2 = respOp, arg1, arg2
		sh.reply(m, resp)
		return
	}
	id := k.invCtr.Add(1)
	r := &invRound{
		requester: m.Src, seq: m.Seq,
		respOp: respOp, arg1: arg1, arg2: arg2,
	}
	// sends aliases the reused sh.invSends scratch; the round needs its own
	// copy to survive until the last ack.
	r.outstanding = append(r.outstanding, sends...)
	sh.inv[id] = r
	for _, s := range sends {
		inv := wire.GetMessage()
		inv.Op, inv.Src, inv.Dst = wire.OpInvalidate, int32(k.id), int32(s.dst)
		inv.Seq, inv.Addr = id, s.addr
		inv.Shard = uint8(sh.idx)
		k.svc.Send(s.dst, inv)
		wire.PutMessage(inv)
	}
}

// resendInvalidations retransmits the still-unacked invalidations of the
// round started by requester's mutating request seq, if one is in flight.
// Called when a retried duplicate of that request arrives: the retry means
// the writer never got its response, and under a lossy transport the likely
// cause is a lost OpInvalidate or OpInvAck that no other timer would ever
// recover. The round lives in this shard — retries route like the original.
func (sh *kernelShard) resendInvalidations(requester int32, seq uint64) {
	k := sh.k
	for id, r := range sh.inv {
		if r.requester != requester || r.seq != seq {
			continue
		}
		for _, s := range r.outstanding {
			inv := wire.GetMessage()
			inv.Op, inv.Src, inv.Dst = wire.OpInvalidate, int32(k.id), int32(s.dst)
			inv.Seq, inv.Addr = id, s.addr
			inv.Shard = uint8(sh.idx)
			inv.Flags |= wire.FlagRetry
			k.svc.Send(s.dst, inv)
			wire.PutMessage(inv)
		}
		return
	}
}

// handleInvalidate drops the local cached copy and acks. The ack echoes the
// sender's shard hint so it routes back to the shard holding the round (the
// invalidated address is homed at the sender, so hashing it locally would
// name the wrong kernel's partition).
func (sh *kernelShard) handleInvalidate(m *wire.Message) {
	if sh.k.cache != nil {
		sh.k.cache.Invalidate(m.Addr)
	}
	ack := wire.GetMessage()
	ack.Op, ack.Addr = wire.OpInvAck, m.Addr
	ack.Shard = m.Shard
	sh.reply(m, ack)
}

func (sh *kernelShard) handleInvAck(m *wire.Message) {
	r, ok := sh.inv[m.Seq]
	if !ok {
		// A duplicate or late ack for a round already completed (or an ack
		// with a corrupted shard hint): count and drop instead of taking the
		// kernel down.
		sh.extra.StrayDrops++
		return
	}
	// Match the ack against a specific outstanding invalidation so that a
	// duplicated ack (original + the answer to a retransmission) cannot
	// complete the round while other copies are still live.
	found := -1
	for i, s := range r.outstanding {
		if s.dst == int(m.Src) && s.addr == m.Addr {
			found = i
			break
		}
	}
	if found < 0 {
		sh.extra.StrayDrops++
		return
	}
	r.outstanding = append(r.outstanding[:found], r.outstanding[found+1:]...)
	if len(r.outstanding) > 0 {
		return
	}
	delete(sh.inv, m.Seq)
	sh.dedup.complete(r.requester, r.seq, r.respOp, r.arg1, r.arg2, nil)
	resp := wire.GetMessage()
	resp.Op, resp.Src, resp.Dst, resp.Seq = r.respOp, int32(sh.k.id), r.requester, r.seq
	resp.Arg1, resp.Arg2 = r.arg1, r.arg2
	sh.k.svc.Send(int(r.requester), resp)
	wire.PutMessage(resp)
}
