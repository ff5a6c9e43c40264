package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"

	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/gmem"
	"repro/internal/procmgmt"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// PE is the application's view of one processor element: the Parallel API
// Library of the paper. A PE value is used by exactly one goroutine (or sim
// process) — the DSE process — and mediates every interaction with the
// cluster: global memory, synchronisation, messages and process management.
type PE struct {
	k     *Kernel
	app   transport.Port
	alloc *gmem.Allocator
	gpid  int64
	extra trace.PEStats     // app-context counters merged into the result
	spans *trace.SpanRing   // request span ring (nil unless Config.Tracing)
	live  *trace.Histogram  // Config.LiveRTT: shared live round-trip histogram
	hist  *check.PERecorder // operation history (nil unless Config.RecordHistory)

	// Checkpoint/restart state (Config.Ckpt).
	saveFn      func() []byte // RegisterCheckpoint's save hook
	restoredApp []byte        // app blob from the snapshot this run restored
	restored    bool          // this run started from a snapshot
	ckptEpoch   uint64        // last completed checkpoint epoch
	viewGen     uint64        // view generation: recoveries this cluster survived

	// replyMb is the persistent reply mailbox: every response to this PE's
	// requests lands here (the PE is single-threaded, so scalar requests
	// never overlap; pipelined block transfers match replies by Seq).
	replyMb transport.Mailbox

	// Consistency-tier state (DESIGN.md §14). modes maps allocations to
	// their tier; wc buffers release-mode writes between sync edges; leases
	// caches lease-mode blocks until their grants expire.
	modes  *gmem.ModeTable
	wc     *gmem.WCBuf
	leases map[uint64]*leaseEntry // keyed by block base address

	// ns, when Limit != 0, confines every global-memory operation to the job
	// namespace the scheduler bound this PE to (dsesched, DESIGN.md §15).
	// Checked before a request leaves the PE, which is what covers the
	// one-sided window and ring fast paths with the same guard as the
	// message path; the home kernel independently re-checks arriving
	// messages against its own registry (kernelShard.nsDeny).
	ns gmem.Region

	// Scratch reused across calls by the hot-path operations.
	words []int64   // decoded response payloads
	vruns []vrun    // remote runs plan queued for the current transfer
	hruns []vrun    // the same runs, grouped by (home, shard)
	reqs  []homeReq // one request per remote (home, shard)
	fl    []uint64  // drained WC addresses (ascending) of the current flush
	flv   []int64   // drained WC values, parallel to fl
}

// leaseEntry is one cached block under a read lease: words is the block
// snapshot fetched from the home, grant the fetch request's start instant
// (the staleness bound the checker holds lease-served reads to) and until
// the expiry instant after which the snapshot must not be served.
type leaseEntry struct {
	words []int64
	grant sim.Time
	until sim.Time
}

// vrun is one single-home run of a vector operation. A run never crosses a
// block boundary (see wordSet.run), so it also has a single home-side shard.
type vrun struct {
	home  int
	shard int // home-side kernel shard owning this run's block
	start uint64
	count int
	off   int // word offset within the caller's buffer
}

// homeReq is one coalesced per-home request of a pipelined transfer. When
// the home kernels run shard workers, transfers coalesce per (home, shard)
// instead of per home, so a gather spanning k shards becomes k sub-requests
// serviced in parallel; shard is stamped into the request header for the
// home's dispatcher.
type homeReq struct {
	seq    uint64
	shard  int
	lo, hi int // pe.hruns[lo:hi] travelled in this request
	done   bool
}

func newPE(k *Kernel) *PE {
	pe := &PE{
		k:       k,
		app:     k.node.App(),
		alloc:   gmem.NewAllocator(k.space),
		replyMb: k.node.NewMailbox(0),
		spans:   k.cfg.Tracing.NewRing(),
		live:    k.cfg.LiveRTT,
		hist:    k.cfg.recorder.PE(k.id),
		modes:   gmem.NewModeTable(k.cfg.GMDefaultMode),
		wc:      gmem.NewWCBuf(),
		leases:  make(map[uint64]*leaseEntry),
	}
	if rs := k.cfg.restore; rs != nil {
		pe.ckptEpoch = rs.epoch
		pe.viewGen = rs.viewGen
		pe.restoredApp = rs.app[k.id]
		pe.restored = true
		pe.extra.Restores++
		pe.extra.RollbackOps += rs.rollback[k.id]
	}
	return pe
}

// ID returns this PE's kernel id in [0, N).
func (pe *PE) ID() int { return pe.k.id }

// N returns the number of PEs in the cluster.
func (pe *PE) N() int { return pe.k.n }

// Hostname names the physical machine hosting this PE. Under a virtual
// cluster several PEs share one.
func (pe *PE) Hostname() string { return pe.k.node.Hostname() }

// GPID returns the cluster-global process id assigned at registration.
func (pe *PE) GPID() int64 { return pe.gpid }

// Now returns the PE's clock (virtual time under simulation).
func (pe *PE) Now() sim.Time { return pe.app.Now() }

// Compute charges the cost of ops application operations (roughly flops)
// against this PE.
func (pe *PE) Compute(ops float64) { pe.app.Compute(ops) }

// Alloc reserves n global-memory words. Allocation is deterministic: every
// PE of the SPMD program performs the same Alloc sequence and obtains the
// same addresses without communicating.
func (pe *PE) Alloc(n int) uint64 { return pe.alloc.Alloc(n) }

// AllocBlocks reserves n words starting on a block boundary.
func (pe *PE) AllocBlocks(n int) uint64 { return pe.alloc.AllocBlocks(n) }

// AllocMode reserves n words under the given consistency mode (DESIGN.md
// §14). Deterministic like Alloc: every PE performs the same AllocMode
// sequence, so the per-PE mode tables agree without communicating.
func (pe *PE) AllocMode(n int, m gmem.Mode) uint64 {
	addr := pe.alloc.Alloc(n)
	pe.modes.Set(addr, n, m)
	return addr
}

// AllocBlocksMode is AllocBlocks under the given consistency mode.
func (pe *PE) AllocBlocksMode(n int, m gmem.Mode) uint64 {
	addr := pe.alloc.AllocBlocks(n)
	pe.modes.Set(addr, n, m)
	return addr
}

// Space exposes the global address-space geometry.
func (pe *PE) Space() gmem.Space { return pe.k.space }

// legacyCrossing charges the old two-process organisation's IPC round trip
// at the top of a Parallel-API call (no-op in the reorganised design).
func (pe *PE) legacyCrossing() {
	if pe.k.cfg.Legacy {
		pe.app.LegacyIPC()
	}
}

// request sends m to kernel dst and blocks until the response arrives in
// the persistent reply mailbox. Request time beyond the send-side overhead
// is accounted as wait time. The caller owns both m and the returned
// response; recycle them with wire.PutMessage when done. Failures panic;
// requestErr is the error-returning tier underneath.
func (pe *PE) request(dst int, m *wire.Message) *wire.Message {
	resp, err := pe.requestErr(dst, m)
	if err != nil {
		panic(err)
	}
	return resp
}

// requestErr is request with failures surfaced as errors: *TimeoutError
// after the configured retries are exhausted, *PeerDownError when the
// transport declared dst dead, *ShutdownError when the cluster went down.
//
// Retries resend the request with the same Seq and the retry flag set; the
// home kernel's dedup window guarantees a retried mutating operation is
// applied exactly once. The pending registration survives across attempts so
// a late first reply still routes to us (and is then matched by Seq).
//
// A wire.OpMigrateNack response means the addressed kernel no longer homes
// (one of) the request's blocks: the requester learns the hinted new home,
// re-registers the SAME sequence number and retries there — exactly-once
// carries across the redirect because the old home never applied the
// operation (NACKs are issued before any mutation) and the new home's window
// absorbs duplicates like any other.
func (pe *PE) requestErr(dst int, m *wire.Message) (*wire.Message, error) {
	k := pe.k
	m.Src = int32(k.id)
	m.Dst = int32(dst)
	seq, dead := k.addPending(pe.replyMb, dst)
	if dead {
		return nil, &PeerDownError{PE: k.id, Peer: dst, Op: m.Op.String()}
	}
	m.Seq = seq
	start := pe.app.Now()
	var sent sim.Time
	backoff := k.cfg.RetryBackoff
	bounces := 0
	for attempts := 1; ; attempts++ {
		pe.app.Send(dst, m)
		if pe.spans != nil && sent == 0 {
			sent = pe.app.Now()
		}
		resp, err := pe.takeReply(seq, m.Op, dst, attempts)
		if err == nil && resp.Op == wire.OpMigrateNack {
			hint := int(resp.Arg1)
			wire.PutMessage(resp)
			if bounces++; bounces > maxMigrateBounces || hint < 0 || hint >= k.n {
				pe.extra.WaitTime += pe.app.Now() - start
				return nil, fmt.Errorf("core: PE %d: %v to kernel %d bounced %d times chasing a migrating home", k.id, m.Op, dst, bounces)
			}
			pe.extra.MigrateNacks++
			if bounces > 2 {
				// A redirect can outrun the handoff itself: the hinted new
				// home NACKs back toward the probe rule until its install
				// lands. Give the migration a beat instead of burning the
				// bounce budget on a tight ping-pong.
				boff := backoff
				if boff == 0 {
					boff = 1 << 16
				}
				pe.app.Sleep(boff)
			}
			switch m.Op {
			case wire.OpRead, wire.OpWrite, wire.OpFetchAdd, wire.OpCAS, wire.OpReadLease:
				// Cache the new home so later requests skip the bounce. Gated
				// to the ops whose Addr is a data address.
				// The requester's hint cache is the kernel's shared
				// directory, which is authoritative about what this kernel
				// homes, so CacheHint never touches a block whose home is (or
				// becomes) our OWN kernel. A stale peer's probe-rule hint
				// naming us would resurrect phantom self-ownership of a block
				// handed away — the kernel would lazily recreate it and
				// swallow writes into it; a NACK delayed past our kernel's
				// adoption of the block would disown it while we hold the
				// data, and requests would ping-pong between the two homes.
				k.dir.CacheHint(k.id, k.space.BlockOf(m.Addr), hint)
			}
			if k.addPendingSeq(pe.replyMb, hint, seq) {
				pe.extra.WaitTime += pe.app.Now() - start
				return nil, &PeerDownError{PE: k.id, Peer: hint, Op: m.Op.String()}
			}
			dst = hint
			m.Dst = int32(dst)
			m.Flags |= wire.FlagRetry
			continue
		}
		if err == nil && resp.Op == wire.OpNsNack {
			// The home rejected the request whole: it strayed outside the
			// requester's bound namespace (the kernel counted the violation).
			// Surface the typed error so the job aborts instead of ever
			// touching foreign memory.
			nsErr := &NamespaceError{
				PE: k.id, Op: m.Op.String(), Addr: m.Addr,
				Base: uint64(resp.Arg1), Limit: uint64(resp.Arg2),
			}
			wire.PutMessage(resp)
			pe.extra.WaitTime += pe.app.Now() - start
			return nil, nsErr
		}
		if err == nil {
			now := pe.app.Now()
			rtt := now - start
			pe.extra.WaitTime += rtt
			// Only the per-op histogram is fed on the hot path; the
			// aggregate PEStats.RTT is derived from it at collect time.
			pe.extra.RTTByOp[m.Op].Observe(rtt)
			if pe.live != nil {
				pe.live.Observe(rtt)
			}
			if pe.spans != nil && pe.spans.Sampled() {
				pe.spans.Record(trace.Span{
					Kind: trace.SpanRequest, Op: m.Op,
					PE: int32(k.id), Peer: int32(dst), Seq: seq,
					Start: start, Sent: sent, End: now,
				})
			}
			return resp, nil
		}
		if _, timedOut := err.(*TimeoutError); !timedOut || attempts > k.cfg.RequestRetries {
			k.dropPending(seq)
			pe.extra.WaitTime += pe.app.Now() - start
			return nil, err
		}
		if backoff > 0 {
			pe.app.Sleep(backoff)
			if backoff < 8*k.cfg.RetryBackoff {
				backoff *= 2
			}
		}
		m.Flags |= wire.FlagRetry
		pe.extra.Retries++
	}
}

// takeReply blocks on the reply mailbox until the response to seq arrives or
// the per-attempt timeout expires. Sequence validation is what makes the
// persistent mailbox safe: residue of an earlier timed-out request (a stale
// reply that arrived after we gave up on it) is recycled and skipped instead
// of being misdelivered as the answer to the current request.
func (pe *PE) takeReply(seq uint64, op wire.Op, dst int, attempts int) (*wire.Message, error) {
	d := pe.k.requestTimeout()
	deadline := pe.app.Now() + d
	for {
		wait := d
		if d > 0 {
			if wait = deadline - pe.app.Now(); wait <= 0 {
				return nil, &TimeoutError{PE: pe.k.id, Dst: dst, Op: op.String(), Attempts: attempts}
			}
		}
		resp, err := pe.take(pe.replyMb, wait, op.String(), dst, attempts)
		if err != nil {
			return nil, err
		}
		if resp.Seq != seq {
			pe.extra.StaleReplies++ // reply (or failure notice) for an older request
			wire.PutMessage(resp)
			continue
		}
		if resp.Op == wire.OpPeerDown {
			peer := int(resp.Src)
			wire.PutMessage(resp)
			return nil, &PeerDownError{PE: pe.k.id, Peer: peer, Op: op.String()}
		}
		return resp, nil
	}
}

// take is the one timed mailbox take under every blocking PE wait: the next
// message on mb, waiting at most d (forever when d <= 0). A timeout reports
// *TimeoutError (naming dst and attempts; dst < 0 when the wait has no
// single peer) and a shut-down cluster *ShutdownError.
func (pe *PE) take(mb transport.Mailbox, d sim.Duration, op string, dst, attempts int) (*wire.Message, error) {
	var m *wire.Message
	var ok, timedOut bool
	if d > 0 {
		m, ok, timedOut = mb.TakeTimeout(d)
	} else {
		m, ok = mb.Take()
	}
	switch {
	case timedOut:
		return nil, &TimeoutError{PE: pe.k.id, Dst: dst, Op: op, Attempts: attempts}
	case !ok:
		return nil, &ShutdownError{PE: pe.k.id, Op: op}
	}
	return m, nil
}

// --- Global memory: word operations ---
//
// The scalar operations keep their own fast paths (own home, cache,
// one-sided window and ring, then the message path) — they run in tens of
// nanoseconds, well below what a vector transfer's planning costs. Vector
// operations all go through plan and transfer below.

// GMRead reads the global-memory word at addr, panicking on failure.
func (pe *PE) GMRead(addr uint64) int64 {
	v, err := pe.GMReadErr(addr)
	if err != nil {
		panic(err)
	}
	return v
}

// GMReadErr reads the global-memory word at addr, surfacing request
// failures (timeout, peer down, shutdown) as errors instead of panicking.
// The word's consistency mode picks the protocol: strong words take the
// home-served path, release words consult the PE's own write-combining
// buffer first (read-your-writes between sync edges), lease words are
// served from time-bounded block leases.
func (pe *PE) GMReadErr(addr uint64) (int64, error) {
	if err := pe.nsCheck("read", addr, 1); err != nil {
		return 0, err
	}
	pe.legacyCrossing()
	mode := uint8(pe.modes.Lookup(addr))
	if mode == uint8(gmem.ModeLease) {
		var v [1]int64
		err := pe.readLeaseRange(v[:], addr)
		return v[0], err
	}
	return pe.readWord(addr, mode)
}

// localAccess charges one access served from this node's memory.
func (pe *PE) localAccess() {
	pe.app.LocalAccess()
	pe.extra.LocalGM++
}

// readWord is the home-served scalar read shared by the strong and release
// tiers: a release word is answered from the PE's own buffered store when
// there is one, and otherwise the protocol is identical (mode only tags the
// recorded events).
func (pe *PE) readWord(addr uint64, mode uint8) (int64, error) {
	k := pe.k
	var t0 sim.Time
	if pe.hist != nil {
		t0 = pe.app.Now()
	}
	if mode == uint8(gmem.ModeRelease) {
		if v, ok := pe.wc.Lookup(addr); ok {
			pe.localAccess()
			pe.recordRead(addr, v, false, t0, mode)
			return v, nil
		}
	}
	if k.cache != nil {
		if v, ok := k.cache.Lookup(addr); ok {
			pe.localAccess()
			pe.recordRead(addr, v, true, t0, mode)
			return v, nil
		}
	}
	// Own home or the one-sided window: read the home's segment directly.
	// The window route exists only uncached (no directory to update), and
	// every word has a single home and the seqlock yields a torn-free value,
	// so this is as consistent as the message path it replaces. Ownership is
	// checked inside the seqlock critical section, so the read is
	// migration-safe: a block migrated away, even from this PE's own kernel
	// by a concurrent handoff, or mid handoff (the extract bumped the write
	// sequence) fails the check and the read falls through to the message
	// path, which follows the NACK redirect.
	home := k.homeOf(addr)
	seg, own := k.seg, home == k.id
	if !own {
		pe.extra.RemoteGM++
		seg = k.window(home)
	}
	if seg != nil {
		pe.app.LocalAccess()
		if v, ok := seg.DirectReadOwned(addr); ok {
			if own {
				pe.extra.LocalGM++
			} else {
				pe.extra.DirectGM++
			}
			pe.recordRead(addr, v, false, t0, mode)
			return v, nil
		}
	}
	if own {
		pe.extra.RemoteGM++ // the block left this kernel under our feet
	}
	req := wire.GetMessage()
	req.Op, req.Addr, req.Arg1 = wire.OpRead, addr, 1
	if k.cache != nil {
		// Arg2 == 1 is a cache fill: the home returns the whole block and
		// registers this node in the block's copyset.
		req.Arg1, req.Arg2 = 0, 1
	}
	resp, err := pe.requestErr(home, req)
	wire.PutMessage(req)
	if err != nil {
		pe.recordReadFailed(addr, t0, mode)
		return 0, err
	}
	var v int64
	if k.cache != nil {
		pe.words = resp.WordsInto(pe.words)
		k.cache.Insert(addr, pe.words)
		v = pe.words[addr%uint64(k.space.BlockWords)]
	} else {
		v = resp.Word(0)
	}
	wire.PutMessage(resp)
	pe.recordRead(addr, v, false, t0, mode)
	return v, nil
}

// peer returns home's kernel when the one-sided route is open to it — the
// cluster's shape admits it (k.peers is wired only then, see oneSided) and
// the home is not known dead — and nil to send the caller down the message
// path.
func (k *Kernel) peer(home int) *Kernel {
	if k.peers == nil || k.deadFlags[home].Load() {
		return nil
	}
	return k.peers[home]
}

// window returns home's segment for direct reads and atomics, or nil when
// the one-sided route is closed to it (see peer).
func (k *Kernel) window(home int) *gmem.Segment {
	if hk := k.peer(home); hk != nil {
		return hk.seg
	}
	return nil
}

// recordRead logs one successful word read into the operation history
// (no-op unless Config.RecordHistory).
func (pe *PE) recordRead(addr uint64, v int64, cached bool, t0 sim.Time, mode uint8) {
	if pe.hist == nil {
		return
	}
	pe.hist.Add(check.Event{
		Kind: check.KindRead, Addr: addr, Out: v, Cached: cached, Mode: mode,
		Inv: t0, Resp: pe.app.Now(),
	})
}

// recordReadFailed logs a read that errored (no effect on memory; the
// checker ignores it beyond counting).
func (pe *PE) recordReadFailed(addr uint64, t0 sim.Time, mode uint8) {
	if pe.hist == nil {
		return
	}
	pe.hist.Add(check.Event{
		Kind: check.KindRead, Addr: addr, Failed: true, Mode: mode,
		Inv: t0, Resp: pe.app.Now(),
	})
}

// --- Lease-mode reads (ModeLease, DESIGN.md §14) ---

// readLeaseRange serves a lease-mode read of len(out) words at addr block
// by block: a live lease covering the block answers locally with no
// messages, a miss fetches the block under a fresh time-bounded lease.
// Own-home blocks read the segment directly — always fresh, so they carry a
// strong staleness bound. A failed fetch records the block's words as
// failed reads and stops the range with the error.
func (pe *PE) readLeaseRange(out []int64, addr uint64) error {
	k := pe.k
	var t0 sim.Time
	if pe.hist != nil {
		t0 = pe.app.Now()
	}
	bw := uint64(k.space.BlockWords)
	end := addr + uint64(len(out))
	for base := addr - addr%bw; base < end; base += bw {
		lo, hi := max(base, addr), min(base+bw, end)
		dst := out[lo-addr : hi-addr]
		if k.homeOf(base) == k.id {
			pe.localAccess()
			k.seg.ReadInto(dst, lo)
			pe.recordReads(wordRange(lo, len(dst)), dst, t0, uint8(gmem.ModeLease), nil)
			continue
		}
		le := pe.leaseHit(base)
		if le != nil {
			pe.localAccess()
		} else {
			var err error
			if le, err = pe.fetchLease(base); err != nil {
				for a := lo; a < hi; a++ {
					pe.recordReadFailed(a, t0, uint8(gmem.ModeLease))
				}
				return err
			}
		}
		copy(dst, le.words[lo-base:hi-base])
		pe.recordReads(wordRange(lo, len(dst)), dst, t0, uint8(gmem.ModeLease), le)
	}
	return nil
}

// leaseHit returns the live lease covering the block at base, dropping an
// expired one. The TEST-ONLY FaultIgnoreLeaseExpiry keeps serving expired
// leases — the checker's lease-overstay rule must flag those reads.
func (pe *PE) leaseHit(base uint64) *leaseEntry {
	le, ok := pe.leases[base]
	if !ok {
		return nil
	}
	if pe.app.Now() > le.until && !pe.k.cfg.FaultIgnoreLeaseExpiry {
		delete(pe.leases, base)
		pe.extra.LeaseExpiries++
		return nil
	}
	return le
}

// fetchLease fetches the block at base from its home under a read lease and
// caches it until the home-granted duration elapses (measured from receipt).
// The recorded staleness bound is the REQUEST start: the home serves the
// block no earlier than that, so every write completed before the grant
// instant is already reflected in the snapshot.
func (pe *PE) fetchLease(base uint64) (*leaseEntry, error) {
	k := pe.k
	grant := pe.app.Now()
	pe.extra.RemoteGM++
	req := wire.GetMessage()
	req.Op, req.Addr = wire.OpReadLease, base
	resp, err := pe.requestErr(k.homeOf(base), req)
	wire.PutMessage(req)
	if err != nil {
		return nil, err
	}
	le := &leaseEntry{grant: grant, until: pe.app.Now() + sim.Duration(resp.Arg2)}
	le.words = resp.WordsInto(le.words)
	wire.PutMessage(resp)
	pe.leases[base] = le
	pe.extra.LeaseGrants++
	return le, nil
}

// dropLeases discards this PE's leases covering [addr, addr+n): its own
// writes must not keep being answered from a snapshot that predates them.
func (pe *PE) dropLeases(addr uint64, n int) {
	if len(pe.leases) == 0 {
		return
	}
	bw := uint64(pe.k.space.BlockWords)
	for base := addr - addr%bw; base < addr+uint64(n); base += bw {
		delete(pe.leases, base)
	}
}

// clearLeases drops every cached lease: crossing an acquire edge (barrier,
// lock or semaphore grant, membership transition) must re-observe the
// cluster instead of extending pre-edge snapshots past it.
func (pe *PE) clearLeases() {
	clear(pe.leases)
}

// GMWrite stores v at addr, panicking on failure.
func (pe *PE) GMWrite(addr uint64, v int64) {
	if err := pe.GMWriteErr(addr, v); err != nil {
		panic(err)
	}
}

// ringWrite attempts the one-sided write fast path: publish (addr, v) into
// the co-located home's per-shard submission ring and apply it right at the
// submit point, reporting whether it was applied. The producer reads its
// slot's verdict; while the slot is unsettled it drains the ring itself
// under the shard mutex when that is free (settling every published write,
// its own included), and otherwise yields to whoever holds it. The ring
// sequence comes from the same counter as message sequences, so the home's
// dedup window gives the two paths one exactly-once space. A rejected write
// (its block left the home after the precheck) was not applied and left no
// dedup record, so the caller takes the message path under a fresh
// sequence.
func (pe *PE) ringWrite(home int, addr uint64, v int64) bool {
	k := pe.k
	hk := k.peer(home)
	if hk == nil {
		return false
	}
	sh := hk.shards[k.space.ShardOf(addr, hk.nshards)]
	if !hk.dir.Static() && !hk.dir.Owns(home, k.space.BlockOf(addr)) {
		return false // the block already migrated away
	}
	pe.app.LocalAccess()
	pos, ok := sh.ring.Push(gmem.RingWrite{Addr: addr, Val: v, Seq: k.seqCtr.Add(1), Src: int32(k.id)})
	if !ok {
		return false
	}
	pe.extra.RingGM++
	for {
		if vd := sh.ring.Verdict(pos); vd != gmem.VerdictPending {
			sh.ring.Free(pos)
			return vd == gmem.VerdictApplied
		}
		if sh.mu.TryLock() {
			sh.drainRing()
			sh.mu.Unlock()
		} else {
			runtime.Gosched()
		}
	}
}

// GMWriteErr stores v at addr, surfacing request failures as errors. The
// word's consistency mode picks the protocol: release-mode stores land in
// the PE's write-combining buffer (published at the next sync edge), every
// other mode runs the home-served strong protocol.
func (pe *PE) GMWriteErr(addr uint64, v int64) error {
	if err := pe.nsCheck("write", addr, 1); err != nil {
		return err
	}
	pe.legacyCrossing()
	switch mode := pe.modes.Lookup(addr); mode {
	case gmem.ModeRelease:
		pe.bufferWrites(addr, []int64{v})
		return nil
	case gmem.ModeLease:
		pe.dropLeases(addr, 1)
		return pe.writeWord(addr, v, uint8(mode))
	}
	return pe.writeWord(addr, v, 0)
}

// bufferWrites absorbs release-mode stores into the write-combining buffer:
// purely local, same-word stores coalesce last-writer-wins, and the next
// sync edge publishes the buffer. Each recorded event's instantaneous
// interval is the buffering instant; the checker derives the store's effect
// window from the first sync fence at or after it.
func (pe *PE) bufferWrites(addr uint64, words []int64) {
	pe.localAccess()
	if pe.hist != nil {
		now := pe.app.Now()
		for i, v := range words {
			idx := pe.hist.Begin(check.Event{
				Kind: check.KindWrite, Addr: addr + uint64(i), Arg1: v,
				Mode: uint8(gmem.ModeRelease), Inv: now,
			})
			pe.hist.Complete(idx, 0, true, now)
		}
	}
	for i, v := range words {
		pe.wc.Put(addr+uint64(i), v)
	}
}

// writeWord is the home-served scalar store shared by the strong and lease
// tiers (mode only tags the recorded event).
func (pe *PE) writeWord(addr uint64, v int64, mode uint8) error {
	k := pe.k
	hidx := -1
	if pe.hist != nil {
		hidx = pe.hist.Begin(check.Event{
			Kind: check.KindWrite, Addr: addr, Arg1: v, Mode: mode, Inv: pe.app.Now(),
		})
	}
	home := k.homeOf(addr)
	if k.cache == nil {
		if home == k.id {
			pe.app.LocalAccess()
			if k.seg.WriteWordOwned(addr, v) {
				pe.extra.LocalGM++
				pe.complete(hidx, 0, true)
				return nil
			}
		} else if pe.ringWrite(home, addr, v) {
			pe.extra.RemoteGM++
			pe.complete(hidx, 0, true)
			return nil
		}
	}
	// Under caching every mutation goes through the home's invalidation
	// machinery, including our own home (via the own-node message path).
	// The writer drops its own cached copy too: a kept-warm copy would no
	// longer be registered in the home's directory, so later writes by
	// other PEs could not invalidate it. A store the own home or the ring
	// refused (the block migrated away) takes this path under a fresh
	// sequence and follows the NACK redirect.
	pe.extra.RemoteGM++
	req := wire.GetMessage()
	req.Op, req.Addr = wire.OpWrite, addr
	req.PutWord(v)
	resp, err := pe.requestErr(home, req)
	wire.PutMessage(req)
	if err != nil {
		return err
	}
	wire.PutMessage(resp)
	if k.cache != nil {
		k.cache.Invalidate(addr)
	}
	pe.complete(hidx, 0, true)
	return nil
}

// complete closes the in-flight history event idx with its result (no-op
// unless Config.RecordHistory).
func (pe *PE) complete(idx int, out int64, ok bool) {
	if pe.hist != nil {
		pe.hist.Complete(idx, out, ok, pe.app.Now())
	}
}

// FetchAdd atomically adds delta to the word at addr, returning the old
// value. The primitive behind job pools and work counters. Panics on failure.
func (pe *PE) FetchAdd(addr uint64, delta int64) int64 {
	old, err := pe.FetchAddErr(addr, delta)
	if err != nil {
		panic(err)
	}
	return old
}

// FetchAddErr is FetchAdd with request failures surfaced as errors. A retry
// that slips past a lost reply is absorbed by the home's dedup window, so
// the addition is applied exactly once even under retransmission.
func (pe *PE) FetchAddErr(addr uint64, delta int64) (int64, error) {
	old, _, err := pe.atomic(wire.OpFetchAdd, addr, delta, 0)
	return old, err
}

// CAS atomically compares-and-swaps the word at addr; it returns the
// previous value and whether the swap happened. Panics on failure.
func (pe *PE) CAS(addr uint64, old, new int64) (int64, bool) {
	prev, sw, err := pe.CASErr(addr, old, new)
	if err != nil {
		panic(err)
	}
	return prev, sw
}

// CASErr is CAS with request failures surfaced as errors; like FetchAddErr
// it stays exactly-once under retransmission.
func (pe *PE) CASErr(addr uint64, old, new int64) (int64, bool, error) {
	return pe.atomic(wire.OpCAS, addr, old, new)
}

// atomic is the one executor of the read-modify-write operations: op is
// wire.OpFetchAdd (a1 = delta) or wire.OpCAS (a1 = expected, a2 = new). It
// returns the previous value and whether the operation took effect (always
// true for FetchAdd). Atomics always run the strong protocol at the home,
// whatever the word's mode; the mode only tags the recorded event, and a
// lease over the word is dropped so later lease reads re-observe the
// mutation.
func (pe *PE) atomic(op wire.Op, addr uint64, a1, a2 int64) (int64, bool, error) {
	if err := pe.nsCheck(op.String(), addr, 1); err != nil {
		return 0, false, err
	}
	pe.legacyCrossing()
	k := pe.k
	mode := uint8(pe.modes.Lookup(addr))
	if mode == uint8(gmem.ModeLease) {
		pe.dropLeases(addr, 1)
	}
	hidx := -1
	if pe.hist != nil {
		kind := check.KindFetchAdd
		if op == wire.OpCAS {
			kind = check.KindCAS
		}
		hidx = pe.hist.Begin(check.Event{
			Kind: kind, Addr: addr, Arg1: a1, Arg2: a2, Mode: mode, Inv: pe.app.Now(),
		})
	}
	home := k.homeOf(addr)
	// Own home (uncached) or the one-sided window: apply the operation
	// directly on the home's segment. It completes before this call
	// returns, so it needs neither a dedup entry nor a checkpoint fence, and
	// the segment checks ownership under the stripe mutex that Extract takes
	// after a migration flips the directory. A block migrated away (even
	// from this PE's own kernel, by a concurrent handoff) or mid handoff
	// falls through to the message path under a fresh seq.
	seg, own := k.seg, k.cache == nil && home == k.id
	if !own {
		pe.extra.RemoteGM++
		seg = k.window(home)
	}
	if seg != nil {
		pe.app.LocalAccess()
		if prev, ok, owned := seg.AtomicOwned(addr, op == wire.OpCAS, a1, a2); owned {
			if own {
				pe.extra.LocalGM++
			} else {
				pe.extra.DirectGM++
			}
			pe.complete(hidx, prev, ok)
			return prev, ok, nil
		}
	}
	if own {
		pe.extra.RemoteGM++ // the block left this kernel under our feet
	}
	req := wire.GetMessage()
	req.Op, req.Addr, req.Arg1, req.Arg2 = op, addr, a1, a2
	resp, err := pe.requestErr(home, req)
	wire.PutMessage(req)
	if err != nil {
		return 0, false, err
	}
	prev, ok := resp.Arg1, op != wire.OpCAS || resp.Arg2 == 1
	wire.PutMessage(resp)
	if k.cache != nil {
		k.cache.Invalidate(addr)
	}
	pe.complete(hidx, prev, ok)
	return prev, ok, nil
}

// --- Global memory: block and vectored (scatter/gather) operations ---

// wordSet names the words of one vector operation: the contiguous range
// [addr, addr+n) when addrs is nil, else the n listed addresses in order.
// Word i of the set pairs with element i of the caller's buffer.
type wordSet struct {
	addr  uint64
	addrs []uint64
	n     int
	// coalesce merges runs of consecutive ascending listed addresses within
	// one block (a write-combining flush); uncoalesced lists travel one word
	// per run, like the gather/scatter calls that produced them.
	coalesce bool
}

func wordRange(addr uint64, n int) wordSet { return wordSet{addr: addr, n: n} }
func wordList(addrs []uint64) wordSet      { return wordSet{addrs: addrs, n: len(addrs)} }

func (ws wordSet) at(i int) uint64 {
	if ws.addrs == nil {
		return ws.addr + uint64(i)
	}
	return ws.addrs[i]
}

// run returns the run of words starting at word i. A run never crosses a
// block boundary, so it has a single home and a single home-side shard.
func (ws wordSet) run(i int, bw uint64) (start uint64, count int) {
	start, count = ws.at(i), 1
	if ws.addrs == nil {
		count = int(min(bw-start%bw, uint64(ws.n-i)))
	} else if ws.coalesce {
		for i+count < ws.n && ws.addrs[i+count] == start+uint64(count) && (start+uint64(count))%bw != 0 {
			count++
		}
	}
	return start, count
}

// plan is the run planner shared by every vector operation: it walks the
// runs of ws in order, serving own-home runs from the local segment on the
// spot — and, for reads, remote runs through the one-sided window when it
// is open — and queueing the rest in pe.vruns for the executor. Home
// lookups interleave with the local accesses, so a directory change that
// lands while a simulated access yields routes the later runs by the new
// directory. Reads (op == wire.OpReadV) serve own-home runs even under
// caching — vector reads bypass the cache — while writes under caching send
// every run through the home's invalidation machinery and drop the PE's
// cached copy. buf is the caller's buffer: read into, or written from.
func (pe *PE) plan(op wire.Op, ws wordSet, buf []int64) {
	k := pe.k
	bw := uint64(k.space.BlockWords)
	pe.vruns = pe.vruns[:0]
	for i := 0; i < ws.n; {
		start, count := ws.run(i, bw)
		home := k.homeOf(start)
		switch {
		case home == k.id && op == wire.OpReadV:
			pe.localAccess()
			k.seg.ReadInto(buf[i:i+count], start)
		case home == k.id && k.cache == nil:
			pe.localAccess()
			k.seg.Write(start, buf[i:i+count])
		default:
			pe.extra.RemoteGM++
			if win := k.window(home); win != nil && op == wire.OpReadV {
				// One-sided run read, charged like the scalar window read;
				// a run whose block migrated away or is mid handoff stays
				// queued for the message path.
				pe.app.LocalAccess()
				if win.DirectReadRunOwned(buf[i:i+count], start) {
					pe.extra.DirectGM++
					break
				}
			}
			pe.vruns = append(pe.vruns, vrun{
				home: home, shard: k.space.ShardOf(start, k.nshards),
				start: start, count: count, off: i,
			})
			if op != wire.OpReadV && k.cache != nil {
				k.cache.Invalidate(start)
			}
		}
		i += count
	}
}

// groupRunsByHome regroups pe.vruns into pe.hruns ordered by home (and, when
// the home kernels run shard workers, by shard within each home, so each
// sub-request lands wholly in one shard and the shards service them in
// parallel); callers then slice pe.hruns per request. Runs keep their
// relative (ascending-address) order within each group. Without workers a
// single per-home request is still stamped with its first run's shard — the
// handlers don't care, every table the request touches is inline-owned.
func (pe *PE) groupRunsByHome() {
	pe.hruns = pe.hruns[:0]
	pe.reqs = pe.reqs[:0]
	nsh := 1
	if pe.k.workers {
		nsh = pe.k.nshards
	}
	for home := 0; home < pe.k.n; home++ {
		for s := 0; s < nsh; s++ {
			lo := len(pe.hruns)
			for _, r := range pe.vruns {
				if r.home != home || (nsh > 1 && r.shard != s) {
					continue
				}
				pe.hruns = append(pe.hruns, r)
			}
			if hi := len(pe.hruns); hi > lo {
				pe.reqs = append(pe.reqs, homeReq{lo: lo, hi: hi, shard: pe.hruns[lo].shard})
			}
		}
	}
}

// transferReq builds the request carrying runs (all homed at one kernel)
// for a vector operation op — wire.OpReadV, OpWriteV or OpFlushV. A lone
// read or write run travels as the plain OpRead/OpWrite; flushes are always
// vectored. Write payloads come from buf at the runs' offsets.
func transferReq(op wire.Op, runs []vrun, buf []int64) *wire.Message {
	req := wire.GetMessage()
	if r := runs[0]; len(runs) == 1 && op != wire.OpFlushV {
		req.Addr = r.start
		if op == wire.OpReadV {
			req.Op, req.Arg1 = wire.OpRead, int64(r.count)
		} else {
			req.Op = wire.OpWrite
			req.PutWords(buf[r.off : r.off+r.count])
		}
		return req
	}
	req.Op = op
	for _, r := range runs {
		if op == wire.OpReadV {
			req.AppendRange(r.start, r.count)
		} else {
			req.AppendWriteRun(r.start, buf[r.off:r.off+r.count])
		}
	}
	return req
}

// transfer is the pipelined executor behind every block and vectored
// operation: it issues the runs plan queued as one request per (home,
// shard), all in flight at once — the DSE kernel's asynchronous-I/O design
// lets a DSE process overlap its per-home round trips — then collects one
// reply per request, matched by Seq, so out-of-order arrival is fine and
// stale mailbox residue is discarded. Reads (op == wire.OpReadV) scatter
// each reply's words into buf at the runs' offsets; writes (wire.OpWriteV)
// send their words from buf. A no-op when plan queued nothing.
func (pe *PE) transfer(op wire.Op, buf []int64) {
	if len(pe.vruns) == 0 {
		return
	}
	pe.groupRunsByHome()
	for i := range pe.reqs {
		g := &pe.reqs[i]
		req := transferReq(op, pe.hruns[g.lo:g.hi], buf)
		req.Shard = uint8(g.shard)
		g.seq = pe.sendAsync(pe.hruns[g.lo].home, req)
		wire.PutMessage(req)
	}
	start := pe.app.Now()
	var nacked []*homeReq
	for remaining := len(pe.reqs); remaining > 0; {
		resp := pe.takeTransfer(op)
		g := pe.outstanding(resp.Seq)
		switch {
		case g == nil:
			pe.extra.StaleReplies++
		case resp.Op == wire.OpMigrateNack:
			// One of the sub-request's blocks migrated away; the home NACKed
			// the whole message before touching anything (all-or-nothing),
			// so a replay cannot double-apply. Park the group until every
			// other sub-response has drained: the synchronous replay shares
			// the reply mailbox, and its stale-reply filter would destroy any
			// still-outstanding sibling response it raced.
			pe.extra.MigrateNacks++
			nacked = append(nacked, g)
		case op == wire.OpReadV:
			pe.words = resp.WordsInto(pe.words)
			woff := 0
			for _, r := range pe.hruns[g.lo:g.hi] {
				copy(buf[r.off:r.off+r.count], pe.words[woff:woff+r.count])
				woff += r.count
			}
		}
		if g != nil {
			g.done = true
			remaining--
		}
		wire.PutMessage(resp)
	}
	for _, g := range nacked {
		pe.replayRuns(op, g, buf)
	}
	// The per-home round trips overlap, so the transfer — not each request
	// — is the observable unit of the wait time, histograms and span.
	end := pe.app.Now()
	pe.extra.WaitTime += end - start
	pe.extra.RTTByOp[op].Observe(end - start)
	if pe.live != nil {
		pe.live.Observe(end - start)
	}
	if pe.spans != nil && pe.spans.Sampled() {
		pe.spans.Record(trace.Span{
			Kind: trace.SpanTransfer, Op: op, PE: int32(pe.k.id),
			Peer: int32(pe.k.id), Start: start, End: end,
		})
	}
}

// replayRuns re-issues every run of a NACKed sub-request through the
// synchronous request path, one request per run routed by the live
// directory; requestErr follows any further redirect and learns the new
// homes along the way. Rare — at most once per sub-request per overlapping
// migration — so the lost pipelining doesn't matter.
func (pe *PE) replayRuns(op wire.Op, g *homeReq, buf []int64) {
	for i := g.lo; i < g.hi; i++ {
		r := pe.hruns[i]
		req := transferReq(op, pe.hruns[i:i+1], buf)
		resp, err := pe.requestErr(pe.k.homeOf(r.start), req)
		wire.PutMessage(req)
		if err != nil {
			panic(err)
		}
		if op == wire.OpReadV {
			pe.words = resp.WordsInto(pe.words)
			copy(buf[r.off:r.off+r.count], pe.words[:r.count])
		}
		wire.PutMessage(resp)
	}
}

// sendAsync issues a request of the current transfer without waiting for
// its reply (which will arrive in the persistent reply mailbox, matched by
// the returned Seq).
func (pe *PE) sendAsync(dst int, m *wire.Message) uint64 {
	k := pe.k
	m.Src = int32(k.id)
	m.Dst = int32(dst)
	seq, dead := k.addPending(pe.replyMb, dst)
	if dead {
		pe.dropTransferPending()
		panic(&PeerDownError{PE: k.id, Peer: dst, Op: m.Op.String()})
	}
	m.Seq = seq
	pe.app.Send(dst, m)
	return seq
}

// takeTransfer blocks on the reply mailbox for the next transfer reply,
// panicking with a *TimeoutError, *ShutdownError or — on a peer-down
// notice for one of the transfer's outstanding requests — *PeerDownError.
func (pe *PE) takeTransfer(op wire.Op) *wire.Message {
	for {
		resp, err := pe.take(pe.replyMb, pe.k.requestTimeout(), op.String(), -1, 1)
		if err == nil && resp.Op == wire.OpPeerDown {
			peer, seq := int(resp.Src), resp.Seq
			wire.PutMessage(resp)
			if pe.outstanding(seq) == nil {
				pe.extra.StaleReplies++ // notice for an older, non-transfer request
				continue
			}
			err = &PeerDownError{PE: pe.k.id, Peer: peer, Op: op.String()}
		}
		if err != nil {
			pe.dropTransferPending()
			panic(err)
		}
		return resp
	}
}

// outstanding returns the not-yet-answered request of the current transfer
// with seq, or nil (stale residue — the caller discards it).
func (pe *PE) outstanding(seq uint64) *homeReq {
	for i := range pe.reqs {
		if pe.reqs[i].seq == seq && !pe.reqs[i].done {
			return &pe.reqs[i]
		}
	}
	return nil
}

// dropTransferPending forgets the still-outstanding requests of an aborted
// transfer so their late replies are dropped as stray instead of lingering
// in the reply mailbox.
func (pe *PE) dropTransferPending() {
	for i := range pe.reqs {
		if pe.reqs[i].seq != 0 && !pe.reqs[i].done {
			pe.k.dropPending(pe.reqs[i].seq)
		}
	}
}

// readVector reads the words of ws into out through the home-served
// protocol (strong, or release with the PE's own buffered writes overlaid
// afterwards — the block-read half of read-your-writes between sync edges).
// Every word is recorded as one read sharing the operation's interval; the
// history records the overlaid values, which are what the application saw.
func (pe *PE) readVector(ws wordSet, out []int64, mode uint8) {
	var t0 sim.Time
	if pe.hist != nil {
		t0 = pe.app.Now()
	}
	pe.plan(wire.OpReadV, ws, out)
	pe.transfer(wire.OpReadV, out)
	if mode == uint8(gmem.ModeRelease) && pe.wc.Len() > 0 {
		for i := range out {
			if v, ok := pe.wc.Lookup(ws.at(i)); ok {
				out[i] = v
			}
		}
	}
	pe.recordReads(ws, out, t0, mode, nil)
}

// recordReads logs one read event per word of a completed vector read; the
// words share the operation's invocation/response interval. le, when
// non-nil, marks the words lease-served: Arg1/Arg2 carry the grant and
// expiry instants the checker's lease rules bound staleness with.
func (pe *PE) recordReads(ws wordSet, out []int64, t0 sim.Time, mode uint8, le *leaseEntry) {
	if pe.hist == nil {
		return
	}
	ev := check.Event{Kind: check.KindRead, Mode: mode, Inv: t0, Resp: pe.app.Now()}
	if le != nil {
		ev.Cached, ev.Arg1, ev.Arg2 = true, int64(le.grant), int64(le.until)
	}
	for i, v := range out {
		ev.Addr, ev.Out = ws.at(i), v
		pe.hist.Add(ev)
	}
}

// writeVector stores src over the words of ws through the home-served
// strong protocol (mode tags the events): one in-flight write event per
// word, own-home runs applied locally, the rest pipelined, and every event
// completed once the last ack is in.
func (pe *PE) writeVector(ws wordSet, src []int64, mode uint8) {
	first := -1
	if pe.hist != nil {
		t0 := pe.app.Now()
		for i, v := range src {
			idx := pe.hist.Begin(check.Event{
				Kind: check.KindWrite, Addr: ws.at(i), Arg1: v, Mode: mode, Inv: t0,
			})
			if first < 0 {
				first = idx
			}
		}
	}
	pe.plan(wire.OpWriteV, ws, src)
	pe.transfer(wire.OpWriteV, src)
	if pe.hist != nil {
		// Begin hands out contiguous indices, so the events are
		// first..first+len(src)-1.
		resp := pe.app.Now()
		for i := range src {
			pe.hist.Complete(first+i, 0, true, resp)
		}
	}
}

// byMode calls fn for each maximal single-mode piece [off, off+count) of
// the n words at addr.
func (pe *PE) byMode(addr uint64, n int, fn func(mode uint8, off, count int)) {
	if m, uni := pe.modes.Uniform(addr, n); uni {
		fn(uint8(m), 0, n)
		return
	}
	pe.modes.ModeRuns(addr, n, func(m gmem.Mode, start uint64, count int) {
		fn(uint8(m), int(start-addr), count)
	})
}

// GMReadBlock reads n words starting at addr, splitting the range across
// homes as needed. All runs homed at one kernel travel in a single
// (vectored, if more than one run) request, and the per-home requests are
// pipelined. Block reads bypass the read cache (they are always served
// fresh by the homes); lease-mode pieces are served from block leases.
func (pe *PE) GMReadBlock(addr uint64, n int) []int64 {
	if err := pe.nsCheck("read-block", addr, n); err != nil {
		panic(err)
	}
	pe.legacyCrossing()
	out := make([]int64, n)
	pe.byMode(addr, n, func(mode uint8, off, count int) {
		a, dst := addr+uint64(off), out[off:off+count]
		if mode != uint8(gmem.ModeLease) {
			pe.readVector(wordRange(a, count), dst, mode)
		} else if err := pe.readLeaseRange(dst, a); err != nil {
			panic(err)
		}
	})
	return out
}

// GMWriteBlock stores words starting at addr, splitting across homes; all
// runs homed at one kernel travel in a single (vectored, if more than one
// run) request, and the per-home requests are pipelined. Release-mode
// pieces are buffered locally until the next sync edge publishes them.
func (pe *PE) GMWriteBlock(addr uint64, words []int64) {
	if err := pe.nsCheck("write-block", addr, len(words)); err != nil {
		panic(err)
	}
	pe.legacyCrossing()
	pe.byMode(addr, len(words), func(mode uint8, off, count int) {
		a, src := addr+uint64(off), words[off:off+count]
		switch mode {
		case uint8(gmem.ModeRelease):
			pe.bufferWrites(a, src)
			return
		case uint8(gmem.ModeLease):
			pe.dropLeases(a, count)
		}
		pe.writeVector(wordRange(a, count), src, mode)
	})
}

// vectorGuard is the PE-side prologue of a gather or scatter: the namespace
// check runs all-or-nothing up front, like the kernel-side scan, and the
// result reports whether every address is strong — the vectored paths
// aggregate strong accesses only.
func (pe *PE) vectorGuard(op string, addrs []uint64) (strong bool) {
	if pe.ns.Limit != 0 {
		for _, a := range addrs {
			if err := pe.nsCheck(op, a, 1); err != nil {
				panic(err)
			}
		}
	}
	if pe.modes.AllStrong() {
		return true
	}
	for _, a := range addrs {
		if pe.modes.Lookup(a) != gmem.ModeStrong {
			return false
		}
	}
	return true
}

// GMGather reads the words at the given (arbitrary, possibly scattered)
// addresses, returning them in input order. All addresses homed at one
// kernel travel in a single vectored request; gathers bypass the read
// cache. The fine-grained-access aggregation standard in user-level DSMs:
// one message per home instead of one per word.
func (pe *PE) GMGather(addrs []uint64) []int64 {
	out := make([]int64, len(addrs))
	if !pe.vectorGuard("gather", addrs) {
		// Rare mixed-mode gather: serve each address through its mode's
		// scalar path (WC overlay, leases) at the cost of aggregation.
		for i, a := range addrs {
			out[i] = pe.GMRead(a)
		}
		return out
	}
	pe.legacyCrossing()
	pe.readVector(wordList(addrs), out, 0)
	return out
}

// GMScatter stores vals[i] at addrs[i] for every i. All addresses homed at
// one kernel travel in a single vectored request. Under caching, touched
// blocks are invalidated like GMWrite does.
func (pe *PE) GMScatter(addrs []uint64, vals []int64) {
	if len(addrs) != len(vals) {
		panic("core: GMScatter length mismatch")
	}
	if !pe.vectorGuard("scatter", addrs) {
		// Mixed-mode scatter: each element through its mode's scalar path.
		for i, a := range addrs {
			pe.GMWrite(a, vals[i])
		}
		return
	}
	pe.legacyCrossing()
	pe.writeVector(wordList(addrs), vals, 0)
}

// --- Global memory: float64 convenience ---

// GMReadF reads a float64 stored at addr.
func (pe *PE) GMReadF(addr uint64) float64 { return gmem.W2F(pe.GMRead(addr)) }

// GMWriteF stores a float64 at addr.
func (pe *PE) GMWriteF(addr uint64, v float64) { pe.GMWrite(addr, gmem.F2W(v)) }

// GMReadBlockF reads n float64 values starting at addr.
func (pe *PE) GMReadBlockF(addr uint64, n int) []float64 {
	ws := pe.GMReadBlock(addr, n)
	fs := make([]float64, len(ws))
	for i, w := range ws {
		fs[i] = gmem.W2F(w)
	}
	return fs
}

// GMWriteBlockF stores float64 values starting at addr.
func (pe *PE) GMWriteBlockF(addr uint64, vs []float64) {
	ws := make([]int64, len(vs))
	for i, v := range vs {
		ws[i] = gmem.F2W(v)
	}
	pe.GMWriteBlock(addr, ws)
}

// --- Synchronisation ---

// flushWC publishes the write-combining buffer: one coalesced vectored
// OpFlushV per (home, shard), own-home words applied directly when uncached.
// fenceInv is the enclosing sync operation's invocation instant — the
// KindFlush event is recorded FIRST with that same Inv, so it sorts ahead of
// the sync event, and a flush that fails anywhere is left open (Failed ⇒
// unbounded effect window in the checker), shielding the buffered writes
// from wrongly convicting readers. Failures degrade softly instead of
// failing the sync operation itself: words homed at a dead peer are
// discarded for good (their blocks died with it), words that timed out
// re-enter the buffer and retry at the next sync edge.
func (pe *PE) flushWC(fenceInv sim.Time) {
	if pe.wc.Len() == 0 {
		return
	}
	k := pe.k
	if k.cfg.FaultSkipReleaseFlush {
		// TEST-ONLY fault (see Config): drop the buffered writes on the floor
		// and record nothing, so the enclosing sync edge claims a publication
		// that never happened — the checker's release rules must catch it.
		pe.wc.Discard()
		return
	}
	start := pe.app.Now()
	hidx := -1
	if pe.hist != nil {
		hidx = pe.hist.Begin(check.Event{
			Kind: check.KindFlush, Arg1: int64(pe.wc.Len()), Inv: fenceInv,
		})
	}
	pe.fl, pe.flv = pe.fl[:0], pe.flv[:0]
	pe.wc.Drain(func(addr uint64, v int64) {
		pe.fl = append(pe.fl, addr)
		pe.flv = append(pe.flv, v)
	})
	pe.extra.WCFlushes++
	// The drain is ascending, so runs of consecutive words coalesce within
	// each block; the issue loop below stays synchronous, per (home, shard).
	pe.plan(wire.OpFlushV, wordSet{addrs: pe.fl, n: len(pe.fl), coalesce: true}, pe.flv)
	pe.groupRunsByHome()
	ok := true
	for gi := range pe.reqs {
		g := &pe.reqs[gi]
		req := transferReq(wire.OpFlushV, pe.hruns[g.lo:g.hi], pe.flv)
		req.Shard = uint8(g.shard)
		resp, err := pe.requestErr(pe.hruns[g.lo].home, req)
		wire.PutMessage(req)
		if err == nil {
			wire.PutMessage(resp)
			continue
		}
		ok = false
		if _, down := err.(*PeerDownError); !down {
			// The home may still be alive: keep its words buffered and
			// retry this part of the flush at the next sync edge.
			for _, r := range pe.hruns[g.lo:g.hi] {
				for w := 0; w < r.count; w++ {
					pe.wc.Put(r.start+uint64(w), pe.flv[r.off+w])
				}
			}
		}
	}
	if pe.hist != nil && ok {
		pe.hist.Complete(hidx, 0, true, pe.app.Now())
	}
	pe.extra.FlushStall.Observe(pe.app.Now() - start)
}

// syncFence is the release/acquire edge of an operation with no sync event
// of its own (membership transitions, escrow points): publish the WC buffer
// — the KindFlush event doubles as the fence the checker orders by — and
// drop the lease cache.
func (pe *PE) syncFence() {
	pe.flushWC(pe.app.Now())
	pe.clearLeases()
}

// Barrier blocks until every PE has reached it (barrier id 0).
func (pe *PE) Barrier() { pe.BarrierID(0) }

// BarrierID blocks on the barrier with the given id; distinct ids are
// independent barriers.
func (pe *PE) BarrierID(id int32) {
	pe.legacyCrossing()
	k := pe.k
	pe.extra.Barriers++
	dst := 0
	if k.cfg.Barrier == BarrierTree {
		dst = k.id // tree arrivals start at the local kernel
	}
	start := pe.app.Now()
	// Release edge: publish buffered release-mode writes before arriving, so
	// every PE released by this barrier observes them.
	pe.flushWC(start)
	arrive := wire.GetMessage()
	arrive.Op, arrive.Src, arrive.Dst, arrive.Tag = wire.OpBarrierArrive, int32(k.id), int32(dst), id
	pe.app.Send(dst, arrive)
	wire.PutMessage(arrive)
	pe.awaitGrant(wire.OpBarrierRelease, id)
	end := pe.app.Now()
	pe.extra.WaitTime += end - start
	pe.extra.BarrierWait.Observe(end - start)
	if pe.spans != nil {
		pe.spans.Record(trace.Span{
			Kind: trace.SpanBarrier, PE: int32(k.id), Seq: uint64(uint32(id)),
			Start: start, End: end,
		})
	}
	if pe.hist != nil {
		pe.hist.Add(check.Event{
			Kind: check.KindBarrier, Addr: uint64(uint32(id)), Inv: start, Resp: end,
		})
	}
	// Acquire edge: pre-barrier lease snapshots must not outlive the crossing.
	pe.clearLeases()
}

// Lock acquires the cluster-wide lock id (FIFO, managed by kernel 0).
func (pe *PE) Lock(id int32) {
	pe.legacyCrossing()
	pe.extra.Locks++
	start := pe.app.Now()
	pe.sendSync(wire.OpLockAcquire, id)
	pe.awaitGrant(wire.OpLockGrant, id)
	end := pe.app.Now()
	pe.extra.WaitTime += end - start
	pe.extra.LockWait.Observe(end - start)
	if pe.spans != nil {
		pe.spans.Record(trace.Span{
			Kind: trace.SpanLock, PE: int32(pe.k.id), Seq: uint64(uint32(id)),
			Start: start, End: end,
		})
	}
	if pe.hist != nil {
		pe.hist.Add(check.Event{
			Kind: check.KindLock, Addr: uint64(uint32(id)), Inv: start, Resp: end,
		})
	}
	// Acquire edge: drop lease snapshots taken before the grant.
	pe.clearLeases()
}

// Unlock releases lock id. This is release consistency's namesake release
// edge: buffered release-mode writes are published while the lock is still
// held, so the next holder observes them.
func (pe *PE) Unlock(id int32) {
	pe.legacyCrossing()
	t0 := pe.app.Now()
	pe.flushWC(t0)
	if pe.hist != nil {
		pe.hist.Add(check.Event{
			Kind: check.KindUnlock, Addr: uint64(uint32(id)), Inv: t0, Resp: pe.app.Now(),
		})
	}
	pe.sendSync(wire.OpLockRelease, id)
}

// SemWait downs semaphore id, blocking while its value is zero.
func (pe *PE) SemWait(id int32) {
	pe.legacyCrossing()
	start := pe.app.Now()
	pe.sendSync(wire.OpSemWait, id)
	pe.awaitGrant(wire.OpSemGrant, id)
	pe.extra.WaitTime += pe.app.Now() - start
	// Acquire edge, like a lock grant.
	pe.clearLeases()
}

// SemPost ups semaphore id. A release edge: the flush's own KindFlush event
// is the fence the checker orders the published writes by.
func (pe *PE) SemPost(id int32) {
	pe.legacyCrossing()
	pe.flushWC(pe.app.Now())
	pe.sendSync(wire.OpSemPost, id)
}

// sendSync sends a synchronisation request to the central manager at
// kernel 0 using a pooled message.
func (pe *PE) sendSync(op wire.Op, id int32) {
	m := wire.GetMessage()
	m.Op, m.Src, m.Tag = op, int32(pe.k.id), id
	pe.app.Send(0, m)
	wire.PutMessage(m)
}

// awaitGrant blocks on the synchronisation mailbox for the kernel's answer
// to a synchronisation request — op (a release or grant) for object id —
// panicking with a typed error when the wait cannot complete.
func (pe *PE) awaitGrant(op wire.Op, id int32) {
	d := pe.k.requestTimeout()
	if pe.k.cfg.Ckpt != nil {
		// Under checkpoint/restart the kernels wake blocked sync waits with
		// OpPeerDown (below), so liveness does not need the lost-message
		// timeout — which would misfire on legitimately long checkpoint
		// barrier waits. Recovery runs forbid frame loss for exactly this
		// reason (DESIGN.md §10): a lost fire-and-forget arrival is the one
		// wedge the wake cannot break.
		d = 0
	}
	m, err := pe.take(pe.k.syncMb, d, "sync-wait", -1, 1)
	if err != nil {
		panic(err)
	}
	if m.Op == wire.OpPeerDown {
		// A peer died while we were blocked (kernels feed this only under
		// Config.Ckpt). The wait can never be satisfied — under recovery any
		// peer death rolls the whole cluster back, so fail fast with a typed
		// error the recovery coordinator can classify through the panic.
		peer := int(m.Src)
		wire.PutMessage(m)
		panic(&PeerDownError{PE: pe.k.id, Peer: peer, Op: "sync-wait"})
	}
	if m.Op != op || m.Tag != id {
		panic(fmt.Sprintf("core: PE %d: expected %v for %d, got %v", pe.k.id, op, id, m))
	}
	wire.PutMessage(m)
}

// --- Coordinated checkpoint/restart ---

// ckptBarrierBase is the reserved barrier-tag region the checkpoint protocol
// rendezvouses at. The three phase tags alternate between two disjoint sets
// by epoch parity, so a straggler's late arrival at the previous epoch's
// barrier can never be miscounted into the next epoch's round at the central
// manager. Application code must not use these ids.
const ckptBarrierBase int32 = -0x7ffe0000

// RegisterCheckpoint installs the application's state hooks: save serialises
// the PE's progress into the snapshot (called inside every Checkpoint, at
// the quiesce barrier), restore rebuilds it from a snapshot blob. When this
// run was itself started from a snapshot, restore is invoked immediately
// with the restored blob and RegisterCheckpoint reports true — the program
// resumes from its checkpointed progress instead of from scratch.
func (pe *PE) RegisterCheckpoint(save func() []byte, restore func([]byte)) (restored bool) {
	pe.saveFn = save
	if pe.restored && restore != nil {
		restore(pe.restoredApp)
	}
	return pe.restored
}

// ViewGeneration reports how many recoveries this cluster has gone through:
// 0 for a fresh run, N after the N-th restart from a snapshot.
func (pe *PE) ViewGeneration() uint64 { return pe.viewGen }

// CheckpointEpoch reports the last completed checkpoint epoch (0 = none).
func (pe *PE) CheckpointEpoch() uint64 { return pe.ckptEpoch }

// Checkpoint takes one coordinated cluster snapshot: a collective every PE
// must call (like Barrier). The protocol is a Chandy-Lamport marker round
// degenerated to its quiesced special case — a barrier quiesces all
// application traffic, so there are no in-flight application sends to
// record, and each kernel's marker response carries its entire slice of
// global memory plus the coherence directory:
//
//	barrier(quiesce) -> save app blob + OpCkptMark to own kernel ->
//	Store.WriteSlice -> barrier(durable) -> PE 0 commits the generation and
//	GCs old ones -> barrier(commit-visible)
//
// A nil Config.Ckpt makes Checkpoint a no-op, so programs need no gating.
// Store errors are returned on the PE that observed them; every PE still
// passes all three barriers (no wedge), and a generation with a failed
// slice is never committed. Cluster failures (peer death, shutdown) panic
// like the rest of the Parallel API.
func (pe *PE) Checkpoint() error {
	k := pe.k
	cc := k.cfg.Ckpt
	if cc == nil {
		return nil
	}
	start := pe.app.Now()
	epoch := pe.ckptEpoch + 1
	tag := func(phase int32) int32 { return ckptBarrierBase - int32(3*(epoch%2)) - phase }

	pe.BarrierID(tag(0)) // quiesce: no application request is in flight past here
	var blob []byte
	if pe.saveFn != nil {
		blob = pe.saveFn()
	}
	req := wire.GetMessage()
	req.Op, req.Tag = wire.OpCkptMark, int32(epoch)
	resp, err := pe.requestErr(k.id, req)
	wire.PutMessage(req)
	var data []byte
	if err == nil {
		data = ckpt.EncodeSlice(ckpt.Slice{
			Epoch:    epoch,
			MarkTime: sim.Time(resp.Arg1),
			App:      blob,
			Kernel:   resp.Data,
		})
		wire.PutMessage(resp)
		err = cc.Store.WriteSlice(epoch, k.id, data)
	}

	pe.BarrierID(tag(1)) // durable: every slice of the generation is staged
	if k.id == 0 && err == nil {
		// Commit refuses a generation with any missing slice, so a peer's
		// write failure cannot half-commit; its error surfaces on that PE.
		if cerr := cc.Store.Commit(epoch, k.n); cerr != nil {
			err = cerr
		} else if gerr := cc.Store.GC(cc.Keep); gerr != nil {
			err = gerr
		}
	}
	pe.BarrierID(tag(2)) // commit-visible: recovery may now target this epoch

	// Epochs advance on every PE regardless of local errors, keeping the
	// collective's tags aligned for the next round.
	pe.ckptEpoch = epoch
	if err != nil {
		return err
	}
	pe.extra.Checkpoints++
	pe.extra.SnapshotBytes += uint64(len(data))
	if pe.spans != nil {
		pe.spans.Record(trace.Span{
			Kind: trace.SpanCkpt, PE: int32(k.id), Seq: epoch,
			Start: start, End: pe.app.Now(),
		})
	}
	return nil
}

// --- Collectives (built on the message exchange mechanism) ---

// Internal user-message tags; application tags must be non-negative.
const (
	tagReduceUp   int32 = -2
	tagReduceDown int32 = -3
)

// AllReduceF combines one float64 contribution from every PE with op
// (which must be commutative and associative) and returns the combined
// value on all of them: a gather to PE 0 and a broadcast back, 2(N-1)
// messages. It also acts as a synchronisation point: every PE's preceding
// global-memory writes are completed (acknowledged) before any PE receives
// the result — under release consistency that contract is kept by flushing
// the write-combining buffer before the contribution is sent, and lease-mode
// read caches are dropped so post-reduce reads observe post-reduce state.
func (pe *PE) AllReduceF(x float64, op func(a, b float64) float64) float64 {
	pe.syncFence()
	n := pe.N()
	if n == 1 {
		return x
	}
	if pe.ID() != 0 {
		pe.SendMsg(0, tagReduceUp, f64Bytes(x))
		_, data := pe.RecvMsg(tagReduceDown)
		return f64FromBytes(data)
	}
	acc := x
	for i := 1; i < n; i++ {
		_, data := pe.RecvMsg(tagReduceUp)
		acc = op(acc, f64FromBytes(data))
	}
	out := f64Bytes(acc)
	for i := 1; i < n; i++ {
		pe.SendMsg(i, tagReduceDown, out)
	}
	return acc
}

func f64Bytes(x float64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
	return b[:]
}

func f64FromBytes(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// AllReduceSum sums one float64 contribution per PE.
func (pe *PE) AllReduceSum(x float64) float64 {
	return pe.AllReduceF(x, func(a, b float64) float64 { return a + b })
}

// AllReduceMax takes the maximum over one float64 contribution per PE.
func (pe *PE) AllReduceMax(x float64) float64 {
	return pe.AllReduceF(x, func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	})
}

// --- PE-to-PE messages ---

// SendMsg delivers payload to PE dst under tag. It does not wait for the
// receiver. Application tags must be non-negative; negative tags are
// reserved for the runtime's own collectives.
func (pe *PE) SendMsg(dst int, tag int32, payload []byte) {
	pe.legacyCrossing()
	m := wire.GetMessage()
	m.Op, m.Src, m.Dst, m.Tag = wire.OpUserMsg, int32(pe.k.id), int32(dst), tag
	m.Data = payload // caller's buffer; fully serialised before Send returns
	pe.app.Send(dst, m)
	wire.PutMessage(m)
}

// RecvMsg blocks until a message with tag arrives, returning its sender
// and payload.
func (pe *PE) RecvMsg(tag int32) (src int, payload []byte) {
	pe.legacyCrossing()
	mb := pe.k.userMb(tag)
	start := pe.app.Now()
	m, err := pe.take(mb, pe.k.requestTimeout(), "recv-msg", -1, 1)
	if err != nil {
		panic(err)
	}
	pe.extra.WaitTime += pe.app.Now() - start
	return int(m.Src), m.Data
}

// --- Process management / SSI ---

// register announces this DSE process to the global process table.
func (pe *PE) register() {
	req := wire.GetMessage()
	req.Op, req.Data = wire.OpProcRegister, []byte(pe.Hostname())
	resp := pe.request(0, req)
	wire.PutMessage(req)
	pe.gpid = resp.Arg1
	wire.PutMessage(resp)
}

// exit records this DSE process's termination.
func (pe *PE) exit(code int64) {
	req := wire.GetMessage()
	req.Op, req.Arg1, req.Arg2 = wire.OpProcExit, pe.gpid, code
	resp := pe.request(0, req)
	wire.PutMessage(req)
	wire.PutMessage(resp)
}

// Processes returns the cluster-global process table: the single-system
// image of everything running on the virtual machine.
func (pe *PE) Processes() []procmgmt.Entry {
	req := wire.GetMessage()
	req.Op = wire.OpProcList
	resp := pe.request(0, req)
	wire.PutMessage(req)
	entries, err := procmgmt.DecodeSnapshot(resp.Data)
	wire.PutMessage(resp)
	if err != nil {
		panic(fmt.Errorf("core: PE %d: corrupt process table: %w", pe.k.id, err))
	}
	return entries
}

// Ping round-trips a liveness probe to kernel dst and reports the latency.
// Panics on failure.
func (pe *PE) Ping(dst int) sim.Duration {
	d, err := pe.PingErr(dst)
	if err != nil {
		panic(err)
	}
	return d
}

// PingErr is Ping with failures surfaced as errors: a dead peer reports
// *PeerDownError (fast, via the transport's failure detector) or
// *TimeoutError, an unreachable but undetected one only the latter.
func (pe *PE) PingErr(dst int) (sim.Duration, error) {
	start := pe.app.Now()
	req := wire.GetMessage()
	req.Op = wire.OpPing
	resp, err := pe.requestErr(dst, req)
	wire.PutMessage(req)
	if err != nil {
		return 0, err
	}
	wire.PutMessage(resp)
	return pe.app.Now() - start, nil
}

// CacheStats reports cache hits, misses and invalidations (zeros when the
// caching protocol is disabled).
func (pe *PE) CacheStats() (hits, misses, invalidations uint64) {
	if pe.k.cache == nil {
		return 0, 0, 0
	}
	return pe.k.cache.Stats()
}
