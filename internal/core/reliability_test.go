package core

import (
	"errors"
	"testing"

	"repro/internal/sim"
	"repro/internal/wire"
)

// remoteAddr finds a global address homed at kernel `home`.
func remoteAddr(t *testing.T, pe *PE, home int) uint64 {
	t.Helper()
	var addr uint64
	for pe.Space().HomeOf(addr) != home {
		addr++
	}
	return addr
}

// TestStaleReplyDiscarded is the regression test for the stale-reply race:
// residue in the persistent reply mailbox (a reply whose request was given
// up on long ago) must be discarded by sequence validation, not handed to
// the next request as its answer.
func TestStaleReplyDiscarded(t *testing.T) {
	net, ks := testKernels(t, 2, nil)
	pe := newPE(ks[0])
	addr := remoteAddr(t, pe, 1)
	ks[1].seg.Write(addr, []int64{77})
	for i := range ks {
		go ks[i].serve()
	}
	// Plant stale residue: a read response with a sequence number that
	// belongs to no outstanding request, carrying a wrong value.
	stale := wire.GetMessage()
	stale.Op, stale.Src, stale.Seq = wire.OpReadResp, 1, 999
	stale.PutWord(-1)
	pe.replyMb.Put(stale)

	v, err := pe.GMReadErr(addr)
	if err != nil {
		t.Fatalf("GMReadErr: %v", err)
	}
	if v != 77 {
		t.Fatalf("read %d, want 77 (stale reply consumed as answer)", v)
	}
	if pe.extra.StaleReplies != 1 {
		t.Fatalf("StaleReplies = %d, want 1", pe.extra.StaleReplies)
	}
	_ = net
}

// TestDelayedReplyDoesNotCorruptNextRequest delays a kernel's reply past the
// request timeout: the first request fails, its late reply must be dropped,
// and the next request must receive its own (correct) answer.
func TestDelayedReplyDoesNotCorruptNextRequest(t *testing.T) {
	_, ks := testKernels(t, 2, func(cfg *Config) {
		cfg.RequestTimeout = 100 * sim.Millisecond
	})
	pe := newPE(ks[0])
	addr := remoteAddr(t, pe, 1)
	ks[1].seg.Write(addr, []int64{77})
	go ks[0].serve()
	// Kernel 1 is not serving yet: the first read times out with its request
	// parked in kernel 1's receive queue.
	if _, err := pe.GMReadErr(addr); err == nil {
		t.Fatal("read answered by a non-serving kernel")
	} else if _, ok := err.(*TimeoutError); !ok {
		t.Fatalf("unexpected error type: %v", err)
	}
	// Kernel 1 comes up and serves the stale request; its late reply must
	// not be mistaken for the answer to the retry below.
	go ks[1].serve()
	v, err := pe.GMReadErr(addr)
	if err != nil {
		t.Fatalf("second read: %v", err)
	}
	if v != 77 {
		t.Fatalf("second read = %d, want 77", v)
	}
}

// TestRetryFetchAddExactlyOnce drives retried FetchAdds through a lossy
// simulated medium: every addition must be applied exactly once (the home's
// dedup window absorbs retransmissions), so the observed old values are the
// gapless sequence 0..n-1.
func TestRetryFetchAddExactlyOnce(t *testing.T) {
	const n = 20
	cfg := simCfg(2)
	cfg.LossProbability = 0.15
	cfg.RequestTimeout = 200 * sim.Millisecond
	cfg.RequestRetries = 25
	res, err := Run(cfg, func(pe *PE) error {
		base := pe.Alloc(8)
		if pe.ID() != 1 {
			return nil
		}
		for i := int64(0); i < n; i++ {
			old, err := pe.FetchAddErr(base, 1)
			if err != nil {
				return err
			}
			if old != i {
				t.Errorf("FetchAdd %d returned old value %d (lost or double-applied)", i, old)
			}
		}
		v, err := pe.GMReadErr(base)
		if err != nil {
			return err
		}
		if v != n {
			t.Errorf("final counter = %d, want %d", v, n)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := res.FirstErr(); err != nil {
		t.Fatal(err)
	}
	// 15% loss over dozens of frames (seeded, deterministic): the retry
	// path must actually have been exercised.
	if res.Total.Retries == 0 {
		t.Fatal("no retries under 15% loss — retry path untested")
	}
	t.Logf("retries=%d dupRequests=%d staleReplies=%d elapsed=%v",
		res.Total.Retries, res.Total.DupRequests, res.Total.StaleReplies, res.Elapsed)
}

// TestSimnetLossBudgetDetectsPeer checks the simulated transport's failure
// detector: under total loss with a loss budget configured, a dead peer is
// declared down after the budgeted consecutive undelivered frames, failing
// the request well before all retry attempts are waited out.
func TestSimnetLossBudgetDetectsPeer(t *testing.T) {
	cfg := simCfg(2)
	cfg.LossProbability = 1.0
	cfg.RequestTimeout = 100 * sim.Millisecond
	cfg.RequestRetries = 5
	cfg.PeerLossBudget = 3
	res, err := Run(cfg, func(pe *PE) error {
		return nil // registration alone needs the wire for PE 1
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	ferr := res.Errs[1]
	if ferr == nil {
		t.Fatal("PE 1 succeeded under total loss")
	}
	var pd *PeerDownError
	if !errors.As(ferr, &pd) || pd.Peer != 0 {
		t.Fatalf("expected a typed peer-down failure naming peer 0, got: %v", ferr)
	}
	// Detection fires on the budget's third send: well under the 6 full
	// timeout+backoff rounds (~1s virtual) retrying to exhaustion costs.
	if res.Elapsed >= 500*sim.Millisecond {
		t.Fatalf("detection took %v — slower than the loss budget should allow", res.Elapsed)
	}
	t.Logf("peer declared down after %v (budget 3 frames, timeout %v, %d retries allowed)",
		res.Elapsed, cfg.RequestTimeout, cfg.RequestRetries)
}

// TestTransferTimeoutTyped checks that a pipelined block transfer whose
// replies never come panics with the typed *TimeoutError, which the run's
// error keeps visible to errors.As. PE 0 registers with its own kernel, so
// only the block read to kernel 1 meets the lossy medium.
func TestTransferTimeoutTyped(t *testing.T) {
	cfg := simCfg(2)
	cfg.LossProbability = 1.0
	cfg.RequestTimeout = 10 * sim.Millisecond
	res, err := Run(cfg, func(pe *PE) error {
		if pe.ID() == 0 {
			pe.GMReadBlock(remoteAddr(t, pe, 1), 4)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var te *TimeoutError
	if !errors.As(res.Errs[0], &te) {
		t.Fatalf("expected a typed transfer timeout, got: %v", res.Errs[0])
	}
	if te.Op != wire.OpReadV.String() {
		t.Errorf("timeout names op %q, want the transfer's %q", te.Op, wire.OpReadV.String())
	}
}
