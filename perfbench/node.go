package main

import (
	"sync"

	"repro/internal/transport"
	"repro/internal/wire"
)

// netRecorder collects the transport layer's spans for one cluster: the
// duration of every Send on each port, and kernel service time from a
// request's Recv to the matching reply's Send. Shard workers send replies
// concurrently with the serve loop, so it is mutex-guarded.
type netRecorder struct {
	mu       sync.Mutex
	appSend  []float64
	svcSend  []float64
	service  []float64
	bytes    float64
	inflight map[reqKey]int64
}

// reqKey matches a reply to its request: the requester and the sequence
// number replies echo.
type reqKey struct {
	peer int32
	seq  uint64
}

func newNetRecorder() *netRecorder {
	return &netRecorder{inflight: make(map[reqKey]int64)}
}

// tracedNode wraps a transport.Node so each port's Send and the node's Recv
// are timed. Messages are pooled and recycled once a call returns, so every
// field the recorder needs is read inside the call.
type tracedNode struct {
	transport.Node
	rec      *netRecorder
	app, svc tracedPort
}

func newTracedNode(n transport.Node, rec *netRecorder) *tracedNode {
	t := &tracedNode{Node: n, rec: rec}
	t.app = tracedPort{Port: n.App(), node: t, svc: false}
	t.svc = tracedPort{Port: n.Svc(), node: t, svc: true}
	return t
}

func (t *tracedNode) App() transport.Port { return &t.app }
func (t *tracedNode) Svc() transport.Port { return &t.svc }

func (t *tracedNode) Recv() (*wire.Message, bool) {
	m, ok := t.Node.Recv()
	if ok && isGMRequest(m.Op) {
		at := wallNS()
		t.rec.mu.Lock()
		t.rec.inflight[reqKey{m.Src, m.Seq}] = at
		t.rec.mu.Unlock()
	}
	return m, ok
}

type tracedPort struct {
	transport.Port
	node *tracedNode
	svc  bool
}

func (p *tracedPort) Send(dst int, m *wire.Message) {
	resp := m.Op.IsResponse()
	key := reqKey{int32(dst), m.Seq}
	size := float64(wire.HeaderSize + len(m.Data))
	t0 := wallNS()
	p.Port.Send(dst, m)
	t1 := wallNS()
	r := p.node.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bytes += size
	if !p.svc {
		r.appSend = append(r.appSend, float64(t1-t0))
		return
	}
	r.svcSend = append(r.svcSend, float64(t1-t0))
	if resp {
		if at, ok := r.inflight[key]; ok {
			r.service = append(r.service, float64(t0-at))
			delete(r.inflight, key)
		}
	}
}

// isGMRequest reports whether op is a global-memory request a home kernel
// answers with a reply carrying the request's sequence number.
func isGMRequest(op wire.Op) bool {
	switch op {
	case wire.OpRead, wire.OpWrite, wire.OpFetchAdd, wire.OpCAS,
		wire.OpReadV, wire.OpWriteV, wire.OpFlushV, wire.OpReadLease:
		return true
	}
	return false
}
