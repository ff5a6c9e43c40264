package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/gmem"
	"repro/internal/sim"
)

// Call groups a tracedPE files each core call under; the first len(coreKinds)
// match coreKinds, kindOther collects allocation, locks, semaphores and user
// messages.
const (
	kindGMRead = iota
	kindGMWrite
	kindGMBlockRead
	kindGMBlockWrite
	kindFetchAdd
	kindBarrier
	kindAllReduce
	kindOther
	numKinds
)

// epoch anchors the wall clock every span is measured on.
var epoch = time.Now()

func wallNS() int64 { return int64(time.Since(epoch)) }

// recorder keeps one PE's span durations per call group, in nanoseconds of
// the cluster clock. Only the PE's own goroutine (or simulated process)
// writes it, and it is read after the run returns.
type recorder struct {
	clock   func() int64
	samples [numKinds][]float64
}

func (r *recorder) done(kind int, t0 int64) {
	r.samples[kind] = append(r.samples[kind], float64(r.clock()-t0))
}

// coreNS is the total time this PE spent inside core calls.
func (r *recorder) coreNS() float64 {
	total := 0.0
	for _, s := range r.samples {
		for _, v := range s {
			total += v
		}
	}
	return total
}

// tracedPE is the benchmark's outside-in span source: it wraps a PE and
// times every call the apps and the op mix make into core. Accessors that
// only read PE fields (ID, N, Hostname, GPID, Now, Space) and Compute, which
// charges simulated CPU time rather than calling into the runtime, pass
// through untimed.
type tracedPE struct {
	pe  *core.PE
	rec *recorder
}

var (
	_ core.Proc = (*tracedPE)(nil)
	_ benchProc = (*tracedPE)(nil)
)

func newTracedPE(pe *core.PE, virtual bool) *tracedPE {
	return &tracedPE{pe: pe, rec: &recorder{clock: clockOf(pe, virtual)}}
}

// clockOf is the cluster clock a PE's spans are measured on, in
// nanoseconds: virtual time under simulation, wall time otherwise.
func clockOf(p core.Proc, virtual bool) func() int64 {
	if virtual {
		return func() int64 { return int64(p.Now()) }
	}
	return wallNS
}

func (t *tracedPE) start() int64 { return t.rec.clock() }

func (t *tracedPE) ID() int             { return t.pe.ID() }
func (t *tracedPE) N() int              { return t.pe.N() }
func (t *tracedPE) Hostname() string    { return t.pe.Hostname() }
func (t *tracedPE) GPID() int64         { return t.pe.GPID() }
func (t *tracedPE) Now() sim.Time       { return t.pe.Now() }
func (t *tracedPE) Compute(ops float64) { t.pe.Compute(ops) }
func (t *tracedPE) Space() gmem.Space   { return t.pe.Space() }

func (t *tracedPE) Alloc(n int) uint64 {
	t0 := t.start()
	defer t.rec.done(kindOther, t0)
	return t.pe.Alloc(n)
}

func (t *tracedPE) AllocBlocks(n int) uint64 {
	t0 := t.start()
	defer t.rec.done(kindOther, t0)
	return t.pe.AllocBlocks(n)
}

func (t *tracedPE) AllocMode(n int, m gmem.Mode) uint64 {
	t0 := t.start()
	defer t.rec.done(kindOther, t0)
	return t.pe.AllocMode(n, m)
}

func (t *tracedPE) AllocBlocksMode(n int, m gmem.Mode) uint64 {
	t0 := t.start()
	defer t.rec.done(kindOther, t0)
	return t.pe.AllocBlocksMode(n, m)
}

func (t *tracedPE) GMRead(addr uint64) int64 {
	t0 := t.start()
	defer t.rec.done(kindGMRead, t0)
	return t.pe.GMRead(addr)
}

func (t *tracedPE) GMReadErr(addr uint64) (int64, error) {
	t0 := t.start()
	defer t.rec.done(kindGMRead, t0)
	return t.pe.GMReadErr(addr)
}

func (t *tracedPE) GMWrite(addr uint64, v int64) {
	t0 := t.start()
	defer t.rec.done(kindGMWrite, t0)
	t.pe.GMWrite(addr, v)
}

func (t *tracedPE) GMWriteErr(addr uint64, v int64) error {
	t0 := t.start()
	defer t.rec.done(kindGMWrite, t0)
	return t.pe.GMWriteErr(addr, v)
}

func (t *tracedPE) GMReadF(addr uint64) float64 {
	t0 := t.start()
	defer t.rec.done(kindGMRead, t0)
	return t.pe.GMReadF(addr)
}

func (t *tracedPE) GMWriteF(addr uint64, v float64) {
	t0 := t.start()
	defer t.rec.done(kindGMWrite, t0)
	t.pe.GMWriteF(addr, v)
}

func (t *tracedPE) GMReadBlock(addr uint64, n int) []int64 {
	t0 := t.start()
	defer t.rec.done(kindGMBlockRead, t0)
	return t.pe.GMReadBlock(addr, n)
}

func (t *tracedPE) GMWriteBlock(addr uint64, words []int64) {
	t0 := t.start()
	defer t.rec.done(kindGMBlockWrite, t0)
	t.pe.GMWriteBlock(addr, words)
}

func (t *tracedPE) GMReadBlockF(addr uint64, n int) []float64 {
	t0 := t.start()
	defer t.rec.done(kindGMBlockRead, t0)
	return t.pe.GMReadBlockF(addr, n)
}

func (t *tracedPE) GMWriteBlockF(addr uint64, vs []float64) {
	t0 := t.start()
	defer t.rec.done(kindGMBlockWrite, t0)
	t.pe.GMWriteBlockF(addr, vs)
}

func (t *tracedPE) GMGather(addrs []uint64) []int64 {
	t0 := t.start()
	defer t.rec.done(kindGMBlockRead, t0)
	return t.pe.GMGather(addrs)
}

func (t *tracedPE) GMScatter(addrs []uint64, vals []int64) {
	t0 := t.start()
	defer t.rec.done(kindGMBlockWrite, t0)
	t.pe.GMScatter(addrs, vals)
}

func (t *tracedPE) FetchAdd(addr uint64, delta int64) int64 {
	t0 := t.start()
	defer t.rec.done(kindFetchAdd, t0)
	return t.pe.FetchAdd(addr, delta)
}

func (t *tracedPE) FetchAddErr(addr uint64, delta int64) (int64, error) {
	t0 := t.start()
	defer t.rec.done(kindFetchAdd, t0)
	return t.pe.FetchAddErr(addr, delta)
}

func (t *tracedPE) CAS(addr uint64, old, new int64) (int64, bool) {
	t0 := t.start()
	defer t.rec.done(kindFetchAdd, t0)
	return t.pe.CAS(addr, old, new)
}

func (t *tracedPE) Barrier() {
	t0 := t.start()
	defer t.rec.done(kindBarrier, t0)
	t.pe.Barrier()
}

func (t *tracedPE) BarrierID(id int32) {
	t0 := t.start()
	defer t.rec.done(kindBarrier, t0)
	t.pe.BarrierID(id)
}

func (t *tracedPE) Lock(id int32) {
	t0 := t.start()
	defer t.rec.done(kindOther, t0)
	t.pe.Lock(id)
}

func (t *tracedPE) Unlock(id int32) {
	t0 := t.start()
	defer t.rec.done(kindOther, t0)
	t.pe.Unlock(id)
}

func (t *tracedPE) SemWait(id int32) {
	t0 := t.start()
	defer t.rec.done(kindOther, t0)
	t.pe.SemWait(id)
}

func (t *tracedPE) SemPost(id int32) {
	t0 := t.start()
	defer t.rec.done(kindOther, t0)
	t.pe.SemPost(id)
}

func (t *tracedPE) AllReduceF(x float64, op func(a, b float64) float64) float64 {
	t0 := t.start()
	defer t.rec.done(kindAllReduce, t0)
	return t.pe.AllReduceF(x, op)
}

func (t *tracedPE) AllReduceSum(x float64) float64 {
	t0 := t.start()
	defer t.rec.done(kindAllReduce, t0)
	return t.pe.AllReduceSum(x)
}

func (t *tracedPE) AllReduceMax(x float64) float64 {
	t0 := t.start()
	defer t.rec.done(kindAllReduce, t0)
	return t.pe.AllReduceMax(x)
}

func (t *tracedPE) SendMsg(dst int, tag int32, payload []byte) {
	t0 := t.start()
	defer t.rec.done(kindOther, t0)
	t.pe.SendMsg(dst, tag, payload)
}

func (t *tracedPE) RecvMsg(tag int32) (int, []byte) {
	t0 := t.start()
	defer t.rec.done(kindOther, t0)
	return t.pe.RecvMsg(tag)
}
