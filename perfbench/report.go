package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"

	"repro/internal/trace"
	"repro/internal/wire"
)

// report is what one benchmark run measured.
type report struct {
	// reps holds, per end-to-end metric, its untraced samples — one per
	// solve, pass, op-mix round or sched cycle — which center reduces to
	// the reported value.
	reps map[string][]float64
	// layer holds the traced repetitions' per-layer values.
	layer map[string]float64
	// dists and ratios are the human log's raw-sample distributions and
	// ratios with their bases.
	dists     []string
	ratios    []string
	attempted int64
	failed    int64
	// heapRep holds the current repetition's HeapInuse samples, in MB,
	// taken at phase boundaries.
	heapRep []float64
	// virtual marks a simulated cluster, whose clock metrics are averaged
	// rather than taken as a median (see center).
	virtual bool
}

// clockMetrics are measured on the cluster clock, which is virtual time
// under simulation.
var clockMetrics = map[string]bool{
	"gauss_s": true, "dct_s": true, "knight_s": true, "othello_s": true,
	"gm_ops_per_s": true, "gm_op_p50_us": true, "gm_op_p99_us": true,
	"jobs_per_s": true, "job_turnaround_p50_ms": true,
}

// center reduces a metric's repetitions to the reported value: the median,
// which wall-clock outliers cannot move — except for virtual-time metrics
// of a simulated cluster, which have no outliers. There each repetition
// runs under another simulator seed, whose only effect is the Ethernet's
// random collision backoff, and the mean over them is reported: a median
// would mostly return the single most common schedule's time.
func (r *report) center(name string, reps []float64) float64 {
	if name == "heap_mb" {
		// The high-water mark of a sawtooth the garbage collector draws:
		// the single highest sample is whichever one landed nearest a
		// collection, so the 90th percentile of all samples stands in.
		s := append([]float64(nil), reps...)
		sort.Float64s(s)
		return quantile(s, 0.9)
	}
	if !r.virtual || !clockMetrics[name] || len(reps) == 0 {
		return spreadOf(reps).Median
	}
	sum := 0.0
	for _, v := range reps {
		sum += v
	}
	return sum / float64(len(reps))
}

func newReport() *report {
	return &report{reps: make(map[string][]float64), layer: make(map[string]float64)}
}

func (r *report) rep(name string, v float64) { r.reps[name] = append(r.reps[name], v) }

// sampleHeap records HeapInuse at a phase boundary.
func (r *report) sampleHeap() {
	ms := memStats()
	r.heapRep = append(r.heapRep, float64(ms.HeapInuse)/1e6)
}

// endRep keeps an untraced repetition's heap samples; a traced one's
// include the tracer's span buffers.
func (r *report) endRep(untraced bool) {
	if untraced {
		r.reps["heap_mb"] = append(r.reps["heap_mb"], r.heapRep...)
	}
	r.heapRep = r.heapRep[:0]
}

// dist summarises raw samples, already in unit, and keeps the summary for
// the human log.
func (r *report) dist(name, unit string, samples []float64) dist {
	d := summarize(samples)
	r.dists = append(r.dists, fmt.Sprintf("%s [%s] %v", name, unit, d))
	return d
}

// frac records a per-layer ratio and, for the human log, its base.
func (r *report) frac(name string, num, base float64) {
	r.layer[name] = ratio(num, base)
	r.ratios = append(r.ratios, fmt.Sprintf("%s = %.6g / %.6g", name, num, base))
}

// latency records a per-layer distribution given in nanoseconds as
// name.n, name.p50_us, name.p99_us and name.busy_s, counts and busy time
// per repetition. Names the catalog lacks are not reported.
func (r *report) latency(name string, ns []float64, reps int) {
	us := make([]float64, len(ns))
	for i, v := range ns {
		us[i] = v / 1e3
	}
	d := r.dist(name, "us", us)
	r.layer[name+".n"] = float64(d.N) / float64(max(reps, 1))
	r.layer[name+".p50_us"] = d.P50
	r.layer[name+".p99_us"] = d.P99
	r.layer[name+".busy_s"] = d.Sum / 1e6 / float64(max(reps, 1))
}

// counters fills the path-mix, waste and wire metrics from the traced
// repetitions' summed runtime counters, per repetition.
func (r *report) counters(t *trace.PEStats, reps int) {
	per := func(v uint64) float64 { return float64(v) / float64(max(reps, 1)) }
	access := t.LocalGM + t.RemoteGM
	r.layer["core.gm_accesses"] = per(access)
	r.layer["core.remote_gm"] = per(t.RemoteGM)
	r.frac("core.remote_frac", float64(t.RemoteGM), float64(access))
	r.frac("core.direct_frac", float64(t.DirectGM), float64(t.RemoteGM))
	r.frac("core.ring_frac", float64(t.RingGM), float64(t.RemoteGM))
	requests := uint64(0)
	for op := range t.ByOp {
		if isGMRequest(wire.Op(op)) {
			requests += t.ByOp[op].Msgs
		}
	}
	r.layer["core.gm_requests"] = per(requests)
	r.frac("core.sharded_frac", float64(t.ShardedMsgs), float64(requests))
	r.layer["core.retries"] = per(t.Retries)
	r.layer["core.stale_replies"] = per(t.StaleReplies)
	r.layer["core.dup_requests"] = per(t.DupRequests)
	r.frac("gmem.ring_drained_frac", float64(t.RingDrained), float64(t.RingGM))
	r.layer["gmem.wc_flushes"] = per(t.WCFlushes)
	r.layer["gmem.lease_grants"] = per(t.LeaseGrants)
	r.layer["wire.msgs"] = per(t.MsgsSent)
	r.frac("wire.msgs_per_remote_op", float64(t.MsgsSent), float64(t.RemoteGM))
	r.frac("wire.bytes_per_msg", float64(t.BytesSent), float64(t.MsgsSent))
	other := t.MsgsSent
	for _, name := range wireOps {
		r.layer["wire.msgs."+name] = 0
	}
	for op := range t.ByOp {
		name := wire.Op(op).String()
		if _, ok := r.layer["wire.msgs."+name]; ok {
			r.layer["wire.msgs."+name] = per(t.ByOp[op].Msgs)
			other -= t.ByOp[op].Msgs
		}
	}
	r.layer["wire.msgs.other"] = per(other)
}

// traceOverhead compares the wall time of traced and untraced repetitions
// of the same work.
func (r *report) traceOverhead(untraced, traced []float64) {
	base := spreadOf(untraced).Median
	r.layer["bench.trace_base_s"] = base
	if len(traced) > 0 {
		r.frac("bench.trace_overhead_frac", spreadOf(traced).Median-base, base)
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human log (host, per-metric spread over repetitions,
// raw-sample distributions, per-layer values) and then the result line.
// With traced set the result carries the per-layer catalog, otherwise the
// end-to-end one.
func (r *report) print(w io.Writer, o options, problem error) error {
	fmt.Fprintf(w, "# host: nproc=%d GOMAXPROCS=%d go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "# workload=%s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	res := result{Correct: problem == nil, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricJSON)}
	for _, d := range endToEnd {
		s := spreadOf(r.reps[d.Name])
		v := r.center(d.Name, r.reps[d.Name])
		fmt.Fprintf(w, "# e2e %-24s value=%-12.6g median=%-12.6g q1=%-12.6g q3=%-12.6g reps=%d [%s]\n",
			d.Name, v, s.Median, s.Q1, s.Q3, s.N, d.Unit)
		if !o.trace {
			res.Metrics[d.Name] = metricJSON{v, d.Unit}
		}
	}
	for _, line := range r.dists {
		fmt.Fprintf(w, "# dist %s\n", line)
	}
	for _, line := range r.ratios {
		fmt.Fprintf(w, "# ratio %s\n", line)
	}
	names := make([]string, 0, len(perLayer))
	for _, d := range perLayer {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.layer[name]
		if o.trace {
			fmt.Fprintf(w, "# layer %-32s %-14.6g [%s]\n", name, v, unitOf(name))
			res.Metrics[name] = metricJSON{v, unitOf(name)}
		}
	}
	if problem != nil {
		fmt.Fprintf(w, "# FAILED: %v\n", problem)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}
