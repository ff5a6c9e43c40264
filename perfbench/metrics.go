package main

import "fmt"

// metricDef names one reported metric. The two catalogs below are the
// benchmark's contract: BENCHMARK.json lists exactly these names, units and
// directions (TestCatalogMatchesBenchmarkJSON), and every workload reports
// every metric of the catalog its --trace mode selects.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the runtime sees, measured on untraced
// repetitions and reported as the median over a run's repetitions. Each is
// defined on all four workloads (see README.md for the per-workload
// meaning) and is never zero on a passing run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"gauss_s", "s", "lower"},
	{"dct_s", "s", "lower"},
	{"knight_s", "s", "lower"},
	{"gm_ops_per_s", "1/s", "higher"},
	{"jobs_per_s", "1/s", "higher"},
	{"job_turnaround_p50_ms", "ms", "lower"},
	{"heap_mb", "MB", "lower"},
}

// coreKinds are the groups tracedPE times every core call into.
var coreKinds = []string{"gm_read", "gm_write", "gm_block_read", "gm_block_write", "fetch_add", "barrier", "allreduce"}

// appNames are the paper's four applications, in suite order.
var appNames = []string{"gauss", "dct", "othello", "knight"}

// wireOps are the message ops broken out as wire.msgs.<op>; everything
// else sent lands in wire.msgs.other.
var wireOps = []string{
	"read", "read-resp", "write", "write-ack", "fetch-add", "fetch-add-resp",
	"read-v", "read-v-resp", "write-v", "flush-v", "read-lease", "read-lease-resp",
	"barrier-arrive", "barrier-release", "user-msg", "ns-bind", "ns-free", "job-purge",
}

// perLayer is the traced run's catalog. Layers a workload does not
// exercise report 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var m []metricDef
	add := func(name, unit, better string) { m = append(m, metricDef{name, unit, better}) }
	// Moved from the end-to-end set: defined on only some workloads, or
	// zero on every passing run (README.md gives each reason).
	add("othello_s", "s", "lower")
	add("gm_op_p50_us", "us", "lower")
	add("gm_op_p99_us", "us", "lower")
	add("job_turnaround_p99_ms", "ms", "lower")
	add("fail_frac", "ratio", "lower")
	for _, k := range coreKinds {
		add("core."+k+".n", "count", "lower")
		add("core."+k+".p50_us", "us", "lower")
		add("core."+k+".p99_us", "us", "lower")
		add("core."+k+".busy_s", "s", "lower")
	}
	for _, a := range appNames {
		add("apps."+a+".self_s", "s", "lower")
		add("apps."+a+".core_s", "s", "lower")
		add("apps."+a+".seq_s", "s", "lower")
	}
	add("core.gm_accesses", "count", "lower")
	add("core.remote_gm", "count", "lower")
	add("core.remote_frac", "ratio", "lower")
	add("core.direct_frac", "ratio", "higher")
	add("core.ring_frac", "ratio", "higher")
	add("core.gm_requests", "count", "lower")
	add("core.sharded_frac", "ratio", "higher")
	add("core.retries", "count", "lower")
	add("core.stale_replies", "count", "lower")
	add("core.dup_requests", "count", "lower")
	add("core.ops_measured", "count", "higher")
	add("core.allocs_per_op", "allocs/op", "lower")
	add("gmem.ring_drained_frac", "ratio", "higher")
	add("gmem.wc_flushes", "count", "lower")
	add("gmem.lease_grants", "count", "lower")
	add("wire.msgs", "count", "lower")
	add("wire.msgs_per_remote_op", "msgs/op", "lower")
	add("wire.bytes_per_msg", "B", "lower")
	for _, op := range wireOps {
		add("wire.msgs."+op, "count", "lower")
	}
	add("wire.msgs.other", "count", "lower")
	for _, p := range []string{"app_send", "svc_send"} {
		add("transport."+p+".n", "count", "lower")
		add("transport."+p+".p50_us", "us", "lower")
		add("transport."+p+".p99_us", "us", "lower")
		add("transport."+p+".busy_s", "s", "lower")
	}
	add("transport.bytes", "B", "lower")
	add("core.kernel_service.n", "count", "lower")
	add("core.kernel_service.p50_us", "us", "lower")
	add("core.kernel_service.p99_us", "us", "lower")
	add("sched.submit.p50_us", "us", "lower")
	add("sched.submit.p99_us", "us", "lower")
	add("sched.queue_wait.p50_ms", "ms", "lower")
	add("sched.queue_wait.p99_ms", "ms", "lower")
	add("sched.run.p50_ms", "ms", "lower")
	add("sched.run.p99_ms", "ms", "lower")
	add("sched.max_queued", "count", "lower")
	add("sched.max_resident", "count", "higher")
	add("sched.utilization", "ratio", "higher")
	add("sched.ns_violations", "count", "lower")
	add("ethernet.frames", "count", "lower")
	add("ethernet.collisions", "count", "lower")
	add("ethernet.busy_frac", "ratio", "lower")
	add("sim.wall_s", "s", "lower")
	add("bench.gen_late.p50_ms", "ms", "lower")
	add("bench.gen_late.p99_ms", "ms", "lower")
	add("bench.trace_overhead_frac", "ratio", "lower")
	add("bench.trace_base_s", "s", "lower")
	return m
}

// unitOf looks a metric's unit up in either catalog.
func unitOf(name string) string {
	for _, cat := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range cat {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	panic(fmt.Sprintf("perfbench: metric %q is in no catalog", name))
}
