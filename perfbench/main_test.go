package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

// runTiny runs one workload at test size and returns its exit code, the
// decoded result line and stderr.
func runTiny(t *testing.T, o options) (int, result, string) {
	t.Helper()
	o.tiny = true
	if o.seconds == 0 {
		o.seconds = 0.01
	}
	if o.seed == 0 {
		o.seed = 3
	}
	var stdout, stderr bytes.Buffer
	code := execute(o, workloads[o.workload], &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", o.workload, err, stdout.String())
	}
	return code, res, stderr.String()
}

func TestTinyWorkloads(t *testing.T) {
	for _, name := range []string{"apps-inproc", "apps-tcp", "apps-simnet", "sched-jobs"} {
		for _, traced := range []bool{false, true} {
			code, res, stderr := runTiny(t, options{workload: name, trace: traced})
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: exit %d correct=%v failed=%d attempted=%d\n%s",
					name, traced, code, res.Correct, res.Failed, res.Attempted, stderr)
			}
			cat := endToEnd
			if traced {
				cat = perLayer
			}
			if len(res.Metrics) != len(cat) {
				t.Errorf("%s trace=%v: %d metrics, catalog has %d", name, traced, len(res.Metrics), len(cat))
			}
			for _, d := range cat {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, traced, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: %s unit %q, want %q", name, d.Name, m.Unit, d.Unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, d.Name, m.Value)
				}
			}
		}
	}
}

func TestForgedAnswerFails(t *testing.T) {
	for _, name := range []string{"apps-inproc", "apps-simnet"} {
		code, res, stderr := runTiny(t, options{workload: name, forgeAnswer: true})
		if code == 0 || res.Correct || !strings.Contains(stderr, "wrong answer") {
			t.Errorf("%s: forged answer gave exit %d correct=%v stderr %q", name, code, res.Correct, stderr)
		}
	}
}

func TestForgedPathDriftFails(t *testing.T) {
	// A window hit on tcp, which has no shared address space, and a
	// namespace violation on the scheduler must both fail the run.
	for _, name := range []string{"apps-tcp", "sched-jobs"} {
		code, res, stderr := runTiny(t, options{workload: name, forgePath: true})
		if code == 0 || res.Correct || !strings.Contains(stderr, "path drift") {
			t.Errorf("%s: forged path drift gave exit %d correct=%v stderr %q", name, code, res.Correct, stderr)
		}
	}
}

func TestUsageErrorsExitNonZero(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "apps-inproc", "--seconds", "0"},
		{"--workload", "apps-inproc", "--trace", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the catalogs
// the command reports from in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, command has %v", names, want)
	}
	for _, c := range []struct {
		name      string
		got, want []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the catalog", c.name, len(c.got), len(c.want))
			continue
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, catalog %+v", c.name, i, c.got[i], c.want[i])
			}
		}
	}
}

func TestSummarizeUsesRawSamples(t *testing.T) {
	var s []float64
	for i := 1; i <= 100; i++ {
		s = append(s, float64(i))
	}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	d := summarize(s)
	if d.N != 100 || !near(d.P50, 50.5) || !near(d.P99, 99.01) {
		t.Errorf("summary %+v", d)
	}
	// The highest percentile with ten samples beyond it is p90.
	if !near(d.TailQ, 0.9) || !near(d.Tail, 90.1) {
		t.Errorf("tail p%v = %v, want p90 = 90.1", 100*d.TailQ, d.Tail)
	}
}
