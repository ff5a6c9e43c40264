package bench

import (
	"path/filepath"
	"testing"

	"repro/internal/platform"
)

// tinyScale keeps the snapshot test fast: minimal workload sizes.
func tinyScale() Scale {
	return Scale{GaussNs: []int{30, 60}, Seed: 1}
}

func TestBuildSnapshotAndRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("snapshot build runs all four apps")
	}
	snap, err := BuildSnapshot(platform.SparcSunOS, tinyScale(), "quick")
	if err != nil {
		t.Fatal(err)
	}
	if snap.SchemaVersion != SnapshotSchemaVersion {
		t.Fatalf("schema version %d", snap.SchemaVersion)
	}
	if len(snap.Workloads) != 4 {
		t.Fatalf("%d workloads, want 4", len(snap.Workloads))
	}
	for _, w := range snap.Workloads {
		if w.ElapsedUS <= 0 || w.MsgsSent == 0 || len(w.PerOp) == 0 {
			t.Fatalf("workload %q implausible: %+v", w.Name, w)
		}
		if w.RTT.Count == 0 || w.RTT.P95 <= 0 {
			t.Fatalf("workload %q missing RTT summary: %+v", w.Name, w.RTT)
		}
		if w.Retries != 0 || w.CorruptDrops != 0 {
			t.Fatalf("workload %q saw reliability events on simnet: %+v", w.Name, w)
		}
	}
	if len(snap.Speedup) != 3 || snap.Speedup[0].Ratio != 1 {
		t.Fatalf("speedup curve: %+v", snap.Speedup)
	}
	for _, p := range snap.Speedup {
		// A tiny communication-bound problem need not speed up, but the
		// ratio must be a sane positive number.
		if p.Ratio <= 0 {
			t.Fatalf("speedup curve: %+v", snap.Speedup)
		}
	}

	path := filepath.Join(t.TempDir(), "snap.json")
	if err := snap.SaveJSON(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Workloads[0].MsgsSent != snap.Workloads[0].MsgsSent {
		t.Fatal("round trip lost data")
	}
}

func TestLoadSnapshotRejectsUnknownSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	s := &Snapshot{SchemaVersion: SnapshotSchemaVersion + 1}
	if err := s.SaveJSON(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(path); err == nil {
		t.Fatal("unknown schema version must be rejected")
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	base := &Snapshot{
		SchemaVersion: SnapshotSchemaVersion,
		Workloads: []WorkloadMetrics{{
			Name: "gauss N=120", NumPE: 4,
			MsgsSent: 1000, BytesSent: 50000,
			AllocPerRemoteOp: 1.0,
			RTT:              LatencySummary{Count: 100, P95: 200},
			PerOp:            map[string]OpMetrics{"read": {Msgs: 400}, "read-v": {Msgs: 50}},
		}},
	}
	clone := func() *Snapshot {
		c := *base
		c.Workloads = append([]WorkloadMetrics(nil), base.Workloads...)
		w := &c.Workloads[0]
		w.PerOp = map[string]OpMetrics{}
		for k, v := range base.Workloads[0].PerOp {
			w.PerOp[k] = v
		}
		return &c
	}

	if regs := Compare(base, clone()); len(regs) != 0 {
		t.Fatalf("identical snapshots flagged: %v", regs)
	}

	// Within tolerance: +5% messages, alloc within epsilon.
	ok := clone()
	ok.Workloads[0].MsgsSent = 1050
	ok.Workloads[0].AllocPerRemoteOp = 1.4
	if regs := Compare(base, ok); len(regs) != 0 {
		t.Fatalf("within-tolerance changes flagged: %v", regs)
	}

	// Regressions: +20% total msgs, +50% of one op, worse p95, alloc blowup.
	bad := clone()
	bad.Workloads[0].MsgsSent = 1200
	bad.Workloads[0].PerOp["read"] = OpMetrics{Msgs: 600}
	bad.Workloads[0].RTT.P95 = 300
	bad.Workloads[0].AllocPerRemoteOp = 3.0
	regs := Compare(base, bad)
	if len(regs) != 4 {
		t.Fatalf("want 4 regressions, got %d: %v", len(regs), regs)
	}

	// A missing workload is itself a regression.
	gone := clone()
	gone.Workloads[0].Name = "renamed"
	if regs := Compare(base, gone); len(regs) != 1 {
		t.Fatalf("missing workload: %v", regs)
	}
}

// TestCompareSaturationFloor pins the wide-margin rule for wall-clock
// saturation points: drops above 40% of baseline are noise, a collapse below
// it is a regression, and a run without -saturate skips the section.
func TestCompareSaturationFloor(t *testing.T) {
	pt := func(ops float64) SaturationPoint {
		return SaturationPoint{Workload: "read", NumPE: 8, Shards: 4, OpsPerSec: ops}
	}
	base := &Snapshot{Saturation: []SaturationPoint{pt(1000000)}}

	if regs := Compare(base, &Snapshot{Saturation: []SaturationPoint{pt(500000)}}); len(regs) != 0 {
		t.Fatalf("half-speed point flagged despite 40%% floor: %v", regs)
	}
	if regs := Compare(base, &Snapshot{Saturation: []SaturationPoint{pt(100000)}}); len(regs) != 1 {
		t.Fatalf("collapsed point not flagged: %v", regs)
	}
	if regs := Compare(base, &Snapshot{}); len(regs) != 0 {
		t.Fatalf("absent sweep flagged: %v", regs)
	}
	if regs := Compare(&Snapshot{}, &Snapshot{Saturation: []SaturationPoint{pt(1)}}); len(regs) != 0 {
		t.Fatalf("baseline without sweep flagged: %v", regs)
	}
}

// TestCompareFlagsVanishedRows: a saturation point or scheduler leg the
// baseline has is a regression when the current snapshot carries that
// section but lacks the row — a deleted sweep leg must not pass unnoticed.
func TestCompareFlagsVanishedRows(t *testing.T) {
	read := SaturationPoint{Workload: "read", NumPE: 8, Shards: 4, OpsPerSec: 1000000}
	mixed := read
	mixed.Workload = "mixed"
	burst := SchedPoint{Leg: "burst", Workers: 4, Jobs: 100, JobsPerSec: 1000}
	poisson := SchedPoint{Leg: "poisson", Workers: 4, Jobs: 100, RatePerSec: 500, JobsPerSec: 400}
	base := &Snapshot{
		Saturation: []SaturationPoint{read, mixed},
		Sched:      []SchedPoint{burst, poisson},
	}
	cur := &Snapshot{
		Saturation: []SaturationPoint{read},
		Sched:      []SchedPoint{burst},
	}
	if regs := Compare(base, cur); len(regs) != 2 {
		t.Fatalf("want the missing point and leg flagged, got %d: %v", len(regs), regs)
	}
	if regs := Compare(base, base); len(regs) != 0 {
		t.Fatalf("identical sections flagged: %v", regs)
	}
}

// TestMeasureSaturationSmoke runs one tiny saturation point end to end and
// sanity-checks the resulting cell.
func TestMeasureSaturationSmoke(t *testing.T) {
	p, err := MeasureSaturation(SaturationOptions{NumPE: 4, Shards: 2, OpsPerPE: 200})
	if err != nil {
		t.Fatal(err)
	}
	if p.Ops != 600 || p.OpsPerSec <= 0 {
		t.Fatalf("implausible point: %+v", p)
	}
	if !p.Direct || p.DirectGM == 0 {
		t.Fatalf("direct window expected on by default at shards=2: %+v", p)
	}
	p2, err := MeasureSaturation(SaturationOptions{NumPE: 4, Shards: 1, OpsPerPE: 200})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Direct || p2.DirectGM != 0 {
		t.Fatalf("direct window active at shards=1: %+v", p2)
	}
}

// TestSaturationRouteAssertions runs small mixed points at one and two
// shards, each of which must pass its route check, then feeds checkRoute
// counters that contradict their shape.
func TestSaturationRouteAssertions(t *testing.T) {
	const ops = 202 // 50 writes and 152 reads per hammering PE
	for _, shards := range []int{1, 2} {
		p, err := MeasureSaturation(SaturationOptions{NumPE: 3, Shards: shards, OpsPerPE: ops, Mixed: true})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if shards > 1 && (p.DirectGM != 2*152 || p.RingGM == 0) {
			t.Fatalf("shards=%d: implausible one-sided point: %+v", shards, p)
		}
	}
	for _, pt := range []SaturationPoint{
		{Workload: "read", Shards: 1, DirectGM: 1},
		{Workload: "mixed", Shards: 1, RingGM: 1},
		{Workload: "read", Shards: 2, DirectGM: 9},
		{Workload: "mixed", Shards: 4, DirectGM: 10},
	} {
		if checkRoute(pt, 10) == nil {
			t.Errorf("contradictory counters passed: %+v", pt)
		}
	}
	if err := checkRoute(SaturationPoint{Workload: "mixed", Shards: 2, DirectGM: 10, RingGM: 1}, 10); err != nil {
		t.Errorf("ring-full fallback rejected: %v", err)
	}
}
